"""``Representation.matroid`` restates its columns on their r nonzero echelon
rows, then lists the bases by a depth-first walk with incremental,
fraction-free elimination, finished two columns from the end by a 2x2 minor
on the two coordinates that are no pivot of the prefix; these tests hold it
to the per-subset RREF filter of ``oracles.brute_column_bases``, value for
value and in the same order.  Redundant rows change neither the bases nor
the covector adjoint."""
import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matadj import InputError, Representation, adjoint_from_representation, by_name, catalog, full_verification, uniform
from matadj.catalog import _vandermonde
from matadj.files import adjoint_to_dict, canonical_json
from matadj.sets import bits
from oracles import brute_column_bases
from test_linalg import FIELDS


def listed_bases(rep):
    return tuple(tuple(bits(b)) for b in rep.matroid()._basis_masks)


def covector_target(rep):
    """The representation whose column matroid is the covector adjoint's target."""
    M = rep.matroid()
    return Representation(rep.field, tuple(rep.covector(H) for H in M.hyperplanes()), rep.dim)


def scalars(field):
    """Nonzero scalars, for parallel columns."""
    if field == "rational":
        return st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
    return st.integers(-2 * field, 2 * field).filter(lambda x: x % field)


def large_scalars(field):
    """Nonzero scalars with large numerators and denominators over the
    rationals, whose products the last step of the walk never divides down."""
    if field == "rational":
        return st.fractions(min_value=-10**12, max_value=10**12, max_denominator=10**6).filter(bool)
    return scalars(field)


@st.composite
def column_representations(draw):
    field = draw(st.sampled_from(FIELDS))
    # mostly 4 to 6 rows and at least as many columns, so that most draws
    # have rank 2 or more and many reach rank 5 or 6
    dim = draw(st.one_of(st.integers(4, 6), st.integers(0, 6)))
    n = draw(st.one_of(st.integers(dim, 9), st.integers(0, 9)))
    # few distinct values, so that dependent sets of columns are common; the
    # nonzero ones come first, since hypothesis draws many of its examples at
    # the first branch of each choice, and all-zero columns would waste them
    values = draw(st.lists(st.one_of(scalars(field), large_scalars(field)), min_size=1, max_size=4))
    cell = st.one_of(st.sampled_from(values), st.just(0))
    # optionally a triangle of columns first, nonzero on the diagonal, so
    # that the rank is min(n, dim); the columns are shuffled at the end
    triangle = draw(st.booleans())
    columns = []
    for j in range(n):
        if triangle and j < dim:
            columns.append(tuple(draw(cell) for _ in range(j)) + (draw(scalars(field)),) + (0,) * (dim - j - 1))
            continue
        kind = draw(st.sampled_from(["drawn", "zero", "parallel", "combination"]))
        if kind == "zero":
            columns.append((0,) * dim)
        elif kind == "parallel" and columns:
            scale = draw(scalars(field))
            columns.append(tuple(scale * x for x in draw(st.sampled_from(columns))))
        elif kind == "combination" and len(columns) >= 2:
            # a*u + b*v: modulo a prefix holding other columns of span(u, v),
            # parallel classes of three or more columns are common
            u, v = draw(st.permutations(columns))[:2]
            a, b = draw(scalars(field)), draw(scalars(field))
            columns.append(tuple(a * x + b * y for x, y in zip(u, v)))
        else:
            columns.append(tuple(draw(cell) for _ in range(dim)))
    # redundant rows, so that the rank is below the dimension: a zero row, or
    # a*x + b*y of two rows x and y, which is a copy of x when b is 0
    for kind in draw(st.lists(st.sampled_from(["combination", "zero"]), max_size=2 if dim else 0)):
        if kind == "zero":
            columns = [col + (0,) for col in columns]
        else:
            i, k = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
            a, b = draw(scalars(field)), draw(st.one_of(st.just(0), scalars(field)))
            columns = [col + (a * col[i] + b * col[k],) for col in columns]
        dim += 1
    return Representation(field, tuple(draw(st.permutations(columns))), dim)


@settings(max_examples=400, deadline=None)
@given(column_representations())
def test_walk_lists_the_brute_force_bases_in_order(rep):
    assert listed_bases(rep) == brute_column_bases(rep)


@pytest.mark.parametrize("name", [e.name for e in catalog()])
def test_catalog_bases_match_brute_force(name):
    rep = by_name(name).representation
    assert listed_bases(rep) == brute_column_bases(rep)
    assert listed_bases(covector_target(rep)) == brute_column_bases(covector_target(rep))


@pytest.mark.parametrize("name", [e.name for e in catalog() if e.name.startswith("U_")])
def test_uniform_entries_are_the_uniform_matroids(name):
    # each entry is the column matroid of its representation; a uniform one
    # is the matroid that ``uniform`` builds, with its bases in the same
    # order and the same provenance
    r, n = map(int, name.split("_")[1:])
    M = by_name(name).matroid
    assert M == uniform(r, n)
    assert M._basis_masks == uniform(r, n)._basis_masks
    assert M.provenance == uniform(r, n).provenance == {"op": "named", "name": name}


def test_large_covector_target_is_pinned():
    # U_4_7's covector target: 35 points in rank 4, C(35, 4) = 52,360 subsets
    target = covector_target(_vandermonde(4, 7)).matroid()
    assert target.n == 35 and len(target._basis_masks) == 40_672
    digest = hashlib.sha256(repr(target._basis_masks).encode()).hexdigest()
    assert digest == "aa96f8737db34450d90446b63650718699cbf709b3a512f73e5be5847482dbef"


def test_largest_covector_target_is_pinned():
    # U_4_8's covector target: 56 points in rank 4, completed by 2x2 minors at
    # every one of its 1,431 two-column prefixes
    target = covector_target(_vandermonde(4, 8)).matroid()
    assert target.n == 56 and len(target._basis_masks) == 307_398
    digest = hashlib.sha256(repr(target._basis_masks).encode()).hexdigest()
    assert digest == "b7058bf0c373e1dd46448482c092faf3dd8dfe74507e3678f0758114bbaee713"


def test_rank_5_covector_target_is_pinned():
    # U_5_7's covector target: 35 points in rank 5, completed by 2x2 minors at
    # three-column prefixes; the digest was taken from the parallel-class walk
    target = covector_target(_vandermonde(5, 7)).matroid()
    assert target.n == 35 and len(target._basis_masks) == 191_268
    digest = hashlib.sha256(repr(target._basis_masks).encode()).hexdigest()
    assert digest == "b6732953dbea51c9579e9ff95b6a7f298fa120bb326fd7a612a06933df84297d"


def with_row(rep, row):
    """rep with one more row, whose entry in each column is row(column)."""
    return Representation(rep.field, tuple(col + (row(col),) for col in rep.columns), rep.dim + 1)


@pytest.mark.parametrize("name", [e.name for e in catalog()])
@pytest.mark.parametrize("row", [lambda col: 0, sum], ids=["zero row", "sum of rows"])
def test_redundant_rows_keep_the_bases_and_the_covector_adjoint(name, row):
    entry = by_name(name)
    wider = with_row(entry.representation, row)
    assert listed_bases(wider) == brute_column_bases(wider) == listed_bases(entry.representation)
    M = wider.matroid()
    phi = adjoint_from_representation(M, wider)
    assert all(report.valid for report in full_verification(phi).values())
    # the same labelled target and map as the representation without the row
    want = adjoint_from_representation(entry.matroid, entry.representation)
    assert phi.target._basis_masks == want.target._basis_masks
    assert canonical_json(adjoint_to_dict(phi)) == canonical_json(adjoint_to_dict(want))
    # a functional on the wider space is not unique, so covector refuses it
    H = M.hyperplanes()[0]
    with pytest.raises(InputError, match="covector space of"):
        wider.covector(H)


def test_rational_columns_are_scaled_not_rounded():
    # exact: (1/3, 1) is parallel to (2/6, 1) and not to (333/1000, 1)
    third = (Fraction(1, 3), Fraction(1))
    assert listed_bases(Representation("rational", (third, (Fraction(333, 1000), 1)), 2)) == ((0, 1),)
    assert listed_bases(Representation("rational", (third, ("2/6", 3)), 2)) == ((0, 1),)
    assert listed_bases(Representation("rational", (third, ("2/6", 1)), 2)) == ((0,), (1,))
    # parallel only once each column is scaled by the lcm of its own denominators
    mixed = (Fraction(1, 2), Fraction(1, 3))
    assert listed_bases(Representation("rational", (mixed, (3, 2), (1, 1)), 2)) == ((0, 2), (1, 2))
