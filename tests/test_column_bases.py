"""``Representation.matroid`` lists the bases by a depth-first walk with
incremental, fraction-free elimination, finished by parallel classes two
columns from the end; these tests hold it to the per-subset RREF filter of
``oracles.brute_column_bases``, value for value and in the same order."""
import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matadj import Representation, by_name, catalog, uniform
from matadj.catalog import _vandermonde
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


@st.composite
def column_representations(draw):
    field = draw(st.sampled_from(FIELDS))
    dim = draw(st.integers(0, 5))
    # mostly at least dim columns, so that most draws have rank 2 or more
    n = draw(st.one_of(st.integers(dim, 9), st.integers(0, 9)))
    # few distinct values, so that dependent sets of columns are common; the
    # nonzero ones come first, since hypothesis draws many of its examples at
    # the first branch of each choice, and all-zero columns would waste them
    values = draw(st.lists(scalars(field), min_size=1, max_size=4))
    cell = st.one_of(st.sampled_from(values), st.just(0))
    columns = []
    for _ in range(n):
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
    return Representation(field, tuple(columns), dim)


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
    # U_4_8's covector target: 56 points in rank 4, listed by the parallel-class
    # finish at every one of its 1,431 two-column prefixes
    target = covector_target(_vandermonde(4, 8)).matroid()
    assert target.n == 56 and len(target._basis_masks) == 307_398
    digest = hashlib.sha256(repr(target._basis_masks).encode()).hexdigest()
    assert digest == "b7058bf0c373e1dd46448482c092faf3dd8dfe74507e3678f0758114bbaee713"


def test_rational_columns_are_scaled_not_rounded():
    # exact: (1/3, 1) is parallel to (2/6, 1) and not to (333/1000, 1)
    third = (Fraction(1, 3), Fraction(1))
    assert listed_bases(Representation("rational", (third, (Fraction(333, 1000), 1)), 2)) == ((0, 1),)
    assert listed_bases(Representation("rational", (third, ("2/6", 3)), 2)) == ((0, 1),)
    assert listed_bases(Representation("rational", (third, ("2/6", 1)), 2)) == ((0,), (1,))
    # parallel only once each column is scaled by the lcm of its own denominators
    mixed = (Fraction(1, 2), Fraction(1, 3))
    assert listed_bases(Representation("rational", (mixed, (3, 2), (1, 1)), 2)) == ((0, 2), (1, 2))
