"""``Representation`` checks its field and entries once, at construction, and
its covectors equal the normalised null vectors of ``oracles.rref`` in value
and type.  Both ``Representation.covector`` and the covector adjoint call
one kernel, ``linalg._covector``: an (r - 2)-prefix of H's columns, one 2x2
cofactor on the two coordinates that are no pivot of it, and
back-substitution.  It is held to the oracle on every hyperplane of drawn
representations of rank 1 to 6, on the coordinates that the adjoint reads."""
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matadj import ElementSet, InputError, Representation
from matadj.linalg import _covector
from matadj.sets import bits
from oracles import null_covector, powerset, rref
from test_column_bases import scalars
from test_linalg import FIELDS, entries


@st.composite
def covector_representations(draw):
    """Columns over GF(2), GF(3), GF(5) or Q, with 1 to 4 rows and at least
    as many columns, up to 7: drawn columns, out-of-range residues and
    rationals with denominators included, so that most draws reach the full
    rank and have covectors, and some zero and parallel columns."""
    field = draw(st.sampled_from(FIELDS))
    dim = draw(st.integers(1, 4))
    columns = []
    for _ in range(draw(st.integers(dim, 7))):
        kind = draw(st.sampled_from(["drawn", "drawn", "drawn", "zero", "parallel"]))
        if kind == "zero":
            columns.append((0,) * dim)
        elif kind == "parallel" and columns:
            scale = draw(scalars(field))
            columns.append(tuple(scale * x for x in draw(st.sampled_from(columns))))
        else:
            columns.append(tuple(draw(entries(field)) for _ in range(dim)))
    return Representation(field, tuple(columns), dim)


@pytest.mark.parametrize(
    "field,entry,message",
    [
        (3, Fraction(1, 2), "bad matrix entry Fraction(1, 2): over GF(3) an entry must be an integer"),
        (2, 1.7, "bad matrix entry 1.7: over GF(2) an entry must be an integer"),
        (2, True, "bad matrix entry True: over GF(2) an entry must be an integer"),
        ("rational", True, "bad matrix entry True: over the rationals an entry must be"),
        ("rational", 0.1, "bad matrix entry 0.1: over the rationals an entry must be"),
        ("rational", "x", "bad matrix entry 'x'"),
        ("rational", "1/0", "bad matrix entry '1/0'"),
    ],
)
def test_entries_are_checked_not_coerced(field, entry, message):
    with pytest.raises(InputError, match=re.escape(message)):
        Representation(field, ((1, 0), (0, 1), (1, entry)), 2)


@pytest.mark.parametrize(
    "field,message",
    [(4, "4 is not prime"), (2.0, "unknown field specification 2.0"),
     (True, "unknown field specification True"), ("3", "unknown field specification '3'")],
)
def test_field_spec_is_checked(field, message):
    with pytest.raises(InputError, match=re.escape(message)):
        Representation(field, ((1,),), 1)


def test_entries_are_stored_as_field_elements():
    assert Representation(3, ((4, -1), (0, 3)), 2).columns == ((1, 2), (0, 0))
    rep = Representation("rational", (("0.1", 2), (Fraction(1, 3), "-1/2")), 2)
    assert rep.columns == ((Fraction(1, 10), Fraction(2)), (Fraction(1, 3), Fraction(-1, 2)))
    assert rep == Representation("rational", (("1/10", 2), ("2/6", Fraction(-1, 2))), 2)


@settings(max_examples=200, deadline=None)
@given(covector_representations())
def test_covectors_match_the_rref_null_vector(rep):
    # every set of columns: the hyperplanes of the column matroid, the sets
    # that span one without being closed, and every set that is refused
    r = rep.rank_of(range(rep.n))
    hyperplanes = set(rep.matroid().hyperplanes()) if r else set()
    for labels in powerset(range(rep.n)):
        H = ElementSet.of(labels, rep.n)
        dimension, want = null_covector(rep, labels)
        if H in hyperplanes:
            # a hyperplane has a covector exactly when the columns span the space
            assert (want is None) == (r != rep.dim)
        if want is None:
            if labels:
                message = f"covector space of {H!r} has dimension {dimension}, expected 1"
            else:
                message = "covector space of the empty set is not 1-dimensional"
            with pytest.raises(InputError, match=re.escape(message)):
                rep.covector(H)
        else:
            got = rep.covector(H)
            assert got == want
            assert [type(x) for x in got] == [type(x) for x in want]


@pytest.mark.parametrize(
    "H,message",
    [(ElementSet.of([0], 9), "set universe 9 does not match ground-set size 4"),
     (ElementSet.of([5], 9), "set universe 9 does not match ground-set size 4"),
     (frozenset({0}), "expected ElementSet, got frozenset"),
     ([0, 1], "expected ElementSet, got list")],
)
def test_covector_refuses_a_set_on_other_labels(H, message):
    rep = Representation(3, ((1, 0), (0, 1), (1, 1), (1, 2)), 2)
    with pytest.raises(InputError, match=re.escape(message)):
        rep.covector(H)


@pytest.mark.parametrize(
    "indices,message",
    [([-1], "column set [-1] has element -1 out of range for ground set of size 4"),
     ([7], "column set [7] has element 7 out of range for ground set of size 4"),
     (["a"], "column set ['a'] has non-integer element 'a'"),
     ([True], "column set [True] has non-integer element True"),
     ([1, 1], "column set [1, 1] repeats an element")],
)
def test_rank_of_refuses_labels_that_are_not_columns(indices, message):
    rep = Representation(3, ((1, 0), (0, 1), (1, 1), (1, 2)), 2)
    with pytest.raises(InputError, match=re.escape(message)):
        rep.rank_of(indices)


def test_rank_of_takes_any_collection_of_labels():
    rep = Representation(3, ((1, 0), (0, 1), (1, 1), (2, 2)), 2)
    assert rep.rank_of(range(4)) == 2
    assert rep.rank_of((2, 3)) == 1
    assert rep.rank_of([]) == 0



def test_columns_may_come_from_a_generator():
    columns = ((1, 0), (0, 1), (1, 1))
    rep = Representation(2, (c for c in columns), 2)
    assert rep.columns == columns
    assert rep.matroid() == Representation(2, columns, 2).matroid()
    assert rep.matroid().n == 3


@pytest.mark.parametrize(
    "columns,dim,message",
    [((1, 2), 1, "column 1 is not a tuple or list of entries"),
     (((1, 0), 5), 2, "column 5 is not a tuple or list of entries"),
     ("10", 1, "column '1' is not a tuple or list of entries"),
     (((1, 0), iter((0, 1))), 2, "is not a tuple or list of entries"),
     (None, 2, "expected Iterable, got NoneType"),
     (3, 2, "expected Iterable, got int")],
)
def test_columns_that_are_not_sequences_are_refused(columns, dim, message):
    with pytest.raises(InputError, match=re.escape(message)):
        Representation(2, columns, dim)


@pytest.mark.parametrize("dim", [True, False, -1, "1", 1.0, None])
def test_dimension_is_a_non_negative_int(dim):
    with pytest.raises(InputError, match=re.escape(f"dimension must be a non-negative integer, got {dim!r}")):
        Representation(2, ((1,),), dim)
    with pytest.raises(InputError, match=re.escape(f"dimension must be a non-negative integer, got {dim!r}")):
        Representation(2, (), dim)


def test_dimension_zero_gives_loops():
    M = Representation(2, ((), ()), 0).matroid()
    assert (M.n, M.full_rank) == (2, 0)


@st.composite
def hyperplane_representations(draw):
    """Columns of rank r, 1 to 6, over GF(2), GF(3), GF(5), GF(7) or Q: a
    triangle of r columns, nonzero on the diagonal, and up to four more,
    each a loop, parallel to an earlier column or drawn, in shuffled order.
    Half of the draws put a loop at label 0, which every hyperplane then
    starts with.  Up to two redundant rows follow: a zero row, or a*x + b*y
    of two rows x and y."""
    field = draw(st.sampled_from([2, 3, 5, 7, "rational"]))
    r = draw(st.integers(1, 6))
    columns = [tuple(draw(entries(field)) for _ in range(j)) + (draw(scalars(field)),) + (0,) * (r - j - 1)
               for j in range(r)]
    for kind in draw(st.lists(st.sampled_from(["loop", "parallel", "drawn"]), max_size=4)):
        if kind == "loop":
            columns.append((0,) * r)
        elif kind == "parallel":
            scale = draw(scalars(field))
            columns.append(tuple(scale * x for x in draw(st.sampled_from(columns))))
        else:
            columns.append(tuple(draw(entries(field)) for _ in range(r)))
    columns = draw(st.permutations(columns))
    if draw(st.booleans()):
        columns = [(0,) * r, *columns]
    for kind in draw(st.lists(st.sampled_from(["zero", "combination"]), max_size=2)):
        if kind == "zero":
            columns = [col + (0,) for col in columns]
        else:
            i, k = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
            a, b = draw(scalars(field)), draw(scalars(field))
            columns = [col + (a * col[i] + b * col[k],) for col in columns]
    return Representation(field, tuple(columns), len(columns[0]))


def rank_by_rref(rep, labels):
    return len(rref([rep.columns[i] for i in labels], rep.field)[1])


@settings(max_examples=200, deadline=None)
@given(hyperplane_representations())
# over GF(3), every hyperplane starts with the loop 0, so the rank-2 prefix
# is empty, and the parallel pair 1, 2 spans one of them
@example(Representation(3, ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1)), 2))
# U_6_7, the rank-6 Vandermonde matrix: prefixes of four columns
@example(Representation("rational", tuple(tuple(x ** i for i in range(6)) for x in range(7)), 6))
def test_covector_kernel_matches_the_rref_null_vector(rep):
    # every hyperplane, on the r coordinates that the reduction keeps, which
    # the oracle reads too; with no redundant row, covector gives the same
    M = rep.matroid()
    r = M.full_rank
    assert r >= 1
    vectors = rep._reduced_vectors
    reduced = Representation(rep.field, vectors, r)
    for h in M.flats().hyperplane_masks:
        labels = bits(h)
        dimension, want = null_covector(reduced, labels)
        assert dimension == 1
        got = _covector(vectors, r, h, rep._char)
        assert got == want
        assert all(type(x) is int for x in got)
        # the columns of H after its first r - 1 independent ones are never read
        spanned = next(k for k in range(len(labels) + 1) if rank_by_rref(reduced, labels[:k]) == r - 1)
        unread = [None if e in labels[spanned:] else vec for e, vec in enumerate(vectors)]
        assert _covector(unread, r, h, rep._char) == got
        if rep.dim == r:
            assert rep.covector(ElementSet.of(labels, rep.n)) == null_covector(rep, labels)[1]
