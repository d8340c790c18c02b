"""``Representation`` checks its field and entries once, at construction, and
its covectors, computed by back-substitution through the elimination
kernel, equal the normalised null vectors of ``oracles.rref`` in value and
type."""
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matadj import ElementSet, InputError, Representation
from oracles import null_covector, powerset
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
