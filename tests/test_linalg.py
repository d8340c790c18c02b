import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matadj import ConstructionError, InputError
from matadj.linalg import (
    PRIME_BOUND,
    characteristic,
    direction,
    echelon,
    eliminate,
    integer_vector,
    is_prime,
    leading_index,
    _covector,
)
from oracles import eliminate_in_two_passes, is_prime_by_trial_division, rref

FIELDS = [2, 3, 5, "rational"]


def entries(field):
    if field == "rational":
        return st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.integers(-field, 2 * field)  # out-of-range values exercise the coercion


def nonzero_entries(field):
    """Entries that are nonzero in the field, out-of-range ones included."""
    if field == "rational":
        return entries(field).filter(bool)
    return entries(field).filter(lambda x: x % field)


@st.composite
def matrices(draw):
    field = draw(st.sampled_from(FIELDS))
    rows = draw(st.integers(1, 5))  # the empty matrix is an explicit example
    cols = draw(st.integers(1, 6))
    # few distinct values, so that dependent rows are common; they are
    # nonzero in the field, so that a zero entry comes only from the zero
    # branch, which comes second
    values = draw(st.lists(nonzero_entries(field), min_size=1, max_size=3))
    cell = st.one_of(st.sampled_from(values), st.just(0))
    return field, [[draw(cell) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=400, deadline=None)
@given(matrices())
@example((3, []))
@example(("rational", []))
def test_echelon_rank_matches_rref(drawn):
    field, rows = drawn
    char = characteristic(field)
    rank = len(echelon([integer_vector(row, char) for row in rows], char))
    assert rank == len(rref(rows, field)[1])



def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(100_000) if is_prime(n)] == [n for n in range(100_000) if is_prime_by_trial_division(n)]


@pytest.mark.parametrize("n", [3_215_031_751, 3_825_123_056_546_413_051])
def test_strong_pseudoprimes_are_refused(n):
    # strong pseudoprimes to the bases 2, 3, 5 and 7, and to every prime base up to 31
    with pytest.raises(InputError, match=f"^{n} is not prime$"):
        characteristic(n)


@pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1])
def test_large_primes_are_accepted_quickly(p):
    start = time.perf_counter()
    assert characteristic(p) == p
    assert time.perf_counter() - start < 0.1


def test_primes_above_the_exact_bound_are_refused():
    p = 2**89 - 1  # a Mersenne prime
    assert p > PRIME_BOUND
    message = f"{p} is too large: primality is decided only below {PRIME_BOUND}"
    with pytest.raises(InputError, match=re.escape(message)):
        characteristic(p)


def vectors(field):
    return st.lists(entries(field), min_size=1, max_size=5)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(lambda field: st.tuples(st.just(field), vectors(field))))
def test_direction_is_the_same_for_every_nonzero_multiple(drawn):
    field, vec = drawn
    char = characteristic(field)
    vec = integer_vector(vec, char)
    line = direction(vec, char)
    if line is None:
        assert not any(vec)
        return
    assert direction(line, char) == line
    for scale in (2, 3, -1, -7, 10):
        if not char or scale % char:
            assert direction([scale * x for x in vec], char) == line


@pytest.mark.parametrize("field", FIELDS)
def test_direction_of_the_zero_vector_is_none(field):
    char = characteristic(field)
    assert direction([0, 0, 0], char) is None
    assert direction([], char) is None
    if char:
        assert direction([char, -2 * char], char) is None


@st.composite
def hyperplane_rows(draw):
    """dim - 1 drawn vectors of length dim: most have rank dim - 1."""
    field = draw(st.sampled_from(FIELDS))
    dim = draw(st.integers(1, 5))
    return field, [draw(st.lists(entries(field), min_size=dim, max_size=dim)) for _ in range(dim - 1)], dim


@settings(max_examples=100, deadline=None)
@given(hyperplane_rows())
def test_covector_is_its_own_direction(drawn):
    # the kernel of Representation.covector and the covector adjoint, on all
    # of the drawn vectors; a set of lower rank has no line, and is refused
    field, vectors, dim = drawn
    char = characteristic(field)
    vectors = [integer_vector(vec, char) for vec in vectors]
    everything = (1 << len(vectors)) - 1
    if len(echelon(vectors, char)) != dim - 1:
        with pytest.raises(ConstructionError, match=f"have rank below {dim - 1}$"):
            _covector(vectors, dim, everything, char)
        return
    x = _covector(vectors, dim, everything, char)
    assert direction(x, char) == x
    for vec in vectors:
        dot = sum(e * v for e, v in zip(vec, x))
        assert (dot % char if char else dot) == 0


@st.composite
def reductions(draw):
    """A prime p, echelon rows over GF(p) built by the two-pass step, and a
    vector to reduce against them, whose entries run outside 0..p-1 too."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    dim = draw(st.integers(1, 6))
    vector = st.lists(st.integers(-p, 2 * p), min_size=dim, max_size=dim)
    rows = []
    for vec in draw(st.lists(vector, max_size=dim)):
        vec = eliminate_in_two_passes([x % p for x in vec], rows, p)
        pivot = leading_index(vec)
        if pivot is not None:
            rows.append((pivot, vec))
    return p, rows, draw(vector)


@settings(max_examples=300, deadline=None)
@given(reductions())
def test_one_pass_elimination_matches_two_passes_over_gf_p(drawn):
    p, rows, vec = drawn
    assert eliminate(vec, rows, p) == eliminate_in_two_passes(vec, rows, p)
