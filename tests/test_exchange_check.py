"""``Matroid._check_exchange`` finds violations by exit sets; these tests hold
it to the pairwise scan it replaced (``oracles.exchange_violation_by_pairs``),
verdict and witness, on drawn families that are mostly near-matroids: a
column matroid with one or two bases dropped or one r-set added, in
shuffled order, besides random families of r-sets.  ``large_families``
draws such near-matroids with more than 64 bases on 8 to 10 labels, so that
the table's bitsets and masks span more than one machine word and byte.

Each witness is also checked for what it claims, and ``find`` shows that
the draws reach violations that a check returning the first basis, the
first other basis or the least element would get wrong.
"""
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import Phase, assume, find, given, settings
from hypothesis import strategies as st

from matadj import InputError, Matroid, Representation
from matadj.sets import bits
from oracles import exchange_violation_by_pairs
from test_trust_boundaries import representations


def r_sets(n, r):
    return [sum(1 << e for e in c) for c in combinations(range(n), r)]


def near_matroid(draw, M, kind):
    """M's bases with one or two dropped ("drop") or one r-set added ("add"),
    shuffled, as an unchecked ``Matroid``."""
    n, masks = M.n, list(M._basis_masks)
    if kind == "drop":
        for _ in range(min(draw(st.integers(1, 2)), len(masks) - 1)):
            masks.pop(draw(st.integers(0, len(masks) - 1)))
    else:
        others = [s for s in r_sets(n, M.full_rank) if s not in masks]
        if others:
            masks.append(draw(st.sampled_from(others)))
    return Matroid._unchecked(n, draw(st.permutations(masks)))


@st.composite
def families(draw):
    """An equal-size family of distinct masks, as an unchecked ``Matroid``."""
    kind = draw(st.sampled_from(["drop", "add", "random"]))
    if kind == "random":
        n = draw(st.integers(1, 7))
        r = draw(st.integers(0, n))
        masks = draw(st.lists(st.sampled_from(r_sets(n, r)), min_size=1, unique=True))
        return Matroid._unchecked(n, draw(st.permutations(masks)))
    return near_matroid(draw, draw(representations(min_dim=2, max_dim=4, max_n=7)).matroid(), kind)


@st.composite
def large_families(draw):
    """A near-matroid of a column matroid of rank 3 or 4 on 8 to 10 columns,
    over GF(5), GF(7) or the rationals, with more than 64 bases."""
    field = draw(st.sampled_from([5, 7, "rational"]))
    r = draw(st.integers(3, 4))
    n = draw(st.integers(8, 10))
    entry = st.integers(-3, 3).map(Fraction) if field == "rational" else st.integers(0, field - 1)
    columns = tuple(tuple(draw(entry) for _ in range(r)) for _ in range(n))
    M = Representation(field, columns, r).matroid()
    assume(len(M._basis_masks) > 64)
    return near_matroid(draw, M, draw(st.sampled_from(["drop", "add"])))


def assert_is_a_violation(M, violation):
    b1, b2, e = violation
    masks = set(M._basis_masks)
    assert b1 in masks and b2 in masks and b1 != b2
    assert b1 >> e & 1 and not b2 >> e & 1
    assert all(b1 ^ 1 << e | 1 << f not in masks for f in bits(b2 & ~b1))


@settings(max_examples=400, deadline=None)
@given(families())
def test_check_matches_the_pairwise_scan(M):
    violation = M._check_exchange()
    assert violation == exchange_violation_by_pairs(M)
    bases = [bits(b) for b in M._basis_masks]
    if violation is None:
        Matroid(M.n, bases)
        return
    assert_is_a_violation(M, violation)
    b1, b2, e = violation
    with pytest.raises(InputError) as info:
        Matroid(M.n, bases)
    assert str(info.value) == f"basis exchange fails for pair B1={bits(b1)}, B2={bits(b2)} at element {e}"


@settings(max_examples=40, deadline=None)
@given(large_families())
def test_check_matches_the_pairwise_scan_past_64_bases(M):
    violation = M._check_exchange()
    assert violation == exchange_violation_by_pairs(M)
    if violation is not None:
        assert_is_a_violation(M, violation)


def late_b1(M, violation):
    return violation[0] != M._basis_masks[0]


def late_b2(M, violation):
    return violation[1] != next(b for b in M._basis_masks if b != violation[0])


def late_e(M, violation):
    b1, b2, e = violation
    return e != bits(b1 & ~b2)[0]


@pytest.mark.parametrize("late", [late_b1, late_b2, late_e])
def test_draws_reach_violations_past_the_first_candidate(late):
    def reaches(M):
        violation = M._check_exchange()
        return violation is not None and late(M, violation)

    # no shrinking: any example shows that the draws reach the case
    unshrunk = settings(max_examples=2000, database=None, deadline=None, phases=[Phase.generate])
    M = find(families(), reaches, settings=unshrunk)
    assert M._check_exchange() == exchange_violation_by_pairs(M)


def test_large_draws_reach_a_witness_past_basis_64():
    # the first basis that misses the exit set is read off a bitset beyond its first 64 bits
    def reaches(M):
        violation = M._check_exchange()
        return violation is not None and M._basis_masks.index(violation[1]) >= 64

    unshrunk = settings(max_examples=3000, database=None, deadline=None, phases=[Phase.generate])
    M = find(large_families(), reaches, settings=unshrunk)
    assert M._check_exchange() == exchange_violation_by_pairs(M)
