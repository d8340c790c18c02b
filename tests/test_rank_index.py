"""A matroid with more than ``SCAN_LIMIT << r`` bases answers rank and closure
from its table of basis holders; these tests hold that path to oracles that
read the bases only.

Each query goes to a fresh copy of the matroid, one for ranks and one for
closures, and the closure memo is cleared before each closure, so that no
answer comes from a cache.  Every test also asserts that the table was
built, so that it cannot pass on the scan path.

The table itself is compared with its definition, bit by bit, on the
catalog, on covector targets, on drawn families and at the byte boundaries
of its packing; and ``_greedy`` with a greedy by ``oracles.brute_rank``.
"""
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import matadj.matroid
from matadj import Matroid, Representation, adjoint_from_representation, by_name, catalog, uniform
from matadj.catalog import _vandermonde
from matadj.matroid import SCAN_LIMIT
from oracles import brute_closure, brute_rank, rank_table
from test_exchange_check import families, r_sets
from test_trust_boundaries import representations


def fresh(M):
    """A copy of M with empty caches and no table."""
    return Matroid._unchecked(M.n, M._basis_masks)


def mask(members):
    return sum(1 << e for e in members)


def assert_index_agrees(M, masks, rank_of, closure_of):
    """``_rank`` and ``_closure`` of each mask, each a cache miss, against the oracles."""
    assert len(M._basis_masks) > SCAN_LIMIT << M.full_rank
    ranks, closures = fresh(M), fresh(M)
    for m in masks:
        assert ranks._rank(m) == rank_of(m), m
        closures._closure_cache.clear()
        assert closures._closure(m) == closure_of(m), m
    assert ranks._holders is not None and closures._holders is not None


def target_of(name):
    """The target of the catalog entry's covector adjoint."""
    entry = by_name(name)
    return adjoint_from_representation(entry.matroid, entry.representation).target


def test_u35_target_matches_brute_force_on_every_subset():
    T = target_of("U_3_5")  # 10 points, 100 bases
    assert_index_agrees(
        T, range(1 << T.n),
        lambda m: brute_rank(T, _members(m)),
        lambda m: mask(brute_closure(T, _members(m))),
    )


def test_u36_target_matches_the_rank_table_on_every_subset():
    T = target_of("U_3_6")  # 15 points, 394 bases
    ranks = rank_table(T)
    assert_index_agrees(T, range(1 << T.n), ranks.__getitem__, lambda m: _closure_from(ranks, T.n, m))


def test_rank_table_matches_brute_force():
    T = target_of("U_3_5")
    ranks = rank_table(T)
    assert all(ranks[m] == brute_rank(T, _members(m)) for m in range(1 << T.n))


@pytest.fixture(scope="module")
def u37_target():
    # 21 points, above the default cap
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("MATADJ_MAX_N", "21")
        rep = _vandermonde(3, 7)
        target = adjoint_from_representation(rep.matroid(), rep).target
    assert len(target._basis_masks) == 1_187
    return target


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sets(st.integers(0, 20), max_size=5), min_size=1, max_size=2))
def test_u37_target_matches_brute_force_on_drawn_sets(u37_target, subsets):
    T = u37_target
    assert_index_agrees(
        T, [mask(S) for S in subsets],
        lambda m: brute_rank(T, _members(m)),
        lambda m: mask(brute_closure(T, _members(m))),
    )


@st.composite
def dense_column_matroids(draw):
    """Column matroids of rank 3 or 4 over GF(3) or GF(5) with more than
    ``SCAN_LIMIT << r`` bases: enough columns, and few of them zero or
    repeated, that most draws are dense enough."""
    p = draw(st.sampled_from([3, 5]))
    r = draw(st.integers(3, 4))
    n = draw(st.integers(r + 4, 10))
    columns = []
    for _ in range(n):
        if columns and draw(st.integers(0, 9)) == 0:
            columns.append(draw(st.sampled_from(columns)))  # a parallel pair
        else:
            columns.append(tuple(draw(st.integers(0, p - 1)) for _ in range(r)))
    M = Representation(p, tuple(columns), r).matroid()
    assume(M.full_rank == r and len(M._basis_masks) > SCAN_LIMIT << r)
    return M


@settings(max_examples=40, deadline=None)
@given(dense_column_matroids())
def test_drawn_dense_matroids_match_the_rank_table_on_every_subset(M):
    ranks = rank_table(M)
    assert_index_agrees(M, range(1 << M.n), ranks.__getitem__, lambda m: _closure_from(ranks, M.n, m))


@settings(max_examples=40, deadline=None)
@given(dense_column_matroids(), st.data())
def test_drawn_dense_matroids_match_brute_force_on_drawn_sets(M, data):
    subsets = data.draw(st.lists(st.sets(st.integers(0, M.n - 1), max_size=M.full_rank + 1), min_size=1, max_size=4))
    assert_index_agrees(
        M, [mask(S) for S in subsets],
        lambda m: brute_rank(M, _members(m)),
        lambda m: mask(brute_closure(M, _members(m))),
    )


def test_the_index_is_built_above_the_gate_only():
    # U_1_8 has 8 = 4 << 1 bases and keeps the scan; U_1_9 has 9 and builds the table
    for M, indexed in ((uniform(1, 8), False), (uniform(1, 9), True), (uniform(3, 6), False),
                       (by_name("fano").matroid, False), (uniform(4, 9), True)):
        N = fresh(M)
        for m in range(1 << N.n):
            N._rank(m)
            N._closure(m)
        assert (N._holders is not None) == indexed, M


@pytest.mark.parametrize("sizes", [(3, 3, 4), (2, 4, 5), (1, 5, 7)])
def test_sparse_index_derives_a_level(sizes):
    # three parallel classes of the given sizes, spanning rank 3, and loops up
    # to 16 labels: a.b.c bases, between 33 and 40, so more than 4 << 3, in
    # two bytes of labels, most of them in no basis
    columns = [col for col, size in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), sizes) for _ in range(size)]
    columns += [(0, 0, 0)] * (16 - len(columns))
    M = Representation(2, tuple(columns), 3).matroid()
    assert 33 <= len(M._basis_masks) <= 40 and M._indexed
    ranks = rank_table(M)
    assert_index_agrees(M, range(1 << M.n), ranks.__getitem__, lambda m: _closure_from(ranks, M.n, m))


def holders_by_definition(M):
    """Entry f: the bitset of the indices j of the bases that hold f."""
    return tuple(sum(1 << j for j, b in enumerate(M._basis_masks) if b >> f & 1) for f in range(M.n))


def assert_table_agrees(M):
    assert fresh(M)._basis_holders() == holders_by_definition(M)


def test_catalog_tables_match_the_definition():
    for entry in catalog():
        assert_table_agrees(entry.matroid)
        assert_table_agrees(adjoint_from_representation(entry.matroid, entry.representation).target)


@pytest.mark.parametrize("n", [0, 8, 9, 16, 17])
def test_tables_at_byte_boundaries_match_the_definition(n):
    # each basis packs into (n + 7) >> 3 bytes: U_0_n, U_1_n, whose last basis
    # is the last label alone, and U_2_n
    for r in range(min(n, 2) + 1):
        assert_table_agrees(Matroid._unchecked(n, r_sets(n, r)))


@pytest.mark.parametrize("chunk", [1, 3, 8, 1 << 15])
def test_tables_built_in_chunks_match_the_definition(monkeypatch, chunk):
    # U_3_7 (35 bases) and U_2_17 (136) span several chunks of a shrunk
    # HOLDER_CHUNK, the last one partial; U_0_3 has one basis
    monkeypatch.setattr(matadj.matroid, "HOLDER_CHUNK", chunk)
    for M in (uniform(3, 7), Matroid._unchecked(17, r_sets(17, 2)), Matroid._unchecked(3, [0])):
        assert_table_agrees(M)


@settings(max_examples=200, deadline=None)
@given(families())
def test_drawn_family_tables_match_the_definition(M):
    assert_table_agrees(M)


@settings(max_examples=60, deadline=None)
@given(representations(min_dim=1, max_dim=4, max_n=10), st.data())
def test_greedy_matches_a_brute_force_greedy(rep, data):
    M = rep.matroid()
    m = data.draw(st.integers(0, (1 << M.n) - 1))
    ind, held = fresh(M)._greedy(m)
    picked = []
    for e in _members(m):
        if brute_rank(M, picked + [e]) == len(picked) + 1:
            picked.append(e)
    assert ind == mask(picked)
    assert held == sum(1 << j for j, b in enumerate(M._basis_masks) if b & ind == ind)


def _members(m):
    return [e for e in range(m.bit_length()) if m >> e & 1]


def _closure_from(ranks, n, m):
    return m | mask(e for e in range(n) if ranks[m | 1 << e] == ranks[m])
