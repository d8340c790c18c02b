from itertools import combinations

import pytest

from matadj import (
    ElementSet,
    InputError,
    Matroid,
    by_name,
    hyperplane_chain,
    uniform,
)
from oracles import brute_covers, brute_flats


def es(members, n):
    return ElementSet.of(members, n)


def test_u23_flats():
    lattice = uniform(2, 3).flats()
    assert [len(l) for l in lattice.flats_by_rank] == [1, 3, 1]
    assert lattice.layer(0) == (es([], 3),)
    assert lattice.layer(1) == (es([0], 3), es([1], 3), es([2], 3))


def test_parallel_pair_flats():
    lattice = uniform(1, 2).flats()
    assert [len(l) for l in lattice.flats_by_rank] == [1, 1]
    assert lattice.layer(1) == (es([0, 1], 2),)


def test_fano_flat_count():
    fano = by_name("fano").matroid
    assert fano.flats().flat_count() == 16  # 1 + 7 points + 7 lines + 1


@pytest.mark.parametrize("name", ["U_2_4", "U_3_4", "U_3_5", "M_K4", "fano", "nonfano"])
def test_flats_match_brute_force(name):
    M = by_name(name).matroid
    assert set(M.flats().all_flats()) == brute_flats(M)


@pytest.mark.parametrize("name", ["U_2_4", "U_3_4", "M_K4", "fano"])
def test_flats_intersection_closed_and_ranked(name):
    M = by_name(name).matroid
    lattice = M.flats()
    flats = list(lattice.all_flats())
    for a in flats:
        for b in flats:
            assert lattice.is_flat(a & b)
    for k, layer in enumerate(lattice.flats_by_rank):
        for f in layer:
            assert M.rank(f) == k


def test_covers_are_rank_plus_one():
    M = by_name("M_K4").matroid
    lattice = M.flats()
    for f, covers in lattice.covers.items():
        for g in covers:
            assert f <= g
            assert lattice.rank_of(g) == lattice.rank_of(f) + 1


@pytest.mark.parametrize("name", ["U_1_2", "U_2_4", "U_3_5", "U_3_6", "M_K4", "fano", "nonfano"])
def test_covers_match_one_closure_per_element(name):
    # the lattice closes one element per cover; the oracle closes every element
    M = by_name(name).matroid
    for N in (M, M.contract(es([0], M.n)), M.delete(es([0], M.n))):
        assert N.flats().covers == brute_covers(N)


def test_hyperplanes():
    assert uniform(2, 3).hyperplanes() == (es([0], 3), es([1], 3), es([2], 3))
    assert len(uniform(3, 4).hyperplanes()) == 6  # the six 2-subsets
    fano = by_name("fano").matroid
    assert len(fano.hyperplanes()) == 7
    assert all(len(h) == 3 for h in fano.hyperplanes())


def test_hyperplanes_of_rank_zero_rejected():
    with pytest.raises(InputError, match="no hyperplanes"):
        Matroid(2, [[]]).hyperplanes()


def test_chain_examples():
    u23 = uniform(2, 3)
    assert hyperplane_chain(u23, es([0], 3)) == [es([0], 3)]
    assert hyperplane_chain(u23, es([0, 1, 2], 3)) == []
    u34 = uniform(3, 4)
    chain = hyperplane_chain(u34, es([], 4))
    assert len(chain) == 3


def test_chain_not_a_flat_rejected():
    fano = by_name("fano").matroid
    with pytest.raises(InputError, match="not a flat"):
        hyperplane_chain(fano, es([0, 1], 7))


@pytest.mark.parametrize("name", ["U_2_4", "U_3_4", "U_3_5", "M_K4", "fano"])
def test_chain_properties_for_every_flat(name):
    M = by_name(name).matroid
    for X in M.flats().all_flats():
        chain = hyperplane_chain(M, X)
        assert len(chain) == M.full_rank - M.rank(X)
        running = M.groundset()
        for H in chain:
            assert X <= H
            nxt = running & H
            assert nxt != running  # strictly decreasing
            running = nxt
        assert running == X
