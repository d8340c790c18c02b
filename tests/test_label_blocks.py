"""P(F), the labels of the hyperplanes that hold a flat F, is read off
per-element label masks (``adjoint._blocks``): by the induced map, which
both the covector construction and search build, and by search's freest
target, whose limits are the P(F) of the flats of rank 1 to r - 2.  These
tests hold all three to the per-flat hyperplane scan of
``oracles.blocks_by_scan``, on sources with loops and parallel elements and
in every rank from 0 up."""
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matadj import Matroid, adjoint_from_representation, by_name, search_adjoint, uniform
from matadj.adjoint import _blocks, _induced
from matadj.search import _freest_target
from oracles import blocks_by_scan, freest_bases_by_scan, induced_by_scan
from test_column_bases import column_representations
from test_search import affine_3_2, projective_3_2
from test_trust_boundaries import representations

# sources of rank 0 and 1, with and without loops and parallel elements
LOW_RANK = [Matroid(0, [()]), Matroid(2, [()]), uniform(1, 1), uniform(1, 3),
            Matroid(3, [(0,), (2,)]), Matroid(4, [(1,), (3,)])]


def labelled(phi):
    """The (hyperplane mask, point mask) pairs of a map, in hyperplane order."""
    return [(H.mask, 1 << i) for i, H in enumerate(phi.hyperplane_order)]


def assert_induced_matches_the_scan(phi):
    M, pairs = phi.source, labelled(phi)
    want = induced_by_scan(M, phi.target, pairs)
    assert phi._table == want
    assert _induced(M, phi.target, pairs)._table == want


def test_induced_matches_the_scan_on_catalog_maps(fixture_maps):
    for phi in fixture_maps.values():
        assert_induced_matches_the_scan(phi)


@pytest.mark.parametrize("M", LOW_RANK, ids=repr)
def test_induced_and_freest_target_match_the_scan_in_rank_0_and_1(M):
    assert_induced_matches_the_scan(search_adjoint(M).found)
    target = _freest_target(M, M.flats().hyperplane_masks)
    assert list(target._basis_masks) == freest_bases_by_scan(M)


@settings(max_examples=100, deadline=None)
@given(representations(min_dim=1, max_dim=3, max_n=6))
def test_induced_matches_the_scan_on_drawn_sources(rep):
    # entries drawn from few values, so that loops and parallel columns are
    # common; both constructions that build an induced map
    M = rep.matroid()
    if M.full_rank:
        assert_induced_matches_the_scan(adjoint_from_representation(M, rep))
    assert_induced_matches_the_scan(search_adjoint(M).found)


@settings(max_examples=150, deadline=None)
@given(column_representations(), st.randoms(use_true_random=False))
def test_blocks_match_the_scan_on_drawn_sources(rep, rnd):
    # ranks 0 to 6, loops and parallel classes; every layer of flats, under
    # hyperplane labels in a drawn order, as induced_map takes them
    M = rep.matroid()
    hyperplanes = M.flats().hyperplane_masks
    labels = list(range(len(hyperplanes)))
    rnd.shuffle(labels)
    pairs = [(h, 1 << i) for h, i in zip(hyperplanes, labels)]
    layers = M.flats().masks
    assert list(_blocks(M.n, pairs, layers)) == [blocks_by_scan(layer, pairs) for layer in layers]


@pytest.mark.parametrize("make", [lambda: uniform(4, 5), affine_3_2, projective_3_2,
                                  lambda: by_name("U_3_6").matroid, lambda: by_name("nonfano").matroid],
                         ids=["U_4_5", "AG(3,2)", "PG(3,2)", "U_3_6", "nonfano"])
def test_freest_target_matches_the_scan(make):
    # search's rank-4 limits: U_4_5's and PG(3,2)'s freest targets are
    # adjoints, AG(3,2)'s is not a matroid; each has limits that bind
    M = make()
    hyperplanes = M.flats().hyperplane_masks
    want = freest_bases_by_scan(M)
    assert len(want) < comb(len(hyperplanes), M.full_rank)
    assert list(_freest_target(M, hyperplanes)._basis_masks) == want


@settings(max_examples=60, deadline=None)
@given(column_representations())
def test_freest_target_matches_the_scan_on_drawn_sources(rep):
    M = rep.matroid()
    m = len(M.flats().hyperplane_masks)
    if comb(m, M.full_rank) > 3000:
        return
    target = _freest_target(M, M.flats().hyperplane_masks)
    assert (list(target._basis_masks) if target else []) == freest_bases_by_scan(M)
