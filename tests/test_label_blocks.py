"""P(F), the labels of the hyperplanes that hold a flat F, is read off
per-element label masks (``adjoint._blocks``): by the induced map, which
both the covector construction and search build, and by search's freest
target, whose limits are the P(F) of the flats of rank 1 to r - 2.  These
tests hold all three to the per-flat hyperplane scan of
``oracles.blocks_by_scan``, on sources with loops and parallel elements and
in every rank from 0 up, and check the freest target's lemma: it holds the
dual labels of a basis, and is an adjoint's target whenever it passes the
exchange check."""
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matadj import (ElementSet, Matroid, adjoint_from_representation, by_name, full_verification,
                    search_adjoint, uniform)
from matadj.adjoint import _blocks, _induced
from matadj.search import _freest_target
from matadj.sets import bits
from oracles import blocks_by_scan, freest_bases_by_scan, induced_by_scan, vamos_bases
from test_column_bases import column_representations
from test_search import affine_3_2, complete_graph_5, projective_3_2
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


def assert_freest_target_lemma(M):
    """The lemma of ``_freest_target`` on M: the dual labels of M's first
    basis B, those of the hyperplanes cl(B - b), are a member of the
    family, and a family that passes the exchange check gives a map that
    passes every check of ``full_verification``.  Returns the target."""
    hyperplanes = M.flats().hyperplane_masks
    target = _freest_target(M, hyperplanes)
    label = {h: i for i, h in enumerate(hyperplanes)}
    B = M._basis_masks[0]
    assert sum(1 << label[M._closure(B & ~(1 << b))] for b in bits(B)) in target._basis_masks
    if target._check_exchange() is None:
        found = search_adjoint(M).found
        assert all(report.valid for report in full_verification(found).values())
    return target


@settings(max_examples=60, deadline=None)
@given(column_representations())
def test_freest_target_matches_the_scan_on_drawn_sources(rep):
    # ranks 0 to 6, with loops and parallel elements
    M = rep.matroid()
    m = len(M.flats().hyperplane_masks)
    if comb(m, M.full_rank) > 3000:
        return
    target = assert_freest_target_lemma(M)
    assert list(target._basis_masks) == freest_bases_by_scan(M)


@pytest.mark.parametrize("make,is_matroid", [
    (lambda: Matroid(8, vamos_bases()), False),
    *[((lambda e=e: Matroid(8, vamos_bases()).delete(ElementSet.of([e], 8))), False) for e in range(8)],
    (affine_3_2, False), (complete_graph_5, False), (projective_3_2, True),
    (lambda: uniform(4, 5), True), (lambda: uniform(5, 6), True), (lambda: uniform(6, 7), True),
], ids=["V8", *[f"V8-{e}" for e in range(8)], "AG(3,2)", "M(K5)", "PG(3,2)", "U_4_5", "U_5_6", "U_6_7"])
def test_freest_target_lemma_in_rank_four_and_above(make, is_matroid):
    # the family holds a basis's dual labels, and is an adjoint's target
    # exactly when it passes the exchange check
    target = assert_freest_target_lemma(make())
    assert (target._check_exchange() is None) == is_matroid
