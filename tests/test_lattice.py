from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matadj import (
    AdjointMap,
    ElementSet,
    FlatLattice,
    InputError,
    Matroid,
    MinorSpec,
    adjoint_from_representation,
    by_name,
    catalog,
    contract_adjoint,
    delete_adjoint,
    hyperplane_chain,
    minor_adjoint,
    minor_normal_form,
    uniform,
)
from matadj.files import adjoint_to_dict, canonical_json
from oracles import brute_closure, brute_covers, brute_flats, brute_rank
from test_single_pass_checks import columns_with_zeros_and_repeats
from test_trust_boundaries import representations


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


@pytest.mark.parametrize("name", [e.name for e in catalog()])
def test_hyperplane_masks_are_the_hyperplanes(name):
    M = by_name(name).matroid
    assert M.flats().hyperplane_masks == tuple(H.mask for H in M.hyperplanes())
    N = M.contract(es([0], M.n))  # a lattice read off its parent's
    expected = tuple(H.mask for H in N.hyperplanes()) if N.full_rank else ()
    assert N.flats().hyperplane_masks == expected


def test_hyperplane_masks_of_rank_zero_are_empty():
    for M in (Matroid(0, [()]), Matroid(2, [[]])):
        assert M.flats().hyperplane_masks == ()
    # so a rank-0 map's hyperplane order is empty, into a target with loops too
    phi = AdjointMap(Matroid(0, [()]), Matroid(1, [[]]), {es([], 0): es([0], 1)})
    assert phi.hyperplane_order == ()


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


# -- lattices read off a built parent lattice ----------------------------------

def minors_of(M):
    """For every spec (C, D) with |C| + |D| <= 2: M/C and M\\D as given, and
    the contraction, then the deletion, that minor_adjoint makes of its
    normal form."""
    n = M.n
    for total in range(3):
        for csz in range(total + 1):
            for C in combinations(range(n), csz):
                rest = [x for x in range(n) if x not in C]
                for D in combinations(rest, total - csz):
                    yield M.contract(es(C, n))
                    yield M.delete(es(D, n))
                    nf = minor_normal_form(M, MinorSpec(es(C, n), es(D, n)))
                    M1 = M.contract(nf.contract)
                    yield M1
                    yield M1.delete(nf.delete.relabel(M1.provenance["relabel"], M1.n))


def assert_minor_lattices_match_builds(M):
    M = Matroid._unchecked(M.n, M._basis_masks)  # no minors cached yet
    M.flats()
    seen, closures = set(), {}
    for N in minors_of(M):
        if id(N) in seen:
            continue
        seen.add(id(N))
        # the parent's lattice is built, so N.flats() reads it off that
        assert N._lattice is None and N.provenance["parent"]._lattice is not None
        derived, built = N.flats(), FlatLattice.build(N)
        assert derived.flats_by_rank == built.flats_by_rank, N.provenance["removed"]
        assert derived.rank_by_mask == built.rank_by_mask
        assert derived.covers == built.covers
        assert derived.canonical_order() == built.canonical_order()
        for lift in (derived.lift, built.lift):  # built walks the parent on first read
            assert_lift_matches_the_oracle(N, lift, closures)


def assert_lift_matches_the_oracle(N, lift, closures):
    """Each flat F of N = M/C lifts to F u C, a flat of M, and each flat F of
    N = M\\D to cl(F), with F on M's labels.  ``closures`` memoises
    ``brute_closure`` by (id(M), set)."""
    M, removed = N.provenance["parent"], N.provenance["removed"]
    back = {new: old for old, new in N.provenance["relabel"].items()}

    def closure(S):
        key = (id(M), frozenset(S))
        if key not in closures:
            closures[key] = brute_closure(M, S)
        return closures[key]

    assert len(lift) == N.flats().flat_count()
    for F in N.flats().all_flats():
        old = {back[e] for e in F}
        if N.provenance["op"] == "contract":
            want = old | set(removed)
            assert closure(want) == want
        else:
            want = closure(old)
        assert lift[F.mask] == es(want, M.n), (N.provenance["op"], removed, F)


@pytest.mark.parametrize("name", [e.name for e in catalog()])
def test_minor_lattices_match_builds(fixture_maps, name):
    assert_minor_lattices_match_builds(by_name(name).matroid)
    assert_minor_lattices_match_builds(fixture_maps[name].target)


@settings(max_examples=100, deadline=None)
@given(representations())
def test_drawn_minor_lattices_match_builds(rep):
    assert_minor_lattices_match_builds(rep.matroid())


@pytest.mark.parametrize("name", ["M_K4", "nonfano"])
def test_minor_adjoints_build_no_lattice(monkeypatch, name):
    entry = by_name(name)
    M = Matroid(entry.matroid.n, entry.matroid.bases)  # no minors cached yet
    phi = adjoint_from_representation(M, entry.representation)
    builds = []
    build = FlatLattice.build.__func__
    monkeypatch.setattr(FlatLattice, "build", classmethod(lambda cls, N: builds.append(N) or build(cls, N)))
    n = M.n
    for total in range(4):
        for S in combinations(range(n), total):
            for csz in range(total + 1):
                minor_adjoint(phi, MinorSpec(es(S[:csz], n), es(S[csz:], n)))
    assert builds == []


@pytest.mark.parametrize("name", [e.name for e in catalog()])
def test_minor_adjoints_read_a_lift_from_a_lattice_built_by_closures(name):
    # a minor whose lattice was built before its parent's walks the parent
    # for its lift; the maps are the same as when the lattice is read off
    entry = by_name(name)
    n = entry.matroid.n

    def maps(M):
        phi = adjoint_from_representation(M, entry.representation)
        for e in range(n):
            S = es([e], n)
            yield canonical_json(adjoint_to_dict(contract_adjoint(phi, S)))
            if M.is_coindependent(S):
                yield canonical_json(adjoint_to_dict(delete_adjoint(phi, S)))

    early = Matroid._unchecked(n, entry.matroid._basis_masks)
    for e in range(n):
        for N in (early.contract(es([e], n)), early.delete(es([e], n))):
            N.flats()
    assert early._lattice is None
    assert list(maps(early)) == list(maps(Matroid._unchecked(n, entry.matroid._basis_masks)))


def test_only_a_contraction_or_deletion_has_a_lift():
    M = by_name("fano").matroid
    for N in (M, M.dual(), Matroid(7, M.bases)):
        with pytest.raises(InputError, match="have no lift"):
            N.flats().lift


def test_caller_provenance_does_not_select_the_path():
    # only contract and delete mark a minor; a caller's provenance claiming
    # that this deletion is a contraction must not change its lattice
    M = by_name("fano").matroid
    M.flats()
    deletion = M.delete(es([0], 7))
    N = Matroid(6, deletion.bases, provenance={"op": "contract", "removed": [0], "parent": M})
    assert N.flats().flats_by_rank == deletion.flats().flats_by_rank


# -- one closure per flat --------------------------------------------------------

def closures_per_build(monkeypatch, M):
    """(closure calls, lattice) of ``FlatLattice.build`` on a fresh copy of M."""
    calls = []
    closure = Matroid._closure
    monkeypatch.setattr(Matroid, "_closure", lambda self, m: calls.append(m) or closure(self, m))
    lattice = FlatLattice.build(Matroid._unchecked(M.n, M._basis_masks))
    monkeypatch.undo()
    return len(calls), lattice


@pytest.mark.parametrize("M", [e.matroid for e in catalog()] + [uniform(3, 7), uniform(4, 7)],
                         ids=[e.name for e in catalog()] + ["U_3_7", "U_4_7"])
def test_build_closes_each_flat_but_the_top_once(monkeypatch, M):
    # the covers of a rank-k flat that are already found are marked reached,
    # so each closure finds a new flat; the top flat is E by theorem
    calls, lattice = closures_per_build(monkeypatch, M)
    assert calls == lattice.flat_count() - 1


def test_build_counts_for_the_uniform_matroids_of_seven_elements(monkeypatch):
    assert closures_per_build(monkeypatch, uniform(3, 7))[0] == 29
    assert closures_per_build(monkeypatch, uniform(4, 7))[0] == 64


def test_a_rank_zero_build_makes_one_closure(monkeypatch):
    for M in (Matroid(0, [()]), Matroid(3, [[]])):
        calls, lattice = closures_per_build(monkeypatch, M)
        assert calls == 1 and lattice.masks == ((M._full,),)


@settings(max_examples=150, deadline=None)
@given(st.one_of(columns_with_zeros_and_repeats(max_dim=4), representations(max_n=8)))
def test_drawn_builds_match_brute_force_layer_by_layer(rep):
    # ranks 0 to 4: loops and parallel classes are common in the first
    # strategy, ranks 3 and 4 in the second
    M = rep.matroid()
    layers = [[] for _ in range(M.full_rank + 1)]
    for F in brute_flats(M):
        layers[brute_rank(M, F.members)].append(F)
    built = FlatLattice.build(Matroid._unchecked(M.n, M._basis_masks))
    assert built.flats_by_rank == tuple(tuple(sorted(layer, key=lambda F: F.key)) for layer in layers)
