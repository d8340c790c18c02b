"""A map's target is read through its memoised closure; its lattice is never built.

``_structural_check`` counts an image as a flat when it is its own closure,
and ``verify_adjoint`` takes the points as the closures of the non-loop
elements and the bottom flat as the closure of the empty set.  The first
tests compare those answers with ``FlatLattice.build`` on a separate copy of
each target, the closure memo with the uncached ``brute_closure``, and the
reports on targets with a loop or a parallel pair with the built lattice's
points and bottom flat.  The last ones count the lattices built for targets, or read off a target's
lattice, on the paths that make and check maps.
"""
import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings

from matadj import (
    AdjointMap,
    ElementSet,
    FlatLattice,
    Matroid,
    MinorSpec,
    Violation,
    adjoint_from_representation,
    by_name,
    catalog,
    full_verification,
    minor_adjoint,
    search_adjoint,
    verify_adjoint,
)
from oracles import brute_closure, powerset
from test_trust_boundaries import representations


def es(members, n):
    return ElementSet.of(members, n)


def fresh(M):
    """A copy of M with empty caches."""
    return Matroid._unchecked(M.n, M._basis_masks)


def lineage(N) -> tuple:
    """A minor by value: (removed mask, contracted) of N and of each minor it
    descends from, up to the first matroid that is no contraction or deletion."""
    steps = []
    while N._minor_of is not None:
        N, removed, contracted = N._minor_of
        steps.append((removed, contracted))
    return tuple(steps)


def mask(members):
    return sum(1 << e for e in members)


def assert_closure_answers_match_lattice(Mp, images=()):
    """The flat test, the points and cl'(empty), by closure, against a built lattice.

    On at most 10 elements every subset is tested; above that, each image
    and 200 seeded random subsets.
    """
    lattice = FlatLattice.build(fresh(Mp))
    N = fresh(Mp)
    if N.n <= 10:
        masks = range(1 << N.n)
    else:
        rng = random.Random(N.n)
        masks = [*images, *(rng.getrandbits(N.n) for _ in range(200))]
    for m in masks:
        assert (N._closure(m) == m) == (m in lattice.rank_by_mask), (Mp, m)
    points = {N._closure(1 << e) for e in range(N.n) if N._rank(1 << e)}
    assert points == ({P.mask for P in lattice.layer(1)} if N.full_rank else set())
    assert N._closure(0) == lattice.layer(0)[0].mask


def minor_maps(phi, most=2):
    """minor_adjoint of phi for every spec with |C| + |D| <= most."""
    n = phi.source.n
    for total in range(most + 1):
        for S in combinations(range(n), total):
            for csz in range(total + 1):
                yield minor_adjoint(phi, MinorSpec(es(S[:csz], n), es(S[csz:], n)))


@pytest.mark.parametrize("name", [e.name for e in catalog()])
def test_target_closures_match_built_lattices(fixture_maps, name):
    phi = fixture_maps[name]
    assert_closure_answers_match_lattice(phi.target, [img.mask for img in phi.table.values()])
    seen = set()  # targets by value: a minor target is freed once its map is
    for psi in minor_maps(phi):
        if lineage(psi.target) not in seen:
            seen.add(lineage(psi.target))
            assert_closure_answers_match_lattice(psi.target, [img.mask for img in psi.table.values()])


@settings(max_examples=60, deadline=None)
@given(representations(max_n=6))
def test_drawn_target_closures_match_built_lattices(rep):
    M = rep.matroid()
    # a covector exists for each hyperplane only at full rank
    assume(M.full_rank == rep.dim)
    phi = adjoint_from_representation(M, rep)
    assert_closure_answers_match_lattice(phi.target, [img.mask for img in phi.table.values()])


@pytest.mark.parametrize("name", ["U_2_4", "U_3_4", "M_K4", "fano", "nonfano"])
def test_closure_memo_is_order_independent(fixture_maps, name):
    Mp = fixture_maps[name].target
    expected = {mask(sub): mask(brute_closure(Mp, sub)) for sub in powerset(range(Mp.n))}
    for seed in range(3):
        order = list(expected)
        random.Random(seed).shuffle(order)
        N = fresh(Mp)
        for m in order:
            c = N._closure(m)
            # each closure is recorded as its own as soon as it is computed
            assert c == expected[m] and N._closure_cache[c] == c, (seed, m)
        assert all(N.closure(ElementSet._trusted(m, N.n)).mask == c for m, c in expected.items())


def decorated(phi, parallel: bool):
    """phi into its target with one more element n: a loop, or a copy of
    element 0.  Each image gains n exactly when n lies in its closure, so the
    images stay flats and only the target's simplicity fails."""
    Mp, n = phi.target, phi.target.n
    if parallel:
        masks = [*Mp._basis_masks, *(b ^ 1 | 1 << n for b in Mp._basis_masks if b & 1)]
        grow = lambda m: m | (m & 1) << n
    else:
        masks = Mp._basis_masks
        grow = lambda m: m | 1 << n
    target = Matroid._unchecked(n + 1, masks)
    table = {F: ElementSet._trusted(grow(img.mask), n + 1) for F, img in phi.table.items()}
    return AdjointMap(phi.source, target, table)


@pytest.mark.parametrize("name", [e.name for e in catalog()])
def test_points_and_bottom_of_non_simple_targets(fixture_maps, name):
    # the points exclude the loops, and cl'(empty) is the set of loops: every
    # check but simplicity passes, and the report matches the lattice's layers
    phi = fixture_maps[name]
    for parallel in (False, True):
        psi = decorated(phi, parallel)
        n = phi.target.n
        lattice = FlatLattice.build(fresh(psi.target))
        assert lattice.layer(0)[0].mask == (0 if parallel else 1 << n)
        hit = {psi.table[H].mask for H in psi.source.hyperplanes()}
        assert hit == {P.mask for P in lattice.layer(1)}
        simple = Violation("target_simple", (0, n), "no parallel pairs", f"{{0,{n}}} has rank 1") if parallel \
            else Violation("target_simple", (n,), "no loops", f"element {n} is a loop")
        assert verify_adjoint(psi).violations == (simple,), (name, parallel)


# -- no target lattice is built ------------------------------------------------

@pytest.fixture
def lattice_owners(monkeypatch):
    """A list that gains the owner of every lattice built by closures or read
    off a parent's lattice."""
    owners = []
    build, of_minor = FlatLattice.build.__func__, FlatLattice.of_minor.__func__
    monkeypatch.setattr(FlatLattice, "build", classmethod(lambda cls, M: owners.append(M) or build(cls, M)))
    monkeypatch.setattr(FlatLattice, "of_minor",
                        classmethod(lambda cls, N, *args: owners.append(N) or of_minor(cls, N, *args)))
    return owners


def is_or_descends_from(N, roots) -> bool:
    """True when N is one of ``roots``, or a minor or other derivative of one
    through the ``parent`` links of its provenance."""
    while N is not None:
        if any(N is R for R in roots):
            return True
        N = (N.provenance or {}).get("parent")
    return False


def assert_valid(phi):
    assert all(report.valid for report in full_verification(phi).values())


def test_covector_adjoints_build_no_target_lattice(lattice_owners):
    targets = []
    for entry in catalog():
        M = fresh(entry.matroid)
        phi = adjoint_from_representation(M, entry.representation)
        assert_valid(phi)
        targets.append(phi.target)
    assert lattice_owners  # the sources' lattices are built
    assert not [N for N in lattice_owners if is_or_descends_from(N, targets)]


def test_low_rank_search_builds_no_target_lattice(lattice_owners):
    targets = []
    for entry in catalog():
        M = fresh(entry.matroid)
        assert M.full_rank <= 3
        phi = search_adjoint(M).found
        assert_valid(phi)
        targets.append(phi.target)
    assert lattice_owners
    assert not [N for N in lattice_owners if is_or_descends_from(N, targets)]


@pytest.mark.parametrize("name", ["M_K4", "nonfano"])
def test_minor_adjoints_build_no_target_lattice(lattice_owners, name):
    entry = by_name(name)
    phi = adjoint_from_representation(fresh(entry.matroid), entry.representation)
    for psi in minor_maps(phi, most=3):
        assert is_or_descends_from(psi.target, [phi.target])
        assert_valid(psi)
    assert lattice_owners
    assert not [N for N in lattice_owners if is_or_descends_from(N, [phi.target])]
