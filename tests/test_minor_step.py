"""The minor step builds M/C or M\\D and its adjoint in one pass.  A deletion
that some basis misses lists the bases that miss it, and one walk of the
parent's lattice gives the minor's lattice, its lift and the vanishing
hyperplanes.  These tests hold the step to the old one
(``oracles.minor_adjoint_by_old_step``), the filter to
``oracles.brute_restriction_bases`` and the vanishing hyperplanes to
``oracles.vanishing_by_codependence``, and count the walks."""
from itertools import combinations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import matadj.lattice
from matadj import (
    ElementSet,
    FlatLattice,
    MinorSpec,
    adjoint_from_representation,
    by_name,
    contract_adjoint,
    delete_adjoint,
    full_verification,
    minor_adjoint,
    vanishing_hyperplanes,
)
from matadj.files import adjoint_to_dict, canonical_json
from matadj.matroid import _squeeze
from matadj.sets import bits
from oracles import (
    brute_restriction_bases,
    minor_adjoint_by_old_step,
    minor_by_dedup,
    squeeze_bit_by_bit,
    vanishing_by_codependence,
)
from test_trust_boundaries import representations


def es(members, n):
    return ElementSet.of(members, n)


def subsets(n, most=3):
    for total in range(most + 1):
        yield from combinations(range(n), total)


def specs(n, most=3):
    """Every MinorSpec with |C| + |D| <= most."""
    for S in subsets(n, most):
        for csz in range(len(S) + 1):
            yield MinorSpec(es(S[:csz], n), es(S[csz:], n))


def assert_same_minor(new, old):
    """The same bases in the same order, and the same provenance but for the parent."""
    assert new.n == old.n and new._basis_masks == old._basis_masks
    strip = lambda N: {k: v for k, v in (N.provenance or {}).items() if k != "parent"}
    assert strip(new) == strip(old)


def assert_step_matches_the_old_step(phi):
    for spec in specs(phi.source.n):
        new, old = minor_adjoint(phi, spec), minor_adjoint_by_old_step(phi, spec)
        assert canonical_json(adjoint_to_dict(new)) == canonical_json(adjoint_to_dict(old)), spec
        assert list(new._table.items()) == list(old._table.items())
        assert_same_minor(new.source, old.source)
        assert_same_minor(new.target, old.target)
        assert new.source.flats().masks == old.source.flats().masks
        if old.source._minor_of is not None:  # a step ran, so the source has a lift
            assert list(new.source.flats()._lift.items()) == list(old.source.flats()._lift.items())


def assert_vanishing_matches_codependence(M):
    for D in subsets(M.n):
        assert vanishing_hyperplanes(M, es(D, M.n)) == vanishing_by_codependence(M, es(D, M.n)), D


def full_rank_map(rep):
    M = rep.matroid()
    assume(M.full_rank == rep.dim)  # a covector exists for each hyperplane only at full rank
    return adjoint_from_representation(M, rep)


def test_minor_step_matches_the_old_step_on_catalog_maps(fixture_maps):
    for phi in fixture_maps.values():
        assert_step_matches_the_old_step(phi)


@settings(max_examples=30, deadline=None)
@given(representations(min_dim=1, max_dim=3, max_n=6))
def test_minor_step_matches_the_old_step_on_drawn_sources(rep):
    # entries drawn from few values: loops, parallel columns and coloops are common
    assert_step_matches_the_old_step(full_rank_map(rep))


def test_vanishing_hyperplanes_match_codependence_on_catalog_sources(entries):
    for entry in entries:
        assert_vanishing_matches_codependence(entry.matroid)


@settings(max_examples=40, deadline=None)
@given(representations(min_dim=1, max_dim=3, max_n=6))
def test_vanishing_hyperplanes_match_codependence_on_drawn_sources(rep):
    assert_vanishing_matches_codependence(rep.matroid())


# -- the filter of coindependent deletions ---------------------------------------

def assert_deletions_keep_their_bases(M):
    """Every deletion of at most three elements and every restriction to at
    most three elements lists the old step's bases in its order, whose set is
    the brute-force one; a coindependent deletion lists the bases of M that
    miss the deleted set, in M's order."""
    n = M.n
    for S in subsets(n):
        m = es(S, n).mask
        for N, removed in ((M.delete(es(S, n)), m), (M.restrict(es(S, n)), M._full & ~m)):
            assert_same_minor(N, minor_by_dedup(M, "delete", removed))
            back = {new: old for old, new in N.provenance["relabel"].items()}
            got = [frozenset(back[e] for e in bits(b)) for b in N._basis_masks]
            assert set(got) == brute_restriction_bases(M, set(back.values())) and len(set(got)) == len(got)
            if M._rank(M._full & ~removed) == M.full_rank:
                assert got == [frozenset(bits(b)) for b in M._basis_masks if not b & removed]


def assert_simplify_keeps_its_bases(M):
    simple = M.simplify()
    reps = sum(1 << e for e, rep in simple.provenance["class_map"].items() if e == rep)
    assert simple._basis_masks == minor_by_dedup(M, "delete", M._full & ~reps)._basis_masks


def test_deletions_keep_their_bases_on_catalog_sources(entries):
    for entry in entries:
        assert_deletions_keep_their_bases(entry.matroid)
        assert_simplify_keeps_its_bases(entry.matroid)


@settings(max_examples=80, deadline=None)
@given(representations(min_dim=1, max_dim=4, max_n=6))
def test_deletions_keep_their_bases_on_drawn_sources(rep):
    # loops and coloops make codependent deletions, which keep the dedup path
    M = rep.matroid()
    assert_deletions_keep_their_bases(M)
    assert_simplify_keeps_its_bases(M)


# -- one walk per step -----------------------------------------------------------

def parents(N, root):
    """The parents of the minor steps from ``root`` to N, first step first."""
    out = []
    while N is not root:
        N = N._minor_of[0]
        out.append(N)
    return out[::-1]


def test_a_minor_step_walks_its_parent_lattice_once(monkeypatch):
    walked, built = [], []  # the parent of each walk; the owner of each lattice built by closures
    walk, build = matadj.lattice._lift_walk, FlatLattice.build.__func__
    monkeypatch.setattr(matadj.lattice, "_lift_walk", lambda origin: walked.append(origin[0]) or walk(origin))
    monkeypatch.setattr(FlatLattice, "build", classmethod(lambda cls, M: built.append(M) or build(cls, M)))
    for name in ("U_2_4", "M_K4", "fano", "U_3_6"):
        entry = by_name(name)
        n = entry.matroid.n
        for S in subsets(n, 2):
            for csz in range(len(S) + 1):
                C, D = es(S[:csz], n), es(S[csz:], n)
                for step in (contract_adjoint, delete_adjoint, minor_adjoint):
                    if step is delete_adjoint and not entry.matroid.is_coindependent(D):
                        continue
                    # a new map each time, which has kept no contraction
                    phi = adjoint_from_representation(entry.matroid, entry.representation)
                    walked.clear()
                    arg = {contract_adjoint: C, delete_adjoint: D, minor_adjoint: MinorSpec(C, D)}[step]
                    psi = step(phi, arg)
                    assert walked == parents(psi.source, phi.source), (name, step.__name__, S, csz)
                    # the minor's lattice is already in place: reading it and
                    # verifying the map walk nothing more
                    assert all(report.valid for report in full_verification(psi).values())
                    assert walked == parents(psi.source, phi.source)
    assert built == []


# -- the relabeling ----------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.integers(0, 40).flatmap(lambda n: st.tuples(
    st.integers(0, (1 << n) - 1), st.lists(st.integers(0, (1 << n) - 1), max_size=4))))
def test_squeeze_cuts_each_run_of_removed_labels_as_bit_by_bit(drawn):
    # runs of consecutive removed labels, and masks that hold removed labels,
    # which the builder's images and a contraction's bases do
    removed, masks = drawn
    assert _squeeze(masks, removed) == squeeze_bit_by_bit(masks, removed)
