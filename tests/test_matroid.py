import gc
import weakref
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matadj import (
    ElementSet,
    FlatLattice,
    InputError,
    Matroid,
    MinorSpec,
    Representation,
    apply_minor,
    by_name,
    catalog,
    minor_normal_form,
    uniform,
)
import matadj.matroid as matroid_module
from oracles import (
    brute_closure,
    brute_rank,
    brute_restriction_bases,
    gf_matrix_rank,
    greedy_rank,
    powerset,
    simplify_by_pairs,
)
from test_single_pass_checks import columns_with_zeros_and_repeats


def es(members, n):
    return ElementSet.of(members, n)


def test_empty_bases_rejected():
    with pytest.raises(InputError):
        Matroid(3, [])


def test_unequal_basis_sizes_rejected():
    with pytest.raises(InputError):
        Matroid(3, [[0], [0, 1]])


@pytest.mark.parametrize(
    "n,bases,message",
    [
        (3, [[0, 1, 1], [0, 2], [1, 2]], r"basis \[0, 1, 1\] repeats an element"),
        (2, [[1, True]], r"basis \[1, True\] has non-integer element True"),
        (3, [[0, 1], [0, 1], [0, 2], [1, 2]], r"basis \[0, 1\] is listed more than once"),
        (True, [[0]], "ground-set size must be an integer"),
    ],
    ids=["repeated-element", "bool-element", "repeated-basis", "bool-n"],
)
def test_constructor_refuses_what_a_set_would_collapse(n, bases, message):
    with pytest.raises(InputError, match=message):
        Matroid(n, bases)


def test_exchange_failure_names_the_pair():
    # {0,1} and {2,3} with no intermediate bases cannot satisfy exchange
    with pytest.raises(InputError, match="basis exchange fails for pair"):
        Matroid(4, [[0, 1], [2, 3]])


def test_rank_examples():
    u23 = uniform(2, 3)
    assert u23.rank(es([], 3)) == 0
    assert u23.rank(es([0, 1, 2], 3)) == 2
    fano = by_name("fano").matroid
    assert fano.rank(es([0, 1, 2], 7)) == 2  # first three columns are collinear


def test_rank_against_matrix_oracle():
    entry = by_name("fano")
    fano = entry.matroid
    cols = entry.representation.columns
    for size in range(4):
        for sub in combinations(range(7), size):
            expected = gf_matrix_rank([cols[i] for i in sub], 2) if sub else 0
            assert fano.rank(es(sub, 7)) == expected


def test_rank_against_greedy_oracle():
    for entry in (by_name("M_K4"), by_name("U_3_5")):
        M = entry.matroid
        for size in range(M.n + 1):
            for sub in combinations(range(M.n), size):
                assert M.rank(es(sub, M.n)) == greedy_rank(M, sub) == brute_rank(M, sub)


def test_closure_examples():
    u23 = uniform(2, 3)
    assert u23.closure(es([0], 3)) == es([0], 3)
    assert u23.closure(es([0, 1, 2], 3)) == es([0, 1, 2], 3)
    fano = by_name("fano").matroid
    assert fano.closure(es([0, 1], 7)) == es([0, 1, 2], 7)


@pytest.mark.parametrize("name", [e.name for e in catalog()])
def test_closure_matches_brute_force_on_every_subset(name):
    # the one-pass closure against n + 1 rank queries, and the rank with its
    # early exit against a full scan, on the matroid and on each of its
    # single-element contractions and deletions
    M = by_name(name).matroid
    minors = [M]
    for e in range(M.n):
        minors += [M.contract(es([e], M.n)), M.delete(es([e], M.n))]
    for N in minors:
        # fresh copies, so that neither query reads what the other cached
        ranks, closures = Matroid(N.n, N.bases), Matroid(N.n, N.bases)
        for sub in powerset(range(N.n)):
            S = es(sub, N.n)
            assert ranks.rank(S) == brute_rank(N, sub), (name, N, sub)
            assert closures.closure(S).members == brute_closure(N, sub), (name, N, sub)


@pytest.mark.parametrize("name", [e.name for e in catalog()])
def test_rank_and_closure_match_brute_force_through_the_cache(name):
    # rank and closure share the one mask-keyed rank cache; the second sweep
    # answers every query from it
    M = by_name(name).matroid
    M = Matroid(M.n, M.bases)
    subsets = [(sub, es(sub, M.n)) for sub in powerset(range(M.n))]
    for sweep in range(2):
        for sub, S in subsets:
            assert M.rank(S) == brute_rank(M, sub), (name, sweep, sub)
            assert M.closure(S).members == brute_closure(M, sub), (name, sweep, sub)
        assert len(M._rank_cache) == 2 ** M.n


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["U_2_4", "U_3_5", "M_K4", "fano"]), st.data())
def test_closure_is_a_closure_operator(name, data):
    M = by_name(name).matroid
    S = es(data.draw(st.sets(st.integers(0, M.n - 1))), M.n)
    T = es(data.draw(st.sets(st.integers(0, M.n - 1))), M.n)
    cl = M.closure(S)
    assert S <= cl
    assert M.closure(cl) == cl
    if S <= T:
        assert cl <= M.closure(T)


def test_independence_examples():
    u23 = uniform(2, 3)
    assert u23.is_independent(es([0, 1], 3))
    assert u23.is_coindependent(es([2], 3))
    u12 = uniform(1, 2)
    assert not u12.is_independent(es([0, 1], 2))


def test_contract_examples():
    u23 = uniform(2, 3)
    m = u23.contract(es([0], 3))
    assert (m.n, m.full_rank) == (2, 1)
    assert m.bases == {frozenset([0]), frozenset([1])}  # a parallel pair
    assert u23.contract(es([], 3)) == u23

    fano = by_name("fano").matroid
    fc = fano.contract(es([0], 7))
    assert (fc.n, fc.full_rank) == (6, 2)
    classes = {tuple(fc.closure(es([e], 6)).sorted()) for e in range(6)}
    assert classes == {(0, 1), (2, 3), (4, 5)}


def test_contract_flat_correspondence():
    # F is a flat of M/C iff F u C is a flat of M, for all small C
    for name in ("U_2_4", "U_3_4", "M_K4", "fano"):
        M = by_name(name).matroid
        for size in range(3):
            for C in combinations(range(M.n), size):
                Cset = es(C, M.n)
                minor = M.contract(Cset)
                inverse = {v: k for k, v in minor.provenance["relabel"].items()}
                lifted = {
                    es([inverse[e] for e in F], M.n) | Cset
                    for F in minor.flats().all_flats()
                }
                containing = {
                    F for F in M.flats().all_flats() if Cset <= F
                }
                assert lifted == containing


def test_delete_examples():
    u23 = uniform(2, 3)
    assert u23.delete(es([2], 3)) == uniform(2, 2)
    assert u23.delete(es([], 3)) == u23

    fano = by_name("fano").matroid
    fd = fano.delete(es([0], 7))
    assert (fd.n, fd.full_rank) == (6, 3)
    lines = fd.flats().layer(2)
    assert sum(1 for f in lines if len(f) == 3) == 4


@pytest.mark.parametrize("name", [e.name for e in catalog()])
def test_delete_bases_match_brute_force(name):
    # M\D takes the bases B n (E-D) of size r(E-D); the oracle lists the
    # full-rank subsets of E-D instead
    M = by_name(name).matroid
    for size in range(min(3, M.n) + 1):
        for D in combinations(range(M.n), size):
            minor = M.delete(es(D, M.n))
            inverse = {v: k for k, v in minor.provenance["relabel"].items()}
            got = {frozenset(inverse[e] for e in b) for b in minor.bases}
            assert got == brute_restriction_bases(M, set(range(M.n)) - set(D)), (name, D)


def test_delete_flat_correspondence():
    for name in ("U_2_4", "U_3_4", "fano"):
        M = by_name(name).matroid
        for size in range(M.n):
            for D in combinations(range(M.n), size):
                Dset = es(D, M.n)
                if not M.is_coindependent(Dset):
                    continue
                minor = M.delete(Dset)
                inverse = {v: k for k, v in minor.provenance["relabel"].items()}
                got = {
                    frozenset(inverse[e] for e in F)
                    for F in minor.flats().all_flats()
                }
                expected = {F.members - Dset.members for F in M.flats().all_flats()}
                assert got == expected


@pytest.mark.parametrize("op", ["contract", "delete", "restrict"])
def test_a_matroid_keeps_no_minor(op):
    # a minor, its lattice read off the parent's included, is freed once the
    # caller drops it, and the next call builds a new one
    M = by_name("fano").matroid
    M.flats()
    S = es([0, 1], 7)
    minor = getattr(M, op)(S)
    minor.flats()
    ref = weakref.ref(minor)
    again = getattr(M, op)(S)
    assert again is not minor and again == minor
    del minor, again
    assert ref() is None


@pytest.mark.parametrize("parent_lattice", [False, True])
def test_a_dropped_minor_is_freed_without_the_cyclic_collector(parent_lattice):
    # the lattice keeps the minor's origin, not the minor, so no cycle holds
    # it: by closures when the parent's lattice is unbuilt, else off it
    M = by_name("fano").representation.matroid()
    if parent_lattice:
        M.flats()
    minor = M.delete(es([0], 7))
    minor.flats()
    ref = weakref.ref(minor)
    gc.disable()
    try:
        del minor
        assert ref() is None
    finally:
        gc.enable()


def test_dual_bases_complement():
    u23 = uniform(2, 3)
    assert u23.dual() == uniform(1, 3)


def test_simplify():
    assert uniform(2, 3).simplify() == uniform(2, 3)
    assert uniform(1, 2).simplify() == uniform(1, 1)
    fano = by_name("fano").matroid
    s = fano.contract(es([0], 7)).simplify()
    assert s == uniform(2, 3)


@settings(max_examples=150, deadline=None)
@given(columns_with_zeros_and_repeats())
def test_simplify_matches_the_pair_oracle(rep):
    M = rep.matroid()
    s = M.simplify()
    loops, class_map = simplify_by_pairs(M)
    assert s.provenance["loops"] == loops
    assert list(s.provenance["class_map"].items()) == list(class_map.items())
    reps = [e for e, r in class_map.items() if e == r]
    relabel = {e: i for i, e in enumerate(reps)}
    assert s.provenance["relabel"] == relabel
    assert s._basis_masks == M.delete(es(reps, M.n).complement())._basis_masks
    assert s.bases == {frozenset(relabel[e] for e in b) for b in brute_restriction_bases(M, reps)}
    assert s.is_simple()
    # a simplification is a deletion: with M's lattice built, it reads its own off that
    M.flats()
    assert s.flats().flats_by_rank == FlatLattice.build(Matroid._unchecked(s.n, s._basis_masks)).flats_by_rank


def test_simplify_all_loops():
    loops = Matroid(2, [[]])  # rank 0: both elements are loops
    s = loops.simplify()
    assert (s.n, s.full_rank) == (0, 0)


def test_minor_spec_requires_disjoint():
    with pytest.raises(InputError):
        MinorSpec(es([0], 3), es([0, 1], 3))


@pytest.mark.parametrize("contract, delete", [
    ([0], es([], 3)),
    (es([0], 3), None),
    (frozenset({0}), frozenset()),
])
def test_minor_spec_requires_element_sets(contract, delete):
    with pytest.raises(InputError, match="expected ElementSet"):
        MinorSpec(contract, delete)


def test_normal_form_examples():
    u23 = uniform(2, 3)
    spec = MinorSpec(es([0], 3), es([2], 3))
    assert minor_normal_form(u23, spec) == spec  # already normal

    u12 = uniform(1, 2)
    nf = minor_normal_form(u12, MinorSpec(es([0, 1], 2), es([], 2)))
    assert nf == MinorSpec(es([0], 2), es([1], 2))
    m = apply_minor(u12, nf)
    assert (m.n, m.full_rank) == (0, 0)

    assert minor_normal_form(u23, MinorSpec(es([], 3), es([], 3))) == MinorSpec(
        es([], 3), es([], 3)
    )


def test_normal_form_moves_codependent_deletions():
    # deleting two of the three points of U_{2,3} drops the rank, so one
    # deletion must migrate to the contraction side
    u23 = uniform(2, 3)
    nf = minor_normal_form(u23, MinorSpec(es([], 3), es([0, 1], 3)))
    assert u23.is_independent(nf.contract)
    assert u23.is_coindependent(nf.delete)
    assert nf.contract.members | nf.delete.members == {0, 1}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["U_2_3", "U_2_4", "U_3_4", "M_K4", "fano"]), st.data())
def test_normal_form_properties(name, data):
    M = by_name(name).matroid
    C = data.draw(st.sets(st.integers(0, M.n - 1), max_size=3))
    D = data.draw(st.sets(st.integers(0, M.n - 1), max_size=3)) - C
    spec = MinorSpec(es(C, M.n), es(D, M.n))
    nf = minor_normal_form(M, spec)
    assert M.is_independent(nf.contract)
    assert M.is_coindependent(nf.delete)
    assert nf.contract.members | nf.delete.members == C | D
    assert apply_minor(M, nf) == apply_minor(M, spec)


def test_ground_size_cap_is_checked_where_a_ground_set_enters(monkeypatch):
    fano = by_name("fano")
    M = fano.representation.matroid()  # fresh caches, so every minor below is built
    monkeypatch.setattr(matroid_module, "WORK_BUDGET", 2)
    # minors, duals and simplifications are no larger than their parent, so
    # they check nothing against the budget
    assert M.contract(es([0], 7)).n == 6 and M.delete(es([0], 7)).n == 6
    assert M.dual().n == 7 and M.simplify().n == 7
    with pytest.raises(InputError, match="^ground-set size 3 exceeds the work budget of 2$"):
        Matroid(3, [[0, 1, 2]])
    # a representation's column bases are walked once, and checked then
    with pytest.raises(InputError, match=r"^column subset count C\(7, 3\) = 35 exceeds the work budget of 2$"):
        Representation(2, fano.representation.columns, 3).matroid()
    assert fano.representation.matroid() == M


@pytest.mark.parametrize("n, message", [(5, "ground-set size 5 exceeds the work budget of 4"),
                                        (-1, "must be non-negative")])
def test_ground_size_is_checked_before_the_bases_are_read(monkeypatch, n, message):
    monkeypatch.setattr(matroid_module, "WORK_BUDGET", 4)

    def unread():
        raise AssertionError("the bases were read")
        yield

    with pytest.raises(InputError, match=message):
        Matroid(n, unread())


def test_bases_are_counted_as_they_are_read(monkeypatch):
    monkeypatch.setattr(matroid_module, "WORK_BUDGET", 4)

    def five_then_unread():
        yield from [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
        raise AssertionError("a sixth basis was read")

    with pytest.raises(InputError, match="^basis count 5 exceeds the work budget of 4$"):
        Matroid(4, five_then_unread())


def test_ground_size_cap(monkeypatch):
    # uniform checks its C(n, r) subsets before it lists any of them
    monkeypatch.setattr(matroid_module, "WORK_BUDGET", 9)
    with pytest.raises(InputError, match=r"^subset count C\(5, 2\) = 10 exceeds the work budget of 9$"):
        uniform(2, 5)
    monkeypatch.setattr(matroid_module, "WORK_BUDGET", 10)
    uniform(2, 5)
    monkeypatch.undo()
    with pytest.raises(InputError, match="847,660,528 exceeds the work budget of 16,777,216$"):
        uniform(10, 40)


def test_lattice_build_counts_flats_against_the_budget(monkeypatch):
    # U_7_7's flats are all 128 subsets: the build stops at the 101st
    M = uniform(7, 7)
    monkeypatch.setattr(matroid_module, "WORK_BUDGET", 100)
    with pytest.raises(InputError, match="^flat count 101 exceeds the work budget of 100$"):
        M.flats()
    monkeypatch.setattr(matroid_module, "WORK_BUDGET", 128)
    assert M.flats().flat_count() == 128
