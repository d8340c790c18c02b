import hashlib
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matadj.adjoint
from matadj import (
    AdjointMap,
    ConstructionError,
    ElementSet,
    InputError,
    Matroid,
    MinorSpec,
    PreconditionError,
    StructureError,
    VerificationReport,
    Violation,
    adjoint_from_representation,
    by_name,
    catalog,
    check_chain_independence,
    check_modular_pairs,
    check_rank_complement,
    contract_adjoint,
    delete_adjoint,
    full_verification,
    hyperplane_chain,
    induced_map,
    minor_adjoint,
    minor_normal_form,
    uniform,
    vanishing_hyperplanes,
    verify_adjoint,
)
from matadj.catalog import _vandermonde
from matadj.files import adjoint_to_dict, canonical_json
from oracles import (
    brute_cover_inclusion_reversal,
    brute_inclusion_reversal,
    brute_modular_pairs,
    brute_rank_complement,
    chain_by_restarts,
    chain_violations_by_rank,
    delete_table_by_closure,
)
from test_single_pass_checks import corrupted


def es(members, n):
    return ElementSet.of(members, n)


def u23_self_map():
    """The hand-written U_{2,3} -> U_{2,3} adjoint: empty -> everything,
    point i -> point i, ground -> empty."""
    u23 = uniform(2, 3)
    table = {es([], 3): es([0, 1, 2], 3)}
    for i in range(3):
        table[es([i], 3)] = es([i], 3)
    table[es([0, 1, 2], 3)] = es([], 3)
    return AdjointMap(u23, uniform(2, 3), table)


def test_valid_self_map():
    report = verify_adjoint(u23_self_map())
    assert report.valid
    assert report.checks_run == (
        "target_simple",
        "rank_match",
        "injectivity",
        "inclusion_reversal",
        "hyperplane_bijection",
        "ground_to_empty",
    )


def test_hyperplane_order_derived():
    phi = u23_self_map()
    assert phi.hyperplane_order == (es([0], 3), es([1], 3), es([2], 3))


def test_injectivity_violation_witnessed():
    phi = u23_self_map()
    table = dict(phi.table)
    table[es([0], 3)] = es([1], 3)  # now {0} and {1} share an image
    report = verify_adjoint(AdjointMap(phi.source, phi.target, table))
    assert not report.valid
    assert any(v.check == "injectivity" for v in report.violations)
    witness = next(v for v in report.violations if v.check == "injectivity").witness
    assert set(witness) == {es([0], 3), es([1], 3)}


def test_structural_error_distinct_from_failed_check():
    phi = u23_self_map()
    partial = dict(phi.table)
    del partial[es([0], 3)]
    with pytest.raises(StructureError, match="not total"):
        verify_adjoint(AdjointMap(phi.source, phi.target, partial))
    bad_value = dict(phi.table)
    bad_value[es([0], 3)] = es([0, 1], 3)  # {0,1} is not a flat of U_{2,3}
    with pytest.raises(StructureError, match="not a flat"):
        verify_adjoint(AdjointMap(phi.source, phi.target, bad_value))


@pytest.mark.parametrize("image", [frozenset(), None, [0], 0])
def test_image_that_is_not_an_element_set_is_a_structure_error(image):
    phi = u23_self_map()
    with pytest.raises(StructureError, match="not a flat of the target"):
        AdjointMap(phi.source, phi.target, {**phi.table, es([0], 3): image})


@pytest.mark.parametrize("part, value, error, message", [
    ("table", None, StructureError, "table must be a mapping, got NoneType"),
    ("table", 5, StructureError, "table must be a mapping, got int"),
    ("table", "abc", StructureError, "table must be a mapping, got str"),
    ("source", "abc", InputError, "expected Matroid, got str"),
    ("target", "abc", InputError, "expected Matroid, got str"),
])
def test_argument_of_the_wrong_kind_is_refused(part, value, error, message):
    phi = u23_self_map()
    args = {"source": phi.source, "target": phi.target, "table": phi.table, part: value}
    with pytest.raises(error, match=message):
        AdjointMap(**args)


def test_rank_complement():
    phi = u23_self_map()
    assert check_rank_complement(phi).valid
    fano_phi = fano_map()
    assert check_rank_complement(fano_phi).valid
    for line in fano_phi.source.hyperplanes():
        assert fano_phi.target.rank(fano_phi.table[line]) == 1


def fano_map():
    entry = by_name("fano")
    return adjoint_from_representation(entry.matroid, entry.representation)


def test_chain_independence():
    phi = u23_self_map()
    assert check_chain_independence(phi, [es([0], 3), es([1], 3)]).valid
    assert check_chain_independence(phi, [es([2], 3)]).valid
    fphi = fano_map()
    chain = hyperplane_chain(fphi.source, es([], 7))
    assert len(chain) == 3
    assert check_chain_independence(fphi, chain).valid


def test_chain_precondition_enforced():
    phi = u23_self_map()
    with pytest.raises(PreconditionError):
        check_chain_independence(phi, [es([0], 3), es([0], 3)])
    with pytest.raises(PreconditionError):
        check_chain_independence(phi, [es([0, 1], 3)])  # not a hyperplane


def test_chain_may_be_an_iterator():
    # the chain is read once, so an iterator gives the report a list gives
    phi = fano_map()
    M = phi.source
    reports = []
    for psi in (phi, *corrupted(phi)):
        for X in M.flats().all_flats():
            chain = hyperplane_chain(M, X)
            reports.append(check_chain_independence(psi, chain))
            assert check_chain_independence(psi, iter(chain)) == reports[-1]
    assert not all(report.valid for report in reports)


def raised(f, *args):
    """f(*args), or the type and text of the ConstructionError it raises."""
    try:
        return f(*args)
    except ConstructionError as exc:
        return ConstructionError, str(exc)


@pytest.mark.parametrize("name", ["U_2_4", "U_3_5", "M_K4", "fano"])
def test_public_chain_functions_match_the_oracle(fixture_maps, name):
    # the public functions share their kernels with full_verification, so
    # they are compared here with the oracle's restart greedy and its rank
    # test, on the catalog map and on maps corrupted on the hyperplanes
    phi = fixture_maps[name]
    M = phi.source
    chains = []
    for k, layer in enumerate(M.flats().flats_by_rank):
        for X in layer:
            chain = hyperplane_chain(M, X)
            assert chain == chain_by_restarts(M, X, k)
            chains.append(chain)
    for psi in (phi, *corrupted(phi)):
        for chain in chains:
            assert list(check_chain_independence(psi, chain).violations) == chain_violations_by_rank(psi, chain)


@pytest.mark.parametrize("bases", [[[0, 3], [1, 2]], [[0, 1], [0, 2], [1, 2], [2, 3]]])
def test_public_chain_errors_match_the_oracle(bases):
    # families that fail the exchange axiom: some flat of their closure-built
    # lattice has no greedy chain
    M = Matroid._unchecked(4, [sum(1 << e for e in b) for b in bases])
    outcomes = [(raised(hyperplane_chain, M, X), raised(chain_by_restarts, M, X, k))
                for k, layer in enumerate(M.flats().flats_by_rank) for X in layer]
    assert all(ours == theirs for ours, theirs in outcomes)
    assert any(ours[0] is ConstructionError for ours, _ in outcomes)


def test_modular_pairs():
    phi = u23_self_map()
    report = check_modular_pairs(phi)
    assert report.valid
    assert check_modular_pairs(fano_map()).valid


def _witnesses(report, check):
    return [v.witness for v in report.violations if v.check == check]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["U_2_3", "U_2_4", "U_3_4", "U_3_5", "M_K4", "fano", "nonfano"]),
       st.data())
def test_mask_checks_match_brute_force_witnesses(fixture_maps, name, data):
    # a valid map with one to three entries sent to other target flats: the
    # mask loops report the witnesses, in the order, that the oracles find.
    # Inclusion reversal is tested on cover pairs, which decide it: its
    # verdict is the all-pairs verdict
    phi = fixture_maps[name]
    flats = list(phi.source.flats().all_flats())
    targets = list(phi.target.flats().all_flats())
    table = dict(phi.table)
    for _ in range(data.draw(st.integers(1, 3))):
        table[data.draw(st.sampled_from(flats))] = data.draw(st.sampled_from(targets))
    bad = AdjointMap(phi.source, phi.target, table)
    reversal = _witnesses(verify_adjoint(bad), "inclusion_reversal")
    assert reversal == brute_cover_inclusion_reversal(bad)
    assert bool(reversal) == bool(brute_inclusion_reversal(bad))
    assert _witnesses(check_modular_pairs(bad), "modular_pairs") == brute_modular_pairs(bad)
    assert [F for (F,) in _witnesses(check_rank_complement(bad), "rank_complement")] \
        == brute_rank_complement(bad)


def test_induced_map_all_six_bijections_valid():
    u23 = uniform(2, 3)
    hps = u23.hyperplanes()
    for perm in permutations(range(3)):
        phi = induced_map(u23, uniform(2, 3), {hps[i]: perm[i] for i in range(3)})
        assert verify_adjoint(phi).valid


def test_induced_map_input_validation():
    u23 = uniform(2, 3)
    with pytest.raises(InputError, match="rank mismatch"):
        induced_map(u23, uniform(1, 1), {})
    with pytest.raises(InputError, match="not simple"):
        induced_map(uniform(1, 2), uniform(1, 2), {uniform(1, 2).hyperplanes()[0]: 0})


def test_fano_into_uniform_candidate_fails():
    # U_{3,7} has too few dependencies to separate Fano's flats
    fano = by_name("fano").matroid
    hps = fano.hyperplanes()
    phi = induced_map(fano, uniform(3, 7), {H: i for i, H in enumerate(hps)})
    report = verify_adjoint(phi)
    assert not report.valid
    assert report.violations  # a concrete witness is always produced


# ---------------------------------------------------------------------------
# minor constructions
# ---------------------------------------------------------------------------

def test_contract_adjoint_example():
    phi = u23_self_map()
    psi = contract_adjoint(phi, es([0], 3))
    assert (psi.source.n, psi.source.full_rank) == (2, 1)
    assert psi.target == uniform(1, 1)  # the restriction to point {0}
    ground = psi.source.closure(psi.source.groundset())
    assert psi.table[ground] == es([], 1)
    assert verify_adjoint(psi).valid


def test_contract_adjoint_identity():
    phi = u23_self_map()
    psi = contract_adjoint(phi, es([], 3))
    assert psi.source == phi.source
    assert psi.target == phi.target
    assert psi.table == phi.table


def test_contract_adjoint_fano():
    phi = fano_map()
    psi = contract_adjoint(phi, es([0], 7))
    assert (psi.source.n, psi.source.full_rank) == (6, 2)
    assert psi.target.n == 3  # the three lines through the contracted point
    assert verify_adjoint(psi).valid


@pytest.mark.parametrize("name", [e.name for e in catalog()])
def test_contraction_flats_lift_to_flats(name):
    # contract_adjoint reads phi(F u C) with no closure, because F u C is
    # already a flat of M for every flat F of M/C
    M = by_name(name).matroid
    lattice = M.flats()
    for size in range(3):
        for C in combinations(range(M.n), size):
            Cset = es(C, M.n)
            if not M.is_independent(Cset):
                continue
            minor = M.contract(Cset)
            inverse = {v: k for k, v in minor.provenance["relabel"].items()}
            for F in minor.flats().all_flats():
                assert lattice.is_flat(F.relabel(inverse, M.n) | Cset), (name, C, F)


def test_vanishing_hyperplanes():
    u23 = uniform(2, 3)
    assert vanishing_hyperplanes(u23, es([2], 3)) == (es([2], 3),)
    assert vanishing_hyperplanes(u23, es([], 3)) == ()
    fano = by_name("fano").matroid
    for e in range(7):
        assert vanishing_hyperplanes(fano, es([e], 7)) == ()


def test_delete_adjoint_example():
    phi = u23_self_map()
    psi = delete_adjoint(phi, es([2], 3))
    assert psi.source == uniform(2, 2)
    assert psi.target == uniform(2, 2)
    assert verify_adjoint(psi).valid


def test_delete_adjoint_identity():
    phi = u23_self_map()
    psi = delete_adjoint(phi, es([], 3))
    assert psi.source == phi.source and psi.target == phi.target
    assert psi.table == phi.table


def test_delete_adjoint_fano():
    phi = fano_map()
    psi = delete_adjoint(phi, es([0], 7))
    assert (psi.source.n, psi.source.full_rank) == (6, 3)
    assert psi.target.n == 7  # no hyperplane vanishes, so no point is deleted
    assert verify_adjoint(psi).valid


def test_delete_adjoint_builds_its_deletion_once(monkeypatch):
    # one M\D serves both the vanishing hyperplanes and the map
    phi = fano_map()
    built = []  # (matroid, op, mask, minor) per call
    minor = Matroid._minor

    def counted(self, op, m):
        built.append((self, op, m, minor(self, op, m)))
        return built[-1][3]

    monkeypatch.setattr(Matroid, "_minor", counted)
    for D in ([0], [0, 3]):
        built.clear()
        psi = delete_adjoint(phi, es(D, 7))
        [(op, m, N)] = [(op, m, N) for M, op, m, N in built if M is phi.source]
        assert (op, m) == ("delete", es(D, 7).mask) and N is psi.source
    # deleting nothing builds no minor at all: the map is its own deletion
    built.clear()
    assert delete_adjoint(phi, es([], 7)) is phi
    assert built == []


def test_a_step_that_removes_no_element_returns_its_parent_map(fixture_maps):
    for phi in fixture_maps.values():
        empty = ElementSet.empty(phi.source.n)
        assert contract_adjoint(phi, empty) is phi
        assert delete_adjoint(phi, empty) is phi
        assert minor_adjoint(phi, MinorSpec(empty, empty)) is phi


def test_an_empty_step_still_refuses_a_map_that_is_not_an_adjoint():
    phi = fano_map()
    bad = next(corrupted(phi))
    empty = es([], 7)
    for step in (lambda: contract_adjoint(bad, empty), lambda: delete_adjoint(bad, empty),
                 lambda: minor_adjoint(bad, MinorSpec(empty, empty))):
        with pytest.raises(PreconditionError, match="the map is not an adjoint"):
            step()


@pytest.mark.parametrize("name", [e.name for e in catalog()])
def test_a_spec_that_normalizes_to_no_deletion_gives_the_contraction_itself(fixture_maps, name):
    phi = fixture_maps[name]
    n = phi.source.n
    for total in range(3):
        for S in combinations(range(n), total):
            for csz in range(total + 1):
                spec = MinorSpec(es(S[:csz], n), es(S[csz:], n))
                nf = minor_normal_form(phi.source, spec)
                if not nf.delete:
                    assert minor_adjoint(phi, spec) is contract_adjoint(phi, nf.contract)


def test_deleting_a_coloop_gives_the_contraction_itself(fixture_maps):
    # the coloop 0 of U_1_1 moves to the contraction side, and no deletion is left
    phi = fixture_maps["U_1_1"]
    spec = MinorSpec(es([], 1), es([0], 1))
    assert minor_normal_form(phi.source, spec) == MinorSpec(es([0], 1), es([], 1))
    assert minor_adjoint(phi, spec) is contract_adjoint(phi, es([0], 1))


def test_a_minor_map_that_removes_no_point_keeps_its_parents_target():
    phi = fano_map()
    kept = [
        delete_adjoint(phi, es([0], 7)),  # every line keeps two points, so none vanishes
        contract_adjoint(phi, es([], 7)),
        minor_adjoint(phi, MinorSpec(es([], 7), es([1], 7))),
    ]
    for psi in kept:
        assert psi.target is phi.target
        assert verify_adjoint(psi).valid
    # deleting 0 and 3 drops the line {0,3,x} to rank 1, and its point goes;
    # contracting 0 keeps only the points of the lines through 0
    for psi, relabel in [
        (delete_adjoint(phi, es([0, 3], 7)), {0: 0, 2: 1, 3: 2, 4: 3, 5: 4, 6: 5}),
        (contract_adjoint(phi, es([0], 7)), None),
    ]:
        assert psi.target is not phi.target
        assert psi.target.provenance["parent"] is phi.target
        assert psi.target.provenance["op"] == "delete"
        if relabel is not None:
            assert psi.target.provenance["relabel"] == relabel
        assert len(psi.target.provenance["relabel"]) == psi.target.n < phi.target.n


def test_delete_adjoint_requires_coindependence():
    phi = u23_self_map()
    with pytest.raises(PreconditionError, match="not coindependent"):
        delete_adjoint(phi, es([0, 1], 3))


def test_delete_adjoint_image_identity():
    # phi_D(F) = phi(cl(F)) - vanished points = phi(cl(F)) n E(N), pointwise
    phi = fano_map()
    M, Mp = phi.source, phi.target
    D = es([0, 3], 7)
    assert M.is_coindependent(D)
    vanished = set()
    for H in vanishing_hyperplanes(M, D):
        vanished |= phi.table[H].members
    psi = delete_adjoint(phi, D)
    src_inv = {v: k for k, v in psi.source.provenance["relabel"].items()}
    tgt_map = psi.target.provenance["relabel"]
    surviving = set(tgt_map)
    for F, img in psi.table.items():
        F_old = es([src_inv[e] for e in F], 7)
        expect = phi.table[M.closure(F_old)].members - vanished
        assert expect == phi.table[M.closure(F_old)].members & surviving
        assert img == es([tgt_map[e] for e in expect], psi.target.n)


@pytest.mark.parametrize("name", [e.name for e in catalog()])
def test_delete_table_matches_closures(fixture_maps, name):
    # delete_adjoint reads cl(F) off the lattice of M; the oracle closes each flat
    phi = fixture_maps[name]
    M = phi.source
    for size in range(3):
        for D in combinations(range(M.n), size):
            Dset = es(D, M.n)
            if M.is_coindependent(Dset):
                assert delete_adjoint(phi, Dset).table == delete_table_by_closure(phi, Dset), (name, D)


def test_contract_adjoint_is_built_once_per_map():
    phi = fano_map()
    psi = contract_adjoint(phi, es([0], 7))
    assert contract_adjoint(phi, es([0], 7)) is psi
    assert contract_adjoint(phi, es([1], 7)) is not psi
    assert all(report.valid for report in full_verification(psi).values())


def test_failed_contraction_is_not_cached(monkeypatch):
    phi = fano_map()
    C = es([0], 7)
    failed = VerificationReport(
        ("target_simple",), (Violation("target_simple", (0,), "no loops", "element 0 is a loop"),)
    )
    monkeypatch.setattr(matadj.adjoint, "verify_adjoint", lambda psi: failed)
    for _ in range(2):  # the second call builds again and fails again
        with pytest.raises(ConstructionError, match="contraction adjoint failed verification"):
            contract_adjoint(phi, C)
        assert phi._contractions == {}
    monkeypatch.undo()
    psi = contract_adjoint(phi, C)
    assert verify_adjoint(psi).valid
    assert contract_adjoint(phi, C) is psi


def swapped_points(phi):
    """phi with the point images of its first two hyperplanes swapped: a
    sound table that is not inclusion-reversing."""
    H = phi.source.hyperplanes()
    return AdjointMap(phi.source, phi.target, {**phi.table, H[0]: phi.table[H[1]], H[1]: phi.table[H[0]]})


@pytest.mark.parametrize("name", ["U_3_5", "M_K4", "fano", "nonfano"])
def test_minor_constructions_refuse_a_map_that_is_not_an_adjoint(fixture_maps, name):
    bad = swapped_points(fixture_maps[name])
    report = verify_adjoint(bad)
    assert not report.valid
    n = bad.source.n
    calls = [
        lambda: contract_adjoint(bad, es([], n)),
        lambda: contract_adjoint(bad, es([0], n)),
        lambda: delete_adjoint(bad, es([], n)),
        lambda: delete_adjoint(bad, es([0], n)),
        lambda: minor_adjoint(bad, MinorSpec(es([0], n), es([1], n))),
    ]
    for call in calls:
        with pytest.raises(PreconditionError) as info:
            call()
        assert str(info.value) == f"the map is not an adjoint: {report.violations[0]}"
    assert bad._contractions == {}


def test_minor_adjoint_examples():
    phi = u23_self_map()
    psi = minor_adjoint(phi, MinorSpec(es([], 3), es([], 3)))
    assert psi.table == phi.table and psi.source == phi.source

    psi = minor_adjoint(phi, MinorSpec(es([0], 3), es([2], 3)))
    assert (psi.source.n, psi.source.full_rank) == (1, 1)
    assert psi.target.n == 1
    assert verify_adjoint(psi).valid


def test_minor_adjoint_handles_codependent_deletions():
    phi = u23_self_map()
    psi = minor_adjoint(phi, MinorSpec(es([], 3), es([0, 1], 3)))
    assert (psi.source.n, psi.source.full_rank) == (1, 1)
    assert verify_adjoint(psi).valid


def test_fano_minor_sweep_small():
    phi = fano_map()
    for csz in range(3):
        for C in combinations(range(7), csz):
            rest = [x for x in range(7) if x not in C]
            for dsz in range(3 - csz):
                for D in combinations(rest, dsz):
                    psi = minor_adjoint(phi, MinorSpec(es(C, 7), es(D, 7)))
                    assert verify_adjoint(psi).valid


def test_order_insensitivity():
    # delete-then-contract agrees with contract-then-delete when D is
    # coindependent both before and after the contraction
    phi = fano_map()
    C, D = es([1], 7), es([4], 7)
    assert phi.source.is_coindependent(D)
    via_contract = minor_adjoint(phi, MinorSpec(C, D))

    dphi = delete_adjoint(phi, D)
    relabel = dphi.source.provenance["relabel"]
    C2 = C.relabel(relabel, dphi.source.n)
    via_delete = contract_adjoint(dphi, C2)

    assert via_contract.source == via_delete.source
    assert canonical_json(adjoint_to_dict(via_contract)) == canonical_json(
        adjoint_to_dict(via_delete)
    )


def test_full_verification_bundle():
    reports = full_verification(u23_self_map())
    assert set(reports) == {
        "definition",
        "rank_complement",
        "chain_independence",
        "modular_pairs",
    }
    assert all(r.valid for r in reports.values())


def test_u47_covector_adjoint_is_pinned():
    # U_4_7's covector adjoint: 35 points and 40,672 bases in the target; the
    # map is checked without building the target lattice
    rep = _vandermonde(4, 7)
    phi = adjoint_from_representation(rep.matroid(), rep)
    assert phi.target.n == 35 and phi.target._lattice is None
    assert all(report.valid for report in full_verification(phi).values())
    digest = hashlib.sha256(canonical_json(adjoint_to_dict(phi)).encode()).hexdigest()
    assert digest == "2b392249cf38e6f8725c881a388aeb7f1f24ff9cae3b85df16938aee5770ce3a"


def test_u48_covector_adjoint_verifies():
    # U_4_8's covector adjoint: 56 points and 307,398 bases in the target,
    # whose rank and closure queries read its table of basis holders; no
    # digest, since the saved map would list every basis
    rep = _vandermonde(4, 8)
    phi = adjoint_from_representation(rep.matroid(), rep)
    assert phi.target.n == 56 and len(phi.target._basis_masks) == 307_398
    reports = full_verification(phi)
    assert set(reports) == {"definition", "rank_complement", "chain_independence", "modular_pairs"}
    assert all(report.valid for report in reports.values())
    assert phi.target._lattice is None and phi.target._holders is not None
