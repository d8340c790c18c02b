"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Every identity asserted here is an exact integer identity; there are no
numeric tolerances.  The only bounds are the stated runtime budgets.
"""
import time
from itertools import combinations

from matadj import (
    AdjointMap,
    ElementSet,
    MinorSpec,
    adjoint_from_representation,
    check_chain_independence,
    check_modular_pairs,
    check_rank_complement,
    full_verification,
    hyperplane_chain,
    minor_adjoint,
    search_adjoint,
    uniform,
    vanishing_hyperplanes,
    verify_adjoint,
)
from matadj.files import adjoint_to_dict, canonical_json
from oracles import brute_flats, vanishing_by_codependence


def es(members, n):
    return ElementSet.of(members, n)


def report(capsys, line):
    with capsys.disabled():
        print(line)


def test_criterion_1_definition_conformance(entries, capsys):
    worst = 0.0
    for entry in entries:
        start = time.monotonic()
        phi = adjoint_from_representation(entry.matroid, entry.representation)
        result = verify_adjoint(phi)
        elapsed = time.monotonic() - start
        worst = max(worst, elapsed)
        assert result.valid, f"{entry.name}: {result.summary()}"
        assert elapsed < 1.0, f"{entry.name} took {elapsed:.2f} s"
    report(capsys, f"criterion 1 PASS: definition conformance on "
                   f"{len(entries)} fixtures, slowest {worst:.3f} s")


def test_criterion_2_rank_complement_and_chains(fixture_maps, capsys):
    checked = 0
    for name, phi in fixture_maps.items():
        assert check_rank_complement(phi).valid, name
        for X in phi.source.flats().all_flats():
            chain = hyperplane_chain(phi.source, X)
            assert check_chain_independence(phi, chain).valid, (name, X)
            checked += 1
    report(capsys, f"criterion 2 PASS: rank complement and chain independence "
                   f"({checked} chains)")


def test_criterion_3_minor_closedness(fixture_maps, capsys):
    start = time.monotonic()
    specs = 0
    for name, phi in fixture_maps.items():
        n = phi.source.n
        for total in range(4):
            for csz in range(total + 1):
                for C in combinations(range(n), csz):
                    rest = [x for x in range(n) if x not in C]
                    for D in combinations(rest, total - csz):
                        psi = minor_adjoint(phi, MinorSpec(es(C, n), es(D, n)))
                        reports = full_verification(psi)
                        bad = {k: r for k, r in reports.items() if not r.valid}
                        assert not bad, (name, C, D, bad)
                        # the stated rank claim, checked directly as well
                        r = psi.source.full_rank
                        for F in psi.source.flats().all_flats():
                            assert psi.target.rank(psi.table[F]) == r - psi.source.rank(F)
                        specs += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"minor sweep took {elapsed:.1f} s"
    report(capsys, f"criterion 3 PASS: {specs} minor specs fully verified "
                   f"in {elapsed:.1f} s")


def test_criterion_4_oracle_equivalence(entries, capsys):
    for entry in entries:
        M = entry.matroid
        assert set(M.flats().all_flats()) == brute_flats(M), entry.name
        for size in range(M.n + 1):
            for D in combinations(range(M.n), size):
                Dset = es(D, M.n)
                assert vanishing_hyperplanes(M, Dset) == vanishing_by_codependence(M, Dset), (
                    entry.name, D)
    report(capsys, f"criterion 4 PASS: lattice vs exhaustive flats and both "
                   f"vanishing-hyperplane characterizations, {len(entries)} matroids")


def test_criterion_5_search_oracle(capsys):
    names = ("U_2_3", "U_2_4", "U_1_2", "U_3_4")
    for name in names:
        from matadj import by_name

        M = by_name(name).matroid
        first = search_adjoint(M)
        second = search_adjoint(M)
        assert first.found is not None, name
        assert verify_adjoint(first.found).valid, name
        assert canonical_json(adjoint_to_dict(first.found)) == canonical_json(
            adjoint_to_dict(second.found)
        ), name
        assert first.candidates_examined == second.candidates_examined
    report(capsys, f"criterion 5 PASS: search found and re-found identical "
                   f"adjoints for {', '.join(names)}")


def test_criterion_6_minor_flat_correspondence(entries, capsys):
    for entry in entries:
        M = entry.matroid
        all_flats = set(M.flats().all_flats())
        for size in range(3):
            for C in combinations(range(M.n), size):
                Cset = es(C, M.n)
                minor = M.contract(Cset)
                inverse = {v: k for k, v in minor.provenance["relabel"].items()}
                lifted = {
                    es([inverse[e] for e in F], M.n) | Cset
                    for F in minor.flats().all_flats()
                }
                assert lifted == {F for F in all_flats if Cset <= F}, (entry.name, C)
        for size in range(M.n + 1):
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
                assert got == {F.members - Dset.members for F in all_flats}, (entry.name, D)
    report(capsys, "criterion 6 PASS: contraction and deletion flat "
                   "correspondences, exhaustive at desk scale")


def test_criterion_7_modular_pairs(fixture_maps, capsys):
    fano_time = None
    for name, phi in fixture_maps.items():
        start = time.monotonic()
        assert check_modular_pairs(phi).valid, name
        elapsed = time.monotonic() - start
        if name == "fano":
            fano_time = elapsed
            assert elapsed < 1.0, f"fano modular pairs took {elapsed:.2f} s"
    report(capsys, f"criterion 7 PASS: modular pairs on all fixture maps "
                   f"(fano: {fano_time:.3f} s)")


def test_criterion_8_negative_paths(capsys):
    u23 = uniform(2, 3)
    table = {es([], 3): es([0, 1, 2], 3), es([0, 1, 2], 3): es([], 3)}
    for i in range(3):
        table[es([i], 3)] = es([i], 3)

    def corrupt(changes):
        return {**table, **changes}

    assert verify_adjoint(AdjointMap(u23, uniform(2, 3), dict(table))).valid

    # broken injectivity: two flats share an image
    bad = verify_adjoint(AdjointMap(
        u23, uniform(2, 3), corrupt({es([0, 1, 2], 3): es([2], 3)})
    ))
    hit = [v for v in bad.violations if v.check == "injectivity"]
    assert hit and hit[0].witness

    # broken inclusion reversal: empty set no longer maps above everything
    bad = verify_adjoint(AdjointMap(
        u23, uniform(2, 3),
        corrupt({es([], 3): es([0], 3), es([0], 3): es([0, 1, 2], 3)}),
    ))
    hit = [v for v in bad.violations if v.check == "inclusion_reversal"]
    assert hit and es([], 3) in hit[0].witness

    # non-bijective hyperplane restriction: two hyperplanes to one point
    bad = verify_adjoint(AdjointMap(u23, uniform(2, 3),
                                    corrupt({es([0], 3): es([1], 3)})))
    hit = [v for v in bad.violations if v.check == "hyperplane_bijection"]
    assert hit and hit[0].witness

    # wrong-rank target
    u34 = uniform(3, 4)
    wrong = {
        es([], 3): es([0, 1, 2, 3], 4),
        es([0], 3): es([0, 1], 4),
        es([1], 3): es([0, 2], 4),
        es([2], 3): es([0, 3], 4),
        es([0, 1, 2], 3): es([0], 4),
    }
    bad = verify_adjoint(AdjointMap(u23, u34, wrong))
    assert any(v.check == "rank_match" for v in bad.violations)

    # non-simple target: a parallel pair
    u11 = uniform(1, 1)
    bad = verify_adjoint(AdjointMap(
        u11, uniform(1, 2),
        {es([], 1): es([0, 1], 2), es([0], 1): es([], 2)},
    ))
    hit = [v for v in bad.violations if v.check == "target_simple"]
    assert hit and hit[0].witness == (0, 1)

    report(capsys, "criterion 8 PASS: all five corruption modes named with witnesses")
