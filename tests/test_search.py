import hashlib
from itertools import combinations

import pytest
from hypothesis import given, settings

from matadj import (
    ElementSet,
    InputError,
    MinorSpec,
    Representation,
    SearchBudget,
    adjoint_from_representation,
    by_name,
    catalog,
    full_verification,
    minor_adjoint,
    search_adjoint,
    uniform,
    verify_adjoint,
)
from matadj.files import adjoint_to_dict, canonical_json
from matadj.search import _cover_mask, _enumerate_families
from oracles import family_is_simple, gf_matrix_rank, isomorphic, representation_minor
from test_trust_boundaries import assert_checked_constructor_agrees, representations


def es(members, n):
    return ElementSet.of(members, n)


def test_every_catalog_representation_yields_valid_adjoint(fixture_maps):
    for name, phi in fixture_maps.items():
        assert verify_adjoint(phi).valid, name


def test_basis_counts_against_matrix_oracle():
    entry = by_name("fano")
    cols = entry.representation.columns
    count = sum(
        1 for sub in combinations(range(7), 3) if gf_matrix_rank([cols[i] for i in sub], 2) == 3
    )
    assert count == 28
    assert len(entry.matroid.bases) == 28
    assert len(by_name("U_2_4").matroid.bases) == 6


def test_representation_rejects_mismatched_matroid():
    rep = by_name("fano").representation
    with pytest.raises(InputError, match="does not match"):
        adjoint_from_representation(uniform(3, 7), rep)


def test_covector_dimension_guard():
    rep = by_name("U_2_4").representation
    with pytest.raises(InputError, match="dimension"):
        rep.covector(es([0, 1], 4))  # spans everything, nullspace is 0-dim


def test_search_finds_known_adjoints():
    for name in ("U_1_2", "U_2_3", "U_2_4", "U_3_4"):
        M = by_name(name).matroid
        result = search_adjoint(M)
        assert result.found is not None, name
        assert verify_adjoint(result.found).valid
        assert result.diagnostic is None


def test_search_matches_representation_route():
    # on every source within the default hyperplane cap, the searched target
    # is isomorphic to the covector target
    cap = SearchBudget().max_hyperplanes
    searched = []
    for entry in catalog():
        if len(entry.matroid.hyperplanes()) > cap:
            continue
        built = adjoint_from_representation(entry.matroid, entry.representation)
        found = search_adjoint(entry.matroid).found
        assert isomorphic(found.target, built.target), entry.name
        searched.append(entry.name)
    assert sorted(searched) == ["U_1_1", "U_1_2", "U_2_3", "U_2_4", "U_2_5", "U_3_4"]


def test_search_is_deterministic():
    M = by_name("U_3_4").matroid
    a = search_adjoint(M)
    b = search_adjoint(M)
    assert a.candidates_examined == b.candidates_examined
    assert canonical_json(adjoint_to_dict(a.found)) == canonical_json(
        adjoint_to_dict(b.found)
    )


@pytest.mark.parametrize(
    "name,examined,digest",
    [
        ("U_1_1", 1, "237267f668f0879876be70d43468f10b603d7e6e85c8601d74ad241c33dd3bba"),
        ("U_1_2", 1, "04a1e4e66224a6bd32764c1d2f1bf810a115b89e1be2493a5374cca8ed0f605a"),
        ("U_2_3", 1, "94d2c08186f4b8c2e73b7886fbeed5353142bdde062e83c11b039b2e26d5ba01"),
        ("U_2_4", 1, "790aef7e4b199fc01cdeee28d06f4034c66c37d4ac2068e401355104d2d9f63b"),
        ("U_2_5", 1, "4011b3b470e51c3988b5e2d312d64ccc678f8243ede5caa40bb6c64ba7137b27"),
        ("U_3_4", 283, "6083f3c1dcee931e70b4ec2abb2d54927614030aac9ba56b0228638ead569860"),
    ],
)
def test_search_enumeration_is_pinned(name, examined, digest):
    # the candidate order decides which adjoint is found first, and after how many
    result = _enumerate_families(by_name(name).matroid, SearchBudget())
    assert result.candidates_examined == examined
    text = canonical_json(adjoint_to_dict(result.found))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "m,r", [(m, r) for m in range(1, 6) for r in (1, 2, 3) if r <= m] + [(6, 2)]
)
def test_family_cover_masks_match_the_simplicity_oracle(m, r):
    # search keeps a family of r-subsets when the OR of their cover masks
    # equals the cover mask of all labels
    subsets = list(combinations(range(m), r))
    covers = [_cover_mask(c, m) for c in subsets]
    all_pairs = _cover_mask(range(m), m)
    for size in range(1, len(subsets) + 1):
        for chosen in combinations(range(len(subsets)), size):
            covered = 0
            for i in chosen:
                covered |= covers[i]
            family = [frozenset(subsets[i]) for i in chosen]
            assert (covered == all_pairs) == family_is_simple(family, m, r), family


def test_budget_refusal_is_not_a_negative_answer():
    M = by_name("U_3_4").matroid
    result = _enumerate_families(M, SearchBudget(max_candidates=10))
    assert result.found is None
    assert not result.exhausted
    assert "budget" in result.diagnostic

    result = search_adjoint(uniform(4, 5))  # 10 hyperplanes exceeds the default cap
    assert result.found is None
    assert not result.exhausted
    assert "hyperplanes" in result.diagnostic


@pytest.mark.parametrize("field", ["max_hyperplanes", "max_candidates"])
@pytest.mark.parametrize("value", [True, False, "x", 2.0, None, -1])
def test_budget_refuses_bad_caps(field, value):
    # a bool would pass as a cap of 0 or 1, and a negative candidate cap
    # would be reported as an exhausted budget
    with pytest.raises(InputError) as info:
        SearchBudget(**{field: value})
    assert str(info.value) == f"{field} must be a non-negative integer, got {value!r}"


def test_budget_accepts_zero_caps():
    result = _enumerate_families(uniform(3, 4), SearchBudget(max_candidates=0))
    assert result.found is None and not result.exhausted
    assert result.diagnostic == "candidate budget of 0 exhausted"
    assert search_adjoint(uniform(2, 3), SearchBudget(0, 0)).found is not None


def _canonical(phi):
    return canonical_json(adjoint_to_dict(phi))


def assert_constructed_adjoint(M):
    """search_adjoint's answer on a rank 1-3 source: one candidate, fully
    verified, a target the checked constructor accepts, and the same map as
    the enumerator's first find wherever the enumeration is within its cap."""
    result = search_adjoint(M)
    assert result.found is not None and result.candidates_examined == 1
    assert all(report.valid for report in full_verification(result.found).values())
    assert_checked_constructor_agrees(result.found.target)
    if len(M.hyperplanes()) <= SearchBudget().max_hyperplanes:
        enumerated = _enumerate_families(M, SearchBudget())
        assert _canonical(enumerated.found) == _canonical(result.found)


@pytest.mark.parametrize("name", [e.name for e in catalog() if 1 <= e.matroid.full_rank <= 3])
def test_catalog_search_is_constructed(name):
    # all of them, U_3_5, U_3_6, M_K4, fano and nonfano included, within the
    # default budget
    assert_constructed_adjoint(by_name(name).matroid)


@settings(max_examples=60, deadline=None)
@given(representations(min_dim=3, max_dim=3, max_n=6))
def test_drawn_search_is_constructed(rep):
    # three rows, so most draws have rank 3; zero and parallel columns give
    # loops, parallel classes and lower ranks, and rank 0 has its own path.
    # At most six columns keep the targets within the default ground-size cap.
    M = rep.matroid()
    if M.full_rank >= 1:
        assert_constructed_adjoint(M)


def test_cap_refusal_is_not_a_negative_answer(monkeypatch):
    # U_3_4 has an adjoint on its six hyperplanes; a ground-size cap of five
    # refuses every candidate, which must not read as an exhausted search
    monkeypatch.setenv("MATADJ_MAX_N", "5")
    with pytest.raises(InputError, match="exceeds cap"):
        search_adjoint(uniform(3, 4))


def test_search_rank_zero_and_point():
    loops = uniform(0, 2)
    result = search_adjoint(loops)
    assert result.found is not None and result.exhausted
    assert result.found.target.n == 0

    result = search_adjoint(uniform(1, 1))
    assert result.found is not None
    assert verify_adjoint(result.found).valid


def test_minor_triangle_against_representation_minors():
    # contract one element two ways: minor_adjoint on the map, and the
    # covector construction on the reduced representation
    for name in ("U_3_4", "fano"):
        entry = by_name(name)
        M, rep = entry.matroid, entry.representation
        phi = adjoint_from_representation(M, rep)
        empty = es([], M.n)
        for e in range(M.n):
            C = es([e], M.n)
            psi = minor_adjoint(phi, MinorSpec(C, empty))
            rep2 = representation_minor(rep, C, empty)
            M2 = rep2.matroid()
            assert M2 == psi.source
            phi2 = adjoint_from_representation(M2, rep2)
            assert verify_adjoint(phi2).valid
            assert phi2.target.n == psi.target.n


def test_representation_minor_matches_matroid_minor():
    entry = by_name("M_K4")
    M, rep = entry.matroid, entry.representation
    for e in range(M.n):
        for f in range(M.n):
            if e == f:
                continue
            C, D = es([e], M.n), es([f], M.n)
            got = representation_minor(rep, C, D).matroid()
            want = M.contract(C).delete(es([f - (f > e)], M.n - 1))
            assert got == want
