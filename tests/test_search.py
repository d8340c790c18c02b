import hashlib
from itertools import combinations, product

import pytest
from hypothesis import given, settings

from matadj import (
    AdjointMap,
    ElementSet,
    InputError,
    Matroid,
    MinorSpec,
    Representation,
    SearchResult,
    adjoint_from_representation,
    by_name,
    catalog,
    full_verification,
    minor_adjoint,
    search_adjoint,
    uniform,
    verify_adjoint,
)
import matadj.matroid as matroid_module
from matadj.files import adjoint_to_dict, canonical_json
from oracles import (
    cover_mask,
    enumerate_families,
    family_is_simple,
    gf_matrix_rank,
    isomorphic,
    representation_minor,
    vamos_bases,
)
from test_trust_boundaries import assert_checked_constructor_agrees, representations


# the enumeration oracle, and the isomorphism oracle that tries every
# relabelling, are run on sources with at most this many hyperplanes
ORACLE_HYPERPLANES = 6


def es(members, n):
    return ElementSet.of(members, n)


def binary(columns):
    """The column matroid of int vectors over GF(2)."""
    return Representation(2, tuple(map(tuple, columns)), len(columns[0])).matroid()


def projective_3_2():
    """PG(3,2): the 15 nonzero vectors of GF(2)^4."""
    return binary([v for v in product((0, 1), repeat=4) if any(v)])


def affine_3_2():
    """AG(3,2): the 8 vectors (1, v) for v in GF(2)^3."""
    return binary([(1,) + v for v in product((0, 1), repeat=3)])


def complete_graph_5():
    """M(K5): the incidence vectors of the 10 edges of K5."""
    return binary([[int(k in edge) for k in range(5)] for edge in combinations(range(5), 2)])


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
    # on every catalog source small enough for the isomorphism oracle, the
    # searched target is isomorphic to the covector target
    searched = []
    for entry in catalog():
        if len(entry.matroid.hyperplanes()) > ORACLE_HYPERPLANES:
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
    result = enumerate_families(by_name(name).matroid)
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
    covers = [cover_mask(c, m) for c in subsets]
    all_pairs = cover_mask(range(m), m)
    for size in range(1, len(subsets) + 1):
        for chosen in combinations(range(len(subsets)), size):
            covered = 0
            for i in chosen:
                covered |= covers[i]
            family = [frozenset(subsets[i]) for i in chosen]
            assert (covered == all_pairs) == family_is_simple(family, m, r), family


def refusal(m, b1, b2, e):
    """search_adjoint's diagnostic for a rank-4 freest target on m labels
    that fails the exchange axiom at the pair (b1, b2) and element e."""
    return (f"the freest rank-4 target on {m} hyperplane labels is not a matroid: "
            f"basis exchange fails for pair B1={b1}, B2={b2} at element {e}; "
            "no other candidate is tried, so this does not show that M has no adjoint")


def test_budget_refusal_is_not_a_negative_answer():
    # AG(3,2) and M(K5) have covector adjoints, but their freest targets are
    # not matroids: search refuses, names the violating pair, and does not
    # claim that none exists
    for M, diagnostic in ((affine_3_2(), refusal(14, [0, 1, 3, 8], [1, 3, 10, 12], 0)),
                          (complete_graph_5(), refusal(15, [0, 1, 4, 8], [4, 6, 8, 10], 0))):
        result = search_adjoint(M)
        assert result.found is None
        assert not result.exhausted and result.candidates_examined == 1
        assert result.diagnostic == diagnostic

    # U_6_8 has 56 hyperplanes: the work budget refuses its C(56, 6) subsets
    # before any is listed
    with pytest.raises(InputError, match=r"^label subset count C\(56, 6\) = 32,468,436 exceeds "
                                         "the work budget of 16,777,216$"):
        search_adjoint(uniform(6, 8))


# search's refusal of each V8\e: its hyperplane count and exchange witness
VAMOS_DELETION_REFUSALS = [
    (29, [0, 1, 6, 15], [1, 6, 17, 23], 0),
    (29, [0, 1, 6, 15], [1, 6, 17, 23], 0),
    (29, [0, 1, 3, 12], [3, 7, 12, 17], 0),
    (29, [0, 1, 3, 12], [3, 7, 12, 17], 0),
    (26, [0, 1, 3, 14], [3, 4, 14, 15], 1),
    (26, [0, 1, 3, 14], [3, 4, 14, 15], 1),
    (26, [0, 1, 3, 12], [3, 6, 12, 15], 0),
    (26, [0, 1, 3, 12], [3, 6, 12, 15], 0),
]


@pytest.mark.parametrize("e", range(8))
def test_vamos_deletions_are_refused_at_default_settings(e):
    # each V8\e has rank 4 and 26 or 29 hyperplanes; its freest target is
    # not a matroid, which the search reports, with the violating pair,
    # without claiming that none exists
    M = Matroid(8, vamos_bases()).delete(es([e], 8))
    result = search_adjoint(M)
    assert (result.found, result.exhausted, result.candidates_examined) == (None, False, 1)
    assert result.diagnostic == refusal(*VAMOS_DELETION_REFUSALS[e])


def _canonical(phi):
    return canonical_json(adjoint_to_dict(phi))


def assert_constructed_adjoint(M):
    """search_adjoint's answer: one candidate, fully verified, a target the
    checked constructor accepts, and the same map as the enumeration oracle's
    first find wherever the source is small enough for the oracle."""
    result = search_adjoint(M)
    assert result.found is not None and result.candidates_examined == 1
    assert all(report.valid for report in full_verification(result.found).values())
    assert_checked_constructor_agrees(result.found.target)
    if len(M.hyperplanes()) <= ORACLE_HYPERPLANES:
        enumerated = enumerate_families(M)
        assert _canonical(enumerated.found) == _canonical(result.found)


@pytest.mark.parametrize("name", [e.name for e in catalog() if 1 <= e.matroid.full_rank <= 3])
def test_catalog_search_is_constructed(name):
    # all of them, U_3_5, U_3_6, M_K4, fano and nonfano included, within the
    # default budget
    assert_constructed_adjoint(by_name(name).matroid)


def test_rank_four_search_finds_freest_adjoints():
    # U_4_5 has 10 hyperplanes and PG(3,2) has 15: both past the oracle, so
    # the answer is checked by full verification and the checked constructor
    for M in (uniform(4, 5), projective_3_2()):
        assert_constructed_adjoint(M)


def _partitions(items):
    """Every partition of the list ``items`` into blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for blocks in _partitions(rest):
        yield [[first]] + blocks
        for i in range(len(blocks)):
            yield blocks[:i] + [[first] + blocks[i]] + blocks[i + 1:]


def _rank_at_most_two(n):
    """The bases lists of every labelled matroid of rank at most 2 on n
    elements: some loops, the other elements split into parallel classes,
    and any two elements of different classes a basis."""
    for loops in product((False, True), repeat=n):
        for classes in _partitions([e for e in range(n) if not loops[e]]):
            if not classes:
                yield [[]]
            elif len(classes) == 1:
                yield [[e] for e in classes[0]]
            else:
                yield [[a, b] for i, c in enumerate(classes) for d in classes[i + 1:]
                       for a in c for b in d]


def small_high_rank_sources():
    """Every labelled simple matroid of rank >= 4 with at most six hyperplanes.

    By Greene's inequality a simple matroid has at least as many hyperplanes
    as points, so these have at most six points: they are the duals of the
    matroids of rank at most 2 on 4 to 6 elements.
    """
    sources = []
    for n in range(4, ORACLE_HYPERPLANES + 1):
        for bases in _rank_at_most_two(n):
            M = Matroid(n, bases).dual()
            if M.full_rank >= 4 and M.is_simple() and len(M.hyperplanes()) <= ORACLE_HYPERPLANES:
                sources.append(M)
    return sources


def test_freest_matches_the_enumeration_oracle_in_rank_four_and_above():
    # the oracle takes seconds on all 58 labelled sources, so it runs on one
    # labelled representative of each isomorphism class
    labelled = small_high_rank_sources()
    assert len(labelled) == 58
    sources = []
    for M in labelled:
        if not any(isomorphic(M, N) for N in sources):
            sources.append(M)
    assert [(M.n, M.full_rank, len(M.hyperplanes())) for M in sources] == [
        (4, 4, 4), (5, 4, 5), (5, 5, 5), (6, 4, 6), (6, 4, 6), (6, 5, 6), (6, 6, 6)
    ]
    for M in sources:
        result = search_adjoint(M)
        enumerated = enumerate_families(M)
        assert result.found is not None and enumerated.found is not None
        assert _canonical(result.found) == _canonical(enumerated.found)


@settings(max_examples=60, deadline=None)
@given(representations(min_dim=3, max_dim=3, max_n=6))
def test_drawn_search_is_constructed(rep):
    # three rows, so most draws have rank 3; zero and parallel columns give
    # loops, parallel classes and lower ranks, and rank 0 has its own path.
    # At most six columns keep the searches small.
    M = rep.matroid()
    if M.full_rank >= 1:
        assert_constructed_adjoint(M)


def test_cap_refusal_is_not_a_negative_answer(monkeypatch):
    # U_3_4 has an adjoint on its six hyperplanes; a work budget of 19 refuses
    # the C(6, 3) = 20 subsets of its freest target, which must not read as
    # an exhausted search
    M = uniform(3, 4)
    monkeypatch.setattr(matroid_module, "WORK_BUDGET", 19)
    with pytest.raises(InputError, match=r"^label subset count C\(6, 3\) = 20 exceeds the work budget of 19$"):
        search_adjoint(M)
    monkeypatch.setattr(matroid_module, "WORK_BUDGET", 20)
    assert search_adjoint(M).found is not None


@pytest.mark.parametrize("n", [0, 2])
def test_rank_zero_search_is_the_empty_adjoint(n):
    # the freest target in rank 0 is U_0_0, and its map is the one map
    # that the public constructors build
    M = Matroid(n, [()])
    empty = AdjointMap(M, Matroid(0, [()]), {M.closure(M.groundset()): ElementSet.empty(0)})
    result = search_adjoint(M)
    assert result == SearchResult(empty, True, 1)
    assert verify_adjoint(result.found).valid
    assert canonical_json(adjoint_to_dict(result.found)) == canonical_json(adjoint_to_dict(empty))


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
