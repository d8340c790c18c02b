"""Each map is checked once, and the one-pass checks agree with the slow ones.

``verify_adjoint`` keeps its report on the map, whose table is a read-only
copy, so the constructors' check and ``full_verification``'s definition
report are one computation.  Target simplicity is read off the singleton
closures, and chain independence is checked for every flat in one pass over
masks; both are compared here with the reference forms in ``oracles``: the
rank of every pair of elements, and a chain check run flat by flat with its
own greedy (``chain_by_restarts``) and its own independence test by rank
over the target's bases (``chain_violations_by_rank``).
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matadj.adjoint
from matadj import (
    AdjointMap,
    ConstructionError,
    ElementSet,
    FlatLattice,
    Matroid,
    MinorSpec,
    Representation,
    adjoint_from_representation,
    by_name,
    catalog,
    contract_adjoint,
    delete_adjoint,
    full_verification,
    minor_adjoint,
    search_adjoint,
    uniform,
    verify_adjoint,
)
from oracles import chain_report_by_merging, definition_report_by_loops, simple_violations_by_pairs
from test_target_closures import decorated, fresh, minor_maps


def es(members, n):
    return ElementSet.of(members, n)


def chain_outcome(check, phi):
    """The chain report, or the type and text of the error raised instead."""
    try:
        return check(phi)
    except ConstructionError as exc:
        return ConstructionError, str(exc)


def assert_chain_reports_agree(phi):
    fast = chain_outcome(lambda p: full_verification(p)["chain_independence"], phi)
    assert fast == chain_outcome(chain_report_by_merging, phi)
    return fast


# -- chain independence ----------------------------------------------------------

@pytest.mark.parametrize("name", [e.name for e in catalog()])
def test_chain_reports_match_the_merged_oracle(fixture_maps, name):
    phi = fixture_maps[name]
    assert assert_chain_reports_agree(phi).valid
    for psi in minor_maps(phi):
        assert assert_chain_reports_agree(psi).valid


def corrupted(phi):
    """Maps that differ from phi on the hyperplanes only: each pair of
    hyperplane images swapped, each hyperplane sent to the bottom flat of
    the target, to the image of a flat one rank down, or to the point of
    another hyperplane, and every hyperplane sent to the bottom flat."""
    M = phi.source
    hyperplanes = M.hyperplanes()
    bottom = phi.table[M.flats().layer(M.full_rank)[0]]
    below = [phi.table[F] for F in M.flats().layer(M.full_rank - 2)] if M.full_rank >= 2 else []
    for i, H in enumerate(hyperplanes):
        for G in hyperplanes[i + 1:]:
            table = dict(phi.table)
            table[H], table[G] = table[G], table[H]
            yield AdjointMap(M, phi.target, table)
        for img in [bottom, *below[:1], phi.table[hyperplanes[i - 1]]]:
            table = dict(phi.table)
            table[H] = img
            yield AdjointMap(M, phi.target, table)
    yield AdjointMap(M, phi.target, {**phi.table, **dict.fromkeys(hyperplanes, bottom)})


def test_chain_reports_match_on_corrupted_maps(fixture_maps):
    expected = set()
    for name in ("U_2_4", "U_3_5", "M_K4", "fano", "nonfano"):
        for psi in corrupted(fixture_maps[name]):
            report = assert_chain_reports_agree(psi)
            expected.update(v.expected.split(" of ")[0] for v in report.violations)
    # both failure paths are reached: an image that is not a point, and a
    # chain whose point images are dependent
    assert expected == {"a point image", "independent image set"}


@pytest.mark.parametrize("bases, message", [
    ([[0, 3], [1, 2]], "no hyperplane separates {1,2}/4 from {}/4"),
    ([[0, 1], [0, 2], [1, 2], [2, 3]], "hyperplane chain has the wrong length"),
])
def test_chain_construction_errors_match(bases, message):
    # families that fail the exchange axiom, whose closure-built lattices
    # have a flat that no greedy chain reaches
    M = Matroid._unchecked(4, [sum(1 << e for e in b) for b in bases])
    target = uniform(2, 2)
    table = {F: target.groundset() for F in M.flats().all_flats()}
    phi = AdjointMap(M, target, table)
    assert assert_chain_reports_agree(phi) == (ConstructionError, message)


# -- target simplicity --------------------------------------------------------------

def target_simple_violations(phi):
    return [v for v in verify_adjoint(phi).violations if v.check == "target_simple"]


def into(target):
    """A map into ``target`` from the rank-0 matroid on no elements: only its
    target's simplicity is of interest."""
    return AdjointMap(Matroid(0, [()]), target, {es([], 0): target.closure(es([], target.n))})


@pytest.mark.parametrize("name", [e.name for e in catalog()])
def test_simplicity_matches_the_pair_oracle_on_decorated_maps(fixture_maps, name):
    phi = fixture_maps[name]
    for psi in (phi, decorated(phi, False), decorated(phi, True)):
        expected = simple_violations_by_pairs(psi.target)
        assert target_simple_violations(psi) == expected
        assert fresh(psi.target).is_simple() == (not expected)


@st.composite
def columns_with_zeros_and_repeats(draw, max_dim=3):
    """Columns over a drawn field, in 1 to ``max_dim`` rows, some of them zero
    and some repeated or scaled copies of earlier ones, so loops and parallel
    classes are common."""
    field = draw(st.sampled_from([2, 3, 5, "rational"]))
    dim = draw(st.integers(1, max_dim))
    if field == "rational":
        entry = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)])
        scale = st.sampled_from([Fraction(1), Fraction(-2), Fraction(1, 3)])
    else:
        entry = st.integers(0, field - 1)
        scale = st.integers(1, field - 1)
    columns = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["new", "zero", "copy"]))
        if kind == "zero":
            columns.append((0,) * dim)
        elif kind == "copy" and columns:
            c = draw(scale)
            columns.append(tuple(c * x for x in draw(st.sampled_from(columns))))
        else:
            columns.append(tuple(draw(entry) for _ in range(dim)))
    return Representation(field, tuple(columns), dim)


@settings(max_examples=150, deadline=None)
@given(columns_with_zeros_and_repeats())
def test_simplicity_matches_the_pair_oracle_on_drawn_columns(rep):
    M = rep.matroid()
    expected = simple_violations_by_pairs(M)
    assert M.is_simple() == (not expected)
    assert target_simple_violations(into(rep.matroid())) == expected


# -- one report per map, over a read-only table -------------------------------------

def test_table_is_a_read_only_copy():
    u23 = uniform(2, 3)
    table = {es([], 3): es([0, 1, 2], 3), es([0, 1, 2], 3): es([], 3)}
    table.update({es([i], 3): es([i], 3) for i in range(3)})
    phi = AdjointMap(u23, uniform(2, 3), table)
    table[es([0], 3)] = es([1], 3)
    del table[es([2], 3)]
    assert phi.table[es([0], 3)] == es([0], 3) and len(phi.table) == 5
    assert verify_adjoint(phi).valid
    with pytest.raises(TypeError):
        phi.table[es([0], 3)] = es([1], 3)
    # dict() gives a mutable copy back, and equal tables compare equal
    assert dict(phi.table) == {**table, es([0], 3): es([0], 3), es([2], 3): es([2], 3)}
    assert phi == AdjointMap(u23, uniform(2, 3), dict(phi.table))


def test_report_is_computed_once_per_map(fixture_maps):
    phi = fixture_maps["fano"]
    assert verify_adjoint(phi) is verify_adjoint(phi)
    assert full_verification(phi)["definition"] is verify_adjoint(phi)


@pytest.fixture
def definition_runs(monkeypatch):
    """A list that gains the map of every run of the definition checks."""
    runs = []
    kernel = matadj.adjoint._definition_report
    monkeypatch.setattr(matadj.adjoint, "_definition_report", lambda phi: runs.append(phi) or kernel(phi))
    return runs


def test_construction_and_full_verification_check_once(definition_runs):
    def checked():
        return [id(phi) for phi in definition_runs]

    entry = by_name("nonfano")
    phi = adjoint_from_representation(fresh(entry.matroid), entry.representation)
    assert checked() == [id(phi)]
    assert all(report.valid for report in full_verification(phi).values())
    assert checked() == [id(phi)]

    found = search_adjoint(fresh(entry.matroid)).found
    full_verification(found)
    assert checked() == [id(phi), id(found)]

    n = phi.source.n
    psi = contract_adjoint(phi, es([0], n))
    chi = delete_adjoint(psi, es([0], n - 1))
    full_verification(psi)
    full_verification(chi)
    assert checked() == [id(phi), id(found), id(psi), id(chi)]
    # the contraction is kept, so minor_adjoint checks only its new deletion
    minor = minor_adjoint(phi, MinorSpec(es([0], n), es([1], n)))
    assert checked() == [id(phi), id(found), id(psi), id(chi), id(minor)]


# -- two definition checks decided by set sizes --------------------------------------

def assert_report_matches_the_full_loops(phi):
    report = verify_adjoint(phi)
    assert report == definition_report_by_loops(phi)
    return report


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["U_1_2", "U_2_3", "U_2_4", "U_3_4", "U_3_5", "M_K4", "fano", "nonfano"]),
       st.sampled_from(["simple", "loop", "parallel"]), st.data())
def test_definition_report_matches_the_full_loops_on_corrupted_maps(fixture_maps, name, target, data):
    # a catalog map, into its target or into it with a loop or a parallel
    # element added, with up to three entries sent to other target flats and
    # up to two pairs of images swapped: the size tests skip loops only
    # where they would find nothing, so the violations and their order match
    phi = fixture_maps[name]
    if target != "simple":
        phi = decorated(phi, target == "parallel")
    flats = list(phi.source.flats().all_flats())
    images = list(FlatLattice.build(fresh(phi.target)).all_flats())
    table = dict(phi.table)
    for _ in range(data.draw(st.integers(0, 3))):
        table[data.draw(st.sampled_from(flats))] = data.draw(st.sampled_from(images))
    for _ in range(data.draw(st.integers(0, 2))):
        F, G = data.draw(st.sampled_from(flats)), data.draw(st.sampled_from(flats))
        table[F], table[G] = table[G], table[F]
    assert_report_matches_the_full_loops(AdjointMap(phi.source, phi.target, table))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([e.name for e in catalog()]), st.booleans(), st.integers(0, 2), st.data())
def test_definition_report_matches_the_full_loops_from_rank_zero(fixture_maps, name, of_target, loops, data):
    # a rank-0 source on 0 to 2 loops, into a catalog matroid or target:
    # its hyperplane order is empty, so the size test never decides the
    # bijection, and a target with points keeps "uncovered points remain"
    phi = fixture_maps[name]
    target = phi.target if of_target else phi.source
    source = Matroid(loops, [[]])
    image = data.draw(st.sampled_from(list(FlatLattice.build(fresh(target)).all_flats())))
    psi = AdjointMap(source, target, {source.groundset(): image})
    assert psi._order == ()
    report = assert_report_matches_the_full_loops(psi)
    uncovered = [v for v in report.violations if v.actual == "uncovered points remain"]
    assert len(uncovered) == (target.n > 0)


def test_definition_report_of_a_rank_zero_map_into_no_points_is_valid():
    point = Matroid(0, [()])
    assert assert_report_matches_the_full_loops(AdjointMap(point, point, {es([], 0): es([], 0)})).valid


def test_definition_report_of_a_hyperplane_sent_to_a_loop():
    # U_1_1 into one loop: {0} is a flat there, so the one hyperplane's image
    # gives a hyperplane order of length t, but {0} is no point, so the
    # bijection check must still run and report it
    loop = Matroid(1, [[]])
    phi = AdjointMap(uniform(1, 1), loop, {es([], 1): es([0], 1), es([0], 1): es([0], 1)})
    assert phi._order == (0,)
    report = assert_report_matches_the_full_loops(phi)
    assert [v.witness for v in report.violations if v.check == "hyperplane_bijection"] == [(es([], 1),)]
