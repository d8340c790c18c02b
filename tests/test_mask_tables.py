"""A map is stored as int masks; ``ElementSet``s are built only where a caller reads one.

The maps the package builds (covector adjoints and their minors) never pass
through the public constructor.  Each is compared here with the map that
the public constructor rebuilds from its ``ElementSet`` table: equality,
hash, repr, hyperplane order, every report and the canonical JSON, and a
saved map must load back to the same bytes.  The modular-pair check, which
tests only non-nested pairs of images of rank 2 to r' - 1, is compared with
the all-pairs loop in ``oracles`` on valid maps and on maps with swapped or
shrunk images, and every pair it skips is shown modular by brute force.
"""
import json
import pickle
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matadj import (
    AdjointMap,
    ElementSet,
    InputError,
    Matroid,
    MinorSpec,
    catalog,
    check_modular_pairs,
    full_verification,
    load_adjoint,
    load_matroid,
    minor_adjoint,
)
from matadj.files import adjoint_to_dict, canonical_json
from oracles import brute_rank, modular_pairs_by_all_pairs
from test_target_closures import minor_maps

NAMES = [e.name for e in catalog()]


def dump(phi) -> str:
    return canonical_json(adjoint_to_dict(phi))


def assert_rebuilt_map_agrees(phi):
    rebuilt = AdjointMap(phi.source, phi.target, dict(phi.table))
    assert rebuilt == phi and phi == rebuilt
    for m in (phi, rebuilt):
        with pytest.raises(TypeError):
            hash(m)
    assert repr(rebuilt) == repr(phi)
    assert rebuilt.hyperplane_order == phi.hyperplane_order
    assert full_verification(rebuilt) == full_verification(phi)
    assert list(rebuilt.table.items()) == list(phi.table.items())
    assert {F.mask: img.mask for F, img in phi.table.items()} == phi._table
    text = dump(phi)
    assert dump(rebuilt) == text
    assert dump(load_adjoint(json.loads(text))) == text
    assert dump(load_adjoint(json.loads(text), source_matroid=phi.source, target_matroid=phi.target)) == text


@pytest.mark.parametrize("name", NAMES)
def test_built_maps_match_the_maps_rebuilt_from_their_tables(fixture_maps, name):
    phi = fixture_maps[name]
    assert_rebuilt_map_agrees(phi)
    for psi in minor_maps(phi, most=2):
        assert_rebuilt_map_agrees(psi)


@pytest.mark.parametrize("name", ["U_2_3", "fano", "nonfano"])
def test_maps_pickle_with_or_without_their_table_view(fixture_maps, name):
    n = fixture_maps[name].source.n
    psi = minor_adjoint(fixture_maps[name], MinorSpec(ElementSet.of([0], n), ElementSet.of([], n)))
    for _ in range(2):  # the second round has read the table, so the view is built
        copy = pickle.loads(pickle.dumps(psi))
        assert copy == psi and repr(copy) == repr(psi)
        assert full_verification(copy) == full_verification(psi)


# -- modular pairs ------------------------------------------------------------------

def edited(phi, data):
    """phi with one to three edits drawn from ``data``: two flats' images
    swapped, or a flat's image replaced by a flat of the target strictly
    inside it."""
    flats = list(phi.source.flats().all_flats())
    target_flats = list(phi.target.flats().all_flats())
    table = dict(phi.table)
    for _ in range(data.draw(st.integers(1, 3))):
        F = data.draw(st.sampled_from(flats))
        smaller = [G for G in target_flats if G.mask & ~table[F].mask == 0 and G != table[F]]
        if smaller and data.draw(st.booleans()):
            table[F] = data.draw(st.sampled_from(smaller))
        else:
            G = data.draw(st.sampled_from(flats))
            table[F], table[G] = table[G], table[F]
    return AdjointMap(phi.source, phi.target, table)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(NAMES), st.integers(0, 6), st.booleans(), st.data())
def test_modular_pairs_skip_only_pairs_that_cannot_fail(fixture_maps, name, e, contract, data):
    phi = fixture_maps[name]
    n = phi.source.n
    spec = ([e % n], []) if contract else ([], [e % n])
    if phi.source.is_coindependent(ElementSet.of(spec[1], n)):
        phi = minor_adjoint(phi, MinorSpec(ElementSet.of(spec[0], n), ElementSet.of(spec[1], n)))
    assert check_modular_pairs(phi) == modular_pairs_by_all_pairs(phi)
    bad = edited(phi, data)
    assert check_modular_pairs(bad) == modular_pairs_by_all_pairs(bad)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(NAMES), st.integers(0, 6), st.booleans(), st.data())
def test_every_skipped_modular_pair_is_modular_by_brute_force(fixture_maps, name, e, contract, data):
    # the skipped pairs are the non-nested ones with an image of rank 0, 1 or
    # r': the theorem in check_modular_pairs' docstring says that they hold
    # on any map whose images are target flats, so on edited maps too
    phi = fixture_maps[name]
    n = phi.source.n
    spec = ([e % n], []) if contract else ([], [e % n])
    if phi.source.is_coindependent(ElementSet.of(spec[1], n)):
        phi = minor_adjoint(phi, MinorSpec(ElementSet.of(spec[0], n), ElementSet.of(spec[1], n)))
    for psi in (phi, edited(phi, data)):
        rank = cache(lambda S, T=psi.target: brute_rank(T, S))
        top = rank(frozenset(range(psi.target.n)))
        images = [psi.table[X].members for X in psi.source.flats().canonical_order()]
        for i, a in enumerate(images):
            for b in images[i + 1:]:
                if not (a <= b or b <= a or 2 <= rank(a) < top and 2 <= rank(b) < top):
                    assert rank(a) + rank(b) == rank(a | b) + rank(a & b), (a, b)


def test_the_modular_pair_oracle_sees_violations(fixture_maps):
    # a shrunk image can break a modular pair, so the comparison has teeth:
    # here the image of the empty flat, all of U_3_5's target, becomes a line
    phi = fixture_maps["U_3_5"]
    empty = ElementSet.of([], phi.source.n)
    lines = [L for L in phi.target.flats().layer(2) if len(L) == 2]
    bad = AdjointMap(phi.source, phi.target, {**phi.table, empty: lines[0]})
    report = check_modular_pairs(bad)
    assert not report.valid and report == modular_pairs_by_all_pairs(bad)


# -- basis labels ----------------------------------------------------------------

@pytest.mark.parametrize("n, basis, text", [
    (3, 5, "basis 5 is not a collection of element labels"),
    (3, None, "basis None is not a collection of element labels"),
    (2, iter([0, 1]), r"basis <list_iterator object at 0x[0-9a-f]+> is not a collection of element labels"),
])
def test_a_basis_that_is_not_a_collection_is_an_input_error(n, basis, text):
    with pytest.raises(InputError, match=f"^{text}$"):
        Matroid(n, [basis])


def test_a_bases_file_names_its_bad_basis(tmp_path):
    path = tmp_path / "bases.json"
    path.write_text(json.dumps({"n": 3, "bases": [[0, 1], [0, [2]]]}), encoding="utf-8")
    with pytest.raises(InputError, match=r"^basis \[0, \[2\]\] has non-integer element \[2\]$"):
        load_matroid(path)
