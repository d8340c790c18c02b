"""The public entry points that take a matroid, a map, a minor spec or a
representation, and ``uniform``, refuse an argument of the wrong class with an
``InputError`` that names what they expected, never an AttributeError or a
TypeError from deep inside.  So do the entries that take a collection of
elements, bases or hyperplanes, or a file path, and a map table's keys and an
induced map's point labels."""
import re

import pytest

from matadj import (
    AdjointMap,
    ElementSet,
    FlatLattice,
    InputError,
    Matroid,
    MinorSpec,
    StructureError,
    adjoint_from_representation,
    apply_minor,
    by_name,
    check_chain_independence,
    check_modular_pairs,
    check_rank_complement,
    contract_adjoint,
    delete_adjoint,
    full_verification,
    hyperplane_chain,
    induced_map,
    load_adjoint,
    load_matroid,
    minor_adjoint,
    minor_normal_form,
    save_adjoint,
    save_matroid,
    search_adjoint,
    uniform,
    vanishing_hyperplanes,
    verify_adjoint,
)
from matadj.files import adjoint_to_dict

ENTRY = by_name("U_2_3")
M, REP = ENTRY.matroid, ENTRY.representation
PHI = adjoint_from_representation(M, REP)
SPEC = MinorSpec(ElementSet.of([0], 3), ElementSet.empty(3))
EMPTY = ElementSet.empty(3)
MAP_DICT = adjoint_to_dict(PHI)

CASES = [
    ("search_adjoint(str)", lambda: search_adjoint("fano"), "expected Matroid, got str"),
    ("from_rep(M, None)", lambda: adjoint_from_representation(M, None), "expected Representation, got NoneType"),
    ("from_rep(None, rep)", lambda: adjoint_from_representation(None, REP), "expected Matroid, got NoneType"),
    ("minor_adjoint(phi, tuple)", lambda: minor_adjoint(PHI, ((0,), ())), "expected MinorSpec, got tuple"),
    ("minor_adjoint(None, spec)", lambda: minor_adjoint(None, SPEC), "expected AdjointMap, got NoneType"),
    ("minor_normal_form(M, None)", lambda: minor_normal_form(M, None), "expected MinorSpec, got NoneType"),
    ("minor_normal_form(None, spec)", lambda: minor_normal_form(None, SPEC), "expected Matroid, got NoneType"),
    ("apply_minor(M, None)", lambda: apply_minor(M, None), "expected MinorSpec, got NoneType"),
    ("apply_minor(None, spec)", lambda: apply_minor(None, SPEC), "expected Matroid, got NoneType"),
    ("verify_adjoint(dict)", lambda: verify_adjoint({}), "expected AdjointMap, got dict"),
    ("full_verification(None)", lambda: full_verification(None), "expected AdjointMap, got NoneType"),
    ("check_rank_complement(dict)", lambda: check_rank_complement({}), "expected AdjointMap, got dict"),
    ("check_modular_pairs(dict)", lambda: check_modular_pairs({}), "expected AdjointMap, got dict"),
    ("check_chain_independence(dict)", lambda: check_chain_independence({}, []), "expected AdjointMap, got dict"),
    ("contract_adjoint(None, C)", lambda: contract_adjoint(None, EMPTY), "expected AdjointMap, got NoneType"),
    ("delete_adjoint(None, D)", lambda: delete_adjoint(None, EMPTY), "expected AdjointMap, got NoneType"),
    ("vanishing_hyperplanes(None, D)", lambda: vanishing_hyperplanes(None, EMPTY), "expected Matroid, got NoneType"),
    ("induced_map(None, M, bij)", lambda: induced_map(None, M, {}), "expected Matroid, got NoneType"),
    ("induced_map(M, list, bij)", lambda: induced_map(M, [], {}), "expected Matroid, got list"),
    ("induced_map(M, M, list)", lambda: induced_map(M, M, list(M.hyperplanes())), "expected Mapping, got list"),
    ("hyperplane_chain(None, X)", lambda: hyperplane_chain(None, EMPTY), "expected Matroid, got NoneType"),
    ("save_adjoint(None)", lambda: save_adjoint(None, "unused.json"), "expected AdjointMap, got NoneType"),
    ("save_matroid(None)", lambda: save_matroid(None, "unused.json"), "expected Matroid, got NoneType"),
    ("M.restrict(list)", lambda: M.restrict([0, 1]), "expected ElementSet, got list"),
    ("load_adjoint(d, source_matroid=str)", lambda: load_adjoint(MAP_DICT, source_matroid="U_2_3"),
     "expected Matroid, got str"),
    ("load_adjoint(d, target_matroid=int)", lambda: load_adjoint(MAP_DICT, target_matroid=5),
     "expected Matroid, got int"),
    ("uniform(True, 3)", lambda: uniform(True, 3), "uniform matroid needs integers r and n, got r=True, n=3"),
    ("uniform(2.0, 3)", lambda: uniform(2.0, 3), "uniform matroid needs integers r and n, got r=2.0, n=3"),
    ("uniform(2, 3.0)", lambda: uniform(2, 3.0), "uniform matroid needs integers r and n, got r=2, n=3.0"),
    ("uniform('2', 3)", lambda: uniform("2", 3), "uniform matroid needs integers r and n, got r='2', n=3"),
]


@pytest.mark.parametrize("call, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_wrong_argument_class_is_an_input_error(call, message):
    with pytest.raises(InputError, match=re.escape(message)):
        call()


def test_uniform_range_message_is_unchanged():
    with pytest.raises(InputError, match=re.escape("uniform matroid needs 0 <= r <= n, got r=4, n=3")):
        uniform(4, 3)


KIND_CASES = [
    ("FlatLattice.build(None)", lambda: FlatLattice.build(None), "expected Matroid, got NoneType"),
    ("FlatLattice.build(5)", lambda: FlatLattice.build(5), "expected Matroid, got int"),
    ("check_chain_independence(phi, None)", lambda: check_chain_independence(PHI, None),
     "expected Iterable, got NoneType"),
    ("ElementSet(None, 3)", lambda: ElementSet(None, 3), "expected Iterable, got NoneType"),
    ("ElementSet.of(None, 3)", lambda: ElementSet.of(None, 3), "expected Iterable, got NoneType"),
    ("ElementSet.relabel(None, 3)", lambda: EMPTY.relabel(None, 3), "expected Mapping, got NoneType"),
    ("FlatLattice.layer('1')", lambda: M.flats().layer("1"), "expected int, got str"),
    ("FlatLattice.layer(None)", lambda: M.flats().layer(None), "expected int, got NoneType"),
    ("FlatLattice.layer(1.0)", lambda: M.flats().layer(1.0), "expected int, got float"),
    ("FlatLattice.layer(True)", lambda: M.flats().layer(True), "expected int, got bool"),
    ("Matroid(3, None)", lambda: Matroid(3, None), "expected Iterable, got NoneType"),
    ("Matroid(3, 5)", lambda: Matroid(3, 5), "expected Iterable, got int"),
    ("load_matroid(None)", lambda: load_matroid(None), "expected a path or a dict, got NoneType"),
    ("load_adjoint(None)", lambda: load_adjoint(None), "expected a path or a dict, got NoneType"),
    ("save_matroid(M, None)", lambda: save_matroid(M, None), "expected a path, got NoneType"),
    ("save_adjoint(phi, None)", lambda: save_adjoint(PHI, None), "expected a path, got NoneType"),
]


@pytest.mark.parametrize("call, message", [c[1:] for c in KIND_CASES], ids=[c[0] for c in KIND_CASES])
def test_wrong_argument_kind_is_an_input_error(call, message):
    with pytest.raises(InputError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("key", [5, "x", (1,)], ids=repr)
def test_table_key_that_is_not_an_element_set_is_a_structure_error(key):
    table = {**PHI.table, key: ElementSet.empty(3)}
    with pytest.raises(StructureError, match=re.escape(f"table has keys that are not flats of the source: [{key!r}]")):
        AdjointMap(M, PHI.target, table)


def test_table_keys_that_are_not_flats_list_element_sets_first():
    # element sets in lexicographic order, then other keys in table order
    table = {**PHI.table, "x": EMPTY, ElementSet.of([1, 2], 3): EMPTY, 5: EMPTY, ElementSet.of([0, 1], 3): EMPTY}
    with pytest.raises(StructureError, match=re.escape(
            "table has keys that are not flats of the source: [{0,1}/3, {1,2}/3, 'x']")):
        AdjointMap(M, PHI.target, table)


@pytest.mark.parametrize("label", [True, 1.0, "a"], ids=repr)
def test_induced_map_point_label_must_be_an_int(label):
    H = M.hyperplanes()
    with pytest.raises(InputError, match=re.escape(f"bijection value {label!r} is not a point label: expected an int")):
        induced_map(M, uniform(2, 3), {H[0]: 0, H[1]: label, H[2]: 2})
