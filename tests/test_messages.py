"""The exact text of messages and outputs that no other test reaches: CLI
output modes, file-loader refusals, map-table refusals, lattice queries and
a few argument checks.  Theorem assertions, which only an implementation bug
can reach, are left out."""
import json
from pathlib import Path

import pytest

import matadj.cli
from matadj import (
    AdjointMap,
    ConstructionError,
    ElementSet,
    InputError,
    MinorSpec,
    StructureError,
    adjoint_from_representation,
    by_name,
    induced_map,
    load_adjoint,
    load_matroid,
    uniform,
    verify_adjoint,
)
from matadj.cli import main
from matadj.files import adjoint_to_dict, canonical_json, save_matroid
from matadj.linalg import Representation

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def es(members, n):
    return ElementSet.of(members, n)


def message(call):
    """The class name and text of the InputError or StructureError that
    ``call()`` raises."""
    with pytest.raises((InputError, StructureError)) as info:
        call()
    return type(info.value).__name__, str(info.value)


def u23_table():
    table = {es([], 3): es([0, 1, 2], 3), es([0, 1, 2], 3): es([], 3)}
    table.update({es([i], 3): es([i], 3) for i in range(3)})
    return table


# -- cli ----------------------------------------------------------------------

def test_flats_text_output(capsys):
    assert main(["flats", str(FIXTURES / "M_K4.json")]) == 0
    assert capsys.readouterr().out == (
        "rank 0: {}\n"
        "rank 1: {0} {1} {2} {3} {4} {5}\n"
        "rank 2: {0,1,3} {0,2,4} {0,5} {1,2,5} {1,4} {2,3} {3,4,5}\n"
        "rank 3: {0,1,2,3,4,5}\n"
    )


def test_hyperplanes_json_output(capsys):
    assert main(["hyperplanes", str(FIXTURES / "U_2_3.json"), "--json"]) == 0
    assert capsys.readouterr().out == '{"hyperplanes":[[0],[1],[2]]}\n'


def test_verify_json_on_an_invalid_map(tmp_path, fixture_maps, capsys):
    phi = fixture_maps["U_2_3"]
    data = json.loads(canonical_json(adjoint_to_dict(phi)))
    for entry in data["map"]:
        if entry["flat"] == [0]:
            entry["image"] = [0, 1, 2]
    paths = [tmp_path / f"{name}.json" for name in ("source", "target", "map")]
    for path, value in zip(paths, (data["source"], data["target"], data)):
        path.write_text(json.dumps(value), encoding="utf-8")
    assert main(["verify", *map(str, paths), "--json"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is False
    assert out["reports"]["definition"]["violations"] == [
        {"actual": "both map to {0,1,2}/3", "check": "injectivity",
         "expected": "distinct images", "witness": [[], [0]]},
        {"actual": "{0,1,2}/3", "check": "hyperplane_bijection",
         "expected": "a point of the target", "witness": [[0]]},
        {"actual": "uncovered points remain", "check": "hyperplane_bijection",
         "expected": "every point covered by a hyperplane image", "witness": [[0]]},
    ]
    assert out["reports"]["rank_complement"]["violations"] == [
        {"actual": "2 (a theorem violation: implementation bug, not bad input)",
         "check": "rank_complement", "expected": "target rank 1", "witness": [[0]]},
    ]
    assert out["reports"]["modular_pairs"] == {"checks_run": ["modular_pairs"], "violations": []}


def test_verify_json_serialises_element_witnesses(tmp_path, capsys):
    # a target with a parallel pair: its simplicity witness is two elements
    source, target = uniform(1, 1), uniform(1, 2)
    phi = AdjointMap(source, target, {es([], 1): es([0, 1], 2), es([0], 1): es([], 2)})
    paths = [tmp_path / f"{name}.json" for name in ("source", "target")]
    save_matroid(source, paths[0])
    save_matroid(target, paths[1])
    data = {"map": [{"flat": F.sorted(), "image": img.sorted()} for F, img in phi.pairs()]}
    (tmp_path / "map.json").write_text(json.dumps(data), encoding="utf-8")
    assert main(["verify", *map(str, paths), str(tmp_path / "map.json"), "--json"]) == 1
    violations = json.loads(capsys.readouterr().out)["reports"]["definition"]["violations"]
    assert violations[0] == {"actual": "{0,1} has rank 1", "check": "target_simple",
                             "expected": "no parallel pairs", "witness": [0, 1]}


def test_internal_error_branch(monkeypatch, capsys):
    def broken(M):
        raise ConstructionError("a construction failed")

    monkeypatch.setattr(matadj.cli, "search_adjoint", broken)
    assert main(["search", str(FIXTURES / "U_2_3.json")]) == 2
    assert capsys.readouterr().err == "internal error: a construction failed\n"


# -- files --------------------------------------------------------------------

@pytest.mark.parametrize("data, text", [
    ({"n": 3, "bases": "012"}, "'bases' must be a list of lists"),
    ({"n": 3, "bases": [[0, 1], "02"]}, "'bases' must be a list of lists"),
    ({"n": 3, "field": "rational", "matrix": []}, "'matrix' must be a non-empty list of rows"),
    ({"n": 3, "field": "rational", "matrix": "1"}, "'matrix' must be a non-empty list of rows"),
    # the loader refuses a key that it would not read
    ({"nme": "U_1_2", "n": 2, "bases": [[0], [1]]},
     "matroid file has unknown keys ['nme']; it takes only 'name', 'n', 'bases', 'field' and 'matrix'"),
    ({"n": 3, "bases": [[0], [1]], "field": 2},
     "matroid file gives 'field' with 'bases'; a field goes only with 'matrix'"),
    ({"n": 2, "field": {"prime": 2, "extra": 1}, "matrix": [[1, 1]]},
     "'field' has unknown keys ['extra']; it takes only 'prime'"),
])
def test_matroid_file_messages(data, text):
    assert message(lambda: load_matroid(data)) == ("InputError", text)


@pytest.mark.parametrize("edit, text", [
    (lambda d: d.update(source=5), "adjoint file: 'source' must be a matroid object or a catalog name"),
    (lambda d: d.update(target=[]), "adjoint file: 'target' must be a matroid object or a catalog name"),
    (lambda d: d.pop("map"), "adjoint file needs a 'map' list"),
    (lambda d: d.update(map={}), "adjoint file needs a 'map' list"),
    (lambda d: d["map"].append({"flat": [0]}), "each map entry needs 'flat' and 'image' arrays"),
    (lambda d: d["map"].append([[0], [0]]), "each map entry needs 'flat' and 'image' arrays"),
    (lambda d: d.update(hyperplane_order=[0, 1, 2]), "'hyperplane_order' must be a list of lists"),
    (lambda d: d.update(hyperplane_order="012"), "'hyperplane_order' must be a list of lists"),
    # the loader refuses a key that it would not read: a misspelt hyperplane
    # order would otherwise skip its cross-check with the table
    (lambda d: d.update(hyperplane_ordr=d.pop("hyperplane_order")),
     "adjoint file has unknown keys ['hyperplane_ordr']; it takes only 'source', 'target', 'map' "
     "and 'hyperplane_order'"),
    (lambda d: d.update(name="U_2_3", notes=""),
     "adjoint file has unknown keys ['name', 'notes']; it takes only 'source', 'target', 'map' "
     "and 'hyperplane_order'"),
    (lambda d: d["map"][1].update(imge=[0]), "map entry has unknown keys ['imge']; it takes only 'flat' and 'image'"),
])
def test_adjoint_file_messages(fixture_maps, edit, text):
    data = adjoint_to_dict(fixture_maps["U_2_3"])
    edit(data)
    assert message(lambda: load_adjoint(data)) == ("InputError", text)


# -- adjoint ------------------------------------------------------------------

def test_image_of_a_missing_flat(fixture_maps):
    phi = fixture_maps["U_2_3"]
    assert message(lambda: phi.image(es([0, 1], 3))) == ("StructureError", "table has no entry for flat {0,1}/3")


def test_table_keys_that_are_not_flats():
    table = u23_table()
    table[es([0, 1], 3)] = es([], 3)
    table[es([1, 2], 3)] = es([], 3)
    assert message(lambda: AdjointMap(uniform(2, 3), uniform(2, 3), table)) == (
        "StructureError", "table has keys that are not flats of the source: [{0,1}/3, {1,2}/3]")


def test_induced_map_bijection_messages():
    M = uniform(2, 3)
    H = M.hyperplanes()
    assert message(lambda: induced_map(M, uniform(2, 3), {H[0]: 0, H[1]: 1})) == (
        "InputError", "bijection is not total on the source hyperplanes")
    assert message(lambda: induced_map(M, uniform(2, 3), {H[0]: 0, H[1]: 1, H[2]: 1})) == (
        "InputError", "bijection is not onto the points of the target")
    assert message(lambda: induced_map(M, uniform(2, 4), {H[0]: 0, H[1]: 1, H[2]: 2})) == (
        "InputError", "bijection is not onto the points of the target")


def test_hyperplane_images_not_onto_the_points():
    # the hyperplanes go to three distinct points of a four-point target
    table = u23_table()
    table[es([], 3)] = es([0, 1, 2, 3], 4)
    table[es([0, 1, 2], 3)] = es([], 4)
    table.update({es([i], 3): es([i], 4) for i in range(3)})
    phi = AdjointMap(uniform(2, 3), uniform(2, 4), table)
    assert phi.hyperplane_order is None
    assert [str(v) for v in verify_adjoint(phi).violations] == [
        "[hyperplane_bijection] witness ({3}/4): expected every point covered by a "
        "hyperplane image, got uncovered points remain",
    ]
    assert message(lambda: adjoint_to_dict(phi)) == (
        "InputError", "cannot serialize a map whose hyperplane restriction is not point-bijective")


# -- lattice ------------------------------------------------------------------

def test_lattice_query_messages():
    lattice = uniform(2, 3).flats()
    assert message(lambda: lattice.layer(3)) == ("InputError", "no rank-3 layer in a rank-2 lattice")
    assert message(lambda: lattice.layer(-1)) == ("InputError", "no rank--1 layer in a rank-2 lattice")
    assert message(lambda: lattice.rank_of(es([0, 1], 3))) == ("InputError", "{0,1}/3 is not a flat")


# -- other modules ------------------------------------------------------------

def test_argument_messages():
    assert message(lambda: MinorSpec(es([0], 3), es([1], 4))) == (
        "InputError", "contract and delete sets live on different ground sets")
    assert message(lambda: Representation("rational", ((1, 0), (1,)), 2)) == (
        "InputError", "column (1,) does not have dimension 2")
    rep = Representation("rational", ((0,), (0,)), 1)
    assert message(lambda: adjoint_from_representation(rep.matroid(), rep)) == (
        "InputError", "adjoint construction needs rank at least 1")
    assert message(lambda: by_name("U_9_9")) == ("InputError", "no catalog matroid named 'U_9_9'")
