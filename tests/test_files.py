import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from matadj import (
    AdjointMap,
    ElementSet,
    InputError,
    by_name,
    load_adjoint,
    load_matroid,
    save_adjoint,
    save_matroid,
    uniform,
    write_catalog_fixtures,
)
from matadj.files import adjoint_to_dict, canonical_json, matroid_to_dict

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def es(members, n):
    return ElementSet.of(members, n)


def test_bases_round_trip(tmp_path):
    M = by_name("M_K4").matroid
    path = tmp_path / "m.json"
    save_matroid(M, path, name="wheel3")
    loaded, rep, name = load_matroid(path)
    assert loaded == M
    assert rep is None
    assert name == "wheel3"
    # a second save of the loaded matroid is byte-identical
    again = tmp_path / "m2.json"
    save_matroid(loaded, again, name="wheel3")
    assert path.read_bytes() == again.read_bytes()


def test_prime_field_matrix_file():
    fixture = Path(__file__).resolve().parent.parent / "fixtures" / "fano.json"
    M, rep, name = load_matroid(fixture)
    assert name == "fano"
    assert rep is not None and rep.field == 2
    assert M == by_name("fano").matroid


def test_rational_matrix_file(tmp_path):
    data = {
        "n": 3,
        "field": "rational",
        "matrix": [["1", "0", "1/2"], ["0", "1", "1/3"]],
    }
    path = tmp_path / "q.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    M, rep, _ = load_matroid(path)
    assert M == uniform(2, 3)
    assert rep.field == "rational"


def test_matrix_save_round_trip(tmp_path):
    entry = by_name("nonfano")
    path = tmp_path / "nf.json"
    save_matroid(entry.matroid, path, name="nonfano", rep=entry.representation)
    M, rep, name = load_matroid(path)
    assert M == entry.matroid
    assert rep.field == "rational"


def test_save_refuses_a_representation_of_another_matroid(tmp_path):
    # the non-Fano matrix would load back as non-Fano under Fano's name
    path = tmp_path / "fano.json"
    with pytest.raises(InputError, match="^representation does not match the matroid's bases$"):
        save_matroid(by_name("fano").matroid, path, name="fano", rep=by_name("nonfano").representation)
    assert not path.exists()


def test_save_refuses_a_representation_that_is_not_one(tmp_path):
    path = tmp_path / "fano.json"
    with pytest.raises(InputError, match="^expected Representation, got str$"):
        save_matroid(by_name("fano").matroid, path, rep="x")
    assert not path.exists()


def test_save_refuses_a_name_that_load_would_refuse(tmp_path):
    path = tmp_path / "fano.json"
    with pytest.raises(InputError, match="^'name' must be a string, got int$"):
        save_matroid(by_name("fano").matroid, path, name=5)
    assert not path.exists()


def test_loader_reports_exchange_failure():
    with pytest.raises(InputError, match="basis exchange fails"):
        load_matroid({"n": 4, "bases": [[0, 1], [2, 3]]})


@pytest.mark.parametrize(
    "data,message",
    [
        ({"bases": [[0]]}, "integer 'n'"),
        ({"n": 3}, "either 'bases' or 'matrix'"),
        ({"n": 3, "field": {"prime": 4}, "matrix": [[1, 0, 0]]}, "prime"),
        ({"n": 3, "field": "real", "matrix": [[1, 0, 0]]}, "'field'"),
        ({"n": 3, "field": {"prime": 2}, "matrix": [[1, 0]]}, "exactly n=3"),
        ({"n": 3, "field": "rational", "matrix": [["x", "0", "0"]]}, "bad matrix entry"),
        ({"n": 3, "bases": [[0, 1, 1], [0, 2, 2], [1, 2, 2]]}, "repeats an element"),
        ({"n": 3, "bases": [[0, 1], [0, 2], [1, 0]]}, "listed more than once"),
        ({"n": 3, "bases": [[True, 1], [0, 2], [1, 2]]}, "non-integer element True"),
        ({"n": 3, "bases": [[0, 1], [0, "2"], [1, 2]]}, "non-integer element '2'"),
        # entries and field specs are checked, never truncated or coerced
        ({"n": 3, "field": {"prime": 2}, "matrix": [[1.7, 0, 1]]}, r"bad matrix entry 1\.7"),
        ({"n": 3, "field": {"prime": 3}, "matrix": [[True, 0, 1]]}, "bad matrix entry True"),
        ({"n": 3, "field": "rational", "matrix": [[True, "0", "1"]]}, "bad matrix entry True"),
        ({"n": 3, "field": "rational", "matrix": [[0.1, "0", "1"]]}, r"bad matrix entry 0\.1"),
        ({"n": 3, "field": {"prime": 2.0}, "matrix": [[1, 0, 1]]}, r"'prime' must be an integer, got 2\.0"),
        ({"n": 3, "field": {"prime": "3"}, "matrix": [[1, 0, 1]]}, "'prime' must be an integer, got '3'"),
        # an exponent would be expanded into a full int before any check
        ({"n": 3, "field": "rational", "matrix": [["1e4000000", "0", "1"]]},
         "bad matrix entry '1e4000000': exponent notation is not accepted"),
        ({"n": 3, "field": "rational", "matrix": [["0", "1.5E-3", "1"]]},
         "bad matrix entry '1.5E-3': exponent notation is not accepted"),
    ],
)
def test_bad_matroid_files(data, message):
    with pytest.raises(InputError, match=message):
        load_matroid(data)


@pytest.mark.parametrize("name, kind", [([1, 2], "list"), (7, "int"), (True, "bool"), ({"a": 1}, "dict")])
def test_a_name_that_is_not_a_string_is_refused(name, kind):
    for data in ({"n": 2, "bases": [[0]]}, {"n": 2, "field": {"prime": 2}, "matrix": [[1, 0]]}):
        with pytest.raises(InputError, match=f"^'name' must be a string, got {kind}$"):
            load_matroid({**data, "name": name})


def test_a_dict_with_both_bases_and_matrix_is_refused():
    # the matrix's one nonzero column makes {1} the basis, which the bases contradict
    data = {"n": 2, "bases": [[0]], "field": "rational", "matrix": [[0, 1]]}
    with pytest.raises(InputError, match="^matroid file gives both 'bases' and 'matrix'; it needs exactly one$"):
        load_matroid(data)


def test_a_null_or_absent_name_and_every_fixture_load():
    assert load_matroid({"n": 2, "bases": [[0]], "name": None})[2] is None
    assert load_matroid({"n": 2, "bases": [[0]]})[2] is None
    for path in sorted(FIXTURES.glob("*.json")):
        assert load_matroid(path)[2] == path.stem


def test_rational_strings_are_exact():
    _, rep, _ = load_matroid({"n": 2, "field": "rational", "matrix": [["0.1", "1/3"], [1, "-2"]]})
    assert rep.columns == ((Fraction(1, 10), Fraction(1)), (Fraction(1, 3), Fraction(-2)))


def test_unreadable_and_malformed_files(tmp_path):
    with pytest.raises(InputError, match="cannot read"):
        load_matroid(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(InputError, match="not valid JSON"):
        load_matroid(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1,2]", encoding="utf-8")
    with pytest.raises(InputError, match="object at top level"):
        load_matroid(arr)


def test_adjoint_round_trip(tmp_path, fixture_maps):
    phi = fixture_maps["U_3_4"]
    path = tmp_path / "map.json"
    save_adjoint(phi, path)
    loaded = load_adjoint(path)
    assert loaded.source == phi.source
    assert loaded.target == phi.target
    assert loaded.table == phi.table
    assert loaded.hyperplane_order == phi.hyperplane_order
    again = tmp_path / "map2.json"
    save_adjoint(loaded, again)
    assert path.read_bytes() == again.read_bytes()


def test_adjoint_override_consistency(tmp_path, fixture_maps):
    phi = fixture_maps["U_2_3"]
    path = tmp_path / "map.json"
    save_adjoint(phi, path)
    load_adjoint(path, source_matroid=phi.source)  # agreeing override is fine
    with pytest.raises(InputError, match="disagrees"):
        load_adjoint(path, source_matroid=uniform(2, 4))


@pytest.mark.parametrize("key, edit, message", [
    ("source", {"name": [1, 2]}, "^'name' must be a string, got list$"),
    ("target", {"name": 7}, "^'name' must be a string, got int$"),
    ("target", {"field": {"prime": 2}, "matrix": [[1, 1, 1]]}, "gives both 'bases' and 'matrix'"),
])
def test_an_embedded_matroid_is_refused_with_or_without_an_override(fixture_maps, key, edit, message):
    phi = fixture_maps["U_2_3"]
    data = adjoint_to_dict(phi)
    data[key].update(edit)
    overrides = {"source": {"source_matroid": phi.source}, "target": {"target_matroid": phi.target}}[key]
    for kwargs in ({}, overrides):
        with pytest.raises(InputError, match=message):
            load_adjoint(data, **kwargs)


def test_stored_hyperplane_order_cross_checked(tmp_path, fixture_maps):
    phi = fixture_maps["U_2_3"]
    data = adjoint_to_dict(phi)
    data["hyperplane_order"] = list(reversed(data["hyperplane_order"]))
    with pytest.raises(InputError, match="hyperplane_order disagrees"):
        load_adjoint(data)


def test_stored_hyperplane_order_must_list_the_hyperplanes(fixture_maps):
    # two hyperplanes share a point, so the table gives no order to cross-check
    data = adjoint_to_dict(fixture_maps["U_2_3"])
    for entry in data["map"]:
        if entry["flat"] == [0]:
            entry["image"] = [1]
    data["hyperplane_order"] = [[2], [0, 1], [1]]
    with pytest.raises(InputError, match="not a permutation of the source hyperplanes"):
        load_adjoint(data)


def test_loaded_order_is_derived_from_the_table(fixture_maps):
    # two hyperplanes share a point, so the table has no hyperplane order: the
    # stored one is not kept, and the loaded map is the map of its table
    phi = fixture_maps["U_2_3"]
    data = adjoint_to_dict(phi)
    table = dict(phi.table)
    for entry in data["map"]:
        if entry["flat"] == [0]:
            entry["image"] = [1]
            table[es([0], 3)] = es([1], 3)
    loaded = load_adjoint(data)
    fresh = AdjointMap(phi.source, phi.target, table)
    assert loaded == fresh
    assert loaded.hyperplane_order is None
    with pytest.raises(InputError, match="not point-bijective"):
        adjoint_to_dict(loaded)


def test_duplicate_map_entry_rejected(fixture_maps):
    data = adjoint_to_dict(fixture_maps["U_2_3"])
    data["map"].append(dict(data["map"][0]))
    with pytest.raises(InputError, match="duplicate"):
        load_adjoint(data)


def _set_entry(key, flat, value):
    def edit(data):
        for entry in data["map"]:
            if entry["flat"] == flat:
                entry[key] = value
    return edit


def _set_order(index, value):
    def edit(data):
        data["hyperplane_order"][index] = value
    return edit


@pytest.mark.parametrize(
    "edit,message",
    [
        (_set_entry("flat", [0], [0, 0, 0]), r"map flat \[0, 0, 0\] repeats an element"),
        (_set_entry("flat", [1], [True]), "map flat .* has non-integer element True"),
        (_set_entry("flat", [1], "1"), "map flat must be a list of integers"),
        (_set_entry("image", [1], [True]), "map image .* has non-integer element True"),
        (_set_entry("image", [1], [1, 1]), r"map image \[1, 1\] repeats an element"),
        (_set_entry("image", [2], [2.0]), "map image .* has non-integer element 2.0"),
        (_set_order(0, [0, 0]), r"hyperplane_order entry \[0, 0\] repeats an element"),
        (_set_order(0, [False]), "hyperplane_order entry .* has non-integer element False"),
    ],
    ids=["flat-repeat", "flat-bool", "flat-not-list", "image-bool", "image-repeat",
         "image-float", "order-repeat", "order-bool"],
)
def test_map_entries_are_not_normalised(fixture_maps, edit, message):
    data = adjoint_to_dict(fixture_maps["U_2_3"])
    edit(data)
    with pytest.raises(InputError, match=message):
        load_adjoint(data)


def test_override_compared_without_rebuilding(fixture_maps, exchange_checks):
    phi = fixture_maps["U_3_4"]
    data = adjoint_to_dict(phi)
    loaded = load_adjoint(data, source_matroid=phi.source, target_matroid=phi.target)
    assert exchange_checks == []
    assert loaded.source is phi.source and loaded.target is phi.target
    load_adjoint(data)  # without overrides the embedded bases are checked
    assert len(exchange_checks) == 2


@pytest.mark.parametrize(
    "embedded,agrees",
    [
        ({"n": 3, "bases": [[0, 1], [0, 2]]}, False),  # a basis short
        ({"n": 4, "bases": [[0, 1], [0, 2], [1, 2]]}, False),  # another ground set
        ({"n": 3, "field": {"prime": 2}, "matrix": [[1, 0, 1], [0, 1, 1]]}, True),
        ({"n": 3, "field": {"prime": 2}, "matrix": [[1, 0, 1], [0, 1, 0]]}, False),  # 0 and 2 parallel
        ("U_2_3", True),
        ("U_2_4", False),
    ],
)
def test_override_compared_with_every_kind_of_embedding(fixture_maps, embedded, agrees):
    phi = fixture_maps["U_2_3"]
    data = adjoint_to_dict(phi)
    data["source"] = embedded
    if agrees:
        assert load_adjoint(data, source_matroid=phi.source).table == phi.table
    else:
        with pytest.raises(InputError, match="embedded 'source' matroid disagrees"):
            load_adjoint(data, source_matroid=phi.source)


@pytest.mark.parametrize(
    "embedded,message",
    [
        ({"n": 3, "bases": [[0, 1], [0, 1, 1]]}, "repeats an element"),
        ({"n": True, "bases": [[0, 1], [0, 2], [1, 2]]}, "integer 'n'"),
    ],
)
def test_malformed_embedding_refused_with_an_override(fixture_maps, embedded, message):
    phi = fixture_maps["U_2_3"]
    data = adjoint_to_dict(phi)
    data["source"] = embedded
    with pytest.raises(InputError, match=message):
        load_adjoint(data, source_matroid=phi.source)


@pytest.mark.parametrize("label", [True, 1.0])
def test_a_label_equal_to_an_int_is_refused_in_an_embedded_basis(fixture_maps, label):
    # [0, True] == [0, 1] in Python, so a bare comparison of the lists would
    # take this basis for the override's; the label check refuses it
    phi = fixture_maps["U_2_3"]
    data = adjoint_to_dict(phi)
    data["source"]["bases"][0][1] = label
    with pytest.raises(InputError, match=rf"^basis \[0, {label}\] has non-integer element {label}$"):
        load_adjoint(data, source_matroid=phi.source)


def test_a_basis_that_is_not_a_list_is_refused_with_an_override(fixture_maps):
    phi = fixture_maps["U_2_3"]
    data = adjoint_to_dict(phi)
    data["source"]["bases"][0] = tuple(data["source"]["bases"][0])
    with pytest.raises(InputError, match="^'bases' must be a list of lists$"):
        load_adjoint(data, source_matroid=phi.source)


def test_reordered_embedded_bases_agree_with_an_override(fixture_maps):
    phi = fixture_maps["U_2_4"]
    data = adjoint_to_dict(phi)
    data["source"]["bases"] = [basis[::-1] for basis in reversed(data["source"]["bases"])]
    assert load_adjoint(data, source_matroid=phi.source).table == phi.table


def test_map_without_embedded_matroids(fixture_maps):
    phi = fixture_maps["U_2_3"]
    data = adjoint_to_dict(phi)
    del data["source"], data["target"]
    with pytest.raises(InputError, match="none was supplied"):
        load_adjoint(data)
    loaded = load_adjoint(data, source_matroid=phi.source, target_matroid=phi.target)
    assert loaded.table == phi.table


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [2, 3]})
    assert a == '{"a":[2,3],"b":1}\n'
    assert canonical_json(matroid_to_dict(uniform(1, 1))) == '{"bases":[[0]],"n":1}\n'


def test_catalog_fixtures_match_the_committed_files(tmp_path):
    written = write_catalog_fixtures(tmp_path)
    assert sorted(p.name for p in written) == sorted(p.name for p in FIXTURES.glob("*.json"))
    for path in written:
        assert path.read_bytes() == (FIXTURES / path.name).read_bytes(), path.name


def test_catalog_covector_maps_are_pinned(fixture_maps):
    # the SHA-256 of the canonical JSON of every catalog covector map, keyed by name
    assert len(fixture_maps) == 11
    blob = canonical_json({name: adjoint_to_dict(phi) for name, phi in fixture_maps.items()})
    digest = hashlib.sha256(blob.encode()).hexdigest()
    assert digest == "736509e6141952d644df1a5725cb4fdef57014c33d2e3f3d66027bbe32392451"


def test_a_large_prime_field_loads_at_once():
    # decided by Miller-Rabin, not by trial division up to 2**30.5
    data = {"n": 2, "field": {"prime": 2**61 - 1}, "matrix": [[1, -1]]}
    M, rep, _ = load_matroid(data)
    assert rep.columns == ((1,), (2**61 - 2,)) and M.full_rank == 1
    data["field"] = {"prime": 2**89 - 1}
    with pytest.raises(InputError, match="primality is decided only below 3317044064679887385961981"):
        load_matroid(data)
