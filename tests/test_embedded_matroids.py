"""An embedded bases list that is the one ``matroid_to_dict`` writes is
accepted after one comparison; any other list is checked label by label.

Every tampered copy of a saved map is loaded with overrides and compared
with ``label_by_label``, the check that every list went through before the
one-comparison acceptance: accepted or refused the same way, with the same
message.  The canonical encoder, which skips the cycle check, is compared
with a plain ``json.dumps`` with the cycle check on.
"""
import json
from itertools import chain

import pytest

import matadj.files
from matadj import InputError, catalog, load_adjoint
from matadj.cli import main
from matadj.files import adjoint_to_dict, canonical_json, checked_basis_masks
from test_target_closures import minor_maps

NAMES = [e.name for e in catalog()]
KEYS = {"source": "source_matroid", "target": "target_matroid"}


def label_by_label(spec, M) -> bool:
    """Whether the embedded bases list ``spec`` describes M, checked label by label."""
    return spec["n"] == M.n and set(checked_basis_masks(spec["bases"], spec["n"])) == set(M._basis_masks)


def outcome(thunk):
    try:
        return thunk()
    except InputError as exc:
        return str(exc)


def reversed_order(bases):
    return bases[::-1]


def reversed_labels(bases):
    return [b[::-1] for b in bases]


def with_label(value):
    def edit(bases):
        """bases with the first label 1 replaced by value, which == 1, so that
        the lists still compare equal; None when no basis holds 1."""
        i = next((i for i, b in enumerate(bases) if 1 in b), None)
        return None if i is None else [*bases[:i], [value if e == 1 else e for e in bases[i]], *bases[i + 1:]]
    return edit


def first_twice(bases):
    return [bases[0], *bases]


def first_dropped(bases):
    return bases[1:]


# (edit, whether the result is accepted, a part of the refusal message)
TAMPERINGS = {
    "reversed order": (reversed_order, True, None),
    "reversed labels": (reversed_labels, True, None),
    "true label": (with_label(True), False, "has non-integer element True"),
    "float label": (with_label(1.0), False, "has non-integer element 1.0"),
    "basis twice": (first_twice, False, "is listed more than once"),
    "basis dropped": (first_dropped, False, "disagrees with the supplied one"),
}


def maps_of(phi):
    """phi and its minors with |C| + |D| <= 1."""
    return [phi, *minor_maps(phi, most=1)]


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("tampering", TAMPERINGS)
def test_a_tampered_embedded_matroid_is_judged_as_label_by_label(fixture_maps, name, tampering):
    edit, accepted, message = TAMPERINGS[tampering]
    for phi in maps_of(fixture_maps[name]):
        for key, override in KEYS.items():
            M = getattr(phi, key)
            data = adjoint_to_dict(phi)
            data[key]["bases"] = edit(data[key]["bases"])
            if data[key]["bases"] is None:
                continue
            got = outcome(lambda: load_adjoint(data, **{override: M}).table == phi.table)
            expected = outcome(lambda: label_by_label(data[key], M))
            if expected is False:
                expected = f"embedded '{key}' matroid disagrees with the supplied one"
            assert got == expected, (name, key)
            if accepted:
                assert got is True
            else:
                assert message in got


@pytest.mark.parametrize("name", NAMES)
def test_a_saved_matroid_is_accepted_after_one_comparison(fixture_maps, monkeypatch, name):
    checked = []

    def counted(bases, n):
        checked.append(bases)
        return checked_basis_masks(bases, n)

    monkeypatch.setattr(matadj.files, "checked_basis_masks", counted)
    for phi in maps_of(fixture_maps[name]):
        data = adjoint_to_dict(phi)
        assert load_adjoint(data, source_matroid=phi.source, target_matroid=phi.target).table == phi.table
        assert checked == []
        saved = data["target"]["bases"]
        data["target"]["bases"] = [b[::-1] for b in reversed(saved)]
        load_adjoint(data, source_matroid=phi.source, target_matroid=phi.target)
        # only a target whose one basis has at most one element reads the same backwards
        assert checked == ([] if data["target"]["bases"] == saved else [data["target"]["bases"]])
        checked.clear()


def test_another_ground_set_is_refused_before_any_label_is_read(fixture_maps):
    phi = fixture_maps["fano"]
    data = adjoint_to_dict(phi)
    data["target"]["n"] += 1
    data["target"]["bases"][0][0] = True  # never read: the sizes already differ
    with pytest.raises(InputError, match="^embedded 'target' matroid disagrees with the supplied one$"):
        load_adjoint(data, target_matroid=phi.target)


def plain_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("name", NAMES)
def test_canonical_json_matches_the_encoder_with_its_cycle_check(fixture_maps, name):
    for psi in chain([fixture_maps[name]], minor_maps(fixture_maps[name])):
        data = adjoint_to_dict(psi)
        assert canonical_json(data) == plain_json(data)


def test_canonical_json_of_a_verify_report_matches_the_encoder_with_its_cycle_check(fixture_maps, tmp_path, capsys):
    phi = fixture_maps["nonfano"]
    data = adjoint_to_dict(phi)
    for key in ("source", "target"):
        (tmp_path / f"{key}.json").write_text(json.dumps(data[key]), encoding="utf-8")
    good = tmp_path / "map.json"
    good.write_text(json.dumps(data), encoding="utf-8")
    # two point images swapped: a report with violations and witnesses
    del data["hyperplane_order"]
    points = [e for e in data["map"] if len(e["image"]) == 1]
    points[0]["image"], points[1]["image"] = points[1]["image"], points[0]["image"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    for path, status in ((good, 0), (bad, 1)):
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "source.json"), str(tmp_path / "target.json"), str(path),
                     "--json"]) == status
        out = capsys.readouterr().out
        assert out == canonical_json(json.loads(out)) == plain_json(json.loads(out))
        assert json.loads(out)["valid"] is (status == 0)

