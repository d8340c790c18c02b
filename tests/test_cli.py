import hashlib
import json
from pathlib import Path

import pytest

from matadj import ElementSet, InputError, by_name, save_adjoint, save_matroid, uniform
from matadj.cli import _parse_elements, main
from test_search import affine_3_2

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture()
def u23_files(tmp_path, fixture_maps):
    """(matroid path, target path, map path) for the U_2_3 covector adjoint."""
    phi = fixture_maps["U_2_3"]
    m = tmp_path / "u23.json"
    t = tmp_path / "u23_target.json"
    p = tmp_path / "u23_map.json"
    save_matroid(phi.source, m)
    save_matroid(phi.target, t)
    save_adjoint(phi, p)
    return m, t, p


def test_info(capsys):
    assert main(["info", str(FIXTURES / "U_2_3.json")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["name=U_2_3", "n=3 rank=2 bases=3 flats=[1,3,1] hyperplanes=3"]


def test_info_missing_file(tmp_path, capsys):
    assert main(["info", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_flats_and_hyperplanes(capsys):
    assert main(["flats", str(FIXTURES / "U_2_3.json"), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["flats_by_rank"] == [[[]], [[0], [1], [2]], [[0, 1, 2]]]

    assert main(["hyperplanes", str(FIXTURES / "U_2_3.json")]) == 0
    assert capsys.readouterr().out.splitlines() == ["{0}", "{1}", "{2}"]


def test_flats_json_of_every_fixture_is_pinned(capsys):
    # the SHA-256 of each fixture's name and "flats --json" output, in name order
    paths = sorted(FIXTURES.glob("*.json"))
    assert len(paths) == 11
    blob = ""
    for path in paths:
        assert main(["flats", str(path), "--json"]) == 0
        blob += path.name + "\n" + capsys.readouterr().out
    assert hashlib.sha256(blob.encode()).hexdigest() == "76b58591e37e0ad154626479c37ffa29b17f84bd14920a7f1d1b65790185aa7f"


def test_verify_valid(u23_files, capsys):
    m, t, p = u23_files
    assert main(["verify", str(m), str(t), str(p)]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("VALID")

    assert main(["verify", str(m), str(t), str(p), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["valid"] is True
    assert set(data["reports"]) == {
        "definition",
        "rank_complement",
        "chain_independence",
        "modular_pairs",
    }


def test_verify_corrupted_map_exits_1(u23_files, tmp_path, capsys):
    m, t, p = u23_files
    data = json.loads(p.read_text())
    for entry in data["map"]:
        if entry["flat"] == [0]:
            entry["image"] = [0, 1, 2]  # still a flat, no longer injective
    bad = tmp_path / "bad_map.json"
    bad.write_text(json.dumps(data))
    assert main(["verify", str(m), str(t), str(bad)]) == 1
    captured = capsys.readouterr()
    assert "INVALID" in captured.out
    assert "injectivity" in captured.out


def test_verify_partial_map_exits_2(u23_files, tmp_path, capsys):
    m, t, p = u23_files
    data = json.loads(p.read_text())
    data["map"] = [entry for entry in data["map"] if entry["flat"] != [0]]
    bad = tmp_path / "partial_map.json"
    bad.write_text(json.dumps(data))
    assert main(["verify", str(m), str(t), str(bad)]) == 2
    assert "not total" in capsys.readouterr().err


def test_minor_adjoint_identity_round_trip(u23_files, tmp_path, capsys):
    m, t, p = u23_files
    out = tmp_path / "identity.json"
    assert main(["minor-adjoint", str(m), str(p), "-o", str(out)]) == 0
    assert out.read_bytes() == p.read_bytes()


def test_contract_and_delete_flows(u23_files, tmp_path, capsys):
    m, t, p = u23_files
    out = tmp_path / "contracted.json"
    assert main(["contract-adjoint", str(m), str(p), "--contract", "0", "-o", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "source relabel (contract):" in printed
    data = json.loads(out.read_text())
    assert data["source"]["n"] == 2

    out2 = tmp_path / "deleted.json"
    assert main(["delete-adjoint", str(m), str(p), "--delete", "2", "-o", str(out2)]) == 0
    data = json.loads(out2.read_text())
    assert data["source"]["n"] == 2 and data["target"]["n"] == 2


@pytest.mark.parametrize("delete, relabel, digest", [
    ("0", None, "7bf58e85a46ee0ae8a6af4810389367f3291b8fab1844f369bc973ff0b5f3273"),
    ("0,3", "target relabel (delete): 0->0 2->1 3->2 4->3 5->4 6->5",
     "3e641e70a6973b34e29515f87e9d4657977032618ee4d201d351090d7514749e"),
])
def test_delete_adjoint_prints_a_target_relabel_only_when_points_go(tmp_path, capsys, delete, relabel, digest):
    # deleting 0 from fano leaves every line of rank 2, so no target point
    # goes and the map keeps its parent's target; deleting 0 and 3 drops the
    # line {0,3,...} to rank 1, and its point goes.  The files are the same
    # either way.
    fano = str(FIXTURES / "fano.json")
    phi, out = tmp_path / "fano_map.json", tmp_path / "out.json"
    assert main(["from-rep", fano, "-o", str(phi)]) == 0
    capsys.readouterr()
    assert main(["delete-adjoint", fano, str(phi), "--delete", delete, "-o", str(out)]) == 0
    targets = [line for line in capsys.readouterr().out.splitlines() if line.startswith("target relabel")]
    assert targets == ([relabel] if relabel else [])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_delete_adjoint_precondition_exit_2(u23_files, tmp_path, capsys):
    m, t, p = u23_files
    out = tmp_path / "x.json"
    assert main(["delete-adjoint", str(m), str(p), "--delete", "0,1", "-o", str(out)]) == 2
    assert "precondition violated:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb, flags", [
    ("contract-adjoint", ["--contract", "0"]),
    ("delete-adjoint", ["--delete", "0"]),
    ("minor-adjoint", ["--contract", "0", "--delete", "3"]),
])
def test_minor_verbs_refuse_a_map_that_fails_verification(tmp_path, capsys, verb, flags):
    # the nonfano covector map with two point images swapped and no stored
    # hyperplane order: it loads, fails verify, and no minor verb builds on it
    source = str(FIXTURES / "nonfano.json")
    good, bad, target = (tmp_path / f"{name}.json" for name in ("good", "bad", "target"))
    assert main(["from-rep", source, "-o", str(good)]) == 0
    data = json.loads(good.read_text())
    target.write_text(json.dumps(data["target"]))
    del data["hyperplane_order"]
    points = [entry for entry in data["map"] if len(entry["image"]) == 1]
    points[0]["image"], points[1]["image"] = points[1]["image"], points[0]["image"]
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", source, str(target), str(bad)]) == 1
    capsys.readouterr()
    out = tmp_path / "minor.json"
    assert main([verb, source, str(bad), *flags, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition violated: the map is not an adjoint: [inclusion_reversal] witness")
    assert not out.exists()


def test_search_with_log(tmp_path, capsys):
    out = tmp_path / "found.json"
    log = tmp_path / "search.json"
    rc = main([
        "search", str(FIXTURES / "U_2_4.json"), "-o", str(out), "--log", str(log),
    ])
    assert rc == 0
    assert "found after" in capsys.readouterr().out
    logged = json.loads(log.read_text())
    assert logged["found"] is True
    assert logged["candidates_examined"] >= 1
    assert out.exists()


def test_search_budget_refusal_exit_2(tmp_path, capsys):
    # rank 4: U_4_5's freest target is an adjoint, AG(3,2)'s is not a matroid,
    # and that refusal is an error, not an answer
    u45 = tmp_path / "U_4_5.json"
    save_matroid(uniform(4, 5), u45)
    assert main(["search", str(u45)]) == 0
    assert "found after 1 candidate(s)" in capsys.readouterr().out
    ag32 = tmp_path / "AG_3_2.json"
    save_matroid(affine_3_2(), ag32)
    assert main(["search", str(ag32)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the freest rank-4 target on 14 hyperplane labels is not a matroid")
    # --log records the refusal too, with the same exit code and message
    log = tmp_path / "search.json"
    assert main(["search", str(ag32), "--log", str(log)]) == 2
    captured = capsys.readouterr()
    assert captured.err == err and captured.out == ""
    logged = json.loads(log.read_text())
    assert (logged["found"], logged["exhausted"], logged["candidates_examined"]) == (False, False, 1)


def test_search_fano_then_verify(tmp_path, capsys):
    found = tmp_path / "found.json"
    target = tmp_path / "target.json"
    assert main(["search", str(FIXTURES / "fano.json"), "-o", str(found)]) == 0
    assert "found after 1 candidate(s)" in capsys.readouterr().out
    target.write_text(json.dumps(json.loads(found.read_text())["target"]), encoding="utf-8")
    assert main(["verify", str(FIXTURES / "fano.json"), str(target), str(found)]) == 0
    assert capsys.readouterr().out.strip().endswith("VALID")


@pytest.mark.parametrize(
    "field,entry,message",
    [
        ({"prime": 2.0}, 1, "'prime' must be an integer, got 2.0"),
        ({"prime": 2}, 1.0, "bad matrix entry 1.0"),
        ("rational", "1e4000000", "bad matrix entry '1e4000000': exponent notation is not accepted"),
    ],
)
def test_info_bad_matrix_file_exit_2(tmp_path, capsys, field, entry, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "field": field, "matrix": [[entry, 0]]}), encoding="utf-8")
    assert main(["info", str(bad)]) == 2
    assert message in capsys.readouterr().err


def test_from_rep(tmp_path, capsys):
    out = tmp_path / "fano_map.json"
    assert main(["from-rep", str(FIXTURES / "fano.json"), "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["hyperplane_order"]) == 7

    bases_only = tmp_path / "bases.json"
    save_matroid(by_name("U_2_3").matroid, bases_only)
    assert main(["from-rep", str(bases_only), "-o", str(tmp_path / "y.json")]) == 2
    assert "matrix-backed" in capsys.readouterr().err


def test_from_rep_takes_redundant_rows(tmp_path, capsys):
    # the Fano plane with its first row repeated has the same column matroid,
    # and from-rep writes the same map as for the Fano file itself
    fano = json.loads((FIXTURES / "fano.json").read_text())
    repeated = tmp_path / "fano_repeated.json"
    repeated.write_text(json.dumps({**fano, "matrix": fano["matrix"] + fano["matrix"][:1]}), encoding="utf-8")
    assert main(["from-rep", str(FIXTURES / "fano.json"), "-o", str(tmp_path / "want.json")]) == 0
    assert main(["from-rep", str(repeated), "-o", str(tmp_path / "got.json")]) == 0
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()
    target = tmp_path / "target.json"
    target.write_text(json.dumps(json.loads((tmp_path / "got.json").read_text())["target"]), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", str(repeated), str(target), str(tmp_path / "got.json")]) == 0
    assert "VALID" in capsys.readouterr().out


def test_export_dot(tmp_path, capsys):
    out = tmp_path / "lattice.dot"
    assert main(["export-dot", str(FIXTURES / "U_2_4.json"), "-o", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("graph flat_lattice {")
    M = by_name("U_2_4").matroid
    assert text.count("[label=") == M.flats().flat_count()
    assert text.count(" -- ") == M.flats().cover_count()


@pytest.mark.parametrize(
    "verb,flag,value",
    [
        ("minor-adjoint", "--contract", "0,0"),
        ("minor-adjoint", "--delete", "3,3"),
        ("contract-adjoint", "--contract", "1,1"),
        ("delete-adjoint", "--delete", "2,2"),
    ],
)
def test_repeated_element_refused(tmp_path, capsys, verb, flag, value):
    # a repeat is refused, not merged into the set it would make
    fano = str(FIXTURES / "fano.json")
    phi, out = tmp_path / "fano_map.json", tmp_path / "out.json"
    assert main(["from-rep", fano, "-o", str(phi)]) == 0
    assert main([verb, fano, str(phi), flag, value, "-o", str(out)]) == 2
    assert f"element list [{value.replace(',', ', ')}] repeats an element" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("raw", ["1_0", "\u0663", "+1", "0, +1", "1,,2", "-", "--1", " 1 2 "])
def test_an_element_list_takes_only_ascii_integers(u23_files, tmp_path, capsys, raw):
    # int() reads "1_0" as 10, the Arabic-Indic digit three as 3 and "+1" as 1
    with pytest.raises(InputError, match="is not comma-separated integers"):
        _parse_elements(raw, 12)
    m, t, p = u23_files
    out = tmp_path / "z.json"
    assert main(["contract-adjoint", str(m), str(p), f"--contract={raw}", "-o", str(out)]) == 2
    assert f"element list {raw.strip()!r} is not comma-separated integers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("raw, members", [("0", [0]), (" 1 , 0 ", [0, 1]), ("11", [11]), ("", [])])
def test_an_element_list_of_ascii_integers_is_read(raw, members):
    assert _parse_elements(raw, 12) == ElementSet.of(members, 12)


def test_a_negative_element_is_out_of_range(u23_files, tmp_path, capsys):
    with pytest.raises(InputError, match=r"^element list \[-1\] has element -1 out of range"):
        _parse_elements("-1", 12)
    m, t, p = u23_files
    assert main(["contract-adjoint", str(m), str(p), "--contract=-1", "-o", str(tmp_path / "z.json")]) == 2
    assert "element -1 out of range" in capsys.readouterr().err


def test_bad_element_list(u23_files, tmp_path, capsys):
    m, t, p = u23_files
    rc = main(["contract-adjoint", str(m), str(p), "--contract", "a,b",
               "-o", str(tmp_path / "z.json")])
    assert rc == 2
    assert "comma-separated integers" in capsys.readouterr().err
