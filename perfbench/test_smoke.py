"""Smoke test of the benchmark at its tiny scale.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs once untraced and once traced on a few small inputs: no
op may fail, and the size counts and result digests must be identical.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int) -> tuple:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = done.stdout.splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_runs_pass_and_repeat(workload):
    plain_info, plain = bench(workload, 0)
    traced_info, traced = bench(workload, 1)
    for info, result in ((plain_info, plain), (traced_info, traced)):
        assert result["correct"], info["failures"] + info["problems"]
        assert result["failed"] == 0 and info["fail_frac"] == 0
        assert result["attempted"] >= 1
    assert plain_info["sizes"] == traced_info["sizes"]
    assert plain_info["digest"] == traced_info["digest"]
    assert list(plain["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert all(v["value"] > 0 for v in plain["metrics"].values())


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == inputs.WHY
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, run.per_layer_unit(name)) for name in run.per_layer_names()
    ]


def test_fails_without_sources(tmp_path):
    """Outside a matadj checkout the benchmark refuses to run and prints no result."""
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
