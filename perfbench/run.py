"""matadj benchmark: one workload, one seed, one JSON result line.

Run from the root of a matadj checkout:

    python3 perfbench/run.py --workload covector --seed 1 --seconds 40 --trace 0

The last line of standard output is the result, ``{"correct", "attempted",
"failed", "metrics"}``; the line before it, ``{"info": ...}``, records the run's
settings, size counts and samples.  ``--trace 0`` reports the end-to-end
metrics: each pass over the workload's fixed op list gets a fresh set-up
(import, catalog, parent maps), and the run repeats passes for ``--seconds``
and reports medians.  Those times are scaled to a reference host speed by a
fixed stdlib probe run beside them (see ``speed_probe``); the unscaled
numbers are in the info line.  ``--trace 1`` reports the per-layer metrics: untraced
and traced passes alternate, then one pass runs under cProfile and each CLI
verb runs once as a subprocess on ``fixtures/``, all within ``--seconds``.

Every op is checked: it fails if it raises, if its result fails
``full_verification``, or (covector and minor_sweep at the default seed) if
its canonical JSON differs from ``perfbench/reference.json``.  The program
has one thread and no queues, so nothing waits and no wait time is reported.
"""
from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import math
import os
import pstats
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import inputs
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
OUT_DIR = ROOT / "bench_out"
REFERENCE = HERE / "reference.json"

WORKLOAD_NAMES = ("covector", "minor_sweep", "search")
DEFAULT_SEED = 0
MAX_N = "32"  # covector targets have up to 21 points, above matadj's default cap of 16
MIN_PASSES = 3
PROFILE_SLOWDOWN = 3.5  # a pass under cProfile takes about this many plain passes
CLI_RESERVE_S = 5.0  # the ten CLI subprocesses
SETUPS_PER_PASS = 2  # set-up is short and noisy, so it gets more samples than the passes
PROBE_EVERY_S = 0.2  # a speed probe after the first op that ends this long after the last probe
PROBE_BURST = 5  # probes before each pass's set-ups, so that short passes have samples too
PROBE_REF_S = 0.005  # the probe's median on a quiet 2-vCPU Xeon VM: the reference speed
TAIL_MIN_BEYOND = 10
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
WAITS = "none: one thread, no queues or locks, so no wait time is reported"

LAYER_CALLS = (
    "linalg.rank", "linalg.covector",
    "matroid.init", "matroid.normal_form",
    "lattice.build", "lattice.chain",
    "adjoint.induced_map", "adjoint.verify", "adjoint.rank_complement", "adjoint.chain",
    "adjoint.modular_pairs", "adjoint.contract", "adjoint.delete",
    "search.run",
    "files.dump", "files.load",
)
LAYER_COUNTS = ("matroid.init.bases", "lattice.flats", "lattice.covers", "files.dump.bytes")
SIZE_KEYS = ("inputs", "bases", "target_bases", "flats", "hyperplanes", "specs")
PROF_MODULES = ("adjoint", "catalog", "cli", "files", "lattice", "linalg", "matroid",
                "search", "sets", "dataclass")
CLI_VERBS = ("info", "flats", "hyperplanes", "from-rep", "verify", "contract-adjoint",
             "delete-adjoint", "minor-adjoint", "search", "export-dot")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB"}


def per_layer_names() -> list:
    names = []
    for call in LAYER_CALLS:
        names += [f"{call}.calls", f"{call}.s"]
    names += list(LAYER_COUNTS)
    names += ["search.candidates", "search.candidates_per_answer"]
    names += [f"size.{k}" for k in SIZE_KEYS]
    names += ["trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s",
              "trace.overhead_frac", "trace.unspanned_s"]
    for mod in PROF_MODULES:
        names += [f"prof.{mod}.self_s", f"prof.{mod}.calls"]
    names += ["prof.total.self_s", "prof.sets.share", "prof.sets_and_dataclass.share"]
    names += [f"cli.{verb}.s" for verb in CLI_VERBS]
    return names


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("share") or name.endswith("frac"):
        return "ratio"
    if name == "files.dump.bytes":
        return "bytes"
    return "count"


# -- statistics ---------------------------------------------------------------

def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[k - 1]


def tail_percentile(n: int) -> tuple:
    """The highest ladder percentile with at least ten ops beyond it, and that count."""
    for pct in TAIL_LADDER:
        beyond = n - math.ceil(pct / 100 * n)
        if beyond >= TAIL_MIN_BEYOND:
            return pct, beyond
    return 100.0, 0  # fewer than 20 ops (smoke scale): the slowest op


# -- host speed -----------------------------------------------------------------

@dataclass(frozen=True)
class _Cell:
    """A frozen, validated set value, like the ones matadj's inner loops build."""

    members: frozenset
    n: int

    def __post_init__(self):
        for e in self.members:
            if not 0 <= e < self.n:
                raise ValueError(e)


def speed_probe() -> float:
    """Seconds that one fixed pure-Python task takes now.

    On a host shared with other virtual machines, speed drifts by tens of
    percent over minutes, and every piece of code, this probe too, slows and
    speeds up together.  The task uses no matadj code, so a change to
    matadj cannot move it; dividing a time measured beside it by its time
    (and multiplying by PROBE_REF_S) cancels the drift but keeps every change
    of the program.  It builds and hashes small frozen dataclasses of
    frozensets in a dict, which is what matadj spends its time on.
    """
    t0 = time.perf_counter()
    cells = [_Cell(frozenset(c), 9) for c in combinations(range(9), 4)]
    seen: dict = {}
    for a in cells:
        for b in cells[:16]:
            u = _Cell(a.members | b.members, 9)
            seen[u] = seen.get(u, 0) + len(a.members & b.members)
    sorted(seen.values())
    return time.perf_counter() - t0


# -- passes -------------------------------------------------------------------

class Pass:
    """One pass over the op list: per-op times, digests, size totals, failures."""

    def __init__(self):
        self.times: list = []
        self.digests: list = []
        self.sizes: Counter = Counter()
        self.failures: list = []


def run_pass(workload, ops, op_fn, ctx, op_sizes, tracer=None, probes=None) -> Pass:
    """One pass; with a ``probes`` list, speed probes run between ops (outside
    the op times) and their times are appended to it."""
    out = Pass()
    gc.collect()
    last_probe = time.perf_counter()
    for i, spec in enumerate(ops):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result, text = op_fn(spec, ctx)
            else:
                tracer.op = i
                result, text = tracer.call("op", op_fn, spec, ctx, tracer)
        except Exception as exc:  # a failed op is counted and the run goes on
            text = None
            out.failures.append((i, f"{type(exc).__name__}: {exc}"))
        out.times.append(time.perf_counter() - t0)
        if text is None:
            out.digests.append(None)
        else:
            out.digests.append(hashlib.sha256(text.encode()).hexdigest()[:16])
            out.sizes.update(op_sizes(workload, result))
        if probes is not None and time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(speed_probe())
            last_probe = time.perf_counter()
    return out


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import matadj; print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Time to import matadj in a fresh interpreter (the interpreter start is not counted)."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout.strip())


class Bench:
    def __init__(self, workload: str, seed: int, tiny: bool):
        import pipelines  # imports matadj, so only after main() has put src/ on the path

        self.workload, self.seed, self.tiny = workload, seed, tiny
        self.pipelines = pipelines
        self.inputs = inputs.generate(workload, seed, tiny)
        self.setup_fn, self.make_ops, self.op_fn, self.traced_fn = pipelines.WORKLOADS[workload]
        self.ops = None
        self.setup_samples: list = []
        self.passes: list = []
        self.problems: list = []

    def fresh(self, with_import: bool):
        """One set-up: import (in a fresh interpreter), catalog, parent maps."""
        elapsed = import_seconds() if with_import else 0.0
        t0 = time.perf_counter()
        ctx = self.setup_fn(self.inputs)
        elapsed += time.perf_counter() - t0
        self.setup_samples.append(elapsed)
        if self.ops is None:
            self.ops = self.make_ops(self.inputs, ctx)
        return ctx

    def one_pass(self, ctx, tracer=None, probes=None) -> Pass:
        fn = self.op_fn if tracer is None else self.traced_fn
        p = run_pass(self.workload, self.ops, fn, ctx, self.pipelines.op_sizes, tracer, probes)
        self.check_reference(p)
        self.passes.append(p)
        return p

    def check_reference(self, p: Pass) -> None:
        """At the default seed, covector and minor_sweep results must match the stored digests."""
        if self.tiny or self.seed != DEFAULT_SEED or self.workload == "search":
            return
        ref = json.loads(REFERENCE.read_text(encoding="utf-8"))[self.workload]
        if len(ref) != len(p.digests):
            problem = f"reference has {len(ref)} ops, the pass has {len(p.digests)}"
            if problem not in self.problems:
                self.problems.append(problem)
            return
        for i, (want, got) in enumerate(zip(ref, p.digests)):
            if got is not None and got != want:
                p.failures.append((i, f"canonical JSON digest {got} differs from reference {want}"))

    def consistency(self) -> None:
        """Digests and size counts must repeat exactly on every pass, traced or not."""
        first = self.passes[0]
        for p in self.passes[1:]:
            if p.digests != first.digests:
                self.problems.append("canonical JSON digests differ between passes")
                break
        for p in self.passes[1:]:
            if p.sizes != first.sizes:
                self.problems.append("size counts differ between passes")
                break

    def size_counts(self) -> dict:
        sizes = {k: self.passes[0].sizes.get(k, 0) for k in SIZE_KEYS}
        sizes["inputs"] = len(self.inputs)
        sizes["candidates"] = self.passes[0].sizes.get("candidates", 0)
        return sizes

    def attempted_failed(self) -> tuple:
        attempted = sum(len(p.times) for p in self.passes)
        failed = sum(len({i for i, _ in p.failures}) for p in self.passes)
        return attempted, failed


# -- measurement modes ---------------------------------------------------------

def end_to_end_values(setups, walls, times) -> dict:
    """The timed end-to-end metrics from set-up samples, pass walls and per-pass op times."""
    per_op = [statistics.median(ts) * 1e3 for ts in zip(*times)]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_p50_ms": percentile(per_op, 50),
        "op_tail_ms": percentile(per_op, tail_percentile(len(per_op))[0]),
    }


def measure_end_to_end(bench: Bench, seconds: float) -> dict:
    """Passes with a fresh set-up each, for ``seconds``.  A pass's wall time is
    the sum of its op times; each op's time is its median over the passes, and
    op_p50_ms and op_tail_ms are percentiles of those.  Every time is first
    scaled by PROBE_REF_S over the median of the speed probes run during its
    pass and just before its set-ups."""
    deadline = time.perf_counter() + seconds
    raw_walls, raw_times, setups, walls, times, probe_ms = [], [], [], [], [], []
    while True:
        t_iter = time.perf_counter()
        probes = [speed_probe() for _ in range(PROBE_BURST)]
        first_setup = len(bench.setup_samples)
        for _ in range(SETUPS_PER_PASS):
            ctx = bench.fresh(with_import=True)
        p = bench.one_pass(ctx, probes=probes)
        del ctx
        probe = statistics.median(probes)
        scale = PROBE_REF_S / probe
        probe_ms.append(probe * 1e3)
        setups += [t * scale for t in bench.setup_samples[first_setup:]]
        raw_walls.append(sum(p.times))
        raw_times.append(p.times)
        walls.append(raw_walls[-1] * scale)
        times.append([t * scale for t in p.times])
        now = time.perf_counter()
        if len(walls) >= MIN_PASSES and now + (now - t_iter) > deadline:
            break
    values = end_to_end_values(setups, walls, times)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    per_input: dict = defaultdict(float)
    for i, (spec, ts) in enumerate(zip(bench.ops, zip(*times))):
        per_input[spec[0] if bench.workload == "minor_sweep" else i] += statistics.median(ts) * 1e3
    return {"values": values,
            "unscaled": end_to_end_values(bench.setup_samples, raw_walls, raw_times),
            "samples": {"setup_s": setups, "wall_s": walls, "probe_ms": probe_ms,
                        "unscaled_setup_s": bench.setup_samples, "unscaled_wall_s": raw_walls},
            "input_ms": [per_input[k] for k in sorted(per_input)]}


def profile_pass(bench: Bench) -> dict:
    """One untraced pass under cProfile; self time and calls per matadj module."""
    ctx = bench.fresh(with_import=False)
    prof = cProfile.Profile()
    prof.enable()
    try:
        bench.one_pass(ctx)
    finally:
        prof.disable()
    pkg = str(SRC / "matadj") + os.sep
    self_s: dict = defaultdict(float)
    calls: Counter = Counter()
    total = 0.0
    for (filename, _, _), (_, ncalls, tottime, _, _) in pstats.Stats(prof).stats.items():
        total += tottime
        if filename.startswith(pkg):
            mod = Path(filename).stem
        elif filename == "<string>":  # methods that @dataclass generates
            mod = "dataclass"
        else:
            continue
        self_s[mod] += tottime
        calls[mod] += ncalls
    out = {}
    for mod in PROF_MODULES:
        out[f"prof.{mod}.self_s"] = self_s[mod]
        out[f"prof.{mod}.calls"] = calls[mod]
    out["prof.total.self_s"] = total
    out["prof.sets.share"] = self_s["sets"] / total if total else 0.0
    out["prof.sets_and_dataclass.share"] = (self_s["sets"] + self_s["dataclass"]) / total if total else 0.0
    return out


def cli_timings(bench: Bench) -> dict:
    """Each CLI verb once, as a subprocess on fixtures/; outputs checked against the library."""
    from matadj import ElementSet, MinorSpec, adjoint_from_representation, by_name, minor_adjoint

    out = {}
    env = dict(os.environ, PYTHONPATH=str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        tmp = Path(tmp)
        fano, u34 = str(FIXTURES / "fano.json"), str(FIXTURES / "U_3_4.json")
        mapf, target = str(tmp / "fano_map.json"), str(tmp / "fano_target.json")
        runs = {
            "info": ["info", fano],
            "flats": ["flats", fano, "--json"],
            "hyperplanes": ["hyperplanes", fano, "--json"],
            "from-rep": ["from-rep", fano, "-o", mapf],
            "verify": ["verify", fano, target, mapf, "--json"],
            "contract-adjoint": ["contract-adjoint", fano, mapf, "--contract", "0",
                                 "-o", str(tmp / "c.json")],
            "delete-adjoint": ["delete-adjoint", fano, mapf, "--delete", "0",
                               "-o", str(tmp / "d.json")],
            "minor-adjoint": ["minor-adjoint", fano, mapf, "--contract", "0", "--delete", "3",
                              "-o", str(tmp / "m.json")],
            "search": ["search", u34, "-o", str(tmp / "s.json"), "--log", str(tmp / "s_log.json")],
            "export-dot": ["export-dot", fano, "-o", str(tmp / "fano.dot")],
        }
        for verb in CLI_VERBS:
            t0 = time.perf_counter()
            done = subprocess.run([sys.executable, "-m", "matadj.cli", *runs[verb]], cwd=ROOT,
                                  env=env, capture_output=True, text=True, timeout=120)
            out[f"cli.{verb}.s"] = time.perf_counter() - t0
            if done.returncode != 0:
                bench.problems.append(f"cli {verb} exited {done.returncode}: {done.stderr.strip()}")
            if verb == "from-rep" and done.returncode == 0:
                doc = json.loads(Path(mapf).read_text(encoding="utf-8"))
                Path(target).write_text(json.dumps(doc["target"]), encoding="utf-8")
        entry = by_name("fano")
        phi = adjoint_from_representation(entry.matroid, entry.representation)
        psi = minor_adjoint(phi, MinorSpec(ElementSet.of([0], 7), ElementSet.of([3], 7)))
        for path, want in ((mapf, phi), (tmp / "m.json", psi)):
            if not Path(path).is_file() or Path(path).read_text(encoding="utf-8") != bench.pipelines.dump(want):
                bench.problems.append(f"cli output {Path(path).name} differs from the library's")
    return out


def measure_layers(bench: Bench, seconds: float) -> dict:
    """Untraced and traced passes in pairs, then one profiled pass and the CLI
    runs, all within about ``seconds``.  The pass walls that give the tracing
    overhead are scaled by the speed probes like the end-to-end timings."""
    deadline = time.perf_counter() + seconds
    untraced, traced, tracers = [], [], []
    while True:
        t_iter = time.perf_counter()
        tr = Tracer()
        tracers.append(tr)
        order = (None, tr) if len(tracers) % 2 else (tr, None)  # alternate, so drift cancels
        for tracer in order:
            probes = [speed_probe() for _ in range(PROBE_BURST)]
            p = bench.one_pass(bench.fresh(with_import=False), tracer, probes)
            wall = sum(p.times) * PROBE_REF_S / statistics.median(probes)
            (untraced if tracer is None else traced).append(wall)
        now = time.perf_counter()
        reserve = PROFILE_SLOWDOWN * untraced[0] + CLI_RESERVE_S
        if now + (now - t_iter) + reserve > deadline:
            break
    metrics = {}
    summaries = [tr.summary() for tr in tracers]
    for call in LAYER_CALLS:
        metrics[f"{call}.calls"] = summaries[-1].get(call, (0, 0.0))[0]
        metrics[f"{call}.s"] = statistics.median(s.get(call, (0, 0.0))[1] for s in summaries)
    counts = tracers[-1].counts
    if any(tr.counts != counts for tr in tracers):
        bench.problems.append("per-layer counts differ between traced passes")
    for name in LAYER_COUNTS:
        metrics[name] = counts.get(name, 0)
    sizes = bench.size_counts()
    answers = sum(d is not None for d in bench.passes[0].digests) if bench.workload == "search" else 0
    metrics["search.candidates"] = sizes["candidates"]
    metrics["search.candidates_per_answer"] = sizes["candidates"] / answers if answers else 0.0
    for k in SIZE_KEYS:
        metrics[f"size.{k}"] = sizes[k]
    u, t = statistics.median(untraced), statistics.median(traced)
    metrics["trace.untraced_wall_s"] = u
    metrics["trace.traced_wall_s"] = t
    metrics["trace.overhead_s"] = t - u
    metrics["trace.overhead_frac"] = (t - u) / u
    metrics["trace.unspanned_s"] = statistics.median(s.get("op", (0, 0.0))[1] for s in summaries)
    OUT_DIR.mkdir(exist_ok=True)
    tracers[-1].write(OUT_DIR / f"spans-{bench.workload}-seed{bench.seed}.json")
    metrics.update(profile_pass(bench))
    metrics.update(cli_timings(bench))
    return {"values": metrics, "samples": {"untraced_wall_s": untraced, "traced_wall_s": traced}}


def write_reference() -> int:
    """Store the canonical-JSON digests of covector and minor_sweep at the default seed."""
    ref = {"seed": DEFAULT_SEED}
    for workload in ("covector", "minor_sweep"):
        bench = Bench(workload, DEFAULT_SEED, tiny=False)
        ctx = bench.fresh(with_import=False)
        p = run_pass(workload, bench.ops, bench.op_fn, ctx, bench.pipelines.op_sizes)
        if p.failures:
            print(f"{workload}: {len(p.failures)} op(s) failed, first: {p.failures[0]}", file=sys.stderr)
            return 1
        ref[workload] = p.digests
    REFERENCE.write_text(json.dumps(ref, indent=0) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test scale: a few small inputs")
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite perfbench/reference.json from the default seed")
    args = parser.parse_args(argv)
    if not (SRC / "matadj" / "__init__.py").is_file():
        print(f"error: no matadj sources at {SRC}; run from the root of a matadj checkout",
              file=sys.stderr)
        return 2
    os.environ["MATADJ_MAX_N"] = MAX_N
    sys.path.insert(0, str(SRC))
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")

    bench = Bench(args.workload, args.seed, args.tiny)
    if args.trace:
        measured = measure_layers(bench, args.seconds)
        metrics = {name: {"value": measured["values"][name], "unit": per_layer_unit(name)}
                   for name in per_layer_names()}
    else:
        measured = measure_end_to_end(bench, args.seconds)
        metrics = {name: {"value": measured["values"][name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    bench.consistency()
    attempted, failed = bench.attempted_failed()
    n_ops = len(bench.ops)
    pct, beyond = tail_percentile(n_ops)
    info = {
        "workload": args.workload, "seed": args.seed, "tiny": args.tiny, "trace": args.trace,
        "why": inputs.WHY[args.workload],
        "loop": "closed, one client, one process, one thread",
        "matadj_max_n": MAX_N, "python": sys.version.split()[0],
        "passes": len(bench.passes), "ops_per_pass": n_ops,
        "op_tail_percentile": pct, "op_tail_ops_beyond": beyond,
        "fail_frac": failed / attempted, "waits": WAITS,
        "sizes": bench.size_counts(),
        "digest": hashlib.sha256(" ".join(map(str, bench.passes[0].digests)).encode()).hexdigest()[:16],
        "samples": measured["samples"],
        "unscaled": measured.get("unscaled"),
        "input_ms": measured.get("input_ms"),
        "failures": [f for p in bench.passes for f in p.failures][:5],
        "problems": bench.problems,
    }
    for msg in info["failures"] + info["problems"]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0 and not bench.problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
