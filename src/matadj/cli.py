"""Command-line front end.

Exit status: 0 on success, 1 on a failed verification (a report is printed),
2 on input errors (bad files, violated preconditions, search refusals).
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .adjoint import (
    AdjointMap,
    contract_adjoint,
    delete_adjoint,
    full_verification,
    minor_adjoint,
)
from .errors import InputError, MatadjError, PreconditionError, StructureError
from .files import canonical_json, load_adjoint, load_matroid, save_adjoint
from .linalg import adjoint_from_representation
from .matroid import Matroid, MinorSpec
from .search import search_adjoint
from .sets import ElementSet, label_mask


def _parse_elements(raw: str, n: int) -> ElementSet:
    raw = raw.strip()
    if not raw:
        return ElementSet.empty(n)
    try:
        members = [int(x) for x in raw.split(",")]
    except ValueError as exc:
        raise InputError(f"element list {raw!r} is not comma-separated integers") from exc
    return ElementSet._trusted(label_mask(members, n, "element list"), n)


def _violation_dict(v) -> dict:
    def ser(x):
        if isinstance(x, ElementSet):
            return x.sorted()
        if isinstance(x, int):
            return x
        return str(x)

    return {
        "check": v.check,
        "witness": [ser(w) for w in v.witness],
        "expected": v.expected,
        "actual": v.actual,
    }


def _print_relabelings(phi: AdjointMap) -> None:
    for role, matroid in (("source", phi.source), ("target", phi.target)):
        stages = []
        prov = matroid.provenance
        while isinstance(prov, dict) and "relabel" in prov:
            stages.append((prov.get("op", "?"), prov["relabel"]))
            parent = prov.get("parent")
            prov = parent.provenance if isinstance(parent, Matroid) else None
        for op, relabel in reversed(stages):
            pairs = " ".join(f"{old}->{new}" for old, new in sorted(relabel.items()))
            print(f"{role} relabel ({op}): {pairs if pairs else '(empty)'}")


def cmd_info(args) -> int:
    M, _, name = load_matroid(args.matroid)
    if name:
        print(f"name={name}")
    hp = len(M.hyperplanes()) if M.full_rank >= 1 else 0
    counts = ",".join(str(len(layer)) for layer in M.flats().flats_by_rank)
    print(f"n={M.n} rank={M.full_rank} bases={len(M._basis_masks)} flats=[{counts}] hyperplanes={hp}")
    return 0


def cmd_flats(args) -> int:
    M, _, _ = load_matroid(args.matroid)
    if args.json:
        out = [[f.sorted() for f in layer] for layer in M.flats().flats_by_rank]
        print(canonical_json({"flats_by_rank": out}), end="")
        return 0
    for k, layer in enumerate(M.flats().flats_by_rank):
        sets = " ".join("{" + ",".join(map(str, f.sorted())) + "}" for f in layer)
        print(f"rank {k}: {sets}")
    return 0


def cmd_hyperplanes(args) -> int:
    M, _, _ = load_matroid(args.matroid)
    hps = M.hyperplanes()
    if args.json:
        print(canonical_json({"hyperplanes": [h.sorted() for h in hps]}), end="")
        return 0
    for h in hps:
        print("{" + ",".join(map(str, h.sorted())) + "}")
    return 0


def cmd_verify(args) -> int:
    M, _, _ = load_matroid(args.matroid)
    Mp, _, _ = load_matroid(args.target)
    phi = load_adjoint(args.map, source_matroid=M, target_matroid=Mp)
    reports = full_verification(phi)
    valid = all(r.valid for r in reports.values())
    if args.json:
        out = {
            "valid": valid,
            "reports": {
                name: {
                    "checks_run": list(r.checks_run),
                    "violations": [_violation_dict(v) for v in r.violations],
                }
                for name, r in reports.items()
            },
        }
        print(canonical_json(out), end="")
    else:
        for name, r in reports.items():
            print(f"{name}: {r.summary()}")
        print("VALID" if valid else "INVALID")
    return 0 if valid else 1


def _load_map_for(args):
    M, _, _ = load_matroid(args.matroid)
    return M, load_adjoint(args.map, source_matroid=M)


def _save_minor_map(result: AdjointMap, output: str) -> int:
    save_adjoint(result, output)
    _print_relabelings(result)
    print(f"wrote {output}")
    return 0


def cmd_contract_adjoint(args) -> int:
    M, phi = _load_map_for(args)
    return _save_minor_map(contract_adjoint(phi, _parse_elements(args.contract, M.n)), args.output)


def cmd_delete_adjoint(args) -> int:
    M, phi = _load_map_for(args)
    return _save_minor_map(delete_adjoint(phi, _parse_elements(args.delete, M.n)), args.output)


def cmd_minor_adjoint(args) -> int:
    M, phi = _load_map_for(args)
    spec = MinorSpec(_parse_elements(args.contract, M.n), _parse_elements(args.delete, M.n))
    return _save_minor_map(minor_adjoint(phi, spec), args.output)


def cmd_search(args) -> int:
    M, _, _ = load_matroid(args.matroid)
    start = time.monotonic()
    result = search_adjoint(M)
    elapsed = time.monotonic() - start
    if args.log:  # written on a refusal too, where "found" is false
        log = {
            "found": result.found is not None,
            "exhausted": result.exhausted,
            "candidates_examined": result.candidates_examined,
            "time_seconds": elapsed,
        }
        Path(args.log).write_text(json.dumps(log, sort_keys=True) + "\n", encoding="utf-8")
    if result.diagnostic:
        print(f"error: {result.diagnostic}", file=sys.stderr)
        return 2
    # search answers with a map or a diagnostic, never a bare "none found"
    print(f"found after {result.candidates_examined} candidate(s)")
    if args.output:
        save_adjoint(result.found, args.output)
        print(f"wrote {args.output}")
    return 0


def cmd_from_rep(args) -> int:
    M, rep, _ = load_matroid(args.matroid)
    if rep is None:
        raise InputError("from-rep needs a matrix-backed matroid file")
    phi = adjoint_from_representation(M, rep)
    save_adjoint(phi, args.output)
    print(f"wrote {args.output}")
    return 0


def cmd_export_dot(args) -> int:
    M, _, _ = load_matroid(args.matroid)
    lattice = M.flats()
    ids = {}
    lines = ["graph flat_lattice {", "  rankdir=BT;"]
    for k, layer in enumerate(lattice.flats_by_rank):
        names = []
        for f in layer:
            node = f"f{len(ids)}"
            ids[f] = node
            label = "r" + str(k) + " {" + ",".join(map(str, f.sorted())) + "}"
            lines.append(f'  {node} [label="{label}"];')
            names.append(node)
        lines.append("  { rank=same; " + "; ".join(names) + "; }")
    for f in lattice.canonical_order():
        for g in sorted(lattice.covers[f], key=lambda x: x.key):
            lines.append(f"  {ids[f]} -- {ids[g]};")
    lines.append("}")
    Path(args.output).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matadj", description="Matroid adjoint maps: verify, construct minors, search."
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("info", help="summary of a matroid file")
    p.add_argument("matroid")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("flats", help="flats grouped by rank")
    p.add_argument("matroid")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_flats)

    p = sub.add_parser("hyperplanes", help="hyperplanes in canonical order")
    p.add_argument("matroid")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_hyperplanes)

    p = sub.add_parser("verify", help="run the full verification suite on a map")
    p.add_argument("matroid")
    p.add_argument("target")
    p.add_argument("map")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("contract-adjoint", help="adjoint of a contraction")
    p.add_argument("matroid")
    p.add_argument("map")
    p.add_argument("--contract", default="", metavar="E,E,...")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_contract_adjoint)

    p = sub.add_parser("delete-adjoint", help="adjoint of a coindependent deletion")
    p.add_argument("matroid")
    p.add_argument("map")
    p.add_argument("--delete", default="", metavar="E,E,...")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_delete_adjoint)

    p = sub.add_parser("minor-adjoint", help="adjoint of a general minor")
    p.add_argument("matroid")
    p.add_argument("map")
    p.add_argument("--contract", default="", metavar="E,E,...")
    p.add_argument("--delete", default="", metavar="E,E,...")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_minor_adjoint)

    p = sub.add_parser(
        "search", help="adjoint from the bases: the freest target; exit 2 if refused in rank >= 4"
    )
    p.add_argument("matroid")
    p.add_argument("-o", "--output")
    p.add_argument("--log")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("from-rep", help="covector adjoint of a matrix-backed matroid")
    p.add_argument("matroid")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_from_rep)

    p = sub.add_parser("export-dot", help="Hasse diagram of the flat lattice as DOT")
    p.add_argument("matroid")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except (InputError, StructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MatadjError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
