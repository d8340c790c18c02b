"""The three benchmark workloads, each as set-up plus one op pipeline.

Every workload has two versions of its op.  ``op`` calls matadj's public
pipelines as a user would (``adjoint_from_representation``,
``minor_adjoint``, ``search_adjoint``, ``full_verification``); the
end-to-end timings come from it.  ``traced`` calls the public steps those
pipelines are built from, one at a time, each inside a tracer span; the
per-layer numbers come from it.  Both return the op's result map and its
canonical JSON, and the two JSON texts must be identical.
"""
from __future__ import annotations

import json
from itertools import combinations

from matadj import (
    ConstructionError,
    ElementSet,
    Matroid,
    MinorSpec,
    Representation,
    adjoint_from_representation,
    by_name,
    catalog,
    check_chain_independence,
    check_modular_pairs,
    check_rank_complement,
    contract_adjoint,
    delete_adjoint,
    full_verification,
    hyperplane_chain,
    induced_map,
    load_adjoint,
    minor_adjoint,
    minor_normal_form,
    search_adjoint,
    verify_adjoint,
)
from matadj.files import adjoint_to_dict, canonical_json

MAX_MINOR = 3  # the sweep covers every spec with |C| + |D| <= 3


class OpFailed(Exception):
    """The op ran but its result is wrong (it failed verification or was not found)."""


def _representation(field, r, cols) -> Representation:
    return Representation(field, cols, r)


def dump(phi) -> str:
    return canonical_json(adjoint_to_dict(phi))


def _load(text, source, target):
    return load_adjoint(json.loads(text), source_matroid=source, target_matroid=target)


def _check(reports) -> None:
    bad = [name for name, rep in reports.items() if not rep.valid]
    if bad:
        raise OpFailed(f"full_verification failed: {', '.join(bad)}")


def sizes(phi) -> dict:
    """Exact size counts of one op's result map."""
    M = phi.source
    return {
        "bases": len(M.bases),
        "target_bases": len(phi.target.bases),
        "flats": M.flats().flat_count(),
        "hyperplanes": len(M.hyperplanes()) if M.full_rank else 0,
    }


# -- traced building blocks ---------------------------------------------------

def _traced_matroid(tr, rep: Representation, provenance=None) -> Matroid:
    """Representation.matroid, one rank query per span."""
    n = rep.n
    r = tr.call("linalg.rank", rep.rank_of, range(n))
    bases = [c for c in combinations(range(n), r) if tr.call("linalg.rank", rep.rank_of, c) == r]
    M = tr.call("matroid.init", Matroid, n, bases, provenance=provenance)
    tr.count("matroid.init.bases", len(M.bases))
    return M


def _traced_minor(tr, method, arg) -> Matroid:
    """A public minor construction (contract, delete, restrict) of a matroid."""
    M = tr.call("matroid.init", method, arg)
    tr.count("matroid.init.bases", len(M.bases))
    _traced_lattice(tr, M)
    return M


def _traced_lattice(tr, M) -> None:
    lattice = tr.call("lattice.build", M.flats)
    tr.count("lattice.flats", lattice.flat_count())
    tr.count("lattice.covers", lattice.cover_count())


def _traced_verification(tr, phi) -> None:
    """full_verification, check by check."""
    reports = {
        "definition": tr.call("adjoint.verify", verify_adjoint, phi),
        "rank_complement": tr.call("adjoint.rank_complement", check_rank_complement, phi),
    }
    for i, X in enumerate(phi.source.flats().all_flats()):
        chain = tr.call("lattice.chain", hyperplane_chain, phi.source, X)
        reports[f"chain {i}"] = tr.call("adjoint.chain", check_chain_independence, phi, chain)
    reports["modular_pairs"] = tr.call("adjoint.modular_pairs", check_modular_pairs, phi)
    _check(reports)


def _traced_dump(tr, phi) -> str:
    text = tr.call("files.dump", dump, phi)
    tr.count("files.dump.bytes", len(text.encode()))
    return text


# -- covector -------------------------------------------------------------------

def covector_op(spec, ctx):
    rep = _representation(*spec)
    phi = adjoint_from_representation(rep.matroid(), rep)
    _check(full_verification(phi))
    return phi, dump(phi)


def covector_traced(spec, ctx, tr):
    rep = _representation(*spec)
    M = _traced_matroid(tr, rep)
    _traced_lattice(tr, M)
    # adjoint_from_representation, step by step
    if _traced_matroid(tr, rep) != M:
        raise OpFailed("representation does not match the matroid's bases")
    hyperplanes = M.hyperplanes()
    covectors = tuple(tr.call("linalg.covector", rep.covector, H) for H in hyperplanes)
    target = _traced_matroid(tr, Representation(rep.field, covectors, rep.dim),
                             provenance={"op": "covector-adjoint"})
    _traced_lattice(tr, target)
    phi = tr.call("adjoint.induced_map", induced_map, M, target,
                  {H: i for i, H in enumerate(hyperplanes)})
    if not tr.call("adjoint.verify", verify_adjoint, phi).valid:
        raise ConstructionError("covector construction failed verification")
    _traced_verification(tr, phi)
    return phi, _traced_dump(tr, phi)


# -- minor_sweep ---------------------------------------------------------------

def minor_setup(inputs) -> list:
    """Parent maps, one per input: a catalog entry by name, or seeded columns."""
    catalog.cache_clear()
    parents = []
    for spec in inputs:
        if isinstance(spec, str):
            entry = by_name(spec)
            M, rep = entry.matroid, entry.representation
        else:
            rep = _representation(*spec)
            M = rep.matroid()
        parents.append(adjoint_from_representation(M, rep))
    return parents


def minor_ops(inputs, parents) -> list:
    ops = []
    for p, phi in enumerate(parents):
        n = phi.source.n
        for total in range(MAX_MINOR + 1):
            for csz in range(total + 1):
                for C in combinations(range(n), csz):
                    rest = [x for x in range(n) if x not in C]
                    for D in combinations(rest, total - csz):
                        ops.append((p, C, D))
    return ops


def _minor_spec(phi, C, D) -> MinorSpec:
    n = phi.source.n
    return MinorSpec(ElementSet.of(C, n), ElementSet.of(D, n))


def minor_op(spec, parents):
    p, C, D = spec
    phi = parents[p]
    psi = minor_adjoint(phi, _minor_spec(phi, C, D))
    text = dump(psi)
    loaded = _load(text, psi.source, psi.target)
    _check(full_verification(loaded))
    return loaded, text


def minor_traced(spec, parents, tr):
    p, C, D = spec
    phi = parents[p]
    M = phi.source
    # minor_adjoint: normal form, contraction, then coindependent deletion
    nf = tr.call("matroid.normal_form", minor_normal_form, M, _minor_spec(phi, C, D))
    M1 = _traced_minor(tr, M.contract, nf.contract)
    _traced_minor(tr, phi.target.restrict, phi.image(M.closure(nf.contract)))
    psi1 = tr.call("adjoint.contract", contract_adjoint, phi, nf.contract)
    D1 = nf.delete.relabel(M1.provenance["relabel"], M1.n)
    if not M1.is_coindependent(D1):
        raise ConstructionError(f"{D1!r} lost coindependence under contraction")
    _traced_minor(tr, M1.delete, D1)
    psi = tr.call("adjoint.delete", delete_adjoint, psi1, D1)
    text = _traced_dump(tr, psi)
    loaded = tr.call("files.load", _load, text, psi.source, psi.target)
    _traced_verification(tr, loaded)
    return loaded, text


# -- search --------------------------------------------------------------------

def search_op(spec, ctx):
    result = search_adjoint(_representation(*spec).matroid())
    if result.found is None:
        raise OpFailed(f"no adjoint found: {result.diagnostic or 'exhausted'}")
    _check(full_verification(result.found))
    return result, dump(result.found)


def search_traced(spec, ctx, tr):
    M = _traced_matroid(tr, _representation(*spec))
    _traced_lattice(tr, M)
    result = tr.call("search.run", search_adjoint, M)
    if result.found is None:
        raise OpFailed(f"no adjoint found: {result.diagnostic or 'exhausted'}")
    _traced_verification(tr, result.found)
    return result, _traced_dump(tr, result.found)


def catalog_setup(inputs):
    """Covector and search ops build everything from their inputs; set-up is the catalog."""
    catalog.cache_clear()
    catalog()
    return None


def input_ops(inputs, ctx) -> list:
    return list(inputs)


WORKLOADS = {
    # name: (setup, make ops, op, traced op)
    "covector": (catalog_setup, input_ops, covector_op, covector_traced),
    "minor_sweep": (minor_setup, minor_ops, minor_op, minor_traced),
    "search": (catalog_setup, input_ops, search_op, search_traced),
}


def op_sizes(workload: str, result) -> dict:
    """Size counts of one op's result, the same keys on every workload."""
    if workload == "search":
        out = sizes(result.found)
        out["candidates"] = result.candidates_examined
    else:
        out = sizes(result)
        out["candidates"] = 0
    out["specs"] = 1 if workload == "minor_sweep" else 0
    return out
