"""Adjoint maps: representation, verification, and minor constructions.

An adjoint of a matroid M is a simple matroid M' of the same rank together
with an injective, inclusion-reversing map of flats that sends the
hyperplanes of M bijectively onto the points of M'.  This module verifies
candidate maps check by check (every violation comes with a concrete
witness) and constructs adjoints of minors from an adjoint of the parent:

* contraction:  phi_C(F) = phi(F u C), target restricted to phi(cl(C));
* deletion (coindependent D):  phi_D(F) = phi(cl(F)) minus the points of the
  hyperplanes that vanish when D is removed;
* general minors: normalize the minor spec, contract, then delete.

Neither construction closes a set.  Both read the lift of the minor's
lattice (``FlatLattice.lift``), which maps each flat F of M/C to F u C and
each flat F of M\\D to cl(F), from one walk of the parent's lattice per
minor.  The lift of the bottom flat of M/C is cl(C), and the vanishing
hyperplanes of M\\D are the hyperplanes of M that are no flat's lift.  Both
constructions end in one builder, which relabels the images, builds the
map and verifies it.

No target's lattice is ever built.  Checking a map needs three things from
its target M': whether each image is a flat, the points, and cl'(empty).
Each comes from the target's memoised closure (``Matroid._closure``): an
image is a flat when it is its own closure, the points are the closures of
the non-loop elements, and the bottom flat is the closure of the empty set.

A map's table is read-only: ``AdjointMap`` keeps its own copy of the
caller's mapping behind a ``MappingProxyType``, so a map cannot change
after it is built.  That makes its definition report a function of the map
alone, computed once per map and kept on it: ``verify_adjoint``,
``full_verification`` and the minor constructions, which refuse a map that
fails it with a PreconditionError, read the same report.  Target simplicity
is read off the same closures as the points: the loops are cl'(empty), and
a parallel pair is a non-loop f in cl'({e}) for a non-loop e < f.
Chain independence has one kernel for each step: ``lattice.greedy_chain``
finds a flat's hyperplane chain, and ``_chain_violations`` tests its images.
The public ``hyperplane_chain`` and ``check_chain_independence`` check their
arguments and call them, and ``full_verification`` calls them for every flat
on masks read once per map.

Constructed maps are re-verified before being returned; a verification
failure there is a ConstructionError (an implementation bug), never a
silently wrong map.  Each map keeps the contractions made from it, keyed by
the contraction set, once they have passed that verification.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping
from types import MappingProxyType
from typing import Dict, Optional, Tuple

from .errors import ConstructionError, InputError, PreconditionError, StructureError, expect
from .lattice import greedy_chain
from .matroid import Matroid, MinorSpec, _squeeze, minor_normal_form
from .sets import ElementSet, Record, _set, bits, set_mask


class Violation(Record):
    _fields = ("check", "witness", "expected", "actual")

    def __init__(self, check: str, witness: tuple, expected: str, actual: str):
        _set(self, "check", check)
        _set(self, "witness", witness)
        _set(self, "expected", expected)
        _set(self, "actual", actual)

    def __str__(self) -> str:
        w = ", ".join(repr(x) for x in self.witness)
        return f"[{self.check}] witness ({w}): expected {self.expected}, got {self.actual}"


class VerificationReport(Record):
    _fields = ("checks_run", "violations")

    def __init__(self, checks_run: Tuple[str, ...], violations: Tuple[Violation, ...]):
        _set(self, "checks_run", checks_run)
        _set(self, "violations", violations)

    @property
    def valid(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.valid:
            return f"valid ({len(self.checks_run)} checks: {', '.join(self.checks_run)})"
        lines = [f"INVALID: {len(self.violations)} violation(s)"]
        lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)


class AdjointMap(Record):
    """A total flat-to-flat table from a source matroid into a simple target.

    ``table`` is a read-only view of the map's own copy of the mapping it
    was given (``dict(phi.table)`` gives a mutable copy back), so later
    changes to the caller's dict do not reach the map.

    ``hyperplane_order`` lists the source hyperplanes in target-point order:
    entry i is the hyperplane mapped to point {i}.  Always derived from the
    table, it is None when the table is not point-bijective on hyperplanes.

    Construction raises InputError unless the source and target are
    ``Matroid``s, and StructureError unless the table is a mapping, total on
    the source flats, with flats of the target, as ``ElementSet``s, as values.
    """

    _fields = ("source", "target", "table", "hyperplane_order")

    def __init__(self, source: Matroid, target: Matroid, table: Mapping[ElementSet, ElementSet]):
        expect(source, Matroid)
        expect(target, Matroid)
        if not isinstance(table, Mapping):
            raise StructureError(f"table must be a mapping, got {type(table).__name__}")
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "table", MappingProxyType(dict(table)))
        _set(self, "_contractions", {})  # contraction-set mask -> verified contract_adjoint result
        _set(self, "_definition", None)  # the definition report, once verify_adjoint has computed it
        _structural_check(self)
        _set(self, "hyperplane_order", _derive_hyperplane_order(self))

    def image(self, F: ElementSet) -> ElementSet:
        try:
            return self.table[F]
        except KeyError:
            raise StructureError(f"table has no entry for flat {F!r}") from None

    def pairs(self):
        """Table entries in canonical (lexicographic-by-flat) order."""
        return [(F, self.table[F]) for F in self.source.flats().canonical_order()]


def _derive_hyperplane_order(phi: AdjointMap) -> Optional[Tuple[ElementSet, ...]]:
    if phi.source.full_rank == 0:
        return ()
    by_point: dict = {}  # point -> hyperplane; the table is total, and points lie in the target
    for H in phi.source.hyperplanes():
        img = phi.table[H].mask
        if img.bit_count() != 1 or img in by_point:
            return None
        by_point[img] = H
    if len(by_point) != phi.target.n:
        return None
    return tuple(by_point[1 << i] for i in range(phi.target.n))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

DEFINITION_CHECKS = (
    "target_simple",
    "rank_match",
    "injectivity",
    "inclusion_reversal",
    "hyperplane_bijection",
    "ground_to_empty",
)


def _structural_check(phi: AdjointMap) -> None:
    """Raise StructureError unless the table is total on source flats with flat values.

    An image is a flat of the target when it equals its own closure there.
    ``induced_map`` has just closed every image, so on its maps each test is
    one lookup in the target's closure memo.
    """
    src = phi.source.flats()
    missing = [F for F in src.all_flats() if F not in phi.table]
    if missing:
        raise StructureError(f"table is not total: missing flats {missing[:3]}...")
    if len(phi.table) != src.flat_count():  # every flat is a key, so some key is not a flat
        extra = [F for F in phi.table if not src.is_flat(F)]
        raise StructureError(f"table has keys that are not flats of the source: {sorted(extra, key=lambda f: f.key)[:3]}")
    n, closure = phi.target.n, phi.target._closure
    for F, img in phi.table.items():
        if img.__class__ is not ElementSet or img.universe != n or closure(img.mask) != img.mask:
            raise StructureError(f"image of {F!r} is {img!r}, which is not a flat of the target")


def verify_adjoint(phi: AdjointMap) -> VerificationReport:
    """Run the definitional checks; report every violation with a witness.

    Checks run in a fixed order without short-circuiting, so reports are
    reproducible.  A table that is not total, or maps to a non-flat, was
    refused with a StructureError when the map was built.
    """
    expect(phi, AdjointMap)
    return _report(phi)


def _report(phi: AdjointMap) -> VerificationReport:
    """phi's definition report, computed once and kept: phi cannot change."""
    report = phi._definition
    if report is None:
        report = _definition_report(phi)
        _set(phi, "_definition", report)
    return report


def _require_adjoint(phi: AdjointMap) -> None:
    """The gate of the minor constructions: refuse phi unless it is an adjoint."""
    expect(phi, AdjointMap)
    report = _report(phi)
    if not report.valid:
        raise PreconditionError(f"the map is not an adjoint: {report.violations[0]}")


def _definition_report(phi: AdjointMap) -> VerificationReport:
    M, Mp = phi.source, phi.target
    table = phi.table
    lattice = M.flats()
    violations = []

    # target simplicity, off the closures of the empty set and the
    # singletons: the loops are cl'(empty), and the non-loops parallel to a
    # non-loop e are the non-loops of cl'({e}) other than e.  Pairs come in
    # ``combinations`` order, e then f > e.
    loops = Mp._closure(0)
    singles = [Mp._closure(1 << e) for e in range(Mp.n)]
    for e in bits(loops):
        violations.append(Violation("target_simple", (e,), "no loops", f"element {e} is a loop"))
    for e, c in enumerate(singles):
        if not loops >> e & 1:
            for f in bits(c & ~loops & ~((2 << e) - 1)):
                violations.append(Violation("target_simple", (e, f), "no parallel pairs", f"{{{e},{f}}} has rank 1"))

    # rank equality
    if M.full_rank != Mp.full_rank:
        violations.append(Violation("rank_match", (), f"target rank {M.full_rank}", str(Mp.full_rank)))

    # injectivity
    seen: dict = {}  # image mask -> first flat with that image
    for F in lattice.canonical_order():
        img = table[F]
        if img.mask in seen:
            violations.append(Violation("injectivity", (seen[img.mask], F), "distinct images", f"both map to {img!r}"))
        else:
            seen[img.mask] = F

    # inclusion reversal, for every cover pair F1 < F2: F2 lies one layer
    # up and contains F1.  A chain of covers joins any F1 < F2, so these
    # pairs decide the check.
    layers = [[(F, F.mask, table[F].mask) for F in layer] for layer in lattice.flats_by_rank]
    for lower, upper in zip(layers, layers[1:]):
        for F1, f1, i1 in lower:
            for F2, f2, i2 in upper:
                if not f1 & ~f2 and i2 & ~i1:
                    violations.append(Violation(
                        "inclusion_reversal", (F1, F2),
                        f"phi({F2!r}) within phi({F1!r})",
                        f"{table[F2]!r} is not within {table[F1]!r}",
                    ))

    # hyperplanes -> points bijectively; the points of M' are the closures
    # of its non-loop elements
    points = {p: ElementSet._trusted(p, Mp.n)
              for e, p in enumerate(singles) if not loops >> e & 1}
    hyperplanes = M.hyperplanes() if M.full_rank >= 1 else ()
    images = []
    for H in hyperplanes:
        img = table[H]
        if img.mask not in points:
            violations.append(Violation("hyperplane_bijection", (H,), "a point of the target", repr(img)))
        images.append(img.mask)
    img_set = set(images)
    if len(img_set) != len(images):
        seen_pts: dict = {}
        for H, img in zip(hyperplanes, images):
            if img in seen_pts:
                violations.append(Violation(
                    "hyperplane_bijection", (seen_pts[img], H),
                    "distinct point images", f"both map to {table[H]!r}",
                ))
            else:
                seen_pts[img] = H
    uncovered = [P for p, P in points.items() if p not in img_set]
    if uncovered:
        violations.append(Violation(
            "hyperplane_bijection", tuple(sorted(uncovered, key=lambda f: f.key)),
            "every point covered by a hyperplane image", "uncovered points remain",
        ))

    # phi(E) = cl'(empty) (forced for valid maps; checked explicitly): the
    # top flat of M, read from its lattice, and the bottom flat of M'
    top = lattice.layer(M.full_rank)[0]
    want = ElementSet._trusted(loops, Mp.n)
    if table[top] != want:
        violations.append(Violation("ground_to_empty", (top,), repr(want), repr(table[top])))

    return VerificationReport(DEFINITION_CHECKS, tuple(violations))


def check_rank_complement(phi: AdjointMap) -> VerificationReport:
    """r'(phi(F)) = r - r(F) for every flat F.

    On a map that passed verify_adjoint this is a theorem; any violation
    reported here indicates an implementation bug, not a bad input, and the
    violation text says so.
    """
    expect(phi, AdjointMap)
    r = phi.source.full_rank
    rank = phi.target._rank
    violations = []
    for k, layer in enumerate(phi.source.flats().flats_by_rank):
        for F in layer:
            got = rank(phi.table[F].mask)
            if got != r - k:
                violations.append(Violation(
                    "rank_complement", (F,), f"target rank {r - k}",
                    f"{got} (a theorem violation: implementation bug, not bad input)",
                ))
    return VerificationReport(("rank_complement",), tuple(violations))


def check_chain_independence(phi: AdjointMap, chain) -> VerificationReport:
    """Images of a strictly-decreasing hyperplane chain are independent in the target."""
    expect(phi, AdjointMap)
    expect(chain, Iterable)
    M = phi.source
    lattice = M.flats()
    running = M._full
    pairs = []  # filled in the one pass, so that a chain may be an iterator
    for H in chain:
        if not lattice.is_flat(H) or lattice.rank_of(H) != M.full_rank - 1:
            raise PreconditionError(f"{H!r} is not a hyperplane of the source")
        nxt = running & H.mask
        if nxt == running:
            raise PreconditionError("chain violates the strict running-intersection condition")
        running = nxt
        pairs.append((H, phi.table[H].mask))
    violations = _chain_violations(phi, pairs, range(len(pairs)))
    return VerificationReport(("chain_independence",), tuple(violations))


def _chain_violations(phi: AdjointMap, pairs: list, chain) -> list:
    """The chain-independence violations of a chain: one for each image that
    is not a point, else one if the images are dependent.  ``pairs`` holds
    (hyperplane, image mask) pairs, and ``chain`` the indices of the chain's
    members among them, so that a map's pairs are read once for all its
    chains.  When every image is a point, the distinct images are the bits
    of their union."""
    union = 0
    for i in chain:
        img = pairs[i][1]
        if img.bit_count() != 1:
            return [Violation("chain_independence", (H,), "a point image", repr(phi.table[H]))
                    for H, img in map(pairs.__getitem__, chain) if img.bit_count() != 1]
        union |= img
    rank = phi.target._rank(union)
    if rank == union.bit_count():
        return []
    return [Violation(
        "chain_independence", tuple(pairs[i][0] for i in chain),
        f"independent image set of size {union.bit_count()}",
        f"rank {rank}",
    )]


def check_modular_pairs(phi: AdjointMap) -> VerificationReport:
    """phi(X), phi(Y) form a modular pair in the target, for all flats X, Y."""
    expect(phi, AdjointMap)
    rank = phi.target._rank
    flats = phi.source.flats().canonical_order()
    images = [(phi.table[X].mask, rank(phi.table[X].mask)) for X in flats]
    violations = []
    for i, (a, ra) in enumerate(images):
        for j in range(i, len(images)):
            b, rb = images[j]
            # r(cl S) = r(S), so the join's rank needs no closure
            rj, rm = rank(a | b), rank(a & b)
            if ra + rb != rj + rm:
                violations.append(Violation(
                    "modular_pairs", (flats[i], flats[j]),
                    "r(phi X) + r(phi Y) = r(join) + r(meet)",
                    f"{ra}+{rb} != {rj}+{rm}",
                ))
    return VerificationReport(("modular_pairs",), tuple(violations))


def _chain_report(phi: AdjointMap) -> VerificationReport:
    """``check_chain_independence`` of ``hyperplane_chain(M, X)`` for every
    flat X of M, in lattice order, merged into one report: the same
    violations in the same order, and the same ConstructionError where no
    chain exists.

    The masks of the hyperplanes and of their images are read once, and
    each flat's chain goes straight to the two kernels, ``greedy_chain``
    and ``_chain_violations``.  The public check's preconditions hold by
    construction, so they are not tested.
    """
    M = phi.source
    r = M.full_rank
    lattice = M.flats()
    hyperplanes = lattice.layer(r - 1) if r >= 1 else ()
    masks = [H.mask for H in hyperplanes]
    pairs = [(H, phi.table[H].mask) for H in hyperplanes]
    violations = []
    for k, layer in enumerate(lattice.flats_by_rank):
        for X in layer:
            violations += _chain_violations(phi, pairs, greedy_chain(M, masks, X, k))
    return VerificationReport(("chain_independence",), tuple(violations))


def full_verification(phi: AdjointMap) -> Dict[str, VerificationReport]:
    """Definition checks, rank complement, chain independence for every flat's
    canonical chain, and modular pairs.  Keys in a fixed order."""
    return {
        "definition": verify_adjoint(phi),
        "rank_complement": check_rank_complement(phi),
        "chain_independence": _chain_report(phi),
        "modular_pairs": check_modular_pairs(phi),
    }


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def induced_map(M: Matroid, Mp: Matroid, bij: Mapping[ElementSet, int]) -> AdjointMap:
    """Extend a hyperplane -> point bijection to a candidate flat map.

    Each flat goes to the target closure of the points of the hyperplanes
    containing it.  For a valid adjoint this formula is forced; the result
    here is only a candidate and callers must run verify_adjoint.
    """
    expect(M, Matroid)
    expect(Mp, Matroid)
    expect(bij, Mapping)
    if M.full_rank != Mp.full_rank:
        raise InputError(f"rank mismatch: source {M.full_rank}, target {Mp.full_rank}")
    if not Mp.is_simple():
        raise InputError("target matroid is not simple")
    hyperplanes = M.hyperplanes() if M.full_rank >= 1 else ()
    if set(bij) != set(hyperplanes):
        raise InputError("bijection is not total on the source hyperplanes")
    if sorted(bij.values()) != list(range(Mp.n)):
        raise InputError("bijection is not onto the points of the target")
    labelled = [(H.mask, 1 << bij[H]) for H in hyperplanes]
    table = {}
    for F in M.flats().all_flats():
        f = F.mask
        points = sum(p for h, p in labelled if not f & ~h)
        table[F] = ElementSet._trusted(Mp._closure(points), Mp.n)
    return AdjointMap(M, Mp, table)


def contract_adjoint(phi: AdjointMap, C: ElementSet) -> AdjointMap:
    """Adjoint of M/C: F maps to phi(F u C); target restricted to phi(cl(C)).

    Built once per map and contraction set: later calls with the same C
    return the map that the first call built and verified.
    """
    _require_adjoint(phi)
    M, Mp = phi.source, phi.target
    cm = set_mask(C, M.n)
    cached = phi._contractions.get(cm)
    if cached is not None:
        return cached
    new_source = M.contract(C)
    # the first lift is cl(C); an adjoint maps every other lift inside its image
    gone = Mp._full & ~phi.table[next(iter(new_source.flats().lift.values()))].mask
    result = _verified_minor_map(phi, new_source, gone, "contraction")
    phi._contractions[cm] = result
    return result


def vanishing_hyperplanes(M: Matroid, D: ElementSet) -> tuple:
    """Hyperplanes whose rank drops when D is removed, r(H - D) < r(H), in
    canonical order: those that lift no flat of M\\D, since the flat H - D
    of M\\D lifts to cl(H - D), which is H unless the rank drops."""
    expect(M, Matroid)
    set_mask(D, M.n)
    if M.full_rank == 0:
        return ()
    hyperplanes = M.hyperplanes()  # built first, so that M\\D reads its lattice off M's
    lifted = set(M.delete(D).flats().lift.values())
    return tuple(H for H in hyperplanes if H not in lifted)


def delete_adjoint(phi: AdjointMap, D: ElementSet) -> AdjointMap:
    """Adjoint of M\\D for coindependent D.

    F maps to phi(cl(F)) minus the points of the vanishing hyperplanes; the
    target is the old target minus those points.  cl(F) is the lift of F,
    read off the lattice of M\\D.
    """
    _require_adjoint(phi)
    M = phi.source
    if not M.is_coindependent(D):
        raise PreconditionError(
            f"deletion set {D!r} is not coindependent; use minor_adjoint for general minors"
        )
    removed = 0
    for H in vanishing_hyperplanes(M, D):
        removed |= phi.image(H).mask
    return _verified_minor_map(phi, M.delete(D), removed, "deletion")


def _verified_minor_map(phi: AdjointMap, N: Matroid, gone: int, kind: str) -> AdjointMap:
    """The map F -> phi(lift F) - gone from the minor N of phi's source into
    phi's target minus ``gone``, relabeled as ``Matroid.delete`` relabels,
    after it passes verify_adjoint."""
    target = phi.target.delete(ElementSet._trusted(gone, phi.target.n))
    lift, table = N.flats().lift, phi.table
    flats = list(N.flats().all_flats())
    images = _squeeze([table[lift[F.mask]].mask & ~gone for F in flats], gone)
    result = AdjointMap(N, target, dict(zip(flats, (ElementSet._trusted(m, target.n) for m in images))))
    report = verify_adjoint(result)
    if not report.valid:
        raise ConstructionError(f"{kind} adjoint failed verification:\n{report.summary()}")
    return result


def minor_adjoint(phi: AdjointMap, spec: MinorSpec) -> AdjointMap:
    """Adjoint of M/C\\D for any disjoint C, D: normalize, contract, delete."""
    _require_adjoint(phi)
    nf = minor_normal_form(phi.source, spec)
    after_contract = contract_adjoint(phi, nf.contract)
    relabel = after_contract.source.provenance["relabel"]
    D_new = nf.delete.relabel(relabel, after_contract.source.n)
    if not after_contract.source.is_coindependent(D_new):
        # contraction of a disjoint set preserves coindependence; reaching this is a bug
        raise ConstructionError(f"{D_new!r} lost coindependence under contraction")
    return delete_adjoint(after_contract, D_new)
