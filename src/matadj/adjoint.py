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

A map is stored as int masks, and every check and construction here reads
them.  ``ElementSet`` is the boundary type: the public functions take it,
and ``table``, ``pairs()``, ``hyperplane_order`` and the witnesses of
violations are built as ``ElementSet``s only when they are read.

Both constructions are one builder, ``_minor_map``, which closes no set:
one walk of the parent's lattice gives the minor's lattice, its lift (F u C
for a flat F of M/C, cl(F) for one of M\\D) and the points that go.  A
minor map that removes no target point keeps its parent's target, since
M' restricted to all of E' is M'; a step that removes no source element
builds nothing and returns its parent map, since M/{} = M\\{} = M.
A map keeps its verified contractions, keyed by the contraction set.

No target's lattice is ever built.  Checking a map needs three things from
its target M': whether each image is a flat, the points, and cl'(empty).
Each comes from the target's memoised closure (``Matroid._closure``): an
image is a flat when it is its own closure, the points are the closures of
the non-loop elements, and the bottom flat is the closure of the empty set.

A map cannot change after it is built, so its definition report is
computed once per map and kept on it: ``verify_adjoint``,
``full_verification`` and the minor constructions, which refuse a map that
fails it with a PreconditionError, read the same report.  Constructed maps
are verified before being returned; a failure there is a ConstructionError
(an implementation bug), never a silently wrong map.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping
from types import MappingProxyType

from .errors import ConstructionError, InputError, PreconditionError, StructureError, expect
from .lattice import FlatLattice, greedy_chain
from .matroid import Matroid, MinorSpec, _normal_form, _squeeze
from .sets import ElementSet, Record, _new, _set, _trusted, bits, set_mask


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

    def __init__(self, checks_run: tuple[str, ...], violations: tuple[Violation, ...]):
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

    The map is one dict, ``_table``, from each source flat's mask to its
    image's mask, made from a mapping of ``ElementSet``s by the public
    constructor and directly by the package (``_of_masks``), and checked
    once.  ``table`` is a read-only ``ElementSet`` view of it in the same
    order, built on first read; ``dict(phi.table)`` gives a mutable copy.

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
        n, t = source.n, target.n
        # anything but an ElementSet on its ground set goes in a 1-tuple, which the check refuses
        self._setup(source, target, {
            F.mask if F.__class__ is ElementSet and F.universe == n else (F,):
                img.mask if img.__class__ is ElementSet and img.universe == t else (img,)
            for F, img in table.items()})

    @classmethod
    def _of_masks(cls, source: Matroid, target: Matroid, table: dict) -> "AdjointMap":
        return _new(cls)._setup(source, target, table)  # keeps ``table`` as it is

    def _setup(self, source: Matroid, target: Matroid, table: dict) -> "AdjointMap":
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "_table", table)
        _set(self, "_contractions", {})  # contraction-set mask -> verified contract_adjoint result
        _set(self, "_definition", None)  # the definition report, once verify_adjoint has computed it
        _structural_check(self)
        _set(self, "_order", _derive_hyperplane_order(self))
        return self

    @property
    def table(self) -> Mapping[ElementSet, ElementSet]:
        view = self.__dict__.get("_view")
        if view is None:
            n, t = self.source.n, self.target.n
            view = MappingProxyType({_trusted(f, n): _trusted(img, t) for f, img in self._table.items()})
            _set(self, "_view", view)
        return view

    @property
    def hyperplane_order(self) -> tuple[ElementSet, ...] | None:
        order = self._order
        return None if order is None else tuple(_trusted(h, self.source.n) for h in order)

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_view"}

    def image(self, F: ElementSet) -> ElementSet:
        if F.__class__ is not ElementSet or F.universe != self.source.n or F.mask not in self._table:
            raise StructureError(f"table has no entry for flat {F!r}")
        return _trusted(self._table[F.mask], self.target.n)

    def pairs(self):
        """Table entries in canonical (lexicographic-by-flat) order."""
        n, t, table = self.source.n, self.target.n, self._table
        return [(_trusted(f, n), _trusted(table[f], t)) for f in self.source.flats().canonical_masks]


def _derive_hyperplane_order(phi: AdjointMap) -> tuple[int, ...] | None:
    hyperplanes = phi.source.flats().hyperplane_masks
    by_point: dict = {}  # point -> hyperplane; the table is total, and points lie in the target
    for h in hyperplanes:
        img = phi._table[h]
        if img.bit_count() != 1 or img in by_point:
            return None
        by_point[img] = h
    if len(by_point) != phi.target.n:
        # in rank 0 there is no hyperplane, and the order is empty whatever the target
        return None if hyperplanes else ()
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

    The one structural check of a map table, on its masks; a key or image
    kept in a 1-tuple fails it.  An image is a flat of the target when it
    is its own closure there, one memo lookup on ``induced_map``'s images.
    """
    n, table = phi.source.n, phi._table
    lattice = phi.source.flats()
    missing = [f for layer in lattice.masks for f in layer if f not in table]
    if missing:
        raise StructureError(f"table is not total: missing flats {[_trusted(f, n) for f in missing[:3]]}...")
    if len(table) != lattice.flat_count():  # every flat is a key, so some key is not a flat
        extra = [f[0] if f.__class__ is tuple else _trusted(f, n) for f in table if f not in lattice.rank_by_mask]
        extra.sort(key=lambda f: (0, f.key) if f.__class__ is ElementSet else (1,))  # other keys stay in table order
        raise StructureError(f"table has keys that are not flats of the source: {extra[:3]}")
    t, closure = phi.target.n, phi.target._closure
    for f, img in table.items():
        if img.__class__ is tuple or closure(img) != img:
            shown = img[0] if img.__class__ is tuple else _trusted(img, t)
            raise StructureError(f"image of {_trusted(f, n)!r} is {shown!r}, which is not a flat of the target")


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
    n, t, table = M.n, Mp.n, phi._table
    lattice = M.flats()
    layers = lattice.masks
    violations = []

    # target simplicity, off the closures of the empty set and the
    # singletons: the loops are cl'(empty), and the non-loops parallel to a
    # non-loop e are the non-loops of cl'({e}) other than e.  Pairs come in
    # ``combinations`` order, e then f > e.
    loops = Mp._closure(0)
    singles = [Mp._closure(1 << e) for e in range(t)]
    for e in bits(loops):
        violations.append(Violation("target_simple", (e,), "no loops", f"element {e} is a loop"))
    for e, c in enumerate(singles):
        parallel = c & ~loops & ~((2 << e) - 1)
        if parallel:  # empty for a loop e, whose closure is the loops
            for f in bits(parallel):
                violations.append(Violation("target_simple", (e, f), "no parallel pairs", f"{{{e},{f}}} has rank 1"))
    simple = not violations

    # rank equality
    if M.full_rank != Mp.full_rank:
        violations.append(Violation("rank_match", (), f"target rank {M.full_rank}", str(Mp.full_rank)))

    # injectivity; the keys are the flats, so distinct images leave nothing to find
    if len(set(table.values())) != len(table):
        for f1, f2, img in _repeats((f, table[f]) for f in lattice.canonical_masks):
            violations.append(Violation("injectivity", (_trusted(f1, n), _trusted(f2, n)),
                                        "distinct images", f"both map to {_trusted(img, t)!r}"))

    # inclusion reversal, for every cover pair F1 < F2: F2 lies one layer
    # up and contains F1.  A chain of covers joins any F1 < F2, so these
    # pairs decide the check.
    images = [[(f, table[f]) for f in layer] for layer in layers]
    for lower, upper in zip(images, images[1:]):
        for f1, i1 in lower:
            for f2, i2 in upper:
                if not f1 & ~f2 and i2 & ~i1:
                    F1, F2 = _trusted(f1, n), _trusted(f2, n)
                    violations.append(Violation(
                        "inclusion_reversal", (F1, F2), f"phi({F2!r}) within phi({F1!r})",
                        f"{_trusted(i2, t)!r} is not within {_trusted(i1, t)!r}",
                    ))

    # hyperplanes -> points bijectively; the points of M' are the closures
    # of its non-loop elements.  When M' is simple its points are its t
    # singletons, and a hyperplane order of length t says the hyperplane
    # images are t distinct singletons: a bijection, with nothing to find.
    if not (simple and phi._order is not None and len(phi._order) == t):
        points = {p for e, p in enumerate(singles) if not loops >> e & 1}
        hyperplanes = lattice.hyperplane_masks
        images = [table[h] for h in hyperplanes]
        for h, img in zip(hyperplanes, images):
            if img not in points:
                violations.append(Violation("hyperplane_bijection", (_trusted(h, n),), "a point of the target",
                                            repr(_trusted(img, t))))
        for h1, h2, img in _repeats(zip(hyperplanes, images)):
            violations.append(Violation("hyperplane_bijection", (_trusted(h1, n), _trusted(h2, n)),
                                        "distinct point images", f"both map to {_trusted(img, t)!r}"))
        uncovered = points.difference(images)
        if uncovered:
            violations.append(Violation(
                "hyperplane_bijection", tuple(_trusted(p, t) for p in sorted(uncovered, key=bits)),
                "every point covered by a hyperplane image", "uncovered points remain",
            ))

    # phi(E) = cl'(empty) (forced for valid maps; checked explicitly): the
    # top flat of M, read from its lattice, and the bottom flat of M'
    top = layers[-1][0]
    if table[top] != loops:
        violations.append(Violation("ground_to_empty", (_trusted(top, n),), repr(_trusted(loops, t)),
                                    repr(_trusted(table[top], t))))

    return VerificationReport(DEFINITION_CHECKS, tuple(violations))


def _repeats(pairs):
    """(first key, key, image) for each key of (key, image) ``pairs`` whose image an earlier key has."""
    seen: dict = {}  # image -> first key with that image
    for key, img in pairs:
        first = seen.setdefault(img, key)
        if first != key:
            yield first, key, img


def check_rank_complement(phi: AdjointMap) -> VerificationReport:
    """r'(phi(F)) = r - r(F) for every flat F.

    On a map that passed verify_adjoint this is a theorem; any violation
    reported here indicates an implementation bug, not a bad input, and the
    violation text says so.
    """
    expect(phi, AdjointMap)
    r, n, table = phi.source.full_rank, phi.source.n, phi._table
    rank = phi.target._rank
    violations = []
    for k, layer in enumerate(phi.source.flats().masks):
        for f in layer:
            got = rank(table[f])
            if got != r - k:
                violations.append(Violation(
                    "rank_complement", (_trusted(f, n),), f"target rank {r - k}",
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
        pairs.append((H.mask, phi._table[H.mask]))
    violations = _chain_violations(phi, pairs, range(len(pairs)))
    return VerificationReport(("chain_independence",), tuple(violations))


def _chain_violations(phi: AdjointMap, pairs: list, chain) -> list:
    """The chain-independence violations of a chain: one for each image that
    is not a point, else one if the images are dependent.  ``pairs`` holds
    (hyperplane mask, image mask) pairs, and ``chain`` the indices of the
    chain's members among them, so that a map's pairs are read once for all
    its chains.  When every image is a point, the distinct images are the
    bits of their union."""
    n, t = phi.source.n, phi.target.n
    union = 0
    for i in chain:
        img = pairs[i][1]
        if img.bit_count() != 1:
            return [Violation("chain_independence", (_trusted(h, n),), "a point image", repr(_trusted(img, t)))
                    for h, img in map(pairs.__getitem__, chain) if img.bit_count() != 1]
        union |= img
    rank = phi.target._rank(union)
    if rank == union.bit_count():
        return []
    return [Violation(
        "chain_independence", tuple(_trusted(pairs[i][0], n) for i in chain),
        f"independent image set of size {union.bit_count()}",
        f"rank {rank}",
    )]


def check_modular_pairs(phi: AdjointMap) -> VerificationReport:
    """phi(X), phi(Y) form a modular pair in the target, for all flats X, Y.

    Only pairs whose images both have target rank 2 to r' - 1 are tested,
    in canonical pair order; no other pair can fail, on any map.  Every
    image is a target flat (the structural check).  A pair with nested
    images, a within b, has join b and meet a, so r(a) + r(b) = r(join) +
    r(meet).  An image of rank 0 is cl'(empty), and one of rank r' is E';
    each is nested with every flat.  For an image a of rank 1 (a point)
    and a flat b that does not contain it, a n b is a flat strictly inside
    a, so of rank 0, and r(a u b) = r(b) + 1: more than r(b), since the
    flat b misses an element of a, and at most r(a) + r(b).  So r(a) + r(b)
    = r(a u b) + r(a n b).  That is, points are modular elements of every
    geometric lattice (R. P. Stanley, "Modular elements of geometric
    lattices", Algebra Universalis 1, 1971)."""
    expect(phi, AdjointMap)
    rank, n, top = phi.target._rank, phi.source.n, phi.target.full_rank
    flats = phi.source.flats().canonical_masks
    images = [(f, img, ra) for f, img in zip(flats, map(phi._table.__getitem__, flats))
              if 2 <= (ra := rank(img)) < top]
    violations = []
    for i, (x, a, ra) in enumerate(images):
        for y, b, rb in images[i + 1:]:
            meet = a & b
            if meet == a or meet == b:
                continue
            # r(cl S) = r(S), so the join's rank needs no closure
            rj, rm = rank(a | b), rank(meet)
            if ra + rb != rj + rm:
                violations.append(Violation(
                    "modular_pairs", (_trusted(x, n), _trusted(y, n)),
                    "r(phi X) + r(phi Y) = r(join) + r(meet)",
                    f"{ra}+{rb} != {rj}+{rm}",
                ))
    return VerificationReport(("modular_pairs",), tuple(violations))


def _chain_report(phi: AdjointMap) -> VerificationReport:
    """``check_chain_independence`` of ``hyperplane_chain(M, X)`` for every
    flat X of M, in lattice order, merged into one report: the same
    violations in the same order, and the same ConstructionError where no
    chain exists.  Each flat's chain goes straight to the two kernels,
    ``greedy_chain`` and ``_chain_violations``; the public check's
    preconditions hold by construction, so they are not tested."""
    M = phi.source
    lattice = M.flats()
    hyperplanes = lattice.hyperplane_masks
    pairs = [(h, phi._table[h]) for h in hyperplanes]
    violations = []
    for k, layer in enumerate(lattice.masks):
        for x in layer:
            violations += _chain_violations(phi, pairs, greedy_chain(M, hyperplanes, x, k))
    return VerificationReport(("chain_independence",), tuple(violations))


def full_verification(phi: AdjointMap) -> dict[str, VerificationReport]:
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
    for label in bij.values():
        if isinstance(label, bool) or not isinstance(label, int):
            raise InputError(f"bijection value {label!r} is not a point label: expected an int")
    if sorted(bij.values()) != list(range(Mp.n)):
        raise InputError("bijection is not onto the points of the target")
    return _induced(M, Mp, [(H.mask, 1 << bij[H]) for H in hyperplanes])


def _induced(M: Matroid, Mp: Matroid, labelled: list) -> AdjointMap:
    """``induced_map`` of the (hyperplane mask, point mask) pairs ``labelled``."""
    closure, layers = Mp._closure, M.flats().masks
    table = {f: closure(p) for layer, blocks in zip(layers, _blocks(M.n, labelled, layers))
             for f, p in zip(layer, blocks)}
    return AdjointMap._of_masks(M, Mp, table)


def _blocks(n: int, labelled: list, layers):
    """P(F), the labels of the hyperplanes that hold F, for the flat masks F
    of each layer of ``layers``, from (hyperplane mask, label mask) pairs whose
    label masks are the bits 1 << i, i < len(labelled): the AND over e in F
    of the labels of the hyperplanes through e."""
    through, every = [0] * n, (1 << len(labelled)) - 1
    for h, p in labelled:
        for e in bits(h):
            through[e] |= p
    for layer in layers:
        blocks = []
        for f in layer:
            block = every
            for e in bits(f):
                block &= through[e]
            blocks.append(block)
        yield blocks


def contract_adjoint(phi: AdjointMap, C: ElementSet) -> AdjointMap:
    """Adjoint of M/C: F maps to phi(F u C); target restricted to phi(cl(C)).

    Built once per map and contraction set: later calls with the same C
    return the map that the first call built and verified.  An empty C
    returns phi itself.
    """
    _require_adjoint(phi)
    return _contract(phi, set_mask(C, phi.source.n))


def _contract(phi: AdjointMap, cm: int) -> AdjointMap:
    """``contract_adjoint`` of the set with mask cm, for an adjoint phi;
    phi itself when cm is empty."""
    result = phi._contractions.get(cm) if cm else phi
    if result is None:
        result = phi._contractions[cm] = _minor_map(phi, cm, True)
    return result


def vanishing_hyperplanes(M: Matroid, D: ElementSet) -> tuple:
    """Hyperplanes whose rank drops when D is removed, r(H - D) < r(H), in
    canonical order, read off the walk that gives the lattice of M\\D."""
    expect(M, Matroid)
    dm = set_mask(D, M.n)
    _, least = FlatLattice.of_minor(M._minor("delete", dm))
    return tuple(_trusted(h, M.n) for h in _vanishing(M, M._full & ~dm, least))


def _vanishing(M: Matroid, keep: int, least: dict) -> list:
    """The masks of the hyperplanes H of M that vanish in M\\D, for the kept
    set K = E - D and the least flats of ``FlatLattice.of_minor``: the least
    flat with trace H n K is cl(H n K), which is H exactly when
    r(H n K) = r(H)."""
    return [h for h in M.flats().hyperplane_masks if least[h & keep] != h]


def delete_adjoint(phi: AdjointMap, D: ElementSet) -> AdjointMap:
    """Adjoint of M\\D for coindependent D.

    F maps to phi(cl(F)) minus the points of the vanishing hyperplanes; the
    target is the old target minus those points.  cl(F) is the lift of F,
    read off the lattice of M\\D.  An empty D returns phi itself.
    """
    _require_adjoint(phi)
    if not phi.source.is_coindependent(D):
        raise PreconditionError(f"deletion set {D!r} is not coindependent; use minor_adjoint for general minors")
    return _minor_map(phi, D.mask, False)


def _minor_map(phi: AdjointMap, m: int, contracted: bool) -> AdjointMap:
    """The verified adjoint of M/S (``contracted``) or M\\S, S the set with
    mask m, coindependent in a deletion; phi itself when S is empty.  F maps
    to phi(lift F) minus the points gone, relabeled as ``Matroid.delete``
    relabels, into phi's target minus them: for M/C the points outside
    phi(cl C), cl C being the first least flat, and for M\\D those of the
    vanishing hyperplanes."""
    if not m:
        return phi
    M, table = phi.source, phi._table
    N = M._minor("contract" if contracted else "delete", m)
    lattice, least = FlatLattice.of_minor(N)
    if contracted:
        # the first least flat is cl(C); an adjoint maps every other lift inside its image
        gone = phi.target._full & ~table[next(iter(least.values()))]
    else:
        gone = 0
        for h in _vanishing(M, M._full & ~m, least):
            gone |= table[h]
    target = phi.target._minor("delete", gone) if gone else phi.target
    lift = lattice._lift
    flats = [f for layer in lattice.masks for f in layer]
    images = _squeeze([table[lift[f]] for f in flats], gone)  # cuts out the points gone
    result = AdjointMap._of_masks(N, target, dict(zip(flats, images)))
    report = verify_adjoint(result)
    if not report.valid:
        kind = "contraction" if contracted else "deletion"
        raise ConstructionError(f"{kind} adjoint failed verification:\n{report.summary()}")
    return result


def minor_adjoint(phi: AdjointMap, spec: MinorSpec) -> AdjointMap:
    """Adjoint of M/C\\D for any disjoint C, D: normalize, contract, delete.
    A step whose normalized set is empty is skipped: a spec that normalizes
    to (C, {}) gives ``contract_adjoint(phi, C)`` itself."""
    _require_adjoint(phi)
    expect(spec, MinorSpec)
    M = phi.source
    c, d = _normal_form(M, set_mask(spec.contract, M.n), set_mask(spec.delete, M.n))
    psi = _contract(phi, c)
    N = psi.source
    d = _squeeze([d], c)[0]
    if N._rank(N._full & ~d) != N.full_rank:
        # contraction of a disjoint set preserves coindependence; reaching this is a bug
        raise ConstructionError(f"{_trusted(d, N.n)!r} lost coindependence under contraction")
    return _minor_map(psi, d, False)
