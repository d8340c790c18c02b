"""The geometric lattice of flats of a matroid.

A lattice is made in one of two ways.

* **By closures** (``FlatLattice.build``), one closure per flat.  Flats
  are enumerated level by level: the rank-0 flat is cl(empty), and the
  flats covering a flat F are exactly the closures cl(F u {e}) for e
  outside F; the sets G - F, for G covering F, partition E - F (Oxley,
  *Matroid Theory*, 2nd ed., ch. 1).  Before closing anything for a rank-k
  flat F, the build marks as reached every rank-(k + 1) flat already found
  that contains F: each such G covers F, and cl(F u {e}) = G for e in
  G - F.  An element still unreached lies in no cover found so far, so its
  closure is a new flat, which marks its own elements reached in turn.  The
  rank-r layer is (E,) by theorem, since E is closed and of rank r.  So a
  build of rank r >= 1 closes ``flat_count() - 1`` sets, and one of rank 0
  closes the empty set only.  This avoids closing all 2^n subsets; the
  exhaustive version lives in the test suite as an independent oracle.
* **Off a built parent lattice** (``FlatLattice.of_minor``), for a deletion
  or a contraction of a matroid whose lattice is already built, with no
  closure at all.  The flats of M\\D are the traces G - D of the flats G of
  M, and the flats of M/C are the sets G - C for the flats G that contain C
  (Oxley, *Matroid Theory*, 2nd ed., ch. 3).  One walk of the parent in rank
  order keeps, for each trace T = G n K on the kept set K, the first flat it
  meets with that trace.  That flat is cl(T): cl(T) is a flat inside every
  flat G with trace T, and its own trace is T, since
  T <= cl(T) n K <= G n K = T.  Any other flat with trace T strictly
  contains cl(T) and so has a higher rank, which is why the first flat met
  is the least one.  Its rank is the rank of T in M\\D; in M/C the rank of
  G - C is r(G) - r(cl C).  The walk also gives the minor's **lift**, each
  flat F mapped to that least flat of M over it: F u C for M/C, cl(F) for
  M\\D (F on M's labels).  The minor adjoints read their images through it.

The build relies on M being a matroid, since only a matroid's closure gives
a geometric lattice; see ``Matroid`` for where the exchange axiom is checked.
"""
from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property

from .errors import ConstructionError, InputError, expect
from .matroid import Matroid, _squeeze, check_budget
from .sets import ElementSet, _trusted, bits


def _lift_walk(origin: tuple) -> tuple:
    """(least, masks, ends) of N = M/C or M\\D, given by its origin (M, removed
    mask, contracted), from one rank-order walk of M's lattice: ``least``
    maps each trace on the kept set to the least flat of M with it, ``masks``
    are the traces as flats of N, and ``ends`` is len(least) after each rank."""
    M, removed, contracted = origin
    keep = M._full & ~removed
    least: dict = {}  # trace on keep -> the first flat of M met with it
    ends = []
    for layer in M.flats().masks:
        if contracted:  # only the flats over C
            layer = [g for g in layer if not removed & ~g]
        for g in layer:
            least.setdefault(g & keep, g)
        ends.append(len(least))
    return least, _squeeze(least, removed), ends


class FlatLattice:
    """All flats of a matroid, grouped by rank; covers (the Hasse diagram) on demand.

    The one stored form is ``masks``: the flat masks by rank, each layer in
    lexicographic order.  ``flats_by_rank``, ``layer``, ``all_flats`` and
    ``canonical_order`` build ``ElementSet``s from it on each read.  It keeps
    the matroid's ``n`` and ``_minor_of``, not the matroid: the two form no cycle.
    """

    def __init__(self, n: int, masks: list, origin: tuple | None):
        # the top layer is the single rank-r flat, E: ``build`` makes it so by
        # theorem, and this guards the layers that ``of_minor`` reads off
        if len(masks[-1]) != 1:
            raise ConstructionError("expected a unique top flat")
        self.n = n
        self._origin = origin
        self.masks = tuple(masks)

    @classmethod
    def build(cls, M) -> "FlatLattice":
        """The lattice of M by closures, one per flat below the top: the
        covers of a flat already found are marked reached, so each closure
        gives a new flat of the next rank, and the top layer is (E,).  Each
        flat found is counted against the work budget."""
        expect(M, Matroid)
        n, closure = M.n, M._closure
        layers = [(closure(0),)]
        count = 2  # cl(empty), and E on top in rank >= 1
        for _ in range(1, M.full_rank):
            found = []  # the flats of the next rank, each closed once
            for f in layers[-1]:
                reached = f
                for g in found:
                    if not f & ~g:  # g covers f
                        reached |= g
                for e in range(n):
                    if not reached >> e & 1:
                        g = closure(f | 1 << e)
                        found.append(g)
                        reached |= g
                        count += 1
                        check_budget(count, "flat count")
            layers.append(tuple(sorted(found, key=bits)))
        if M.full_rank:
            layers.append((M._full,))
        return cls(n, layers, M._minor_of)

    @classmethod
    def of_minor(cls, N) -> tuple:
        """(lattice, least) of N = M/C or M\\D, off M's built lattice; the
        lattice is put on N with its lift.  A layer of M/C needs no sort: flats
        of one rank are not nested, so their order is fixed by the least element
        of their symmetric difference, which cutting C from both leaves as it is."""
        origin = N._minor_of
        least, masks, ends = _lift_walk(origin)
        # M's ranks below r(cl C), or above r(E - D), add no trace
        layers = [tuple(masks[i:j]) if origin[2] or j - i == 1 else tuple(sorted(masks[i:j], key=bits))
                  for i, j in zip([0] + ends, ends) if i < j]
        lattice = N._lattice = cls(N.n, layers, origin)
        lattice._lift = dict(zip(masks, least.values()))  # fills the cached property, so no second walk
        return lattice, least

    @property
    def flats_by_rank(self) -> tuple[tuple[ElementSet, ...], ...]:
        return tuple(map(self.layer, range(len(self.masks))))

    @cached_property
    def _lift(self) -> dict[int, int]:
        """``lift`` on masks; a lattice built by closures walks the parent on first read."""
        if self._origin is None:
            raise InputError("this lattice's matroid was not made by contract or delete, so its flats have no lift")
        least, masks, _ = _lift_walk(self._origin)
        return dict(zip(masks, least.values()))

    @property
    def lift(self) -> dict[int, ElementSet]:
        """Flat mask -> the least flat of the parent over it, for the lattice of
        a minor made by ``Matroid.contract`` (F u C) or ``Matroid.delete`` (cl(F))."""
        lift = self._lift
        return {f: _trusted(g, self._origin[0].n) for f, g in lift.items()}

    @property
    def hyperplane_masks(self) -> tuple[int, ...]:
        """The hyperplane masks, the rank-(r - 1) layer; empty in rank 0."""
        return self.masks[-2] if len(self.masks) > 1 else ()

    @cached_property
    def rank_by_mask(self) -> dict[int, int]:
        """Flat mask -> rank, computed on first read."""
        return {f: k for k, layer in enumerate(self.masks) for f in layer}

    @cached_property
    def canonical_masks(self) -> tuple[int, ...]:
        """All flat masks by size, then lexicographically.  Map files and the
        injectivity and modular-pair witnesses follow this order."""
        return tuple(sorted((f for layer in self.masks for f in layer), key=lambda f: (f.bit_count(), bits(f))))

    @cached_property
    def covers(self) -> dict[ElementSet, frozenset]:
        """Flat -> the flats covering it, computed on first read: the covers
        of F are the flats one rank up that contain F."""
        layers = self.flats_by_rank
        covers = {}
        for lower, upper in zip(layers, layers[1:]):
            for F in lower:
                f = F.mask
                covers[F] = frozenset(G for G in upper if not f & ~G.mask)
        covers[layers[-1][0]] = frozenset()
        return covers

    # -- queries ------------------------------------------------------------

    def layer(self, k: int) -> tuple[ElementSet, ...]:
        if k.__class__ is not int:
            raise InputError(f"expected int, got {type(k).__name__}")
        if k < 0 or k >= len(self.masks):
            raise InputError(f"no rank-{k} layer in a rank-{len(self.masks) - 1} lattice")
        return tuple(_trusted(f, self.n) for f in self.masks[k])

    def all_flats(self) -> Iterator[ElementSet]:
        for layer in self.flats_by_rank:
            yield from layer

    def canonical_order(self) -> tuple[ElementSet, ...]:
        """The flats in the order of ``canonical_masks``."""
        return tuple(_trusted(f, self.n) for f in self.canonical_masks)

    def flat_count(self) -> int:
        return sum(map(len, self.masks))

    def is_flat(self, F: ElementSet) -> bool:
        return (F.__class__ is ElementSet and F.universe == self.n
                and F.mask in self.rank_by_mask)

    def rank_of(self, F: ElementSet) -> int:
        if not self.is_flat(F):
            raise InputError(f"{F!r} is not a flat")
        return self.rank_by_mask[F.mask]

    def cover_count(self) -> int:
        return sum(len(c) for c in self.covers.values())


def hyperplane_chain(M, X: ElementSet) -> list:
    """Hyperplanes H_1, ..., H_{r-k} through the rank-k flat X, intersecting to X.

    The running intersections strictly decrease.  Greedy with lexicographic
    tie-breaking: each step takes the least hyperplane containing X that
    shrinks the running intersection, which drops the rank by exactly one.
    For X the ground set the chain is empty; ``greedy_chain`` finds it.
    """
    expect(M, Matroid)
    lattice = M.flats()
    if not lattice.is_flat(X):
        raise InputError(f"{X!r} is not a flat of {M!r}")
    k = lattice.rank_of(X)
    if k == M.full_rank:
        return []
    hyperplanes = lattice.hyperplane_masks
    return [_trusted(hyperplanes[i], M.n) for i in greedy_chain(M, hyperplanes, X.mask, k)]


def greedy_chain(M, hyperplanes: tuple, x: int, k: int) -> list:
    """The indices of ``hyperplane_chain(M, X)`` in ``hyperplanes``, the masks
    of M's hyperplanes in canonical order, for the rank-k flat X of mask x.

    One forward pass over the hyperplanes finds the greedy chain: a
    hyperplane passed over either misses X or contains the running
    intersection, both stay true as the intersection shrinks, and so the
    greedy's next step never takes an earlier one.  A ConstructionError
    means M is not a matroid: no hyperplane separates the running
    intersection from X, or the chain's length is not r - k.
    """
    running = M._full
    chain = []
    for i, h in enumerate(hyperplanes):
        if running == x:
            break
        if not x & ~h and running & ~h:
            chain.append(i)
            running &= h
    if running != x:
        raise ConstructionError(f"no hyperplane separates {_trusted(running, M.n)!r} from {_trusted(x, M.n)!r}")
    if len(chain) != M.full_rank - k:
        raise ConstructionError("hyperplane chain has the wrong length")
    return chain
