"""The geometric lattice of flats of a matroid.

Flats are enumerated level by level: the rank-0 flat is cl(empty), and the
flats covering a flat F are exactly the closures cl(F u {e}) for e outside F.
The sets G - F, for G covering F, partition E - F, so each cover is closed
once: an element that already lies in a cover found for F is skipped.  This
avoids closing all 2^n subsets; the exhaustive version lives in the test
suite as an independent oracle.

The build relies on M being a matroid, since only a matroid's closure gives
a geometric lattice, but it does not check the exchange axiom itself.  That
is checked where bases enter from outside the package: by the public
``Matroid`` constructor (bases files too), and by an explicit call on each
search candidate.  Column matroids and the minors, duals and simplifications
of a ``Matroid`` are matroids by a theorem and skip it; see ``Matroid``.
"""
from __future__ import annotations

from typing import Dict, Iterator, Tuple

from .errors import ConstructionError, InputError
from .sets import ElementSet, bits


class FlatLattice:
    """All flats of a matroid, grouped by rank, with cover (Hasse) structure."""

    def __init__(self, owner, flats_by_rank: Tuple[Tuple[ElementSet, ...], ...],
                 covers: Dict[ElementSet, frozenset]):
        self.owner = owner
        self.flats_by_rank = flats_by_rank
        self.covers = covers
        # flat mask -> rank; the flats all live on the owner's ground set
        self.rank_by_mask = {
            f.mask: k for k, layer in enumerate(flats_by_rank) for f in layer
        }
        self._canonical = None

    @classmethod
    def build(cls, M) -> "FlatLattice":
        bottom = M.closure(ElementSet.empty(M.n))
        layers = [(bottom,)]
        covers: Dict[ElementSet, frozenset] = {}
        current = [bottom]
        for _ in range(M.full_rank):
            nxt = set()
            for F in current:
                cov = set()
                reached = F.mask
                for e in range(M.n):
                    if not reached >> e & 1:
                        G = M.closure(F.add(e))
                        cov.add(G)
                        reached |= G.mask
                covers[F] = frozenset(cov)
                nxt |= cov
            current = sorted(nxt, key=lambda f: f.key)
            layers.append(tuple(current))
        # top layer is the single rank-r flat (the ground set's closure)
        if len(layers[-1]) != 1:
            raise ConstructionError("expected a unique top flat")
        covers[layers[-1][0]] = frozenset()
        return cls(M, tuple(layers), covers)

    # -- queries ------------------------------------------------------------

    def layer(self, k: int) -> Tuple[ElementSet, ...]:
        if k < 0 or k >= len(self.flats_by_rank):
            raise InputError(f"no rank-{k} layer in a rank-{len(self.flats_by_rank) - 1} lattice")
        return self.flats_by_rank[k]

    def all_flats(self) -> Iterator[ElementSet]:
        for layer in self.flats_by_rank:
            yield from layer

    def canonical_order(self) -> Tuple[ElementSet, ...]:
        """All flats by size, then lexicographically (cached).  Map files and
        the injectivity and modular-pair witnesses follow this order."""
        if self._canonical is None:
            self._canonical = tuple(sorted(self.all_flats(), key=lambda f: (len(f), f.key)))
        return self._canonical

    def flat_count(self) -> int:
        return sum(len(layer) for layer in self.flats_by_rank)

    def is_flat(self, F: ElementSet) -> bool:
        return (F.__class__ is ElementSet and F.universe == self.owner.n
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
    For X the ground set the chain is empty.
    """
    lattice = M.flats()
    if not lattice.is_flat(X):
        raise InputError(f"{X!r} is not a flat of {M!r}")
    k = lattice.rank_of(X)
    if k == M.full_rank:
        return []
    hyperplanes = M.hyperplanes()
    chain = []
    x = X.mask
    running = M.groundset().mask
    while running != x:
        for H in hyperplanes:
            h = H.mask
            if not x & ~h and running & ~h:
                chain.append(H)
                running &= h
                break
        else:
            raise ConstructionError(
                f"no hyperplane separates {ElementSet.of(bits(running), M.n)!r} from {X!r}"
            )
    if len(chain) != M.full_rank - k:
        raise ConstructionError("hyperplane chain has the wrong length")
    return chain
