"""Matroids backed by explicit bases lists.

A matroid is stored as its ground-set size plus the set of bases; every rank
or closure query reduces to intersections with bases.  Matrices and other
input formats are converted to bases at load time, so there is a single
source of truth for rank.

All instances are immutable after construction (internal caches aside) and
every operation is a pure function of its inputs.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

from .errors import ConstructionError, InputError
from .sets import ElementSet

DEFAULT_MAX_N = 16
_ENV_MAX_N = "MATADJ_MAX_N"


def max_ground_size() -> int:
    """Hard cap on ground-set size; override with the MATADJ_MAX_N env var."""
    raw = os.environ.get(_ENV_MAX_N)
    if raw is None:
        return DEFAULT_MAX_N
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"{_ENV_MAX_N} must be an integer, got {raw!r}") from exc


class Matroid:
    """A matroid on ground set {0, ..., n-1} given by its bases.

    The public constructor is the trust boundary: it validates the
    basis-exchange axiom, which costs O(|B|^2 r^2), and rejects families that
    fail it, naming a violating pair.  Every family from outside the package
    goes through it: the caller's bases, bases read from a file, and search
    candidates.  Constructions whose output is a matroid by a theorem use
    ``_unchecked``, which keeps the cheap shape checks and skips only the
    exchange check: the column matroid of a matrix (``Representation.matroid``,
    matrix files included), by the Steinitz exchange lemma, and the
    contraction, deletion, dual and simplification of an existing
    ``Matroid``, because these operations take matroids to matroids.
    """

    def __init__(self, n: int, bases: Iterable, provenance: Optional[dict] = None):
        self._setup(n, bases, provenance)
        self._check_exchange()

    @classmethod
    def _unchecked(cls, n: int, bases: Iterable, provenance: Optional[dict] = None) -> "Matroid":
        """A matroid whose bases satisfy the exchange axiom by a theorem.

        Bases from outside the package never come here; they go through the
        public constructor.
        """
        matroid = cls.__new__(cls)
        matroid._setup(n, bases, provenance)
        return matroid

    def _setup(self, n: int, bases: Iterable, provenance: Optional[dict]) -> None:
        cap = max_ground_size()
        if n < 0:
            raise InputError(f"ground-set size must be non-negative, got {n}")
        if n > cap:
            raise InputError(f"ground-set size {n} exceeds cap {cap} (set {_ENV_MAX_N} to raise)")
        bset = frozenset(frozenset(b) for b in bases)
        if not bset:
            raise InputError("a matroid needs at least one basis (use [[]] for rank 0)")
        sizes = {len(b) for b in bset}
        if len(sizes) != 1:
            raise InputError(f"bases have unequal sizes {sorted(sizes)}")
        for b in bset:
            for e in b:
                if not isinstance(e, int) or e < 0 or e >= n:
                    raise InputError(f"basis element {e!r} out of range for n={n}")
        self.n = n
        self.bases = bset
        self.full_rank = next(iter(sizes))
        self.provenance = provenance
        # bitmask mirrors of the bases for the hot paths (rank, exchange)
        self._basis_masks = [self._mask(b) for b in bset]
        self._basis_mask_set = frozenset(self._basis_masks)
        self._rank_cache: dict = {}
        self._minor_cache: dict = {}
        self._lattice = None

    @staticmethod
    def _mask(elements) -> int:
        m = 0
        for e in elements:
            m |= 1 << e
        return m

    def _check_exchange(self) -> None:
        masks = self._basis_masks
        mask_set = self._basis_mask_set
        for i, b1 in enumerate(masks):
            for b2 in masks:
                if b1 == b2:
                    continue
                only1 = b1 & ~b2
                only2 = b2 & ~b1
                rest = only1
                while rest:
                    ebit = rest & -rest
                    rest ^= ebit
                    base = b1 ^ ebit
                    cand = only2
                    while cand:
                        fbit = cand & -cand
                        cand ^= fbit
                        if base | fbit in mask_set:
                            break
                    else:
                        raise InputError(
                            "basis exchange fails for pair "
                            f"B1={sorted(self._bits(b1))}, B2={sorted(self._bits(b2))} "
                            f"at element {ebit.bit_length() - 1}"
                        )

    @staticmethod
    def _bits(mask: int):
        while mask:
            bit = mask & -mask
            mask ^= bit
            yield bit.bit_length() - 1

    # -- basic queries ------------------------------------------------------

    def groundset(self) -> ElementSet:
        return ElementSet.full(self.n)

    def _members(self, S: ElementSet) -> frozenset:
        if not isinstance(S, ElementSet):
            raise InputError(f"expected ElementSet, got {type(S).__name__}")
        if S.universe != self.n:
            raise InputError(f"set universe {S.universe} does not match ground-set size {self.n}")
        return S.members

    def _rank(self, fs: frozenset) -> int:
        r = self._rank_cache.get(fs)
        if r is None:
            m = self._mask(fs)
            bound = min(len(fs), self.full_rank)
            r = 0
            for b in self._basis_masks:
                k = (m & b).bit_count()
                if k > r:
                    r = k
                    if r == bound:  # no basis meets S in more elements
                        break
            self._rank_cache[fs] = r
        return r

    def rank(self, S: ElementSet) -> int:
        """Rank of S: the size of a largest independent subset of S."""
        return self._rank(self._members(S))

    def closure(self, S: ElementSet) -> ElementSet:
        """cl(S): all elements whose addition leaves the rank of S unchanged.

        One pass over the bases: e outside S raises the rank exactly when it
        lies in a basis B with |B n S| = r(S), so
        cl(S) = E - U{B - S : |B n S| = r(S)}.
        """
        fs = self._members(S)
        m = self._mask(fs)
        best = -1
        spanned = 0  # union of the bases that meet S in r(S) elements
        for b in self._basis_masks:
            k = (m & b).bit_count()
            if k > best:
                best, spanned = k, b
            elif k == best:
                spanned |= b
        self._rank_cache[fs] = best
        outside = spanned & ~m
        return ElementSet(frozenset(e for e in range(self.n) if not outside >> e & 1), self.n)

    def is_independent(self, S: ElementSet) -> bool:
        fs = self._members(S)
        return self._rank(fs) == len(fs)

    def is_coindependent(self, S: ElementSet) -> bool:
        """True when removing S does not lower the matroid's rank."""
        fs = self._members(S)
        return self._rank(frozenset(range(self.n)) - fs) == self.full_rank

    def is_simple(self) -> bool:
        """No loops, no parallel pairs."""
        for e in range(self.n):
            if self._rank(frozenset([e])) == 0:
                return False
        for e, f in combinations(range(self.n), 2):
            if self._rank(frozenset([e, f])) == 1:
                return False
        return True

    # -- flats --------------------------------------------------------------

    def flats(self):
        """The full lattice of flats (cached)."""
        if self._lattice is None:
            from .lattice import FlatLattice

            self._lattice = FlatLattice.build(self)
        return self._lattice

    def hyperplanes(self) -> tuple:
        """The rank-(r-1) flats in canonical lexicographic order.

        This order defines the point labels of any adjoint built from this
        matroid.  Rank-0 matroids have no hyperplanes and are refused.
        """
        if self.full_rank == 0:
            raise InputError("a rank-0 matroid has no hyperplanes")
        return self.flats().layer(self.full_rank - 1)

    # -- minors -------------------------------------------------------------

    def _relabel_out(self, removed: frozenset) -> dict:
        """Order-preserving dense relabeling of the surviving elements."""
        return {e: i for i, e in enumerate(sorted(frozenset(range(self.n)) - removed))}

    def contract(self, C: ElementSet) -> "Matroid":
        """M/C on ground set E-C, relabeled densely (map recorded in provenance)."""
        cfs = self._members(C)
        cached = self._minor_cache.get(("contract", cfs))
        if cached is not None:
            return cached
        basis_of_c: set = set()
        for e in sorted(cfs):
            if self._rank(frozenset(basis_of_c | {e})) == len(basis_of_c) + 1:
                basis_of_c.add(e)
        relabel = self._relabel_out(cfs)
        new_bases = set()
        for b in self.bases:
            if basis_of_c <= b and not (b - basis_of_c) & cfs:
                new_bases.add(frozenset(relabel[e] for e in b - basis_of_c))
        if not new_bases:
            new_bases = {frozenset()}
        result = Matroid._unchecked(
            self.n - len(cfs),
            new_bases,
            provenance={"op": "contract", "removed": sorted(cfs), "relabel": relabel, "parent": self},
        )
        self._minor_cache[("contract", cfs)] = result
        return result

    def delete(self, D: ElementSet) -> "Matroid":
        """M\\D: the restriction to E-D, relabeled densely."""
        dfs = self._members(D)
        cached = self._minor_cache.get(("delete", dfs))
        if cached is not None:
            return cached
        keep = sorted(frozenset(range(self.n)) - dfs)
        relabel = self._relabel_out(dfs)
        r2 = self._rank(frozenset(keep))
        new_bases = set()
        for comb in combinations(keep, r2):
            if self._rank(frozenset(comb)) == r2:
                new_bases.add(frozenset(relabel[e] for e in comb))
        if not new_bases:
            new_bases = {frozenset()}
        result = Matroid._unchecked(
            len(keep),
            new_bases,
            provenance={"op": "delete", "removed": sorted(dfs), "relabel": relabel, "parent": self},
        )
        self._minor_cache[("delete", dfs)] = result
        return result

    def restrict(self, S: ElementSet) -> "Matroid":
        """M|S, i.e. delete the complement of S."""
        return self.delete(S.complement())

    def dual(self) -> "Matroid":
        ground = frozenset(range(self.n))
        return Matroid._unchecked(
            self.n,
            {ground - b for b in self.bases},
            provenance={"op": "dual", "parent": self},
        )

    def simplify(self) -> "Matroid":
        """Drop loops and keep the lowest-labeled member of each parallel class.

        The class map (element -> surviving representative) is recorded in
        provenance alongside the dense relabeling.
        """
        loops = {e for e in range(self.n) if self._rank(frozenset([e])) == 0}
        class_map: dict = {}
        reps: list = []
        for e in range(self.n):
            if e in loops:
                continue
            for rep in reps:
                if self._rank(frozenset([rep, e])) == 1:
                    class_map[e] = rep
                    break
            else:
                reps.append(e)
                class_map[e] = e
        drop = frozenset(range(self.n)) - frozenset(reps)
        m = self.delete(ElementSet(drop, self.n))
        return Matroid._unchecked(
            m.n,
            m.bases,
            provenance={
                "op": "simplify",
                "loops": sorted(loops),
                "class_map": class_map,
                "relabel": m.provenance["relabel"],
                "parent": self,
            },
        )

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        """Labeled equality: same ground-set size, same bases."""
        if not isinstance(other, Matroid):
            return NotImplemented
        return self.n == other.n and self.bases == other.bases

    def __hash__(self) -> int:
        return hash((self.n, self.bases))

    def __repr__(self) -> str:
        return f"Matroid(n={self.n}, rank={self.full_rank}, bases={len(self.bases)})"


@dataclass(frozen=True)
class MinorSpec:
    """A minor designation M/contract\\delete; the two sets must be disjoint."""

    contract: ElementSet
    delete: ElementSet

    def __post_init__(self):
        if self.contract.universe != self.delete.universe:
            raise InputError("contract and delete sets live on different ground sets")
        if not self.contract.isdisjoint(self.delete):
            raise InputError(
                f"contract and delete sets overlap on {sorted(self.contract.members & self.delete.members)}"
            )


def minor_normal_form(M: Matroid, spec: MinorSpec) -> MinorSpec:
    """Rewrite (C, D) so that C is independent and D is coindependent in M.

    The minor M/C'\\D' is the same labeled matroid as M/C\\D and C' u D' = C u D.
    Procedure: keep a greedy (by label) maximal independent subset of C and move
    the rest into the deletion side; then keep a greedy maximal coindependent
    subset of the enlarged deletion set and move the rest back to the
    contraction side.  The moved-back elements are coloops of the partial
    deletion, where contraction and deletion agree, so the minor is unchanged.
    """
    C = M._members(spec.contract)
    D = M._members(spec.delete)
    ground = frozenset(range(M.n))

    c_ind: set = set()
    for e in sorted(C):
        if M._rank(frozenset(c_ind | {e})) == len(c_ind) + 1:
            c_ind.add(e)
    d0 = D | (C - c_ind)

    d_coind: set = set()
    for e in sorted(d0):
        if M._rank(ground - d_coind - {e}) == M.full_rank:
            d_coind.add(e)
    c_final = c_ind | (d0 - d_coind)

    result = MinorSpec(ElementSet(frozenset(c_final), M.n), ElementSet(frozenset(d_coind), M.n))
    if not M.is_independent(result.contract):
        raise ConstructionError(f"normal form produced dependent contraction set {sorted(c_final)}")
    if not M.is_coindependent(result.delete):
        raise ConstructionError(f"normal form produced codependent deletion set {sorted(d_coind)}")
    return result


def apply_minor(M: Matroid, spec: MinorSpec) -> Matroid:
    """M/C\\D: contract, then delete (delete set pushed through the relabeling)."""
    m1 = M.contract(spec.contract)
    d_new = spec.delete.relabel(m1.provenance["relabel"], m1.n)
    return m1.delete(d_new)
