"""Matroids backed by explicit bases lists.

A matroid is stored as its ground-set size plus its bases, as int bitmasks;
matrices and other input formats are converted to bases at load time, so
there is a single source of truth for rank.  Rank and closure queries go to
one of two kernels, chosen by the number of bases (see ``Matroid``).  All
instances are immutable after construction (internal caches aside).
"""
from __future__ import annotations

from collections.abc import Iterable

from .errors import ConstructionError, InputError, expect
from .sets import ElementSet, Record, _set, bits, label_mask, set_mask

# The most sets (bases, flats or walked subsets) that one step may list or hold
WORK_BUDGET = 1 << 24

# A rank-r matroid with more than SCAN_LIMIT << r bases answers rank and
# closure from its table of basis holders; at or below it, by basis scans.
SCAN_LIMIT = 4

# The table of basis holders is built from at most this many bases at a
# time, which bounds the bytes packed at once.
HOLDER_CHUNK = 1 << 15

# Entry k is a bytes.translate table that maps each byte to its bit k, as
# the digit b"0" or b"1".
_BIT_DIGITS = tuple(bytes(48 + (v >> k & 1) for v in range(256)) for k in range(8))


def check_budget(count: int, what: str) -> None:
    """Refuse, naming ``what`` and ``count``, a step about to list or hold more than ``WORK_BUDGET`` sets."""
    if count > WORK_BUDGET:
        raise InputError(f"{what} {count:,} exceeds the work budget of {WORK_BUDGET:,}")


def exchange_fault(violation: tuple) -> str:
    """The message for a violation (B1, B2, e) of the basis-exchange axiom,
    as ``Matroid._check_exchange`` returns it."""
    b1, b2, e = violation
    return f"basis exchange fails for pair B1={bits(b1)}, B2={bits(b2)} at element {e}"


def checked_basis_masks(bases: Iterable, n: int) -> tuple:
    """The masks of a caller's bases, in order: label-checked, none listed twice."""
    masks: dict = {}
    for b in bases:
        mask = label_mask(b, n, "basis")
        if mask in masks:
            raise InputError(f"basis {bits(mask)} is listed more than once")
        masks[mask] = None
        check_budget(len(masks), "basis count")
    return tuple(masks)


class Matroid:
    """A matroid on ground set {0, ..., n-1} given by its bases.

    Every set is an int bitmask.  The bases are stored once, as the mask
    tuple ``_basis_masks``; ``bases`` (frozensets) is derived on demand.  The
    one rank cache maps a subset's mask to its rank, and the closure memo
    maps it to the mask of its closure.

    The table of basis holders ``_holders``, built on first use by
    ``_basis_holders``, serves both the exchange check and the rank and
    closure of large matroids.  Its entry f is an int bitset whose bit j is
    set when basis j holds f, so the bases that hold a set are the AND of
    its elements' entries, and the bases that miss it are the complement of
    their OR: one C-level operation on |B|-bit ints per element.  It takes n
    such ints; for U_4_8's covector target (56 points, 307,398 bases) that
    is 1.9 MB, built in about 0.1 s, and packing the bases ``HOLDER_CHUNK``
    at a time keeps the build's peak under tracemalloc at 6.4 MB.

    A cache miss goes to one of two kernels, chosen once per matroid by its
    number of bases.  With at most ``SCAN_LIMIT << r`` bases it scans them:
    r(S) is the largest |B n S|, and cl(S) is E minus the parts outside S of
    the bases that meet S in r(S) elements.  With more, ``_greedy`` takes
    the greedy independent subset I of S in label order, with the bitset
    ``held`` of the bases that hold I: e joins I when ``held & holders[e]``
    is nonzero, that is when some basis holds I + e, and ``held`` becomes
    that AND.  Then r(S) = |I|, and cl(S) is S plus every e with
    ``held & holders[e] == 0``; when |I| = r the one basis that holds I is
    I itself, so that is E.

    This is exact.  A set is independent exactly when some basis holds it,
    so e joins I exactly when I + e is independent.  Each element of S - I
    was refused because I, as it stood then, plus that element is
    dependent, and so is every superset, so I is a maximal independent
    subset of S; in a matroid every maximal independent subset of S has
    r(S) elements.  For e outside S, if I + e is independent then
    r(S + e) > r(S).  If r(S + e) > r(S), then I extends to an independent
    subset of S + e with r(S) + 1 elements, which must hold e and so is
    I + e.  Greedy rank is wrong on a family that is not a matroid's bases,
    so the greedy kernel runs only on a known matroid: ``_check_exchange``
    reads the table but no rank, and every caller of ``_unchecked`` passes
    a matroid by a theorem or, as search does in rank 4 and above, runs
    ``_check_exchange`` before any rank query.

    Cost: a scan is a Python loop over the bases per miss; a greedy miss is
    at most 2n ANDs of |B|-bit ints.  Small matroids stay on the scan: read
    through the table instead, the median op of the search and minor_sweep
    bench workloads, whose matroids have at most a few dozen bases, took 10
    to 12 % longer.

    The public constructor is the trust boundary.  It refuses a non-int,
    bool or negative ``n``, an ``n`` or a count of bases read past
    ``WORK_BUDGET`` (``n`` before the first basis is read), a basis that
    breaks the label rule of ``sets.label_mask``, a repeated basis, an empty
    family, bases of unequal sizes, and a family that fails the
    basis-exchange axiom, naming a violating pair.  That check costs |B| r
    dict updates plus one OR of table entries per element of each distinct
    exit set (``_check_exchange``).  ``_unchecked`` takes masks and checks
    none of this, for outputs that are matroids by a theorem: column
    matroids (``Representation.matroid``), by the Steinitz exchange lemma,
    the contraction, deletion, dual and simplification of a ``Matroid``, and
    search's freest adjoint target in rank at most 3.  The column matroid
    and the freest target check the budget on the subsets that their
    listings walk; the others are no larger than their parent.  In rank 4
    and above search calls ``_check_exchange`` on its candidate explicitly,
    and a refusal names the violating pair in the constructor's words
    (``exchange_fault``).
    """

    def __init__(self, n: int, bases: Iterable, provenance: dict | None = None):
        if type(n) is not int:
            raise InputError(f"ground-set size must be an integer, got {n!r}")
        if n < 0:
            raise InputError(f"ground-set size must be non-negative, got {n}")
        check_budget(n, "ground-set size")
        expect(bases, Iterable)
        masks = checked_basis_masks(bases, n)
        if not masks:
            raise InputError("a matroid needs at least one basis (use [[]] for rank 0)")
        sizes = {b.bit_count() for b in masks}
        if len(sizes) != 1:
            raise InputError(f"bases have unequal sizes {sorted(sizes)}")
        self._setup(n, masks, provenance)
        violation = self._check_exchange()
        if violation is not None:
            raise InputError(exchange_fault(violation))

    @classmethod
    def _unchecked(cls, n: int, masks: Iterable, provenance: dict | None = None) -> "Matroid":
        """A matroid whose distinct basis masks, at least one and all of one
        size, pass the exchange axiom by a theorem.

        Bases from outside the package never come here; they go through the
        public constructor.
        """
        matroid = cls.__new__(cls)
        matroid._setup(n, tuple(masks), provenance)
        return matroid

    def _setup(self, n: int, masks: tuple, provenance: dict | None) -> None:
        self.n = n
        self.full_rank = masks[0].bit_count()
        self.provenance = provenance
        self._full = (1 << n) - 1
        self._basis_masks = masks
        self._rank_cache: dict = {}  # subset mask -> rank
        self._closure_cache: dict = {}  # subset mask -> mask of its closure
        self._indexed = len(masks) > SCAN_LIMIT << self.full_rank  # which kernel answers a miss
        self._holders: tuple | None = None  # the table of basis holders, built on first use
        self._lattice = None
        self._minor_of = None  # (parent, removed mask, contracted), set by ``_minor``

    @property
    def bases(self) -> frozenset:
        """The bases as a frozenset of frozensets, derived from the masks."""
        return frozenset(frozenset(bits(b)) for b in self._basis_masks)

    def _basis_holders(self) -> tuple:
        """The table of basis holders: entry f has bit j set when basis j holds f.

        The bases are read in chunks of ``HOLDER_CHUNK``.  A chunk's masks are
        packed little-endian, ``width`` bytes each, last basis first; byte
        f >> 3 of every basis is one strided slice, whose bits f & 7
        ``translate`` spells as digits, the chunk's first basis last, so they
        parse in base 2.  Each parsed entry is ORed in at the chunk's offset,
        so the packed bytes never hold more than one chunk.
        """
        holders = self._holders
        if holders is None:
            n, masks = self.n, self._basis_masks
            width = (n + 7) >> 3
            table = [0] * n
            for start in range(0, len(masks), HOLDER_CHUNK):
                chunk = masks[start:start + HOLDER_CHUNK]
                packed = b"".join(b.to_bytes(width, "little") for b in reversed(chunk))
                for f in range(n):
                    table[f] |= int(packed[f >> 3::width].translate(_BIT_DIGITS[f & 7]), 2) << start
            holders = self._holders = tuple(table)
        return holders

    def _check_exchange(self) -> tuple | None:
        """The first violation of the basis-exchange axiom, or None if there is none.

        A violation is (B1, B2, e): bases B1 != B2 and e in B1 - B2 such that
        no f in B2 - B1 makes B1 - e + f a basis.  The masks are returned as
        they are; ``exchange_fault`` formats them into a message.

        For I = B1 - e, the exit set S(I) is the set of f that make I + f a
        basis; e is one of them.  (B1, B2, e) is a violation exactly when B2
        misses S(I): an f in both sets is not e, since e is not in B2, nor
        in I, since I + f would then have r - 1 elements.  So no B2 that
        holds e, B1 among them, misses S(I).  One pass over each basis B and
        its elements e adds e to S(B - e), which gives every exit set.  The
        bases that miss S are the complement of the OR of the table entries
        of its elements, and the lowest set bit is the first of them.  The
        first B1 with such a basis, paired with the least (basis index, e),
        is the violation that a scan of B1, then B2, then e, meets first.
        Cost: |B| r dict updates, plus one OR per element of each distinct
        exit set.
        """
        masks = self._basis_masks
        holders = self._basis_holders()
        exits: dict = {}  # I -> S(I), for each I = B - e
        for b in masks:
            rest = b
            while rest:
                low = rest & -rest
                rest ^= low
                exits[b ^ low] = exits.get(b ^ low, 0) | low
        everyone = (1 << len(masks)) - 1
        missing: dict = {}  # exit set -> bitset of the bases that miss it
        for b1 in masks:
            found = []
            for e in bits(b1):
                exit_set = exits[b1 ^ 1 << e]
                miss = missing.get(exit_set)
                if miss is None:
                    held = 0
                    for f in bits(exit_set):
                        held |= holders[f]
                    miss = missing[exit_set] = everyone ^ held
                if miss:
                    found.append(((miss & -miss).bit_length() - 1, e))
            if found:
                j, e = min(found)
                return b1, masks[j], e
        return None

    # -- basic queries ------------------------------------------------------

    def groundset(self) -> ElementSet:
        return ElementSet._trusted(self._full, self.n)

    def _rank(self, m: int) -> int:
        """Rank of the subset with mask m, through the rank cache."""
        r = self._rank_cache.get(m)
        if r is None:
            if self._indexed:
                r = self._greedy(m)[0].bit_count()
            else:
                bound = min(m.bit_count(), self.full_rank)
                r = 0
                for b in self._basis_masks:
                    k = (m & b).bit_count()
                    if k > r:
                        r = k
                        if r == bound:  # no basis meets S in more elements
                            break
            self._rank_cache[m] = r
        return r

    def _greedy(self, m: int) -> tuple:
        """(I, held): the greedy independent subset I of m, in label order,
        and the bitset of the bases that hold I, read off the table."""
        holders = self._basis_holders()
        r = self.full_rank
        held = (1 << len(self._basis_masks)) - 1
        ind = size = 0
        while m and size < r:
            low = m & -m
            m ^= low
            both = held & holders[low.bit_length() - 1]
            if both:
                held = both
                ind |= low
                size += 1
        return ind, held

    def _independent_part(self, m: int) -> int:
        """A maximal independent subset of m, grown greedily by label."""
        ind = size = 0
        for e in bits(m):
            if self._rank(ind | 1 << e) == size + 1:
                ind |= 1 << e
                size += 1
        return ind

    def rank(self, S: ElementSet) -> int:
        """Rank of S: the size of a largest independent subset of S."""
        return self._rank(set_mask(S, self.n))

    def _closure(self, m: int) -> int:
        """The mask of cl(S) for the subset with mask m, through the closure memo.

        On the scan path, one pass over the bases: e outside S raises the
        rank exactly when it lies in a basis B with |B n S| = r(S), so
        cl(S) = E - U{B - S : |B n S| = r(S)}.  On the table path, with I
        the greedy independent subset of S, cl(S) = S u {e : I + e dependent}.
        The result is recorded as its own closure too, so that asking whether
        it is a flat is one lookup.
        """
        c = self._closure_cache.get(m)
        if c is None:
            if self._indexed:
                ind, held = self._greedy(m)
                best = ind.bit_count()
                if best == self.full_rank:
                    c = self._full
                else:
                    c = m
                    for e, holder in enumerate(self._holders):
                        if not held & holder:
                            c |= 1 << e
            else:
                best = -1
                spanned = 0  # union of the bases that meet S in r(S) elements
                for b in self._basis_masks:
                    k = (m & b).bit_count()
                    if k > best:
                        best, spanned = k, b
                    elif k == best:
                        spanned |= b
                c = self._full & ~spanned | m
            self._rank_cache[m] = best
            self._closure_cache[m] = self._closure_cache[c] = c
        return c

    def closure(self, S: ElementSet) -> ElementSet:
        """cl(S): all elements whose addition leaves the rank of S unchanged."""
        return ElementSet._trusted(self._closure(set_mask(S, self.n)), self.n)

    def is_independent(self, S: ElementSet) -> bool:
        m = set_mask(S, self.n)
        return self._rank(m) == m.bit_count()

    def is_coindependent(self, S: ElementSet) -> bool:
        """True when removing S does not lower the matroid's rank."""
        return self._rank(self._full & ~set_mask(S, self.n)) == self.full_rank

    def is_simple(self) -> bool:
        """No loops, no parallel pairs: cl(empty) is empty and, with no loops,
        every singleton is its own closure, since cl({e}) holds e, the loops
        and the elements parallel to e."""
        return not self._closure(0) and all(self._closure(1 << e) == 1 << e for e in range(self.n))

    # -- flats --------------------------------------------------------------

    def flats(self):
        """The full lattice of flats (cached).  A minor made by ``contract``,
        ``delete``, ``restrict`` or ``simplify`` reads its lattice and lift off
        its parent's lattice, with no closure, when that is already built;
        every other matroid builds its own by closures.  Both give the same
        lattice, layers in the same order; see ``matadj.lattice``."""
        if self._lattice is None:
            origin = self._minor_of
            if origin is not None and origin[0]._lattice is not None:
                return lattice.FlatLattice.of_minor(self)[0]  # put on this matroid too
            self._lattice = lattice.FlatLattice.build(self)
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

    def _minor(self, op: str, m: int) -> "Matroid":
        """M/S or M\\S (``op`` "contract" or "delete") for the set S with mask
        m, relabeled densely (the map in provenance): a new minor on each call,
        which M keeps no reference to.  The bases are as in ``contract``, ``delete``.

        When some basis misses S, r(E - S) = r, so the bases of M\\S are the
        independent r-subsets of E - S, that is the bases of M that miss S:
        a deletion filters them, in M's order, with no rank query.  Else the
        bases are the distinct traces B n (E - S) of r(E - S) elements."""
        if op == "contract":
            ind = self._independent_part(m)
            masks = [b for b in self._basis_masks if b & m == ind]  # _squeeze cuts out ind
        else:
            masks = [b for b in self._basis_masks if not b & m]
            if not masks:  # S is codependent
                keep = self._full & ~m
                r2 = self._rank(keep)
                masks = dict.fromkeys([t for b in self._basis_masks if (t := b & keep).bit_count() == r2])
        relabel = {e: i for i, e in enumerate(bits(self._full & ~m))}  # dense, order-preserving
        provenance = {"op": op, "removed": bits(m), "relabel": relabel, "parent": self}
        result = Matroid._unchecked(self.n - m.bit_count(), _squeeze(masks, m), provenance)
        result._minor_of = (self, m, op == "contract")
        return result

    def contract(self, C: ElementSet) -> "Matroid":
        """M/C on ground set E-C, relabeled densely (map recorded in provenance).

        With I a maximal independent subset of C, the bases of M/C are the
        sets B - I for the bases B of M that meet C exactly in I.
        """
        return self._minor("contract", set_mask(C, self.n))

    def delete(self, D: ElementSet) -> "Matroid":
        """M\\D: the restriction to E-D, relabeled densely.

        Every independent subset of E-D extends to a basis of M, so the bases
        of M\\D are the sets B n (E-D) of r(E-D) elements, for bases B of M.
        """
        return self._minor("delete", set_mask(D, self.n))

    def restrict(self, S: ElementSet) -> "Matroid":
        """M|S, i.e. delete the complement of S."""
        return self._minor("delete", self._full & ~set_mask(S, self.n))

    def dual(self) -> "Matroid":
        return Matroid._unchecked(
            self.n,
            [self._full & ~b for b in self._basis_masks],
            provenance={"op": "dual", "parent": self},
        )

    def simplify(self) -> "Matroid":
        """Drop loops and keep the lowest-labeled member of each parallel class.

        The class map (element -> surviving representative) is recorded in
        provenance alongside the dense relabeling.  Both are read off
        closures: the loops are cl(empty), and the parallel class of a
        non-loop e is cl({e}) minus the loops.
        """
        loops = self._closure(0)
        class_map: dict = {}
        for e in bits(self._full & ~loops):
            parallel = self._closure(1 << e) & ~loops
            class_map[e] = (parallel & -parallel).bit_length() - 1
        reps = [e for e, rep in class_map.items() if e == rep]
        simple = self._minor("delete", self._full & ~sum(1 << e for e in reps))
        simple.provenance = {"op": "simplify", "loops": bits(loops), "class_map": class_map,
                             "relabel": simple.provenance["relabel"], "parent": self}
        return simple

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        """Labeled equality: same ground-set size, same bases."""
        if not isinstance(other, Matroid):
            return NotImplemented
        if self._basis_masks is other._basis_masks:  # e.g. two calls of Representation.matroid
            return self.n == other.n
        return self.n == other.n and frozenset(self._basis_masks) == frozenset(other._basis_masks)

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self._basis_masks)))

    def __repr__(self) -> str:
        return f"Matroid(n={self.n}, rank={self.full_rank}, bases={len(self._basis_masks)})"


def _squeeze(masks: Iterable[int], removed: int) -> list:
    """The relabeling of ``Matroid._minor`` on masks: cut out the bits of
    ``removed`` and shift the rest down, one pass per run of consecutive
    removed bits, the highest run first."""
    out = list(masks)
    while removed:
        top = removed.bit_length()  # the run ends below bit top
        low = (1 << (~removed & (1 << top) - 1).bit_length()) - 1  # the bits below the run
        width, high = top - low.bit_length(), ~low
        out = [b & low | b >> width & high for b in out]
        removed &= low
    return out


class MinorSpec(Record):
    """A minor designation M/contract\\delete; the two sets must be disjoint."""

    _fields = ("contract", "delete")

    def __init__(self, contract: ElementSet, delete: ElementSet):
        expect(contract, ElementSet)
        expect(delete, ElementSet)
        if contract.universe != delete.universe:
            raise InputError("contract and delete sets live on different ground sets")
        if not contract.isdisjoint(delete):
            raise InputError(f"contract and delete sets overlap on {(contract & delete).sorted()}")
        _set(self, "contract", contract)
        _set(self, "delete", delete)


def minor_normal_form(M: Matroid, spec: MinorSpec) -> MinorSpec:
    """Rewrite (C, D) so that C is independent and D is coindependent in M.

    The minor M/C'\\D' is the same labeled matroid as M/C\\D and C' u D' = C u D.
    Procedure: keep a greedy (by label) maximal independent subset of C and move
    the rest into the deletion side; then keep a greedy maximal coindependent
    subset of the enlarged deletion set and move the rest back to the
    contraction side.  The moved-back elements are coloops of the partial
    deletion, where contraction and deletion agree, so the minor is unchanged.
    """
    expect(M, Matroid)
    expect(spec, MinorSpec)
    c, d = _normal_form(M, set_mask(spec.contract, M.n), set_mask(spec.delete, M.n))
    return MinorSpec(ElementSet._trusted(c, M.n), ElementSet._trusted(d, M.n))


def _normal_form(M: Matroid, C: int, D: int) -> tuple:
    """``minor_normal_form`` on masks: the masks of C' and D'."""
    c_ind = M._independent_part(C)
    d0 = D | C & ~c_ind

    d_coind = 0
    for e in bits(d0):
        if M._rank(M._full & ~(d_coind | 1 << e)) == M.full_rank:
            d_coind |= 1 << e
    c_final = c_ind | d0 & ~d_coind

    if M._rank(c_final) != c_final.bit_count():
        raise ConstructionError(f"normal form produced dependent contraction set {bits(c_final)}")
    if M._rank(M._full & ~d_coind) != M.full_rank:
        raise ConstructionError(f"normal form produced codependent deletion set {bits(d_coind)}")
    return c_final, d_coind


def apply_minor(M: Matroid, spec: MinorSpec) -> Matroid:
    """M/C\\D: contract, then delete (delete set pushed through the relabeling)."""
    expect(M, Matroid)
    expect(spec, MinorSpec)
    m1 = M.contract(spec.contract)
    d_new = spec.delete.relabel(m1.provenance["relabel"], m1.n)
    return m1.delete(d_new)


from . import lattice  # noqa: E402  (last: lattice imports this module; ``flats`` reads it at call time)
