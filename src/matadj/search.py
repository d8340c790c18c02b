"""Adjoint fixtures: construction from matrix representations, and search.

Two independent routes to an adjoint:

* ``adjoint_from_representation`` builds the classical covector adjoint of a
  representable matroid: each hyperplane's covector is the (1-dimensional)
  space of linear functionals vanishing on its columns, and the target is
  the matroid of those covectors.
* ``search_adjoint`` needs only the bases.  In rank at most 3 it builds the
  target directly from the hyperplanes through each point of M.  In rank 4
  and above it enumerates simple rank-r candidate targets on the hyperplane
  label set, in a fixed order, and returns the first one whose map, induced
  by the identity bijection from hyperplanes to labels, verifies.  A budget
  refusal is reported as not-exhausted, never as a negative answer.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Tuple

from .adjoint import AdjointMap, induced_map, verify_adjoint
from .errors import ConstructionError, InputError
from .linalg import characteristic, echelon, eliminate, integer_vector, leading_index, null_vector
from .matroid import Matroid
from .sets import ElementSet


def _entry(x, char: int):
    """One matrix entry as a field element: over GF(p) an int reduced into
    0..p-1, over the rationals a ``Fraction``."""
    exact = not isinstance(x, bool)
    if char:
        if exact and isinstance(x, int):
            return x % char
        raise InputError(f"bad matrix entry {x!r}: over GF({char}) an entry must be an integer")
    if exact and isinstance(x, (int, Fraction, str)):
        # Fraction expands an exponent into a full int: "1e4000000" is 10 bytes
        # that take seconds and megabytes to read
        if isinstance(x, str) and ("e" in x or "E" in x):
            raise InputError(f"bad matrix entry {x!r}: exponent notation is not accepted")
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad matrix entry {x!r}: {exc}") from exc
    raise InputError(f"bad matrix entry {x!r}: over the rationals an entry must be "
                     "an integer, a Fraction or a string such as '1/2'")


@dataclass(frozen=True)
class Representation:
    """Columns over GF(p) (``field`` a prime int) or the rationals (``field='rational'``).

    The field and every entry are checked once, here.  Over GF(p) an entry
    must be an int, and is stored reduced into 0..p-1.  Over the rationals
    it must be an int, a ``Fraction`` or a string that ``Fraction`` parses,
    such as "1/2" or "0.1", but not in exponent notation such as "1e5", and
    is stored as a ``Fraction``.  Bools and floats are refused over every
    field: a float has usually already lost the value that was meant.  Each
    column is also kept as an int vector (``integer_vector``) for the
    elimination kernel of ``matadj.linalg``.
    """

    field: object
    columns: Tuple[tuple, ...]
    dim: int

    def __post_init__(self):
        char = characteristic(self.field)
        for col in self.columns:
            if len(col) != self.dim:
                raise InputError(f"column {col!r} does not have dimension {self.dim}")
        columns = tuple(tuple(_entry(x, char) for x in col) for col in self.columns)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "_char", char)
        object.__setattr__(self, "_vectors", [integer_vector(col, char) for col in columns])

    @property
    def n(self) -> int:
        return len(self.columns)

    def rank_of(self, indices) -> int:
        return len(echelon([self._vectors[i] for i in indices], self._char))

    def matroid(self, provenance: Optional[dict] = None) -> Matroid:
        """The column matroid: its bases are the r-sets of independent columns.

        The bases are listed by one depth-first walk over the columns, which
        extends a prefix of chosen columns by each later column in turn.  Every
        column after the prefix is kept reduced against the prefix's echelon
        rows, so extending the prefix by one column costs one ``eliminate``
        step per later column.  A column that reduces to zero depends on the
        prefix, and every set holding both is dependent, so the walk never
        enters that subtree.  The walk emits the r-subsets in lexicographic
        order, the order of ``itertools.combinations``.

        The walk runs on the int vectors of the columns: over the rationals
        each column is scaled by the lcm of its denominators.  Scaling a
        column by a nonzero scalar changes no set's independence, so the
        matroid is the same, and the fraction-free elimination on ints that
        follows is exact.
        """
        char = self._char
        masks = []

        def walk(mask: int, need: int, rest: list) -> None:
            # rest: (label, column reduced against the prefix) after the prefix
            for k in range(len(rest) - need + 1):
                j, vec = rest[k]
                pivot = leading_index(vec)
                if pivot is None:
                    continue
                if need == 1:
                    masks.append(mask | 1 << j)
                    continue
                row = ((pivot, vec),)
                walk(mask | 1 << j, need - 1, [(i, eliminate(w, row, char)) for i, w in rest[k + 1:]])

        r = len(echelon(self._vectors, char))
        if r == 0:
            masks.append(0)
        else:
            walk(0, r, list(enumerate(self._vectors)))
        return Matroid._unchecked(self.n, masks, provenance=provenance)

    def covector(self, H: ElementSet) -> tuple:
        """The canonical linear functional vanishing on the columns of H.

        The solution space must be 1-dimensional, which holds exactly when H
        spans a hyperplane of the column space.  Its one line is spanned by
        ``null_vector`` of the echelon rows of H's columns, in normal form:
        over GF(p) ints with first nonzero entry 1, over the rationals a
        primitive integer vector, as ``Fraction`` values, with positive first
        nonzero entry.
        """
        rows = echelon([self._vectors[e] for e in H], self._char)
        free = self.dim - len(rows)
        if free != 1:
            if not H:
                raise InputError("covector space of the empty set is not 1-dimensional")
            raise InputError(f"covector space of {H!r} has dimension {free}, expected 1")
        x = null_vector(rows, self.dim, self._char)
        return tuple(x) if self._char else tuple(map(Fraction, x))


def adjoint_from_representation(M: Matroid, rep: Representation) -> AdjointMap:
    """The covector adjoint of a represented matroid; verified before returning."""
    if M.full_rank < 1:
        raise InputError("adjoint construction needs rank at least 1")
    if rep.matroid() != M:
        raise InputError("representation does not match the matroid's bases")
    hyperplanes = M.hyperplanes()
    covectors = [rep.covector(H) for H in hyperplanes]
    target_rep = Representation(rep.field, tuple(covectors), rep.dim)
    target = target_rep.matroid(provenance={"op": "covector-adjoint"})
    bij = {H: i for i, H in enumerate(hyperplanes)}
    phi = induced_map(M, target, bij)
    report = verify_adjoint(phi)
    if not report.valid:
        raise ConstructionError(
            f"covector construction failed verification:\n{report.summary()}"
        )
    return phi


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchBudget:
    """Caps on the family enumeration that ``search_adjoint`` runs in rank 4 and above."""

    max_hyperplanes: int = 6
    max_candidates: int = 200_000

    def __post_init__(self):
        for name in ("max_hyperplanes", "max_candidates"):
            value = getattr(self, name)
            if type(value) is not int or value < 0:
                raise InputError(f"{name} must be a non-negative integer, got {value!r}")


@dataclass(frozen=True)
class SearchResult:
    found: Optional[AdjointMap]
    exhausted: bool
    candidates_examined: int
    diagnostic: Optional[str] = None


def _cover_mask(labels, m: int) -> int:
    """Bit i*m + j for each pair i < j of labels.  A family that covers every
    pair is simple: it covers every label too, and for r = 1 forces m = 1."""
    return sum(1 << i * m + j for i, j in combinations(labels, 2))


def search_adjoint(M: Matroid, budget: SearchBudget = SearchBudget()) -> SearchResult:
    """Find an adjoint of M: by construction in rank at most 3, by enumeration above.

    A rank-0 matroid has the empty adjoint, and the search is exhausted.  In
    rank 1 to 3 the adjoint is built without search (``_low_rank_adjoint``)
    and counts as one candidate.  In rank 4 and above the candidate families
    are enumerated (``_enumerate_families``) within ``budget``, which caps
    only that enumeration.
    """
    r = M.full_rank
    if r == 0:
        target = Matroid(0, [()])
        phi = AdjointMap(M, target, {M.closure(M.groundset()): ElementSet.empty(0)})
        return SearchResult(phi, True, 1)
    if r <= 3:
        return SearchResult(_low_rank_adjoint(M), False, 1)
    return _enumerate_families(M, budget)


def _low_rank_adjoint(M: Matroid) -> AdjointMap:
    """The adjoint of a matroid of rank 1 to 3, built directly; verified before returning.

    Label the hyperplanes H_i in canonical order.  For each point p (rank-1
    flat) of M the block P(p) is the set of labels i with p inside H_i.  The
    target's bases are the r-subsets of labels that lie inside no block.

    The target is a simple rank-r matroid by a theorem, so it is built
    with ``_unchecked``.  In rank 1 the one label gives U_1_1.  In rank 2 each
    block is the one label of p itself, which gives U_2_m.  In rank 3 the H_i
    are lines, and two distinct lines meet in at most one point, so two
    labels share at most one block.  The blocks of two or more labels, with
    every pair of labels that shares no block, are then the lines of a
    linear space on the labels, and the triples off its lines are the bases
    of a simple rank-3 matroid.  The lines of M meet only in cl(0), so no
    block holds every label and the rank is 3.  Every rank-3 matroid thus has
    an adjoint (Cheung, "Adjoints of a geometry", Canad. Math. Bull. 17, 1974).

    Each point lies on at least two lines, and an adjoint must give P(p)
    rank r - 1 = 2, so in every adjoint on these labels each triple inside a
    block is dependent.  Here exactly those triples are, so this target has
    the most bases of all of them: it is the first that an enumeration by
    number of bases descending would accept.
    """
    r = M.full_rank
    hyperplanes = M.hyperplanes()
    blocks = [sum(1 << i for i, H in enumerate(hyperplanes) if p <= H) for p in M.flats().layer(1)]
    subsets = [sum(1 << i for i in c) for c in combinations(range(len(hyperplanes)), r)]
    target = Matroid._unchecked(
        len(hyperplanes), [s for s in subsets if all(s & ~block for block in blocks)]
    )
    phi = induced_map(M, target, {H: i for i, H in enumerate(hyperplanes)})
    report = verify_adjoint(phi)
    if not report.valid:
        raise ConstructionError(f"rank-{r} construction failed verification:\n{report.summary()}")
    return phi


def _enumerate_families(M: Matroid, budget: SearchBudget) -> SearchResult:
    """Find an adjoint of M of rank r >= 1 by exhausting candidate targets.

    Candidates are simple rank-r matroids on the hyperplane labels, ordered
    by number of bases descending and then lexicographically.  Each is built
    from masks, exchange-checked by an explicit call, and tried once, under
    the identity bijection H_i -> i: every relabelling of a candidate is
    itself a candidate, so no other bijection can succeed where all
    identities fail.  ``exhausted`` is True only when the whole space was
    covered, so a budget refusal can never be read as non-existence.
    """
    r = M.full_rank
    hyperplanes = M.hyperplanes()
    m = len(hyperplanes)
    if m > budget.max_hyperplanes:
        return SearchResult(
            None, False, 0,
            f"{m} hyperplanes exceeds the budget cap of {budget.max_hyperplanes}",
        )

    # an adjoint must satisfy r'(P(F)) = r - r(F), where P(F) is the mask of
    # the labels of the hyperplanes containing F; small P(F) first, as they
    # fail soonest
    forced = sorted(
        ((r - k, sum(1 << i for i, H in enumerate(hyperplanes) if F <= H))
         for k, layer in enumerate(M.flats().flats_by_rank) for F in layer),
        key=lambda t: t[0],
    )
    bij = {H: i for i, H in enumerate(hyperplanes)}

    # (basis mask, cover mask) of each r-subset of labels, in lexicographic order
    members = [(sum(1 << i for i in c), _cover_mask(c, m)) for c in combinations(range(m), r)]
    all_pairs = _cover_mask(range(m), m)
    examined = 0
    for size in range(len(members), 0, -1):
        for chosen in combinations(members, size):
            covered = 0
            for _, cover in chosen:
                covered |= cover
            if covered != all_pairs:
                continue
            candidate = Matroid._unchecked(m, [b for b, _ in chosen])
            if candidate._check_exchange() is not None:
                continue
            examined += 1
            if examined > budget.max_candidates:
                return SearchResult(
                    None, False, examined - 1,
                    f"candidate budget of {budget.max_candidates} exhausted",
                )
            if any(candidate._rank(pts) != want for want, pts in forced):
                continue
            phi = induced_map(M, candidate, bij)
            if verify_adjoint(phi).valid:
                return SearchResult(phi, False, examined)
    return SearchResult(None, True, examined)
