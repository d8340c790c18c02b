"""Adjoint fixtures: construction from matrix representations, and search.

Two independent routes to an adjoint: ``adjoint_from_representation`` builds
the classical covector adjoint of a representable matroid, whose target is
the matroid of the hyperplanes' covectors (the linear functionals vanishing
on their columns), and ``search_adjoint`` builds one candidate from the
bases alone, the freest target on the hyperplane labels.
"""
from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .adjoint import AdjointMap, _induced, verify_adjoint
from .errors import ConstructionError, InputError, expect
from .linalg import characteristic, direction, echelon, eliminate, integer_vector, leading_index, null_vector
from .matroid import Matroid, check_ground_size
from .sets import ElementSet, Record, _set, bits, label_mask, set_mask


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


class Representation(Record):
    """Columns over GF(p) (``field`` a prime int) or the rationals (``field='rational'``).

    The field, ``dim`` (an int >= 0), the columns (an iterable of tuples or
    lists of ``dim`` entries) and every entry are checked once, here.  Over
    GF(p) an entry must be an int, stored reduced into 0..p-1.  Over the
    rationals it must be an int, a ``Fraction`` or a string that ``Fraction``
    parses, such as "1/2" or "0.1" but not "1e5", stored as a ``Fraction``.
    Bools and floats, which have usually lost the value meant, are refused.
    Each column is also kept as an int vector (``integer_vector``) for the
    elimination kernel of ``matadj.linalg``.  The column bases are
    listed once per representation, on the first call of ``matroid``.
    """

    _fields = ("field", "columns", "dim")

    def __init__(self, field, columns: Iterable, dim: int):
        char = characteristic(field)
        if type(dim) is not int or dim < 0:
            raise InputError(f"dimension must be a non-negative integer, got {dim!r}")
        expect(columns, Iterable)
        columns = tuple(columns)
        for col in columns:
            if not isinstance(col, (tuple, list)):
                raise InputError(f"column {col!r} is not a tuple or list of entries")
            if len(col) != dim:
                raise InputError(f"column {col!r} does not have dimension {dim}")
        columns = tuple(tuple(_entry(x, char) for x in col) for col in columns)
        _set(self, "field", field)
        _set(self, "columns", columns)
        _set(self, "dim", dim)
        _set(self, "_char", char)
        _set(self, "_vectors", [integer_vector(col, char) for col in columns])
        _set(self, "_basis_masks", None)  # set by the first call of matroid

    @property
    def n(self) -> int:
        return len(self.columns)

    def rank_of(self, indices) -> int:
        """The rank of the columns with the given labels: a collection of
        non-bool ints in range, none repeated."""
        label_mask(indices, self.n, "column set")
        return len(echelon([self._vectors[i] for i in indices], self._char))

    def matroid(self, provenance: Optional[dict] = None) -> Matroid:
        """The column matroid: its bases are the r-sets of independent columns.

        The bases are listed by one depth-first walk over the columns, which
        extends a prefix of chosen columns by each later column in turn.
        Every later column is kept reduced against the prefix's echelon
        rows, one ``eliminate`` step per column and extension, and a column
        that reduces to zero depends on the prefix, so the walk skips that
        subtree.  In rank 2 and above the walk stops at prefixes of r - 2
        columns: two later columns complete such a prefix to a basis exactly
        when both are nonzero and not parallel, once reduced.  (A reduced
        column is zero at every pivot of the prefix's rows, and a nonzero
        combination of echelon rows is nonzero at the pivot of the first row
        it uses, so a reduced column lies in the span of the prefix and
        another reduced column u exactly when it is a multiple of u.)  So
        each later column costs one ``direction`` per (r - 2)-prefix.  The
        r-subsets come in lexicographic order, that of ``combinations``.

        The walk runs on the int vectors of the columns (over the rationals,
        each scaled by the lcm of its denominators, which changes no set's
        independence), so the fraction-free elimination is exact.  The masks
        are kept: each later call wraps them in a fresh ``Matroid`` with the
        caller's provenance.  The ground-size cap is checked on every call.
        """
        check_ground_size(self.n)
        if self._basis_masks is None:
            _set(self, "_basis_masks", _column_bases(self._vectors, self._char))
        return Matroid._unchecked(self.n, self._basis_masks, provenance=provenance)

    def covector(self, H: ElementSet) -> tuple:
        """The canonical linear functional vanishing on the columns of H, an
        ``ElementSet`` on the column labels that spans a hyperplane of the
        column space, so that the solution space is 1-dimensional.  Its one
        line is spanned by ``null_vector`` of the echelon rows of H's
        columns, in normal form: over GF(p) ints with first nonzero entry 1,
        over the rationals a primitive integer vector, as ``Fraction``
        values, with positive first nonzero entry.
        """
        x = self._null_vector(set_mask(H, self.n))
        return x if self._char else tuple(map(Fraction, x))

    def _null_vector(self, h: int) -> tuple:
        """``covector`` as ints of the set with mask h, which lies on the columns."""
        rows = echelon([self._vectors[e] for e in bits(h)], self._char)
        free = self.dim - len(rows)
        if free != 1:
            if not h:
                raise InputError("covector space of the empty set is not 1-dimensional")
            raise InputError(f"covector space of {ElementSet._trusted(h, self.n)!r} has dimension {free}, expected 1")
        return null_vector(rows, self.dim, self._char)


def _column_bases(vectors: list, char: int) -> tuple:
    """The masks of the bases of the column matroid of the int vectors
    ``vectors`` over the field of characteristic ``char``, in lexicographic
    order; see ``Representation.matroid``."""
    masks = []

    def finish(mask: int, rest: list) -> None:
        # the last two columns: both nonzero, in different parallel classes
        classes: dict = {}
        labelled = []
        for j, vec in rest:
            line = direction(vec, char)
            if line is not None:
                labelled.append((1 << j, classes.setdefault(line, len(classes))))
        for k, (bit, c) in enumerate(labelled):
            first = mask | bit
            masks.extend([first | b for b, d in labelled[k + 1:] if d != c])

    def walk(mask: int, need: int, rest: list) -> None:
        # rest: (label, column reduced against the prefix) after the prefix
        if need == 2:
            finish(mask, rest)
            return
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

    r = len(echelon(vectors, char))
    if r == 0:
        masks.append(0)
    else:
        walk(0, r, list(enumerate(vectors)))
    return tuple(masks)


def adjoint_from_representation(M: Matroid, rep: Representation) -> AdjointMap:
    """The covector adjoint of a represented matroid; verified before returning."""
    expect(M, Matroid)
    expect(rep, Representation)
    if M.full_rank < 1:
        raise InputError("adjoint construction needs rank at least 1")
    if rep.matroid() != M:
        raise InputError("representation does not match the matroid's bases")
    hyperplanes = M.flats().masks[M.full_rank - 1]
    # the covectors are the columns of the target: listed from their int
    # vectors, which are already in the field's normal form
    check_ground_size(len(hyperplanes))
    covectors = [rep._null_vector(h) for h in hyperplanes]
    target = Matroid._unchecked(len(hyperplanes), _column_bases(covectors, rep._char),
                                provenance={"op": "covector-adjoint"})
    phi = _induced(M, target, [(h, 1 << i) for i, h in enumerate(hyperplanes)])
    report = verify_adjoint(phi)
    if not report.valid:
        raise ConstructionError(f"covector construction failed verification:\n{report.summary()}")
    return phi


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

class SearchResult(Record):
    _fields = ("found", "exhausted", "candidates_examined", "diagnostic")

    def __init__(self, found: Optional[AdjointMap], exhausted: bool, candidates_examined: int,
                 diagnostic: Optional[str] = None):
        _set(self, "found", found)
        _set(self, "exhausted", exhausted)
        _set(self, "candidates_examined", candidates_examined)
        _set(self, "diagnostic", diagnostic)


def search_adjoint(M: Matroid) -> SearchResult:
    """Find an adjoint of M from its bases: the freest target, in every rank.

    A rank-0 matroid has the empty adjoint, and the search is exhausted.  In
    rank 1 and above the one candidate is the freest target
    (``_freest_target``), tried under the identity bijection H_i -> i.  In
    rank at most 3 it is an adjoint by a theorem; in rank 4 and above it is
    exchange-checked, checked for simplicity and verified, and a failure is
    reported in ``diagnostic`` with ``exhausted`` False: this search tries no
    other candidate, so a failure is never a negative answer.
    """
    expect(M, Matroid)
    r = M.full_rank
    if r == 0:
        target = Matroid(0, [()])
        phi = AdjointMap(M, target, {M.closure(M.groundset()): ElementSet.empty(0)})
        return SearchResult(phi, True, 1)
    hyperplanes = M.flats().masks[r - 1]
    target = _freest_target(M, hyperplanes)
    fault = _fault(target) if r >= 4 else None
    if fault is None:
        phi = _induced(M, target, [(h, 1 << i) for i, h in enumerate(hyperplanes)])
        report = verify_adjoint(phi)
        if report.valid:
            return SearchResult(phi, False, 1)
        if r <= 3:
            raise ConstructionError(f"rank-{r} construction failed verification:\n{report.summary()}")
        fault = f"fails verification, first at {report.violations[0]}"
    return SearchResult(
        None, False, 1,
        f"the freest rank-{r} target on {len(hyperplanes)} hyperplane labels {fault}; "
        "no other candidate is tried, so this does not show that M has no adjoint",
    )


def _fault(target: Optional[Matroid]) -> Optional[str]:
    """Why a freest target of rank 4 or more cannot be tried, or None if it can."""
    if target is None:
        return "has no bases"
    if target._check_exchange() is not None:
        return "is not a matroid"
    if not target.is_simple():
        return "is not simple"
    return None


def _freest_target(M: Matroid, hyperplanes: tuple) -> Optional[Matroid]:
    """The freest candidate adjoint target of M, on the labels of the
    hyperplane masks ``hyperplanes``.

    Label the hyperplanes H_i in canonical order, and for a flat F let P(F)
    be the set of labels i with F inside H_i.  An adjoint sends F to a flat
    of rank r - r(F) that holds exactly the points P(F), so every basis S of
    an adjoint's target on these labels meets each P(F) in at most
    r - r(F) labels.  The freest target's bases are all the r-subsets of
    labels, in ``combinations`` order, within those limits: it contains
    every adjoint target on these labels.  A limit binds only when
    |P(F)| > r - r(F); a hyperplane's P is its own label, so the flats of
    rank 1 to r - 2 suffice.  None when no r-subset is within the limits.

    The ground-size cap is checked before the C(m, r) subsets are listed,
    and the target is built with ``_unchecked``: in rank at most 3 it is a
    simple rank-r matroid by a theorem.  Rank 1 gives U_1_1 and rank 2,
    with no limits, U_2_m.  In rank 3 only the points bind: S is dependent
    exactly when it lies in P(p) for a point p.  The H_i are lines, and two distinct lines meet in at most one
    point, so two labels share at most one P(p).  The P(p) of two or more
    labels, with every pair of labels that shares none, are then the lines
    of a linear space on the labels, and the triples off its lines are the
    bases of a simple rank-3 matroid.  The lines of M meet only in cl(0),
    so no P(p) holds every label and the rank is 3.  Every rank-3 matroid
    thus has an adjoint (Cheung, "Adjoints of a geometry", Canad. Math.
    Bull. 17, 1974).  In rank 4 and above the family need not be a
    matroid's bases, so the caller checks it.
    """
    r = M.full_rank
    m = len(hyperplanes)
    check_ground_size(m)
    limits = []  # (P(F) as a mask of labels, r - r(F))
    for k, layer in enumerate(M.flats().masks[1:r - 1], start=1):
        for f in layer:
            block = sum(1 << i for i, h in enumerate(hyperplanes) if not f & ~h)
            if block.bit_count() > r - k:
                limits.append((block, r - k))
    bases = []
    for c in combinations(range(m), r):
        s = sum(1 << i for i in c)
        for block, cap in limits:
            if (s & block).bit_count() > cap:
                break
        else:
            bases.append(s)
    return Matroid._unchecked(m, bases) if bases else None
