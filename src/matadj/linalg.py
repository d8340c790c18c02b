"""Exact matrices, from entries through elimination to the covector adjoint.

Floating point is useless for deciding matroid independence, so everything
is exact.  A field is named by its characteristic ``char``: p for GF(p), 0
for the rationals; ``characteristic`` checks a field spec and returns it.
Vectors are lists of Python ints, and every row operation is a step of one
forward-elimination kernel, ``eliminate``: mod p over GF(p), fraction-free
over the rationals.  ``echelon`` runs it over a list of vectors, and rank
is read off its rows.  ``direction`` is the normal form of the line through
a vector.

``Representation`` checks and parses its columns once (``_entry``),
restates rank-r columns on r rows once (``_reduced``), lists the bases of
its column matroid by a walk that completes (r - 2)-prefixes by 2x2 minors
(``_column_bases``), and finds the covector of a hyperplane by the same
design: an (r - 2)-prefix, one 2x2 cofactor, back-substitution (``_covector``).
``adjoint_from_representation`` builds the classical covector adjoint: its
target is the column matroid of the hyperplanes' covectors on those r rows.
``Fraction`` appears only at the rational boundary: ``_entry`` parses to
it, ``integer_vector`` scales a rational vector by the lcm of its
denominators on the way in, and ``Representation.covector`` returns a
primitive int vector as ``Fraction`` values on the way out.
"""
from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul

from .adjoint import AdjointMap, _induced, verify_adjoint
from .errors import ConstructionError, InputError, expect
from .matroid import Matroid, check_budget
from .sets import ElementSet, Record, _set, bits, label_mask, set_mask


# Miller-Rabin on these bases decides primality exactly for every n below
# PRIME_BOUND (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 86, 2017)
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Whether n is prime, by deterministic Miller-Rabin on ``PRIME_BASES``.

    The answer is exact for n below ``PRIME_BOUND``; a larger n is refused
    with ``InputError``, never answered by a probable-prime test.
    """
    if n >= PRIME_BOUND:
        raise InputError(f"{n} is too large: primality is decided only below {PRIME_BOUND}")
    if n < 2:
        return False
    for a in PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def characteristic(spec) -> int:
    """The characteristic of a field spec: p for a prime int p, 0 for 'rational'."""
    if spec == "rational":
        return 0
    if isinstance(spec, bool) or not isinstance(spec, int):
        raise InputError(f"unknown field specification {spec!r}")
    if not is_prime(spec):
        raise InputError(f"{spec} is not prime")
    return spec


def integer_vector(vec, char: int) -> list:
    """``vec`` as Python ints, up to a nonzero scalar: over GF(p) each entry
    reduced into 0..p-1, over the rationals scaled by the lcm of the
    denominators.  Scaling a vector changes neither its span nor which sets
    of vectors are independent."""
    if char:
        return [x % char for x in vec]
    fracs = [Fraction(x) for x in vec]
    scale = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (scale // f.denominator) for f in fracs]


def eliminate(vec: list, echelon, char: int) -> list:
    """Forward elimination of the int vector ``vec`` against ``echelon``.

    ``echelon`` is a sequence of (pivot, row) pairs in the order they were
    found, each row zero at the pivots of the rows before it, as the vectors
    this function returns are.  Each step is v <- a*v - x*e, with a = e[pivot]
    and x = v[pivot], which zeroes v[pivot] and keeps the earlier pivots zero.
    Over GF(p) (``char`` = p) each entry of the combination is taken mod p
    as it is formed, in the same pass; over the rationals (``char`` = 0) v
    is then divided by the gcd of its entries, so the ints stay small and
    no fraction is ever formed.  The result is zero exactly when ``vec``
    lies in the span of the rows.
    """
    for pivot, row in echelon:
        x = vec[pivot]
        if x:
            a = row[pivot]
            if char:
                vec = [(a * v - x * e) % char for v, e in zip(vec, row)]
            else:
                vec = [a * v - x * e for v, e in zip(vec, row)]
                g = gcd(*vec)
                if g > 1:
                    vec = [v // g for v in vec]
    return vec


def leading_index(vec) -> int | None:
    """The index of the first nonzero entry, or None for the zero vector."""
    for i, x in enumerate(vec):
        if x:
            return i
    return None


def echelon(vectors, char: int) -> list:
    """The (pivot, row) pairs of forward elimination on int vectors: each
    vector reduced by ``eliminate`` against the rows kept so far, and kept,
    pivoted at its first nonzero entry, unless it reduces to zero.  The rows
    span what ``vectors`` span, and their number is its rank."""
    rows = []
    for vec in vectors:
        vec = eliminate(vec, rows, char)
        pivot = leading_index(vec)
        if pivot is not None:
            rows.append((pivot, vec))
    return rows


def direction(vec, char: int) -> tuple | None:
    """The normal form of the line through the int vector ``vec``, or None
    for the zero vector.

    Over GF(p) the entries are reduced into 0..p-1 and the first nonzero one
    is scaled to 1; over the rationals the vector is divided by the gcd of
    its entries, negated if its first nonzero entry is negative.  Two
    nonzero vectors have the same direction exactly when one is a nonzero
    multiple of the other.  ``_column_bases`` needs none: in a plane of two
    coordinates, a zero 2x2 minor tells parallel vectors apart.
    """
    if char:
        for lead in vec:
            lead %= char
            if lead:
                break
        else:
            return None
        inv = pow(lead, -1, char)
        return tuple([v * inv % char for v in vec])
    lead = leading_index(vec)
    if lead is None:
        return None
    g = gcd(*vec)
    if vec[lead] < 0:
        g = -g
    return tuple(vec) if g == 1 else tuple(v // g for v in vec)


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
    elimination kernel, ``eliminate``.  The first call of ``matroid`` keeps
    them restated on r rows (``_reduced``), which the covector adjoint reads.
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
        _set(self, "_reduced_vectors", None)
        _set(self, "_basis_masks", None)  # both set by the first call of matroid

    @property
    def n(self) -> int:
        return len(self.columns)

    def rank_of(self, indices) -> int:
        """The rank of the columns with the given labels: a collection of
        non-bool ints in range, none repeated."""
        label_mask(indices, self.n, "column set")
        return len(echelon([self._vectors[i] for i in indices], self._char))

    def matroid(self, provenance: dict | None = None) -> Matroid:
        """The column matroid: its bases are the r-sets of independent columns.

        Columns of rank r with more coordinates are first restated on the r
        nonzero rows of their echelon form (``_reduced``); a row operation
        keeps every linear relation among the columns.  The bases are then
        listed by one depth-first walk over the columns, which extends a
        prefix of chosen columns by each later column in turn.  Every later
        column is kept reduced against the prefix's echelon rows, one
        ``eliminate`` step per column and extension, and a column that
        reduces to zero depends on the prefix, so the walk skips that
        subtree.  In rank 2 and above the walk stops at prefixes of r - 2
        columns.  A reduced column w is zero at their r - 2 pivots, so it
        lies in the plane of the two other coordinates a and b, which meets
        the prefix's span only in 0 (a nonzero combination of echelon rows
        is nonzero at the pivot of the first row it uses).  So two later
        columns j < k complete the prefix to a basis exactly when w_j and
        w_k are independent: when w_j[a]*w_k[b] - w_j[b]*w_k[a] is nonzero
        (mod p).  The last reduction computes only a and b, with no gcd
        division.  The r-subsets come in lexicographic order, that of
        ``combinations``.

        The walk runs on the int vectors of the columns (over the rationals,
        each scaled by the lcm of its denominators, which changes no set's
        independence), so the fraction-free elimination is exact.  The masks
        are kept: each later call wraps them in a fresh ``Matroid`` with the
        caller's provenance.  The first call checks the work budget on the
        C(n, r) subsets before the walk, and a refusal keeps no bases.
        """
        if self._basis_masks is None:
            _set(self, "_reduced_vectors", _reduced(self._vectors, self._char))
            _set(self, "_basis_masks", _column_bases(self._reduced_vectors, self._char))
        return Matroid._unchecked(self.n, self._basis_masks, provenance=provenance)

    def covector(self, H: ElementSet) -> tuple:
        """The canonical linear functional vanishing on the columns of H, an
        ``ElementSet`` on the column labels whose columns span a hyperplane
        of F^dim; columns of any other rank have no unique one, and are
        refused.  With r = dim, ``_covector`` reduces H's columns in label
        order (``eliminate``), skips those that reduce to zero, and keeps
        the first r - 2 others as prefix rows.  The next, w, is zero at their
        pivots, so on the other two coordinates a and b the seed x[a] = w[b],
        x[b] = -w[a] is nonzero with w . x = 0.  In reverse order each prefix
        row, zero at the pivots of the rows before it, has c*x[pivot] + s = 0
        (c = row[pivot], s over the coordinates set) solved fraction-free by
        x <- c*x, x[pivot] = -s; w and the later rows are zero there.  So x
        vanishes on a spanning set of H's columns.  Rank 1 gives (1,).  The
        normal form (``direction``): over GF(p) first nonzero entry 1, over
        the rationals a primitive integer vector, as ``Fraction`` values,
        with positive first nonzero entry.
        """
        h = set_mask(H, self.n)
        free = self.dim - len(echelon([self._vectors[e] for e in bits(h)], self._char))
        if free != 1:
            if not h:
                raise InputError("covector space of the empty set is not 1-dimensional")
            raise InputError(f"covector space of {H!r} has dimension {free}, expected 1")
        x = _covector(self._vectors, self.dim, h, self._char)
        return x if self._char else tuple(map(Fraction, x))


def _covector(vectors: list, r: int, h: int, char: int) -> tuple:
    """``Representation.covector`` as ints, of the columns with mask h of the int vectors
    ``vectors`` in F^r, which span a hyperplane; a lower rank raises ``ConstructionError``."""
    if r == 1:
        return (1,)
    rows, free = [], list(range(r))
    for e in bits(h):
        w = eliminate(vectors[e], rows, char)
        pivot = leading_index(w)
        if pivot is None:
            continue
        if len(rows) < r - 2:
            rows.append((pivot, w))
            free.remove(pivot)
            continue
        a, b = free
        x = [0] * r
        x[a], x[b] = w[b], -w[a]
        for pivot, row in reversed(rows):
            s = sum(map(mul, row, x))
            x = [row[pivot] * v for v in x]
            x[pivot] = -s
        return direction(x, char)
    raise ConstructionError(f"columns {ElementSet._trusted(h, len(vectors))!r} have rank below {r - 1}")


def _reduced(vectors: list, char: int) -> list:
    """The int columns restated on the r nonzero rows of their echelon form,
    r being their rank; as they are when they have r coordinates."""
    rows = [row for _, row in echelon(list(zip(*vectors)), char)]
    if vectors and len(rows) < len(vectors[0]):
        return list(zip(*rows)) or [()] * len(vectors)
    return vectors


def _column_bases(vectors: list, char: int) -> tuple:
    """The masks of the bases of the column matroid of the int vectors
    ``vectors``, whose rank r is their length, over the field of
    characteristic ``char``, in lexicographic order: each (r - 2)-prefix
    completed by 2x2 minors, as ``Representation.matroid`` proves.  The walk visits at most the
    C(n, r) r-subsets of the n columns, a count checked against the work budget first."""
    r = len(vectors[0]) if vectors else 0
    check_budget(comb(len(vectors), r), f"column subset count C({len(vectors)}, {r}) =")
    masks = []

    def walk(mask: int, need: int, free: tuple, rest: list) -> None:
        # rest: (label, column reduced against the prefix) after the prefix;
        # free: the need coordinates that are no pivot of the prefix
        if need == 2:
            # the last two columns: a nonzero 2x2 minor
            a, b = free
            pairs = [(1 << j, w[a], w[b]) for j, w in rest if w[a] or w[b]]
            for k, (bit, x, y) in enumerate(pairs):
                first = mask | bit
                if char:
                    masks.extend([first | c for c, u, v in pairs[k + 1:] if (x * v - y * u) % char])
                else:
                    masks.extend([first | c for c, u, v in pairs[k + 1:] if x * v != y * u])
            return
        for k in range(len(rest) - need + 1):
            j, vec = rest[k]
            pivot = leading_index(vec)
            if pivot is None:
                continue
            if need == 1:
                masks.append(mask | 1 << j)
                continue
            left = tuple(i for i in free if i != pivot)
            if need == 3:
                # only the two free coordinates, with no reduction
                a, b = left
                e, ea, eb = vec[pivot], vec[a], vec[b]
                later = [(i, (e * w[a] - w[pivot] * ea, e * w[b] - w[pivot] * eb)) for i, w in rest[k + 1:]]
                left = (0, 1)
            else:
                row = ((pivot, vec),)
                later = [(i, eliminate(w, row, char)) for i, w in rest[k + 1:]]
            walk(mask | 1 << j, need - 1, left, later)

    if r == 0:
        masks.append(0)
    else:
        walk(0, r, tuple(range(r)), list(enumerate(vectors)))
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
    # the covectors, in the field's normal form, are the target's columns, on
    # the r rows that rep.matroid() kept; the hyperplanes meet only in cl(0),
    # so the covectors span F^r, as _column_bases needs
    covectors = [_covector(rep._reduced_vectors, M.full_rank, h, rep._char) for h in hyperplanes]
    target = Matroid._unchecked(len(hyperplanes), _column_bases(covectors, rep._char),
                                provenance={"op": "covector-adjoint"})
    phi = _induced(M, target, [(h, 1 << i) for i, h in enumerate(hyperplanes)])
    report = verify_adjoint(phi)
    if not report.valid:
        raise ConstructionError(f"covector construction failed verification:\n{report.summary()}")
    return phi
