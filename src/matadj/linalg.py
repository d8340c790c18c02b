"""Exact linear algebra over GF(p) and the rationals, on one kernel.

Floating point is useless for deciding matroid independence, so everything
is exact.  A field is named by its characteristic ``char``: p for GF(p), 0
for the rationals; ``characteristic`` checks a field spec and returns it.
Vectors are lists of Python ints, and every row operation is a step of one
forward-elimination kernel, ``eliminate``: mod p over GF(p), fraction-free
over the rationals.  ``echelon`` runs it over a list of vectors, and rank
and the one null vector of a hyperplane (``null_vector``) are read off its
rows.  ``direction`` is the normal form of the line through a vector:
``null_vector`` ends with it, and the column-bases walk of ``matadj.search``
compares directions to find parallel columns.  ``Fraction`` appears only at
the rational boundary: ``integer_vector``
scales a rational vector by the lcm of its denominators on the way in, and
``Representation.covector`` returns a primitive int vector as ``Fraction``
values on the way out.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .errors import InputError


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
    Over GF(p) (``char`` = p) the entries are then taken mod p; over the
    rationals (``char`` = 0) v is divided by the gcd of its entries, so the
    ints stay small and no fraction is ever formed.  The result is zero
    exactly when ``vec`` lies in the span of the rows.
    """
    for pivot, row in echelon:
        x = vec[pivot]
        if x:
            a = row[pivot]
            vec = [a * v - x * e for v, e in zip(vec, row)]
            if char:
                vec = [v % char for v in vec]
            else:
                g = gcd(*vec)
                if g > 1:
                    vec = [v // g for v in vec]
    return vec


def leading_index(vec) -> Optional[int]:
    """The index of the first nonzero entry, or None for the zero vector."""
    return next((i for i, x in enumerate(vec) if x), None)


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


def null_vector(rows, dim: int, char: int) -> tuple:
    """The normal form of the nonzero x with row . x = 0 for every echelon row.

    ``rows`` come from ``echelon`` on vectors of length ``dim`` and have
    rank dim - 1, so the solutions form a line and exactly one coordinate is
    no row's pivot.  That coordinate is set to 1.  Each row is zero at the
    pivots of the rows found before it, so, taken in reverse order, every
    row's equation a*x[pivot] + s = 0, with a = row[pivot] and s the sum
    over the coordinates already set, is solved fraction-free: x <- a*x,
    then x[pivot] = -s.  The result is then scaled to the line's normal form,
    ``direction``.  The column bases of the covector target are listed from
    these tuples as they are (``matadj.search``).
    """
    pivots = {pivot for pivot, _ in rows}
    x = [0] * dim
    x[next(i for i in range(dim) if i not in pivots)] = 1
    for pivot, row in reversed(rows):
        s = sum(e * v for e, v in zip(row, x))
        x = [row[pivot] * v for v in x]
        x[pivot] = -s
    return direction(x, char)


def direction(vec, char: int) -> Optional[tuple]:
    """The normal form of the line through the int vector ``vec``, or None
    for the zero vector.

    Over GF(p) the entries are reduced into 0..p-1 and the first nonzero one
    is scaled to 1; over the rationals the vector is divided by the gcd of
    its entries, negated if its first nonzero entry is negative.  Two
    nonzero vectors have the same direction exactly when one is a nonzero
    multiple of the other.
    """
    if char:
        lead = next((x % char for x in vec if x % char), None)
        if lead is None:
            return None
        if lead == 1:
            return tuple(v % char for v in vec)
        inv = pow(lead, -1, char)
        return tuple(v * inv % char for v in vec)
    lead = next((x for x in vec if x), None)
    if lead is None:
        return None
    g = gcd(*vec)
    if lead < 0:
        g = -g
    return tuple(vec) if g == 1 else tuple(v // g for v in vec)
