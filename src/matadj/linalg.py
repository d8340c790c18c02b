"""Exact linear algebra over GF(p) and the rationals.

Floating point is useless for deciding matroid independence, so everything
is exact.  Rank and the bases of a column matroid come from one
forward-elimination kernel, ``eliminate``, on Python ints: mod p over GF(p),
and fraction-free over the rationals, after ``integer_vector`` has scaled
each vector by the lcm of its denominators.  ``rref``, ``nullspace`` and
covector normalisation, which need the reduced form itself, work in
``fractions.Fraction`` over the rationals.  Matrices are lists of row tuples.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Optional

from .errors import InputError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


class PrimeField:
    def __init__(self, p: int):
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
        self.p = p
        self.characteristic = p

    def coerce(self, x) -> int:
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def neg(self, a):
        return (-a) % self.p

    zero = 0
    one = 1

    def __repr__(self):
        return f"GF({self.p})"


class RationalField:
    characteristic = 0

    @staticmethod
    def coerce(x) -> Fraction:
        return Fraction(x)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def inv(a):
        return 1 / a

    @staticmethod
    def neg(a):
        return -a

    zero = Fraction(0)
    one = Fraction(1)

    def __repr__(self):
        return "QQ"


RATIONALS = RationalField()


def field_for(spec):
    """'rational' or a prime integer -> field object."""
    if spec == "rational":
        return RATIONALS
    if isinstance(spec, int):
        return PrimeField(spec)
    raise InputError(f"unknown field specification {spec!r}")


def rref(rows, fld):
    """Reduced row-echelon form; returns (rows, pivot_columns)."""
    mat = [list(map(fld.coerce, row)) for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != fld.zero), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = fld.inv(mat[r][c])
        mat[r] = [fld.mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != fld.zero:
                factor = mat[i][c]
                mat[i] = [fld.sub(x, fld.mul(factor, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def integer_vector(vec, fld) -> list:
    """``vec`` as Python ints, up to a nonzero scalar: over GF(p) each entry
    coerced into 0..p-1, over the rationals scaled by the lcm of the
    denominators.  Scaling a vector changes neither its span nor which sets
    of vectors are independent."""
    if fld.characteristic:
        return [fld.coerce(x) for x in vec]
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


def matrix_rank(rows, fld) -> int:
    """Rank by forward elimination: each row reduced against the echelon rows kept so far."""
    char = fld.characteristic
    echelon = []
    for row in rows:
        vec = eliminate(integer_vector(row, fld), echelon, char)
        pivot = leading_index(vec)
        if pivot is not None:
            echelon.append((pivot, vec))
    return len(echelon)


def nullspace(rows, fld):
    """Basis of {x : rows @ x = 0}, one vector per free column of the RREF."""
    if not rows:
        raise InputError("nullspace of an empty matrix is ambiguous; pass the dimension explicitly")
    ncols = len(rows[0])
    mat, pivots = rref(rows, fld)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [fld.zero] * ncols
        vec[fc] = fld.one
        for r, pc in enumerate(pivots):
            vec[pc] = fld.neg(mat[r][fc])
        basis.append(tuple(vec))
    return basis


def normalize_covector(vec, fld):
    """Canonical scaling: over GF(p) the first nonzero entry becomes 1; over
    the rationals, clear denominators, divide by the gcd, positive leading entry."""
    if all(x == fld.zero for x in vec):
        raise InputError("cannot normalize the zero vector")
    if isinstance(fld, PrimeField):
        lead = next(x for x in vec if x != fld.zero)
        inv = fld.inv(lead)
        return tuple(fld.mul(inv, x) for x in vec)
    fracs = [Fraction(x) for x in vec]
    denom_lcm = 1
    for f in fracs:
        denom_lcm = denom_lcm * f.denominator // gcd(denom_lcm, f.denominator)
    ints = [int(f * denom_lcm) for f in fracs]
    g = 0
    for x in ints:
        g = gcd(g, x)
    ints = [x // g for x in ints]
    lead = next(x for x in ints if x != 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(Fraction(x) for x in ints)
