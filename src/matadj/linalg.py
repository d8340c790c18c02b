"""Exact linear algebra over GF(p) and the rationals.

Floating point is useless for deciding matroid independence, so elimination
is done with Python ints mod p or with fractions.Fraction.  Matrices are
lists of row tuples.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

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


def matrix_rank(rows, fld) -> int:
    """Rank by forward elimination: row echelon form, with no back substitution."""
    mat = [list(map(fld.coerce, row)) for row in rows]
    rank = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c] != fld.zero), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        inv = fld.inv(top[c])
        for i in range(rank + 1, len(mat)):
            if mat[i][c] != fld.zero:
                factor = fld.mul(mat[i][c], inv)
                mat[i] = [fld.sub(x, fld.mul(factor, y)) for x, y in zip(mat[i], top)]
        rank += 1
        if rank == len(mat):
            break
    return rank


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
