"""Named fixture matroids, each the column matroid of its representation.

The catalog is the desk-scale test bed: small uniform matroids, the graphic
matroid of K4, the Fano plane over GF(2), and the non-Fano matroid over the
rationals.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .errors import InputError
from .linalg import Representation
from .matroid import Matroid
from .sets import Record, _set


class CatalogEntry(Record):
    _fields = ("name", "matroid", "representation")

    def __init__(self, name: str, matroid: Matroid, representation: Representation | None):
        _set(self, "name", name)
        _set(self, "matroid", matroid)
        _set(self, "representation", representation)


def uniform(r: int, n: int, name: str | None = None) -> Matroid:
    """U_{r,n}: every r-subset is a basis."""
    if type(r) is not int or type(n) is not int:
        raise InputError(f"uniform matroid needs integers r and n, got r={r!r}, n={n!r}")
    if r < 0 or r > n:
        raise InputError(f"uniform matroid needs 0 <= r <= n, got r={r}, n={n}")
    return Matroid(
        n,
        combinations(range(n), r),
        provenance={"op": "named", "name": name or f"U_{r}_{n}"},
    )


def _vandermonde(r: int, n: int) -> Representation:
    cols = tuple(tuple(t ** k for k in range(r)) for t in range(n))
    return Representation("rational", cols, r)


def _fano_columns() -> tuple[tuple, ...]:
    # columns are the binary digits of 1..7; the first three are collinear
    return tuple(tuple((v >> k) & 1 for k in (2, 1, 0)) for v in range(1, 8))


def _k4_columns() -> tuple[tuple, ...]:
    # edges of K4 as e_u - e_v, coordinate of vertex 3 dropped
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    cols = []
    for u, v in edges:
        w = [0] * 3
        if u < 3:
            w[u] = 1
        if v < 3:
            w[v] = -1
        cols.append(tuple(w))
    return tuple(cols)


@lru_cache(maxsize=1)
def catalog() -> tuple[CatalogEntry, ...]:
    reps = (
        ("U_1_1", _vandermonde(1, 1)),
        ("U_1_2", Representation("rational", ((1,), (1,)), 1)),
        ("U_2_3", Representation(2, ((1, 0), (0, 1), (1, 1)), 2)),
        ("U_2_4", _vandermonde(2, 4)),
        ("U_2_5", _vandermonde(2, 5)),
        ("U_3_4", _vandermonde(3, 4)),
        ("U_3_5", _vandermonde(3, 5)),
        ("U_3_6", _vandermonde(3, 6)),
        ("M_K4", Representation("rational", _k4_columns(), 3)),
        ("fano", Representation(2, _fano_columns(), 3)),
        ("nonfano", Representation("rational", _fano_columns(), 3)),
    )
    return tuple(CatalogEntry(name, rep.matroid(provenance={"op": "named", "name": name}), rep)
                 for name, rep in reps)


def by_name(name: str) -> CatalogEntry:
    for entry in catalog():
        if entry.name == name:
            return entry
    raise InputError(f"no catalog matroid named {name!r}")
