"""Seeded input generator for the matadj benchmark.

Stdlib only and independent of matadj: it has its own exact rank, so the
program receives nothing but generated column vectors.  Each workload has a
fixed plan of slots ``(field, rank, n, hyperplanes, count)``.  The seed picks
the vectors inside each slot; the slot fixes the combinatorial size.  So every
seed asks for the same amount of work, up to rare coincidences among the
random points, and the seed-to-seed spread of the timings stays small.

A column set is accepted only when its vectors are distinct projective points
(the matroid is simple), they span the full rank (rank-deficient draws are
redrawn), and it has exactly the slot's number of hyperplanes.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

RATIONAL = "rational"
MAX_DRAWS = 20_000
ENTRY_RANGE = 4  # rational entries are integers in [-4, 4]

# Why each workload was chosen: one sentence each, also in BENCHMARK.json.
WHY = {
    "covector": "Covector adjoints of seeded rank-3/4 representations over GF(2), GF(3), GF(5) and Q, "
                "up to a U_3_7-sized target: the linalg, exchange-check and lattice layers do the work.",
    "minor_sweep": "Every minor with |C|+|D| <= 3 of the catalog maps and seeded sources, saved, reloaded and "
                   "verified: many cheap ops that share parent caches, so per-op overhead dominates.",
    "search": "search_adjoint on seeded rank-3 sources with 3 to 6 hyperplanes: the untrusted matroid "
              "constructor builds and rejects many tiny candidates.",
}

# (field, rank, n, hyperplanes, count).  40 ops, so the tail percentile is
# p75.  Classes are sized so that p50 (the 20th op by time) and p75 (the 30th)
# fall inside one class, away from its edges: 14 small ops, 12 median-class
# ops, 8 tail-class ops, then 6 heavy ops ending at the U_3_7-sized one.
COVECTOR_PLAN = (
    (3, 3, 5, 5, 4),
    (2, 3, 5, 6, 4),
    (3, 4, 5, 7, 3),
    (2, 3, 7, 7, 3),           # the Fano plane, relabelled
    (3, 3, 6, 9, 12),          # holds p50
    (3, 3, 7, 11, 8),          # holds p75
    (2, 4, 6, 10, 1),
    (RATIONAL, 4, 5, 10, 1),   # U_4_5
    (5, 3, 7, 13, 1),
    (5, 3, 7, 15, 1),
    (RATIONAL, 3, 6, 15, 1),   # U_3_6: 15-point target
    (RATIONAL, 3, 7, 21, 1),   # U_3_7: 21-point target, ~1,190 bases
)

# Parents of the minor sweep: the catalog maps (by name, so the sweep stays
# fixed if the catalog grows), then seeded sources.
MINOR_CATALOG = ("U_1_1", "U_1_2", "U_2_3", "U_2_4", "U_2_5", "U_3_4", "U_3_5", "U_3_6",
                 "M_K4", "fano", "nonfano")
MINOR_PLAN = (
    (3, 3, 6, 9, 1),
    (2, 4, 6, 10, 1),
)

# Rank-3 search sources, 80 ops; six hyperplanes is the default budget's cap.
# Each slot is one isomorphism class, so the seed changes only the labelling,
# and the labelling changes which candidates the search tries first: the
# five-hyperplane ops cost 30 to 60 ms depending on it.  The tail percentile
# (p75, the 60th op) therefore sits well inside a large five-hyperplane class,
# where the draw of labellings averages out, and p50 (the 40th op) inside the
# four-hyperplane class, whose ops all cost about the same.
SEARCH_PLAN = (
    (RATIONAL, 3, 3, 3, 2),    # U_3_3
    (5, 3, 3, 3, 2),
    (2, 3, 4, 4, 22),          # three collinear points and one more
    (3, 3, 4, 4, 20),
    (3, 3, 5, 5, 32),          # four collinear points and one more
    (2, 3, 5, 6, 1),           # two 3-point lines through a common point
    (RATIONAL, 3, 4, 6, 1),    # U_3_4
)

# Smoke-test scale: a few cheap slots of each kind.
TINY_PLANS = {
    "covector": ((2, 3, 5, 6, 1), (3, 4, 5, 7, 1), (RATIONAL, 3, 4, 6, 1)),
    "minor_sweep": ((2, 3, 4, 4, 1),),  # with catalog maps U_2_3 and U_2_4
    "search": ((2, 3, 4, 4, 2), (RATIONAL, 3, 3, 3, 1)),
}
PLANS = {"covector": COVECTOR_PLAN, "minor_sweep": MINOR_PLAN, "search": SEARCH_PLAN}


def rank(cols, field) -> int:
    """Exact rank of a list of vectors over GF(p) or the rationals."""
    if field == RATIONAL:
        rows = [[Fraction(x) for x in c] for c in cols]
    else:
        rows = [[x % field for x in c] for c in cols]
    width = len(rows[0]) if rows else 0
    rk = 0
    for c in range(width):
        piv = next((i for i in range(rk, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        top = rows[rk]
        for i in range(rk + 1, len(rows)):
            if rows[i][c] != 0:
                if field == RATIONAL:
                    f = rows[i][c] / top[c]
                    rows[i] = [x - f * y for x, y in zip(rows[i], top)]
                else:
                    f = rows[i][c] * pow(top[c], -1, field) % field
                    rows[i] = [(x - f * y) % field for x, y in zip(rows[i], top)]
        rk += 1
    return rk


def hyperplane_count(cols, field, r: int) -> int:
    """Number of rank-(r-1) flats, each found as the closure of a spanning (r-1)-set."""
    n = len(cols)
    found = set()
    for sub in combinations(range(n), r - 1):
        if rank([cols[i] for i in sub], field) != r - 1:
            continue
        found.add(frozenset(
            e for e in range(n) if rank([cols[i] for i in sub + (e,)], field) == r - 1
        ))
    return len(found)


def _point(rng: random.Random, field, r: int) -> tuple:
    """A random nonzero vector, scaled so that parallel vectors coincide."""
    while True:
        if field == RATIONAL:
            v = [rng.randint(-ENTRY_RANGE, ENTRY_RANGE) for _ in range(r)]
        else:
            v = [rng.randrange(field) for _ in range(r)]
        if any(v):
            break
    lead = next(x for x in v if x)
    if field == RATIONAL:
        g = 0
        for x in v:
            g = gcd(g, x)
        sign = -1 if lead < 0 else 1
        return tuple(sign * x // g for x in v)
    inv = pow(lead, -1, field)
    return tuple(x * inv % field for x in v)


def draw(rng: random.Random, field, r: int, n: int, hyperplanes: int) -> tuple:
    """n columns spanning rank r, simple, with exactly ``hyperplanes`` hyperplanes."""
    for _ in range(MAX_DRAWS):
        pts = []
        while len(pts) < n:
            p = _point(rng, field, r)
            if p not in pts:
                pts.append(p)
        if rank(pts, field) == r and hyperplane_count(pts, field, r) == hyperplanes:
            return tuple(pts)
    raise ValueError(f"no draw over {field} with rank {r}, n={n}, {hyperplanes} hyperplanes")


def generate(workload: str, seed: int, tiny: bool = False) -> list:
    """The workload's inputs in plan order: (field, rank, columns) triples,
    after the names of the catalog maps for the minor sweep."""
    plan = TINY_PLANS[workload] if tiny else PLANS[workload]
    rng = random.Random(f"{workload}:{seed}")
    out = []
    if workload == "minor_sweep":
        out += ["U_2_3", "U_2_4"] if tiny else list(MINOR_CATALOG)
    for field, r, n, hp, count in plan:
        for _ in range(count):
            out.append((field, r, draw(rng, field, r, n, hp)))
    return out
