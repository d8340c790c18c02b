"""Adjoint search from the bases alone.

``search_adjoint`` builds one candidate adjoint of a matroid from its bases:
the freest target on the labels of its hyperplanes, in every rank.  In rank
at most 3 it is an adjoint by a theorem; in rank 4 and above it is checked
before it is tried.
"""
from __future__ import annotations

from itertools import combinations
from math import comb

from .adjoint import AdjointMap, _blocks, _induced, verify_adjoint
from .errors import ConstructionError, expect
from .matroid import Matroid, check_budget
from .sets import Record, _set


class SearchResult(Record):
    _fields = ("found", "exhausted", "candidates_examined", "diagnostic")

    def __init__(self, found: AdjointMap | None, exhausted: bool, candidates_examined: int,
                 diagnostic: str | None = None):
        _set(self, "found", found)
        _set(self, "exhausted", exhausted)
        _set(self, "candidates_examined", candidates_examined)
        _set(self, "diagnostic", diagnostic)


def search_adjoint(M: Matroid) -> SearchResult:
    """Find an adjoint of M from its bases: the freest target, in every rank.

    The one candidate is the freest target (``_freest_target``), tried
    under the identity bijection H_i -> i.  In rank at most 3 it is an
    adjoint by a theorem; in rank 0 it is the empty adjoint, the only one,
    so that search alone is exhausted.  In rank 4 and above it is
    exchange-checked, checked for simplicity and verified, and a failure is
    reported in ``diagnostic`` with ``exhausted`` False: this search tries no
    other candidate, so a failure is never a negative answer.
    """
    expect(M, Matroid)
    r = M.full_rank
    hyperplanes = M.flats().hyperplane_masks
    target = _freest_target(M, hyperplanes)
    fault = _fault(target) if r >= 4 else None
    if fault is None:
        phi = _induced(M, target, [(h, 1 << i) for i, h in enumerate(hyperplanes)])
        report = verify_adjoint(phi)
        if report.valid:
            return SearchResult(phi, r == 0, 1)
        if r <= 3:
            raise ConstructionError(f"rank-{r} construction failed verification:\n{report.summary()}")
        fault = f"fails verification, first at {report.violations[0]}"
    return SearchResult(
        None, False, 1,
        f"the freest rank-{r} target on {len(hyperplanes)} hyperplane labels {fault}; "
        "no other candidate is tried, so this does not show that M has no adjoint",
    )


def _fault(target: Matroid | None) -> str | None:
    """Why a freest target of rank 4 or more cannot be tried, or None if it can."""
    if target is None:
        return "has no bases"
    if target._check_exchange() is not None:
        return "is not a matroid"
    if not target.is_simple():
        return "is not simple"
    return None


def _freest_target(M: Matroid, hyperplanes: tuple) -> Matroid | None:
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

    The loop visits exactly the C(m, r) subsets, and the work budget is
    checked on that count before the first one.  The target is built with
    ``_unchecked``: in rank at most 3 it is a simple rank-r matroid by a
    theorem.  Rank 0 gives U_0_0, rank 1 U_1_1 and rank 2, with no limits,
    U_2_m.  In rank 3 only the points bind: S is dependent exactly when it
    lies in P(p) for a point p.  The H_i are lines, and two distinct lines
    meet in at most one point, so two labels share at most one P(p).  The
    P(p) of two or more labels, with every pair of labels that shares none,
    are then the lines of a linear space on the labels, and the triples off
    its lines are the bases of a simple rank-3 matroid.  The lines of M meet
    only in cl(0), so no P(p) holds every label and the rank is 3.  Every
    rank-3 matroid thus has an adjoint (Cheung, "Adjoints of a geometry",
    Canad. Math. Bull. 17, 1974).  In rank 4 and above the family need
    not be a matroid's bases, so the caller checks it.
    """
    r = M.full_rank
    m = len(hyperplanes)
    check_budget(comb(m, r), f"label subset count C({m}, {r}) =")
    layers = _blocks(M.n, [(h, 1 << i) for i, h in enumerate(hyperplanes)], M.flats().masks[1:r - 1])
    # (P(F) as a mask of labels, r - r(F))
    limits = [(b, r - k) for k, layer in enumerate(layers, start=1) for b in layer if b.bit_count() > r - k]
    bases = []
    for c in combinations(range(m), r):
        s = sum(1 << i for i in c)
        for block, cap in limits:
            if (s & block).bit_count() > cap:
                break
        else:
            bases.append(s)
    return Matroid._unchecked(m, bases) if bases else None
