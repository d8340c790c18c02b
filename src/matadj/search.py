"""Adjoint search from the bases alone.

``search_adjoint`` builds one candidate adjoint of a matroid from its bases:
the freest target on the labels of its hyperplanes, in every rank.  In rank
at most 3 it is an adjoint by a theorem; in rank 4 and above it is an
adjoint exactly when it passes the exchange check, which is the one check
that can refuse it.
"""
from __future__ import annotations

from itertools import combinations
from math import comb

from .adjoint import AdjointMap, _blocks, _induced, _verified
from .errors import expect
from .matroid import Matroid, check_budget, exchange_fault
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
    so that search alone is exhausted.  In rank 4 and above it is an adjoint
    exactly when it passes the exchange check.  A failure is reported in
    ``diagnostic``, with the violating pair, and ``exhausted`` False: this
    search tries no other candidate, so a failure is never a negative
    answer.  The map found passes the construction gate, where a failed
    verification is a ConstructionError in any rank.
    """
    expect(M, Matroid)
    r = M.full_rank
    hyperplanes = M.flats().hyperplane_masks
    target = _freest_target(M, hyperplanes)
    violation = target._check_exchange() if r >= 4 else None
    if violation is not None:
        return SearchResult(
            None, False, 1,
            f"the freest rank-{r} target on {len(hyperplanes)} hyperplane labels is not a matroid: "
            f"{exchange_fault(violation)}; no other candidate is tried, so this does not show that M has no adjoint",
        )
    phi = _induced(M, target, [(h, 1 << i) for i, h in enumerate(hyperplanes)])
    return SearchResult(_verified(phi, f"rank-{r} construction"), r == 0, 1)


def _freest_target(M: Matroid, hyperplanes: tuple) -> Matroid:
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
    rank 1 to r - 2 suffice.

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
    Canad. Math. Bull. 17, 1974).

    In rank 4 and above the family need not be a matroid's bases, so the
    caller checks the exchange axiom; if it holds, the target is an
    adjoint.  For a basis B of M, call the r flats cl(B - b), b in B, its
    dual hyperplanes; they are distinct, and their labels are B's dual
    labels.
    1. The dual labels of any basis B are a member, so the family is never
       empty.  An element y lies in cl(B - b) for every b in a set D of
       B exactly when it lies in cl(B - D), so the dual hyperplanes that
       hold a flat F, for b in D, give F inside cl(B - D), and |D| <= r -
       r(F).
    2. For a hyperplane H that does not hold a flat G, label(H) and r - r(G')
       labels of P(G') are dual labels of one basis, where G' = cl((G n H)
       + x) for some x in G - H.  A basis J of the flat G n H, with x, is a
       basis of G'; extend J to a basis of H, and that by x to a basis B of
       M.  Then cl(B - x) = H, and the r - r(G') dual hyperplanes cl(B - b),
       b in B - J - x, hold G'.  (Two hyperplanes need not meet in rank
       r - 2: U_3_4's lines {0,1} and {2,3} are not dual hyperplanes of one
       basis, so G' is needed even when G is a hyperplane.)
    3. If the family is the bases of a matroid T, then r_T(P(F)) = r - r(F)
       for every flat F: a basis of F extends to a basis B of M with r -
       r(F) dual hyperplanes that hold F, whose labels are independent by 1,
       and the limit bounds the rank from above.  By 2 and this rank,
       label(H) is outside cl_T(P(G')), which holds cl_T(P(G)) since G'
       lies in G.  So cl_T(P(G)) = P(G) for every flat G.  With G a
       hyperplane, P(G) is one label, of rank 1 and its own closure: T has
       no loops and no parallel pairs.
       The map F -> P(F) is injective, since a flat is the meet of the
       hyperplanes that hold it, reverses inclusion, sends each hyperplane
       to its own point and E to the empty set, cl_T(empty), and keeps
       r_T(P(F)) = r - r(F): it is an adjoint.
    So in rank 4 and above search refuses only when the exchange check
    fails.
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
    return Matroid._unchecked(m, bases)
