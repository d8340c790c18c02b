"""Independent brute-force oracles used to cross-check the library.

Deliberately naive and kept separate from the package: no bitmasks, no
level-by-level enumeration, its own GF(p) rank.  Tests compare library
output against these.
"""
from itertools import chain, combinations, permutations

from matadj.sets import ElementSet


def powerset(iterable):
    s = list(iterable)
    return chain.from_iterable(combinations(s, k) for k in range(len(s) + 1))


def brute_rank(M, subset):
    """Rank via exhaustive independent-subset enumeration over the bases."""
    best = 0
    for b in M.bases:
        best = max(best, len(set(subset) & b))
    return best


def brute_closure(M, subset):
    """Every element whose addition leaves brute_rank unchanged."""
    r0 = brute_rank(M, subset)
    return set(subset) | {e for e in range(M.n) if brute_rank(M, set(subset) | {e}) == r0}


def brute_flats(M):
    """Close every one of the 2^n subsets and deduplicate."""
    return {ElementSet.of(brute_closure(M, sub), M.n) for sub in powerset(range(M.n))}


def brute_covers(M):
    """Flat F -> {cl(F u e) : e not in F}: one closure per element outside F,
    over the flats of brute_flats."""
    return {
        F: frozenset(
            ElementSet.of(brute_closure(M, F.members | {e}), M.n)
            for e in range(M.n) if e not in F
        )
        for F in brute_flats(M)
    }


def vanishing_by_codependence(M, D):
    """Hyperplanes H with H n D codependent in the restriction M|H, checked
    through the dual of the restriction; the library uses the rank drop."""
    if M.full_rank == 0:
        return ()
    out = []
    for H in M.hyperplanes():
        sub = M.restrict(H)
        relabel = sub.provenance["relabel"]
        inside = ElementSet.of((relabel[e] for e in (H & D).members), sub.n)
        if not sub.dual().is_independent(inside):
            out.append(H)
    return tuple(out)


def isomorphic(A, B):
    """Some relabelling of A's ground set carries its bases onto B's."""
    if A.n != B.n or len(A.bases) != len(B.bases):
        return False
    return any(
        all(frozenset(perm[e] for e in b) in B.bases for b in A.bases)
        for perm in permutations(range(A.n))
    )


def gf_matrix_rank(rows, p):
    """Row-reduction rank over GF(p), written independently of matadj.linalg."""
    mat = [list(r) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        pivot = None
        for i in range(rank, len(mat)):
            if mat[i][c] % p != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][c], p - 2, p) if p > 2 else mat[rank][c]
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c] % p != 0:
                f = mat[i][c]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def greedy_rank(M, subset):
    """Second independent rank oracle: grow an independent set greedily.

    Uses only basis membership questions, via the fact that a set is
    independent iff it is contained in some basis.
    """
    picked = set()
    for e in sorted(subset):
        cand = picked | {e}
        if any(cand <= b for b in M.bases):
            picked = cand
    return len(picked)
