"""Independent brute-force oracles used to cross-check the library.

Deliberately naive and kept separate from the package: no bitmasks, no
level-by-level enumeration, its own GF(p) rank.  ``brute_column_bases``
ranks with the package's ``rref``, which shares no code with the
elimination kernel that ``Representation.matroid`` uses.  Tests compare
library output against these.  Each public oracle reads ``M.bases`` (frozensets)
once and hands them to the ``_in`` helpers below it, since that property is
rebuilt on every read.
"""
from itertools import chain, combinations, permutations

from matadj.linalg import field_for, rref
from matadj.sets import ElementSet


def powerset(iterable):
    s = list(iterable)
    return chain.from_iterable(combinations(s, k) for k in range(len(s) + 1))


def _rank_in(bases, subset):
    """The largest intersection of subset with one of the bases."""
    s = set(subset)
    return max((len(s & b) for b in bases), default=0)


def _closure_in(bases, n, subset):
    r0 = _rank_in(bases, subset)
    return set(subset) | {e for e in range(n) if _rank_in(bases, set(subset) | {e}) == r0}


def _flats_in(bases, n):
    return {ElementSet.of(_closure_in(bases, n, sub), n) for sub in powerset(range(n))}


def brute_rank(M, subset):
    """Rank via exhaustive independent-subset enumeration over the bases."""
    return _rank_in(M.bases, subset)


def brute_closure(M, subset):
    """Every element whose addition leaves brute_rank unchanged."""
    return _closure_in(M.bases, M.n, subset)


def brute_restriction_bases(M, keep):
    """Bases of M|keep: the r(keep)-subsets of keep of full rank, by brute_rank."""
    bases = M.bases
    r = _rank_in(bases, keep)
    return {frozenset(c) for c in combinations(sorted(keep), r) if _rank_in(bases, c) == r}


def brute_flats(M):
    """Close every one of the 2^n subsets and deduplicate."""
    return _flats_in(M.bases, M.n)


def brute_covers(M):
    """Flat F -> {cl(F u e) : e not in F}: one closure per element outside F,
    over the flats of brute_flats."""
    bases = M.bases
    return {
        F: frozenset(
            ElementSet.of(_closure_in(bases, M.n, F.members | {e}), M.n)
            for e in range(M.n) if e not in F
        )
        for F in _flats_in(bases, M.n)
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
    a_bases, b_bases = A.bases, B.bases
    if A.n != B.n or len(a_bases) != len(b_bases):
        return False
    return any(
        all(frozenset(perm[e] for e in b) in b_bases for b in a_bases)
        for perm in permutations(range(A.n))
    )


def family_is_simple(family, m, r):
    """Whether a family of r-subsets of range(m), as frozensets, gives a simple
    matroid's bases: every label, and for r >= 2 every pair of labels, lies in
    some member, and rank 1 needs m = 1."""
    if set().union(*family) != set(range(m)):
        return False
    if r == 1:
        return m == 1
    pairs = {frozenset(p) for b in family for p in combinations(sorted(b), 2)}
    return len(pairs) == m * (m - 1) // 2


def brute_column_bases(rep):
    """The bases of a representation's column matroid, as sorted label tuples
    in lexicographic order: every r-subset of columns whose RREF has r
    pivots, r being the number of pivots of all the columns."""
    fld = field_for(rep.field)

    def rank(labels):
        return len(rref([rep.columns[i] for i in labels], fld)[1])

    r = rank(range(rep.n))
    return tuple(c for c in combinations(range(rep.n), r) if rank(c) == r)


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
    bases = M.bases
    picked = set()
    for e in sorted(subset):
        cand = picked | {e}
        if any(cand <= b for b in bases):
            picked = cand
    return len(picked)


def by_size_then_lex(flats):
    return sorted(flats, key=lambda f: (len(f.members), sorted(f.members)))


def brute_inclusion_reversal(phi):
    """Witness pairs (F1, F2), F1 a proper subset of F2 with phi(F2) not
    within phi(F1), over all ordered pairs of source flats, in lattice order."""
    flats = list(phi.source.flats().all_flats())
    return [
        (F1, F2) for F1 in flats for F2 in flats
        if F1.members < F2.members and not phi.table[F2].members <= phi.table[F1].members
    ]


def brute_modular_pairs(phi):
    """Witness pairs (X, Y) whose images are not a modular pair under brute_rank."""
    bases = phi.target.bases
    flats = by_size_then_lex(phi.source.flats().all_flats())
    out = []
    for i, X in enumerate(flats):
        for Y in flats[i:]:
            a, b = phi.table[X].members, phi.table[Y].members
            if (_rank_in(bases, a) + _rank_in(bases, b)
                    != _rank_in(bases, a | b) + _rank_in(bases, a & b)):
                out.append((X, Y))
    return out


def brute_rank_complement(phi):
    """Source flats F with r'(phi(F)) != r - r(F), under brute_rank."""
    M = phi.source
    source_bases, target_bases = M.bases, phi.target.bases
    return [
        F for F in M.flats().all_flats()
        if _rank_in(target_bases, phi.table[F].members)
        != M.full_rank - _rank_in(source_bases, F.members)
    ]
