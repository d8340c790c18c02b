"""Independent brute-force oracles used to cross-check the library.

Deliberately naive and kept separate from the package: no bitmasks, no
level-by-level enumeration, its own linear algebra.  ``rref`` reduces in
``Fraction`` arithmetic over the rationals and with modular inverses over
GF(p), and shares no code with the package's fraction-free elimination
kernel; ``brute_column_bases``, ``null_covector`` and
``representation_minor`` are built on it.  Tests compare library output
against these.  Each public oracle reads ``M.bases`` (frozensets)
once and hands them to the ``_in`` helpers below it, since that property is
rebuilt on every read.

``enumerate_families``, ``rank_table`` and ``exchange_violation_by_pairs``
are the exceptions to "no bitmasks".  The first is the exhaustive family
enumeration that ``search_adjoint`` replaced with the freest target, kept
here as the reference search it is compared against.  The second indexes
all 2^n subsets by mask, so that every subset of a 15-element target can be
checked; it reads independence off the bases by a transform over the
subset lattice, with no greedy and no rank query.  The third is the
pairwise scan that ``Matroid._check_exchange`` replaced with one pass over
exit sets, and ``eliminate_in_two_passes`` is the elimination step that
took the combination and its reduction mod p in two passes.

``chain_report_by_merging`` and ``simple_violations_by_pairs`` are the
reference forms of two checks that the library makes in one pass.  The
chain check runs flat by flat, with its own greedy that restarts from the
least hyperplane at each step (``chain_by_restarts``) and its own
independence test by rank over the target's bases
(``chain_violations_by_rank``); it shares no code with the library's chain
kernels, which the public chain functions and ``full_verification`` both
call.  Target simplicity is checked by a rank query on every pair of
elements.  ``modular_pairs_by_all_pairs`` is the modular-pair check that
tests every pair of flats, including those whose images are nested.
``definition_report_by_loops`` is the definition report as it was before
two of its checks were decided by the sizes of the image sets: every
injectivity and hyperplane-bijection loop runs on every map.

``blocks_by_scan`` is the per-flat hyperplane scan that read P(F), the
labels of the hyperplanes that hold a flat F, before the library read it off
per-element label masks; ``induced_by_scan`` and ``freest_bases_by_scan``
are the induced map's table and search's freest target built on it.  They
work on masks, as the code they replaced did, and the first closes each
image with the target's own closure.

``minor_adjoint_by_old_step`` is the minor step as it was before it became
one pass: every deletion ranks E - D and deduplicates the traces of the
bases, the relabeling cuts one removed bit at a time, every layer of the
minor's lattice is sorted, and the vanishing hyperplanes are the parent
hyperplanes missing from the set of lift values.  It reads the package's
normal form, the parent's lattice and ``verify_adjoint``, and builds the
minor's lattice itself.
"""
from fractions import Fraction
from itertools import chain, combinations, permutations
from math import gcd, isqrt, lcm

from matadj import (
    AdjointMap,
    ConstructionError,
    FlatLattice,
    InputError,
    Matroid,
    Representation,
    SearchResult,
    VerificationReport,
    Violation,
    induced_map,
    verify_adjoint,
)
from matadj.adjoint import DEFINITION_CHECKS
from matadj.matroid import _normal_form
from matadj.sets import ElementSet, bits


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


def rank_table(M):
    """The rank of every subset of E, as a list indexed by mask.

    A set is independent when some basis holds it, and its rank is the size
    of its largest independent subset; each is one transform over the
    subset lattice, a bit at a time, with no greedy and no rank query.
    """
    size = 1 << M.n
    independent = [False] * size
    for b in M.bases:
        independent[sum(1 << e for e in b)] = True
    for e in range(M.n):
        bit = 1 << e
        for s in range(size):
            if s & bit and independent[s]:
                independent[s ^ bit] = True
    ranks = [bin(s).count("1") if independent[s] else 0 for s in range(size)]
    for e in range(M.n):
        bit = 1 << e
        for s in range(size):
            if s & bit and ranks[s ^ bit] > ranks[s]:
                ranks[s] = ranks[s ^ bit]
    return ranks


def exchange_violation_by_pairs(M):
    """``Matroid._check_exchange`` as it was: the first (B1, B2, e), scanning
    B1, then B2, in basis order, then e in B1 - B2 by label, such that no f
    in B2 - B1 makes B1 - e + f a basis; None if there is none."""
    masks = M._basis_masks
    mask_set = frozenset(masks)
    for b1 in masks:
        for b2 in masks:
            if b1 == b2:
                continue
            only1 = b1 & ~b2
            only2 = b2 & ~b1
            rest = only1
            while rest:
                ebit = rest & -rest
                rest ^= ebit
                base = b1 ^ ebit
                cand = only2
                while cand:
                    fbit = cand & -cand
                    cand ^= fbit
                    if base | fbit in mask_set:
                        break
                else:
                    return b1, b2, ebit.bit_length() - 1
    return None


def eliminate_in_two_passes(vec, echelon, p):
    """``linalg.eliminate`` over GF(p) with each step in two passes: the
    combination a*v - x*e, then every entry mod p."""
    for pivot, row in echelon:
        x = vec[pivot]
        if x:
            a = row[pivot]
            vec = [a * v - x * e for v, e in zip(vec, row)]
            vec = [v % p for v in vec]
    return vec


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


def delete_table_by_closure(phi, D):
    """The table of the deletion adjoint, phi(cl F) minus the points of the
    vanishing hyperplanes, with cl F closed by brute_closure for each flat F
    of brute_flats(M\\D); the library reads cl F off the lattice of M."""
    M, Mp = phi.source, phi.target
    vanished = set()
    for H in vanishing_by_codependence(M, D):
        vanished |= phi.table[H].members
    N = M.delete(D)
    inverse = {v: k for k, v in N.provenance["relabel"].items()}
    tgt_relabel = Mp.delete(ElementSet.of(vanished, Mp.n)).provenance["relabel"]
    table = {}
    for F in brute_flats(N):
        closed = ElementSet.of(brute_closure(M, [inverse[e] for e in F.members]), M.n)
        image = phi.table[closed].members - vanished
        table[F] = ElementSet.of((tgt_relabel[e] for e in image), len(tgt_relabel))
    return table


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


def is_prime_by_trial_division(n):
    """Whether n is prime, by trial division up to its square root."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def _arithmetic(field):
    """(coerce, inverse) for GF(p) (``field`` = p) or the rationals
    (``field`` = 'rational'): coerce maps an int or Fraction to the field's
    elements, Fractions or ints in 0..p-1."""
    if field == "rational":
        return Fraction, lambda a: 1 / a
    return (lambda x: x % field), (lambda a: pow(a, -1, field))


def rref(rows, field):
    """Reduced row-echelon form over GF(p) (``field`` = p) or the rationals
    (``field`` = 'rational'); returns (rows, pivot_columns)."""
    coerce, inverse = _arithmetic(field)
    mat = [[coerce(x) for x in row] for row in rows]
    if not mat:
        return [], []
    pivots = []
    r = 0
    for c in range(len(mat[0])):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        scale = inverse(mat[r][c])
        mat[r] = [coerce(scale * x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [coerce(x - factor * y) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def brute_column_bases(rep):
    """The bases of a representation's column matroid, as sorted label tuples
    in lexicographic order: every r-subset of columns whose RREF has r
    pivots, r being the number of pivots of all the columns."""

    def rank(labels):
        return len(rref([rep.columns[i] for i in labels], rep.field)[1])

    r = rank(range(rep.n))
    return tuple(c for c in combinations(range(rep.n), r) if rank(c) == r)


def null_covector(rep, labels):
    """(dimension, vector): the dimension of the space of functionals that
    vanish on the given columns, read off the free columns of their RREF,
    and, when it is 1, the null vector of that RREF in normal form, else
    None.  The normal form: over GF(p) the first nonzero entry is 1; over
    the rationals a primitive integer vector, as Fractions, whose first
    nonzero entry is positive."""
    mat, pivots = rref([rep.columns[i] for i in labels], rep.field)
    free = [c for c in range(rep.dim) if c not in pivots]
    if len(free) != 1:
        return len(free), None
    vec = [0] * rep.dim
    vec[free[0]] = 1
    for row, pc in zip(mat, pivots):
        vec[pc] = -row[free[0]]
    if rep.field != "rational":
        p = rep.field
        lead = next(x for x in vec if x % p)
        return 1, tuple(x * pow(lead, -1, p) % p for x in vec)
    scale = lcm(*(Fraction(x).denominator for x in vec))
    ints = [int(x * scale) for x in vec]
    g = gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return 1, tuple(Fraction(x // g) for x in ints)


def blocks_by_scan(flats, labelled):
    """P(F) for each flat mask F in ``flats``: the OR of the label masks of
    the (hyperplane mask, label mask) pairs ``labelled`` whose hyperplane
    holds F, found by scanning every pair for every flat."""
    return [sum(p for h, p in labelled if not f & ~h) for f in flats]


def induced_by_scan(M, Mp, labelled):
    """The mask table of the flat map that the (hyperplane mask, point mask)
    pairs ``labelled`` induce: each flat F of M goes to the target closure
    of ``blocks_by_scan``."""
    flats = [f for layer in M.flats().masks for f in layer]
    return dict(zip(flats, map(Mp._closure, blocks_by_scan(flats, labelled))))


def freest_bases_by_scan(M):
    """The basis masks of the freest target of M on its hyperplane labels,
    in ``combinations`` order: the r-subsets of labels that meet P(F) in at
    most r - k labels for every flat F of each rank k from 1 to r - 2, with
    P(F) from ``blocks_by_scan``."""
    r, masks = M.full_rank, M.flats().masks
    labelled = [(h, 1 << i) for i, h in enumerate(M.flats().hyperplane_masks)]
    limits = [(b, r - k) for k in range(1, r - 1) for b in blocks_by_scan(masks[k], labelled)]
    subsets = (sum(1 << i for i in c) for c in combinations(range(len(labelled)), r))
    return [s for s in subsets if all((s & b).bit_count() <= cap for b, cap in limits)]


def representation_minor(rep, C, D):
    """A representation of M/C\\D with the same dense relabelling as Matroid
    minors.  Each element e of C, in increasing order, is contracted: if its
    column is zero (a loop) it is dropped, else a multiple of it is
    subtracted from every other column to clear the coordinate of its first
    nonzero entry, which is then removed.  The columns of D are dropped, and
    the rows are replaced by the nonzero rows of their RREF, so that the
    dimension is the rank again."""
    if not C.isdisjoint(D):
        raise InputError("contract and delete sets overlap")
    coerce, inverse = _arithmetic(rep.field)
    cols = {e: [coerce(x) for x in col] for e, col in enumerate(rep.columns)}
    for e in sorted(C.members):
        col = cols.pop(e)
        pivot = next((i for i, x in enumerate(col) if x != 0), None)
        if pivot is None:
            continue
        scale = inverse(col[pivot])
        for f, v in cols.items():
            factor = coerce(scale * v[pivot])
            w = [coerce(x - factor * y) for x, y in zip(v, col)]
            del w[pivot]
            cols[f] = w
    for e in D.members:
        del cols[e]
    kept = [cols[e] for e in sorted(cols)]
    reduced, pivots = rref(list(zip(*kept)), rep.field)
    rows = reduced[:len(pivots)]
    columns = tuple(tuple(row[j] for row in rows) for j in range(len(kept)))
    return Representation(rep.field, columns, len(rows))


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


def brute_cover_inclusion_reversal(phi):
    """The pairs of ``brute_inclusion_reversal`` with no flat strictly
    between F1 and F2, in the same order: the cover pairs, found from the
    members of the flats rather than from their ranks."""
    flats = list(phi.source.flats().all_flats())
    return [
        (F1, F2) for F1, F2 in brute_inclusion_reversal(phi)
        if not any(F1.members < G.members < F2.members for G in flats)
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


def modular_pairs_by_all_pairs(phi):
    """``check_modular_pairs`` as it was before nested pairs were skipped:
    every pair of flats, a flat with itself too, in canonical order, each
    tested by the target's rank."""
    rank = phi.target._rank
    flats = phi.source.flats().canonical_order()
    images = [(phi.table[X].mask, rank(phi.table[X].mask)) for X in flats]
    violations = []
    for i, (a, ra) in enumerate(images):
        for j in range(i, len(images)):
            b, rb = images[j]
            rj, rm = rank(a | b), rank(a & b)
            if ra + rb != rj + rm:
                violations.append(Violation(
                    "modular_pairs", (flats[i], flats[j]),
                    "r(phi X) + r(phi Y) = r(join) + r(meet)",
                    f"{ra}+{rb} != {rj}+{rm}",
                ))
    return VerificationReport(("modular_pairs",), tuple(violations))


def brute_rank_complement(phi):
    """Source flats F with r'(phi(F)) != r - r(F), under brute_rank."""
    M = phi.source
    source_bases, target_bases = M.bases, phi.target.bases
    return [
        F for F in M.flats().all_flats()
        if _rank_in(target_bases, phi.table[F].members)
        != M.full_rank - _rank_in(source_bases, F.members)
    ]


def chain_by_restarts(M, X, k):
    """The greedy hyperplane chain through the rank-k flat X, on frozensets:
    each step restarts from the least hyperplane and takes the first one
    that contains X and not the running intersection.  Raises the library's
    ConstructionError texts where no such chain exists."""
    hyperplanes = M.hyperplanes() if M.full_rank >= 1 else ()
    x = X.members
    running = frozenset(range(M.n))
    chain = []
    while running != x:
        H = next((H for H in hyperplanes if x <= H.members and not running <= H.members), None)
        if H is None:
            raise ConstructionError(f"no hyperplane separates {ElementSet.of(running, M.n)!r} from {X!r}")
        chain.append(H)
        running &= H.members
    if len(chain) != M.full_rank - k:
        raise ConstructionError("hyperplane chain has the wrong length")
    return chain


def chain_violations_by_rank(phi, chain):
    """The chain-independence violations of a hyperplane chain: each image
    that is not a point, else the image set if its rank under brute_rank is
    below its size."""
    return _chain_violations_in(phi.target.bases, phi, chain)


def _chain_violations_in(target_bases, phi, chain):
    images = [phi.table[H] for H in chain]
    out = [Violation("chain_independence", (H,), "a point image", repr(img))
           for H, img in zip(chain, images) if len(img) != 1]
    if not out:
        union = frozenset().union(*(img.members for img in images))
        rank = _rank_in(target_bases, union)
        if rank != len(union):
            out.append(Violation("chain_independence", tuple(chain),
                                 f"independent image set of size {len(union)}", f"rank {rank}"))
    return out


def chain_report_by_merging(phi):
    """The chain-independence report of ``full_verification``, one flat at a
    time: ``chain_violations_by_rank`` of ``chain_by_restarts`` for each flat
    in lattice order, in one report."""
    target_bases = phi.target.bases
    violations = []
    for k, layer in enumerate(phi.source.flats().flats_by_rank):
        for X in layer:
            violations += _chain_violations_in(target_bases, phi, chain_by_restarts(phi.source, X, k))
    return VerificationReport(("chain_independence",), tuple(violations))


def simple_violations_by_pairs(M):
    """The target_simple violations of a map into M, by brute_rank: every
    loop, then every pair e < f of non-loops of rank 1, in ``combinations``
    order."""
    bases = M.bases
    out = [Violation("target_simple", (e,), "no loops", f"element {e} is a loop")
           for e in range(M.n) if _rank_in(bases, {e}) == 0]
    for e, f in combinations(range(M.n), 2):
        if _rank_in(bases, {e, f}) == 1 and _rank_in(bases, {e}) == 1 and _rank_in(bases, {f}) == 1:
            out.append(Violation("target_simple", (e, f), "no parallel pairs", f"{{{e},{f}}} has rank 1"))
    return out


def definition_report_by_loops(phi):
    """``verify_adjoint``'s report with every check run in full: injectivity
    by a scan of the images in canonical order, and the hyperplane bijection
    by testing each hyperplane image, each repeat and each uncovered point,
    whatever the sizes of the image sets say."""
    M, Mp = phi.source, phi.target
    n, t, table = M.n, Mp.n, phi._table
    lattice = M.flats()
    layers = lattice.masks
    es = ElementSet._trusted
    violations = []

    def repeats(pairs):
        seen = {}
        for key, img in pairs:
            first = seen.setdefault(img, key)
            if first != key:
                yield first, key, img

    loops = Mp._closure(0)
    singles = [Mp._closure(1 << e) for e in range(t)]
    for e in bits(loops):
        violations.append(Violation("target_simple", (e,), "no loops", f"element {e} is a loop"))
    for e, c in enumerate(singles):
        for f in bits(c & ~loops & ~((2 << e) - 1)):
            violations.append(Violation("target_simple", (e, f), "no parallel pairs", f"{{{e},{f}}} has rank 1"))
    if M.full_rank != Mp.full_rank:
        violations.append(Violation("rank_match", (), f"target rank {M.full_rank}", str(Mp.full_rank)))
    for f1, f2, img in repeats((f, table[f]) for f in lattice.canonical_masks):
        violations.append(Violation("injectivity", (es(f1, n), es(f2, n)),
                                    "distinct images", f"both map to {es(img, t)!r}"))
    images = [[(f, table[f]) for f in layer] for layer in layers]
    for lower, upper in zip(images, images[1:]):
        for f1, i1 in lower:
            for f2, i2 in upper:
                if not f1 & ~f2 and i2 & ~i1:
                    F1, F2 = es(f1, n), es(f2, n)
                    violations.append(Violation(
                        "inclusion_reversal", (F1, F2), f"phi({F2!r}) within phi({F1!r})",
                        f"{es(i2, t)!r} is not within {es(i1, t)!r}",
                    ))
    points = {p for e, p in enumerate(singles) if not loops >> e & 1}
    hyperplanes = lattice.hyperplane_masks
    images = [table[h] for h in hyperplanes]
    for h, img in zip(hyperplanes, images):
        if img not in points:
            violations.append(Violation("hyperplane_bijection", (es(h, n),),
                                        "a point of the target", repr(es(img, t))))
    for h1, h2, img in repeats(zip(hyperplanes, images)):
        violations.append(Violation("hyperplane_bijection", (es(h1, n), es(h2, n)),
                                    "distinct point images", f"both map to {es(img, t)!r}"))
    uncovered = points.difference(images)
    if uncovered:
        violations.append(Violation(
            "hyperplane_bijection", tuple(es(p, t) for p in sorted(uncovered, key=bits)),
            "every point covered by a hyperplane image", "uncovered points remain",
        ))
    top = layers[-1][0]
    if table[top] != loops:
        violations.append(Violation("ground_to_empty", (es(top, n),),
                                    repr(es(loops, t)), repr(es(table[top], t))))
    return VerificationReport(DEFINITION_CHECKS, tuple(violations))


def simplify_by_pairs(M):
    """(loops, class map) of si(M) by brute_rank: each non-loop, in label
    order, joins the first earlier representative that it forms a rank-1
    pair with, and is a representative itself when there is none."""
    bases = M.bases
    loops = [e for e in range(M.n) if _rank_in(bases, {e}) == 0]
    class_map = {}
    reps = []
    for e in range(M.n):
        if e in loops:
            continue
        for rep in reps:
            if _rank_in(bases, {rep, e}) == 1:
                class_map[e] = rep
                break
        else:
            reps.append(e)
            class_map[e] = e
    return loops, class_map


def cover_mask(labels, m):
    """Bit i*m + j for each pair i < j of labels.  A family that covers every
    pair is simple: it covers every label too, and for r = 1 forces m = 1."""
    return sum(1 << i * m + j for i, j in combinations(labels, 2))


def enumerate_families(M):
    """Find an adjoint of M of rank r >= 1 by exhausting candidate targets.

    Candidates are simple rank-r matroids on the hyperplane labels, ordered
    by number of bases descending and then lexicographically.  Each is built
    from masks, exchange-checked by an explicit call, and tried once, under
    the identity bijection H_i -> i: every relabelling of a candidate is
    itself a candidate, so no other bijection can succeed where all
    identities fail.  The result is exhausted only when nothing was found.
    The space is doubly exponential in the number of hyperplanes, so this
    is for sources with a handful of them.
    """
    r = M.full_rank
    hyperplanes = M.hyperplanes()
    m = len(hyperplanes)

    # an adjoint must satisfy r'(P(F)) = r - r(F), where P(F) is the mask of
    # the labels of the hyperplanes containing F; small P(F) first, as they
    # fail soonest
    forced = sorted(
        ((r - k, sum(1 << i for i, H in enumerate(hyperplanes) if F <= H))
         for k, layer in enumerate(M.flats().flats_by_rank) for F in layer),
        key=lambda t: t[0],
    )
    bij = {H: i for i, H in enumerate(hyperplanes)}

    # (basis mask, cover mask) of each r-subset of labels, in lexicographic order
    members = [(sum(1 << i for i in c), cover_mask(c, m)) for c in combinations(range(m), r)]
    all_pairs = cover_mask(range(m), m)
    examined = 0
    for size in range(len(members), 0, -1):
        for chosen in combinations(members, size):
            covered = 0
            for _, cover in chosen:
                covered |= cover
            if covered != all_pairs:
                continue
            candidate = Matroid._unchecked(m, [b for b, _ in chosen])
            if candidate._check_exchange() is not None:
                continue
            examined += 1
            if any(candidate._rank(pts) != want for want, pts in forced):
                continue
            phi = induced_map(M, candidate, bij)
            if verify_adjoint(phi).valid:
                return SearchResult(phi, False, examined)
    return SearchResult(None, True, examined)


def vamos_bases():
    """The 65 bases of the Vámos matroid V8, rank 4 on 8 elements: every
    4-set except five unions of two of the pairs {0,1}, {2,3}, {4,5}, {6,7}
    (Oxley, *Matroid Theory*, 2nd ed., appendix)."""
    planes = [{0, 1, 2, 3}, {0, 1, 4, 5}, {0, 1, 6, 7}, {2, 3, 4, 5}, {2, 3, 6, 7}]
    return [c for c in combinations(range(8), 4) if set(c) not in planes]


def squeeze_bit_by_bit(masks, removed):
    """The dense relabeling of masks that miss ``removed``, one removed bit at
    a time, the highest first."""
    out = list(masks)
    for p in reversed(bits(removed)):
        low = (1 << p) - 1
        out = [b & low | b >> 1 & ~low for b in out]
    return out


def minor_by_dedup(M, op, m):
    """M/S or M\\S for the set S with mask m, as ``Matroid._minor`` made it
    before coindependent deletions were filtered: every deletion ranks E - S
    and keeps the distinct traces B n (E - S) of that many elements."""
    if op == "contract":
        ind = M._independent_part(m)
        masks = [b & ~ind for b in M._basis_masks if b & m == ind]
    else:
        keep = M._full & ~m
        r2 = M._rank(keep)
        masks = dict.fromkeys(b & keep for b in M._basis_masks if (b & keep).bit_count() == r2)
    relabel = {e: i for i, e in enumerate(bits(M._full & ~m))}
    provenance = {"op": op, "removed": bits(m), "relabel": relabel, "parent": M}
    N = Matroid._unchecked(M.n - m.bit_count(), squeeze_bit_by_bit(masks, m), provenance)
    N._minor_of = (M, m, op == "contract")
    return N


def _lattice_by_sorted_walk(N):
    """The lattice of the minor N, with its lift, off its parent's lattice:
    one walk, then every layer sorted."""
    M, removed, contracted = N._minor_of
    keep, over = M._full & ~removed, removed if contracted else 0
    least, ends = {}, []
    for layer in M.flats().masks:
        for g in layer:
            if not over & ~g:
                least.setdefault(g & keep, g)
        ends.append(len(least))
    masks = squeeze_bit_by_bit(least, removed)
    layers = [tuple(sorted(masks[i:j], key=bits)) for i, j in zip([0] + ends, ends) if i < j]
    lattice = FlatLattice(N.n, layers, N._minor_of)
    lattice._lift = dict(zip(masks, least.values()))
    return lattice


def _old_step(phi, m, contracted):
    N = minor_by_dedup(phi.source, "contract" if contracted else "delete", m)
    lattice = N._lattice = _lattice_by_sorted_walk(N)
    lift, table = lattice._lift, phi._table
    if contracted:
        gone = phi.target._full & ~table[next(iter(lift.values()))]
    else:
        lifted = set(lift.values())
        gone = 0
        for h in phi.source.flats().hyperplane_masks:
            if h not in lifted:
                gone |= table[h]
    target = minor_by_dedup(phi.target, "delete", gone) if gone else phi.target
    flats = [f for layer in lattice.masks for f in layer]
    images = squeeze_bit_by_bit([table[lift[f]] & ~gone for f in flats], gone)
    result = AdjointMap._of_masks(N, target, dict(zip(flats, images)))
    assert verify_adjoint(result).valid
    return result


def minor_adjoint_by_old_step(phi, spec):
    """``minor_adjoint`` by the old minor step: normalize, contract, delete,
    each step skipped when its set is empty.  Nothing is cached on phi."""
    M = phi.source
    c, d = _normal_form(M, spec.contract.mask, spec.delete.mask)
    psi = _old_step(phi, c, True) if c else phi
    d = squeeze_bit_by_bit([d], c)[0]
    return _old_step(psi, d, False) if d else psi
