"""The exchange axiom is checked where bases come from outside the package,
and skipped only where a theorem makes the bases a matroid's.

The first half rebuilds every theorem-backed construction through the
checked public constructor; the second counts the checks, to show that they
were moved to the trust boundaries, not dropped.
"""
import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matadj import (
    ElementSet,
    InputError,
    Matroid,
    MinorSpec,
    Representation,
    adjoint_from_representation,
    by_name,
    catalog,
    load_matroid,
    minor_adjoint,
    search_adjoint,
    uniform,
)


def es(members, n):
    return ElementSet.of(members, n)


def theorem_backed(M):
    """The minors of every |C| + |D| <= 2, the dual and the simplification of M."""
    out = [M.dual(), M.simplify()]
    for k in range(min(2, M.n) + 1):
        for S in combinations(range(M.n), k):
            out += [M.contract(es(S, M.n)), M.delete(es(S, M.n))]
            if k == 2:
                out.append(M.contract(es(S[:1], M.n)).delete(es([S[1] - 1], M.n - 1)))
    return out


def assert_checked_constructor_agrees(M):
    rebuilt = Matroid(M.n, M.bases)
    assert rebuilt == M and rebuilt.full_rank == M.full_rank


@pytest.mark.parametrize("name", [e.name for e in catalog()])
def test_catalog_constructions_pass_the_exchange_check(name):
    entry = by_name(name)
    assert_checked_constructor_agrees(entry.representation.matroid())
    for N in theorem_backed(entry.matroid):
        assert_checked_constructor_agrees(N)


@st.composite
def representations(draw, min_dim=3, max_dim=4, max_n=7):
    """Columns over a drawn field: ``min_dim`` to ``max_dim`` rows, and at
    least as many columns as rows, up to ``max_n``, so that most draws reach
    the full rank; zero and repeated columns still lower it."""
    field = draw(st.sampled_from([2, 3, 5, "rational"]))
    dim = draw(st.integers(min_dim, max_dim))
    n = draw(st.integers(dim, max(dim, max_n)))
    if field == "rational":
        entry = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)])
    else:
        entry = st.integers(0, field - 1)
    columns = tuple(tuple(draw(entry) for _ in range(dim)) for _ in range(n))
    return Representation(field, columns, dim)


@settings(max_examples=150, deadline=None)
@given(representations())
def test_drawn_representations_pass_the_exchange_check(rep):
    M = rep.matroid()
    assert_checked_constructor_agrees(M)
    for N in theorem_backed(M):
        assert_checked_constructor_agrees(N)


def test_no_check_inside_covector_and_minor_adjoints(exchange_checks):
    for entry in catalog():
        M = Matroid(entry.matroid.n, entry.matroid.bases)  # fresh minor caches
        before = len(exchange_checks)
        phi = adjoint_from_representation(M, entry.representation)
        n = M.n
        for k in range(min(2, n) + 1):
            for S in combinations(range(n), k):
                minor_adjoint(phi, MinorSpec(es(S, n), es([], n)))
                minor_adjoint(phi, MinorSpec(es([], n), es(S, n)))
        assert len(exchange_checks) == before, entry.name


def test_public_constructor_always_checks(exchange_checks):
    Matroid(3, [[0, 1], [0, 2], [1, 2]])
    Matroid(2, [[]])
    uniform(2, 4)
    with pytest.raises(InputError, match="basis exchange fails"):
        Matroid(4, [[0, 1], [2, 3]])
    assert len(exchange_checks) == 4


def test_bases_files_are_checked_and_matrix_files_are_not(tmp_path, exchange_checks):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 3, "bases": [[0, 1], [0, 2], [1, 2]]}), encoding="utf-8")
    for i in range(3):
        load_matroid(path)
        assert len(exchange_checks) == i + 1
    load_matroid({"n": 3, "field": {"prime": 2}, "matrix": [[1, 0, 1], [0, 1, 1]]})
    assert len(exchange_checks) == 3


def test_every_search_candidate_is_checked(exchange_checks):
    # the freest target is a matroid by a theorem in rank <= 3 and is checked
    # explicitly, once, in rank >= 4
    for M, checks in ((uniform(4, 5), 1), (by_name("U_3_4").matroid, 0), (by_name("fano").matroid, 0)):
        before = len(exchange_checks)
        result = search_adjoint(M)
        assert result.found is not None and result.candidates_examined == 1
        assert len(exchange_checks) - before == checks, M
