from hypothesis import given, settings
from hypothesis import strategies as st

from matadj.linalg import characteristic, echelon, integer_vector
from oracles import rref

FIELDS = [2, 3, 5, "rational"]


def entries(field):
    if field == "rational":
        return st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.integers(-field, 2 * field)  # out-of-range values exercise the coercion


@st.composite
def matrices(draw):
    field = draw(st.sampled_from(FIELDS))
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(1, 6))
    # few distinct values, so that dependent rows are common
    values = draw(st.lists(entries(field), min_size=1, max_size=3))
    cell = st.one_of(st.just(0), st.sampled_from(values))
    return field, [[draw(cell) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=400, deadline=None)
@given(matrices())
def test_echelon_rank_matches_rref(drawn):
    field, rows = drawn
    char = characteristic(field)
    rank = len(echelon([integer_vector(row, char) for row in rows], char))
    assert rank == len(rref(rows, field)[1])

