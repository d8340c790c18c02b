import operator
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matadj import ElementSet, InputError, Matroid
from matadj.sets import bits


def test_out_of_range_rejected():
    with pytest.raises(InputError):
        ElementSet.of([3], 3)
    with pytest.raises(InputError):
        ElementSet.of([-1], 3)


def test_extensional_equality():
    assert ElementSet.of([0, 1], 3) == ElementSet.of([1, 0], 3)
    assert ElementSet.of([0], 3) != ElementSet.of([0], 4)


def test_universe_mismatch_rejected():
    with pytest.raises(InputError):
        ElementSet.of([0], 3) | ElementSet.of([0], 4)


def test_algebra_and_order():
    a = ElementSet.of([0, 1], 4)
    b = ElementSet.of([1, 2], 4)
    assert (a | b).sorted() == [0, 1, 2]
    assert (a & b).sorted() == [1]
    assert (a - b).sorted() == [0]
    assert a <= a | b
    assert not a <= b
    assert a.complement().sorted() == [2, 3]
    assert a.key == (0, 1)


def test_relabel():
    a = ElementSet.of([1, 3], 4)
    assert a.relabel({1: 0, 3: 1}, 2) == ElementSet.of([0, 1], 2)
    with pytest.raises(InputError):
        a.relabel({1: 0}, 2)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ElementSet.of([True, 0], 3),
        lambda: ElementSet([0, False], 3),
        lambda: ElementSet.of([1.0], 3),
        lambda: ElementSet.of(["1"], 3),
        lambda: ElementSet.of([0], 3).add(True),
        lambda: ElementSet.of([1], 3).relabel({1: True}, 3),
        lambda: ElementSet.empty(True),
        lambda: Matroid(2, [[True, 0]]),
        lambda: Matroid(3, [[0, False], [0, 2]]),
        lambda: Matroid(2, [[0, 1.0]]),
    ],
    ids=["of", "constructor", "float", "str", "add", "relabel", "universe",
         "matroid", "matroid-false", "matroid-float"],
)
def test_non_int_labels_refused(make):
    # a bool would otherwise become the element it equals as a bit position
    with pytest.raises(InputError):
        make()


def test_bools_are_never_members():
    # True == 1, but a bool is no label: it is not found, and removing it
    # changes nothing, as for the string "1"
    a = ElementSet.of([0, 1], 3)
    for e in (True, False, "1"):
        assert e not in a
        assert a.remove(e) == a
    assert 1 in a and a.remove(1) == ElementSet.of([0], 3)


def test_immutable():
    a = ElementSet.of([0], 2)
    with pytest.raises(AttributeError):
        a.mask = 3
    with pytest.raises(AttributeError):
        del a.mask
    assert a == ElementSet.of([0], 2)
    assert pickle.loads(pickle.dumps(a)) == a


@st.composite
def set_pairs(draw):
    """A universe size and two subsets of it, as plain frozensets."""
    u = draw(st.integers(0, 40))
    subsets = st.frozensets(st.integers(0, u - 1)) if u else st.just(frozenset())
    return u, draw(subsets), draw(subsets)


@settings(max_examples=400, deadline=None)
@given(set_pairs(), st.data())
def test_matches_a_frozenset_model(pair, data):
    u, a, b = pair
    A, B = ElementSet.of(a, u), ElementSet.of(b, u)
    ground = frozenset(range(u))

    def same(S, model):
        assert isinstance(S, ElementSet) and S.universe == u
        assert S.members == model
        assert list(S) == S.sorted() == sorted(model)
        assert S.key == tuple(sorted(model))
        assert len(S) == len(model) and bool(S) == bool(model)
        assert repr(S) == "{" + ",".join(map(str, sorted(model))) + "}/" + str(u)

    same(A, a)
    for op in (operator.or_, operator.and_, operator.sub):
        same(op(A, B), op(a, b))
    assert (A <= B) == (a <= b) == A.issubset(B)
    assert A.isdisjoint(B) == a.isdisjoint(b)
    same(A.complement(), ground - a)
    same(ElementSet.full(u), ground)
    same(ElementSet.empty(u), frozenset())

    e = data.draw(st.integers(-3, u + 3))
    assert (e in A) == (e in a)
    same(A.remove(e), a - {e})
    if 0 <= e < u:
        same(A.add(e), a | {e})
    else:
        with pytest.raises(InputError):
            A.add(e)

    v = data.draw(st.integers(u, u + 4))
    image = data.draw(st.permutations(range(v)))[:u]
    mapping = dict(enumerate(image))
    R = A.relabel(mapping, v)
    assert R.universe == v and R.members == frozenset(mapping[x] for x in a)

    # equal sets are equal and hash alike, however they were made
    assert (A == B) == (a == b)
    for S, model in ((A, a), (B, b)):
        for twin in (ElementSet(sorted(model, reverse=True), u), (A | B) & S, S - (S - S)):
            assert twin == S and hash(twin) == hash(S)
            assert {twin: 1}[S] == 1
    assert A != ElementSet.of(a, u + 1)
    assert A != a  # not equal to a plain set

    other = ElementSet.of(a, u + 1)
    for op in (operator.or_, operator.and_, operator.sub, operator.le):
        with pytest.raises(InputError, match="universe mismatch"):
            op(A, other)
    with pytest.raises(InputError):
        A | a
    with pytest.raises(InputError, match="out of range"):
        ElementSet.of(sorted(a) + [u], u)
    with pytest.raises(InputError, match="out of range"):
        ElementSet.of([-1 - e % 3], u)


# -- bits: byte tables below 2^24, a loop above ---------------------------------

def bits_by_shifts(mask):
    return [e for e in range(mask.bit_length()) if mask >> e & 1]


def test_bits_matches_the_reference_below_two_to_the_seventeen():
    # every mask read off the tables, and the first 2^16 masks of the loop
    for mask in range(1 << 17):
        assert bits(mask) == bits_by_shifts(mask), mask


@settings(max_examples=400, deadline=None)
@given(st.integers(0, (1 << 300) - 1))
def test_bits_matches_the_reference_on_drawn_masks(mask):
    assert bits(mask) == bits_by_shifts(mask)


def test_bits_matches_the_reference_on_random_masks_up_to_two_to_the_forty():
    # two and three tables below 2^24, the loop above, and each boundary
    rng = random.Random(0)
    masks = [rng.getrandbits(rng.randint(1, 40)) for _ in range(20000)]
    masks += [(1 << k) + d for k in (16, 24) for d in (-1, 0, 1)]
    for mask in masks:
        assert bits(mask) == bits_by_shifts(mask), mask


def test_bits_returns_a_new_list_each_call():
    a = bits(0b1011)
    a.append(99)
    assert bits(0b1011) == [0, 1, 3]
