"""The seven record classes: construction, equality, hash, repr,
immutability and pickling, pinned field by field."""
import pickle

import pytest

from matadj import (
    AdjointMap,
    CatalogEntry,
    ElementSet,
    MinorSpec,
    Representation,
    SearchResult,
    VerificationReport,
    Violation,
    by_name,
    uniform,
)


def es(members, n=3):
    return ElementSet.of(members, n)


U23 = uniform(2, 3)


def u23_table(order=(0, 1, 2)):
    """The flats of U_2_3, in canonical order, mapped with point {e} sent to {order[e]}."""
    table = {es([]): es([0, 1, 2]), es([0, 1, 2]): es([])}
    for e in range(3):
        table[es([e])] = es([order[e]])
    return {F: table[F] for F in sorted(table, key=lambda F: (len(F), F.key))}


VIOLATION = Violation("c", (1, es([0])), "x", "y")
REP = Representation(2, ((1, 0), (0, 1)), 2)

# class -> (positional arguments, one other value per argument, expected repr);
# ``...`` marks an argument that cannot change alone
RECORDS = {
    Violation: (
        ("c", (1, es([0])), "x", "y"),
        ("d", (2,), "z", "w"),
        "Violation(check='c', witness=(1, {0}/3), expected='x', actual='y')",
    ),
    VerificationReport: (
        (("a",), (VIOLATION,)),
        (("a", "b"), ()),
        "VerificationReport(checks_run=('a',), violations=(Violation(check='c', "
        "witness=(1, {0}/3), expected='x', actual='y'),))",
    ),
    MinorSpec: (
        (es([0]), es([1])),
        (es([2]), es([2])),
        "MinorSpec(contract={0}/3, delete={1}/3)",
    ),
    Representation: (
        (2, ((1, 0), (0, 1)), 2),
        (3, ((1, 0), (0, 0)), ...),
        "Representation(field=2, columns=((1, 0), (0, 1)), dim=2)",
    ),
    SearchResult: (
        (None, True, 3, "d"),
        (AdjointMap(U23, U23, u23_table()), False, 4, None),
        "SearchResult(found=None, exhausted=True, candidates_examined=3, diagnostic='d')",
    ),
    CatalogEntry: (
        ("U_2_3", U23, REP),
        ("U_2_3x", uniform(1, 3), None),
        "CatalogEntry(name='U_2_3', matroid=Matroid(n=3, rank=2, bases=3), "
        "representation=Representation(field=2, columns=((1, 0), (0, 1)), dim=2))",
    ),
}
FIELDS = {
    Violation: ("check", "witness", "expected", "actual"),
    VerificationReport: ("checks_run", "violations"),
    MinorSpec: ("contract", "delete"),
    Representation: ("field", "columns", "dim"),
    SearchResult: ("found", "exhausted", "candidates_examined", "diagnostic"),
    CatalogEntry: ("name", "matroid", "representation"),
}
CLASSES = list(RECORDS)
IDS = [cls.__name__ for cls in CLASSES]


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls):
    args = RECORDS[cls][0]
    a = cls(*args)
    b = cls(**dict(zip(FIELDS[cls], args)))
    assert a == b and not a != b
    assert [getattr(a, f) for f in FIELDS[cls]] == list(args)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_equal_records_hash_alike(cls):
    a, b = cls(*RECORDS[cls][0]), cls(*RECORDS[cls][0])
    assert a is not b and a == b
    assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in FIELDS[cls]))
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_one_changed_field_makes_records_unequal(cls):
    args, others, _ = RECORDS[cls]
    a = cls(*args)
    for i, value in enumerate(others):
        if value is ...:
            continue
        b = cls(*args[:i], value, *args[i + 1:])
        assert a != b and not a == b, FIELDS[cls][i]


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_records_of_another_class_are_not_equal(cls):
    a = cls(*RECORDS[cls][0])
    assert a.__eq__(RECORDS[cls][0]) is NotImplemented
    assert a != RECORDS[cls][0]
    assert a != object()


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_repr_text(cls):
    args, _, text = RECORDS[cls]
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls", CLASSES + [AdjointMap], ids=IDS + ["AdjointMap"])
def test_records_are_immutable(cls):
    record = cls(*RECORDS[cls][0]) if cls in RECORDS else AdjointMap(U23, U23, u23_table())
    for name in FIELDS.get(cls, ("source", "table", "hyperplane_order")) + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in FIELDS.get(cls, ("source", "table", "hyperplane_order")):
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert hasattr(record, name)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_pickle_round_trip(cls):
    a = cls(*RECORDS[cls][0])
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        b = pickle.loads(pickle.dumps(a, protocol))
        assert b == a and b is not a and repr(b) == repr(a)


def test_search_result_diagnostic_defaults_to_none():
    assert SearchResult(None, True, 1).diagnostic is None
    assert SearchResult(None, True, 1) == SearchResult(None, True, 1, None)


def test_representation_equality_ignores_its_caches():
    a, b = Representation(2, ((1, 0), (0, 1)), 2), Representation(2, ((1, 0), (0, 1)), 2)
    a.matroid()
    assert a == b and hash(a) == hash(b)
    assert Representation(2, (), 2) != Representation(2, (), 3)
    c = pickle.loads(pickle.dumps(a))
    assert c == a and c.matroid() == a.matroid()


def test_catalog_entry_pickles_with_its_matroid():
    entry = by_name("fano")
    copy = pickle.loads(pickle.dumps(entry))
    assert copy == entry and copy.matroid == entry.matroid


def test_adjoint_map_takes_source_target_and_table():
    table = u23_table()
    a = AdjointMap(U23, U23, table)
    assert a == AdjointMap(source=U23, target=U23, table=table)
    assert a.hyperplane_order == (es([0]), es([1]), es([2]))
    with pytest.raises(TypeError):
        AdjointMap(U23, U23, table, ())
    with pytest.raises(TypeError):
        AdjointMap(U23, U23, table=table, hyperplane_order=())


def test_adjoint_map_equality_and_hash():
    a = AdjointMap(U23, U23, u23_table())
    assert a == AdjointMap(U23, uniform(2, 3), dict(u23_table()))
    other = AdjointMap(U23, U23, u23_table((1, 0, 2)))
    assert a != other
    assert other.hyperplane_order == (es([1]), es([0]), es([2]))
    assert a.__eq__(dict(a.table)) is NotImplemented
    with pytest.raises(TypeError):
        hash(a)
    with pytest.raises(TypeError):
        hash(SearchResult(a, False, 1))


def test_adjoint_map_repr_text():
    a = AdjointMap(U23, U23, u23_table())
    assert repr(a) == (
        "AdjointMap(source=Matroid(n=3, rank=2, bases=3), target=Matroid(n=3, rank=2, bases=3), "
        "table=mappingproxy({{}/3: {0,1,2}/3, {0}/3: {0}/3, {1}/3: {1}/3, {2}/3: {2}/3, "
        "{0,1,2}/3: {}/3}), hyperplane_order=({0}/3, {1}/3, {2}/3))"
    )
    assert repr(SearchResult(a, False, 1)) == f"SearchResult(found={a!r}, exhausted=False, candidates_examined=1, diagnostic=None)"
