import pytest

from matadj import Matroid, adjoint_from_representation, catalog


@pytest.fixture(scope="session")
def entries():
    return catalog()


@pytest.fixture(scope="session")
def fixture_maps(entries):
    """name -> verified covector adjoint map, for every catalog entry."""
    return {
        e.name: adjoint_from_representation(e.matroid, e.representation)
        for e in entries
    }


@pytest.fixture
def exchange_checks(monkeypatch):
    """A list that gains one entry per call of the exchange-axiom check."""
    calls = []
    check = Matroid._check_exchange

    def counted(self):
        calls.append(self)
        return check(self)

    monkeypatch.setattr(Matroid, "_check_exchange", counted)
    return calls
