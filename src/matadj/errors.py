"""Exception hierarchy shared across the package."""


class MatadjError(Exception):
    """Base class for all errors raised by this package."""


class InputError(MatadjError):
    """Malformed or out-of-range input: bad element labels, bad files, rank mismatches."""


class PreconditionError(InputError):
    """An operation's stated precondition was violated (e.g. a non-coindependent deletion set)."""


class StructureError(MatadjError):
    """An adjoint-map table is structurally broken (not total, or a value is not a flat).

    Distinct from a *failed verification check*: a structurally sound table that
    merely fails injectivity or inclusion-reversal produces a report, not this error.
    """


class ConstructionError(MatadjError):
    """A construction that is guaranteed correct by a theorem produced an invalid result.

    Seeing this means an implementation bug, not bad input.
    """


def expect(value, cls) -> None:
    """Raise InputError unless ``value`` is a ``cls``: the class test at a public entry."""
    if not isinstance(value, cls):
        raise InputError(f"expected {cls.__name__}, got {type(value).__name__}")
