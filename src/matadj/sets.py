"""Subsets of a fixed ground set {0, ..., n-1}.

Inside the package a set is an int bitmask, bit e set when e is a member:
bases, flats, rank and closure queries and the tables of adjoint maps are
all masks.  ``ElementSet``, a mask plus the universe size n, is the
boundary type: public functions take and return it, and the package builds
one only where a caller reads a set.  Instances are immutable and hashable.

Membership is validated once, where a set is made from caller-supplied
elements: the constructor, ``of``, ``empty``, ``add`` and ``relabel`` refuse
a non-iterable and anything but an int in range (bools included).  The
queries ``in`` and ``remove`` take any value: one that is no label, a bool
among them, is not a member.  Set algebra, ``complement``, ``full`` and
``_trusted`` make sets from masks in the universe and check nothing.
``label_mask`` holds the one rule for a caller's list of labels (a basis, a
map entry, a CLI element list): a collection of non-bool ints in range,
none repeated, where a set would merge it.
"""
from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator, Mapping

from .errors import InputError, expect

_new = object.__new__
_set = object.__setattr__


def _immutable(self, name, value=None):
    raise AttributeError(f"{type(self).__name__} is immutable; cannot set or delete {name!r}")


def _is_label(e) -> bool:
    """Whether e is an int and not a bool: the only values that can be elements."""
    return type(e) is int or isinstance(e, int) and not isinstance(e, bool)


def _validated_mask(members: Iterable, universe: int) -> int:
    """The bitmask of ``members``, refusing anything but an int in range; repeats merge."""
    mask = 0
    for e in members:
        if type(e) is not int and not _is_label(e):  # plain ints skip the call
            raise InputError(f"non-integer element {e!r}")
        if e < 0 or e >= universe:
            raise InputError(f"element {e!r} out of range for ground set of size {universe}")
        mask |= 1 << e
    return mask


def label_mask(labels: Collection, universe: int, what: str) -> int:
    """The mask of a caller's list of labels, each a non-bool int in range, none
    repeated; labels that are no sized iterable raise the TypeError caught here."""
    try:
        mask = _validated_mask(labels, universe)
        size = len(labels)
    except InputError as exc:
        raise InputError(f"{what} {labels!r} has {exc}") from None
    except TypeError:
        raise InputError(f"{what} {labels!r} is not a collection of element labels") from None
    if mask.bit_count() != size:
        raise InputError(f"{what} {labels!r} repeats an element")
    return mask


def set_mask(S, universe: int) -> int:
    """The mask of the ``ElementSet`` S, after checking that it lives on
    {0, ..., universe-1}."""
    if S.__class__ is not ElementSet:
        raise InputError(f"expected ElementSet, got {type(S).__name__}")
    if S.universe != universe:
        raise InputError(f"set universe {S.universe} does not match ground-set size {universe}")
    return S.mask


def _ascending(first: int) -> tuple:
    """Entry v is the tuple of the positions first + k of the set bits k of
    the byte v, ascending; built by doubling, one bit at a time."""
    table = [()]
    for k in range(first, first + 8):
        table += [t + (k,) for t in table]
    return tuple(table)


_LOW_BITS, _HIGH_BITS, _TOP_BITS = _ascending(0), _ascending(8), _ascending(16)


def bits(mask: int) -> list:
    """The positions of the set bits of the non-negative ``mask``, ascending,
    in a new list.

    A mask below 2^24 is read off three 256-entry tables, one per byte; a
    larger one is decoded a set bit at a time.
    """
    if mask < 0x10000:
        return [*_LOW_BITS[mask & 255], *_HIGH_BITS[mask >> 8]]
    if mask < 0x1000000:
        return [*_LOW_BITS[mask & 255], *_HIGH_BITS[mask >> 8 & 255], *_TOP_BITS[mask >> 16]]
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class ElementSet:
    """A subset of {0, ..., universe-1}: bit e of ``mask`` is set when e is a member."""

    __slots__ = ("mask", "universe")

    def __init__(self, members: Iterable[int], universe: int):
        if type(universe) is not int or universe < 0:
            raise InputError(f"universe size must be a non-negative integer, got {universe!r}")
        expect(members, Iterable)
        _set(self, "mask", _validated_mask(members, universe))
        _set(self, "universe", universe)

    @classmethod
    def _trusted(cls, mask: int, universe: int) -> "ElementSet":
        """A set from a mask known to lie in the universe; nothing is checked."""
        s = _new(cls)
        _set(s, "mask", mask)
        _set(s, "universe", universe)
        return s

    @classmethod
    def of(cls, members: Iterable[int], universe: int) -> "ElementSet":
        return cls(members, universe)

    @classmethod
    def empty(cls, universe: int) -> "ElementSet":
        return cls((), universe)

    @classmethod
    def full(cls, universe: int) -> "ElementSet":
        return cls.empty(universe).complement()

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        return (ElementSet, (self.sorted(), self.universe))

    @property
    def members(self) -> frozenset:
        return frozenset(bits(self.mask))

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if other.__class__ is not ElementSet:
            return NotImplemented
        return self.mask == other.mask and self.universe == other.universe

    def __hash__(self) -> int:
        # the mask itself: equal sets share it, and it costs nothing to compute
        return self.mask

    # -- container protocol -------------------------------------------------

    def __iter__(self) -> Iterator[int]:
        return iter(bits(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, e) -> bool:
        return _is_label(e) and e >= 0 and bool(self.mask >> e & 1)

    def __bool__(self) -> bool:
        return self.mask != 0

    # -- set algebra (same universe required) -------------------------------

    def _check(self, other) -> None:
        """Refuse an operand that is not an ElementSet on the same universe."""
        if other.__class__ is not ElementSet:
            raise InputError(f"expected ElementSet, got {type(other).__name__}")
        if other.universe != self.universe:
            raise InputError(f"universe mismatch: {self.universe} vs {other.universe}")

    def __or__(self, other: "ElementSet") -> "ElementSet":
        self._check(other)
        return _trusted(self.mask | other.mask, self.universe)

    def __and__(self, other: "ElementSet") -> "ElementSet":
        self._check(other)
        return _trusted(self.mask & other.mask, self.universe)

    def __sub__(self, other: "ElementSet") -> "ElementSet":
        self._check(other)
        return _trusted(self.mask & ~other.mask, self.universe)

    def __le__(self, other: "ElementSet") -> bool:
        """Subset test."""
        self._check(other)
        return not self.mask & ~other.mask

    def issubset(self, other: "ElementSet") -> bool:
        return self <= other

    def isdisjoint(self, other: "ElementSet") -> bool:
        self._check(other)
        return not self.mask & other.mask

    def complement(self) -> "ElementSet":
        return _trusted(((1 << self.universe) - 1) & ~self.mask, self.universe)

    def add(self, e: int) -> "ElementSet":
        return _trusted(self.mask | _validated_mask((e,), self.universe), self.universe)

    def remove(self, e: int) -> "ElementSet":
        if _is_label(e) and 0 <= e < self.universe:
            return _trusted(self.mask & ~(1 << e), self.universe)
        return self

    # -- ordering and relabeling --------------------------------------------

    @property
    def key(self) -> tuple:
        """Canonical sort key: the sorted member tuple (lexicographic order)."""
        return tuple(bits(self.mask))

    def sorted(self) -> list:
        return bits(self.mask)

    def relabel(self, mapping: Mapping[int, int], new_universe: int) -> "ElementSet":
        """Push the set through an element relabeling (must be defined on all members)."""
        expect(mapping, Mapping)
        try:
            return ElementSet(map(mapping.__getitem__, bits(self.mask)), new_universe)
        except KeyError as exc:
            raise InputError(f"relabeling undefined on element {exc.args[0]}") from exc

    def __repr__(self) -> str:
        inner = ",".join(map(str, bits(self.mask)))
        return f"{{{inner}}}/{self.universe}"


_trusted = ElementSet._trusted


class Record:
    """An immutable record: equality (same class, equal fields), hash and repr
    read the fields named, in order, by ``_fields``.  ``__init__`` sets them and
    any caches, which equality ignores, by ``_set``; they pickle by ``__dict__``."""

    _fields: tuple = ()
    __setattr__ = __delattr__ = _immutable

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        inner = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{type(self).__qualname__}({inner})"
