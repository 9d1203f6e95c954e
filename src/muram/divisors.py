"""Formal integer combinations of places, with a symbolic-place mode.

Symbolic places are named degree markers for divisors living on spaces
other than the curve (the matrix-space regression uses one); they never
mix with curve places inside a single divisor.
"""

from __future__ import annotations

from .errors import ChartMismatch, MissingIndex, UndeclaredSymbolicDegree
from .fppoly import Place


class SymbolicPlace:
    """Equal and hashed by (name, degree_value)."""

    def __init__(self, name: str, degree_value: int | None = 1):
        self.name = name
        self.degree_value = degree_value

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.degree_value) == (other.name, other.degree_value)

    def __hash__(self):
        return hash((self.name, self.degree_value))

    def __repr__(self):
        return f"SymbolicPlace(name={self.name!r}, degree_value={self.degree_value!r})"

    def degree(self):
        if self.degree_value is None:
            raise UndeclaredSymbolicDegree(f"symbolic place [{self.name}] has no degree")
        return self.degree_value

    def sort_key(self):
        return (2, 0, (self.name,))

    def __str__(self):
        return f"[{self.name}]"


def _check_uniform(places):
    kinds = {isinstance(v, SymbolicPlace) for v in places}
    if len(kinds) > 1:
        raise ChartMismatch("symbolic and curve places cannot share a divisor")
    chars = {v.p for v in places if isinstance(v, Place)}
    if len(chars) > 1:
        raise ChartMismatch(f"places of different characteristics: {sorted(chars)}")


class Divisor:
    """Immutable map place -> nonzero multiplicity."""

    __slots__ = ("_items",)

    def __init__(self, support: dict):
        items = [(v, m) for v, m in support.items() if m != 0]
        _check_uniform([v for v, _ in items])
        self._items = tuple(sorted(items, key=lambda vm: vm[0].sort_key()))

    @classmethod
    def zero(cls):
        return cls({})

    @property
    def support(self) -> dict:
        return dict(self._items)

    def items(self):
        return self._items

    def multiplicity(self, v) -> int:
        return self.support.get(v, 0)

    def is_zero(self):
        return not self._items

    def __add__(self, other):
        out = self.support
        for v, m in other.items():
            out[v] = out.get(v, 0) + m
        return Divisor(out)

    def __neg__(self):
        return Divisor({v: -m for v, m in self._items})

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return isinstance(other, Divisor) and self._items == other._items

    def __hash__(self):
        return hash(self._items)

    def degree(self) -> int:
        return sum(m * v.degree() for v, m in self._items)

    def __str__(self):
        if not self._items:
            return "0"
        return " + ".join(
            (f"{m}" if m != 1 else "") + f"{v}" for v, m in self._items
        )

    __repr__ = __str__


def pullback(d: Divisor, ram_index: dict) -> Divisor:
    """Multiply every multiplicity by its local index.

    Places upstairs and downstairs correspond bijectively for the
    coverings handled here, so the pullback acts place-by-place.
    """
    out = {}
    for v, m in d.items():
        if v not in ram_index:
            raise MissingIndex(f"no ramification index given for {v}")
        e = ram_index[v]
        if e < 1:
            raise ValueError(f"ramification index at {v} must be positive")
        out[v] = e * m
    return Divisor(out)
