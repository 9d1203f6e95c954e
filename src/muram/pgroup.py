"""Finite abelian p-groups presented by invariant factors.

A group is Z/p^{n_1} x ... x Z/p^{n_r} with n_1 >= ... >= n_r >= 1.
Elements are tuples of canonical residues.  Each group interns its
elements: ``elt``, ``zero``, ``elements()`` and the arithmetic hand out
the one ``GElt`` the group holds for a residue tuple, so an element and
its hash are built once per group.  A cyclic group keeps them in a list
indexed by residue, filled lazily as elements are first asked for, and
adds, subtracts and negates by indexing it: Python's negative indices
give the residue mod q, so no ``%`` and no tuple are needed.  A product
group keeps them in a dict keyed by the residue tuple and does its
arithmetic componentwise.  Elements still compare by value: elements of
two equal groups built separately are equal and hash equal.
The carry function sigma returns one carry bit per factor; it is the
symmetric 2-cocycle that turns a tuple of chart equations into a
multiplication table, so its cocycle identity is what downstream
validation relies on.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from math import prod

from ._record import FrozenRecord
from .errors import GroupMismatch
from .fppoly import _check_prime

MAX_ORDER = 2 ** 16


class PGroup:
    """Treated as immutable: the invariants and the hash are computed at
    construction; the element table fills as elements are first asked for."""

    __slots__ = ("p", "exponents", "factor_orders", "order", "_hash", "_line", "_elts")

    def __init__(self, p: int, exponents: tuple[int, ...]):
        # no p-group of order > 1 within MAX_ORDER has p > MAX_ORDER; refuse before trial division
        if p > MAX_ORDER:
            raise ValueError(f"characteristic {p} exceeds {MAX_ORDER}")
        _check_prime(p)
        exponents = tuple(exponents)
        # no invariant factors = the trivial group
        if any(n < 1 for n in exponents):
            raise ValueError("invariant factor exponents must be >= 1")
        if list(exponents) != sorted(exponents, reverse=True):
            raise ValueError("exponents must be non-increasing")
        # p >= 2, so an exponent sum reaching MAX_ORDER's bit length is too
        # large already; refuse it before computing the power
        e = sum(exponents)
        if e >= MAX_ORDER.bit_length() or p ** e > MAX_ORDER:
            raise ValueError(f"group order {p}^{e} exceeds {MAX_ORDER}")
        self.p = p
        self.exponents = exponents
        self.factor_orders = tuple(p ** n for n in exponents)
        self.order = prod(self.factor_orders)
        self._hash = hash((p, exponents))
        # the group's GElts: by residue on a cyclic group, else by residue tuple
        cyclic = len(exponents) == 1
        self._line = [None] * self.order if cyclic else None
        self._elts = None if cyclic else {}

    @property
    def rank(self) -> int:
        return len(self.exponents)

    @property
    def is_cyclic(self) -> bool:
        return len(self.exponents) == 1

    def _intern(self, residues: tuple[int, ...]) -> "GElt":
        """The group's element with these canonical residues."""
        line = self._line
        if line is not None:
            m = line[residues[0]]
            if m is None:
                m = line[residues[0]] = GElt(self, residues)
            return m
        m = self._elts.get(residues)
        if m is None:
            m = self._elts[residues] = GElt(self, residues)
        return m

    def elt(self, residues) -> "GElt":
        if isinstance(residues, int):
            residues = (residues,)
        residues = tuple(residues)
        if len(residues) != len(self.exponents):
            raise GroupMismatch(
                f"element needs {self.rank} residues, got {len(residues)}"
            )
        return self._intern(tuple([r % q for r, q in zip(residues, self.factor_orders)]))

    def zero(self) -> "GElt":
        return self._intern((0,) * len(self.exponents))

    def elements(self):
        """All elements in the canonical (lexicographic) order."""
        line = self._line
        if line is not None:
            for r, m in enumerate(line):
                yield m or self._intern((r,))
            return
        for residues in product(*(range(q) for q in self.factor_orders)):
            yield self._intern(residues)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not PGroup:
            return NotImplemented
        return self.p == other.p and self.exponents == other.exponents

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"PGroup(p={self.p!r}, exponents={self.exponents!r})"

    def __str__(self):
        return " x ".join(f"Z/{q}" for q in self.factor_orders)


class GElt:
    """An element of a PGroup; obtain one from the group, not by calling
    the class, so that equal elements of one group are one object."""

    __slots__ = ("group", "residues", "_hash")

    def __init__(self, group: PGroup, residues: tuple[int, ...]):
        self.group = group
        self.residues = residues
        self._hash = hash((group, residues))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not GElt:
            return NotImplemented
        return self.residues == other.residues and self.group == other.group

    def __hash__(self):
        return self._hash

    def _same(self, other: "GElt") -> PGroup:
        """The common group of self and other; the operators call it only
        when other is not an element of self's own group object."""
        if not isinstance(other, GElt):
            raise TypeError(f"expected GElt, got {type(other).__name__}")
        group = self.group
        if other.group is not group and other.group != group:
            raise GroupMismatch(f"elements of {group} and {other.group}")
        return group

    def __add__(self, other):
        group = self.group
        if other.__class__ is not GElt or other.group is not group:
            group = self._same(other)
        line = group._line
        if line is None:
            return group._intern(tuple([
                (a + b) % q for a, b, q in zip(self.residues, other.residues, group.factor_orders)
            ]))
        s = self.residues[0] + other.residues[0]
        if s >= group.order:
            s -= group.order
        return line[s] or group._intern((s,))

    def __neg__(self):
        group = self.group
        line = group._line
        if line is None:
            return group._intern(tuple([-a % q for a, q in zip(self.residues, group.factor_orders)]))
        a = self.residues[0]
        return line[-a] or group._intern((-a % group.order,))

    def __sub__(self, other):
        group = self.group
        if other.__class__ is not GElt or other.group is not group:
            group = self._same(other)
        line = group._line
        if line is None:
            return group._intern(tuple([
                (a - b) % q for a, b, q in zip(self.residues, other.residues, group.factor_orders)
            ]))
        d = self.residues[0] - other.residues[0]
        return line[d] or group._intern((d % group.order,))

    def is_zero(self):
        return not any(self.residues)

    def rep(self) -> tuple[int, ...]:
        """Componentwise canonical representative in [0, p^{n_i})."""
        return self.residues

    def __repr__(self):
        return f"GElt(group={self.group!r}, residues={self.residues!r})"

    def __str__(self):
        if self.group.is_cyclic:
            return str(self.residues[0])
        return "(" + ",".join(map(str, self.residues)) + ")"


def sigma(i: GElt, j: GElt) -> tuple[int, ...]:
    """Componentwise addition carry: (s(i) + s(j) - s(i+j)) / p^{n_k}.

    Each component is 0 or 1.  Symmetric in (i, j) and satisfies
    sigma(l,m) + sigma(l+m,n) = sigma(m,n) + sigma(l,m+n) componentwise,
    which is exactly what makes power tables built from it associative.
    """
    group = i.group
    if j.__class__ is not GElt or j.group is not group:
        group = i._same(j)
    return tuple([(a + b) // q for a, b, q in zip(i.residues, j.residues, group.factor_orders)])


class Subgroup(FrozenRecord):
    """Members sorted by residues, so equal subgroups are equal records."""

    _fields = ("group", "members")

    def __init__(self, group: PGroup, members: tuple[GElt, ...]):
        self.group = group
        self.members = tuple(sorted(set(members), key=lambda g: g.residues))

    @property
    def order(self) -> int:
        return len(self.members)

    @cached_property
    def _member_set(self) -> frozenset:
        return frozenset(self.members)

    def __contains__(self, g: GElt) -> bool:
        return g in self._member_set

    def __iter__(self):
        return iter(self.members)

    def is_trivial(self):
        return self.order == 1

    def __str__(self):
        return "{" + ", ".join(str(g) for g in self.members) + "}"


def subgroup_generated(group: PGroup, gens) -> Subgroup:
    """Smallest subgroup containing gens, by saturation."""
    members = {group.zero()}
    for g in gens:
        if g.group != group:
            raise GroupMismatch("generator from a different group")
    frontier = set(gens)
    members |= frontier
    while frontier:
        new = set()
        for a in frontier:
            for b in list(members):
                for c in (a + b, -a):
                    if c not in members:
                        new.add(c)
        members |= new
        frontier = new
    return Subgroup(group, tuple(members))
