"""Finite abelian p-groups presented by invariant factors.

A group is Z/p^{n_1} x ... x Z/p^{n_r} with n_1 >= ... >= n_r >= 1.
Elements are tuples of canonical residues.  The carry function sigma
returns one carry bit per factor; it is the symmetric 2-cocycle that
turns a tuple of chart equations into a multiplication table, so its
cocycle identity is what downstream validation relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import GroupMismatch
from .fppoly import _check_prime

MAX_ORDER = 2 ** 16


@dataclass(frozen=True)
class PGroup:
    p: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        # no p-group of order > 1 within MAX_ORDER has p > MAX_ORDER; refuse before trial division
        if self.p > MAX_ORDER:
            raise ValueError(f"characteristic {self.p} exceeds {MAX_ORDER}")
        _check_prime(self.p)
        object.__setattr__(self, "exponents", tuple(self.exponents))
        # no invariant factors = the trivial group
        if any(n < 1 for n in self.exponents):
            raise ValueError("invariant factor exponents must be >= 1")
        if list(self.exponents) != sorted(self.exponents, reverse=True):
            raise ValueError("exponents must be non-increasing")
        if self.order > MAX_ORDER:
            raise ValueError(f"group order {self.order} exceeds {MAX_ORDER}")

    @property
    def order(self) -> int:
        n = 1
        for e in self.exponents:
            n *= self.p ** e
        return n

    @property
    def rank(self) -> int:
        return len(self.exponents)

    @property
    def is_cyclic(self) -> bool:
        return len(self.exponents) == 1

    @property
    def factor_orders(self) -> tuple[int, ...]:
        return tuple(self.p ** e for e in self.exponents)

    def elt(self, residues) -> "GElt":
        if isinstance(residues, int):
            residues = (residues,)
        residues = tuple(residues)
        if len(residues) != self.rank:
            raise GroupMismatch(
                f"element needs {self.rank} residues, got {len(residues)}"
            )
        return GElt(self, tuple(r % q for r, q in zip(residues, self.factor_orders)))

    def zero(self) -> "GElt":
        return GElt(self, (0,) * self.rank)

    def elements(self):
        """All elements in the canonical (lexicographic) order."""
        for residues in product(*(range(q) for q in self.factor_orders)):
            yield GElt(self, residues)

    def __str__(self):
        return " x ".join(f"Z/{q}" for q in self.factor_orders)


@dataclass(frozen=True)
class GElt:
    group: PGroup
    residues: tuple[int, ...]

    def _same(self, other: "GElt"):
        if not isinstance(other, GElt):
            raise TypeError(f"expected GElt, got {type(other).__name__}")
        if self.group != other.group:
            raise GroupMismatch(f"elements of {self.group} and {other.group}")

    def __add__(self, other):
        self._same(other)
        return self.group.elt(a + b for a, b in zip(self.residues, other.residues))

    def __neg__(self):
        return self.group.elt(-a for a in self.residues)

    def __sub__(self, other):
        self._same(other)
        return self.group.elt(a - b for a, b in zip(self.residues, other.residues))

    def is_zero(self):
        return all(a == 0 for a in self.residues)

    def rep(self) -> tuple[int, ...]:
        """Componentwise canonical representative in [0, p^{n_i})."""
        return self.residues

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
    i._same(j)
    out = []
    for a, b, q in zip(i.residues, j.residues, i.group.factor_orders):
        out.append((a + b) // q)
    return tuple(out)


@dataclass(frozen=True)
class Subgroup:
    group: PGroup
    members: tuple[GElt, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "members", tuple(sorted(set(self.members), key=lambda g: g.residues))
        )

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, g: GElt) -> bool:
        return g in set(self.members)

    def __iter__(self):
        return iter(self.members)

    def is_trivial(self):
        return self.order == 1

    def is_full(self):
        return self.order == self.group.order

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
