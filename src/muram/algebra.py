"""Elements of the graded covering algebra over the rational function field.

An AlgebraElt is a finite sum of graded components a_m e_m with a_m in
F_p(x).  Multiplication needs the structure constants e_m e_n =
alpha(m,n) e_{m+n}; every operation takes a `table` argument, an object
exposing ``group`` and ``entry(m, n)``, a polynomial (a Cocycle,
KummerData, an InfinityChart or a LocalModel).

The table is a normalized symmetric cocycle, so the algebra is
commutative and associative of characteristic p; for q the exponent
of the group (its largest invariant-factor order) Frobenius gives
a^q = sum_m a_m^q e_m^q = s e_0 with s in F_p(x): every element is a
unit (s != 0, with inverse s^{-1} a^{q-1}) or nilpotent (s = 0).  A
monomial c e_m inverts in closed form, since e_m e_{-m} =
alpha(m,-m) e_0; every other element is inverted through a^{q-1}.

The public constructor turns every component into a RatFun and checks
its characteristic, since callers hand it Polys, RatFuns and mixed
input.  Sums, negations, scalings and products of elements are built by
``_elt`` instead: their components are RatFuns of the group's
characteristic by construction, so it only drops the zero ones.
"""

from __future__ import annotations

from .errors import CharMismatch, NotInvertible
from .fppoly import Poly, RatFun, _reduced, as_ratfun
from .pgroup import GElt, PGroup


def _elt(group: PGroup, comps: dict) -> "AlgebraElt":
    """Trusted AlgebraElt: comps maps GElts to RatFuns of the group's
    characteristic; only the zero components are dropped."""
    a = object.__new__(AlgebraElt)
    a.group = group
    a.comps = {m: v for m, v in comps.items() if v.num.coeffs}
    return a


def _times(f: Poly, g: Poly) -> Poly:
    """f * g, with no product formed when a factor is 1."""
    if f.coeffs == (1,):
        return g
    if g.coeffs == (1,):
        return f
    return f * g


class AlgebraElt:
    """Finitely many nonzero graded components, immutable by convention."""

    __slots__ = ("group", "comps")

    def __init__(self, group: PGroup, comps):
        clean = {}
        for m, v in comps.items():
            v = as_ratfun(v)
            if v.p != group.p:
                raise CharMismatch(
                    f"component at {m} has characteristic {v.p}, group has {group.p}"
                )
            if not v.is_zero():
                clean[m] = v
        self.group = group
        self.comps = clean

    @classmethod
    def unit(cls, group: PGroup):
        return cls(group, {group.zero(): RatFun.one(group.p)})

    @classmethod
    def basis(cls, group: PGroup, m: GElt):
        return cls(group, {m: RatFun.one(group.p)})

    @classmethod
    def zero(cls, group: PGroup):
        return cls(group, {})

    def is_zero(self):
        return not self.comps

    def __bool__(self):
        return bool(self.comps)

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElt)
            and self.group == other.group
            and self.comps == other.comps
        )

    def __hash__(self):
        return hash((self.group, tuple(sorted(self.comps.items(), key=lambda kv: kv[0].residues))))

    def __add__(self, other):
        if other.group.p != self.group.p:
            raise CharMismatch(f"characteristics differ: {self.group.p} vs {other.group.p}")
        out = dict(self.comps)
        for m, v in other.comps.items():
            out[m] = out[m] + v if m in out else v
        return _elt(self.group, out)

    def __neg__(self):
        return _elt(self.group, {m: -v for m, v in self.comps.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, r: RatFun):
        r = as_ratfun(r)
        return _elt(self.group, {m: v * r for m, v in self.comps.items()})

    def mul(self, other: "AlgebraElt", table) -> "AlgebraElt":
        out: dict[GElt, RatFun] = {}
        for m, a in self.comps.items():
            for n, b in other.comps.items():
                k = m + n
                # a * b * alpha(m, n), multiplied out and reduced once
                term = _reduced(_times(_times(a.num, b.num), table.entry(m, n)),
                                _times(a.den, b.den))
                out[k] = out[k] + term if k in out else term
        return _elt(self.group, out)

    def __str__(self):
        if not self.comps:
            return "0"
        parts = []
        for m in sorted(self.comps, key=lambda g: g.residues):
            parts.append(f"({self.comps[m]})*e_{m}")
        return " + ".join(parts)

    __repr__ = __str__


# no library path solves: kept for perfbench/layers.py's probe and the tests' dense reference
def solve_linear(matrix: list[list[RatFun]], rhs: list[RatFun]):
    """Solve matrix * x = rhs exactly over F_p(x); None when singular."""
    n = len(matrix)
    m = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not m[r][col].is_zero()), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = m[col][col].inverse()
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and not m[r][col].is_zero():
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def algebra_inverse(a: AlgebraElt, table) -> AlgebraElt:
    """Two-sided inverse of a in the generic-fiber algebra.

    A monomial c e_m has the inverse c^{-1} alpha(m,-m)^{-1} e_{-m}; any
    other element has s^{-1} a^{q-1}, where a^q = s e_0 (see the module
    docstring).  Raises NotInvertible when a is a zero divisor, that is
    nilpotent.
    """
    if a.is_zero():
        raise NotInvertible("zero is not invertible")
    group = a.group
    if len(a.comps) > 1:
        b = _power(a, group.factor_orders[0] - 1, table)
        s = b.mul(a, table).comps.get(group.zero())
        if s is None:
            raise NotInvertible(f"{a} is a zero divisor in the generic fiber")
        return b.scale(s.inverse())
    ((m, c),) = a.comps.items()
    return AlgebraElt(group, {-m: RatFun(c.den, c.num * table.entry(m, -m))})


def _power(a: AlgebraElt, e: int, table) -> AlgebraElt:
    """a^e for e >= 0, by repeated squaring."""
    result = AlgebraElt.unit(a.group)
    while e:
        if e & 1:
            result = result.mul(a, table)
        e >>= 1
        if e:
            a = a.mul(a, table)
    return result
