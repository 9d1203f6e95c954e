"""Covering data: symmetric multiplication tables and their normal forms.

A covering of the affine line graded by a finite abelian p-group M is
recorded by its structure constants alpha(m, n) in F_p[x], subject to
normalization alpha(0, m) = 1, symmetry, and the associativity relation
alpha(l,m) alpha(l+m,n) = alpha(m,n) alpha(l,m+n).

KummerData is the normal form: one chart equation per invariant factor
plus an optional coboundary twist b, with structure constants

    alpha(m, n) = prod_i f_i^{sigma_i(m,n)} * b(m) b(n) / b(m+n).

twisted_entry is the one place that forms a twisted structure constant;
KummerData and twist() both call it.  For cyclic M every table is
determined by the column alpha(i, 1): with beta_0 = beta_1 = 1,
beta_{i+1} = beta_i alpha(i, 1) and f the product of the column, the
table is the Kummer data of f twisted by b(i) = 1/beta_i.
cocycle_from_column rebuilds a table that way (columns that force
denominators are rejected).  A raw cyclic Cocycle is compared with the
reconstruction from its own column once, in polynomials, and keeps the
outcome: that Kummer form, or the refusal.  forward_decompose,
kummer_form and validate all read it.  A table equal to its
reconstruction is valid, so validate scans the q^3 triples only for
product groups, or to name the first failing tuples of a cyclic table
that differs from its reconstruction.  KummerData.to_cocycle and
cocycle_from_column keep the data they built the table from in the same
place, so their tables need no reconstruction.

A raw table stores its entries.  The table of KummerData forms all q^2
at once when an entry is first asked for (pairs, ==, validate's scans,
serialization); valuations, potentials and the column a decomposition
reads never ask.  Its integrality is decided when it is made, from
potentials (KummerData.check_integral).

A table is anything with ``group``, ``entry(m, n)``,
``entry_valuation(m, n, place)`` and ``potential(place)``, and
InfinityChart is a view of any table on the chart at infinity.
KummerData builds no entry to answer a valuation.  Once per place v it
forms the integer potential

    P_v(m) = sum_i m_i v(f_i) |G|/q_i + |G| v(b(m)),

and then v(alpha(m, n)) = (P_v(m) + P_v(n) - P_v(m+n)) / |G| exactly,
because |G| sigma_i(m, n) = (m_i + n_i - (m+n)_i) |G|/q_i.  A Cocycle
whose Kummer form is known answers with that form's potential; one
whose form is not known (a product table read from entries, or a cyclic
table not yet decided or refused) has none and values its stored
entries.  Asking for a potential never decides a table.  The chart at
infinity over a table with a potential has the potential
Q(m) = |G| d(m) + P_inf(m) at u = 0, so its u-exponents are read off Q
in the same way.
"""

from __future__ import annotations

from functools import cached_property

from ._record import Record
from .errors import (
    CharMismatch,
    NonIntegralCocycle,
    UnsupportedDecomposition,
    ZeroEntry,
)
from .fppoly import Place, Poly, RatFun, as_ratfun, factor, valuation
from .pgroup import GElt, PGroup, sigma


class Cocycle:
    """Full symmetric table of structure constants with Poly entries.

    The entries are not changed after construction, so the table's Kummer
    form is kept once known, in _kummer: the KummerData the table was
    built from, a cyclic table's column form once decided (see
    _decomposition), or the message refusing it.  Entry valuations are
    read off that form's potential when there is one, and off the stored
    entries otherwise.  The table of KummerData has _entries None until
    its first entry is asked for, and then forms them all from its Kummer
    form.
    """

    __slots__ = ("group", "_entries", "_kummer")

    def __init__(self, group: PGroup, entries: dict):
        self.group = group
        self._entries = entries
        self._kummer = None  # None | KummerData | refusal message
        for (m, n), a in entries.items():
            if a.p != group.p:
                raise CharMismatch(f"entry ({m},{n}) has characteristic {a.p}")
            if a.is_zero():
                raise ZeroEntry(f"entry ({m},{n}) is zero")

    @classmethod
    def trivial(cls, group: PGroup):
        one = Poly.one(group.p)
        return cls(group, {(m, n): one for m in group.elements() for n in group.elements()})

    @classmethod
    def from_entries(cls, group: PGroup, entries: dict):
        """Build from a partial table; missing mirror pairs are filled by
        symmetry and missing identity pairs by 1.  Provided entries are
        never rewritten, so invalid input stays visible to validate()."""
        one = Poly.one(group.p)
        full = {}
        for (m, n), a in entries.items():
            full[(m, n)] = a
            full.setdefault((n, m), a)
        for m in group.elements():
            for n in group.elements():
                if (m, n) in full:
                    continue
                if m.is_zero() or n.is_zero():
                    full[(m, n)] = one
                else:
                    raise ZeroEntry(f"missing entry ({m},{n})")
        return cls(group, full)

    def entry(self, m: GElt, n: GElt) -> Poly:
        entries = self._entries
        if entries is None:
            elements = list(self.group.elements())
            entry = self._kummer.entry
            entries = self._entries = {(m, n): entry(m, n) for m in elements for n in elements}
        return entries[(m, n)]

    def entry_valuation(self, m: GElt, n: GElt, v: Place) -> int:
        kd = self._kummer
        if isinstance(kd, KummerData):
            return kd.entry_valuation(m, n, v)
        return valuation(self.entry(m, n), v)

    def potential(self, v: Place) -> dict | None:
        """The potential of the table's Kummer form when that form is
        known, else None; it never starts a reconstruction."""
        kd = self._kummer
        return kd.potential(v) if isinstance(kd, KummerData) else None

    def pairs(self):
        """Canonically ordered (m, n, alpha(m,n)) with m <= n."""
        elements = list(self.group.elements())
        for i, m in enumerate(elements):
            for n in elements[i:]:
                yield m, n, self.entry(m, n)

    def __eq__(self, other):
        return (
            isinstance(other, Cocycle)
            and self.group == other.group
            and all(
                self.entry(m, n) == other.entry(m, n)
                for m in self.group.elements()
                for n in self.group.elements()
            )
        )


class ValidationReport(Record):
    _fields = ("failures",)

    def __init__(self, failures: list | None = None):
        self.failures = [] if failures is None else failures  # (invariant name, offending tuple)

    @property
    def ok(self) -> bool:
        return not self.failures

    def first(self, name):
        for n, info in self.failures:
            if n == name:
                return info
        return None


def validate(c: Cocycle) -> ValidationReport:
    """Check normalization, symmetry, and the associativity relation,
    reporting the first violating tuple per invariant.

    A cyclic table equal to the reconstruction from its column has no
    failures: the reconstruction is normalized and symmetric, and it is a
    cocycle because sigma is one and b(m) b(n) / b(m+n) is a coboundary.
    The scans run for product groups and for cyclic tables that differ
    from their reconstruction.
    """
    group = c.group
    if group.is_cyclic and not isinstance(_decomposition(c), str):
        return ValidationReport([])
    elements = list(group.elements())
    one = Poly.one(group.p)
    zero = group.zero()
    e = c.entry
    scans = [
        ("normalization", ((zero, m) for m in elements if e(zero, m) != one or e(m, zero) != one)),
        ("symmetry", (
            (m, n) for i, m in enumerate(elements) for n in elements[i:] if e(m, n) != e(n, m)
        )),
        ("cocycle identity", (
            (l, m, n) for l in elements for m in elements for n in elements
            if e(l, m) * e(l + m, n) != e(m, n) * e(l, m + n)
        )),
    ]
    failures = []
    for name, scan in scans:
        first = next(scan, None)
        if first is not None:
            failures.append((name, tuple(map(str, first))))
    return ValidationReport(failures)


class KummerData(Record):
    """Per-factor chart equations f_i, with an optional coboundary twist.

    The induced table is prod_i f_i^{sigma_i(m,n)} * b(m) b(n) / b(m+n);
    to_cocycle() insists the result is integral.  The twist is kept as
    RatFun values, or None when empty.  Hashed by its group, factors and
    twist elements, so it is not changed after construction.
    """

    _fields = ("group", "factors", "twist")

    def __init__(self, group: PGroup, factors: tuple[Poly, ...], twist: dict | None = None):
        self.group = group
        self.factors = factors = tuple(factors)
        self.twist = twist = {m: as_ratfun(b) for m, b in twist.items()} if twist else None
        if len(factors) != group.rank:
            raise ValueError(
                f"need one chart equation per invariant factor "
                f"({group.rank}), got {len(factors)}"
            )
        for f in factors:
            if f.is_zero():
                raise ZeroEntry("chart equation is zero")
            if f.p != group.p:
                raise CharMismatch("chart equation characteristic differs from the group's")
        if twist is not None:
            b0 = twist.get(group.zero())
            if b0 is not None and not b0.is_one():
                raise ValueError("twist must send 0 to 1")
        self._potentials = {}  # place -> potential(place)

    def __hash__(self):
        twist = self.twist
        return hash((self.group, self.factors, None if twist is None else frozenset(twist)))

    def twist_at(self, m: GElt) -> RatFun:
        """Twist value at m; elements without an explicit value twist by 1."""
        b = None if self.twist is None else self.twist.get(m)
        if b is None:
            return RatFun.one(self.group.p)
        if b.is_zero():
            raise ZeroEntry(f"twist is zero at {m}")
        return b

    def raw_entry(self, m: GElt, n: GElt) -> RatFun:
        a = Poly.one(self.group.p)
        for f, s in zip(self.factors, sigma(m, n)):
            if s:
                a = a * f
        if not self.twist:
            return RatFun.from_poly(a)
        return twisted_entry(a, self.twist_at(m), self.twist_at(n), self.twist_at(m + n))

    def entry(self, m: GElt, n: GElt) -> Poly:
        a = self.raw_entry(m, n)
        if not a.is_poly():
            raise NonIntegralCocycle(f"entry ({m},{n}) = {a} is not a polynomial")
        return a.as_poly()

    def entry_valuation(self, m: GElt, n: GElt, v: Place) -> int:
        """v(alpha(m,n)) = (P_v(m) + P_v(n) - P_v(m+n)) / |G|, exactly."""
        pot = self.potential(v)
        return (pot[m] + pot[n] - pot[m + n]) // self.group.order

    def potential(self, v: Place) -> dict:
        """{m: P_v(m)}, P_v(m) = sum_i m_i v(f_i) |G|/q_i + |G| v(b(m)),
        formed once per place."""
        pot = self._potentials.get(v)
        if pot is None:
            group = self.group
            order = group.order
            weights = [valuation(f, v) * (order // q)
                       for f, q in zip(self.factors, group.factor_orders)]
            pot = {m: sum(r * w for r, w in zip(m.residues, weights))
                   for m in group.elements()}
            for m in self.twist or ():
                if m in pot:
                    pot[m] += order * valuation(self.twist_at(m), v)
            self._potentials[v] = pot
        return pot

    def check_integral(self) -> None:
        """Raise what forming every entry in row order would, forming only
        the first refused one.  A zero twist value is refused at the first
        such element, as the row of 0 would.  A pair (m, n) can have a pole
        only at a prime of b(m), b(n) or b(m+n), and none when m or n is 0
        (b(0) = 1), so the scan factors a twist value's numerator and
        denominator when it first needs them, each distinct part once; the
        first pair with P(m) + P(n) < P(m+n) at one of those primes has a
        pole, and entry(m, n) raises."""
        if not self.twist:
            return
        elements = list(self.group.elements())
        values = {m: self.twist_at(m) for m in elements}
        if all(b.num.is_constant() and b.den.is_constant() for b in values.values()):
            return  # no prime, no pole
        at_part, at_element = {}, {}  # the potentials at the primes of each

        def pots(m):
            if m not in at_element:
                b = values[m]
                for part in (b.num, b.den):
                    if part not in at_part:
                        at_part[part] = [self.potential(Place._of_irreducible(irr))
                                         for irr in factor(part)]
                at_element[m] = at_part[b.num] + at_part[b.den]
            return at_element[m]

        for i, m in enumerate(elements):
            for j, n in enumerate(elements):
                k = m + n
                if i and j and any(pot[m] + pot[n] < pot[k]
                                   for pot in pots(m) + pots(n) + pots(k)):
                    self.entry(m, n)

    def to_cocycle(self) -> Cocycle:
        """The table, which keeps this data as its Kummer form and forms
        its entries on first use; check_integral() runs first, so a
        non-integral twist raises here."""
        self.check_integral()
        c = Cocycle(self.group, {})
        c._entries = None
        c._kummer = self
        return c


def kummer_form(cov) -> KummerData | None:
    """KummerData as given; a cyclic raw table as z^q = f through
    forward_decompose; a trivial-group table, whose one entry must be
    alpha(0, 0) = 1, as the empty chart data; None for a raw product
    table."""
    if isinstance(cov, KummerData):
        return cov
    if cov.group.rank == 0:
        zero = cov.group.zero()
        if not cov.entry(zero, zero).is_one():
            raise UnsupportedDecomposition(
                f"table is not a valid symmetric cocycle at ({zero},{zero})"
            )
        return KummerData(cov.group, ())
    if not cov.group.is_cyclic:
        return None
    _, f = forward_decompose(cov)
    return KummerData(cov.group, (f,))


def twisted_entry(a: Poly, bm: RatFun, bn: RatFun, bmn: RatFun) -> RatFun:
    """a * b(m) b(n) / b(m+n) for bm = b(m), bn = b(n), bmn = b(m+n):
    numerator and denominator are multiplied out, and a non-constant
    denominator is divided out once; the reduced fraction, with its gcd,
    is formed only when that division leaves a remainder."""
    num = a * bm.num * bn.num * bmn.den
    den = bm.den * bn.den * bmn.num
    if den.degree() > 0:
        quo, rem = divmod(num, den)
        if rem.is_zero():
            return RatFun.from_poly(quo)
    return RatFun(num, den)


def cocycle_from_column(group: PGroup, column) -> Cocycle:
    """Rebuild the full table of a cyclic covering from its first column
    (alpha(1,1), ..., alpha(q-1,1)).

    Raises NonIntegralCocycle when some rebuilt entry has a denominator.
    """
    if not group.is_cyclic or group.order < 2:
        raise UnsupportedDecomposition("column reconstruction needs a cyclic group of order >= 2")
    q = group.order
    column = list(column)
    if len(column) != q - 1:
        raise ValueError(f"column must have {q - 1} entries, got {len(column)}")
    for a in column:
        if a.is_zero():
            raise ZeroEntry("column entries must be nonzero")
    return _ColumnForm(group, *_column_betas(column)).to_cocycle()


def _column_betas(column: list[Poly]) -> tuple[list[Poly], Poly]:
    """(betas, f) of the column (alpha(1,1), ..., alpha(q-1,1)): beta_0 =
    beta_1 = 1, beta_{i+1} = beta_i alpha(i, 1), and f the product of the
    column.  The table they determine is beta_{i+j} beta_i^{-1}
    beta_j^{-1} f^{sigma(i,j)}: f twisted by b(i) = 1/beta_i."""
    one = Poly.one(column[0].p)
    beta = [one, one]
    for a in column[:-1]:
        beta.append(beta[-1] * a)
    return beta, beta[-1] * column[-1]


class _ColumnForm(KummerData):
    """f twisted by b(i) = 1/beta_i, the Kummer form of the cyclic table
    whose column has these betas and product f; it keeps the betas, which
    forward_decompose returns.  Its twist leaves out b(i) = 1, so the
    column form of untwisted data is untwisted too."""

    def __init__(self, group: PGroup, beta: list[Poly], f: Poly):
        self.betas = betas = [RatFun.from_poly(b) for b in beta]
        super().__init__(group, (f,), {group.elt(i): b.inverse()
                                       for i, b in enumerate(betas) if not b.is_one()})


def _column(c) -> list[Poly]:
    """(alpha(1,1), ..., alpha(q-1,1)) of a cyclic table or its Kummer data."""
    elements = list(c.group.elements())  # elements[i] has residue i
    return [c.entry(m, elements[1]) for m in elements[1:]]


def _decomposition(c: Cocycle):
    """The cyclic table's column form, or the refusal message, kept on the
    Cocycle.  A raw table is decided once by _reconstruct.  A table built
    from other Kummer data is valid, so its column form is read off that
    data's column once, with no comparison and no table entry formed."""
    d = c._kummer
    if d is None:
        d = c._kummer = _reconstruct(c)
    elif isinstance(d, KummerData) and not isinstance(d, _ColumnForm):
        d = c._kummer = _ColumnForm(c.group, *_column_betas(_column(d)))
    return d


def _reconstruct(c: Cocycle):
    """The column form of c when c equals the reconstruction from its
    column, else the refusal message at the first differing (m, n) in row
    order.

    All of alpha, beta and f are polynomials, so alpha(i,j) = beta_{i+j}
    beta_i^{-1} beta_j^{-1} f^{sigma(i,j)} is tested as alpha(i,j) beta_i
    beta_j = beta_{i+j mod q} f^{sigma(i,j)}, with no fraction formed.
    """
    q = c.group.order
    elements = list(c.group.elements())  # elements[i] has residue i
    e = c.entry
    beta, f = _column_betas(_column(c))
    beta_f = [b * f for b in beta]  # the right side when i + j carries
    for i, m in enumerate(elements):
        beta_i = beta[i]
        for j, n in enumerate(elements):
            k = i + j
            if e(m, n) * beta_i * beta[j] != (beta[k] if k < q else beta_f[k - q]):
                return f"table is not a valid symmetric cocycle at ({m},{n})"
    return _ColumnForm(c.group, beta, f)


def forward_decompose(c: Cocycle):
    """Recover (betas, f) with alpha(i,j) = beta_{i+j} beta_i^{-1}
    beta_j^{-1} f^{sigma(i,j)} from a cyclic table.

    beta_0 = beta_1 = 1 and f is the product of the first column.  The
    identity holds for every pair, or UnsupportedDecomposition names the
    first pair where it fails; the outcome is kept on the Cocycle.
    """
    if not c.group.is_cyclic:
        raise UnsupportedDecomposition(
            "only cyclic tables decompose; present product data as KummerData"
        )
    kd = _decomposition(c)
    if isinstance(kd, str):
        raise UnsupportedDecomposition(kd)
    return list(kd.betas), kd.factors[0]


def twist(c: Cocycle, b: dict) -> Cocycle:
    """Change of graded basis e_m -> b(m) e_m:
    alpha'(m,n) = alpha(m,n) b(m) b(n) / b(m+n), which must stay integral."""
    group = c.group
    bmap = {m: as_ratfun(v) for m, v in b.items()}
    zero = group.zero()
    bmap.setdefault(zero, RatFun.one(group.p))
    if not bmap[zero].is_one():
        raise ValueError("twist must send 0 to 1")
    for m in group.elements():
        bmap.setdefault(m, RatFun.one(group.p))
        if bmap[m].is_zero():
            raise ZeroEntry(f"twist is zero at {m}")
    entries = {}
    for m in group.elements():
        for n in group.elements():
            a = twisted_entry(c.entry(m, n), bmap[m], bmap[n], bmap[m + n])
            if not a.is_poly():
                raise NonIntegralCocycle(f"twisted entry ({m},{n}) = {a} is not a polynomial")
            entries[(m, n)] = a.as_poly()
    return Cocycle(group, entries)


class InfinityChart:
    """A table transported to the chart at infinity, entry by entry.

    Substituting x = 1/u and twisting by b(m) = u^{d(m)} turns alpha(m, n)
    into rev(alpha) * u^e, e = d(m) + d(n) - d(m+n) - deg alpha, a polynomial
    in u when e >= 0.  rev(alpha) has a nonzero constant term, so e is the
    u-valuation.  Over a table with a potential, e = (Q(m) + Q(n) - Q(m+n))
    / |G| with Q(m) = |G| d(m) + P_inf(m); otherwise it is read off the
    table's valuation at infinity.
    """

    def __init__(self, table, degrees: dict | None):
        if degrees is None:
            raise ValueError(
                "Kummer data needs chart degrees at infinity; "
                "canonical_infinity_degrees(kd) gives the default ones"
                if isinstance(table, KummerData) else
                "non-cyclic raw tables need explicit chart degrees at infinity"
                if table.group.rank > 1 else
                "cyclic raw tables need chart degrees at infinity; "
                "canonical_infinity_degrees(kummer_form(table)) gives the default ones")
        self.table = table
        self.group = group = table.group
        for m in group.elements():
            if not m.is_zero() and m not in degrees:
                raise ValueError(f"no chart degree given for {m}")
        self._d = {m: (0 if m.is_zero() else degrees[m]) for m in group.elements()}
        self._infinity = Place.infinity(group.p)
        self.u_place = Place._of_irreducible(Poly.x(group.p))

    @cached_property
    def _u_potential(self) -> dict | None:
        """{m: |G| d(m) + P_inf(m)} when the table has a potential, else None."""
        pot = self.table.potential(self._infinity)
        if pot is None:
            return None
        order = self.group.order
        return {m: order * d + pot[m] for m, d in self._d.items()}

    def potential(self, v: Place) -> dict | None:
        """The u-potential at u = 0 over a table with a potential, else None."""
        return self._u_potential if v == self.u_place else None

    def u_exponent(self, m: GElt, n: GElt) -> int:
        pot = self._u_potential
        if pot is None:
            d = self._d
            exponent = d[m] + d[n] - d[m + n] + self.table.entry_valuation(m, n, self._infinity)
        else:
            exponent = (pot[m] + pot[n] - pot[m + n]) // self.group.order
        if exponent < 0:
            raise NonIntegralCocycle(
                f"entry ({m},{n}) needs u-exponent {exponent}; increase the chart degrees"
            )
        return exponent

    def entry(self, m: GElt, n: GElt) -> Poly:
        u_pow = Poly(self.group.p, [0] * self.u_exponent(m, n) + [1])
        return self.table.entry(m, n).reversed_coeffs() * u_pow

    def entry_valuation(self, m: GElt, n: GElt, v: Place) -> int:
        if v == self.u_place:
            return self.u_exponent(m, n)
        return valuation(self.entry(m, n), v)

    def check_integral(self) -> None:
        """NonIntegralCocycle at the first pair with a negative u-exponent."""
        elements = list(self.group.elements())
        for m in elements:
            for n in elements:
                self.u_exponent(m, n)


def chart_at_infinity(c, degrees: dict) -> Cocycle:
    """The dense table of InfinityChart(c, degrees)."""
    chart = InfinityChart(c, degrees)
    elements = list(c.group.elements())
    return Cocycle(c.group, {(m, n): chart.entry(m, n) for m in elements for n in elements})


def canonical_infinity_degrees(kd: KummerData) -> dict:
    """Default chart degrees d(m) = sum_i ceil(s(m_i) deg f_i / p^{n_i}).

    Superadditivity of the ceiling makes every untwisted entry integral
    at infinity; twisted data may need caller-supplied degrees.
    """
    degs = {}
    for m in kd.group.elements():
        total = 0
        for s, f, q in zip(m.residues, kd.factors, kd.group.factor_orders):
            total += -((-s * f.degree()) // q)  # ceil
        degs[m] = total
    return degs


def torsor_at(c, v: Place) -> bool:
    """Freeness test at v: every alpha(m, -m) is a unit there."""
    return all(
        c.entry_valuation(m, -m, v) == 0 for m in c.group.elements() if not m.is_zero()
    )


def support_places(c) -> list[Place]:
    """Finite places where some alpha(m, -m) is a non-unit, sorted."""
    seen = set()
    for m in c.group.elements():
        if m.is_zero():
            continue
        for irr in factor(c.entry(m, -m)):
            seen.add(Place._of_irreducible(irr))
    return sorted(seen, key=Place.sort_key)
