"""Ramification data of graded coverings of the line.

The central objects are per-place local models.  At a finite place pi
with local exponent c = v_pi(f) mod p^n coprime to p, the graded basis
can be rescaled by pi-powers t(m) = floor(s(m) c / p^n) so that the
basis valuations s(m) c - p^n t(m) run over exactly {0, ..., p^n - 1};
hitting every residue class certifies that the rescaled model is the
full normalization (its value semigroup is all of Z_{>=0}) and one basis
element is a uniformizer.  A LocalModel stores c and derives the rest.
When c = 0 the model is integrally closed above pi exactly when the unit
part w = f / pi^{v(f)} keeps a nonzero derivative mod pi (the chart
equation z^{p^n} = w has no other partial in characteristic p).  Local
exponents with 0 < gcd(c, p^n) < p^n leave this model class and are
refused, and so is a chart equation that is a p-th power (the covering
is then not integral).

Singular points can also hide where f is a unit, so before any place is
certified a sweep factors f once and finds every singular place of the
affine chart: a prime of f whose multiplicity p^n divides gets the same
unit-part derivative test, and every prime of f' that f does not share
is singular.  ramification_divisor reads the rest off that one
factorization and builds no LocalModel: the local exponent at a finite
place is the multiplicity of f there mod p^n (0 off the support), and at
infinity it is q ceil(deg f / q) - deg f.  Its certified stabilizer is
the one place a multiplicity of Kummer data is decided: multiplicity_at
reads the divisor it reports, rejections included, and both layers of
devissage_check read it, the lower layer with the total one's exponents
mod p^m.

Multiplicities: the stabilizer subgroup at a place is
N = { m : alpha(m, -m) is a unit there } and the ramification divisor
has multiplicity |M| / |N| - 1; a RamReport stores N and derives the
rest.  All reported data refers to the normalized covering; cyclic
inputs are certified place by place.  Product inputs are layer-checked
per factor, but a grading of rank >= 2 is never normal over the line
(its generic fibre is not a field, see rh_genus), so their reports mark
normality "refuted".
"""

from __future__ import annotations

from functools import cached_property

from ._record import FrozenRecord, Record
from .covering import (
    InfinityChart,
    KummerData,
    kummer_form,
    support_places,
)
from .divisors import Divisor, SymbolicPlace, pullback
from .errors import (
    NonIntegralModel,
    NonNormalModel,
    NotASubgroup,
    NotTotallyRamified,
    UnsupportedGroup,
    UnsupportedPartialRamification,
)
from .fppoly import (
    Place,
    Poly,
    _check_prime,
    _divmod_coeffs,
    _gcd_coeffs,
    _poly,
    factor,
    poly_valuation,
)
from .pgroup import MAX_ORDER, GElt, PGroup, Subgroup


# ---------------------------------------------------------------------------
# local models

class LocalModel(FrozenRecord):
    """Localized cyclic covering, normal above its place.

    ``place`` is the reporting place; ``pi`` is the uniformizer of the
    working chart (for the infinity place the data has already been
    transported to the u-chart and pi is the variable u).  ``f_red`` has
    v_pi = c in [0, p^n), and c decides the rest: the rescaling
    t(s) = floor(s c / p^n) and the basis valuations vA(s) = s c - p^n t(s),
    indexed by the canonical representative s(m).  Every model is built
    and certified by _normalize.
    """

    _fields = ("p", "n", "place", "pi", "f_red", "c")

    @property
    def q(self) -> int:
        return self.p ** self.n

    @cached_property
    def group(self) -> PGroup:
        return PGroup(self.p, (self.n,) if self.n else ())

    # from lists: tuple(<generator>) is allocated at a guessed length and shrunk,
    # bypassing CPython's per-size tuple free lists, which it then refills when freed
    @cached_property
    def t(self) -> tuple[int, ...]:
        q, c = self.q, self.c
        return tuple([(s * c) // q for s in range(q)])

    @cached_property
    def vA(self) -> tuple[int, ...]:
        q, c = self.q, self.c
        return tuple([s * c - q * t for s, t in enumerate(self.t)])

    @cached_property
    def _entry_values(self) -> dict[tuple[int, int], Poly]:
        return {}

    def entry(self, i: GElt, j: GElt) -> Poly:
        """Structure constant of the rescaled basis:
        f_red^{sigma(i,j)} * pi^{t(i+j) - t(i) - t(j)}, a polynomial.

        An entry depends only on (carry, exponent).  For the rescaled
        t(m) = floor(s(m) c / p^n) the exponent is 0 or 1 without a carry
        and -c or 1 - c with one, so each of those few entries is built
        once per model; a negative exponent comes with the factor f_red,
        of v_pi = c, and divides it exactly.
        """
        q = self.q
        si, sj = i.residues[0], j.residues[0]
        carry = (si + sj) // q
        exp = self.t[si + sj - carry * q] - self.t[si] - self.t[sj]
        value = self._entry_values.get((carry, exp))
        if value is None:
            num = self.f_red if carry else Poly.one(self.p)
            value = num * self.pi ** exp if exp >= 0 else num // self.pi ** -exp
            self._entry_values[(carry, exp)] = value
        return value


def _require_cyclic(kd: KummerData, missing: str = "local models") -> Poly:
    """The chart equation of cyclic Kummer data; other groups are refused,
    the trivial group by name, as having none of what is missing."""
    if kd.group.rank == 0:
        raise UnsupportedGroup(
            f"the trivial group has no cyclic factor Z/p^n with n >= 1, so it has no {missing}"
        )
    if not kd.group.is_cyclic:
        raise UnsupportedGroup("local models are cyclic-only; split product data per factor")
    return kd.factors[0]


def infinity_chart_equation(f: Poly, q: int) -> Poly:
    """Chart equation at infinity: u^{(q*ceil(deg f / q)) - deg f} * rev(f)."""
    d1 = -((-f.degree()) // q)
    exp = q * d1 - f.degree()
    return f.reversed_coeffs() * Poly(f.p, [0] * exp + [1])


def normalize_local_model(kd: KummerData, v: Place) -> LocalModel:
    """Certified-normal local model of a cyclic covering at v.

    Reduces the local exponent mod p^n, rescales the basis, and either
    certifies normality (value semigroup / unit-part derivative) or
    raises the matching rejection.
    """
    f = _require_cyclic(kd)
    p, n = kd.group.p, kd.group.exponents[0]
    return _normalize(p, n, f, v)


def _reject_pth_power(f: Poly) -> Poly:
    """f', once f is refused if f' = 0 (f is then a p-th power)."""
    if not (df := f.derivative()):
        raise NonIntegralModel(f"chart equation {f} is a p-th power; the covering is not integral")
    return df


def _normalize(p: int, n: int, f: Poly, v: Place) -> LocalModel:
    """Local model of z^{p^n} = f at v, the one place a LocalModel is
    built; at infinity f is carried to the u-chart equation and the model
    works at u = 0.  _local_exponent certifies it: a c prime to p is a
    unit mod p^n, so s c mod p^n hits every residue."""
    _reject_pth_power(f)
    q = p ** n
    if v.is_infinity:
        f = infinity_chart_equation(f, q)
    at = Place._of_irreducible(Poly.x(p)) if v.is_infinity else v
    pi = at.poly
    c0 = poly_valuation(f, at)
    f_red = f // pi ** (c0 - c0 % q) if c0 >= q else f
    return LocalModel(p, n, v, pi, f_red, _local_exponent(p, n, c0, v, f_red))


def _singular_at(v: Place) -> NonNormalModel:
    return NonNormalModel(
        f"unit-part derivative vanishes at {v}; the chart equation is singular there"
    )


def _local_exponent(p: int, n: int, c0: int, v: Place, unit_part: Poly | None = None) -> int:
    """The local exponent c = c0 mod p^n of a chart equation of valuation
    c0 at v, or the rejection of its local model.

    At c = 0 the model is normal exactly when the derivative of the unit
    part does not vanish at the place; ``unit_part`` is tested when given
    (None: a sweep has already passed it).  A c that is nonzero and not
    prime to p is refused.  At infinity c0 and the unit part are read on
    the u-chart at u = 0, and a rejection says so.
    """
    c = c0 % (p ** n)
    at = Place._of_irreducible(Poly.x(p)) if v.is_infinity else v
    if c == 0:
        if unit_part is None or (unit_part.derivative() % at.poly):
            return 0
        exc = _singular_at(at)
    elif c % p:
        return c
    else:
        exc = UnsupportedPartialRamification(
            f"local exponent {c} at {at} shares a factor with p={p}; "
            "the normalization leaves this model class"
        )
    if v.is_infinity:
        raise type(exc)(f"at infinity (u-chart): {exc}")
    raise exc


def untwisted_local_model(kd: KummerData, v: Place) -> LocalModel:
    """Local model with the basis as given (no rescaling).

    The given basis has valuations s v(f), which realize {0, ..., p^n - 1}
    exactly when v(f) = 1; any other exponent raises NonNormalModel.  With
    v(f) = 1 nothing is rescaled, so this is the normalized model.
    """
    f = _require_cyclic(kd)
    _reject_pth_power(f)
    if v.is_infinity:
        raise UnsupportedGroup("untwisted models are for finite places; transport the chart first")
    if poly_valuation(f, v) != 1:
        raise NonNormalModel("value semigroup misses a residue class")
    return _normalize(kd.group.p, kd.group.exponents[0], f, v)


def fixed_ideal_valuation_at(model: LocalModel) -> int:
    """Valuation of the ideal generated by all e_m, m != 0.

    Equals 1 at totally ramified places, where some basis element is a
    uniformizer, and 0 at split places.
    """
    return min(model.vA[s] for s in range(1, model.q))


# ---------------------------------------------------------------------------
# stabilizers and multiplicities

def stabilizer_subgroup_at(c, v: Place) -> Subgroup:
    """N = { m : alpha(m, -m) is a unit at v }, with closure asserted."""
    members = [
        m for m in c.group.elements() if m.is_zero() or c.entry_valuation(m, -m, v) == 0
    ]
    member_set = set(members)
    for a in members:
        if -a not in member_set:
            raise NotASubgroup(f"{a} is a unit index but -{a} is not; invalid covering data")
        for b in members:
            if a + b not in member_set:
                raise NotASubgroup(
                    f"unit indices {a}, {b} with non-unit sum; invalid covering data"
                )
    return Subgroup(c.group, tuple(members))


def multiplicity_at(c, v: Place) -> int:
    """The multiplicity ramification_divisor reports at v, infinity
    included exactly when v is infinity, and 0 where it reports none.

    Whatever that divisor refuses is refused here too, with the same
    exception, even when the refused place is not v.
    """
    return ramification_divisor(c, include_infinity=v.is_infinity)[0].multiplicity(v)


class RamReport(Record):
    """The stabilizer N_v at a place; everything the report says is read off it."""

    _fields = ("place", "stabilizer")

    @property
    def multiplicity(self) -> int:
        return self.stabilizer.group.order // self.stabilizer.order - 1

    @property
    def totally_ramified(self) -> bool:
        return self.stabilizer.is_trivial()

    @property
    def torsor(self) -> bool:
        return self.multiplicity == 0

    @property
    def normality(self) -> str:
        return "verified" if self.stabilizer.group.rank <= 1 else "refuted"


def _off_support_normality_sweep(p: int, n: int, f: Poly) -> dict[Poly, int]:
    """Reject every singular point of z^{p^n} = f over the affine line,
    and return factor(f).

    The chart is singular over pi exactly when v_pi(f) = 0 mod p^n and
    the unit part of f has derivative divisible by pi.  One factorization
    of f gives both kinds of such places:
    - a prime of f whose multiplicity p^n divides gets the unit-part
      derivative test (such a pi always divides f');
    - f is a unit at every prime of f' that f does not share, and each
      of those is singular, so f' (formed once) is stripped of the primes
      of f by tuple gcds and factored only when something is left.
    The least singular place in Place.sort_key order is the one named.
    Without this sweep a cuspidal model (e.g. z^2 = 1 + x^3 over x = 0)
    would sail through with a wrong divisor.
    """
    g = _reject_pth_power(f).coeffs
    q = p ** n
    factors = factor(f)
    singular = [irr for irr, m in factors.items()
                if m % q == 0 and not (f // irr ** m).derivative() % irr]
    h = _gcd_coeffs(g, f.coeffs, p)
    while len(h) > 1:
        g = _divmod_coeffs(g, h, p)[0]
        h = _gcd_coeffs(g, h, p)
    if len(g) > 1:
        singular.extend(factor(_poly(p, g)))
    if singular:
        raise _singular_at(min(map(Place._of_irreducible, singular), key=Place.sort_key))
    return factors


def _kummer_exponents(kd: KummerData, include_infinity: bool) -> dict[Place, tuple[int, ...]]:
    """Sweep every chart equation, then map each place of their supports,
    in Place.sort_key order, and infinity last if asked, to its certified
    local exponents, one per factor.  At a finite place they are the
    sweeps' multiplicities (0 off a support), at infinity they are read
    off the degrees, where the finite sweep did not look, so the unit part
    rev(f) is tested there."""
    p = kd.group.p
    charts = [
        (n, f, {Place._of_irreducible(irr): m
                for irr, m in _off_support_normality_sweep(p, n, f).items()})
        for f, n in zip(kd.factors, kd.group.exponents)
    ]
    places = sorted({v for _, _, mults in charts for v in mults}, key=Place.sort_key)
    exponents = {
        v: tuple(_local_exponent(p, n, mults.get(v, 0), v) for n, _, mults in charts)
        for v in places
    }
    if include_infinity:
        # the u-chart equation is u^c0 rev(f), c0 = q ceil(deg f / q) - deg f
        infinity = Place.infinity(p)
        exponents[infinity] = tuple(
            _local_exponent(p, n, -f.degree() % p ** n, infinity, f.reversed_coeffs())
            for n, f, _ in charts
        )
    return exponents


def _certified_stabilizer(group: PGroup, exponents: tuple[int, ...]) -> Subgroup:
    """Elements of group trivial on every factor whose local exponent at
    a place is nonzero (totally ramified there).  ``exponents`` are the
    certified local exponents at that place, one per factor, as
    _kummer_exponents gives them."""
    members = [
        m
        for m in group.elements()
        if all(not c or r == 0 for c, r in zip(exponents, m.residues))
    ]
    return Subgroup(group, tuple(members))


def ramification_divisor(cov, include_infinity: bool = False, infinity_degrees=None):
    """The ramification divisor and one report per touched place, in Place.sort_key order.

    ``cov`` is a Cocycle or KummerData.  Cyclic and per-factor data is
    certified via local models (normalized semantics); raw non-cyclic
    tables use the entries as given.  Divisors are indexed by base places,
    which is faithful because the covering is a homeomorphism on points.
    """
    kd = kummer_form(cov)
    if kd is not None:
        return _kummer_divisor(kd, _kummer_exponents(kd, include_infinity))
    places = support_places(cov)
    at_infinity = {}  # refused before the finite places, reported after them
    if include_infinity:
        chart = InfinityChart(cov, infinity_degrees)
        chart.check_integral()
        at_infinity[Place.infinity(cov.group.p)] = stabilizer_subgroup_at(chart, chart.u_place)
    return _divisor_and_reports({v: stabilizer_subgroup_at(cov, v) for v in places} | at_infinity)


def _kummer_divisor(kd: KummerData, exponents: dict) -> tuple[Divisor, list[RamReport]]:
    """Divisor and reports of Kummer data from _kummer_exponents."""
    group = kd.group
    return _divisor_and_reports({v: _certified_stabilizer(group, c) for v, c in exponents.items()})


def _divisor_and_reports(stabilizers: dict) -> tuple[Divisor, list[RamReport]]:
    """The divisor and the reports of ``stabilizers`` (place -> stabilizer),
    in its order; the one place a RamReport is built."""
    reports = [RamReport(v, s) for v, s in stabilizers.items()]
    return Divisor({r.place: r.multiplicity for r in reports if r.multiplicity}), reports


# ---------------------------------------------------------------------------
# devissage

class DevissageReport(Record):
    """R for the full covering against the two-layer factorization.

    The covering z^{p^n} = f over the base factors through the partial
    quotient w = z^{p^{n-m}} (so w^{p^m} = f downstairs and z^{p^{n-m}} = w
    upstairs); divisors are indexed by base places and the pullback
    multiplies by the layer degree p^{n-m}.  ``lower`` is the divisor of
    the covering w^{p^m} = f of the base, ``upper`` that of z^{p^{n-m}} = w
    of the intermediate curve, and ``pullback_indices`` maps each place to
    p^{n-m}, in Place.sort_key order.
    """

    _fields = ("total", "lower", "upper", "pullback_indices", "equal", "oracle_agrees")
    oracle_agrees = None


def devissage_check(
    kd: KummerData, m: int, include_infinity: bool = False, with_oracle: bool = False
) -> DevissageReport:
    """Verify R_total = R_upper + pullback(R_lower) place by place.

    R_total is ramification_divisor of z^{p^n} = f, rejections included;
    R_lower is the certified stabilizer of w^{p^m} = f at R_total's places,
    whose local exponents are R_total's mod p^m.  Once R_total passes, the
    lower layer rejects nothing: a certified exponent is 0 or prime to p,
    and so is its residue mod p^m, and at 0 both layers test the same unit
    part.  Nor does the lower layer's own sweep find anything: its extra
    places have v(f) = 0 mod p^m but not mod p^n, so they lie in the
    support, where R_total has already refused them.  R_upper is
    p^{n-m} - 1 where R_total is totally ramified (a certified local
    exponent is 0 or prime to p), and each place of R_total pulls back
    with index p^{n-m}.  with_oracle has the length oracle recompute every
    layer at every place.
    """
    f = _require_cyclic(kd, "local models and no layer 0 < m < n")
    p, n = kd.group.p, kd.group.exponents[0]
    if not 0 < m < n:
        raise ValueError(f"need 0 < m < {n}, got {m}")
    e = p ** (n - m)
    exponents = _kummer_exponents(kd, include_infinity)
    total, reports = _kummer_divisor(kd, exponents)
    layer = PGroup(p, (m,))
    lower = Divisor({
        v: p ** m // _certified_stabilizer(layer, (c % p ** m,)).order - 1
        for v, (c,) in exponents.items()
    })
    upper = Divisor({r.place: e - 1 for r in reports if r.totally_ramified})
    indices = {r.place: e for r in reports}
    oracle_ok = None
    if with_oracle:
        from .snf_oracle import oracle_multiplicity

        oracle_ok = True
        for v in indices:
            model_total = _normalize(p, n, f, v)
            layers = (
                (model_total, total),
                (_normalize(p, m, f, v), lower),
                (_stand_in_model(p, n - m, model_total.c % e), upper),
            )
            for model, divisor in layers:
                if oracle_multiplicity(model) != divisor.multiplicity(v):
                    oracle_ok = False
    return DevissageReport(
        total=total,
        lower=lower,
        upper=upper,
        pullback_indices=indices,
        equal=total == upper + pullback(lower, indices),
        oracle_agrees=oracle_ok,
    )


def _stand_in_model(p: int, n: int, c: int) -> LocalModel:
    """Local model of z^{p^n} = T^c at T = 0, standing in for a layer
    whose base curve is not the line; lengths only depend on (p, n, c).
    For c = 0 the unit 1 + T stands in."""
    f = Poly(p, [0] * c + [1]) if c else Poly(p, [1, 1])
    return _normalize(p, n, f, Place._of_irreducible(Poly.x(p)))


# ---------------------------------------------------------------------------
# fixed ideal

class FixedIdealReport(Record):
    _fields = ("place", "ideal_valuation", "multiplicity", "order")

    @property
    def holds(self) -> bool:
        return self.ideal_valuation == 1


def fixed_ideal_relation_check(model: LocalModel) -> FixedIdealReport:
    """At a totally ramified place the multiplicity is |G| - 1, so the
    relation (|G| - 1) * v(I) = multiplicity holds exactly when v(I) = 1,
    which is what is verified on the basis valuations of the model."""
    if model.c == 0:
        raise NotTotallyRamified(f"stabilizer at {model.place} is not trivial")
    return FixedIdealReport(
        place=model.place,
        ideal_valuation=fixed_ideal_valuation_at(model),
        multiplicity=model.q - 1,
        order=model.q,
    )


# ---------------------------------------------------------------------------
# matrix-space regression

class GlnRegressionReport(Record):
    _fields = ("lhs", "base_part", "pulled", "rhs", "equal", "degenerate_height_one")


def gln_regression(p: int, n: int, beta: int, gamma: int) -> GlnRegressionReport:
    """Divisor arithmetic for the Frobenius-kernel tower on matrix space.

    The three divisors live on the vanishing locus of the determinant;
    the lower-layer divisor pulls back with index p^beta.  For n = 1 the
    two sides coincide, a degeneracy the report flags explicitly; for
    n >= 2 they differ.  p and p^(n gamma) are held to the order bound, the
    first before trial division and the second before the power is formed.
    """
    if p > MAX_ORDER:
        raise ValueError(f"p={p} exceeds the order bound {MAX_ORDER}")
    _check_prime(p)
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if not 0 < beta < gamma:
        raise ValueError(f"need 0 < beta < gamma, got beta={beta} gamma={gamma}")
    e = n * gamma
    if e >= MAX_ORDER.bit_length() or p ** e > MAX_ORDER:
        raise ValueError(f"p^(n*gamma) = {p}^{e} exceeds the order bound {MAX_ORDER}")
    delta = SymbolicPlace("Delta", 1)
    lhs = Divisor({delta: p ** e - 1})
    base_part = Divisor({delta: p ** (n * beta) - 1})
    residual = Divisor({delta: p ** (n * (gamma - beta)) - 1})
    pulled = pullback(residual, {delta: p ** beta})
    rhs = base_part + pulled
    return GlnRegressionReport(
        lhs=lhs,
        base_part=base_part,
        pulled=pulled,
        rhs=rhs,
        equal=lhs == rhs,
        degenerate_height_one=(n == 1),
    )
