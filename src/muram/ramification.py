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
certified the off-support sweep sends every place of f' with v(f) = 0
mod p^n, in Place.sort_key order, to the same unit-part derivative test.
ramification_divisor takes its places from one helper: the sweep, the
support of f in order, then infinity if asked.  Its certified stabilizer
is the one place a multiplicity of Kummer data is decided:
multiplicity_at and both layers of devissage_check read it, the lower
layer at the places of the total one.

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

from dataclasses import dataclass, replace
from functools import cached_property

from .covering import (
    InfinityChart,
    KummerData,
    kummer_form,
    support_places,
)
from .divisors import Divisor, SymbolicPlace, pullback
from .errors import (
    InternalInvariant,
    ModelRejection,
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
    RatFun,
    _check_prime,
    factor,
    is_pth_power,
    poly_valuation,
)
from .pgroup import GElt, PGroup, Subgroup


# ---------------------------------------------------------------------------
# local models

@dataclass(frozen=True)
class LocalModel:
    """Localized cyclic covering, normal above its place.

    ``place`` is the reporting place; ``pi`` is the uniformizer of the
    working chart (for the infinity place the data has already been
    transported to the u-chart and pi is the variable u).  ``f_red`` has
    v_pi = c in [0, p^n), and c decides the rest: the rescaling
    t(s) = floor(s c / p^n) and the basis valuations vA(s) = s c - p^n t(s),
    indexed by the canonical representative s(m).  Every model is built
    and certified by _normalize_finite.
    """

    p: int
    n: int
    place: Place
    pi: Poly
    f_red: Poly
    c: int

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
    def _entry_values(self) -> dict[tuple[int, int], RatFun]:
        return {}

    def entry(self, i: GElt, j: GElt) -> RatFun:
        """Structure constant of the rescaled basis:
        f_red^{sigma(i,j)} * pi^{t(i+j) - t(i) - t(j)}.

        An entry depends only on (carry, exponent).  For the rescaled
        t(m) = floor(s(m) c / p^n) the exponent is 0 or 1 without a carry
        and -c or 1 - c with one, so each of those few entries is built
        once per model.
        """
        q = self.q
        si, sj = i.residues[0], j.residues[0]
        carry = (si + sj) // q
        exp = self.t[si + sj - carry * q] - self.t[si] - self.t[sj]
        value = self._entry_values.get((carry, exp))
        if value is None:
            num = self.f_red if carry else Poly.one(self.p)
            if exp >= 0:
                value = RatFun.from_poly(num * self.pi ** exp)
            else:
                value = RatFun(num, self.pi ** (-exp))
            self._entry_values[(carry, exp)] = value
        return value


def _require_cyclic(kd: KummerData) -> Poly:
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


def _reject_pth_power(f: Poly) -> None:
    if is_pth_power(f):
        raise NonIntegralModel(f"chart equation {f} is a p-th power; the covering is not integral")


def _normalize(p: int, n: int, f: Poly, v: Place) -> LocalModel:
    q = p ** n
    _reject_pth_power(f)
    if v.is_infinity:
        f_chart = infinity_chart_equation(f, q)
        working = Place._of_irreducible(Poly.x(p))
        try:
            model = _normalize_finite(p, n, f_chart, working)
        except ModelRejection as exc:
            raise type(exc)(f"at infinity (u-chart): {exc}") from None
        return replace(model, place=v)
    return _normalize_finite(p, n, f, v)


def _normalize_finite(p: int, n: int, f: Poly, v: Place) -> LocalModel:
    q = p ** n
    pi = v.poly
    c0 = poly_valuation(f, v)
    c = c0 % q
    f_red = f
    for _ in range(c0 - c):
        f_red = f_red // pi
    if c == 0:
        # c0 is a multiple of q here, so f_red is already the unit part
        if (f_red.derivative() % pi).is_zero():
            raise NonNormalModel(
                f"unit-part derivative vanishes at {v}; the chart equation is singular there"
            )
    elif c % p == 0:
        raise UnsupportedPartialRamification(
            f"local exponent {c} at {v} shares a factor with p={p}; "
            "the normalization leaves this model class"
        )
    model = LocalModel(p, n, v, pi, f_red, c)
    if c and set(model.vA) != set(range(q)):
        raise InternalInvariant(f"basis valuations {model.vA} at {v} miss a residue class mod {q}")
    return model


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
    return normalize_local_model(kd, v)


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
    """|M| / |N_v| - 1 for the stabilizer ramification_divisor reports at v.

    Kummer data and cyclic tables (decomposed first) read the certified
    stabilizer of the normalization, and a failed certification
    propagates its rejection; a raw product table reads N_v off the
    entries as given.
    """
    kd = kummer_form(c)
    stabilizer = stabilizer_subgroup_at(c, v) if kd is None else _certified_stabilizer(kd, v)
    return RamReport(v, stabilizer).multiplicity


@dataclass
class RamReport:
    """The stabilizer N_v at a place; everything the report says is read off it."""

    place: Place
    stabilizer: Subgroup

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


def _off_support_normality_sweep(p: int, n: int, f: Poly) -> None:
    """Reject singular points hiding over places where f is a unit.

    The chart z^{p^n} = f is singular over pi exactly when the unit part
    of f has derivative divisible by pi; at places with v(f) = 0 mod p^n
    this means pi | f'.  Each such place of f' goes, in Place.sort_key
    order, to the unit-part derivative test of _normalize_finite, so the
    least singular place is the one named.  Without this sweep a cuspidal
    model (e.g. z^2 = 1 + x^3 over x = 0) would sail through with a wrong
    divisor.
    """
    _reject_pth_power(f)
    q = p ** n
    for v in sorted(map(Place._of_irreducible, factor(f.derivative())), key=Place.sort_key):
        if poly_valuation(f, v) % q == 0:
            _normalize_finite(p, n, f, v)


def _kummer_places(kd: KummerData, include_infinity: bool) -> list[Place]:
    """Sweep every non-constant chart equation, then list the places of
    their supports in Place.sort_key order, and infinity last if asked."""
    p = kd.group.p
    support = set()
    for f, n in zip(kd.factors, kd.group.exponents):
        if not f.is_constant():
            _off_support_normality_sweep(p, n, f)
            support.update(Place._of_irreducible(irr) for irr in factor(f))
    places = sorted(support, key=Place.sort_key)
    if include_infinity:
        places.append(Place.infinity(p))
    return places


def _certified_stabilizer(kd: KummerData, v: Place) -> Subgroup:
    """Elements trivial on every factor whose local model at v is
    totally ramified; constant chart equations are units everywhere."""
    group = kd.group
    ramified = [
        not f.is_constant() and _normalize(group.p, n_i, f, v).c != 0
        for f, n_i in zip(kd.factors, group.exponents)
    ]
    members = [
        m
        for m in group.elements()
        if all(not t or r == 0 for t, r in zip(ramified, m.residues))
    ]
    return Subgroup(group, tuple(members))


def ramification_divisor(cov, include_infinity: bool = False, infinity_degrees=None):
    """The ramification divisor with one report per touched place.

    ``cov`` is a Cocycle or KummerData.  Cyclic and per-factor data is
    certified via local models (normalized semantics); raw non-cyclic
    tables use the entries as given.  Divisors are indexed by base places,
    which is faithful because the covering is a homeomorphism on points.
    """
    group = cov.group
    kd = kummer_form(cov)
    if kd is not None:
        places = _kummer_places(kd, include_infinity)
        reports = [RamReport(v, _certified_stabilizer(kd, v)) for v in places]
    else:
        places = support_places(cov)
        if include_infinity:
            if infinity_degrees is None:
                raise ValueError("non-cyclic raw tables need explicit chart degrees at infinity")
            chart = InfinityChart(cov, infinity_degrees)
            chart.check_integral()
            places.insert(0, Place.infinity(group.p))
        reports = [
            RamReport(v, stabilizer_subgroup_at(chart, chart.u_place) if v.is_infinity
                      else stabilizer_subgroup_at(cov, v))
            for v in places
        ]
    reports.sort(key=lambda r: r.place.sort_key())
    divisor = Divisor({r.place: r.multiplicity for r in reports if r.multiplicity})
    return divisor, reports


# ---------------------------------------------------------------------------
# devissage

@dataclass
class DevissageReport:
    """R for the full covering against the two-layer factorization.

    The covering z^{p^n} = f over the base factors through the partial
    quotient w = z^{p^{n-m}} (so w^{p^m} = f downstairs and z^{p^{n-m}} = w
    upstairs); divisors are indexed by base places and the pullback
    multiplies by the layer degree p^{n-m}.
    """

    total: Divisor
    lower: Divisor  # covering w^{p^m} = f of the base
    upper: Divisor  # covering z^{p^{n-m}} = w of the intermediate curve
    pullback_indices: dict  # place -> p^{n-m}, in Place.sort_key order
    equal: bool
    oracle_agrees: bool | None = None


def devissage_check(
    kd: KummerData, m: int, include_infinity: bool = False, with_oracle: bool = False
) -> DevissageReport:
    """Verify R_total = R_upper + pullback(R_lower) place by place.

    R_total is ramification_divisor of z^{p^n} = f, rejections included;
    R_lower is the certified stabilizer of w^{p^m} = f at R_total's places.
    Once R_total passes, the lower layer's own sweep finds nothing: its
    extra places have v(f) = 0 mod p^m but not mod p^n, so they lie in the
    support, where R_total has already refused them.  R_upper is
    p^{n-m} - 1 where R_total is totally ramified (a certified local
    exponent is 0 or prime to p), and each place of R_total pulls back
    with index p^{n-m}.  with_oracle has the length oracle recompute every
    layer at every place.
    """
    f = _require_cyclic(kd)
    p, n = kd.group.p, kd.group.exponents[0]
    if not 0 < m < n:
        raise ValueError(f"need 0 < m < {n}, got {m}")
    if f.is_constant():
        zero = Divisor.zero()
        return DevissageReport(
            total=zero, lower=zero, upper=zero, pullback_indices={}, equal=True,
            oracle_agrees=True if with_oracle else None,
        )
    e = p ** (n - m)
    total, reports = ramification_divisor(kd, include_infinity)
    layer = KummerData(PGroup(p, (m,)), (f,))
    lower = Divisor(
        {r.place: p ** m // _certified_stabilizer(layer, r.place).order - 1 for r in reports}
    )
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
    return _normalize(p, n, f, Place.finite(Poly.x(p)))


# ---------------------------------------------------------------------------
# fixed ideal

@dataclass
class FixedIdealReport:
    place: Place
    ideal_valuation: int
    multiplicity: int
    order: int

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

@dataclass
class GlnRegressionReport:
    lhs: Divisor
    base_part: Divisor
    pulled: Divisor
    rhs: Divisor
    equal: bool
    degenerate_height_one: bool


def gln_regression(p: int, n: int, beta: int, gamma: int) -> GlnRegressionReport:
    """Divisor arithmetic for the Frobenius-kernel tower on matrix space.

    The three divisors live on the vanishing locus of the determinant;
    the lower-layer divisor pulls back with index p^beta.  For n = 1 the
    two sides coincide, a degeneracy the report flags explicitly; for
    n >= 2 they differ.
    """
    _check_prime(p)
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if not 0 < beta < gamma:
        raise ValueError(f"need 0 < beta < gamma, got beta={beta} gamma={gamma}")
    delta = SymbolicPlace("Delta", 1)
    lhs = Divisor({delta: p ** (n * gamma) - 1})
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
