import random

import pytest

from muram.covering import Cocycle, KummerData, canonical_infinity_degrees
from muram.divisors import Divisor
from muram.errors import (
    NonIntegralCocycle,
    NonIntegralModel,
    NonNormalModel,
    NotASubgroup,
    NotTotallyRamified,
    UnsupportedGroup,
    UnsupportedPartialRamification,
)
from muram.fppoly import Place, Poly, RatFun, factor, is_pth_power, poly_valuation
from muram.pgroup import PGroup
from muram.ramification import (
    devissage_check,
    fixed_ideal_relation_check,
    fixed_ideal_valuation_at,
    gln_regression,
    multiplicity_at,
    normalize_local_model,
    ramification_divisor,
    stabilizer_subgroup_at,
    untwisted_local_model,
)
from muram.randgen import random_integral_twist, random_normal_cyclic_kummer

X2 = Poly.x(2)
X3 = Poly.x(3)
AT_X2 = Place.finite(X2)
AT_X3 = Place.finite(X3)


def cyclic(p, n, f):
    return KummerData(PGroup(p, (n,)), (f,))


# local models ---------------------------------------------------------------

def test_normalize_minimal_case():
    m = normalize_local_model(cyclic(2, 1, X2), AT_X2)
    assert (m.c, m.t, m.vA) == (1, (0, 0), (0, 1))
    assert m.vA.index(1) == 1


def test_normalize_twisted_case():
    m = normalize_local_model(cyclic(2, 2, X2 ** 3), AT_X2)
    assert m.c == 3
    assert m.t == (0, 0, 1, 2)
    assert m.vA == (0, 3, 2, 1)
    assert m.vA.index(1) == 3


def test_normalize_unit_place_regularity():
    # v(f) = 0 with nonzero unit-part derivative: certified split place
    m = normalize_local_model(cyclic(2, 1, Poly(2, [1, 1])), AT_X2)
    assert m.c == 0 and m.vA == (0, 0)


def test_canonical_reject_value_semigroup():
    with pytest.raises(NonNormalModel):
        untwisted_local_model(cyclic(2, 1, X2 ** 3), AT_X2)


def test_untwisted_model_is_normal_exactly_at_exponent_one():
    # seeded: at every support place the given basis is the normalized one
    # when v(f) = 1 and is refused otherwise
    seen = set()
    for p, n in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2)]:
        rng = random.Random(100 * p + n)
        q = p ** n
        for _ in range(6):
            kd = random_normal_cyclic_kummer(rng, p, n)
            (f,) = kd.factors
            for irr in factor(f):
                v = Place.finite(irr)
                exponent_one = poly_valuation(f, v) == 1
                seen.add(exponent_one)
                if exponent_one:
                    m = untwisted_local_model(kd, v)
                    assert m == normalize_local_model(kd, v)
                    assert m.t == (0,) * q and m.vA == tuple(range(q))
                else:
                    with pytest.raises(NonNormalModel):
                        untwisted_local_model(kd, v)
    assert seen == {True, False}


def test_untwisted_model_refuses_in_its_own_order():
    # v(f) = 1 gives the normalized model; otherwise the p-th power check
    # comes first, then infinity, then the exponent, and other groups are
    # refused as having no local models
    checked, seen = 0, set()
    for p, n in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]:
        rng = random.Random(7 * p + n)
        kds = [random_normal_cyclic_kummer(rng, p, n) for _ in range(4)]
        x_x1 = Poly.x(p) * Poly(p, [1, 1])
        kds += [cyclic(p, n, Poly.x(p) ** p * Poly(p, [1, 1])), cyclic(p, n, x_x1 ** p)]
        for kd in kds:
            (f,) = kd.factors
            places = {Place.finite(irr) for irr in factor(f)}
            places |= {Place.finite(Poly(p, [a, 1])) for a in range(p)}
            for v in sorted(places, key=Place.sort_key) + [Place.infinity(p)]:
                if not v.is_infinity and poly_valuation(f, v) == 1:
                    assert untwisted_local_model(kd, v) == normalize_local_model(kd, v)
                    checked += 1
                    seen.add(None)
                    continue
                if is_pth_power(f):
                    refusal = NonIntegralModel(
                        f"chart equation {f} is a p-th power; the covering is not integral")
                elif v.is_infinity:
                    refusal = UnsupportedGroup(
                        "untwisted models are for finite places; transport the chart first")
                else:
                    refusal = NonNormalModel("value semigroup misses a residue class")
                with pytest.raises(type(refusal)) as raised:
                    untwisted_local_model(kd, v)
                assert str(raised.value) == str(refusal), (f, v)
                checked += 1
                seen.add(type(refusal))
    assert checked >= 100 and seen == {NonIntegralModel, UnsupportedGroup, NonNormalModel, None}
    for group, message in [
        (PGroup(2, ()), "the trivial group has no cyclic factor Z/p^n with n >= 1, "
                        "so it has no local models"),
        (PGroup(2, (1, 1)), "local models are cyclic-only; split product data per factor"),
    ]:
        kd = KummerData(group, (X2,) * group.rank)
        with pytest.raises(UnsupportedGroup) as raised:
            untwisted_local_model(kd, AT_X2)
        assert str(raised.value) == message


def test_canonical_reject_derivative():
    with pytest.raises(NonNormalModel):
        normalize_local_model(cyclic(2, 1, Poly(2, [1, 0, 0, 1])), AT_X2)


def test_canonical_reject_pth_power():
    with pytest.raises(NonIntegralModel):
        normalize_local_model(cyclic(2, 1, X2 * X2), AT_X2)


def test_partial_ramification_refused():
    # v_x(f) = 2: nonzero mod 4 but sharing the factor 2
    with pytest.raises(UnsupportedPartialRamification):
        normalize_local_model(cyclic(2, 2, X2 ** 2 * Poly(2, [1, 1])), AT_X2)


def test_local_entries_are_integral_on_normal_models():
    m = normalize_local_model(cyclic(3, 2, X3 ** 2), AT_X3)
    g = m.group
    for i in g.elements():
        for j in g.elements():
            assert isinstance(m.entry(i, j), Poly)


def test_local_entries_are_the_rescaled_structure_constants():
    # entry(i, j) pi^{t(i) + t(j)} = f_red^{sigma(i,j)} pi^{t(i+j)}, with no division
    rng = random.Random(59)
    for p, n in [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]:
        for _ in range(2):
            kd = random_normal_cyclic_kummer(rng, p, n, max_deg=4)
            _, reports = ramification_divisor(kd, include_infinity=True)
            places = dict.fromkeys([r.place for r in reports] + [Place.infinity(p)])
            for v in places:
                m = normalize_local_model(kd, v)
                q, t = m.q, m.t
                for i in m.group.elements():
                    for j in m.group.elements():
                        si, sj = i.residues[0], j.residues[0]
                        e = m.entry(i, j)
                        assert isinstance(e, Poly)
                        lhs = e * m.pi ** (t[si] + t[sj])
                        f = m.f_red if si + sj >= q else Poly.one(p)
                        assert lhs == f * m.pi ** t[(si + sj) % q], (kd, v, i, j)


def test_fixed_ideal_valuation_examples():
    assert fixed_ideal_valuation_at(normalize_local_model(cyclic(2, 1, X2), AT_X2)) == 1
    f = X2 * Poly(2, [1, 1])
    assert fixed_ideal_valuation_at(normalize_local_model(cyclic(2, 1, f), AT_X2)) == 1


# stabilizers ----------------------------------------------------------------

def test_stabilizer_trivial_cocycle_is_full():
    g = PGroup(3, (1,))
    sub = stabilizer_subgroup_at(Cocycle.trivial(g), AT_X3)
    assert sub.order == g.order


def test_stabilizer_kummer_ramified_is_trivial():
    c = cyclic(3, 1, X3).to_cocycle()
    assert stabilizer_subgroup_at(c, AT_X3).is_trivial()


def test_stabilizer_product_example():
    kp = KummerData(PGroup(2, (1, 1)), (X2, Poly(2, [1, 1])))
    sub = stabilizer_subgroup_at(kp.to_cocycle(), AT_X2)
    assert sorted(m.rep() for m in sub) == [(0, 0), (0, 1)]
    assert multiplicity_at(kp.to_cocycle(), AT_X2) == 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_multiplicity_kummer(p):
    c = cyclic(p, 1, Poly.x(p)).to_cocycle()
    assert multiplicity_at(c, Place.finite(Poly.x(p))) == p - 1


def test_multiplicity_torsor_place_is_zero():
    c = cyclic(3, 1, X3).to_cocycle()
    assert multiplicity_at(c, Place.finite(Poly(3, [1, 1]))) == 0


def test_multiplicity_with_verification():
    c = cyclic(2, 1, X2).to_cocycle()
    assert multiplicity_at(c, AT_X2) == 1
    bad = cyclic(2, 1, Poly(2, [1, 0, 0, 1])).to_cocycle()  # cusp over (x)
    with pytest.raises(NonNormalModel):
        multiplicity_at(bad, AT_X2)


def test_verified_multiplicity_reports_the_normalization():
    # z^2 = x^3 + x^2: alpha(1, 1) = f is not a unit at (x), but the
    # normalized covering splits there, which is what ramify reports
    c = cyclic(2, 1, X2 ** 3 + X2 ** 2).to_cocycle()
    (report,) = [r for r in ramification_divisor(c)[1] if r.place == AT_X2]
    assert multiplicity_at(c, AT_X2) == report.multiplicity == 0
    # the table as given has no unit index at (x) but 0
    assert stabilizer_subgroup_at(c, AT_X2).order == 1


def seeded_tables(form):
    """Seeded cyclic Kummer data, twisted Kummer data, raw cyclic tables
    (twisted) or raw product tables; nothing for any other form."""
    rng = random.Random(41)
    for p, exps in [(2, (1,)), (3, (1,)), (2, (2,)), (3, (2,)), (2, (1, 1)), (3, (1, 1)),
                    (2, (2, 1))]:
        if (len(exps) > 1) != (form == "raw product"):
            continue
        group = PGroup(p, exps)
        for _ in range(3):
            factors = tuple(random_normal_cyclic_kummer(rng, p, n, max_deg=4).factors[0]
                            for n in exps)
            if form == "kummer":
                yield KummerData(group, factors)
            elif form == "raw product":
                yield KummerData(group, factors).to_cocycle()
            else:
                twisted = KummerData(group, factors, random_integral_twist(rng, group))
                yield twisted if form == "twisted" else twisted.to_cocycle()


# z^2 = f over F_2, singular at (x + 1), (x) and (x): ramify refuses each
REFUSED_F2 = [X2 ** 5 + X2 ** 4 + X2 ** 3, X2 ** 5 + X2 ** 2, X2 ** 5 + X2 ** 4 + X2 ** 2]


@pytest.mark.parametrize("form", ["kummer", "twisted", "raw cyclic", "raw product", "refused"])
def test_multiplicity_at_is_what_ramify_reports(form):
    checked = 0
    if form == "refused":
        for f in REFUSED_F2:
            for c in (cyclic(2, 1, f), cyclic(2, 1, f).to_cocycle()):
                with pytest.raises(NonNormalModel) as refused:
                    ramification_divisor(c)
                for irr in factor(f):
                    with pytest.raises(NonNormalModel) as raised:
                        multiplicity_at(c, Place.finite(irr))
                    assert raised.type is refused.type, f"{f} at {irr}"
                    assert str(raised.value) == str(refused.value), f"{f} at {irr}"
                    checked += 1
    for c in seeded_tables(form):
        for r in ramification_divisor(c)[1]:
            assert multiplicity_at(c, r.place) == r.multiplicity, f"{c} at {r.place}"
            checked += 1
    assert checked >= 6


def test_multiplicity_at_infinity_of_a_raw_product_table_needs_chart_degrees():
    raw = KummerData(PGroup(2, (1, 1)), (X2, Poly(2, [1, 1]))).to_cocycle()
    with pytest.raises(ValueError) as refused:
        ramification_divisor(raw, include_infinity=True)
    with pytest.raises(ValueError) as raised:
        multiplicity_at(raw, Place.infinity(2))
    assert (raised.type, str(raised.value)) == (refused.type, str(refused.value))


# divisors -------------------------------------------------------------------

def test_ramification_divisor_mu_p():
    d, reports = ramification_divisor(cyclic(3, 1, X3))
    assert d == Divisor({AT_X3: 2})
    (r,) = reports
    assert r.totally_ramified and r.normality == "verified"


def test_ramification_divisor_with_infinity():
    d, _ = ramification_divisor(cyclic(2, 2, X2), include_infinity=True)
    assert d == Divisor({AT_X2: 3, Place.infinity(2): 3})


def test_ramification_divisor_trivial():
    # the all-ones table is z^2 = 1 = (z - 1)^2: a p-th power, not integral
    g = PGroup(2, (1,))
    for include_infinity in (False, True):
        with pytest.raises(NonIntegralModel,
                           match="^chart equation 1 is a p-th power; the covering is not integral$"):
            ramification_divisor(Cocycle.trivial(g), include_infinity)


def test_raw_cyclic_cocycle_goes_through_normalization():
    # twisted table of f = x^2(x+1): at (x) the normalized covering splits
    f = X2 * X2 * Poly(2, [1, 1])
    kd = cyclic(2, 1, f)
    d, reports = ramification_divisor(kd)
    at_x = [r for r in reports if r.place == AT_X2]
    assert at_x and at_x[0].torsor
    assert d == Divisor({Place.finite(Poly(2, [1, 1])): 1})


def test_off_support_cusp_is_rejected():
    # z^2 = x^3+x^2+x has a cusp over (x+1) even though f(1) != 0
    f = Poly(2, [0, 1, 1, 1])
    with pytest.raises(NonNormalModel):
        ramification_divisor(cyclic(2, 1, f))
    # z^5 = x^4 + 2x^2 is singular over (x + 2) and (x + 3); the least place
    # is named, however many factorizations ran before
    kd = cyclic(5, 1, Poly(5, [0, 0, 2, 0, 1]))
    split = Poly(5, [1, 1]) * Poly(5, [2, 1]) * Poly(5, [3, 1])
    for earlier in range(8):
        for _ in range(earlier):
            factor(split)
        with pytest.raises(NonNormalModel, match=r"vanishes at \(x \+ 2\);"):
            ramification_divisor(kd)


def test_unit_twist_leaves_reports_unchanged():
    g = PGroup(3, (1,))
    kd_plain = cyclic(3, 1, X3)
    b = {g.elt(1): RatFun.from_poly(Poly(3, [1, 1])), g.elt(2): RatFun.from_poly(Poly(3, [1, 1]))}
    kd_twisted = KummerData(g, (X3,), b)
    d1, r1 = ramification_divisor(kd_plain, include_infinity=True)
    d2, r2 = ramification_divisor(kd_twisted, include_infinity=True)
    assert d1 == d2
    assert [(r.place, r.multiplicity, r.stabilizer.order) for r in r1] == [
        (r.place, r.multiplicity, r.stabilizer.order) for r in r2
    ]


def test_divisor_support_contained_in_pairing_support():
    from muram.covering import support_places

    kp = KummerData(PGroup(2, (1, 1)), (X2, Poly(2, [1, 1])))
    for cov in (kp, kp.to_cocycle()):
        d, _ = ramification_divisor(cov)
        assert set(d.support) <= set(support_places(kp.to_cocycle()))


def test_raw_product_reports_list_finite_places_in_order_and_infinity_last():
    x1 = Poly(2, [1, 1])
    x2x1 = Poly(2, [1, 1, 1])
    kd = KummerData(PGroup(2, (1, 1)), (x2x1 * x1, X2))
    raw = kd.to_cocycle()
    d, reports = ramification_divisor(raw, True, canonical_infinity_degrees(kd))
    places = [r.place for r in reports]
    assert places == [AT_X2, Place.finite(x1), Place.finite(x2x1), Place.infinity(2)]
    assert places[:-1] == sorted(places[:-1], key=Place.sort_key)
    assert [r.multiplicity for r in reports] == [1, 1, 1, 3]
    assert d == Divisor({v: r.multiplicity for v, r in zip(places, reports)})


# Z/2 x Z/2 over F_2 with a = (0,1), b = (1,0), c = (1,1): alpha(a,a) =
# x^2+x+1, alpha(b,b) = x(x+1), alpha(c,c) = x+1 and every other entry 1.
# The unit indices are {0, a, b} at infinity (chart degrees 1) and
# {0, a, c} at (x): neither is a subgroup.
V4 = PGroup(2, (1, 1))
A, B, C = V4.elt((0, 1)), V4.elt((1, 0)), V4.elt((1, 1))
TWICE_REFUSED = Cocycle.from_entries(V4, {
    (A, A): Poly(2, [1, 1, 1]), (B, B): Poly(2, [0, 1, 1]), (C, C): Poly(2, [1, 1]),
    **{(m, k): Poly.one(2) for m in (A, B, C) for k in (A, B, C) if m != k},
})


def test_raw_product_refusal_at_infinity_comes_before_the_finite_places():
    with pytest.raises(NotASubgroup, match=r"^unit indices \(0,1\), \(1,1\) with non-unit sum"):
        ramification_divisor(TWICE_REFUSED)
    with pytest.raises(NotASubgroup, match=r"^unit indices \(0,1\), \(1,0\) with non-unit sum"):
        ramification_divisor(TWICE_REFUSED, True, {A: 1, B: 1, C: 1})


def test_raw_product_chart_refusal_comes_before_the_stabilizers():
    # degrees 0 are too small at infinity, and (x) is refused as above
    with pytest.raises(NonIntegralCocycle, match=r"^entry \(\(0,1\),\(0,1\)\) needs u-exponent -2;"):
        ramification_divisor(TWICE_REFUSED, True, {A: 0, B: 0, C: 0})
    with pytest.raises(ValueError, match="^no chart degree given for "):
        ramification_divisor(TWICE_REFUSED, True, {A: 1})


# devissage ------------------------------------------------------------------

def test_devissage_examples():
    rep = devissage_check(cyclic(2, 2, X2), 1)
    assert rep.total.multiplicity(AT_X2) == 3
    assert rep.upper.multiplicity(AT_X2) == 1
    assert rep.lower.multiplicity(AT_X2) == 1
    assert rep.pullback_indices[AT_X2] == 2
    assert rep.equal

    rep3 = devissage_check(cyclic(3, 2, X3), 1)
    assert rep3.total.multiplicity(AT_X3) == 8
    assert rep3.upper.multiplicity(AT_X3) == 2
    assert rep3.lower.multiplicity(AT_X3) == 2
    assert rep3.pullback_indices[AT_X3] == 3
    assert rep3.equal


@pytest.mark.parametrize(
    "f, total",
    [
        (X2, {AT_X2: 3, Place.infinity(2): 3}),
        # (x) is a split support place: the oracle's upper layer there is the
        # c = 0 stand-in model
        (X2 ** 4 * Poly(2, [1, 1]), {Place.finite(Poly(2, [1, 1])): 3, Place.infinity(2): 3}),
    ],
    ids=["x", "x^4(x+1)"],
)
def test_devissage_with_oracle_and_infinity(f, total):
    rep = devissage_check(cyclic(2, 2, f), 1, include_infinity=True, with_oracle=True)
    assert rep.total == Divisor(total)
    assert rep.equal and rep.oracle_agrees


def test_devissage_sweeps_once(monkeypatch):
    from muram import ramification

    calls = []
    sweep = ramification._off_support_normality_sweep

    def counted(p, n, f):
        calls.append((p, n))
        return sweep(p, n, f)

    monkeypatch.setattr(ramification, "_off_support_normality_sweep", counted)
    rep = devissage_check(cyclic(2, 3, X2), 1, include_infinity=True)
    assert rep.equal and calls == [(2, 3)]


def test_devissage_trivial_equation():
    # z^4 = 1 is a p-th power: refused as ramification_divisor refuses it
    for include_infinity in (False, True):
        with pytest.raises(NonIntegralModel, match="^chart equation 1 is a p-th power;"):
            devissage_check(cyclic(2, 2, Poly.one(2)), 1, include_infinity)


def test_devissage_bad_layer():
    with pytest.raises(ValueError):
        devissage_check(cyclic(2, 2, X2), 2)


@pytest.mark.parametrize("p,n,m", [(2, 2, 1), (3, 2, 1), (2, 3, 1), (2, 3, 2)])
def test_devissage_random_models(p, n, m):
    rng = random.Random(p * 10 + n)
    for _ in range(5):
        kd = random_normal_cyclic_kummer(rng, p, n)
        rep = devissage_check(kd, m, include_infinity=True, with_oracle=True)
        assert rep.equal and rep.oracle_agrees


@pytest.mark.parametrize(
    "f,rejection",
    [
        (Poly(2, [0, 1, 1, 1]), NonNormalModel),  # cusp over (x + 1), where f is a unit
        (X2 * X2 * Poly(2, [1, 1]), UnsupportedPartialRamification),  # local exponent 2 at (x)
        (X2 * X2, NonIntegralModel),  # a p-th power
    ],
    ids=["cusp", "partial", "pth-power"],
)
def test_devissage_rejects_like_the_divisor(f, rejection):
    kd = cyclic(2, 2, f)
    with pytest.raises(rejection) as divisor_error:
        ramification_divisor(kd, include_infinity=True)
    with pytest.raises(rejection) as devissage_error:
        devissage_check(kd, 1, include_infinity=True)
    assert str(devissage_error.value) == str(divisor_error.value)


# fixed ideal ----------------------------------------------------------------

def test_fixed_ideal_relation_examples():
    for p, n, f in [(2, 1, X2), (3, 1, X3), (2, 2, X2 ** 3)]:
        place = Place.finite(Poly.x(p))
        model = normalize_local_model(cyclic(p, n, f), place)
        rep = fixed_ideal_relation_check(model)
        assert rep.ideal_valuation == 1
        assert rep.multiplicity == p ** n - 1
        assert rep.holds


def test_fixed_ideal_needs_total_ramification():
    model = normalize_local_model(cyclic(2, 1, Poly(2, [1, 1])), AT_X2)
    with pytest.raises(NotTotallyRamified):
        fixed_ideal_relation_check(model)


# matrix-space regression ----------------------------------------------------

def test_gln_regression_values():
    rep = gln_regression(2, 2, 1, 2)
    assert (rep.lhs.degree(), rep.base_part.degree(), rep.pulled.degree()) == (15, 3, 6)
    assert not rep.equal and not rep.degenerate_height_one

    rep = gln_regression(3, 2, 1, 2)
    assert (rep.lhs.degree(), rep.base_part.degree(), rep.pulled.degree()) == (80, 8, 24)
    assert not rep.equal

    rep = gln_regression(2, 1, 1, 2)
    assert rep.lhs.degree() == 3 and rep.rhs.degree() == 3
    assert rep.equal and rep.degenerate_height_one


def test_gln_regression_input_validation():
    with pytest.raises(ValueError):
        gln_regression(2, 2, 2, 2)
    for p, n in [(4, 2), (1, 2), (0, 2), (2, 0), (2, -1)]:
        with pytest.raises(ValueError):
            gln_regression(p, n, 1, 2)
