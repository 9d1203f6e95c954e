"""Kummer certification from one factorization of each chart equation.

The references below are the earlier, slower forms of the same work:
a sweep that factors f' and builds a local model at each of its
places, a certification that builds a LocalModel at every place, a
normalization that divides by pi one power at a time, and a ``factor``
without early exits.  The library must agree with them exactly: same
divisor and reports, or the same rejection class and message; same
factors in the same order.
"""

import random

import pytest

from muram import ramification
from muram.covering import KummerData
from muram.errors import (
    ModelRejection,
    NonIntegralModel,
    NonNormalModel,
    UnsupportedPartialRamification,
)
from muram.fppoly import (
    Place,
    Poly,
    _distinct_degree,
    _equal_degree_split,
    _squarefree_decomposition,
    factor,
    poly_gcd,
    poly_valuation,
    powmod,
)
from muram.pgroup import PGroup, Subgroup
from muram.ramification import (
    LocalModel,
    _off_support_normality_sweep,
    _reject_pth_power,
    devissage_check,
    infinity_chart_equation,
    normalize_local_model,
    ramification_divisor,
)
from muram.randgen import random_irreducible, random_normal_cyclic_kummer, random_poly

# reference factorization ------------------------------------------------------


def ref_squarefree(f):
    p = f.p
    out = {}
    df = f.derivative()
    if df.is_zero():
        for g, m in ref_squarefree(f.pth_root()).items():
            out[g] = out.get(g, 0) + m * p
        return out
    c = poly_gcd(f, df)
    w = f // c
    i = 1
    while w.degree() > 0:
        y = poly_gcd(w, c)
        z = w // y
        if z.degree() > 0:
            out[z] = out.get(z, 0) + i
        w = y
        c = c // y
        i += 1
    if c.degree() > 0:
        for g, m in ref_squarefree(c.pth_root()).items():
            out[g] = out.get(g, 0) + m * p
    return out


def ref_distinct_degree(f):
    p = f.p
    out = []
    x = Poly.x(p)
    h = x
    rest = f
    d = 0
    while rest.degree() > 2 * d:
        d += 1
        h = powmod(h, p, rest)
        g = poly_gcd(h - x, rest)
        if g.degree() > 0:
            out.append((g, d))
            rest = rest // g
            h = h % rest
    if rest.degree() > 0:
        out.append((rest, rest.degree()))
    return out


def ref_factor(f):
    if f.is_constant():
        return {}
    rng = random.Random(hash((f.p, f.coeffs)))
    out = {}
    for sqfree, mult in ref_squarefree(f.monic()).items():
        for prod, d in ref_distinct_degree(sqfree):
            for irr in _equal_degree_split(prod, d, rng):
                out[irr] = out.get(irr, 0) + mult
    return out


# reference certification ------------------------------------------------------


def ref_normalize_finite(p, n, f, v):
    q = p ** n
    pi = v.poly
    c0 = poly_valuation(f, v)
    c = c0 % q
    f_red = f
    for _ in range(c0 - c):
        f_red = f_red // pi
    if c == 0:
        if (f_red.derivative() % pi).is_zero():
            raise NonNormalModel(
                f"unit-part derivative vanishes at {v}; the chart equation is singular there"
            )
    elif c % p == 0:
        raise UnsupportedPartialRamification(
            f"local exponent {c} at {v} shares a factor with p={p}; "
            "the normalization leaves this model class"
        )
    return LocalModel(p, n, v, pi, f_red, c)


def ref_normalize(p, n, f, v):
    _reject_pth_power(f)
    if v.is_infinity:
        working = Place.finite(Poly.x(p))
        try:
            model = ref_normalize_finite(p, n, infinity_chart_equation(f, p ** n), working)
        except ModelRejection as exc:
            raise type(exc)(f"at infinity (u-chart): {exc}") from None
        return LocalModel(p, n, v, model.pi, model.f_red, model.c)
    return ref_normalize_finite(p, n, f, v)


def ref_sweep(p, n, f):
    _reject_pth_power(f)
    q = p ** n
    for v in sorted(map(Place.finite, ref_factor(f.derivative())), key=Place.sort_key):
        if poly_valuation(f, v) % q == 0:
            ref_normalize_finite(p, n, f, v)


def ref_stabilizer(kd, v):
    group = kd.group
    ramified = [
        ref_normalize(group.p, n_i, f, v).c != 0
        for f, n_i in zip(kd.factors, group.exponents)
    ]
    members = [
        m for m in group.elements()
        if all(not t or r == 0 for t, r in zip(ramified, m.residues))
    ]
    return Subgroup(group, tuple(members))


def ref_divisor(kd, include_infinity):
    """(places, stabilizers) of the reports, in Place.sort_key order."""
    p = kd.group.p
    support = set()
    for f, n in zip(kd.factors, kd.group.exponents):
        ref_sweep(p, n, f)
        support.update(Place.finite(irr) for irr in ref_factor(f))
    places = sorted(support, key=Place.sort_key)
    if include_infinity:
        places.append(Place.infinity(p))
    return [(v, ref_stabilizer(kd, v)) for v in places]


def outcome(run):
    try:
        return "ok", run()
    except ModelRejection as exc:
        return type(exc), str(exc)


# seeded chart equations -------------------------------------------------------


def singular_places(p, n, f):
    """(off-support, support) places over the affine line where z^{p^n} = f
    is singular, by brute force over the places of f * f'."""
    q = p ** n
    off, on = [], []
    for irr in ref_factor(f * f.derivative()):
        v = Place.finite(irr)
        c0 = poly_valuation(f, v)
        if c0 % q == 0:
            w = f
            for _ in range(c0):
                w = w // irr
            if (w.derivative() % irr).is_zero():
                (on if c0 else off).append(v)
    return off, on


def chart_equations(p, n, rng):
    """Random equations, accepted models, and the singular kinds the sweep
    must tell apart: cusps off the support, support places with exponent 0
    and a vanishing unit-part derivative, and both at once, with the
    support place the lesser and then the greater."""
    q = p ** n
    x = Poly.x(p)
    a, b = x, x + Poly.one(p)  # (x) sorts before (x + 1)
    for _ in range(6):
        yield random_poly(rng, p, rng.randrange(1, 9), monic=False)
        yield random_normal_cyclic_kummer(rng, p, n, max_deg=5).factors[0]
    yield random_poly(rng, p, rng.randrange(1, 3)) ** p
    for _ in range(3):
        c = Poly.const(p, rng.randrange(1, p))
        r = random_irreducible(rng, p, rng.choice((1, 2)))
        h = random_poly(rng, p, rng.randrange(3))
        unit = c + r * r * h  # a unit at r with vanishing derivative there
        yield unit
        yield r ** (q * rng.randrange(1, 3)) * unit
        yield r ** q * unit * random_irreducible(rng, p, 1)
        both = c + a * a * b * b * h  # unit at (x) and (x + 1), singular at both
        yield a ** q * both
        yield b ** q * both


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2)])
def test_certification_matches_the_local_model_reference(p, n):
    rng = random.Random(7919 * p + n)
    kinds = set()
    for f in chart_equations(p, n, rng):
        if f.derivative().is_zero():
            kinds.add("p-th power")
        else:
            off, on = singular_places(p, n, f)
            if off and on:
                least = min(off + on, key=Place.sort_key)
                kinds.add("both, support lesser" if least in on else "both, support greater")
            elif off or on:
                kinds.add("off support" if off else "support")
        kd = KummerData(PGroup(p, (n,)), (f,))
        sweep = outcome(lambda: _off_support_normality_sweep(p, n, f))
        expected = outcome(lambda: ref_sweep(p, n, f))
        assert sweep[0] == expected[0], f
        assert sweep[1] == (factor(f) if sweep[0] == "ok" else expected[1]), f
        for include_infinity in (False, True):
            got = outcome(lambda: ramification_divisor(kd, include_infinity))
            want = outcome(lambda: ref_divisor(kd, include_infinity))
            assert got[0] == want[0], f
            if got[0] != "ok":
                assert got[1] == want[1], f
                continue
            kinds.add(f"accepted, infinity {include_infinity}")
            divisor, reports = got[1]
            assert [(r.place, r.stabilizer) for r in reports] == want[1], f
            assert divisor.support == {
                v: p ** n // s.order - 1 for v, s in want[1] if s.order < p ** n
            }
    assert kinds >= {"p-th power", "off support", "support", "both, support lesser",
                     "both, support greater", "accepted, infinity False",
                     "accepted, infinity True"}


@pytest.mark.parametrize("p,exps", [(2, (1, 1)), (3, (1, 1)), (2, (2, 1))])
def test_product_certification_matches_the_reference(p, exps):
    # factor by factor, place by place: the first rejection in that order wins;
    # a constant factor is a p-th power and is refused
    rng = random.Random(31 * p + sum(exps))
    accepted = constant_refusals = 0
    for _ in range(16):
        factors = tuple(
            random_normal_cyclic_kummer(rng, p, n, max_deg=4).factors[0]
            if rng.random() < 0.6 else random_poly(rng, p, rng.randrange(0, 5))
            for n in exps
        )
        kd = KummerData(PGroup(p, exps), factors)
        got = outcome(lambda: ramification_divisor(kd, True))
        want = outcome(lambda: ref_divisor(kd, True))
        assert got[0] == want[0], factors
        if any(f.is_constant() for f in factors):
            assert got[0] != "ok", factors
            constant_refusals += got[0] is NonIntegralModel
        if got[0] == "ok":
            accepted += 1
            assert [(r.place, r.stabilizer) for r in got[1][1]] == want[1], factors
        else:
            assert got[1] == want[1], factors
    assert accepted >= 3 and constant_refusals >= 1


@pytest.mark.parametrize("p,n,m", [(2, 2, 1), (3, 2, 1), (2, 3, 1), (2, 3, 2)])
def test_devissage_lower_layer_matches_its_local_models(p, n, m):
    # the lower layer's exponents are the total's mod p^m
    rng = random.Random(17 * p + 5 * n + m)
    for _ in range(4):
        kd = random_normal_cyclic_kummer(rng, p, n)
        rep = devissage_check(kd, m, include_infinity=True)
        layer = KummerData(PGroup(p, (m,)), kd.factors)
        assert rep.lower.support == {
            v: p ** m // s.order - 1
            for v, s in ((v, ref_stabilizer(layer, v)) for v in rep.pullback_indices)
            if s.order < p ** m
        }
        assert rep.equal


# factor -----------------------------------------------------------------------


def factor_inputs(p, rng):
    for deg in range(13):
        yield random_poly(rng, p, deg, monic=False)
    for _ in range(4):
        yield random_poly(rng, p, rng.randrange(1, 13 // p + 1)) ** p  # p-th powers
        g, h = random_poly(rng, p, rng.randrange(1, 3)), random_poly(rng, p, rng.randrange(1, 3))
        yield (g ** 2 * h ** 3).scale(rng.randrange(1, p))  # repeated factors
    # F_2 has one irreducible quadratic and two cubics
    for d, k in ((1, 2), (3, 2), (4, 3)) if p == 2 else ((1, 3), (2, 3), (3, 3)):
        irrs = set()
        while len(irrs) < k:
            irrs.add(random_irreducible(rng, p, d))
        prod = Poly.one(p)
        for irr in irrs:
            prod = prod * irr
            if prod.degree() > d:
                yield prod  # same-degree irreducibles: the equal-degree split draws


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_factor_matches_the_reference(p):
    rng = random.Random(1009 * p)
    for f in factor_inputs(p, rng):
        assert list(factor(f).items()) == list(ref_factor(f).items()), f


def test_factor_of_a_linear_polynomial_is_the_general_path():
    for p in (2, 3, 5, 7):
        for a in range(p):
            for b in range(1, p):
                f = Poly(p, [a, b])
                parts = _squarefree_decomposition(f.monic()).items()
                general = [(irr, mult) for sqfree, mult in parts for irr, _ in _distinct_degree(sqfree)]
                assert list(factor(f).items()) == general == list(ref_factor(f).items()), f
                assert general == [(f.monic(), 1)]


# work counts ------------------------------------------------------------------


def test_divisor_factors_each_chart_equation_once_and_builds_no_model(monkeypatch):
    calls = {"factor": 0, "normalize": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(ramification, "factor", counting("factor", ramification.factor))
    monkeypatch.setattr(ramification, "_normalize", counting("normalize", ramification._normalize))
    rng = random.Random(5)
    f1 = random_normal_cyclic_kummer(rng, 3, 2).factors[0]
    f2 = random_normal_cyclic_kummer(rng, 3, 1).factors[0]
    cases = [
        (KummerData(PGroup(3, (2,)), (f1,)), 1),
        (KummerData(PGroup(3, (1, 1)), (f1, f2)), 2),
        (KummerData(PGroup(3, (2,)), (f1,)).to_cocycle(), 1),
    ]
    for cov, equations in cases:
        for include_infinity in (False, True):
            calls.update(factor=0, normalize=0)
            divisor, reports = ramification_divisor(cov, include_infinity)
            assert not divisor.is_zero()
            assert calls == {"factor": equations, "normalize": 0}
    # a constant chart equation is a p-th power, refused before any factorization
    for include_infinity in (False, True):
        calls.update(factor=0, normalize=0)
        with pytest.raises(NonIntegralModel, match="^chart equation 1 is a p-th power;"):
            ramification_divisor(KummerData(PGroup(3, (1, 1)), (Poly.one(3), f2)),
                                 include_infinity)
        assert calls == {"factor": 0, "normalize": 0}
    # a single place still gets its local model, built and certified
    for v in [r.place for r in reports]:
        calls.update(factor=0, normalize=0)
        model = normalize_local_model(KummerData(PGroup(3, (2,)), (f1,)), v)
        assert calls == {"factor": 0, "normalize": 1}
        assert model == ref_normalize(3, 2, f1, v)
    x = Poly.x(3)
    with pytest.raises(NonNormalModel, match=r"vanishes at \(x\);"):
        normalize_local_model(KummerData(PGroup(3, (1,)), (x ** 4 + Poly.one(3),)),
                              Place.finite(x))


# high multiplicities ----------------------------------------------------------


def count_gcds(monkeypatch):
    """Calls of the one Euclid kernel, from fppoly and from the sweep."""
    from muram import fppoly

    calls = []
    real = fppoly._gcd_coeffs

    def counted(a, b, p):
        calls.append(1)
        return real(a, b, p)

    monkeypatch.setattr(fppoly, "_gcd_coeffs", counted)
    monkeypatch.setattr(ramification, "_gcd_coeffs", counted)
    return calls


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 1), (3, 2), (5, 1)])
def test_gcds_for_a_high_power_do_not_grow_with_the_multiplicity(p, n, monkeypatch):
    # pi^m u for m = 1 .. 4q: a gcd is taken once per distinct multiplicity,
    # so the count is that of the first few m, where Musser's loop made
    # one gcd per unit of multiplicity
    q = p ** n
    rng = random.Random(101 * p + n)
    pi = random_irreducible(rng, p, 2)
    u = Poly(p, [1, 1]) * random_irreducible(rng, p, 3)
    calls = count_gcds(monkeypatch)
    counts = []
    for m in range(1, 4 * q + 1):
        f = pi ** m * u
        expected = outcome(lambda: ref_sweep(p, n, f)), list(ref_squarefree(f.monic()).items())
        calls.clear()
        got = outcome(lambda: _off_support_normality_sweep(p, n, f))
        counts.append(len(calls))
        calls.clear()
        assert list(_squarefree_decomposition(f.monic()).items()) == expected[1], m
        assert len(calls) <= 4
        assert got[0] == expected[0][0] and (got[0] == "ok" or got == expected[0]), m
    assert max(counts) == max(counts[:2 * p])
    calls.clear()
    ref_squarefree((pi ** (4 * q - 1) * u).monic())
    assert len(calls) >= 4 * q - 1  # the reference takes one per unit of multiplicity


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (2, 5), (3, 2), (5, 1)])
def test_divisions_for_a_high_power_grow_like_its_logarithm(p, n, monkeypatch):
    # (x+1)^m for m = 1 .. 4q: the split sheds the largest power of w that
    # divides c at once, as a valuation is found, so factor's divisions
    # (Euclid's included) stay within a few per bit of m, where one division
    # per unit of multiplicity made 132 at q = 32, m = 127
    from muram import fppoly

    calls = []
    real = fppoly._divmod_coeffs

    def counted(a, b, p):
        calls.append(1)
        return real(a, b, p)

    monkeypatch.setattr(fppoly, "_divmod_coeffs", counted)
    for m in range(1, 4 * p ** n + 1):
        f = Poly(p, [1, 1]) ** m
        calls.clear()
        got = list(factor(f).items())
        assert len(calls) <= 5 * m.bit_length(), m
        assert got == list(ref_factor(f).items()), m
        assert list(_squarefree_decomposition(f).items()) == list(ref_squarefree(f).items()), m


def high_multiplicity_inputs(p, rng):
    """Products of distinct irreducibles with multiplicities in runs of equal
    ones, divisible by p, and shared by several primes."""
    def irreducibles(k):
        out = []
        while len(out) < k:
            irr = random_irreducible(rng, p, rng.randrange(1, 4))
            if irr not in out:
                out.append(irr)
        return out

    q = p * p
    shapes = [
        [1, 2, 3, 4, 5], [2, 3, 4, 5, 6], [q, q + 1, q + 2],  # runs of equal steps
        [p, 2 * p, p * p], [p, p + 1, 2 * p], [p * p, p * p + p, 3 * p],  # divisible by p
        [3, 3, 3], [p, p, 1, 1], [7, 7, 2 * q + 1, 2 * q + 1],  # shared multiplicities
        [1, 4 * q], [2 * q - 1, 2 * q, 2 * q + 1],
    ]
    for mults in shapes:
        for _ in range(3):
            f = Poly.const(p, rng.randrange(1, p))
            for irr, m in zip(irreducibles(len(mults)), mults):
                f = f * irr ** m
            yield f


@pytest.mark.parametrize("p", [2, 3, 5])
def test_high_multiplicities_match_the_references(p):
    rng = random.Random(4099 * p)
    for f in high_multiplicity_inputs(p, rng):
        assert list(_squarefree_decomposition(f.monic()).items()) == list(
            ref_squarefree(f.monic()).items()), f
        assert list(factor(f).items()) == list(ref_factor(f).items()), f
        for n in (1, 2):
            sweep = outcome(lambda: _off_support_normality_sweep(p, n, f))
            expected = outcome(lambda: ref_sweep(p, n, f))
            assert sweep[0] == expected[0], (f, n)
            assert sweep[1] == (factor(f) if sweep[0] == "ok" else expected[1]), (f, n)
