import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muram.errors import CharMismatch, ZeroElement, ZeroPolynomial
from muram.fppoly import (
    Place,
    Poly,
    RatFun,
    factor,
    is_irreducible,
    is_pth_power,
    poly_gcd,
    poly_valuation,
    valuation,
)

PRIMES = (2, 3, 5, 7)


def poly_strategy(p, max_deg=6, nonzero=False):
    base = st.lists(st.integers(0, p - 1), min_size=0, max_size=max_deg + 1).map(
        lambda cs: Poly(p, cs)
    )
    if nonzero:
        return base.filter(lambda f: not f.is_zero())
    return base


@pytest.mark.parametrize(
    "p,coeffs,expected",
    [
        (2, [0, 1, 1], {(0, 1): 1, (1, 1): 1}),  # x^2+x = x(x+1)
        (2, [1, 0, 1], {(1, 1): 2}),  # x^2+1 = (x+1)^2
        (3, [0, -1, 0, 1], {(0, 1): 1, (1, 1): 1, (2, 1): 1}),  # x^3-x
    ],
)
def test_factor_examples(p, coeffs, expected):
    got = factor(Poly(p, coeffs))
    assert {g.coeffs: m for g, m in got.items()} == expected
    # the factors come in the same order on every call
    assert len({tuple(factor(Poly(p, coeffs))) for _ in range(8)}) == 1


def test_factor_zero_raises():
    with pytest.raises(ZeroPolynomial):
        factor(Poly.zero(5))


def test_factor_constant_is_empty():
    assert factor(Poly.const(7, 3)) == {}


@settings(max_examples=60)
@given(st.sampled_from(PRIMES), st.data())
def test_factor_expands_back(p, data):
    f = data.draw(poly_strategy(p, max_deg=8, nonzero=True))
    fac = factor(f)
    prod = Poly.const(p, f.lc() if not f.is_zero() else 1)
    for g, m in fac.items():
        assert g.is_monic() and is_irreducible(g)
        prod = prod * g ** m
    assert prod == f


@pytest.mark.parametrize(
    "p,num,den,place,expected",
    [
        (2, [0, 0, 1], [1], "x", 2),  # v_x(x^2) = 2
        (2, [1, 1], [0, 1], "inf", 0),  # (x+1)/x at infinity
        (2, [0, 1, 0, 1], [1], "inf", -3),  # x^3+x at infinity
    ],
)
def test_valuation_examples(p, num, den, place, expected):
    r = RatFun(Poly(p, num), Poly(p, den))
    v = Place.infinity(p) if place == "inf" else Place.finite(Poly.x(p))
    assert valuation(r, v) == expected


def _valuation_by_division(f, pi):
    count = 0
    while True:
        quo, rem = divmod(f, pi)
        if not rem.is_zero():
            return count
        f, count = quo, count + 1


@pytest.mark.parametrize("p", (2, 3, 5))
def test_valuation_at_x_matches_repeated_division(p):
    rng = random.Random(p)
    x, at_x = Poly.x(p), Place.finite(Poly.x(p))
    cases = [x ** k for k in range(12)] + [x ** 40]  # pure powers, x^0 = 1 included
    for _ in range(60):
        tail = Poly(p, [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(rng.randrange(8))])
        cases.append(tail)  # v = 0
        cases.append(x ** rng.randrange(1, 20) * tail)
    assert any(poly_valuation(f, at_x) == 0 for f in cases)
    for f in cases:
        assert poly_valuation(f, at_x) == _valuation_by_division(f, x)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_valuation_at_other_places_matches_repeated_division(p):
    # degree-1 places other than (x), and every degree-2 place
    rng = random.Random(100 + p)
    pis = [Poly(p, [a, 1]) for a in range(1, p)]
    pis += [g for g in (Poly(p, [a, b, 1]) for a in range(p) for b in range(p))
            if is_irreducible(g)]
    for pi in pis:
        v = Place.finite(pi)
        cases = [pi ** 40]
        for k in range(41):  # pi^k * tail; the tail may itself be divisible by pi
            tail = Poly(p, [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(rng.randrange(7))])
            cases.append(pi ** k * tail)
        assert poly_valuation(pi ** 40, v) == 40
        for f in cases:
            assert poly_valuation(f, v) == _valuation_by_division(f, pi)


def test_valuation_zero_raises():
    with pytest.raises(ZeroElement):
        valuation(RatFun.zero(3), Place.infinity(3))


@settings(max_examples=60)
@given(st.sampled_from((2, 3, 5)), st.data())
def test_valuation_additive_on_products(p, data):
    f = data.draw(poly_strategy(p, nonzero=True))
    g = data.draw(poly_strategy(p, nonzero=True))
    places = [Place.infinity(p), Place.finite(Poly.x(p)), Place.finite(Poly(p, [1, 1]))]
    for v in places:
        assert valuation(f * g, v) == valuation(f, v) + valuation(g, v)


@settings(max_examples=40)
@given(st.sampled_from((2, 3, 5)), st.data())
def test_degree_weighted_valuations_sum_to_zero(p, data):
    num = data.draw(poly_strategy(p, nonzero=True))
    den = data.draw(poly_strategy(p, nonzero=True))
    r = RatFun(num, den)
    if r.is_zero():
        return
    total = valuation(r, Place.infinity(p)) * 1
    for g in set(factor(r.num)) | set(factor(r.den)):
        v = Place.finite(g)
        total += valuation(r, v) * v.degree()
    assert total == 0


@settings(max_examples=60)
@given(st.sampled_from(PRIMES), st.data())
def test_divmod_identity(p, data):
    f = data.draw(poly_strategy(p))
    g = data.draw(poly_strategy(p, nonzero=True))
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.is_zero() or r.degree() < g.degree()


@settings(max_examples=40)
@given(st.sampled_from(PRIMES), st.data())
def test_gcd_divides_both(p, data):
    f = data.draw(poly_strategy(p, nonzero=True))
    g = data.draw(poly_strategy(p, nonzero=True))
    d = poly_gcd(f, g)
    assert (f % d).is_zero() and (g % d).is_zero()


@settings(max_examples=50)
@given(st.sampled_from(PRIMES), st.data())
def test_ratfun_always_reduced(p, data):
    num = data.draw(poly_strategy(p))
    den = data.draw(poly_strategy(p, nonzero=True))
    r = RatFun(num, den)
    assert r.den.is_monic()
    assert r.is_zero() or poly_gcd(r.num, r.den).is_one()


def test_char_mismatch_raises():
    with pytest.raises(CharMismatch):
        Poly.x(2) + Poly.x(3)


def test_pth_root_and_power_detection():
    f = Poly(3, [1, 2, 1])  # (x+1)^2
    cube = f ** 3
    assert is_pth_power(cube)
    assert cube.pth_root() == f
    assert not is_pth_power(Poly.x(3))
    assert is_pth_power(Poly.const(5, 2))  # constants are p-th powers


def test_reversed_coeffs():
    f = Poly(2, [0, 1, 0, 0, 1])  # x^4 + x
    assert f.reversed_coeffs() == Poly(2, [1, 0, 0, 1, 0])  # 1 + x^3


def test_place_validation():
    with pytest.raises(ValueError):
        Place.finite(Poly(2, [1, 0, 1]))  # (x+1)^2 reducible
    with pytest.raises(ValueError):
        Place.finite(Poly(2, [1]))  # constant
    v = Place.finite(Poly(2, [1, 1, 1]))
    assert v.degree() == 2
    assert Place.infinity(2).degree() == 1
