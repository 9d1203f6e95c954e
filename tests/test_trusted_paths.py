"""Differential tests of the kernel's trusted construction paths.

Every Poly, RatFun and AlgebraElt that arithmetic returns is built
without the public constructors' checks.  These tests compare each
result with a naive reference on plain coefficient lists (reduced mod p
after every step) and check the invariant the trusted constructors rely
on: coefficients in [0, p) and trimmed, a reduced fraction with a monic
denominator, no zero graded component.  The public checks are pinned
at the end.
"""

import random

import pytest

from muram.algebra import AlgebraElt
from muram.errors import CharMismatch, ZeroPolynomial
from muram.fppoly import Place, Poly, RatFun, _divmod_coeffs, poly_gcd
from muram.pgroup import PGroup
from muram.ramification import normalize_local_model, ramification_divisor
from muram.randgen import random_cyclic_cocycle, random_normal_cyclic_kummer

PRIMES = (2, 3, 5, 7)


# naive list reference ---------------------------------------------------

def ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_add(a, b, p):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return ref_trim([(x + y) % p for x, y in zip(a, b)])


def ref_neg(a, p):
    return [(-x) % p for x in a]


def ref_sub(a, b, p):
    return ref_add(a, ref_neg(b, p), p)


def ref_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return ref_trim(out)


def ref_scale(a, c, p):
    return ref_trim([(c * x) % p for x in a])


def ref_divmod(a, b, p):
    rem, quo = ref_trim(a), []
    inv = pow(b[-1], p - 2, p)
    while len(rem) >= len(b):
        c = rem[-1] * inv % p
        shift = len(rem) - len(b)
        term = [0] * shift + [c]
        quo = ref_add(quo, term, p)
        rem = ref_sub(rem, ref_mul(term, b, p), p)
    return quo, rem


def ref_monic(a, p):
    return ref_scale(a, pow(a[-1], p - 2, p), p)


def ref_gcd(a, b, p):
    a, b = ref_trim(a), ref_trim(b)
    while b:
        a, b = b, ref_divmod(a, b, p)[1]
    return ref_monic(a, p) if a else []


def ref_derivative(a, p):
    return ref_trim([(i * x) % p for i, x in enumerate(a)][1:])


def ref_pow(a, e, p):
    out = [1]
    for _ in range(e):
        out = ref_mul(out, a, p)
    return out


def rand_coeffs(rng, p, max_deg=7, nonzero=False):
    while True:
        cs = ref_trim([rng.randrange(p) for _ in range(rng.randrange(max_deg + 2))])
        if cs or not nonzero:
            return cs


def assert_canonical(f, p):
    assert isinstance(f, Poly) and f.p == p
    assert isinstance(f.coeffs, tuple)
    assert all(isinstance(c, int) and 0 <= c < p for c in f.coeffs)
    assert not f.coeffs or f.coeffs[-1] != 0


def check(f, p, reference):
    assert_canonical(f, p)
    assert f == Poly(p, reference)
    assert list(f.coeffs) == reference


# Poly ---------------------------------------------------------------------

@pytest.mark.parametrize("p", PRIMES)
def test_poly_arithmetic_matches_list_reference(p):
    rng = random.Random(7000 + p)
    for _ in range(150):
        a, b = rand_coeffs(rng, p), rand_coeffs(rng, p)
        f, g = Poly(p, a), Poly(p, b)
        check(f + g, p, ref_add(a, b, p))
        check(f - g, p, ref_sub(a, b, p))
        check(f - f, p, [])
        check(-f, p, ref_neg(a, p))
        check(f * g, p, ref_mul(a, b, p))
        check(f.scale(0), p, [])
        check(f.scale(p + 1), p, a)
        c = rng.randrange(-2 * p, 2 * p)
        check(f.scale(c), p, ref_scale(a, c % p, p))
        check(f.derivative(), p, ref_derivative(a, p))
        e = rng.randrange(4)
        check(f ** e, p, ref_pow(a, e, p))
        check(poly_gcd(f, g), p, ref_gcd(a, b, p))
        if b:
            quo, rem = divmod(f, g)
            ref_quo, ref_rem = ref_divmod(a, b, p)
            check(quo, p, ref_quo)
            check(rem, p, ref_rem)
            check(f // g, p, ref_quo)
            check(f % g, p, ref_rem)
        if a:
            check(f.monic(), p, ref_monic(a, p))
            check(f.reversed_coeffs(), p, ref_trim(a[::-1]))
        root = rand_coeffs(rng, p, max_deg=3)
        power = ref_pow(root, p, p)
        check(Poly(p, power).pth_root(), p, root)


@pytest.mark.parametrize("p", PRIMES)
def test_divmod_by_a_constant_matches_list_reference(p):
    # a one-coefficient divisor takes no elimination: a / c, no remainder
    rng = random.Random(37 * p)
    dividends = [[], *([c] for c in range(1, p))]
    dividends += [rand_coeffs(rng, p, nonzero=True) for _ in range(20)]
    for c in range(1, p):
        for a in dividends:
            assert _divmod_coeffs(tuple(a), (c,), p) == ref_divmod(a, [c], p), (a, c)


@pytest.mark.parametrize("p", PRIMES)
def test_gcd_of_shared_factors(p):
    # gcds that are not 1, the case Euclid's last steps decide
    rng = random.Random(7100 + p)
    for _ in range(60):
        common = ref_monic(rand_coeffs(rng, p, 3, nonzero=True), p)
        a = ref_mul(common, rand_coeffs(rng, p, 4, nonzero=True), p)
        b = ref_mul(common, rand_coeffs(rng, p, 4, nonzero=True), p)
        g = poly_gcd(Poly(p, a), Poly(p, b))
        check(g, p, ref_gcd(a, b, p))
        assert ref_divmod(list(g.coeffs), common, p)[1] == []
    check(poly_gcd(Poly.zero(p), Poly.zero(p)), p, [])


# RatFun -------------------------------------------------------------------

def assert_reduced(r, p):
    assert isinstance(r, RatFun)
    assert_canonical(r.num, p)
    assert_canonical(r.den, p)
    assert r.den.is_monic()
    if r.num:
        assert ref_gcd(list(r.num.coeffs), list(r.den.coeffs), p) == [1]
    else:
        assert r.den.is_one()


def same_fraction(r, num, den, p):
    """r = num/den, by cross-multiplying with the list reference."""
    assert ref_mul(list(r.num.coeffs), den, p) == ref_mul(num, list(r.den.coeffs), p)


def rand_ratfun(rng, p):
    num = rand_coeffs(rng, p, 5)
    if rng.random() < 0.3:
        den = [rng.randrange(1, p)]  # a constant denominator skips the gcd
    else:
        den = rand_coeffs(rng, p, 5, nonzero=True)
    return num, den, RatFun(Poly(p, num), Poly(p, den))


@pytest.mark.parametrize("p", PRIMES)
def test_ratfun_arithmetic_stays_reduced(p):
    rng = random.Random(7200 + p)
    for _ in range(120):
        an, ad, a = rand_ratfun(rng, p)
        bn, bd, b = rand_ratfun(rng, p)
        assert_reduced(a, p)
        same_fraction(a, an, ad, p)
        results = [
            (a + b, ref_add(ref_mul(an, bd, p), ref_mul(bn, ad, p), p), ref_mul(ad, bd, p)),
            (a - b, ref_sub(ref_mul(an, bd, p), ref_mul(bn, ad, p), p), ref_mul(ad, bd, p)),
            (a * b, ref_mul(an, bn, p), ref_mul(ad, bd, p)),
            (-a, ref_neg(an, p), ad),
            (a - a, [], [1]),
        ]
        if b:
            results.append((a / b, ref_mul(an, bd, p), ref_mul(ad, bn, p)))
        if a:
            results.append((a.inverse(), ad, an))
        f = rand_coeffs(rng, p)
        results.append((RatFun.from_poly(Poly(p, f)), f, [1]))
        results.append((a + Poly(p, f), ref_add(an, ref_mul(f, ad, p), p), ad))
        for r, num, den in results:
            assert_reduced(r, p)
            same_fraction(r, num, den, p)


# AlgebraElt ---------------------------------------------------------------

def tables(p, rng):
    group = PGroup(p, (1,))
    out = [(group, random_cyclic_cocycle(rng, p, 1))]
    kd = random_normal_cyclic_kummer(rng, p, 1, max_deg=4)
    _, reports = ramification_divisor(kd, include_infinity=True)
    place = next((r.place for r in reports if r.multiplicity), reports[0].place)
    out.append((group, normalize_local_model(kd, place)))
    return out


def rand_elt(rng, group):
    p = group.p
    comps = {}
    for m in group.elements():
        if rng.random() < 0.6:
            comps[m] = RatFun(Poly(p, rand_coeffs(rng, p, 3)),
                              Poly(p, rand_coeffs(rng, p, 2, nonzero=True)))
    return AlgebraElt(group, comps)


def assert_clean(a, group):
    assert a.group == group
    assert all(not v.is_zero() for v in a.comps.values())
    for v in a.comps.values():
        assert_reduced(v, group.p)
    assert a == AlgebraElt(group, a.comps)


def public(r):
    """r rebuilt through the public RatFun constructor."""
    return RatFun(r.num, r.den)


def public_sum(group, a, b):
    zero = RatFun.zero(group.p)
    return AlgebraElt(group, {m: public(a.comps.get(m, zero) + b.comps.get(m, zero))
                              for m in group.elements()})


def public_product(group, a, b, table):
    out = {}
    for m, x in a.comps.items():
        for n, y in b.comps.items():
            e = table.entry(m, n)
            e = e if isinstance(e, RatFun) else RatFun(e, Poly.one(group.p))
            term = RatFun(x.num * y.num * e.num, x.den * y.den * e.den)
            k = m + n
            out[k] = public(out[k] + term) if k in out else term
    return AlgebraElt(group, out)


@pytest.mark.parametrize("p", PRIMES)
def test_algebra_arithmetic_matches_public_construction(p):
    rng = random.Random(7300 + p)
    for group, table in tables(p, rng):
        for _ in range(12):
            a, b = rand_elt(rng, group), rand_elt(rng, group)
            total, neg, prod = a + b, -a, a.mul(b, table)
            for r in (total, neg, prod, a - a, a.scale(RatFun.zero(p))):
                assert_clean(r, group)
            assert total == public_sum(group, a, b)
            assert neg == AlgebraElt(group, {m: RatFun(-v.num, v.den) for m, v in a.comps.items()})
            assert prod == public_product(group, a, b, table)
            assert (a - a).is_zero() and a.scale(RatFun.zero(p)).is_zero()


# the public checks ----------------------------------------------------------

def test_public_constructors_keep_their_checks():
    with pytest.raises(ValueError):
        Poly(4, [1])
    with pytest.raises(CharMismatch):
        Poly.x(2) * Poly.x(3)
    with pytest.raises(CharMismatch):
        divmod(Poly.x(5), Poly.one(3))
    with pytest.raises(CharMismatch):
        RatFun(Poly.x(2), Poly.one(3))
    with pytest.raises(CharMismatch):
        RatFun.one(2) + RatFun.one(3)
    with pytest.raises(ZeroPolynomial):
        RatFun(Poly.x(3), Poly.zero(3))
    with pytest.raises(ValueError):
        Place.finite(Poly(2, [1, 0, 1]))  # trusted places are built only from factor output
    group = PGroup(3, (1,))
    with pytest.raises(CharMismatch):
        AlgebraElt(group, {group.elt(1): Poly.x(5)})
    with pytest.raises(CharMismatch):
        AlgebraElt(group, {group.elt(1): RatFun.one(2)})
    other = PGroup(5, (1,))
    with pytest.raises(CharMismatch):
        AlgebraElt.unit(group) + AlgebraElt.basis(other, other.elt(1))
