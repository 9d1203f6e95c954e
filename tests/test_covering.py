import math
import random
import re

import pytest

from muram import covering, fppoly
from muram.covering import (
    Cocycle,
    InfinityChart,
    KummerData,
    canonical_infinity_degrees,
    chart_at_infinity,
    cocycle_from_column,
    forward_decompose,
    support_places,
    torsor_at,
    twist,
    validate,
)
from muram.errors import (
    CharMismatch,
    NonIntegralCocycle,
    UnsupportedDecomposition,
    ZeroEntry,
)
from muram.fppoly import Place, Poly, RatFun, valuation
from muram.pgroup import PGroup, sigma
from muram.ramification import ramification_divisor
from muram.randgen import (
    random_column,
    random_cyclic_cocycle,
    random_integral_column,
    random_integral_twist,
    random_nonzero_poly,
    random_normal_cyclic_kummer,
)


def entries_of(c):
    """Every entry of a table, read through entry(): a table of untwisted
    Kummer data forms them on first use."""
    elements = list(c.group.elements())
    return {(m, n): c.entry(m, n) for m in elements for n in elements}


def test_from_column_all_ones():
    g = PGroup(2, (2,))
    one = Poly.one(2)
    c = cocycle_from_column(g, [one, one, one])
    assert c == Cocycle.trivial(g)


def test_from_column_two_entry_table():
    g = PGroup(3, (1,))
    f = Poly(3, [1, 1])
    c = cocycle_from_column(g, [Poly.one(3), f])
    assert c.entry(g.elt(1), g.elt(1)) == Poly.one(3)
    assert c.entry(g.elt(1), g.elt(2)) == f
    assert c.entry(g.elt(2), g.elt(2)) == f


def test_from_column_non_integral():
    g = PGroup(3, (1,))
    f = Poly(3, [1, 1])
    with pytest.raises(
        NonIntegralCocycle, match=re.escape("entry (2,2) = (1)/(x + 1) is not a polynomial")
    ):
        cocycle_from_column(g, [f, Poly.one(3)])


def test_from_column_zero_entry():
    g = PGroup(2, (1,))
    with pytest.raises(ZeroEntry):
        cocycle_from_column(g, [Poly.zero(2)])
    with pytest.raises(ValueError, match=r"^column must have 3 entries, got 1$"):
        cocycle_from_column(PGroup(2, (2,)), [Poly.one(2)])


Z2 = PGroup(2, (1,))
ONE_ONE = (Z2.elt(1), Z2.elt(1))


@pytest.mark.parametrize("build,refusal,message", [
    (lambda: Cocycle(Z2, {ONE_ONE: Poly.x(3)}), CharMismatch, "entry (1,1) has characteristic 3"),
    (lambda: Cocycle(Z2, {ONE_ONE: Poly.zero(2)}), ZeroEntry, "entry (1,1) is zero"),
    (lambda: KummerData(Z2, ()), ValueError,
     "need one chart equation per invariant factor (1), got 0"),
    (lambda: KummerData(Z2, (Poly.zero(2),)), ZeroEntry, "chart equation is zero"),
    (lambda: KummerData(Z2, (Poly.x(3),)), CharMismatch,
     "chart equation characteristic differs from the group's"),
    (lambda: KummerData(Z2, (Poly.x(2),), {Z2.zero(): Poly.x(2)}), ValueError,
     "twist must send 0 to 1"),
], ids=["cocycle-char", "cocycle-zero", "kummer-count", "kummer-zero", "kummer-char",
        "kummer-twist-at-0"])
def test_constructors_refuse_malformed_data(build, refusal, message):
    with pytest.raises(refusal) as raised:
        build()
    assert str(raised.value) == message


def test_from_column_needs_cyclic():
    with pytest.raises(UnsupportedDecomposition):
        cocycle_from_column(PGroup(2, (1, 1)), [Poly.one(2)] * 3)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 3), (3, 2), (5, 1)])
def test_integral_column_is_the_random_table_column(p, n):
    # both draw the same twisted Kummer data; the column is formed without the table
    columns, tables = random.Random(p * n), random.Random(p * n)
    for _ in range(10):
        c = random_cyclic_cocycle(tables, p, n)
        one = c.group.elt(1)
        col = [c.entry(m, one) for m in c.group.elements() if not m.is_zero()]
        assert random_integral_column(columns, p, n) == col
        assert columns.getstate() == tables.getstate()


@pytest.mark.parametrize("p,n", [(2, 2), (3, 1), (3, 2)])
def test_column_round_trip(p, n):
    rng = random.Random(100 * p + n)
    g = PGroup(p, (n,))
    q = g.order
    one = g.elt(1)
    for _ in range(10):
        col = random_integral_column(rng, p, n)
        c = cocycle_from_column(g, col)
        assert validate(c).ok
        betas, f = forward_decompose(c)
        assert betas[0].is_one() and betas[1].is_one()
        assert [c.entry(g.elt(i), one) for i in range(1, q)] == col
        # a raw copy has no Kummer form: validate and forward_decompose reconstruct it
        raw = Cocycle.from_entries(g, {(m, k): a for m, k, a in c.pairs()})
        assert raw._kummer is None and validate(raw).ok
        assert forward_decompose(raw) == (betas, f)
        assert f == math.prod(col, start=Poly.one(p))


def test_validate_reports_symmetry_failure():
    g = PGroup(3, (1,))
    base = KummerData(g, (Poly.x(3),)).to_cocycle()
    entries = entries_of(base)
    entries[(g.elt(1), g.elt(2))] = Poly(3, [1, 1])
    broken = Cocycle(g, entries)
    assert validate(broken).failures == [
        ("symmetry", ("1", "2")),
        ("cocycle identity", ("1", "1", "1")),
    ]


def test_validate_reports_normalization_failure():
    g = PGroup(2, (1,))
    base = Cocycle.trivial(g)
    entries = entries_of(base)
    entries[(g.zero(), g.elt(1))] = Poly.x(2)
    rep = validate(Cocycle(g, entries))
    assert not rep.ok
    assert rep.first("normalization") is not None


def test_forward_decompose_trivial_table():
    g = PGroup(3, (1,))
    betas, f = forward_decompose(Cocycle.trivial(g))
    assert all(b.is_one() for b in betas)
    assert f.is_one()


def test_forward_decompose_rejects_products():
    c = KummerData(PGroup(2, (1, 1)), (Poly.x(2), Poly.x(2))).to_cocycle()
    with pytest.raises(UnsupportedDecomposition):
        forward_decompose(c)


def test_twist_examples():
    g = PGroup(2, (1,))
    x = Poly.x(2)
    sq = KummerData(g, (x * x,)).to_cocycle()
    t = twist(sq, {g.elt(1): RatFun(Poly.one(2), x)})
    assert t.entry(g.elt(1), g.elt(1)).is_one()
    lin = KummerData(g, (x,)).to_cocycle()
    assert twist(lin, {g.elt(1): RatFun.one(2)}) == lin
    with pytest.raises(NonIntegralCocycle):
        twist(lin, {g.elt(1): RatFun(Poly.one(2), x)})
    with pytest.raises(ValueError, match=r"^twist must send 0 to 1$"):
        twist(lin, {g.zero(): RatFun.from_poly(x)})
    with pytest.raises(ZeroEntry, match=r"^twist is zero at 1$"):
        twist(lin, {g.elt(1): RatFun.zero(2)})


def test_twist_outputs_validate():
    rng = random.Random(6)
    from muram.randgen import random_integral_twist

    for group in (PGroup(2, (2,)), PGroup(3, (1, 1))):
        base = KummerData(
            group, tuple(Poly(group.p, [1, 1]) for _ in group.exponents)
        ).to_cocycle()
        for _ in range(3):
            assert validate(twist(base, random_integral_twist(rng, group))).ok


def test_unit_twist_preserves_torsor_verdicts():
    g = PGroup(3, (1,))
    x = Poly.x(3)
    c = KummerData(g, (x,)).to_cocycle()
    unit_at_x = Poly(3, [1, 1])  # x+1 is a unit at (x)
    b = {g.elt(1): RatFun.from_poly(unit_at_x), g.elt(2): RatFun.from_poly(unit_at_x)}
    twisted = twist(c, b)
    for place in (Place.finite(x), Place.finite(Poly(3, [2, 1]))):
        assert torsor_at(c, place) == torsor_at(twisted, place)


def test_chart_at_infinity_examples():
    g = PGroup(2, (1,))
    x = Poly.x(2)
    trivial = Cocycle.trivial(g)
    assert chart_at_infinity(trivial, {g.elt(1): 0}) == trivial
    c1 = chart_at_infinity(KummerData(g, (x,)).to_cocycle(), {g.elt(1): 1})
    assert c1.entry(g.elt(1), g.elt(1)) == Poly.x(2)
    c3 = chart_at_infinity(KummerData(g, (x ** 3,)).to_cocycle(), {g.elt(1): 2})
    assert c3.entry(g.elt(1), g.elt(1)) == Poly.x(2)
    with pytest.raises(NonIntegralCocycle):
        chart_at_infinity(KummerData(g, (x ** 3,)).to_cocycle(), {g.elt(1): 1})


@pytest.mark.parametrize("p,n,f_coeffs", [(2, 2, [0, 1, 1]), (3, 1, [0, 2, 0, 1]), (2, 3, [1, 1, 1])])
def test_canonical_degrees_clear_denominators(p, n, f_coeffs):
    kd = KummerData(PGroup(p, (n,)), (Poly(p, f_coeffs),))
    chart = chart_at_infinity(kd.to_cocycle(), canonical_infinity_degrees(kd))
    assert validate(chart).ok


def test_torsor_examples():
    g3 = PGroup(3, (1,))
    x = Poly.x(3)
    c = KummerData(g3, (x,)).to_cocycle()
    assert torsor_at(Cocycle.trivial(g3), Place.finite(x))
    assert not torsor_at(c, Place.finite(x))
    assert torsor_at(c, Place.finite(Poly(3, [1, 1])))


@pytest.mark.parametrize(
    "group",
    [PGroup(2, (2,)), PGroup(2, (2, 1)), PGroup(3, (1, 1)), PGroup(3, (2, 2))],
    ids=str,
)
def test_kummer_self_pairing_collects_ramified_factors(group):
    # alpha(m, -m) = prod over factors with m_i != 0, since the carry of
    # (m_i, -m_i) is 1 exactly when m_i != 0 -- exhaustive up to order 81
    rng = random.Random(group.order)
    factors = tuple(
        Poly(group.p, [rng.randrange(group.p) for _ in range(2)] + [1])
        for _ in group.exponents
    )
    kd = KummerData(group, factors)
    c = kd.to_cocycle()
    for m in group.elements():
        expected = Poly.one(group.p)
        for f, r in zip(factors, m.residues):
            if r != 0:
                expected = expected * f
        assert c.entry(m, -m) == expected
        for s, r in zip(sigma(m, -m), m.residues):
            assert s == (1 if r != 0 else 0)


def test_support_places():
    g = PGroup(2, (1,))
    f = Poly(2, [0, 1]) * Poly(2, [1, 1])  # x(x+1)
    c = KummerData(g, (f,)).to_cocycle()
    assert [str(v) for v in support_places(c)] == ["(x)", "(x + 1)"]


def test_detection_against_entrywise_integrality():
    # classification of random columns must match an independent
    # entry-by-entry recomputation over the fraction field
    rng = random.Random(42)
    g = PGroup(2, (2,))
    q = 4
    for _ in range(40):
        col = random_column(rng, 2, 2)
        betas = [RatFun.one(2)] * q
        for i in range(1, q - 1):
            betas[i + 1] = betas[i] * col[i - 1]
        f = Poly.one(2)
        for a in col:
            f = f * a
        integral = True
        for i in range(q):
            for j in range(q):
                carry = (i + j) // q
                entry = betas[(i + j) % q] / (betas[i] * betas[j])
                if carry:
                    entry = entry * f
                if not entry.is_poly():
                    integral = False
        try:
            cocycle_from_column(g, col)
            assert integral
        except NonIntegralCocycle:
            assert not integral


def _lazy_tables():
    """(table, dense table, chart degrees): seeded Kummer data, twisted and
    untwisted, raw cyclic tables, and a product model with explicit degrees."""
    rng = random.Random(7)
    out = []
    for p, n in [(2, 2), (3, 1), (2, 3), (3, 2)]:
        kd = random_normal_cyclic_kummer(rng, p, n)
        out.append((kd, kd.to_cocycle(), canonical_infinity_degrees(kd)))
        twisted = KummerData(kd.group, kd.factors, random_integral_twist(rng, kd.group))
        out.append((twisted, twisted.to_cocycle(), None))
        raw = random_cyclic_cocycle(rng, p, n)
        out.append((raw, raw, None))
    g = PGroup(2, (2, 1))
    product = KummerData(g, (Poly(2, [0, 1, 1]), Poly(2, [1, 1, 0, 1])))
    degrees = {m: 3 * m.residues[0] + 2 * m.residues[1] for m in g.elements() if not m.is_zero()}
    out.append((product, product.to_cocycle(), degrees))
    return out


def _generous_degrees(dense):
    # a constant d(m) = D >= every entry degree keeps every u-exponent >= 0
    top = max(a.degree() for _, _, a in dense.pairs())
    return {m: top for m in dense.group.elements() if not m.is_zero()}


def test_entry_valuation_matches_dense_table():
    for table, dense, _ in _lazy_tables():
        places = support_places(dense) + [Place.finite(Poly.x(dense.group.p))]
        for v in places + [Place.infinity(dense.group.p)]:
            for m in dense.group.elements():
                for n in dense.group.elements():
                    expected = valuation(dense.entry(m, n), v)
                    assert table.entry_valuation(m, n, v) == expected, (m, n, v)


def test_infinity_chart_view_matches_dense_chart():
    for table, dense, degrees in _lazy_tables():
        degrees = degrees or _generous_degrees(dense)
        view = InfinityChart(table, degrees)
        chart = chart_at_infinity(dense, degrees)
        for m in dense.group.elements():
            for n in dense.group.elements():
                assert view.entry(m, n) == chart.entry(m, n)
                expected = valuation(chart.entry(m, n), view.u_place)
                assert view.entry_valuation(m, n, view.u_place) == expected


def test_infinity_chart_view_rejects_like_dense_chart():
    g = PGroup(2, (1,))
    cube = KummerData(g, (Poly.x(2) ** 3,))
    view = InfinityChart(cube, {g.elt(1): 1})
    with pytest.raises(NonIntegralCocycle, match=r"entry \(1,1\) needs u-exponent -1"):
        view.check_integral()
    with pytest.raises(ValueError, match="no chart degree given for 1"):
        InfinityChart(cube, {})


def test_infinity_chart_refuses_missing_degrees():
    # the refusal names what is missing for the table given: Kummer data and
    # cyclic tables have canonical degrees, raw product tables have none
    cube = KummerData(PGroup(2, (1,)), (Poly.x(2) ** 3,))
    product = KummerData(PGroup(2, (1, 1)), (Poly.x(2), Poly(2, [1, 1])))
    cases = [
        (cube, "Kummer data needs chart degrees at infinity; "
               "canonical_infinity_degrees(kd) gives the default ones"),
        (product, "Kummer data needs chart degrees at infinity; "
                  "canonical_infinity_degrees(kd) gives the default ones"),
        (cube.to_cocycle(), "cyclic raw tables need chart degrees at infinity; "
                            "canonical_infinity_degrees(kummer_form(table)) gives the default ones"),
        (Cocycle.trivial(PGroup(2, ())), "cyclic raw tables need chart degrees at infinity; "
         "canonical_infinity_degrees(kummer_form(table)) gives the default ones"),
        # the text the CLI prints, unchanged
        (product.to_cocycle(), "non-cyclic raw tables need explicit chart degrees at infinity"),
    ]
    for table, message in cases:
        with pytest.raises(ValueError) as raised:
            InfinityChart(table, None)
        assert str(raised.value) == message


def _scan_validate(c):
    """Reference validate: the first violating tuple of each invariant,
    found by scanning every pair and every triple of the table."""
    elements = list(c.group.elements())
    one = Poly.one(c.group.p)
    zero = c.group.zero()
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
    return failures


def _ratfun_decompose_refusal(c):
    """Reference forward_decompose for a cyclic table: rebuild every entry
    as a reduced RatFun from the column and return the refusal message at
    the first differing pair, or None."""
    g = c.group
    one = g.elt(1)
    betas = [RatFun.one(g.p)] * g.order
    for i in range(1, g.order - 1):
        betas[i + 1] = betas[i] * c.entry(g.elt(i), one)
    f = Poly.one(g.p)
    for i in range(1, g.order):
        f = f * c.entry(g.elt(i), one)
    kd = KummerData(g, (f,), {g.elt(i): b.inverse() for i, b in enumerate(betas)})
    for m in g.elements():
        for n in g.elements():
            if kd.raw_entry(m, n) != c.entry(m, n):
                return f"table is not a valid symmetric cocycle at ({m},{n})"
    return None


def _corruptions(rng, c):
    """c with a scaled entry, with a scaled symmetric pair, and with a
    broken normalization."""
    g = c.group
    elements = list(g.elements())
    factor = random_nonzero_poly(rng, g.p, 2)
    while factor.is_one():
        factor = random_nonzero_poly(rng, g.p, 2)
    m, n = rng.choice(elements), rng.choice(elements)
    scaled = entries_of(c)
    scaled[(m, n)] = scaled[(m, n)] * factor
    pair = entries_of(c)
    pair[(m, n)] = pair[(m, n)] * factor
    if n != m:
        pair[(n, m)] = pair[(n, m)] * factor
    normalization = entries_of(c)
    k = rng.choice(elements)
    normalization[(g.zero(), k)] = factor
    return [Cocycle(g, scaled), Cocycle(g, pair), Cocycle(g, normalization)]


@pytest.mark.parametrize(
    "p,n,count",
    [(2, 1, 8), (2, 2, 8), (2, 3, 6), (3, 1, 8), (3, 2, 4), (5, 1, 6), (2, 4, 2), (3, 3, 1)],
)
def test_reconstruction_matches_the_scans(p, n, count):
    rng = random.Random(1000 * p + n)
    for _ in range(count):
        valid = random_cyclic_cocycle(rng, p, n)
        for c in [valid] + _corruptions(rng, valid):
            expected = _scan_validate(c)
            assert validate(c).failures == expected
            refusal = _ratfun_decompose_refusal(c)
            if refusal is None:
                assert expected == []
                betas, f = forward_decompose(c)
                assert betas[0].is_one() and betas[1].is_one()
            else:
                with pytest.raises(UnsupportedDecomposition) as excinfo:
                    forward_decompose(c)
                assert str(excinfo.value) == refusal


def test_product_tables_take_the_scans(monkeypatch):
    def refuse(c):
        raise AssertionError("a product table was compared with a column reconstruction")

    monkeypatch.setattr(covering, "_reconstruct", refuse)
    g = PGroup(2, (1, 1))
    twist_b = random_integral_twist(random.Random(5), g)
    valid = KummerData(g, (Poly(2, [0, 1]), Poly(2, [1, 1, 1])), twist_b).to_cocycle()
    for c in [valid] + _corruptions(random.Random(6), valid):
        assert validate(c).failures == _scan_validate(c)
    assert validate(valid).ok
    with pytest.raises(UnsupportedDecomposition, match="only cyclic tables decompose"):
        forward_decompose(valid)


def test_raw_cyclic_cocycle_is_reconstructed_once(monkeypatch):
    calls = []
    reconstruct = covering._reconstruct

    def counted(c):
        calls.append(c)
        return reconstruct(c)

    monkeypatch.setattr(covering, "_reconstruct", counted)
    g = PGroup(2, (3,))
    built = KummerData(g, (Poly.x(2),), random_integral_twist(random.Random(8), g)).to_cocycle()
    c = Cocycle(g, entries_of(built))  # the same entries, read as a raw table
    for table in (c, built):
        assert validate(table).ok
        assert forward_decompose(table) == forward_decompose(c)
        ramification_divisor(table, include_infinity=True)
    # the dense table of Kummer data keeps that data, so it is never reconstructed
    assert calls == [c]


def test_twisted_entry_divides_exactly_like_the_reduced_fraction(monkeypatch):
    """Twisted entries against RatFun(num, den), reduced by a gcd, on seeded
    twists: the same fraction, the same first refusal and message, and no
    gcd while an integral table forms its entries."""
    rng = random.Random(21)
    integral = non_integral = 0
    for k in range(120):
        p, n = [(2, 2), (3, 1), (2, 3), (5, 1), (3, 2)][k % 5]
        g = PGroup(p, (n,))
        f = random_nonzero_poly(rng, p, 3)
        if k % 2:
            b = random_integral_twist(rng, g)
        else:
            b = {m: RatFun(random_nonzero_poly(rng, p, 2), random_nonzero_poly(rng, p, 2))
                 for m in g.elements() if not m.is_zero()}
        b[g.zero()] = RatFun.one(p)
        kd = KummerData(g, (f,), b)
        refusal = None
        for m in g.elements():
            for n_ in g.elements():
                a = f if sigma(m, n_)[0] else Poly.one(p)
                bm, bn, bmn = b[m], b[n_], b[m + n_]
                reference = RatFun(a * bm.num * bn.num * bmn.den, bm.den * bn.den * bmn.num)
                entry = covering.twisted_entry(a, bm, bn, bmn)
                assert (entry.num, entry.den) == (reference.num, reference.den)
                assert kd.raw_entry(m, n_) == reference
                if reference.is_poly():
                    integral += 1
                else:
                    non_integral += 1
                    refusal = refusal or f"entry ({m},{n_}) = {reference} is not a polynomial"
        if refusal is None:
            kd.to_cocycle()
        else:
            with pytest.raises(NonIntegralCocycle) as exc:
                kd.to_cocycle()
            assert str(exc.value) == refusal
    assert integral >= 500 and non_integral >= 500
    g = PGroup(3, (2,))
    b = next(b for b in (random_integral_twist(random.Random(seed), g) for seed in range(22, 99))
             if max(v.num.degree() for v in b.values()) >= 2)
    table = KummerData(g, (Poly(3, [1, 1]),), b).to_cocycle()  # factors the twist
    gcds = []
    gcd = fppoly.poly_gcd
    monkeypatch.setattr(fppoly, "poly_gcd", lambda f, h: gcds.append(f) or gcd(f, h))
    list(table.pairs())
    assert gcds == []


def test_twisted_kummer_data_hashes_like_it_compares():
    g = PGroup(3, (2,))

    def seeded(seed):
        return KummerData(g, (Poly(3, [0, 1, 1]),), random_integral_twist(random.Random(seed), g))

    a, b, c = seeded(5), seeded(5), seeded(6)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != c and len({a, b, c}) == 2
    untwisted = KummerData(g, (Poly(3, [0, 1, 1]),))
    assert hash(untwisted) == hash(KummerData(g, [Poly(3, [0, 1, 1])], None))
    assert {a: 1}[b] == 1


def test_kummer_data_compares_the_same_either_way_round():
    g = PGroup(3, (2,))
    f = (Poly(3, [0, 1, 1]),)
    polys = {m: Poly(3, [1, m.residues[0]]) for m in g.elements() if not m.is_zero()}
    ratfuns = {m: RatFun.from_poly(b) for m, b in polys.items()}
    pairs = [(KummerData(g, f, polys), KummerData(g, f, ratfuns)),
             (KummerData(g, f, {}), KummerData(g, f, None))]
    for a, b in pairs:
        assert a == b and b == a and hash(a) == hash(b) and len({a, b}) == 1
