import random

import pytest

import muram.algebra
from muram.algebra import AlgebraElt, algebra_inverse, solve_linear
from muram.covering import KummerData
from muram.errors import NotInvertible
from muram.fppoly import Place, Poly, RatFun
from muram.pgroup import PGroup
from muram.ramification import normalize_local_model, ramification_divisor
from muram.randgen import (
    random_cyclic_cocycle,
    random_integral_twist,
    random_nonzero_poly,
    random_normal_cyclic_kummer,
)


def kummer_table(p, n, f_coeffs):
    group = PGroup(p, (n,))
    return group, KummerData(group, (Poly(p, f_coeffs),)).to_cocycle()


def test_unit_is_its_own_inverse():
    group, table = kummer_table(3, 1, [0, 1])
    e0 = AlgebraElt.unit(group)
    assert algebra_inverse(e0, table) == e0


def test_kummer_basis_inverse():
    # p=3, f=x: e_1 * e_2 = x e_0, so e_1^{-1} = (1/x) e_2
    group, table = kummer_table(3, 1, [0, 1])
    inv = algebra_inverse(AlgebraElt.basis(group, group.elt(1)), table)
    expected = AlgebraElt(group, {group.elt(2): RatFun(Poly.one(3), Poly.x(3))})
    assert inv == expected


def test_split_element_inverse():
    # p=2, f=x: (e_0+e_1)^2 = (1+x) e_0
    group, table = kummer_table(2, 1, [0, 1])
    a = AlgebraElt(group, {group.zero(): RatFun.one(2), group.elt(1): RatFun.one(2)})
    sq = a.mul(a, table)
    assert sq == AlgebraElt(group, {group.zero(): RatFun.from_poly(Poly(2, [1, 1]))})
    inv = algebra_inverse(a, table)
    expected = a.scale(RatFun(Poly.one(2), Poly(2, [1, 1])))
    assert inv == expected
    assert a.mul(inv, table) == AlgebraElt.unit(group)


def test_zero_divisor_detected():
    # p=2, f=x^2: (x e_0 + e_1)(x e_0 - e_1) = (x^2 - x^2) e_0 = 0
    group, table = kummer_table(2, 1, [0, 0, 1])
    a = AlgebraElt(group, {group.zero(): RatFun.from_poly(Poly.x(2)), group.elt(1): RatFun.one(2)})
    with pytest.raises(NotInvertible):
        algebra_inverse(a, table)
    # Z/2 x Z/2 with f = (x, x + 1): w = e_0 + e_(1,0) + e_(0,1) has w^2 = 1 + x + (x + 1) = 0
    group = PGroup(2, (1, 1))
    table = KummerData(group, (Poly(2, [0, 1]), Poly(2, [1, 1]))).to_cocycle()
    one = RatFun.one(2)
    w = AlgebraElt(group, {group.zero(): one, group.elt((1, 0)): one, group.elt((0, 1)): one})
    assert w.mul(w, table).is_zero()
    with pytest.raises(NotInvertible):
        algebra_inverse(w, table)


def test_zero_not_invertible():
    group, table = kummer_table(2, 1, [0, 1])
    with pytest.raises(NotInvertible):
        algebra_inverse(AlgebraElt.zero(group), table)


@pytest.mark.parametrize("p,n,f", [(2, 1, [0, 1]), (3, 1, [1, 1]), (2, 2, [0, 1])])
def test_random_inverses_multiply_to_unit(p, n, f):
    group, table = kummer_table(p, n, f)
    rng = random.Random(11)
    elements = list(group.elements())
    checked = 0
    while checked < 8:
        comps = {
            m: RatFun.from_poly(Poly(p, [rng.randrange(p) for _ in range(2)]))
            for m in elements
            if rng.random() < 0.7
        }
        a = AlgebraElt(group, comps)
        if a.is_zero():
            continue
        try:
            inv = algebra_inverse(a, table)
        except NotInvertible:
            continue
        assert a.mul(inv, table) == AlgebraElt.unit(group)
        assert inv.mul(a, table) == AlgebraElt.unit(group)
        checked += 1


# both inverse paths against the dense solve -----------------------------------
#
# The reference solves (a . x) = e_0 on the full basis: an |M| x |M| system
# over F_p(x), singular exactly when a is a zero divisor.

def dense_inverse(a, table):
    group = a.group
    elements = list(group.elements())
    index = {g: i for i, g in enumerate(elements)}
    zero = RatFun.zero(group.p)
    matrix = [[zero] * len(elements) for _ in elements]
    # (a*x)_k = sum_n a_{k-n} alpha(k-n, n) x_n
    for n in elements:
        for m, coeff in a.comps.items():
            k = index[m + n]
            matrix[k][index[n]] = matrix[k][index[n]] + coeff * RatFun.from_poly(table.entry(m, n))
    rhs = [zero] * len(elements)
    rhs[index[group.zero()]] = RatFun.one(group.p)
    sol = solve_linear(matrix, rhs)
    if sol is None:
        raise NotInvertible(f"{a} is a zero divisor in the generic fiber")
    return AlgebraElt(group, {g: sol[i] for g, i in index.items()})


def _seeded_cocycles():
    rng = random.Random(23)
    tables = []
    for p, n in [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3)]:
        group = PGroup(p, (n,))
        f = random_nonzero_poly(rng, p, 3)
        tables.append(KummerData(group, (f,)).to_cocycle())
        tables.append(KummerData(group, (f,), random_integral_twist(rng, group)).to_cocycle())
        tables.append(random_cyclic_cocycle(rng, p, n))
    product = PGroup(2, (1, 1))
    tables.append(KummerData(product, (Poly(2, [0, 1]), Poly(2, [1, 1]))).to_cocycle())
    tables.append(KummerData(product, (Poly(2, [0, 1, 1]), Poly(2, [1, 0, 1, 1]))).to_cocycle())
    return tables


def _seeded_local_models():
    rng = random.Random(29)
    models = []
    for p, n in [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]:
        for _ in range(2):
            kd = random_normal_cyclic_kummer(rng, p, n, max_deg=4)
            _, reports = ramification_divisor(kd, include_infinity=True)
            places = [r.place for r in reports] + [Place.infinity(p)]
            models.extend(normalize_local_model(kd, v) for v in dict.fromkeys(places))
    assert any(m.place.is_infinity for m in models)
    assert any(m.c == 0 for m in models) and any(m.c != 0 for m in models)
    return models


def _random_ratfun(rng, p):
    return RatFun(random_nonzero_poly(rng, p, 3), random_nonzero_poly(rng, p, 2))


def _check_monomial_inverses(table, rng):
    group = table.group
    unit = AlgebraElt.unit(group)
    for m in group.elements():
        a = AlgebraElt(group, {m: _random_ratfun(rng, group.p)})
        inv = algebra_inverse(a, table)
        assert inv == dense_inverse(a, table)
        assert set(inv.comps) == {-m}
        assert a.mul(inv, table) == unit
        assert inv.mul(a, table) == unit


def test_monomial_inverse_matches_dense_solve_on_tables():
    rng = random.Random(37)
    for table in _seeded_cocycles():
        _check_monomial_inverses(table, rng)


def test_monomial_inverse_matches_dense_solve_on_local_models():
    rng = random.Random(31)
    for model in _seeded_local_models():
        _check_monomial_inverses(model, rng)


def test_monomial_inverse_runs_no_solve(monkeypatch):
    def refuse(*args):
        raise AssertionError("a monomial went through the dense solve")

    monkeypatch.setattr(muram.algebra, "solve_linear", refuse)
    group, table = kummer_table(2, 2, [0, 1])
    a = AlgebraElt(group, {group.elt(3): RatFun.from_poly(Poly(2, [1, 1]))})
    inv = algebra_inverse(a, table)
    assert a.mul(inv, table) == AlgebraElt.unit(group)


def _product_tables():
    """Kummer tables on Z/2 x Z/2, Z/4 x Z/2 and Z/3 x Z/3, untwisted and twisted."""
    rng = random.Random(41)
    tables = []
    for p, exps in [(2, (1, 1)), (2, (2, 1)), (3, (1, 1))]:
        group = PGroup(p, exps)
        for twisted in (False, True):
            fs = tuple(random_nonzero_poly(rng, p, 3) for _ in exps)
            b = random_integral_twist(rng, group) if twisted else None
            tables.append(KummerData(group, fs, b).to_cocycle())
    return tables


def _nilpotents():
    """(table, a) with a^q = 0: g e_0 - e_1 on f = g^q, the documented
    product examples, and g e_0 - e_(1,0) on a product with f_1 = g^q."""
    out = []
    rng = random.Random(43)
    for p, n in [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3)]:
        group = PGroup(p, (n,))
        g = random_nonzero_poly(rng, p, 2)
        table = KummerData(group, (g ** (p ** n),)).to_cocycle()
        out.append((table, AlgebraElt(group, {group.zero(): g, group.elt(1): -Poly.one(p)})))
    x2, x3 = Poly.x(2), Poly.x(3)
    group, table = kummer_table(2, 1, [0, 0, 1])
    out.append((table, AlgebraElt(group, {group.zero(): x2, group.elt(1): Poly.one(2)})))
    group = PGroup(2, (1, 1))
    table = KummerData(group, (x2, x2 + Poly.one(2))).to_cocycle()
    out.append((table, AlgebraElt(group, {m: Poly.one(2) for m in group.elements()
                                          if m.residues != (1, 1)})))
    group = PGroup(3, (1, 1))
    table = KummerData(group, (x3, x3)).to_cocycle()
    out.append((table, AlgebraElt(group, {group.elt((1, 0)): Poly.one(3),
                                          group.elt((0, 1)): -Poly.one(3)})))
    group = PGroup(2, (2, 1))
    g = Poly(2, [1, 1, 1])
    table = KummerData(group, (g ** 4, x2)).to_cocycle()
    out.append((table, AlgebraElt(group, {group.zero(): g, group.elt((1, 0)): Poly.one(2)})))
    return out


def _random_element(rng, group):
    """A random element with at least two nonzero components."""
    elements = list(group.elements())
    p = group.p
    while True:
        comps = {m: RatFun(random_nonzero_poly(rng, p, 1), random_nonzero_poly(rng, p, 1))
                 for m in elements if rng.random() < 0.4}
        if len(comps) > 1:
            return AlgebraElt(group, comps)


def _check_frobenius_inverse(table, a):
    try:
        expected = dense_inverse(a, table)
    except NotInvertible:
        with pytest.raises(NotInvertible):
            algebra_inverse(a, table)
        return False
    assert algebra_inverse(a, table) == expected
    return True


def test_frobenius_inverse_matches_dense_solve():
    rng = random.Random(47)
    tables = _seeded_cocycles() + _product_tables() + _seeded_local_models()
    inverted = 0
    for table in tables:
        for _ in range(2):
            inverted += _check_frobenius_inverse(table, _random_element(rng, table.group))
    assert inverted > len(tables)
    assert {t.group.exponents for t in tables} >= {(1, 1), (2, 1)}
    assert any(t.group.p == 3 and t.group.rank == 2 for t in tables)


def test_frobenius_inverse_refuses_nilpotents_as_the_solve_does():
    for table, a in _nilpotents():
        q = table.group.factor_orders[0]
        power = AlgebraElt.unit(a.group)
        for _ in range(q):
            power = power.mul(a, table)
        assert power.is_zero(), a
        assert not _check_frobenius_inverse(table, a)


def test_frobenius_inverse_runs_no_solve(monkeypatch):
    def refuse(*args):
        raise AssertionError("an inverse went through the dense solve")

    monkeypatch.setattr(muram.algebra, "solve_linear", refuse)
    rng = random.Random(53)
    for table in _product_tables():
        a = _random_element(rng, table.group)
        inv = algebra_inverse(a, table)
        assert a.mul(inv, table) == AlgebraElt.unit(table.group)
    for table, a in _nilpotents():
        with pytest.raises(NotInvertible):
            algebra_inverse(a, table)
