import json
import random

import pytest

from muram.algebra import AlgebraElt, solve_linear
from muram.cli import main
from muram.covering import Cocycle, KummerData, canonical_infinity_degrees
from muram.divisors import Divisor
from muram.errors import HypothesisFailure, UnsupportedDecomposition
from muram.fppoly import Place, Poly, RatFun
from muram.pgroup import PGroup
from muram.randgen import random_integral_twist, random_normal_cyclic_kummer
from muram.rh_genus import (
    GlobalModel,
    check_chart_consistency,
    predict_genus,
    total_ram_degree,
)
from muram.serialize import covering_to_obj

X2, X3 = Poly.x(2), Poly.x(3)


def cyclic(p, n, f):
    return KummerData(PGroup(p, (n,)), (f,))


def test_total_ram_degree_examples():
    deg, div, _ = total_ram_degree(GlobalModel(cyclic(2, 1, X2), {PGroup(2, (1,)).elt(1): 1}))
    assert deg == 2
    assert div == Divisor({Place.finite(X2): 1, Place.infinity(2): 1})
    deg, _, _ = total_ram_degree(GlobalModel(cyclic(2, 2, X2)))
    assert deg == 6


def test_total_ram_degree_constant_equation_is_zero():
    deg, div, _ = total_ram_degree(GlobalModel(cyclic(2, 1, Poly.one(2))))
    assert deg == 0 and div.is_zero()


def as_form(kd, form):
    """Kummer data as it is, or its raw table."""
    return kd if form == "kummer" else kd.to_cocycle()


@pytest.mark.parametrize("form", ["kummer", "raw"])
def test_constant_unit_equation_is_rejected(form):
    # z^p = c has c a p-th power over the prime field: not integral; the raw
    # forms are the all-ones Z/2 and Z/4 tables
    for n in (1, 2):
        with pytest.raises(HypothesisFailure) as err:
            predict_genus(GlobalModel(as_form(cyclic(2, n, Poly.one(2)), form)))
        assert err.value.failures[0][0] == "integrality"


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)])
def test_frobenius_family(p, n):
    q = p ** n
    rep = predict_genus(GlobalModel(cyclic(p, n, Poly.x(p))))
    assert rep.deg_R == 2 * (q - 1)
    assert rep.g_Y == 0
    assert not rep.non_integer
    assert rep.rhs == 2 * rep.g_Y - 2


def test_mu3_degree_four():
    rep = predict_genus(GlobalModel(cyclic(3, 1, X3)))
    assert rep.deg_R == 4 and rep.g_Y == 0


def test_cuspidal_infinity_chart_rejected():
    # affine f = x^4 + x with the canonical chart degree d(1) = 2
    kd = cyclic(2, 1, Poly(2, [0, 1, 0, 0, 1]))
    with pytest.raises(HypothesisFailure) as err:
        predict_genus(GlobalModel(kd))
    assert err.value.failures[0][0] == "NonNormalModel"


@pytest.mark.parametrize("form", ["kummer", "raw"])
def test_pth_power_rejected(form):
    with pytest.raises(HypothesisFailure) as err:
        predict_genus(GlobalModel(as_form(cyclic(2, 1, X2 * X2), form)))
    assert err.value.failures[0][0] == "integrality"


# A grading of rank >= 2 is never normal: K = F_p(x) has [K : K^p] = p, so
# the generic fibre has nilpotents.  The witness below is the reference
# for that refusal: y_k = e_{(q_k/p) eps_k} has y_k^p = a_k in K, and
# writing g = sum_{r<p} x^r G_r(g)^p, either a_1 is a p-th power G_0(a_1)^p
# and w = y_1 - G_0(a_1), or 1, a_1, ..., a_1^{p-1} is a K^p-basis of K,
# a_2 = sum_i c_i^p a_1^i and w = y_2 - sum_i c_i y_1^i.  Either way w != 0
# and w^p = 0.

def p_coordinates(g: RatFun) -> list:
    """G_0(g), ..., G_{p-1}(g), from g = N D^{p-1} / D^p."""
    p = g.p
    top = (g.num * g.den ** (p - 1)).coeffs
    return [RatFun(Poly(p, top[r::p]), g.den) for r in range(p)]


def algebra_power(a: AlgebraElt, e: int, table) -> AlgebraElt:
    out = AlgebraElt.unit(a.group)
    for _ in range(e):
        out = out.mul(a, table)
    return out


def nilpotent_witness(table) -> AlgebraElt:
    group = table.group
    p, zero = group.p, group.zero()
    y = [AlgebraElt.basis(group, group.elt([q // p if i == k else 0
                                             for i, q in enumerate(group.factor_orders)]))
         for k in (0, 1)]
    a = []
    for y_k in y:
        y_k_p = algebra_power(y_k, p, table)
        assert set(y_k_p.comps) == {zero}
        a.append(y_k_p.comps[zero])
    g_a1 = p_coordinates(a[0])
    if all(g.is_zero() for g in g_a1[1:]):  # a_1 = G_0(a_1)^p
        return y[0] - AlgebraElt.unit(group).scale(g_a1[0])
    a1_powers = [RatFun.one(p)]
    for _ in range(p - 1):
        a1_powers.append(a1_powers[-1] * a[0])
    columns = [p_coordinates(a1_i) for a1_i in a1_powers]
    c = solve_linear([[col[r] for col in columns] for r in range(p)], p_coordinates(a[1]))
    assert c is not None
    w = y[1]
    for i, c_i in enumerate(c):
        w = w - algebra_power(y[0], i, table).scale(c_i)
    return w


RANK_TWO_SHAPES = [(2, (1, 1)), (3, (1, 1)), (5, (1, 1)), (2, (2, 1)), (3, (2, 1)),
                   (2, (1, 1, 1))]


def rank_two_models():
    """Seeded models of every shape, untwisted, twisted and as raw tables,
    then the pinned inputs; the last has a_1 = x^2 a square."""
    rng = random.Random(8)
    for p, exps in RANK_TWO_SHAPES:
        group = PGroup(p, exps)
        factors = tuple(random_normal_cyclic_kummer(rng, p, n, max_deg=3).factors[0] for n in exps)
        twisted = KummerData(group, factors, random_integral_twist(rng, group))
        yield from (KummerData(group, factors), twisted, twisted.to_cocycle())
    x2, x3 = Poly.x(2), Poly.x(3)
    yield KummerData(PGroup(3, (1, 1)), ((x3 + Poly.one(3)) ** 2, x3 ** 2))
    yield KummerData(PGroup(2, (1, 1)), (x2 ** 2 + x2, x2 ** 2 + x2 + Poly.one(2)))
    yield KummerData(PGroup(2, (1, 1)), (x2 ** 2, x2 + Poly.one(2)))


def test_rank_two_gradings_are_never_normal(tmp_path, capsys):
    for i, cov in enumerate(rank_two_models()):
        group = cov.group
        with pytest.raises(HypothesisFailure) as err:
            predict_genus(GlobalModel(cov))
        (detail,) = [d for check, d in err.value.failures if check == "normality"]
        assert f"{group} grading" in detail and f"|G| = {group.order}" in detail
        assert f"degree {max(group.factor_orders)}:" in detail
        w = nilpotent_witness(cov)
        assert not w.is_zero()
        assert algebra_power(w, group.p, cov).is_zero(), f"{group} model {i}"
        path = tmp_path / f"cov{i}.json"
        path.write_text(json.dumps(covering_to_obj(cov)))
        assert main(["genus", "--input", str(path)]) == 2
        assert "normality: " in json.loads(capsys.readouterr().out)["detail"]


def test_chart_consistency_checked():
    gm = GlobalModel(cyclic(3, 2, X3 * X3 * Poly(3, [1, 1])))
    check_chart_consistency(gm)


def test_infinity_chart_degrees_are_given_else_canonical():
    kd = cyclic(3, 2, X3 * X3 * Poly(3, [1, 1]))
    degrees = {m: 2 * d for m, d in canonical_infinity_degrees(kd).items()}
    for cov in (kd, kd.to_cocycle()):
        assert GlobalModel(cov).infinity_chart()._d == canonical_infinity_degrees(kd)
        assert GlobalModel(cov, degrees).infinity_chart()._d == degrees
    # a raw cyclic table that does not decompose gets its chart at given degrees
    g = PGroup(3, (1,))
    one, two = g.elt(1), g.elt(2)
    odd = Cocycle.from_entries(g, {(one, one): X3, (one, two): Poly.one(3), (two, two): X3})
    assert GlobalModel(odd, {one: 1, two: 1}).infinity_chart().u_exponent(one, two) == 2
    with pytest.raises(UnsupportedDecomposition):
        GlobalModel(odd).infinity_chart()
    product = KummerData(PGroup(2, (1, 1)), (X2, Poly(2, [1, 1]))).to_cocycle()
    with pytest.raises(ValueError) as raised:
        GlobalModel(product).infinity_chart()
    assert str(raised.value) == "non-cyclic raw tables need explicit chart degrees at infinity"


# (model, detail of its one "charts" failure); `muram genus` prints the
# detail in its rejection report
Z4 = PGroup(2, (2,))
CHART_REJECTIONS = {
    "non-integral twist": (
        GlobalModel(KummerData(Z4, (X2 + Poly.one(2),), {Z4.elt(1): RatFun(Poly.one(2), X2)})),
        "entry (1,1) = (1)/(x^2) is not a polynomial",
    ),
    "zero twist": (
        GlobalModel(KummerData(Z4, (X2,), {Z4.elt(2): RatFun.zero(2)})),
        "twist is zero at 2",
    ),
    "chart degrees too small": (
        GlobalModel(cyclic(2, 1, X2 ** 3), {PGroup(2, (1,)).elt(1): 1}),
        "entry (1,1) needs u-exponent -1; increase the chart degrees",
    ),
    "missing chart degree": (
        GlobalModel(cyclic(2, 2, X2), {Z4.elt(1): 1, Z4.elt(2): 1}),
        "no chart degree given for 3",
    ),
}


@pytest.mark.parametrize("case", sorted(CHART_REJECTIONS))
def test_chart_rejections_keep_their_detail(case):
    gm, detail = CHART_REJECTIONS[case]
    with pytest.raises(HypothesisFailure) as err:
        predict_genus(gm)
    assert err.value.failures == [("charts", detail)]


def test_genus_report_per_place_table():
    rep = predict_genus(GlobalModel(cyclic(2, 2, X2)))
    assert len(rep.per_place) == 2
    for row in rep.per_place:
        assert row["gorenstein"] and row["normality"] == "verified"
        assert row["multiplicity"] == 3 and row["totally_ramified"]
    assert rep.notes


def test_accepted_models_have_rational_total_space():
    # every accepted cyclic model must come out at deg_R = 2(q-1), g = 0:
    # the function field embeds in the rational field of the q-th root chart
    rng = random.Random(23)
    for p, n in [(2, 1), (3, 1), (2, 2)]:
        q = p ** n
        for _ in range(8):
            kd = random_normal_cyclic_kummer(rng, p, n)
            rep = predict_genus(GlobalModel(kd))
            assert rep.deg_R == 2 * (q - 1), str(kd.factors[0])
            assert rep.g_Y == 0
