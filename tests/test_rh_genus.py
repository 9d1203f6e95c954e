import random

import pytest

from muram.covering import KummerData
from muram.divisors import Divisor
from muram.errors import HypothesisFailure
from muram.fppoly import Place, Poly, RatFun
from muram.pgroup import PGroup
from muram.randgen import random_normal_cyclic_kummer
from muram.rh_genus import (
    GlobalModel,
    check_chart_consistency,
    predict_genus,
    total_ram_degree,
)

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


def test_product_needs_assume_normal():
    kd = KummerData(PGroup(2, (1, 1)), (X2, Poly(2, [1, 1])))
    with pytest.raises(HypothesisFailure) as err:
        predict_genus(GlobalModel(kd, infinity_degrees={m: 1 for m in kd.group.elements() if not m.is_zero()}))
    assert err.value.failures[0][0] == "normality"
    rep = predict_genus(
        GlobalModel(kd, infinity_degrees={m: 1 for m in kd.group.elements() if not m.is_zero()}),
        assume_normal=True,
    )
    assert all(row["normality"] == "assumed" for row in rep.per_place)


def test_chart_consistency_checked():
    gm = GlobalModel(cyclic(3, 2, X3 * X3 * Poly(3, [1, 1])))
    check_chart_consistency(gm)


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


def test_g_X_passed_through():
    rep = predict_genus(GlobalModel(cyclic(2, 1, X2), g_X=1))
    # 2g-2 = 2*(2*1-2) + 2 = 2, so g = 2
    assert rep.g_Y == 2


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
