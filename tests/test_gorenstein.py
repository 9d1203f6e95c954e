import json
import random

import pytest

from muram.cli import main
from muram.covering import Cocycle, KummerData, support_places, twist
from muram.errors import SizeLimit, UnsupportedGroup
from muram.fppoly import Place, Poly, RatFun
from muram.gorenstein import (
    derive_sign,
    det_M_phi_bruteforce,
    det_M_phi_formula,
    diagonal_coefficients,
    gorenstein_at,
    sign_table,
)
from muram.pgroup import PGroup
from muram.randgen import (
    random_cyclic_cocycle,
    random_integral_twist,
    random_normal_cyclic_kummer,
    random_phi,
)

X2, X3 = Poly.x(2), Poly.x(3)
AT_X2, AT_X3 = Place.finite(X2), Place.finite(X3)


def test_trivial_witness_is_zero():
    g = PGroup(3, (1,))
    ok, witness = gorenstein_at(Cocycle.trivial(g), AT_X3)
    assert ok and witness.is_zero()


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)])
def test_untwisted_kummer_witness_is_top_index(p, n):
    q = p ** n
    c = KummerData(PGroup(p, (n,)), (Poly.x(p),)).to_cocycle()
    ok, witness = gorenstein_at(c, Place.finite(Poly.x(p)))
    assert ok and witness.rep() == (q - 1,)


def test_twisted_product_witness():
    g = PGroup(2, (1, 1))
    c = KummerData(g, (X2, X2)).to_cocycle()
    tw = twist(c, {g.elt((1, 0)): RatFun.from_poly(X2)})
    ok, witness = gorenstein_at(tw, AT_X2)
    assert ok and witness.rep() == (1, 0)


def test_pinned_non_gorenstein_model():
    # Z/4, f = x+1, twisted by (zeta^2, zeta^4, zeta^2) with zeta = x+1:
    # integral (but non-normal) model where every anti-diagonal carries a
    # non-unit at (x+1) -- the entry valuations are
    #   l=0: (1,3) has 1+2+2-0 = 5;   l=1: (2,3) has 1+4+2-2 = 5;
    #   l=2: (3,3) has 1+2+2-4 = 1;   l=3: (1,2) has 0+2+4-2 = 4.
    g = PGroup(2, (2,))
    zeta = Poly(2, [1, 1])
    base = KummerData(g, (zeta,)).to_cocycle()
    c = twist(
        base,
        {
            g.elt(1): RatFun.from_poly(zeta ** 2),
            g.elt(2): RatFun.from_poly(zeta ** 4),
            g.elt(3): RatFun.from_poly(zeta ** 2),
        },
    )
    place = Place.finite(zeta)
    ok, witness = gorenstein_at(c, place)
    assert not ok and witness is None


def test_det_2x2_expansion():
    g = PGroup(2, (1,))
    f = Poly(2, [1, 1])
    c = KummerData(g, (f,)).to_cocycle()
    phi0, phi1 = Poly(2, [1, 1, 1]), Poly(2, [0, 1])
    phi = {g.zero(): phi0, g.elt(1): phi1}
    expected = f * phi0 * phi0 + phi1 * phi1
    assert det_M_phi_bruteforce(c, phi) == expected
    assert det_M_phi_formula(c, phi) == expected


def test_det_trivial_cocycle_char2_is_power_of_sum():
    g = PGroup(2, (1,))
    c = Cocycle.trivial(g)
    phi0, phi1 = Poly(2, [1, 0, 1]), Poly(2, [1, 1])
    phi = {g.zero(): phi0, g.elt(1): phi1}
    total = phi0 + phi1
    assert det_M_phi_bruteforce(c, phi) == total * total


def test_det_indicator_is_diagonal_coefficient():
    g = PGroup(3, (1,))
    c = KummerData(g, (X3,)).to_cocycle()
    eps = derive_sign(3, 1)
    coeffs = diagonal_coefficients(c)
    for l in g.elements():
        det = det_M_phi_bruteforce(c, {l: Poly.one(3)})
        expected = coeffs[l] if eps == 1 else -coeffs[l]
        assert det == expected


def test_signs():
    assert derive_sign(2, 1) == 1
    assert derive_sign(2, 2) == 1
    assert derive_sign(2, 3) == 1
    assert derive_sign(3, 1) == -1
    assert derive_sign(5, 1) == 1
    assert derive_sign(7, 1) == -1
    assert derive_sign(3, 2) == 1
    # odd-p closed form (-1)^((q-1)/2)
    for (p, n), s in sign_table().items():
        if p != 2:
            q = p ** n
            assert s == (-1) ** ((q - 1) // 2)


@pytest.mark.parametrize("p,n", sorted(sign_table()))
def test_sign_agrees_with_elimination(p, n):
    # the sign is det M(e_0^*) on the all-ones table, and with it the closed
    # form equals the elimination on a table with non-unit entries
    group = PGroup(p, (n,))
    one = Poly.one(p)
    det = det_M_phi_bruteforce(Cocycle.trivial(group), {group.zero(): one})
    assert det == (one if derive_sign(p, n) == 1 else -one)
    sample = KummerData(group, (Poly.x(p) + one,)).to_cocycle()
    phi = {m: Poly(p, [1, (1 + m.residues[0]) % p]) for m in group.elements()}
    assert det_M_phi_bruteforce(sample, phi) == det_M_phi_formula(sample, phi)


def test_sign_table_runs_no_elimination(monkeypatch):
    from muram import gorenstein

    def refuse(rows, p):
        raise AssertionError("sign derivation ran an elimination")

    monkeypatch.setattr(gorenstein, "_det_bareiss", refuse)
    assert sign_table() == {
        (2, 1): 1, (2, 2): 1, (2, 3): 1, (2, 4): 1, (3, 1): -1, (3, 2): 1,
        (5, 1): 1, (7, 1): -1, (11, 1): -1, (13, 1): 1,
    }


def test_derive_sign_size_guard():
    with pytest.raises(SizeLimit):
        derive_sign(17, 1)


def test_formula_needs_cyclic():
    g = PGroup(2, (1, 1))
    c = KummerData(g, (X2, X2)).to_cocycle()
    with pytest.raises(UnsupportedGroup):
        det_M_phi_formula(c, {m: Poly.one(2) for m in g.elements()})


def test_bruteforce_size_guard():
    g = PGroup(2, (5,))
    c = Cocycle.trivial(g)
    with pytest.raises(SizeLimit):
        det_M_phi_bruteforce(c, {m: Poly.one(2) for m in g.elements()})


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)])
def test_brute_equals_formula_random(p, n):
    rng = random.Random(31 * p + n)
    for _ in range(5):
        c = random_cyclic_cocycle(rng, p, n)
        phi = random_phi(rng, c.group)
        assert det_M_phi_bruteforce(c, phi) == det_M_phi_formula(c, phi)


@pytest.mark.parametrize("p,n", [(2, 2), (3, 1), (3, 2)])
def test_diagonal_coefficient_degrees_untwisted(p, n):
    # c_l = f^{q-1-s(l)} for untwisted data: carries count pairs i+j = l
    q = p ** n
    f = Poly(p, [1, 2 % p, 1])
    c = KummerData(PGroup(p, (n,)), (f,)).to_cocycle()
    for l, c_l in diagonal_coefficients(c).items():
        assert c_l.degree() == f.degree() * (q - 1 - l.rep()[0])


def test_gorenstein_iff_witness_det_unit():
    from muram.fppoly import valuation

    g = PGroup(3, (1,))
    c = KummerData(g, (X3,)).to_cocycle()
    ok, witness = gorenstein_at(c, AT_X3)
    assert ok
    det = det_M_phi_bruteforce(c, {witness: Poly.one(3)})
    assert valuation(det, AT_X3) == 0


# covering files `muram gorenstein --include-infinity` rejects, with the
# exact report it prints for each
CLI_REJECTIONS = [
    (
        {"group": {"p": 2, "exponents": [2]}, "kind": "kummer", "f": [[1, 1]],
         "twist": [{"elt": [1], "num": [1], "den": [0, 1]}]},
        {"rejected": "NonIntegralCocycle", "detail": "entry (1,1) = (1)/(x^2) is not a polynomial"},
    ),
    (
        {"group": {"p": 2, "exponents": [1]}, "kind": "kummer", "f": [[0, 0, 0, 1]],
         "infinity_degrees": [0, 1]},
        {"rejected": "NonIntegralCocycle",
         "detail": "entry (1,1) needs u-exponent -1; increase the chart degrees"},
    ),
]


@pytest.mark.parametrize("obj,report", CLI_REJECTIONS, ids=["twist-pole", "degrees"])
def test_gorenstein_cli_chart_rejections(tmp_path, capsys, obj, report):
    path = tmp_path / "cov.json"
    path.write_text(json.dumps(obj))
    assert main(["gorenstein", "--input", str(path), "--include-infinity"]) == 2
    assert json.loads(capsys.readouterr().out) == dict(report, schema_version=1)


def test_gorenstein_at_lazy_equals_dense():
    # Kummer data answers from valuations; the dense table from its entries
    g = PGroup(2, (2,))
    zeta = Poly(2, [1, 1])
    kd = KummerData(g, (zeta,), {g.elt(1): RatFun.from_poly(zeta ** 2),
                                 g.elt(2): RatFun.from_poly(zeta ** 4),
                                 g.elt(3): RatFun.from_poly(zeta ** 2)})
    for place in (Place.finite(zeta), AT_X2, Place.infinity(2)):
        assert gorenstein_at(kd, place) == gorenstein_at(kd.to_cocycle(), place)
    # seeded twisted models of the five shapes `muram gorenstein --search` draws
    rng = random.Random(5)
    for p, exps in [(2, (1, 1)), (3, (1, 1)), (2, (2,)), (3, (2,)), (2, (2, 1))]:
        group = PGroup(p, exps)
        for _ in range(2):
            factors = tuple(
                random_normal_cyclic_kummer(rng, p, n, max_deg=3).factors[0] for n in exps
            )
            kd = KummerData(group, factors, random_integral_twist(rng, group))
            dense = kd.to_cocycle()
            places = support_places(dense)
            assert support_places(kd) == places
            for place in places + [Place.finite(Poly.x(p)), Place.infinity(p)]:
                assert gorenstein_at(kd, place) == gorenstein_at(dense, place)
