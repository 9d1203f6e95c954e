"""Entry valuations and Gorenstein verdicts read off one potential per place.

KummerData answers v(alpha(m, n)) = (P_v(m) + P_v(n) - P_v(m+n)) / |G|,
and the chart at infinity over it answers u-exponents from
Q(m) = |G| d(m) + P_inf(m).  The references below are the earlier forms
of the same answers: the carry sigma of every pair with the valuations
of the chart equations and of the twist, and stored_scan, which looks
for the first all-unit anti-diagonal over every valuation of a table.
The library must agree with them exactly, down to the exception class
and message of a negative u-exponent, and gorenstein_at must give
stored_scan's verdict and witness whether the table is integral or not,
though it reads only the anti-diagonals a potential leaves open.
"""

import functools
import json
import random
import sys

import pytest

from muram import covering, gorenstein, pgroup
from muram.cli import main
from muram.covering import (
    Cocycle,
    InfinityChart,
    KummerData,
    canonical_infinity_degrees,
    forward_decompose,
    support_places,
    torsor_at,
    twist,
    validate,
)
from muram.errors import (
    HypothesisFailure,
    ModelRejection,
    NonIntegralCocycle,
    UnsupportedDecomposition,
    ZeroEntry,
)
from muram.fppoly import Place, Poly, RatFun, factor, is_irreducible, valuation
from muram.gorenstein import gorenstein_at
from muram.pgroup import PGroup, sigma
from muram.randgen import (
    _distance_exponents,
    random_column,
    random_integral_twist,
    random_irreducible,
    random_nonzero_poly,
    random_normal_cyclic_kummer,
)
from muram.ramification import ramification_divisor
from muram.rh_genus import GlobalModel, gorenstein_places, predict_genus
from muram.serialize import covering_to_obj

SHAPES = [(2, (1,)), (2, (2,)), (3, (1,)), (3, (2,)), (5, (1,)),
          (2, (1, 1)), (2, (2, 1)), (3, (1, 1))]


# references: the sigma-based valuations ---------------------------------------

def entries_of(c):
    """Every entry of a table, read through entry(): a table of untwisted
    Kummer data forms them on first use."""
    elements = list(c.group.elements())
    return {(m, n): c.entry(m, n) for m in elements for n in elements}


def reference_entry_valuation(kd, m, n, v):
    """sum_i sigma_i(m,n) v(f_i) + v(b(m)) + v(b(n)) - v(b(m+n))."""
    out = sum(valuation(f, v) for f, s in zip(kd.factors, sigma(m, n)) if s)
    if kd.twist:
        vb = {g: valuation(kd.twist_at(g), v) for g in (m, n, m + n)}
        out += vb[m] + vb[n] - vb[m + n]
    return out


def reference_u_exponent(kd, degrees, m, n):
    """d(m) + d(n) - d(m+n) + v_inf(alpha(m, n)), refused when negative."""
    d = {g: (0 if g.is_zero() else degrees[g]) for g in kd.group.elements()}
    exponent = d[m] + d[n] - d[m + n] + reference_entry_valuation(
        kd, m, n, Place.infinity(kd.group.p))
    if exponent < 0:
        raise NonIntegralCocycle(
            f"entry ({m},{n}) needs u-exponent {exponent}; increase the chart degrees"
        )
    return exponent


def outcome(fn, *args):
    try:
        return fn(*args)
    except ModelRejection as exc:
        return type(exc), str(exc)


# seeded models ----------------------------------------------------------------

def chart_equations(rng, p, exps):
    return tuple(random_normal_cyclic_kummer(rng, p, n, max_deg=3).factors[0] for n in exps)


def rational_twist(rng, group):
    """b(m) = num/den with random nonzero num and den: not integral in general."""
    p = group.p
    return {m: RatFun(random_nonzero_poly(rng, p, 2), random_nonzero_poly(rng, p, 2))
            for m in group.elements() if not m.is_zero()}


def seeded_tables(seed, count):
    """(kd, finite places): untwisted, integrally twisted and rationally
    twisted Kummer data over every shape; the places are the support of
    the chart equations and of the twist, and one place off it."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        p, exps = SHAPES[k % len(SHAPES)]
        group = PGroup(p, exps)
        factors = chart_equations(rng, p, exps)
        twist = [None, random_integral_twist(rng, group), rational_twist(rng, group)][k % 3]
        kd = KummerData(group, factors, twist)
        polys = list(factors)
        for b in (twist or {}).values():
            polys += [b.num, b.den]
        places = sorted({Place.finite(irr) for f in polys if f.degree() > 0 for irr in factor(f)},
                        key=Place.sort_key)
        off = next(Place.finite(pi) for pi in (random_irreducible(rng, p, 1 + i % 3)
                                               for i in range(50))
                   if all(valuation(f, Place.finite(pi)) == 0 for f in polys))
        out.append((kd, places + [off]))
    return out


def explicit_degrees(rng, group):
    return {m: rng.randrange(-1, 4) for m in group.elements() if not m.is_zero()}


# valuations -------------------------------------------------------------------

def test_entry_valuation_equals_sigma_reference():
    tables = 0
    for kd, places in seeded_tables(1, 90):
        elements = list(kd.group.elements())
        for v in places + [Place.infinity(kd.group.p)]:
            tables += 1
            for m in elements:
                for n in elements:
                    assert kd.entry_valuation(m, n, v) == \
                        reference_entry_valuation(kd, m, n, v), (kd, m, n, v)
    assert tables >= 300


def test_u_exponent_equals_sigma_reference_under_both_degrees():
    rng = random.Random(2)
    refused = accepted = 0
    for kd, _ in seeded_tables(3, 60):
        pairs = [(m, n) for m in kd.group.elements() for n in kd.group.elements()]
        for degrees in (canonical_infinity_degrees(kd), explicit_degrees(rng, kd.group)):
            chart = InfinityChart(kd, degrees)
            expected = [outcome(reference_u_exponent, kd, degrees, m, n) for m, n in pairs]
            assert [outcome(chart.u_exponent, m, n) for m, n in pairs] == expected
            for (m, n), e in zip(pairs, expected):
                if isinstance(e, int):
                    assert chart.entry_valuation(m, n, chart.u_place) == e
            # the full check refuses at the same first pair with the same text
            refusals = [e for e in expected if isinstance(e, tuple)]
            assert outcome(chart.check_integral) == (refusals[0] if refusals else None)
            refused += len(refusals)
            accepted += len(expected) - len(refusals)
    assert refused >= 100 and accepted >= 1000


def test_potentials_follow_the_known_kummer_form():
    kd = next(kd for kd, _ in seeded_tables(4, 8) if kd.group.is_cyclic and kd.twist)
    group, v = kd.group, Place.infinity(kd.group.p)
    assert kd.potential(v)[group.zero()] == 0
    # the dense table of Kummer data keeps that data's potential
    built = kd.to_cocycle()
    assert built.potential(v) is kd.potential(v)
    # a raw table has none until its decomposition is decided, then its
    # column form's, which equals the data's: the valuations fix it
    raw = Cocycle(group, entries_of(built))
    assert raw.potential(v) is None
    assert validate(raw).ok and raw.potential(v) == kd.potential(v)
    chart = InfinityChart(kd, canonical_infinity_degrees(kd))
    assert chart.potential(chart.u_place) is not None
    # the chart's places are places of u: u = -1 has no potential
    assert chart.potential(Place.finite(Poly(kd.group.p, [1, 1]))) is None
    fresh = Cocycle(group, entries_of(built))
    for table, expected in ((built, True), (raw, True), (fresh, False)):
        over = InfinityChart(table, canonical_infinity_degrees(kd))
        assert (over.potential(over.u_place) is not None) is expected


def test_refused_and_product_tables_have_no_potential():
    rng = random.Random(7)
    z8 = PGroup(2, (3,))
    valid = twist(KummerData(z8, (Poly.x(2) + Poly.one(2),)).to_cocycle(),
                  random_integral_twist(rng, z8))
    entries = entries_of(valid)
    m = z8.elt(3)
    entries[(m, m)] = entries[(m, m)] * Poly.x(2)
    refused = Cocycle(z8, entries)
    assert not validate(refused).ok
    with pytest.raises(UnsupportedDecomposition):
        forward_decompose(refused)
    z2z2 = PGroup(2, (1, 1))
    data = KummerData(z2z2, (Poly.x(2), Poly(2, [1, 1, 1])), random_integral_twist(rng, z2z2))
    product = Cocycle(z2z2, entries_of(data.to_cocycle()))
    assert validate(product).ok
    for table in (refused, product):
        for v in (Place.infinity(2), Place.finite(Poly.x(2))):
            assert table.potential(v) is None
    assert data.to_cocycle().potential(Place.infinity(2)) is data.potential(Place.infinity(2))


# Gorenstein verdicts ----------------------------------------------------------

def integral_models(seed, count):
    """(GlobalModel, places) of integrally twisted Kummer data with chart
    degrees canonical(m) + s * distance(m), where s is the least value at
    which the chart at infinity is integral, or one more."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        p, exps = SHAPES[k % len(SHAPES)]
        group = PGroup(p, exps)
        kd = KummerData(group, chart_equations(rng, p, exps), random_integral_twist(rng, group))
        kd.check_integral()
        canon, dist = canonical_infinity_degrees(kd), _distance_exponents(group)

        def degrees(s):
            return {m: canon[m] + s * dist[m] for m in group.elements() if not m.is_zero()}

        s = next(s for s in range(8)
                 if not isinstance(outcome(InfinityChart(kd, degrees(s)).check_integral), tuple))
        gm = GlobalModel(kd, degrees(s + rng.randrange(2)))
        gm.infinity_chart().check_integral()
        off = Place.finite(Poly(p, [rng.randrange(1, p) if p > 2 else 1, 1]))
        places = support_places(kd)
        if off not in places:
            places.append(off)
        out.append((gm, places + [Place.infinity(p)]))
    return out


def test_gorenstein_places_equal_the_scan():
    places = non_gorenstein = at_infinity = 0
    for gm, vs in integral_models(5, 400):
        kd, degrees = gm.covering, gm.infinity_degrees
        expected = [stored_scan(kd, v, lambda m, n: reference_u_exponent(kd, degrees, m, n))
                    if v.is_infinity else
                    stored_scan(kd, v, lambda m, n: reference_entry_valuation(kd, m, n, v))
                    for v in vs]
        assert list(gorenstein_places(gm, vs)) == expected, (gm, vs)
        places += len(vs)
        non_gorenstein += sum(not ok for ok, _ in expected)
        at_infinity += not expected[-1][0]
    assert places >= 1000 and non_gorenstein >= 100 and at_infinity >= 30


# what predict_genus and `muram gorenstein` call -------------------------------

def patch_everywhere(monkeypatch, module, name, replacement):
    """Replace module.name wherever a muram module refers to it; -> the original."""
    original = getattr(module, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "muram":
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, replacement)
    return original


def count_calls(monkeypatch, module, name):
    """Count calls of module.name, wherever a muram module refers to it."""
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    original = patch_everywhere(monkeypatch, module, name, counting)
    return calls


class ReadCounter:
    """A table that counts the entry valuations read through it."""

    def __init__(self, table):
        self.table, self.reads = table, 0

    def __getattr__(self, name):
        return getattr(self.table, name)

    def entry_valuation(self, m, n, v):
        self.reads += 1
        return self.table.entry_valuation(m, n, v)


def count_verdicts(monkeypatch):
    """(table, place, verdict, anti-diagonal terms read) of every
    gorenstein_at call, wherever a muram module refers to it."""
    verdicts = []

    def counting(c, v):
        reader = ReadCounter(c)
        out = original(reader, v)
        verdicts.append((c, v, out, reader.reads))
        return out

    original = patch_everywhere(monkeypatch, gorenstein, "gorenstein_at", counting)
    return verdicts


@pytest.fixture
def counters(monkeypatch):
    return {
        "verdicts": count_verdicts(monkeypatch),
        "sigma": count_calls(monkeypatch, pgroup, "sigma"),
    }


def scan_reads(table, v):
    """Terms stored_scan reads at v before it decides."""
    reads = []

    def val(m, n):
        reads.append((m, n))
        return valuation(table.entry(m, n), v)

    stored_scan(table, v, val)
    return len(reads)


def assert_filtered(verdicts):
    """Each verdict read a potential, and at most |G| terms: on an
    integral table every anti-diagonal the sum rule leaves is all units,
    so exactly |G| when Gorenstein and none otherwise."""
    for table, v, (ok, _), reads in verdicts:
        assert table.potential(v) is not None
        assert reads == (table.group.order if ok else 0), (table, v)


def assert_scanned(verdicts):
    """Each verdict had no potential and read what the full scan reads."""
    for table, v, _, reads in verdicts:
        assert table.potential(v) is None
        assert reads == scan_reads(table, v), (table, v)


def run_gorenstein_cli(tmp_path, capsys, cov):
    path = tmp_path / "cov.json"
    path.write_text(json.dumps(covering_to_obj(cov)))
    code = main(["gorenstein", "--input", str(path), "--include-infinity"])
    return code, json.loads(capsys.readouterr().out)


def kummer_inputs():
    rng = random.Random(6)
    out = [KummerData(PGroup(p, (n,)), (Poly.x(p),)) for p, n in [(2, 4), (3, 2), (5, 1)]]
    return out + [random_normal_cyclic_kummer(rng, p, n) for p, n in [(2, 2), (2, 3), (3, 2)]]


def test_kummer_verdicts_use_neither_the_scan_nor_sigma(counters, tmp_path, capsys):
    verdicts = 0
    for kd in kummer_inputs():
        rep = predict_genus(GlobalModel(kd))
        assert all(row["gorenstein"] for row in rep.per_place)
        code, out = run_gorenstein_cli(tmp_path, capsys, kd)
        assert code == 0 and len(out["places"]) == len(rep.per_place)
        verdicts += 2 * len(rep.per_place)
    assert len(counters["verdicts"]) == verdicts and counters["sigma"] == []
    assert_filtered(counters["verdicts"])


def test_raw_tables_are_scanned_until_decided(counters, tmp_path, capsys):
    for kd in kummer_inputs()[:3]:
        built = kd.to_cocycle()
        rep = predict_genus(GlobalModel(built))
        code, out = run_gorenstein_cli(tmp_path, capsys, built)
        assert code == 0 and out["non_gorenstein_places"] == []
        # the file is read back as a raw table, which ramification decides
        assert len(counters["verdicts"]) == 2 * len(rep.per_place)
        assert_filtered(counters["verdicts"])
        counters["verdicts"].clear()
        # given chart degrees, nothing decides this copy, so every place is scanned
        raw = Cocycle(kd.group, entries_of(built))
        places = [row["place"] for row in rep.per_place]
        gm = GlobalModel(raw, canonical_infinity_degrees(kd))
        assert list(gorenstein_places(gm, places)) == \
            [(row["gorenstein"], row["witness"]) for row in rep.per_place]
        assert raw.potential(places[0]) is None
        assert len(counters["verdicts"]) == len(places)
        assert_scanned(counters["verdicts"])
        counters["verdicts"].clear()


def test_raw_product_tables_are_always_scanned(counters):
    rng = random.Random(9)
    for p, exps in [(2, (1, 1)), (2, (2, 1)), (3, (1, 1))]:
        group = PGroup(p, exps)
        kd = KummerData(group, chart_equations(rng, p, exps))  # canonical degrees are integral
        raw = Cocycle(group, entries_of(kd.to_cocycle()))
        assert validate(raw).ok
        gm = GlobalModel(raw, canonical_infinity_degrees(kd))
        places = support_places(raw) + [Place.infinity(p)]
        list(gorenstein_places(gm, places))
        assert len(counters["verdicts"]) == len(places)
        assert_scanned(counters["verdicts"])
        counters["verdicts"].clear()


def test_non_integral_twist_is_refused_before_any_verdict(counters, tmp_path, capsys):
    z4 = PGroup(2, (2,))
    x = Poly.x(2)
    for b in (RatFun(Poly.one(2), x), RatFun(Poly.one(2), x + Poly.one(2))):
        kd = KummerData(z4, (x + Poly.one(2),), {z4.elt(1): b})
        with pytest.raises(NonIntegralCocycle) as dense:
            kd.to_cocycle()
        with pytest.raises(HypothesisFailure) as err:
            predict_genus(GlobalModel(kd))
        assert err.value.failures == [("charts", str(dense.value))]
        code, out = run_gorenstein_cli(tmp_path, capsys, kd)
        assert (code, out["rejected"], out["detail"]) == (2, "NonIntegralCocycle", str(dense.value))
    z2 = PGroup(2, (1,))
    with pytest.raises(HypothesisFailure) as err:
        predict_genus(GlobalModel(KummerData(z2, (x ** 3,)), {z2.elt(1): 1}))
    assert err.value.failures == [
        ("charts", "entry (1,1) needs u-exponent -1; increase the chart degrees")]
    assert counters["verdicts"] == []


def test_gorenstein_at_equals_the_scan_off_integrality():
    """On untwisted, integrally and rationally twisted data, at the
    support, one place off it and infinity, gorenstein_at gives the scan
    of the sigma valuations; the bare sum rule, which takes the first l
    with |G| P(l) = 2 sum P, does not where a non-integral anti-diagonal
    adds up to 0."""
    places = differ = 0
    for kd, finite in seeded_tables(12, 600):
        elements = list(kd.group.elements())
        for v in finite + [Place.infinity(kd.group.p)]:
            val = {(m, n): reference_entry_valuation(kd, m, n, v)
                   for m in elements for n in elements}
            expected = stored_scan(kd, v, lambda m, n: val[m, n])
            assert gorenstein_at(kd, v) == expected, (kd, v)
            pot = kd.potential(v)
            twice = 2 * sum(pot.values())
            for l in elements:  # the identity the filter rests on
                assert kd.group.order * sum(val[i, l - i] for i in elements) == \
                    twice - kd.group.order * pot[l]
            sum_rule = next(((True, l) for l in elements
                             if kd.group.order * pot[l] == twice), (False, None))
            places += 1
            differ += sum_rule != expected
    assert places >= 2000 and differ >= 80


# twisted raw cyclic tables: the decided form's potential against the entries --

RAW_SHAPES = [(2, 1), (2, 2), (3, 1), (5, 1), (2, 3), (3, 2), (2, 1), (2, 2), (3, 1), (5, 1),
              (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)]


@functools.cache
def twisted_raw_tables():
    """210 (raw table, its undecided copy, places): a chart equation
    twisted by a seeded integral twist, read as a raw table and decided by
    validate; the places are those of every column entry, one place off
    them and infinity.  The tests below leave the copies undecided."""
    rng = random.Random(10)
    out = []
    for k in range(210):
        p, n = RAW_SHAPES[k % len(RAW_SHAPES)]
        group = PGroup(p, (n,))
        kd = KummerData(group, chart_equations(rng, p, (n,)))
        table = twist(kd.to_cocycle(), random_integral_twist(rng, group))
        assert table.potential(Place.infinity(p)) is None and validate(table).ok
        one = group.elt(1)
        column = [table.entry(m, one) for m in group.elements()]
        places = sorted({Place.finite(irr) for a in column if a.degree() > 0
                         for irr in factor(a)}, key=Place.sort_key)
        off = next(Place.finite(pi) for pi in (random_irreducible(rng, p, 1 + i % 3)
                                               for i in range(50))
                   if all(valuation(a, Place.finite(pi)) == 0 for a in column))
        out.append((table, Cocycle(group, entries_of(table)),
                    places + [off, Place.infinity(p)]))
    return tuple(out)


def stored_scan(table, v, val=None):
    """gorenstein_at over valuations of the stored entries."""
    val = val or (lambda m, n: valuation(table.entry(m, n), v))
    elements = list(table.group.elements())
    for l in elements:
        if all(val(i, l - i) == 0 for i in elements):
            return True, l
    return False, None


def integral_chart_degrees(table):
    """Chart degrees canonical(m) + s * distance(m) of the table's Kummer
    form, for the least s at which its chart at infinity is integral."""
    group = table.group
    canon = canonical_infinity_degrees(GlobalModel(table).kummer)
    dist = _distance_exponents(group)
    for s in range(16):
        degrees = {m: canon[m] + s * dist[m] for m in group.elements() if not m.is_zero()}
        if not isinstance(outcome(InfinityChart(table, degrees).check_integral), tuple):
            return degrees
    raise AssertionError(table)


def test_decided_raw_tables_value_entries_like_their_stored_entries():
    checked = 0
    for table, undecided, places in twisted_raw_tables():
        assert table.group.order <= 27
        elements = list(table.group.elements())
        for v in places:
            assert table.potential(v) is not None and undecided.potential(v) is None
            for m in elements:
                for n in elements:
                    assert table.entry_valuation(m, n, v) == valuation(table.entry(m, n), v)
        checked += 1
    assert checked >= 200


def test_decided_raw_tables_keep_chart_exponents_and_refusals():
    rng = random.Random(11)
    refused = accepted = 0
    for table, undecided, _ in twisted_raw_tables():
        group = table.group
        pairs = [(m, n) for m in group.elements() for n in group.elements()]
        canonical = canonical_infinity_degrees(GlobalModel(table).kummer)
        for degrees in (canonical, explicit_degrees(rng, group)):
            chart, reference = InfinityChart(table, degrees), InfinityChart(undecided, degrees)
            assert chart.potential(chart.u_place) is not None
            assert reference.potential(reference.u_place) is None
            expected = [outcome(reference.u_exponent, m, n) for m, n in pairs]
            assert [outcome(chart.u_exponent, m, n) for m, n in pairs] == expected
            assert outcome(chart.check_integral) == outcome(reference.check_integral)
            refused += outcome(reference.check_integral) is not None
            accepted += outcome(reference.check_integral) is None
    assert refused >= 50 and accepted >= 50


def test_decided_raw_tables_give_the_scanned_gorenstein_verdicts():
    non_gorenstein = 0
    for table, undecided, places in twisted_raw_tables():
        finite = places[:-1]
        for v in finite:
            expected = stored_scan(undecided, v)
            assert gorenstein_at(table, v) == expected
            non_gorenstein += not expected[0]
        gm = GlobalModel(table, integral_chart_degrees(table))
        chart = InfinityChart(undecided, gm.infinity_degrees)
        at_infinity = stored_scan(chart, chart.u_place,
                                  lambda m, n: valuation(chart.entry(m, n), chart.u_place))
        assert list(gorenstein_places(gm, places)) == \
            [stored_scan(undecided, v) for v in finite] + [at_infinity]
    assert non_gorenstein >= 50


def test_undecided_raw_tables_are_scanned_without_a_reconstruction(monkeypatch):
    def refuse(c):
        raise AssertionError("gorenstein_at reconstructed a table")

    tables = twisted_raw_tables()
    monkeypatch.setattr(covering, "_reconstruct", refuse)
    for _, undecided, places in tables:
        for v in places[:-1]:
            assert gorenstein_at(undecided, v) == stored_scan(undecided, v)
            assert undecided.potential(v) is None


# tables of untwisted Kummer data form their entries on first use ---------------

def eager_table(kd):
    """The reference: every entry formed when the table is built, the
    table keeping kd as its Kummer form."""
    elements = list(kd.group.elements())
    c = Cocycle(kd.group, {(m, n): kd.entry(m, n) for m in elements for n in elements})
    c._kummer = kd
    return c


def untwisted_data(seed, count):
    """Untwisted Kummer data over every shape, Z/2 x Z/2 and Z/3 x Z/3 included."""
    rng = random.Random(seed)
    return [KummerData(PGroup(p, exps), chart_equations(rng, p, exps))
            for p, exps in (SHAPES[k % len(SHAPES)] for k in range(count))]


TABLE_VIEWS = {
    "pairs": lambda c: list(c.pairs()),
    "validate": lambda c: validate(c).failures,
    "forward_decompose": lambda c: outcome(forward_decompose, c),
    "covering_to_obj": lambda c: json.dumps(covering_to_obj(c), sort_keys=True).encode(),
}


@pytest.mark.parametrize("view", sorted(TABLE_VIEWS))
def test_untwisted_tables_read_like_the_eager_build(view):
    read = TABLE_VIEWS[view]
    for kd in untwisted_data(11, 24):
        # a fresh table each time, so that the view is the first to read it
        assert read(kd.to_cocycle()) == read(eager_table(kd)), kd


def test_untwisted_tables_equal_eager_and_raw_copies():
    for kd in untwisted_data(12, 24):
        eager = eager_table(kd)
        raw = Cocycle.from_entries(kd.group, {(m, n): a for m, n, a in eager.pairs()})
        for other in (eager, raw):
            assert kd.to_cocycle() == other and other == kd.to_cocycle()


def test_entries_formed_after_a_decomposition_are_the_eager_ones(monkeypatch):
    divided = count_calls(monkeypatch, covering, "twisted_entry")
    for kd in untwisted_data(13, 24):
        table = kd.to_cocycle()
        validate(table)
        outcome(forward_decompose, table)
        assert entries_of(table) == entries_of(eager_table(kd))
    # the column form of untwisted data is untwisted, so no entry is divided out
    assert divided == []


def count_kummer_entries(monkeypatch):
    calls = []
    entry = KummerData.entry

    def counting(kd, m, n):
        calls.append((m, n))
        return entry(kd, m, n)

    monkeypatch.setattr(KummerData, "entry", counting)
    return calls


def test_valuations_form_no_entry(monkeypatch):
    data = untwisted_data(14, 16) + kummer_inputs()
    places = [[r.place for r in ramification_divisor(kd, include_infinity=True)[1]]
              for kd in data]
    calls = count_kummer_entries(monkeypatch)
    for kd, vs in zip(data, places):
        table = kd.to_cocycle()
        elements = list(kd.group.elements())
        for v in vs:
            gorenstein_at(table, v)
            torsor_at(table, v)
            assert table.potential(v) is not None
            for m in elements:
                for n in elements:
                    table.entry_valuation(m, n, v)
    assert calls == []


def test_cyclic_decomposition_reads_only_the_column(monkeypatch):
    data = [kd for kd in untwisted_data(15, 16) if kd.group.is_cyclic]
    calls = count_kummer_entries(monkeypatch)
    for kd in data:
        table = kd.to_cocycle()
        assert validate(table).ok
        forward_decompose(table)
        one = kd.group.elt(1)
        assert calls == [(m, one) for m in kd.group.elements() if not m.is_zero()]
        calls.clear()


def test_non_integral_twists_raise_when_the_table_is_built():
    raised = 0
    for kd, _ in seeded_tables(16, 96):
        expected = outcome(eager_table, kd)
        got = outcome(kd.to_cocycle)
        if isinstance(expected, tuple):
            raised += 1
            assert expected[0] is NonIntegralCocycle and got == expected
        else:
            assert got == expected
    assert raised >= 10



# integrality is decided from potentials ---------------------------------------

def entry_scan(kd):
    """The reference: every entry formed in row order, the first refusal raised."""
    elements = list(kd.group.elements())
    for m in elements:
        for n in elements:
            kd.entry(m, n)


def refusal(fn, *args):
    """(exception class, message) of what fn raises, or None."""
    got = outcome(fn, *args)
    return got if isinstance(got, tuple) else None


def column_form(group, column):
    return covering._ColumnForm(group, *covering._column_betas(column))


def kummer_and_column_data():
    """Seeded Kummer data over every shape (untwisted, integrally and
    rationally twisted, and with zero twist values), the column forms of
    random columns, and z^4 = x + 1 over F_2 twisted by the irreducible
    g = x^64 + x^4 + x^3 + x + 1, once integrally (b = g, g^2, g) and once
    not (b(2) = g)."""
    rng = random.Random(17)
    data = [kd for kd, _ in seeded_tables(18, 72)]
    for kd in data[1::5]:
        # two zeros where there is room, the later element first in the dict
        nonzero = list(kd.group.elements())[1:]
        zeros = sorted(rng.sample(nonzero, min(2, len(nonzero))), key=lambda m: m.residues)
        twist = {m: RatFun.zero(kd.group.p) for m in reversed(zeros)}
        data.append(KummerData(kd.group, kd.factors, {**twist, **(kd.twist or {}), **twist}))
    for p, n in [(2, 2), (3, 1), (2, 3), (3, 2), (5, 1)]:
        group = PGroup(p, (n,))
        data += [column_form(group, random_column(rng, p, n)) for _ in range(6)]
    group = PGroup(2, (2,))
    g = RatFun.from_poly(Poly(2, [1, 1, 0, 1, 1] + [0] * 59 + [1]))
    assert is_irreducible(g.num)
    f = (Poly(2, [1, 1]),)
    data.append(KummerData(group, f, {group.elt(1): g, group.elt(2): g * g, group.elt(3): g}))
    data.append(KummerData(group, f, {group.elt(2): g}))
    return data


def test_check_integral_refuses_like_the_entry_scan():
    seen = set()
    for kd in kummer_and_column_data():
        expected = refusal(entry_scan, kd)
        assert refusal(kd.check_integral) == expected, kd
        assert refusal(kd.to_cocycle) == expected, kd
        seen.add(None if expected is None else expected[0])
    assert seen == {None, NonIntegralCocycle, ZeroEntry}


def test_check_integral_scans_no_pair_when_the_twist_has_no_prime(monkeypatch):
    # every twist value a nonzero constant: no prime, so no pole and no
    # pair to check, where the pair scan would add q^2 elements; a zero
    # value is still refused at the first such element
    adds = []
    add = pgroup.GElt.__add__
    monkeypatch.setattr(pgroup.GElt, "__add__", lambda m, n: adds.append(1) or add(m, n))
    for p, n in [(2, 3), (3, 2), (5, 1), (7, 2)]:
        group = PGroup(p, (n,))
        consts = {m: RatFun.from_poly(Poly.const(p, 1 + m.residues[0] % (p - 1)))
                  for m in group.elements() if not m.is_zero()}
        kd = KummerData(group, (Poly.x(p),), consts)
        kd.check_integral()
        assert adds == []
        # b(m) = c(m) (x + 1) for m != 0: integral, with one prime to scan at
        line = RatFun.from_poly(Poly(p, [1, 1]))
        KummerData(group, (Poly.x(p),), {m: b * line for m, b in consts.items()}).check_integral()
        assert len(adds) == group.order ** 2
        adds.clear()
        zeros = {**consts, group.elt(3): RatFun.zero(p), group.elt(2): RatFun.zero(p)}
        assert refusal(KummerData(group, (Poly.x(p),), zeros).check_integral) == (
            ZeroEntry, "twist is zero at 2")


def test_columns_are_refused_like_the_entry_scan():
    rng = random.Random(19)
    refused = 0
    for p, n in [(2, 2), (3, 1), (2, 3), (3, 2), (5, 1)]:
        group = PGroup(p, (n,))
        for column in [random_column(rng, p, n) for _ in range(8)]:
            form = column_form(group, column)
            expected = refusal(entry_scan, form)
            got = outcome(covering.cocycle_from_column, group, column)
            if expected is None:
                assert entries_of(got) == entries_of(eager_table(form))
            else:
                refused += 1
                assert got == expected
    assert refused >= 10


def test_twisted_tables_form_no_entry_when_built(monkeypatch):
    data = [kd for kd in kummer_and_column_data() if kd.twist]
    expected = [refusal(entry_scan, kd) for kd in data]
    calls = count_kummer_entries(monkeypatch)
    built = refused = 0
    for kd, refused_with in zip(data, expected):
        calls.clear()
        assert refusal(kd.to_cocycle) == refused_with
        if refused_with is None:
            built += 1
            assert calls == []
        elif refused_with[0] is NonIntegralCocycle:
            refused += 1
            [(m, n)] = calls
            assert refused_with[1].startswith(f"entry ({m},{n}) = ")
    assert built >= 20 and refused >= 20


def eager_potential_scan(kd):
    """The reference: every distinct twist numerator and denominator
    factored before any pair is scanned, then the pairs in row order at
    all of their primes."""
    if not kd.twist:
        return
    elements = list(kd.group.elements())
    parts = {part for b in map(kd.twist_at, elements) for part in (b.num, b.den)}
    pots = [kd.potential(Place._of_irreducible(irr))
            for part in parts for irr in covering.factor(part)]
    for m in elements:
        for n in elements:
            if any(pot[m] + pot[n] < pot[m + n] for pot in pots):
                kd.entry(m, n)


def count_factor_calls(monkeypatch):
    calls = []
    real = covering.factor
    monkeypatch.setattr(covering, "factor", lambda f: calls.append(f) or real(f))
    return calls


def test_check_integral_refuses_like_the_eager_potential_scan(monkeypatch):
    # seeded integral and non-integral twists: the same first refusal, or
    # none, with no part factored twice and none the eager scan skips
    data = [kd for kd in kummer_and_column_data() if kd.twist]
    expected = [refusal(eager_potential_scan, kd) for kd in data]
    calls = count_factor_calls(monkeypatch)
    kinds = set()
    for kd, refused_with in zip(data, expected):
        calls.clear()
        assert refusal(KummerData(kd.group, kd.factors, kd.twist).check_integral) == refused_with
        parts = {part for b in kd.twist.values() if b for part in (b.num, b.den)}
        assert len(calls) == len(set(calls)) and set(calls) <= parts | {Poly.one(kd.group.p)}
        kinds.add(None if refused_with is None else refused_with[0])
    assert kinds == {None, NonIntegralCocycle, ZeroEntry}


def test_check_integral_factors_only_the_values_its_scan_reaches(monkeypatch):
    # b(2) = g makes alpha(1, 1) = (x + 1) / g a pole, at the first pair of
    # row 1: only b(1) = 1 and b(2) are factored, not the degree-24
    # irreducibles at 3..7
    rng = random.Random(23)
    group = PGroup(2, (3,))
    g = random_irreducible(rng, 2, 3)
    twist = {group.elt(2): RatFun.from_poly(g)}
    for k in range(3, 8):
        twist[group.elt(k)] = RatFun.from_poly(random_irreducible(rng, 2, 24))
    kd = KummerData(group, (Poly(2, [1, 1]),), twist)
    calls = count_factor_calls(monkeypatch)
    message = refusal(kd.check_integral)
    assert message == refusal(entry_scan, kd)
    assert message[0] is NonIntegralCocycle and message[1].startswith("entry (1,1) = ")
    assert calls == [Poly.one(2), g]
    calls.clear()
    assert refusal(eager_potential_scan, kd) == message
    assert len(calls) == 7
