import math
import random

import pytest

from muram import snf_oracle
from muram.algebra import AlgebraElt, algebra_inverse
from muram.covering import KummerData
from muram.errors import CancellationRisk, NotTorsion
from muram.fppoly import Place, Poly, RatFun
from muram.pgroup import GElt, PGroup
from muram.ramification import (
    LocalModel,
    multiplicity_at,
    normalize_local_model,
    ramification_divisor,
)
from muram.randgen import random_normal_cyclic_kummer
from muram.snf_oracle import (
    PresentationMatrix,
    algebra_valuation,
    build_presentation,
    oracle_multiplicity,
    snf_length,
)

X2, X3 = Poly.x(2), Poly.x(3)
AT_X2, AT_X3 = Place.finite(X2), Place.finite(X3)


def model(p, n, f_coeffs, at=None):
    f = Poly(p, f_coeffs)
    place = at or Place.finite(Poly.x(p))
    return normalize_local_model(KummerData(PGroup(p, (n,)), (f,)), place)


# presentation shape ---------------------------------------------------------

def test_presentation_shape_z2():
    m = model(2, 1, [0, 1])
    pm = build_presentation(m)
    assert pm.shape == (1, 4)
    nonzero = [c for c in pm.columns if c]
    # the two surviving columns carry +e_1 and -e_1 in the single row
    assert len(nonzero) == 2
    e1 = AlgebraElt.basis(m.group, m.group.elt(1))
    assert {str(c[0]) for c in nonzero} == {str(e1), str(-e1)}


def test_presentation_trivial_group_is_empty():
    trivial = LocalModel(p=2, n=0, place=AT_X2, pi=X2, f_red=Poly.one(2), c=0)
    pm = build_presentation(trivial)
    assert pm.shape == (0, 1)
    assert all(not col for col in pm.columns)
    assert oracle_multiplicity(trivial) == 0


def test_presentation_column_entries_z3():
    m = model(3, 1, [0, 1])
    pm = build_presentation(m)
    assert pm.shape == (2, 9)
    g = m.group
    j = pm.labels.index((g.elt(1), g.elt(1)))
    col = pm.columns[j]
    # +e_1 in the row of 2 = 1+1, -e_1 in the row of 1
    row_of = {m_: i for i, m_ in enumerate(pm.rows)}
    e1 = AlgebraElt.basis(g, g.elt(1))
    assert col[row_of[g.elt(2)]] == e1
    assert col[row_of[g.elt(1)]] == -e1
    assert all(len(c) <= 2 for c in pm.columns)


def reference_presentation(model):
    """The presentation built with group arithmetic: k + l summed as GElts
    and rows looked up by element."""
    group = model.group
    elements = list(group.elements())
    rows = tuple(m for m in elements if not m.is_zero())
    row_index = {m: i for i, m in enumerate(rows)}
    labels = tuple((k, l) for k in elements for l in elements)
    columns = []
    for k in elements:
        if k.is_zero():
            columns.extend({} for _ in elements)
            continue
        e_k = AlgebraElt.basis(group, k)
        neg_e_k = -e_k
        for l in elements:
            col = {}
            top = row_index.get(k + l)
            if top is not None:
                col[top] = e_k
            if l in row_index:
                col[row_index[l]] = neg_e_k
            columns.append(col)
    return PresentationMatrix(rows=rows, labels=labels, columns=columns)


PN_UP_TO_64 = [(p, n) for p in range(2, 65) if all(p % d for d in range(2, p))
               for n in range(1, 7) if p ** n <= 64]


@pytest.mark.parametrize("p,n", [(2, 0)] + PN_UP_TO_64)
def test_presentation_by_residue_matches_group_arithmetic(p, n):
    lm = LocalModel(p=p, n=n, place=Place.finite(Poly.x(p)), pi=Poly.x(p),
                    f_red=Poly.one(p), c=min(n, 1))
    pm, ref = build_presentation(lm), reference_presentation(lm)
    assert pm.rows == ref.rows and pm.labels == ref.labels
    assert len(pm.columns) == len(ref.columns) == p ** (2 * n)
    for col, ref_col in zip(pm.columns, ref.columns):
        # the same rows in the same order, and equal entries
        assert list(col.items()) == list(ref_col.items())


def test_presentation_makes_no_group_sums(monkeypatch):
    models = [model(p, n, [0, 1]) for p, n in [(2, 3), (3, 2), (5, 1)]]
    adds = []
    add = GElt.__add__
    monkeypatch.setattr(GElt, "__add__", lambda m, n: adds.append(1) or add(m, n))
    for lm in models:
        assert build_presentation(lm).shape == (lm.q - 1, lm.q ** 2)
    assert adds == []
    reference_presentation(models[0])
    assert len(adds) == 7 * 8  # the spy sees the reference's sums, k != 0


# algebra valuations ---------------------------------------------------------

def test_algebra_valuation_examples():
    m = model(2, 1, [0, 1])
    g = m.group
    assert algebra_valuation(AlgebraElt.unit(g), m) == 0
    a = AlgebraElt(g, {g.zero(): RatFun.from_poly(X2), g.elt(1): RatFun.one(2)})
    assert algebra_valuation(a, m) == 1  # min(2*1, 1)
    m43 = model(2, 2, [0, 0, 0, 1])  # f = x^3
    assert algebra_valuation(AlgebraElt.basis(m43.group, m43.group.elt(3)), m43) == 1


def test_algebra_valuation_additive_on_products():
    m = model(3, 1, [0, 1])
    g = m.group
    rng = random.Random(3)
    for _ in range(10):
        a = AlgebraElt(
            g, {mm: RatFun.from_poly(Poly(3, [rng.randrange(3) for _ in range(2)])) for mm in g.elements()}
        )
        b = AlgebraElt.basis(g, g.elt(rng.randrange(1, 3)))
        if a.is_zero():
            continue
        assert algebra_valuation(a.mul(b, m), m) == algebra_valuation(a, m) + algebra_valuation(b, m)


def test_cancellation_risk_on_split_models():
    m = model(2, 1, [1, 1])  # f = x+1, unit at (x): all basis valuations 0
    with pytest.raises(CancellationRisk):
        algebra_valuation(AlgebraElt.unit(m.group), m)


# snf length -----------------------------------------------------------------

def _diag_presentation(m, entries):
    g = m.group
    rows = tuple(list(g.elements())[: len(entries)])
    cols = [{i: e} for i, e in enumerate(entries)]
    labels = tuple((g.zero(), g.zero()) for _ in entries)
    return PresentationMatrix(rows=rows, labels=labels, columns=cols)


def test_snf_refuses_ungraded_columns():
    # x e_0 is no unit multiple of a basis element, and a column holding
    # e_1 and e_2 has no single grade
    m = model(2, 2, [0, 1])
    g = m.group
    e1, e2 = AlgebraElt.basis(g, g.elt(1)), AlgebraElt.basis(g, g.elt(2))
    x_e0 = AlgebraElt(g, {g.zero(): RatFun.from_poly(X2)})
    for col in ({0: x_e0}, {0: e1, 1: e2}, {0: e1 + e2}):
        pm = PresentationMatrix(rows=tuple(g.elements())[1:], labels=((g.zero(), g.zero()),),
                                columns=[col])
        with pytest.raises(ValueError):
            snf_length(pm, m)


def test_snf_invariant_under_permutation_and_unit_scaling():
    m = model(3, 1, [0, 1])
    g = m.group
    e1 = AlgebraElt.basis(g, g.elt(1))
    e2 = AlgebraElt.basis(g, g.elt(2))
    pm1 = _diag_presentation(m, [e1, e2])
    pm2 = _diag_presentation(m, [e2.scale(RatFun.from_poly(Poly.const(3, 2))), e1])
    pm2 = PresentationMatrix(rows=pm1.rows, labels=pm1.labels, columns=list(reversed(pm2.columns)))
    assert snf_length(pm1, m) == snf_length(pm2, m) == 3
    # duplicated columns change nothing
    pm3 = PresentationMatrix(
        rows=pm1.rows, labels=pm1.labels + pm1.labels, columns=pm1.columns + pm1.columns
    )
    assert snf_length(pm3, m) == 3


def test_snf_block_additivity():
    m = model(2, 2, [0, 0, 0, 1])
    g = m.group
    blocks = [AlgebraElt.basis(g, g.elt(3)), AlgebraElt.basis(g, g.elt(2)), AlgebraElt.basis(g, g.elt(1))]
    total = snf_length(_diag_presentation(m, blocks), m)
    parts = sum(snf_length(_diag_presentation(m, [b]), m) for b in blocks)
    assert total == parts == 1 + 2 + 3


def test_not_torsion_detected():
    m = model(3, 1, [0, 1])
    g = m.group
    pm = PresentationMatrix(
        rows=tuple(mm for mm in g.elements() if not mm.is_zero()),
        labels=((g.zero(), g.zero()),),
        columns=[{0: AlgebraElt.basis(g, g.elt(1))}],  # row 1 never hit
    )
    with pytest.raises(NotTorsion):
        snf_length(pm, m)


# sparse elimination against a dense rescan ---------------------------------
#
# The reference is the straightforward elimination: rescan every entry for
# the pivot, form col[ri] * pivot^{-1} for each column meeting the pivot
# row, subtract its multiple of the pivot column on every row, and value
# each new entry from scratch.

def dense_snf_length(matrix, model, pivots=None):
    def val(e):
        return algebra_valuation(e, model)

    columns = [{i: (e, val(e)) for i, e in col.items()} for col in matrix.columns if col]
    remaining, total = len(matrix.rows), 0
    while remaining:
        pivot_val, pivot = math.inf, None
        for cj, col in enumerate(columns):
            for ri, (_, v) in col.items():
                if v < pivot_val:
                    pivot_val, pivot = v, (cj, ri)
        if pivot is None:
            raise NotTorsion(f"{remaining} generators left")
        cj, ri = pivot
        pivot_col = columns[cj]
        if pivots is not None:
            pivots.append((pivot_col[ri][0], pivot_val))
        inv = algebra_inverse(pivot_col[ri][0], model)
        zero = AlgebraElt.zero(model.group)
        new_columns = []
        for j, col in enumerate(columns):
            if j == cj:
                continue
            if ri not in col:
                new_columns.append(col)
                continue
            ratio = col[ri][0].mul(inv, model)
            updated = {}
            # rows in this set's order, which decides later ties within a column
            touched = set(col) | set(pivot_col)
            touched.discard(ri)
            for i in touched:
                a = col[i][0] if i in col else zero
                b = pivot_col[i][0] if i in pivot_col else zero
                w = a - ratio.mul(b, model)
                if not w.is_zero():
                    updated[i] = (w, val(w))
            if updated:
                new_columns.append(updated)
        columns = new_columns
        remaining -= 1
        total += pivot_val
    return total


def _outcome(length_fn, matrix, model):
    try:
        return length_fn(matrix, model)
    except NotTorsion:
        return "not torsion"


def _spy_pivots(monkeypatch):
    """Record the (entry, valuation) snf_length inverts at each pivot."""
    pivots = []
    real = snf_oracle.algebra_inverse

    def spy(a, table):
        pivots.append((a, algebra_valuation(a, table)))
        return real(a, table)

    monkeypatch.setattr(snf_oracle, "algebra_inverse", spy)
    return pivots


def _assert_same_run(monkeypatch, matrix, model):
    """Same outcome and the same pivot sequence as the dense rescan."""
    pivots = _spy_pivots(monkeypatch)
    expected = []
    outcome = _outcome(snf_length, matrix, model)
    assert outcome == _outcome(lambda pm, m: dense_snf_length(pm, m, expected), matrix, model)
    assert pivots == expected
    return outcome


@pytest.mark.parametrize(
    "p,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]
)
def test_snf_matches_dense_rescan_on_random_models(p, n, monkeypatch):
    rng = random.Random(1000 * p + n)
    for _ in range(3 if p ** n <= 9 else 1):
        kd = random_normal_cyclic_kummer(rng, p, n)
        _, reports = ramification_divisor(kd, include_infinity=True)
        for r in reports:
            lm = normalize_local_model(kd, r.place)
            if lm.c == 0:
                continue
            assert _assert_same_run(monkeypatch, build_presentation(lm), lm) == r.multiplicity


def _random_unit_multiple(rng, m, k):
    return AlgebraElt(m.group, {k: RatFun.from_poly(Poly(m.p, [rng.randrange(1, m.p)]))})


def _random_sparse_presentation(rng, m, nrows, ncols):
    """At most two nonzero entries per column, unit multiples of one e_k
    per column, with constant multiples of earlier columns (their
    eliminations cancel on a tie) and exact copies."""
    unit = m.group.zero()
    columns = []
    for _ in range(ncols):
        roll = rng.random()
        if columns and roll < 0.2:
            columns.append(dict(rng.choice(columns)))
        elif columns and roll < 0.4:
            u = _random_unit_multiple(rng, m, unit)
            columns.append({i: u.mul(e, m) for i, e in rng.choice(columns).items()})
        else:
            k = m.group.elt(rng.randrange(m.q))
            rows = rng.sample(range(nrows), rng.choice((1, 2, 2)))
            columns.append({i: _random_unit_multiple(rng, m, k) for i in rows})
    rows = tuple(m.group.elements())[:nrows]
    labels = tuple((unit, unit) for _ in columns)
    return PresentationMatrix(rows=rows, labels=labels, columns=columns)


@pytest.mark.parametrize("p,n,f", [(2, 2, [0, 1]), (3, 2, [0, 0, 1]), (5, 1, [0, 0, 0, 1])])
def test_snf_matches_dense_rescan_on_random_sparse_matrices(p, n, f, monkeypatch):
    m = model(p, n, f)
    rng = random.Random(p * 31 + n)
    outcomes = set()
    for _ in range(40):
        pm = _random_sparse_presentation(rng, m, m.q - 1, rng.randrange(1, 2 * m.q))
        outcomes.add(_assert_same_run(monkeypatch, pm, m) == "not torsion")
    assert outcomes == {True, False}


def test_snf_dense_rescan_agree_when_no_column_remains():
    m = model(3, 1, [0, 1])
    g = m.group
    e1 = AlgebraElt.basis(g, g.elt(1))
    # one column meets both rows and clears to zero after the first pivot
    pm = PresentationMatrix(
        rows=(g.elt(1), g.elt(2)),
        labels=((g.zero(), g.zero()),) * 2,
        columns=[{0: e1, 1: e1}, {0: -e1, 1: -e1}],
    )
    for length_fn in (snf_length, dense_snf_length):
        with pytest.raises(NotTorsion):
            length_fn(pm, m)


def _count_steps(monkeypatch):
    """Count the pivots' algebra_inverse calls and the table reads."""
    calls = []
    inverse, entry = snf_oracle.algebra_inverse, LocalModel.entry

    def counting_inverse(a, table):
        calls.append("inverse")
        return inverse(a, table)

    def counting_entry(self, i, j):
        calls.append("entry")
        return entry(self, i, j)

    monkeypatch.setattr(snf_oracle, "algebra_inverse", counting_inverse)
    monkeypatch.setattr(LocalModel, "entry", counting_entry)
    return calls


def test_duplicate_columns_cost_no_products(monkeypatch):
    # in characteristic 2, -e_k = e_k already duplicates columns; doubling
    # the whole presentation must not add a single inverse or factor read
    m = model(2, 3, [0, 0, 0, 1])  # z^8 = x^3: c = 3, so pivots meet other entries
    pm = build_presentation(m)
    doubled = PresentationMatrix(rows=pm.rows, labels=pm.labels * 2, columns=pm.columns * 2)
    calls = _count_steps(monkeypatch)
    assert snf_length(pm, m) == 7
    once = sorted(calls)
    # one inverse per pivot, and factors read besides the inverses' own
    assert once.count("inverse") == 7
    assert once.count("entry") > 7
    calls.clear()
    assert snf_length(doubled, m) == 7
    assert sorted(calls) == once


@pytest.mark.parametrize("p,n,f,c", [
    (3, 3, [0, 0, 1, 1], 2),  # z^27 = x^2 (x + 1)
    (5, 2, [0, 0, 0, 1, 2, 1], 3),  # z^25 = x^3 (x + 1)^2
])
def test_snf_matches_dense_rescan_at_odd_p(p, n, f, c, monkeypatch):
    # c >= 2 makes pivot columns meet other entries, and at odd p the cells
    # carry -1 = p - 1, which p = 2 cannot tell from 1 (coefficients other
    # than +-1 come from the random sparse matrices above)
    m = model(p, n, f)
    assert m.c == c
    assert _assert_same_run(monkeypatch, build_presentation(m), m) == p ** n - 1


class _UngradedTable:
    """A local model whose alpha(k, 0) is x instead of 1."""

    def __init__(self, model):
        self._model = model

    def __getattr__(self, name):
        return getattr(self._model, name)

    def entry(self, i, j):
        return Poly.x(self._model.p) if j.is_zero() else self._model.entry(i, j)


def test_snf_refuses_tables_that_do_not_keep_columns_graded():
    m = model(2, 3, [0, 0, 0, 1])
    with pytest.raises(ValueError, match="alpha"):
        snf_length(build_presentation(m), _UngradedTable(m))


def _grades_of(pivots):
    return [next(iter(entry.comps)).residues[0] for entry, _ in pivots]


def test_snf_matches_dense_rescan_across_grades(monkeypatch):
    # z^5 = x at (x): grade k has valuation k.  Grade 1 spends its columns
    # on rows 0 and 2 while rows 1 and 3 remain; the grade-2 column meets
    # row 0, whose pivot column also holds row 1, so it is formed only
    # after that pivot and must replay it (a nonzero scaled column) before
    # it can pivot; the grade-3 column then replays the grade-2 pivot
    m = model(5, 1, [0, 1])
    assert m.vA == (0, 1, 2, 3, 4)
    g = m.group

    def cell(k, c):
        return AlgebraElt(g, {g.elt(k): RatFun.from_poly(Poly.const(5, c))})

    columns = [
        {3: cell(3, 2), 1: cell(3, 1)},
        {0: cell(1, 1), 1: cell(1, 2)},
        {0: cell(2, 3), 3: cell(2, 1)},
        {2: cell(1, 4)},
        {0: cell(2, 3), 3: cell(2, 1)},  # a duplicate, dropped with its grade
    ]
    pm = PresentationMatrix(rows=tuple(g.elements())[1:], labels=((g.zero(), g.zero()),) * 5,
                            columns=columns)
    pivots = _spy_pivots(monkeypatch)
    assert _assert_same_run(monkeypatch, pm, m) == 1 + 1 + 2 + 3
    assert _grades_of(pivots) == [1, 1, 2, 3]


def test_snf_refuses_mixed_columns_of_grades_never_formed():
    m = model(2, 3, [0, 0, 0, 1])  # every pivot has grade 3, of least valuation
    pm = build_presentation(m)
    g = m.group
    mixed = {0: AlgebraElt.basis(g, g.elt(1)), 1: AlgebraElt.basis(g, g.elt(2))}
    pm = PresentationMatrix(rows=pm.rows, labels=pm.labels + ((g.zero(), g.zero()),),
                            columns=pm.columns + [mixed])
    with pytest.raises(ValueError, match="mixes"):
        snf_length(pm, m)


class _UngradedAwayFrom(_UngradedTable):
    """A local model whose alpha(k, 0) is x at every grade k but one."""

    def __init__(self, model, keep):
        super().__init__(model)
        self._keep = keep

    def entry(self, i, j):
        if i.residues[0] == self._keep:
            return self._model.entry(i, j)
        return super().entry(i, j)


def test_snf_refuses_tables_ungraded_only_where_no_pivot_is(monkeypatch):
    # the pivots all come from grade 3, so no column of another grade is
    # ever formed; alpha(k, 0) = x there must still be refused
    m = model(2, 3, [0, 0, 0, 1])
    pm = build_presentation(m)
    pivots = _spy_pivots(monkeypatch)
    assert snf_length(pm, m) == 7
    assert set(_grades_of(pivots)) == {3}
    with pytest.raises(ValueError, match="alpha"):
        snf_length(pm, _UngradedAwayFrom(m, 3))


def test_snf_refuses_pending_grades_a_dense_rescan_never_reads(monkeypatch):
    # z^5 = x at (x): the first grade-1 pivot column has a second entry,
    # so alpha(2, 0) is read for the pending grade 2, although no grade-2
    # column meets a pivot row.  The dense rescan never reads it and
    # returns a length where snf_length refuses the table.
    m = model(5, 1, [0, 1])
    g = m.group

    def cell(k, c):
        return AlgebraElt(g, {g.elt(k): RatFun.from_poly(Poly.const(5, c))})

    columns = [{0: cell(1, 1), 1: cell(1, 2)}, {1: cell(1, 1)}, {2: cell(2, 1)}, {3: cell(2, 1)}]
    pm = PresentationMatrix(rows=tuple(g.elements())[1:], labels=((g.zero(), g.zero()),) * 4,
                            columns=columns)
    assert _assert_same_run(monkeypatch, pm, m) == 1 + 1 + 2 + 2
    ungraded = _UngradedAwayFrom(m, 1)
    assert dense_snf_length(pm, ungraded) == 6
    with pytest.raises(ValueError, match="alpha"):
        snf_length(pm, ungraded)


def _random_rational_monomial(rng, lm):
    g = lm.group
    coeff = RatFun(Poly(lm.p, [rng.randrange(1, lm.p), rng.randrange(lm.p)]),
                   Poly(lm.p, [rng.randrange(1, lm.p), 1]))
    return AlgebraElt(g, {g.elt(rng.randrange(lm.q)): coeff})


def test_local_model_tables_are_associative():
    # snf_length forms c * (pivot^{-1} * b) where the rescan forms
    # (c * pivot^{-1}) * b: the two agree because the table is a cocycle
    rng = random.Random(23)
    for p, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (3, 3)]:
        kd = random_normal_cyclic_kummer(rng, p, n)
        _, reports = ramification_divisor(kd, include_infinity=True)
        for r in reports:
            lm = normalize_local_model(kd, r.place)
            for _ in range(40 if lm.q <= 9 else 200):
                a, b, c = (_random_rational_monomial(rng, lm) for _ in range(3))
                assert a.mul(b, lm).mul(c, lm) == a.mul(b.mul(c, lm), lm)


# oracle ---------------------------------------------------------------------

@pytest.mark.parametrize(
    "p,n,f,expected",
    [
        (2, 1, [0, 1], 1),
        (3, 1, [0, 1], 2),
        (2, 2, [0, 1], 3),
        (2, 2, [0, 0, 0, 1], 3),
    ],
)
def test_oracle_examples(p, n, f, expected):
    assert oracle_multiplicity(model(p, n, f)) == expected


def test_oracle_split_place_is_zero():
    assert oracle_multiplicity(model(2, 1, [1, 1])) == 0


def test_oracle_agrees_with_formula_on_random_models():
    rng = random.Random(17)
    for p, n in [(2, 1), (3, 1), (2, 2)]:
        for _ in range(5):
            kd = random_normal_cyclic_kummer(rng, p, n, max_deg=4)
            _, reports = ramification_divisor(kd, include_infinity=True)
            for r in reports:
                lm = normalize_local_model(kd, r.place)
                assert oracle_multiplicity(lm) == r.multiplicity


@pytest.mark.parametrize("p,n", [(2, 6), (3, 4), (2, 8)])
def test_oracle_matches_formula_at_q64_and_q81(p, n):
    # z^q = x is totally ramified at (x): multiplicity q - 1 (63, 80 and 255)
    kd = KummerData(PGroup(p, (n,)), (Poly.x(p),))
    at_x = Place.finite(Poly.x(p))
    _, reports = ramification_divisor(kd)
    (formula,) = [r.multiplicity for r in reports if r.place == at_x]
    assert formula == p ** n - 1
    assert oracle_multiplicity(normalize_local_model(kd, at_x)) == formula


def test_oracle_matches_formula_at_q128():
    kd = KummerData(PGroup(2, (7,)), (X2,))
    assert oracle_multiplicity(normalize_local_model(kd, AT_X2)) == multiplicity_at(kd, AT_X2) == 127


# independent validation of the presentation ---------------------------------
#
# For concrete normalizations A = F_p[t] (t the uniformizer upstairs) the
# augmentation module can be computed by raw F_p linear algebra: truncate
# A at t^T, expand the relation columns into F_p-vectors, and count
# dimensions.  This checks the presentation itself, using neither the
# closed-form multiplicity nor the SNF pivoting.

def _fp_rank(vectors, p):
    rows = [list(v) for v in vectors]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(c * inv) % p for c in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _dimension_count(p, n, f_coeffs, embed_vals, T=None):
    """dim_{F_p} of the presented module inside A = F_p[t]/(t^T),
    with x = t^{p^n} and e_m embedded as t^{embed_vals[s(m)]}."""
    q = p ** n
    T = T or q + 2
    m = model(p, n, f_coeffs)
    assert list(m.vA) == list(embed_vals)
    pm = build_presentation(m)

    def embed(elt: AlgebraElt):
        # A_T element as F_p coefficient list in t
        out = [0] * T
        for mm, coeff in elt.comps.items():
            poly = coeff.as_poly()
            shift = embed_vals[mm.residues[0]]
            for i, a in enumerate(poly.coeffs):
                e = q * i + shift
                if e < T:
                    out[e] = (out[e] + a) % p
        return out

    vectors = []
    nrows = len(pm.rows)
    for col in pm.columns:
        if not col:
            continue
        base = []
        for i in range(nrows):
            base.append(embed(col[i]) if i in col else [0] * T)
        for s in range(T):
            vec = []
            for cell in base:
                shifted = [0] * T
                for e, a in enumerate(cell):
                    if e + s < T:
                        shifted[e + s] = a
                vec.extend(shifted)
            vectors.append(vec)
    rank = _fp_rank(vectors, p)
    return nrows * T - rank


def test_presentation_dimension_count_z2():
    assert _dimension_count(2, 1, [0, 1], (0, 1)) == 1


def test_presentation_dimension_count_z3():
    assert _dimension_count(3, 1, [0, 1], (0, 1, 2)) == 2


def test_presentation_dimension_count_z4_twisted():
    # f = x^3: normalized basis valuations (0, 3, 2, 1)
    assert _dimension_count(2, 2, [0, 0, 0, 1], (0, 3, 2, 1)) == 3
