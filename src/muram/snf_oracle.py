"""Brute-force length oracle for local ramification multiplicities.

At a place y the stabilizer of the grading action is cut out of the
constant group algebra A[M] (A the local ring of the covering at y) by
the relations e_m (T^m - 1).  As an A-module that ideal is spanned by
the elements e_k T^l (T^k - 1) = e_k (T^{k+l} - T^l); writing
w_m = T^m - 1 (so w_0 = 0) the quotient splits off the free summand
A * 1, leaving the augmentation module presented by

    generators  w_m, m != 0
    relations   e_k * w_{k+l} - e_k * w_l    for (k, l) in M x M

The multiplicity of the ramification divisor at y is the A-length of
that cokernel.  This module computes it by Smith-style pivoting with
exact arithmetic over F_p on graded cells: pick a nonzero entry of
globally minimal valuation, clear its row by column operations (the
quotients stay integral because the pivot valuation is minimal), split
off A/(pivot), and recurse; the length is the sum of pivot valuations.
Nothing here consults the closed-form multiplicity |M/N_y| - 1; the two
routes are compared from the outside.  Every pivot is a monomial (see
below), so algebra_inverse inverts it in closed form from e_m e_{-m} =
alpha(m,-m) e_0, a polynomial in pi of the local model's table.

The presentation is graded: column (k, l) holds only +-e_k, a unit
multiple of the one basis element e_k.  Pivoting keeps it so on a local
model's table, which is a normalized symmetric cocycle, and so
snf_length keeps each column as its grade k and cells {row: c} with
c in F_p^x, and eliminates on ints mod p.  A pivot u e_k has the inverse
w e_{-k}, and it scales an entry b e_k of its column to
-pivot^{-1} b e_k = -(w alpha(-k, k)) b e_0 = s_i e_0; a column of grade
k' with entry c e_{k'} in the pivot row gets c s_i alpha(k', 0) e_{k'}
added.  Both factors are checked exactly: s = w alpha(-k, k) must be a
constant (u^{-1} on a symmetric table), and so must alpha(k', 0) (1 on
a normalized one), else snf_length raises ValueError.  So every entry
stays c e_k with c in F_p^x (a sum of two is again one, or zero and
dropped), of valuation v_A(e_k), and one valuation per column decides
every pivot; snf_length refuses any other column.
Elimination does only the work that can change the answer (details at
snf_length).  The pivot column is scaled once by minus the pivot's
inverse, which reassociates (c pivot^{-1}) b as c (pivot^{-1} b); that is
exact because the table is a symmetric cocycle.  build_presentation
places entries by residue, with no group arithmetic, and setup reads
each column once, dropping any equal to an earlier one (-e_k = e_k at p = 2).

algebra_valuation values any element; snf_length never calls it.  The
basis valuations, which the local model derives from its exponent
c != 0, are pairwise distinct mod p^n, so graded components can never
cancel: v_A(sum a_m e_m) = min_m (p^n v_pi(a_m) + v_A(e_m)).
snf_length checks the same condition, which a split place (c = 0) fails.
"""

from __future__ import annotations

import heapq
from collections import defaultdict

from ._record import Record
from .algebra import AlgebraElt, _elt, algebra_inverse
from .errors import CancellationRisk, NotTorsion, ZeroElement
from .fppoly import Place, Poly, RatFun, valuation
from .ramification import LocalModel


class PresentationMatrix(Record):
    """Sparse column-major presentation of the augmentation module.

    ``columns[j]`` maps row index -> AlgebraElt; column j corresponds to
    the pair (k, l) in ``labels[j]`` and carries +e_k at row k+l and
    -e_k at row l, rows indexed by the nonzero group elements (at most
    two nonzero entries per column; k = 0 columns vanish).
    """

    _fields = ("rows", "labels", "columns")

    @property
    def shape(self):
        return (len(self.rows), len(self.labels))


def build_presentation(model: LocalModel) -> PresentationMatrix:
    group = model.group
    # a cyclic or trivial group, listed by residue: s != 0 has row s - 1
    elements = list(group.elements())
    q, one = len(elements), RatFun.one(group.p)
    minus_one = -one
    columns: list[dict[int, AlgebraElt]] = [{} for _ in elements]  # k = 0
    for sk in range(1, q):
        # the k columns share one e_k and one -e_k; rows k+l and l differ
        e_k, neg_e_k = _elt(group, {elements[sk]: one}), _elt(group, {elements[sk]: minus_one})
        for sl in range(q):
            top = (sk + sl) % q  # k + l = 0 is no row
            col = {top - 1: e_k} if top else {}
            if sl:
                col[sl - 1] = neg_e_k
            columns.append(col)
    labels = tuple((k, l) for k in elements for l in elements)
    return PresentationMatrix(rows=tuple(elements[1:]), labels=labels, columns=columns)


def _basis_valuations(model: LocalModel) -> tuple[int, ...]:
    """vA, once checked pairwise distinct mod p^n."""
    q, vA = model.q, model.vA
    if len({v % q for v in vA}) != q:
        raise CancellationRisk("basis valuations collide mod p^n; the minimum formula may cancel")
    return vA


def algebra_valuation(a: AlgebraElt, model: LocalModel) -> int:
    """min_m (p^n * v_pi(a_m) + v_A(e_m)); exact because the basis
    valuations are pairwise distinct mod p^n (checked)."""
    q, vA = model.q, _basis_valuations(model)
    if a.is_zero():
        raise ZeroElement("the zero element has no valuation")
    place = Place._of_irreducible(model.pi)
    return min(q * valuation(coeff, place) + vA[m.residues[0]] for m, coeff in a.comps.items())


def _constant(f: RatFun, factor: str, k: int) -> int:
    """The c in F_p^x that the table factor f at grade k is; ValueError
    otherwise."""
    if len(f.num.coeffs) == 1 and f.den.coeffs == (1,):
        return f.num.coeffs[0]
    raise ValueError(f"{factor} at k = {k} is {f}, not a nonzero constant")


def _unit_multiple(entry: AlgebraElt) -> tuple[int, int]:
    """(s, c) with entry = c e_k, k of residue s and c in F_p^x;
    ValueError otherwise."""
    if len(entry.comps) == 1:
        ((k, coeff),) = entry.comps.items()
        if len(coeff.num.coeffs) == 1 and coeff.den.coeffs == (1,):
            return k.residues[0], coeff.num.coeffs[0]
    raise ValueError(f"entry {entry} is not a unit multiple of one basis element")


def snf_length(matrix: PresentationMatrix, model: LocalModel) -> int:
    """Length of the cokernel of a graded presentation by minimal-valuation
    pivoting.

    Every column must be graded: each of its entries is c e_k with
    c in F_p^x, for one k per column, as ``build_presentation`` makes
    them; anything else raises ValueError.  Setup reads each column once:
    an entry object's (grade, coefficient) once by id (the matrix keeps it
    alive), the one grade checked as the entries are read, and the grade
    with the sorted (row, coefficient) pairs as the column's key.  A live
    column is then its grade k and its cells {row: c}, and elimination
    runs on ints mod p, so every cell keeps the valuation v_A(e_k) of its
    grade and nothing is valued after setup.  Invariant under column
    permutation, duplication, and unit scaling; additive over
    block-diagonal presentations.  Raises NotTorsion when rows remain but
    no nonzero entries are left.

    The pivot is the first row, in the column's own order, of the first
    live column of minimal valuation; a heap keyed by (valuation, column)
    gives that column.  A column equal to an earlier one is dropped
    before pivoting: it never wins that tie, and once the earlier copy is
    the pivot it clears to zero.  A row index lists the columns meeting
    each row, so a step visits only those.  Each pivot u e_k is inverted
    once by algebra_inverse, as the matrix's own entry when it has one of
    that grade and coefficient.  When the pivot column has other entries
    b_i, the inverse's coefficient times alpha(-k, k) must be a constant
    s (u^{-1} on a symmetric table), the pivot column scales to
    s_i = -s b_i, and a column of grade k' with entry c in the pivot row
    gets c s_i alpha(k', 0) added mod p, where alpha(k', 0) is read once
    per grade and must be a nonzero constant; either factor failing
    raises ValueError.  The rows only that column has keep their cells,
    and a cell that reaches 0 is dropped.
    """
    vA = _basis_valuations(model)
    p, group = model.p, model.group
    # live columns by original index, each {row: coefficient}, and their
    # grades; (grade, coefficient) by entry id, and an entry by (grade,
    # coefficient) for the pivots; the keys of the columns kept
    columns: dict[int, dict[int, int]] = {}
    grades: dict[int, int] = {}
    known: dict[int, tuple[int, int]] = {}
    entries: dict[tuple[int, int], AlgebraElt] = {}
    seen: set[tuple] = set()
    # (valuation, column) of every column kept; the live columns per row
    heap: list[tuple[int, int]] = []
    meets: defaultdict[int, set[int]] = defaultdict(set)
    for j, col in enumerate(matrix.columns):
        if not col:
            continue
        grade, cells, pairs = None, {}, []
        for i, entry in col.items():
            cell = known.get(id(entry))
            if cell is None:
                cell = known[id(entry)] = _unit_multiple(entry)
                entries.setdefault(cell, entry)
            if cell[0] != grade:
                if grade is not None:
                    mixed = {_unit_multiple(e)[0] for e in col.values()}
                    raise ValueError(f"column {j} mixes {len(mixed)} grades")
                grade = cell[0]
            cells[i] = cell[1]
            pairs.append((i, cell[1]))
        pairs.sort()
        key = (grade, *pairs)
        if key in seen:
            continue
        seen.add(key)
        columns[j], grades[j] = cells, grade
        heap.append((vA[grade], j))
        for i in cells:
            meets[i].add(j)
    heapq.heapify(heap)
    # alpha(k', 0) by grade k', read when first needed
    factors: dict[int, int] = {}
    remaining = len(matrix.rows)
    total = 0
    while remaining:
        while heap:
            pivot_val, cj = heapq.heappop(heap)
            if cj in columns:
                break
        else:
            raise NotTorsion(
                f"{remaining} generators admit no further relations; "
                "the module is not torsion"
            )
        pivot_col, k = columns.pop(cj), grades[cj]
        ri = next(iter(pivot_col))
        for i in pivot_col:
            meets[i].discard(cj)
        u = pivot_col[ri]
        pivot = entries.get((k, u))
        if pivot is None:
            pivot = entries[k, u] = _elt(group, {group.elt(k): RatFun.from_poly(Poly.const(p, u))})
        ((neg_k, w),) = algebra_inverse(pivot, model).comps.items()
        scaled: dict[int, int] = {}
        if len(pivot_col) > 1:
            (e_k,) = pivot.comps
            s = _constant(w * model.entry(neg_k, e_k), "pivot^-1 alpha(-k, k)", k)
            scaled = {i: -s * b for i, b in pivot_col.items() if i != ri}
        pivot_rows = set(pivot_col)
        for j in meets.pop(ri):
            col = columns[j]
            if scaled:
                grade = grades[j]
                factor = factors.get(grade)
                if factor is None:
                    alpha = RatFun.from_poly(model.entry(group.elt(grade), group.zero()))
                    factor = factors[grade] = _constant(alpha, "alpha(k, 0)", grade)
                t = col[ri] * factor
            updated: dict[int, int] = {}
            # set(col) | set(pivot_col), built in place: this set's order
            # becomes the column's row order, which picks later pivot rows;
            # it is the order a full rescan builds
            touched = set(col)
            touched |= pivot_rows
            touched.discard(ri)
            for i in touched:
                if i not in scaled:
                    updated[i] = col[i]
                    continue
                c = (col.get(i, 0) + t * scaled[i]) % p
                if c:
                    updated[i] = c
                    meets[i].add(j)
                else:
                    meets[i].discard(j)
            if updated:
                columns[j] = updated
            else:
                del columns[j]
        remaining -= 1
        total += pivot_val
    return total


def oracle_multiplicity(model: LocalModel) -> int:
    """Length of the presented augmentation module at the model's place.

    Computed from first principles by SNF pivoting; at split places
    (local exponent 0) every basis element is a unit, each generator has
    a unit relation, and the length is 0 without any pivoting (the
    minimum formula does not apply there since all basis valuations tie).
    """
    if model.c == 0:
        return 0
    return snf_length(build_presentation(model), model)
