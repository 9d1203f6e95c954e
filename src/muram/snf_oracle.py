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
a normalized one), else snf_length raises ValueError; alpha(k', 0) is
read at the first pivot with a second entry, for every grade that may
still need it, formed or not.  So every entry stays c e_k with
c in F_p^x (a sum of two is again one, or zero and dropped), of
valuation v_A(e_k), and one valuation per column decides every pivot;
snf_length refuses any other column.
Elimination does only the work that can change the answer (details at
snf_length).  The pivot column is scaled once by minus the pivot's
inverse, which reassociates (c pivot^{-1}) b as c (pivot^{-1} b); that is
exact because the table is a symmetric cocycle.  build_presentation
places entries by residue, with no group arithmetic.

snf_length works grade by grade.  Distinct grades have distinct
valuations, and elimination never changes a column's grade, so every
pivot of one grade comes before any pivot of a grade of higher
valuation.  Setup only reads each column once, checks its grade and
lists its index under that grade.  A grade's columns are formed (cells,
duplicate keys, row index) only when every column formed so far is
spent, least valuation first; on the presentations of local models
tried so far every pivot came from the first grade, so no other grade
was ever formed.  A newly formed column replays, in order, the earlier
pivots whose rows it meets, with the same update as the elimination,
which is exactly what those pivots would have done to it: column
operations act on each column on its own.  Reading alpha(k', 0) for
grades never formed makes snf_length refuse some hand-made matrices on
which eliminating every column at once returns a length (see
snf_length).

algebra_valuation values any element; snf_length never calls it.  The
basis valuations, which the local model derives from its exponent
c != 0, are pairwise distinct mod p^n, so graded components can never
cancel: v_A(sum a_m e_m) = min_m (p^n v_pi(a_m) + v_A(e_m)).
snf_length checks the same condition, which a split place (c = 0) fails.
"""

from __future__ import annotations

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


def _cleared(col: dict[int, int], ri: int, t: int, scaled: dict[int, int],
             pivot_rows: set[int], p: int) -> dict[int, int]:
    """col with row ri cleared by the pivot: t times the scaled pivot
    column s_i added mod p, and a cell that reaches 0 dropped."""
    updated: dict[int, int] = {}
    # set(col) | pivot_rows, built in place: this set's order becomes the
    # column's row order, which picks later pivot rows; it is the order a
    # full rescan builds
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
    return updated


def snf_length(matrix: PresentationMatrix, model: LocalModel) -> int:
    """Length of the cokernel of a graded presentation by minimal-valuation
    pivoting.

    Every column must be graded: each of its entries is c e_k with
    c in F_p^x, for one k per column, as ``build_presentation`` makes
    them; anything else raises ValueError.  Setup reads each column once:
    an entry object's (grade, coefficient) once by id (the matrix keeps it
    alive), the one grade checked as the entries are read, and the
    column's index listed under its grade; nothing else is formed.  A live
    column is its cells {row: c} of the grade k being eliminated, and
    elimination runs on ints mod p, so every cell keeps the valuation
    v_A(e_k) of its grade and nothing is valued.  Invariant under column
    permutation, duplication, and unit scaling; additive over
    block-diagonal presentations.  Raises NotTorsion when rows remain but
    no nonzero entries are left.

    The pivot is the first row, in the column's own order, of the first
    live column, by index, of minimal valuation.  Grades have distinct
    valuations and a column keeps its grade, so that column is the next
    live one of grade k in index order, and when grade k has none left
    the grade of next least valuation is formed: its columns are read into
    cells, each replays the logged (pivot row, scaled pivot column, pivot
    rows) of the earlier pivots whose rows it meets, in pivot order, and
    the columns left nonzero become live.  A column equal to an earlier
    one of its grade is dropped when the grade is formed: it never wins
    the index tie, and once the earlier copy is the pivot it clears to
    zero.  A row index lists the live columns meeting each row, so a step
    visits only those.  Each pivot u e_k is inverted
    once by algebra_inverse, as the matrix's own entry when it has one of
    that grade and coefficient.  When the pivot column has other entries
    b_i, the inverse's coefficient times alpha(-k, k) must be a constant
    s (u^{-1} on a symmetric table), the pivot column scales to
    s_i = -s b_i, and a column of grade k' with entry c in the pivot row
    gets c s_i alpha(k', 0) added mod p.  alpha(k', 0) must be a nonzero
    constant; it is read at the first pivot with a second entry, for the
    pivot's grade and every grade not yet formed, whose columns may meet
    pivot rows when they replay, so the check holds for grades that are
    never formed too.  Either factor failing raises ValueError.  The rows
    only that column has keep their cells, and a cell that reaches 0 is
    dropped.

    On a matrix that build_presentation did not make, a grade not yet
    formed whose alpha(k', 0) is not a nonzero constant is refused even
    where eliminating every column at once would never read it (its
    columns meet no row of a scaled pivot column, or all duplicate
    earlier ones), so such a matrix can raise ValueError where that
    elimination returns a length.
    """
    vA = _basis_valuations(model)
    p, group = model.p, model.group
    # read pass: (grade, coefficient) by entry id, an entry by (grade,
    # coefficient) for the pivots, and the column indices of each grade
    known: dict[int, tuple[int, int]] = {}
    entries: dict[tuple[int, int], AlgebraElt] = {}
    pending: defaultdict[int, list[int]] = defaultdict(list)
    for j, col in enumerate(matrix.columns):
        grade = None
        for entry in col.values():
            cell = known.get(id(entry))
            if cell is None:
                cell = known[id(entry)] = _unit_multiple(entry)
                entries.setdefault(cell, entry)
            if cell[0] != grade:
                if grade is not None:
                    mixed = {_unit_multiple(e)[0] for e in col.values()}
                    raise ValueError(f"column {j} mixes {len(mixed)} grades")
                grade = cell[0]
        if grade is not None:
            pending[grade].append(j)
    # the grades still to form, the next (least valuation) last
    order = sorted(pending, key=vA.__getitem__, reverse=True)
    # the live columns, all of grade k, by index, each {row: coefficient},
    # taken as pivots in index order from queue; the live columns per row
    columns: dict[int, dict[int, int]] = {}
    queue = iter(())
    meets: defaultdict[int, set[int]] = defaultdict(set)
    # (pivot number, scaled, pivot rows) of every pivot, by its row
    pivots: dict[int, tuple[int, dict[int, int], set[int]]] = {}
    # alpha(k', 0) by grade k', read at the first pivot with a second entry
    factors: dict[int, int] = {}
    remaining = len(matrix.rows)
    total = 0
    while remaining:
        cj = next((j for j in queue if j in columns), None)
        if cj is None:
            if not order:
                raise NotTorsion(
                    f"{remaining} generators admit no further relations; "
                    "the module is not torsion"
                )
            k = order.pop()
            factor = factors.get(k)  # None until a pivot has a second entry
            kept, seen = [], set()
            for j in pending.pop(k):
                cells = {i: known[id(entry)][1] for i, entry in matrix.columns[j].items()}
                key = tuple(sorted(cells.items()))
                if key in seen:
                    continue
                seen.add(key)
                # the earlier pivots whose rows it meets, in pivot order: a
                # pivot adds only rows that no earlier pivot took, so the
                # earliest pivot among the column's rows is the next to act
                while cells:
                    ri = min((i for i in cells if i in pivots), key=pivots.get, default=None)
                    if ri is None:
                        break
                    _, scaled, pivot_rows = pivots[ri]
                    cells = _cleared(cells, ri, cells[ri] * factor if scaled else 0,
                                     scaled, pivot_rows, p)
                if cells:
                    columns[j] = cells
                    kept.append(j)
                    for i in cells:
                        meets[i].add(j)
            queue = iter(kept)
            continue
        pivot_col = columns.pop(cj)
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
            if not factors:
                # grade k and every grade not yet formed, once
                for grade in (k, *order):
                    alpha = RatFun.from_poly(model.entry(group.elt(grade), group.zero()))
                    factors[grade] = _constant(alpha, "alpha(k, 0)", grade)
            factor = factors[k]
        pivot_rows = set(pivot_col)
        pivots[ri] = (len(pivots), scaled, pivot_rows)
        for j in meets.pop(ri):
            col = columns[j]
            updated = _cleared(col, ri, col[ri] * factor if scaled else 0, scaled, pivot_rows, p)
            for i in scaled:
                if i in updated:
                    meets[i].add(j)
                else:
                    meets[i].discard(j)
            if updated:
                columns[j] = updated
            else:
                del columns[j]
        remaining -= 1
        total += vA[k]
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
