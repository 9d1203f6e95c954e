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
exact arithmetic in the graded algebra: pick a nonzero entry of
globally minimal valuation, clear its row by column operations (the
quotients stay integral because the pivot valuation is minimal), split
off A/(pivot), and recurse; the length is the sum of pivot valuations.
Nothing here consults the closed-form multiplicity |M/N_y| - 1; the two
routes are compared from the outside.  Every pivot is a monomial (see
below), so algebra_inverse inverts it in closed form from e_m e_{-m} =
alpha(m,-m) e_0, a polynomial in pi of the local model's table.

The presentation is graded: column (k, l) holds only +-e_k, a unit
multiple of the one basis element e_k.  Pivoting keeps it so on a local
model's table, which is a normalized symmetric cocycle.  A pivot u e_k
scales an entry b e_k of its column to -pivot^{-1} b e_k = -(b/u) e_0,
and a column of grade k' with entry c e_{k'} in the pivot row gets
c (-(b/u)) alpha(k', 0) e_{k'} = -(cb/u) e_{k'} added.  So every entry
stays c e_k with c in F_p^x (a sum of two is again one, or zero and
dropped), of valuation v_A(e_k), and one valuation per column decides
every pivot; snf_length refuses any other column.
Elimination does only the work that can change the answer (details at
snf_length).  The pivot column is scaled once by minus the pivot's
inverse, which reassociates (c pivot^{-1}) b as c (pivot^{-1} b); that is
exact because the table is a symmetric cocycle.  Columns equal to an earlier one,
which characteristic 2 makes (-e_k = e_k), are dropped before pivoting.

algebra_valuation values any element; snf_length never calls it.  The
basis valuations, which the local model derives from its exponent
c != 0, are pairwise distinct mod p^n, so graded components can never
cancel: v_A(sum a_m e_m) = min_m (p^n v_pi(a_m) + v_A(e_m)).
snf_length checks the same condition, which a split place (c = 0) fails.
"""

from __future__ import annotations

import heapq
from collections import defaultdict

from .algebra import AlgebraElt, algebra_inverse
from .errors import CancellationRisk, NotTorsion, ZeroElement
from .fppoly import Place, valuation
from .pgroup import GElt
from .ramification import LocalModel


class PresentationMatrix:
    """Sparse column-major presentation of the augmentation module.

    ``columns[j]`` maps row index -> AlgebraElt; column j corresponds to
    the pair (k, l) in ``labels[j]`` and carries +e_k at row k+l and
    -e_k at row l, rows indexed by the nonzero group elements (at most
    two nonzero entries per column; k = 0 columns vanish).
    """

    def __init__(self, rows: tuple[GElt, ...], labels: tuple[tuple[GElt, GElt], ...],
                 columns: list[dict[int, AlgebraElt]]):
        self.rows = rows
        self.labels = labels
        self.columns = columns

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rows, self.labels, self.columns) == (other.rows, other.labels, other.columns)

    def __repr__(self):
        return (f"PresentationMatrix(rows={self.rows!r}, labels={self.labels!r}, "
                f"columns={self.columns!r})")

    @property
    def shape(self):
        return (len(self.rows), len(self.labels))


def build_presentation(model: LocalModel) -> PresentationMatrix:
    group = model.group
    elements = list(group.elements())
    rows = tuple(m for m in elements if not m.is_zero())
    row_index = {m: i for i, m in enumerate(rows)}
    labels = tuple((k, l) for k in elements for l in elements)
    columns: list[dict[int, AlgebraElt]] = []
    for k in elements:
        if k.is_zero():
            columns.extend({} for _ in elements)
            continue
        # the k columns share one e_k and one -e_k; rows k+l and l differ
        e_k = AlgebraElt.basis(group, k)
        neg_e_k = -e_k
        for l in elements:
            col = {}
            top = row_index.get(k + l)  # None when k + l = 0, which is no row
            if top is not None:
                col[top] = e_k
            if l in row_index:
                col[row_index[l]] = neg_e_k
            columns.append(col)
    return PresentationMatrix(rows=rows, labels=labels, columns=columns)


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
    them; anything else raises ValueError.  Elimination keeps columns
    graded (see the module docstring), so every entry of a column has the
    valuation v_A(e_k) of its grade for as long as it lives, and nothing
    is valued after setup.  Invariant under column permutation,
    duplication, and unit scaling; additive over block-diagonal
    presentations.  Raises NotTorsion when rows remain but no nonzero
    entries are left.

    The pivot is the first row, in the column's own order, of the first
    live column of minimal valuation; a heap keyed by (valuation, column)
    gives that column.  A column equal to an earlier one is dropped
    before pivoting: it never wins that tie, and once the earlier copy is
    the pivot it clears to zero.  A row index lists the columns meeting
    each row, so a step visits only those.  The pivot column is scaled
    once, s_i = -pivot^{-1} b_i, and a column with entry c in the pivot
    row gets a_i + c s_i, one product per other entry of the pivot
    column, and c s_i itself where it had no entry; the rows only it has
    keep their entries, and an entry that cancels is dropped.
    """
    vA = _basis_valuations(model)
    # live columns by original index, each {row: entry}; each entry object
    # (alive in matrix, so its id is stable) is read once for its grade and
    # coefficient, and equal columns have equal sorted (row, (grade,
    # coefficient)) pairs
    columns: dict[int, dict[int, AlgebraElt]] = {}
    known: dict[int, tuple[int, int]] = {}
    seen: set[tuple[tuple[int, tuple[int, int]], ...]] = set()
    # (valuation, column) of every column kept, and the live columns
    # meeting each row
    heap: list[tuple[int, int]] = []
    meets: defaultdict[int, set[int]] = defaultdict(set)
    for j, col in enumerate(matrix.columns):
        if not col:
            continue
        cells = []
        for i, entry in col.items():
            if id(entry) not in known:
                known[id(entry)] = _unit_multiple(entry)
            cells.append((i, known[id(entry)]))
        grades = {s for _, (s, _) in cells}
        if len(grades) != 1:
            raise ValueError(f"column {j} mixes {len(grades)} grades")
        key = tuple(sorted(cells))
        if key in seen:
            continue
        seen.add(key)
        columns[j] = col
        heap.append((vA[grades.pop()], j))
        for i in col:
            meets[i].add(j)
    heapq.heapify(heap)
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
        pivot_col = columns.pop(cj)
        ri = next(iter(pivot_col))
        for i in pivot_col:
            meets[i].discard(cj)
        neg_inv = -algebra_inverse(pivot_col[ri], model)
        scaled = {i: neg_inv.mul(b, model) for i, b in pivot_col.items() if i != ri}
        for j in meets.pop(ri):
            col = columns[j]
            c = col[ri]
            updated: dict[int, AlgebraElt] = {}
            # this set's order becomes the column's row order, which picks
            # later pivot rows; it is the order a full rescan builds
            touched = set(col) | set(pivot_col)
            touched.discard(ri)
            for i in touched:
                if i not in scaled:
                    updated[i] = col[i]
                    continue
                w = c.mul(scaled[i], model)
                if i in col:
                    w = col[i] + w
                if w:
                    updated[i] = w
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
