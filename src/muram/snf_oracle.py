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
routes are compared from the outside.  Pivots are inverted by
algebra_inverse: a monomial pivot c e_m, the usual case, in closed form
from e_m e_{-m} = alpha(m,-m) e_0, anything else by the dense solve.

Elimination does only the work that can change the answer (details at
snf_length).  The pivot column is scaled once by minus the pivot's
inverse, which reassociates (c pivot^{-1}) b as c (pivot^{-1} b); that is
exact because a local model's table is a symmetric cocycle.  New valuations
follow the ultrametric rule, and only ties are valued afresh.  Cached
column minima give the pivot without a rescan and in the rescan's tie
order (first column, then first row), so the pivot sequence is unchanged.
Columns equal to an earlier one, which characteristic 2 makes
(-e_k = e_k), are dropped before pivoting.

Valuations in A use that the basis valuations, which the local model
derives from its exponent c != 0, are pairwise distinct mod p^n, so graded
components can never cancel: v_A(sum a_m e_m) = min_m (p^n v_pi(a_m) + v_A(e_m)).
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from .algebra import AlgebraElt, algebra_inverse
from .errors import CancellationRisk, NotTorsion, ZeroElement
from .fppoly import Place, valuation
from .pgroup import GElt
from .ramification import LocalModel


@dataclass
class PresentationMatrix:
    """Sparse column-major presentation of the augmentation module.

    ``columns[j]`` maps row index -> AlgebraElt; column j corresponds to
    the pair (k, l) in ``labels[j]`` and carries +e_k at row k+l and
    -e_k at row l, rows indexed by the nonzero group elements (at most
    two nonzero entries per column; k = 0 columns vanish).
    """

    rows: tuple[GElt, ...]
    labels: tuple[tuple[GElt, GElt], ...]
    columns: list[dict[int, AlgebraElt]]

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


def _valuation(model: LocalModel) -> Callable[[AlgebraElt], int]:
    """v_A on nonzero elements, once the basis valuations are checked
    pairwise distinct mod p^n."""
    q, vA = model.q, model.vA
    if len({v % q for v in vA}) != q:
        raise CancellationRisk("basis valuations collide mod p^n; the minimum formula may cancel")
    place = Place._of_irreducible(model.pi)
    return lambda elt: min(
        q * valuation(coeff, place) + vA[m.residues[0]] for m, coeff in elt.comps.items()
    )


def algebra_valuation(a: AlgebraElt, model: LocalModel) -> int:
    """min_m (p^n * v_pi(a_m) + v_A(e_m)); exact because the basis
    valuations are pairwise distinct mod p^n (checked)."""
    val = _valuation(model)
    if a.is_zero():
        raise ZeroElement("the zero element has no valuation")
    return val(a)


def _column_min(col: dict[int, tuple[AlgebraElt, int]]) -> tuple[int, int]:
    """(minimal valuation, first row reaching it in the column's order)."""
    best = None
    for i, (_, v) in col.items():
        if best is None or v < best[0]:
            best = (v, i)
    return best


def snf_length(matrix: PresentationMatrix, model: LocalModel) -> int:
    """Length of the cokernel by minimal-valuation pivoting.

    Invariant under column permutation, duplication, and unit scaling;
    additive over block-diagonal presentations.  Raises NotTorsion when
    rows remain but no nonzero entries are left.

    The pivot is the first entry of minimal valuation in the first column
    that has one, rows in the column's order.  A column equal to an earlier
    one is dropped before pivoting: it never wins that tie, and once the
    earlier copy is the pivot it clears to zero.  Each live column's
    (minimal valuation, first row reaching it) sits in a heap keyed by
    (valuation, column), where an entry whose column has changed since is
    skipped, and a row index lists the columns meeting each row, so a step
    visits only those.  The pivot column is scaled once,
    s_i = -pivot^{-1} b_i, and a column with entry c in the pivot row gets
    a_i + c s_i, one product per other entry of the pivot column, and c s_i
    itself where it had no entry; the rows only it has keep their entries.
    The new valuation is
    min(v(a_i), v(c) + v(b_i) - v(pivot)) when the two differ; only a tie
    is valued afresh, and a tie that cancels drops the entry.
    """
    val = _valuation(model)
    # live columns by original index, each {row: (entry, valuation)}; each
    # entry object (alive in matrix, so its id is stable) is valued and
    # given a token for its value once, and equal columns have equal sorted
    # (row, token) pairs
    columns: dict[int, dict[int, tuple[AlgebraElt, int]]] = {}
    known: dict[int, tuple[int, int]] = {}
    tokens: dict[AlgebraElt, int] = {}
    seen: set[tuple[tuple[int, int], ...]] = set()
    # (valuation, column, row) of each column minimum as it arose, current
    # or stale, and the live columns meeting each row
    heap: list[tuple[int, int, int]] = []
    meets: defaultdict[int, set[int]] = defaultdict(set)
    for j, col in enumerate(matrix.columns):
        if not col:
            continue
        cells = {}
        key = []
        for i, entry in col.items():
            info = known.get(id(entry))
            if info is None:
                info = known[id(entry)] = (tokens.setdefault(entry, len(tokens)), val(entry))
            cells[i] = (entry, info[1])
            key.append((i, info[0]))
        key.sort()
        key = tuple(key)
        if key in seen:
            continue
        seen.add(key)
        columns[j] = cells
        v, i = _column_min(cells)
        heap.append((v, j, i))
        for i in cells:
            meets[i].add(j)
    heapq.heapify(heap)
    remaining = len(matrix.rows)
    total = 0
    while remaining:
        while heap:
            pivot_val, cj, ri = heapq.heappop(heap)
            if cj in columns and _column_min(columns[cj]) == (pivot_val, ri):
                break
        else:
            raise NotTorsion(
                f"{remaining} generators admit no further relations; "
                "the module is not torsion"
            )
        pivot_col = columns.pop(cj)
        for i in pivot_col:
            meets[i].discard(cj)
        neg_inv = -algebra_inverse(pivot_col[ri][0], model)
        scaled = {
            i: (neg_inv.mul(b, model), vb - pivot_val)
            for i, (b, vb) in pivot_col.items()
            if i != ri
        }
        for j in meets.pop(ri):
            col = columns[j]
            old = _column_min(col)
            c, vc = col[ri]
            updated: dict[int, tuple[AlgebraElt, int]] = {}
            # this set's order becomes the column's row order, which breaks
            # later ties; it is the order a full rescan builds
            touched = set(col) | set(pivot_col)
            touched.discard(ri)
            for i in touched:
                if i not in scaled:
                    updated[i] = col[i]
                    continue
                s, vs = scaled[i]
                prod = c.mul(s, model)
                vp = vc + vs
                if i not in col:
                    updated[i] = (prod, vp)
                    meets[i].add(j)
                    continue
                a, va = col[i]
                w = a + prod
                if va != vp:
                    updated[i] = (w, min(va, vp))
                elif w:
                    updated[i] = (w, val(w))
                else:
                    meets[i].discard(j)
            if updated:
                columns[j] = updated
                best = _column_min(updated)
                if best != old:
                    heapq.heappush(heap, (best[0], j, best[1]))
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
