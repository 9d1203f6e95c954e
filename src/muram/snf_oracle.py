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

Valuations in A use that the basis valuations, which the local model
derives from its exponent c != 0, are pairwise distinct mod p^n, so graded
components can never cancel: v_A(sum a_m e_m) = min_m (p^n v_pi(a_m) + v_A(e_m)).
"""

from __future__ import annotations

import math
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
    labels = []
    columns = []
    for k in elements:
        for l in elements:
            labels.append((k, l))
            col: dict[int, AlgebraElt] = {}
            if not k.is_zero():
                e_k = AlgebraElt.basis(group, k)
                top = k + l
                if not top.is_zero():
                    col[row_index[top]] = e_k
                if not l.is_zero():
                    prev = col.get(row_index[l])
                    entry = (prev - e_k) if prev is not None else -e_k
                    if entry.is_zero():
                        del col[row_index[l]]
                    else:
                        col[row_index[l]] = entry
            columns.append(col)
    return PresentationMatrix(rows=rows, labels=tuple(labels), columns=columns)


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


def snf_length(matrix: PresentationMatrix, model: LocalModel) -> int:
    """Length of the cokernel by minimal-valuation pivoting.

    Invariant under column permutation, duplication, and unit scaling;
    additive over block-diagonal presentations.  Raises NotTorsion when
    rows remain but no nonzero entries are left.
    """
    val = _valuation(model)
    # columns as {row: (entry, valuation)}
    columns = [
        {i: (entry, val(entry)) for i, entry in col.items()}
        for col in matrix.columns
        if col
    ]
    remaining = len(matrix.rows)
    total = 0
    while remaining:
        pivot_val = math.inf
        pivot = None
        for cj, col in enumerate(columns):
            for ri, (_, v) in col.items():
                if v < pivot_val:
                    pivot_val = v
                    pivot = (cj, ri)
        if pivot is None:
            raise NotTorsion(
                f"{remaining} generators admit no further relations; "
                "the module is not torsion"
            )
        cj, ri = pivot
        pivot_col = columns[cj]
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
            updated: dict[int, tuple[AlgebraElt, int]] = {}
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
        total += int(pivot_val)
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
