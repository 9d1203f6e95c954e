"""Gorenstein locus and the dual-module determinant identity.

A graded covering is Gorenstein over a place exactly when some index l
has every structure constant alpha(i, j) with i + j = l a unit there;
the dual basis vector at l then generates the dual module, and the
matrix M(phi) = (alpha(i,j) phi_{i+j}) of a candidate generator phi is
monomial for phi = e_l^*.  gorenstein_at decides it from the entry
valuations, read off a potential where the table has one (Kummer data, a
Cocycle whose Kummer form is known, the chart at infinity over either)
and off stored entries otherwise.  With a potential P at v, so that
v(alpha(m, n)) = (P(m) + P(n) - P(m+n)) / |G|, the valuations on
anti-diagonal l add up to (2 sum_m P(m) - |G| P(l)) / |G|, because l - i
runs over G as i does.  An all-unit anti-diagonal sums to 0, so only the
l with |G| P(l) = 2 sum_m P(m) are scanned; the rest cannot be all
units.  The filter drops nothing the full scan would accept, so verdict
and witness are the scan's on every table, integral or not (on a
non-integral one a diagonal whose negative and positive valuations
cancel passes the filter and fails the scan).

For cyclic groups the determinant collapses to a twisted power sum

    det M(phi) = eps * sum_l c_l phi_l^{p^n},    c_l = prod_{i+j=l} alpha(i,j)

with a global sign eps.  The sign is det M(e_0^*) on the all-ones table,
whose c_0 is 1: that matrix has its single 1 of row i in column -i, so
eps is the sign of the permutation m -> -m, read in F_p (the closed form
(-1)^((q-1)/2) has a fractional exponent at p = 2).  Both determinant
routes are exposed so they can be compared as exact polynomials; the
elimination is the reference the tests hold the closed form and the sign
against.
"""

from __future__ import annotations

from .covering import Cocycle
from .errors import InternalInvariant, SizeLimit, UnsupportedGroup
from .fppoly import Place, Poly
from .pgroup import GElt, PGroup

BRUTE_FORCE_LIMIT = 16


def gorenstein_at(c, v: Place):
    """(verdict, witness): smallest l in canonical order with all
    alpha(i, j), i + j = l, units at v; witness None when there is none."""
    elements = list(c.group.elements())
    candidates = elements
    pot = c.potential(v)
    if pot is not None:  # the terms on l add up to (2 sum P - |G| P(l)) / |G|
        twice = 2 * sum(pot.values())
        candidates = [l for l in elements if c.group.order * pot[l] == twice]
    for l in candidates:
        if all(c.entry_valuation(i, l - i, v) == 0 for i in elements):
            return True, l
    return False, None


def diagonal_coefficients(c: Cocycle) -> dict[GElt, Poly]:
    """c_l = prod_{i+j=l} alpha(i, j)."""
    out = {}
    for l in c.group.elements():
        acc = Poly.one(c.group.p)
        for i in c.group.elements():
            acc = acc * c.entry(i, l - i)
        out[l] = acc
    return out


def _det_bareiss(rows: list[list[Poly]], p: int) -> Poly:
    """Fraction-free determinant over F_p[x]; exact divisions only."""
    n = len(rows)
    m = [row[:] for row in rows]
    sign = 1
    prev = Poly.one(p)
    for k in range(n - 1):
        if m[k][k].is_zero():
            swap = next((r for r in range(k + 1, n) if not m[r][k].is_zero()), None)
            if swap is None:
                return Poly.zero(p)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                quo, rem = divmod(num, prev)
                if not rem.is_zero():
                    raise InternalInvariant("fraction-free step produced a remainder")
                m[i][j] = quo
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def det_M_phi_bruteforce(c: Cocycle, phi: dict) -> Poly:
    """Exact determinant of (alpha(i,j) phi_{i+j}) by elimination."""
    group = c.group
    if group.order > BRUTE_FORCE_LIMIT:
        raise SizeLimit(f"brute-force determinant capped at order {BRUTE_FORCE_LIMIT}")
    elements = list(group.elements())
    zero = Poly.zero(group.p)
    rows = [
        [c.entry(i, j) * phi.get(i + j, zero) for j in elements] for i in elements
    ]
    return _det_bareiss(rows, group.p)


def derive_sign(p: int, n: int) -> int:
    """The global sign: det M(e_0^*) on the all-ones table of Z/p^n.

    Row i of that matrix holds a single 1, in column -i, so the
    determinant is (-1)^t in F_p, t the number of 2-cycles of m -> -m.
    Capped at the order the brute-force reference reaches.
    """
    if p ** n > BRUTE_FORCE_LIMIT:
        raise SizeLimit(f"sign derivation capped at order {BRUTE_FORCE_LIMIT}")
    two_cycles = sum(1 for m in PGroup(p, (n,)).elements() if -m != m) // 2
    return -1 if p != 2 and two_cycles % 2 else 1  # -1 = 1 in F_2


def det_M_phi_formula(c: Cocycle, phi: dict) -> Poly:
    """eps * sum_l c_l phi_l^{p^n}; cyclic groups only."""
    group = c.group
    if not group.is_cyclic:
        raise UnsupportedGroup("the closed-form determinant is proved for cyclic gradings only")
    eps = derive_sign(group.p, group.exponents[0])
    zero = Poly.zero(group.p)
    acc = zero
    for l, c_l in diagonal_coefficients(c).items():
        acc = acc + c_l * (phi.get(l, zero) ** group.order)
    return acc if eps == 1 else -acc


def sign_table() -> dict:
    """Derived signs for all prime powers up to the brute-force cap."""
    out = {}
    for p in (2, 3, 5, 7, 11, 13):
        n = 1
        while p ** n <= BRUTE_FORCE_LIMIT:
            out[(p, n)] = derive_sign(p, n)
            n += 1
    return out
