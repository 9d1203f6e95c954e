"""Gorenstein locus and the dual-module determinant identity.

A graded covering is Gorenstein over a place exactly when some index l
has every structure constant alpha(i, j) with i + j = l a unit there;
the dual basis vector at l then generates the dual module, and the
matrix M(phi) = (alpha(i,j) phi_{i+j}) of a candidate generator phi is
monomial for phi = e_l^*.  For cyclic groups the determinant collapses
to a twisted power sum

    det M(phi) = eps * sum_l c_l phi_l^{p^n},    c_l = prod_{i+j=l} alpha(i,j)

with a global sign eps.  The sign is always derived by comparing the
monomial-matrix determinant with c_l directly (the closed form has a
fractional exponent at p = 2), cached per (p, n), and cross-checked on
a sample table; both determinant routes are exposed so they can be
compared as exact polynomials.
"""

from __future__ import annotations

from .covering import Cocycle, KummerData
from .errors import InternalInvariant, NoConsistentSign, NotGorensteinHere, SizeLimit
from .errors import UnsupportedGroup
from .fppoly import Place, Poly
from .pgroup import GElt

BRUTE_FORCE_LIMIT = 16

_SIGN_CACHE: dict[tuple[int, int], int] = {}


def gorenstein_at(c, v: Place):
    """(verdict, witness): smallest l in canonical order with all
    alpha(i, j), i + j = l, units at v; witness None when there is none."""
    elements = list(c.group.elements())
    for l in elements:
        if all(c.entry_valuation(i, l - i, v) == 0 for i in elements):
            return True, l
    return False, None


def dual_generator(c: Cocycle, v: Place) -> GElt:
    """Witness index l whose dual basis vector generates the dual module.

    The matrix of e_l^* is monomial with determinant +/- c_l, so the
    generator contract is exactly the unit test of the witness diagonal.
    """
    ok, l = gorenstein_at(c, v)
    if not ok:
        raise NotGorensteinHere(f"no unit anti-diagonal at {v}")
    return l


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
    """The global sign, derived and cached.

    Computed as the determinant of the monomial matrix of e_0^* on the
    all-ones table (whose diagonal coefficient is 1), then cross-checked
    against a non-trivial table; a mismatch would be a bug, reported as
    NoConsistentSign rather than a wrong sign.
    """
    if p ** n > BRUTE_FORCE_LIMIT:
        raise SizeLimit(f"sign derivation capped at order {BRUTE_FORCE_LIMIT}")
    key = (p, n)
    if key in _SIGN_CACHE:
        return _SIGN_CACHE[key]
    from .pgroup import PGroup

    group = PGroup(p, (n,))
    trivial = Cocycle.trivial(group)
    one = Poly.one(p)
    indicator = {group.zero(): one}
    det = det_M_phi_bruteforce(trivial, indicator)
    if det == one:
        eps = 1
    elif det == -one:
        eps = -1
    else:
        raise NoConsistentSign(f"monomial determinant {det} is not a sign")
    # cross-check on a non-trivial table and generic-ish phi
    x = Poly.x(p)
    sample = KummerData(group, (x + Poly.one(p),)).to_cocycle()
    phi = {m: Poly(p, [1, (1 + m.residues[0]) % p]) for m in group.elements()}
    brute = det_M_phi_bruteforce(sample, phi)
    if brute != _formula_with_sign(sample, phi, eps):
        raise NoConsistentSign(f"derived sign {eps} fails the cross-check at (p,n)=({p},{n})")
    _SIGN_CACHE[key] = eps
    return eps


def _formula_with_sign(c: Cocycle, phi: dict, eps: int) -> Poly:
    group = c.group
    q = group.order
    zero = Poly.zero(group.p)
    acc = Poly.zero(group.p)
    for l, c_l in diagonal_coefficients(c).items():
        acc = acc + c_l * (phi.get(l, zero) ** q)
    return acc if eps == 1 else -acc


def det_M_phi_formula(c: Cocycle, phi: dict) -> Poly:
    """eps * sum_l c_l phi_l^{p^n}; cyclic groups only."""
    group = c.group
    if not group.is_cyclic:
        raise UnsupportedGroup("the closed-form determinant is proved for cyclic gradings only")
    eps = derive_sign(group.p, group.exponents[0])
    return _formula_with_sign(c, phi, eps)


def sign_table(limit: int = BRUTE_FORCE_LIMIT) -> dict:
    """Derived signs for all prime powers up to the brute-force cap."""
    out = {}
    for p in (2, 3, 5, 7, 11, 13):
        n = 1
        while p ** n <= limit:
            out[(p, n)] = derive_sign(p, n)
            n += 1
    return out
