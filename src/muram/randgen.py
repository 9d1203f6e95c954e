"""Deterministic random model generators shared by tests and the fuzzer.

Everything takes an explicit random.Random so corpora are reproducible
from a seed.  "Normal" generators do rejection sampling against the
actual certification path, so whatever they return is accepted by the
ramification machinery by construction.
"""

from __future__ import annotations

import random

from .covering import Cocycle, KummerData
from .errors import ModelRejection
from .fppoly import Place, Poly, RatFun, is_irreducible, poly_valuation
from .pgroup import PGroup
from .ramification import ramification_divisor


def random_poly(rng: random.Random, p: int, deg: int, monic: bool = True) -> Poly:
    coeffs = [rng.randrange(p) for _ in range(deg)]
    coeffs.append(1 if monic else rng.randrange(1, p))
    return Poly(p, coeffs)


def random_irreducible(rng: random.Random, p: int, deg: int) -> Poly:
    while True:
        f = random_poly(rng, p, deg)
        if is_irreducible(f):
            return f


def random_nonzero_poly(rng: random.Random, p: int, max_deg: int) -> Poly:
    while True:
        f = Poly(p, [rng.randrange(p) for _ in range(rng.randrange(max_deg + 1) + 1)])
        if not f.is_zero():
            return f


def random_normal_cyclic_kummer(
    rng: random.Random, p: int, n: int, max_deg: int = 6
) -> KummerData:
    """f = pi^c * (distinct squarefree tail) with c coprime to p, resampled
    until the whole-model certification (both charts) accepts it."""
    q = p ** n
    group = PGroup(p, (n,))
    while True:
        pi = random_irreducible(rng, p, rng.choice((1, 1, 2)))
        coprime = [c for c in range(1, min(q, max_deg + 1)) if c % p]
        c = rng.choice(coprime)
        if pi.degree() * c > max_deg:
            continue
        f = pi ** c
        while f.degree() < max_deg and rng.random() < 0.5:
            tail = random_irreducible(rng, p, rng.choice((1, 2)))
            if f.degree() + tail.degree() > max_deg:
                break
            if poly_valuation(f, Place.finite(tail)) == 0:
                f = f * tail
        kd = KummerData(group, (f,))
        try:
            ramification_divisor(kd, include_infinity=True)
        except ModelRejection:
            continue
        return kd


def _distance_exponents(group: PGroup) -> dict:
    """d(m) = sum_i min(s_i, q_i - s_i): subadditive, so g^{d} twists
    keep every entry integral."""
    out = {}
    for m in group.elements():
        out[m] = sum(min(s, q - s) for s, q in zip(m.residues, group.factor_orders))
    return out


def random_integral_twist(rng: random.Random, group: PGroup) -> dict:
    """A coboundary that provably preserves integrality: constants times
    g^{k d(m)} for a fixed g, a fixed scale k, and the subadditive
    distance exponent d (scaling keeps subadditivity; per-element
    exponents would not)."""
    p = group.p
    g = random_irreducible(rng, p, 1)
    d = _distance_exponents(group)
    k = rng.randrange(3)
    out = {}
    for m in group.elements():
        if m.is_zero():
            continue
        const = Poly.const(p, rng.randrange(1, p)) if p > 2 else Poly.one(p)
        out[m] = RatFun.from_poly(const * g ** (k * d[m]))
    return out


def _random_twisted_kummer(rng: random.Random, p: int, n: int) -> KummerData:
    """A cyclic chart equation of degree 1 or 2 plus an integral twist."""
    group = PGroup(p, (n,))
    while True:
        f = random_poly(rng, p, rng.randrange(1, 3))
        if not f.derivative().is_zero():
            break
    return KummerData(group, (f,), random_integral_twist(rng, group))


def random_cyclic_cocycle(rng: random.Random, p: int, n: int) -> Cocycle:
    """Integral cyclic table: a chart equation of degree 1 or 2 plus an integral twist."""
    return _random_twisted_kummer(rng, p, n).to_cocycle()


def random_integral_column(rng: random.Random, p: int, n: int) -> list[Poly]:
    """The first column of a random integral cyclic table, formed without
    the table."""
    kd = _random_twisted_kummer(rng, p, n)
    one = kd.group.elt(1)
    return [kd.entry(kd.group.elt(i), one) for i in range(1, kd.group.order)]


def random_column(rng: random.Random, p: int, n: int) -> list[Poly]:
    """A column of nonzero entries of degree at most 2; usually fails integrality."""
    q = p ** n
    return [random_nonzero_poly(rng, p, 2) for _ in range(q - 1)]


def random_phi(rng: random.Random, group: PGroup) -> dict:
    return {
        m: Poly(group.p, [rng.randrange(group.p) for _ in range(3)])
        for m in group.elements()
    }
