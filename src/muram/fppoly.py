"""Exact univariate arithmetic over a prime field F_p.

Dense polynomials, reduced rational functions, places of the projective
line (monic irreducibles plus infinity) with their valuations, and full
factorization (squarefree split, distinct-degree, equal-degree).  All
values are immutable after construction and all operations are pure, so
everything here is safe to share across threads.

The chart variable is anonymous: the same Poly class serves both the
affine chart (variable x) and the chart at infinity (variable u = 1/x);
which chart a polynomial lives on is tracked by the caller.
"""

from __future__ import annotations

import random

from .errors import CharMismatch, ZeroElement, ZeroPolynomial

_PRIME_CACHE: set[int] = set()


def _check_prime(p: int) -> None:
    if p in _PRIME_CACHE:
        return
    if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
        raise ValueError(f"characteristic {p} is not prime")
    _PRIME_CACHE.add(p)


class Poly:
    """Polynomial over F_p, coefficients lowest-degree first, trimmed."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p, coeffs):
        _check_prime(p)
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.p = p
        self.coeffs = tuple(cs)

    # construction helpers

    @classmethod
    def zero(cls, p):
        return cls(p, ())

    @classmethod
    def one(cls, p):
        return cls(p, (1,))

    @classmethod
    def const(cls, p, c):
        return cls(p, (c,))

    @classmethod
    def x(cls, p):
        return cls(p, (0, 1))

    # structure

    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return self.coeffs == (1,)

    def is_constant(self):
        return len(self.coeffs) <= 1

    def lc(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def monic(self):
        if self.is_zero():
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        inv = pow(self.lc(), self.p - 2, self.p)
        return Poly(self.p, [c * inv for c in self.coeffs])

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.coeffs))

    # arithmetic

    def _same(self, other):
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if self.p != other.p:
            raise CharMismatch(f"characteristics differ: {self.p} vs {other.p}")

    def __add__(self, other):
        self._same(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.p
        return Poly(self.p, out)

    def __neg__(self):
        return Poly(self.p, [-c for c in self.coeffs])

    def __sub__(self, other):
        self._same(other)
        a, b = self.coeffs, other.coeffs
        out = list(a) + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] = (out[i] - c) % self.p
        return Poly(self.p, out)

    def __mul__(self, other):
        self._same(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.p)
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(self.p, out)

    def scale(self, c):
        return Poly(self.p, [c * a for a in self.coeffs])

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative exponent on Poly")
        result = Poly.one(self.p)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other):
        self._same(other)
        if other.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        p = self.p
        rem = list(self.coeffs)
        db = other.degree()
        inv_lc = pow(other.coeffs[-1], p - 2, p)
        if len(rem) - 1 < db:
            return Poly.zero(p), self
        quo = [0] * (len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i] % p
            if c:
                q = (c * inv_lc) % p
                quo[i - db] = q
                for j, cb in enumerate(other.coeffs):
                    rem[i - db + j] = (rem[i - db + j] - q * cb) % p
        return Poly(p, quo), Poly(p, rem[:db])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def derivative(self):
        return Poly(self.p, [i * c for i, c in enumerate(self.coeffs)][1:])

    def reversed_coeffs(self):
        """The reciprocal polynomial: coefficients in reverse order.

        For f of degree d this is u^d * f(1/u); its constant term is the
        leading coefficient of f, so it is never divisible by u.
        """
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has no reciprocal")
        return Poly(self.p, list(reversed(self.coeffs)))

    def pth_root(self):
        """Exact p-th root of a polynomial with vanishing derivative."""
        p = self.p
        if any(c and i % p for i, c in enumerate(self.coeffs)):
            raise ValueError("polynomial is not a p-th power")
        # over F_p every coefficient is its own p-th root
        return Poly(p, [self.coeffs[i] for i in range(0, len(self.coeffs), p)])

    def __repr__(self):
        return f"Poly({self.p}, {list(self.coeffs)})"

    def __str__(self):
        if self.is_zero():
            return "0"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("x" if c == 1 else f"{c}*x")
            else:
                terms.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
        return " + ".join(terms)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) is 0."""
    a._same(b)
    while not b.is_zero():
        a, b = b, a % b
    return a if a.is_zero() else a.monic()


def powmod(base: Poly, e: int, mod: Poly) -> Poly:
    result = Poly.one(base.p)
    base = base % mod
    while e:
        if e & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        e >>= 1
    return result


def is_pth_power(f: Poly) -> bool:
    """True when f = g^p for some g; over the perfect field F_p this is
    exactly the vanishing of the derivative (constants included)."""
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial")
    return f.derivative().is_zero()


# factorization ---------------------------------------------------------

def _squarefree_decomposition(f: Poly) -> dict[Poly, int]:
    """f monic, non-constant -> {monic squarefree part: multiplicity}."""
    p = f.p
    out: dict[Poly, int] = {}
    df = f.derivative()
    if df.is_zero():
        for g, m in _squarefree_decomposition(f.pth_root()).items():
            out[g] = out.get(g, 0) + m * p
        return out
    c = poly_gcd(f, df)
    w = f // c
    i = 1
    while w.degree() > 0:
        y = poly_gcd(w, c)
        z = w // y
        if z.degree() > 0:
            out[z] = out.get(z, 0) + i
        w = y
        c = c // y
        i += 1
    if c.degree() > 0:
        for g, m in _squarefree_decomposition(c.pth_root()).items():
            out[g] = out.get(g, 0) + m * p
    return out


def _distinct_degree(f: Poly):
    """f monic squarefree -> [(product of degree-d irreducibles, d)]."""
    p = f.p
    out = []
    x = Poly.x(p)
    h = x
    rest = f
    d = 0
    while rest.degree() > 2 * d:
        d += 1
        h = powmod(h, p, rest)
        g = poly_gcd(h - x, rest)
        if g.degree() > 0:
            out.append((g, d))
            rest = rest // g
            h = h % rest
    if rest.degree() > 0:
        out.append((rest, rest.degree()))
    return out


def _random_poly(p, deg, rng):
    return Poly(p, [rng.randrange(p) for _ in range(deg)] + [1])


def _equal_degree_split(f: Poly, d: int, rng) -> list[Poly]:
    """Cantor-Zassenhaus: f monic squarefree, all factors of degree d."""
    p = f.p
    if f.degree() == d:
        return [f]
    while True:
        h = _random_poly(p, rng.randrange(1, f.degree()), rng)
        if p == 2:
            # trace map splits in characteristic 2
            t = h
            acc = h
            for _ in range(d - 1):
                t = (t * t) % f
                acc = (acc + t) % f
            g = poly_gcd(acc, f)
        else:
            e = (p ** d - 1) // 2
            g = poly_gcd(powmod(h, e, f) - Poly.one(p), f)
        if 0 < g.degree() < f.degree():
            return _equal_degree_split(g, d, rng) + _equal_degree_split(f // g, d, rng)


def factor(f: Poly) -> dict[Poly, int]:
    """Factor into monic irreducibles with multiplicities.

    The leading coefficient times the product of the factors (with
    multiplicity) reproduces f exactly.  Constants factor as the empty
    multiset.  The equal-degree split is seeded from f alone (tuples of
    ints hash alike in every process), so the factors and their order
    depend on nothing but f.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if f.is_constant():
        return {}
    rng = random.Random(hash((f.p, f.coeffs)))
    out: dict[Poly, int] = {}
    for sqfree, mult in _squarefree_decomposition(f.monic()).items():
        for prod, d in _distinct_degree(sqfree):
            for irr in _equal_degree_split(prod, d, rng):
                out[irr] = out.get(irr, 0) + mult
    return out


def is_irreducible(f: Poly) -> bool:
    if f.degree() < 1:
        return False
    p, d = f.p, f.degree()
    x = Poly.x(p)
    if powmod(x, p ** d, f) != x % f:
        return False
    primes = set()
    m = d
    k = 2
    while k * k <= m:
        while m % k == 0:
            primes.add(k)
            m //= k
        k += 1
    if m > 1:
        primes.add(m)
    for ell in primes:
        if poly_gcd(powmod(x, p ** (d // ell), f) - x, f).degree() > 0:
            return False
    return True


# rational functions ----------------------------------------------------

class RatFun:
    """Reduced fraction of polynomials: gcd(num, den) = 1, den monic."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        num._same(den)
        if den.is_zero():
            raise ZeroPolynomial("zero denominator")
        if num.is_zero():
            self.num = num
            self.den = Poly.one(num.p)
            return
        g = poly_gcd(num, den)
        if not g.is_one():
            num, den = num // g, den // g
        inv = pow(den.lc(), den.p - 2, den.p)
        self.num = num.scale(inv)
        self.den = den.scale(inv)

    @classmethod
    def from_poly(cls, f: Poly):
        return cls(f, Poly.one(f.p))

    @classmethod
    def one(cls, p):
        return cls.from_poly(Poly.one(p))

    @classmethod
    def zero(cls, p):
        return cls.from_poly(Poly.zero(p))

    @property
    def p(self):
        return self.num.p

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def is_poly(self):
        return self.den.is_one()

    def as_poly(self) -> Poly:
        if not self.den.is_one():
            raise ZeroPolynomial(f"not a polynomial: ({self.num})/({self.den})")
        return self.num

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, Poly):
            other = RatFun.from_poly(other)
        return (
            isinstance(other, RatFun)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def _coerce(self, other):
        if isinstance(other, Poly):
            return RatFun.from_poly(other)
        if not isinstance(other, RatFun):
            raise TypeError(f"expected RatFun, got {type(other).__name__}")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RatFun(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        return RatFun(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        other = self._coerce(other)
        return RatFun(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroElement("division by zero rational function")
        return RatFun(self.num * other.den, self.den * other.num)

    def inverse(self):
        if self.is_zero():
            raise ZeroElement("zero has no inverse")
        return RatFun(self.den, self.num)

    def __repr__(self):
        return f"RatFun({self.num!r}, {self.den!r})"

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"


def as_ratfun(v) -> RatFun:
    """v as a RatFun: a RatFun as it is, a Poly over the denominator 1."""
    return v if isinstance(v, RatFun) else RatFun.from_poly(v)


# places and valuations --------------------------------------------------

class Place:
    """A closed point of P^1 over F_p: a monic irreducible, or infinity."""

    __slots__ = ("p", "poly", "_hash")

    def __init__(self, p, poly):
        _check_prime(p)
        self.p = p
        self.poly = poly
        self._hash = hash((p, poly))

    @classmethod
    def finite(cls, poly: Poly):
        if poly.degree() < 1 or not poly.is_monic():
            raise ValueError(f"finite place needs a monic non-constant polynomial, got {poly}")
        if not is_irreducible(poly):
            raise ValueError(f"finite place needs an irreducible polynomial, got {poly}")
        return cls(poly.p, poly)

    @classmethod
    def infinity(cls, p):
        return cls(p, None)

    @property
    def is_infinity(self):
        return self.poly is None

    def degree(self):
        return 1 if self.poly is None else self.poly.degree()

    def sort_key(self):
        if self.poly is None:
            return (1, 0, ())
        return (0, self.poly.degree(), self.poly.coeffs)

    def __eq__(self, other):
        return isinstance(other, Place) and self.p == other.p and self.poly == other.poly

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Place.infinity({self.p})" if self.poly is None else f"Place.finite({self.poly!r})"

    def __str__(self):
        return "infinity" if self.poly is None else f"({self.poly})"


def poly_valuation(f: Poly, v: Place) -> int:
    if f.is_zero():
        raise ZeroElement("the zero polynomial has no valuation")
    if f.p != v.p:
        raise CharMismatch(f"characteristics differ: {f.p} vs {v.p}")
    if v.is_infinity:
        return -f.degree()
    if v.poly.coeffs == (0, 1):
        # v = (x): count the zero coefficients below the lowest-degree term
        return next(i for i, c in enumerate(f.coeffs) if c)
    count = 0
    while True:
        q, r = divmod(f, v.poly)
        if not r.is_zero():
            return count
        f = q
        count += 1


def valuation(r, v: Place) -> int:
    """Order of vanishing at v; negative at poles.  Additive on products,
    zero at all but finitely many places, and the degree-weighted sum over
    all places (infinity included) is zero."""
    if isinstance(r, Poly):
        return poly_valuation(r, v)
    if r.is_zero():
        raise ZeroElement("the zero function has no valuation")
    return poly_valuation(r.num, v) - poly_valuation(r.den, v)
