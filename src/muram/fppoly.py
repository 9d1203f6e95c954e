"""Exact univariate arithmetic over a prime field F_p.

Dense polynomials, reduced rational functions, places of the projective
line (monic irreducibles plus infinity) with their valuations, and full
factorization (squarefree split, distinct-degree, equal-degree).  All
values are immutable after construction and all operations are pure, so
everything here is safe to share across threads.

The chart variable is anonymous: the same Poly class serves both the
affine chart (variable x) and the chart at infinity (variable u = 1/x);
which chart a polynomial lives on is tracked by the caller.

Construction is the kernel's main cost, so it has two doors.  The
public constructors check what they are given: ``Poly(p, coeffs)``
checks that p is prime, reduces every coefficient mod p and trims
trailing zeros; ``RatFun(num, den)`` checks the characteristics and the
denominator and reduces the fraction.  They stay checked because callers
hand them raw input (files, generators, tests).  Every result computed
here goes through the trusted constructors ``_poly`` and ``_ratfun``
instead, which check nothing and rely on an invariant: p came from an
operand that was already checked, the coefficients lie in [0, p) with a
nonzero last one, and a RatFun's parts are coprime with a monic
denominator.  ``_reduced`` brings a fraction into that form and takes a
gcd (through ``poly_gcd``) only when both parts are non-constant.
Division, remainder and Euclid run on coefficient tuples (``_divmod_coeffs``,
``_gcd_coeffs``) and build a Poly only for the answer.
"""

from __future__ import annotations

from .errors import CharMismatch, ZeroElement, ZeroPolynomial

_PRIME_CACHE: set[int] = set()


def _check_prime(p: int) -> None:
    if p in _PRIME_CACHE:
        return
    if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
        raise ValueError(f"characteristic {p} is not prime")
    _PRIME_CACHE.add(p)


# trusted construction and coefficient-level arithmetic -------------------
#
# The helpers below take coefficient sequences that are reduced (every
# entry in [0, p)) and trimmed (no trailing zero; the zero polynomial is
# empty), return lists of the same kind, and never check p.

_new = object.__new__


def _poly(p: int, coeffs) -> "Poly":
    """Trusted Poly: p already checked, coeffs reduced and trimmed."""
    f = _new(Poly)
    f.p = p
    f.coeffs = tuple(coeffs)
    return f


def _trimmed(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _mul_coeffs(a, b, p: int) -> list:
    """Product of two nonzero coefficient tuples.  The leading
    coefficients multiply to a unit of F_p, so the result is trimmed."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        c = b[0]
        return list(a) if c == 1 else [x * c % p for x in a]
    lb = len(b)
    out = [0] * (len(a) + lb - 1)
    for i, ca in enumerate(a):
        if ca:
            out[i:i + lb] = [o + ca * cb for o, cb in zip(out[i:i + lb], b)]
    return [c % p for c in out]


def _divmod_coeffs(a, b, p: int) -> tuple[list, list]:
    """Schoolbook quotient and remainder of a by a nonzero b, both as
    reduced, trimmed lists.  Each step cancels the top term of the
    running remainder; the reduction mod p of the entries below it waits
    until they are read."""
    db = len(b) - 1
    if len(a) <= db:
        return [], list(a)
    rem = list(a)
    lc = b[-1]
    inv = 1 if lc == 1 else pow(lc, p - 2, p)
    low = b[:db]
    quo = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i] % p
        if c:
            c = c * inv % p
            k = i - db
            quo[k] = c
            rem[k:i] = [r - c * cb for r, cb in zip(rem[k:i], low)]
    return quo, _trimmed([r % p for r in rem[:db]])


def _monic_coeffs(a, p: int):
    lc = a[-1]
    if lc == 1:
        return a
    inv = pow(lc, p - 2, p)
    return [c * inv % p for c in a]


def _gcd_coeffs(a, b, p: int):
    """Monic gcd of two coefficient tuples by Euclid; () for gcd(0, 0)."""
    while b:
        a, b = b, _divmod_coeffs(a, b, p)[1]
    return _monic_coeffs(a, p) if a else a


class Poly:
    """Polynomial over F_p, coefficients lowest-degree first, trimmed."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p, coeffs):
        _check_prime(p)
        self.p = p
        self.coeffs = tuple(_trimmed([c % p for c in coeffs]))

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
        return _poly(self.p, _monic_coeffs(self.coeffs, self.p))

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
        p = self.p
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = [(x + y) % p for x, y in zip(a, b)]
        out.extend(a[len(b):])
        return _poly(p, _trimmed(out))

    def __neg__(self):
        p = self.p
        return _poly(p, [p - c if c else 0 for c in self.coeffs])

    def __sub__(self, other):
        self._same(other)
        p = self.p
        a, b = self.coeffs, other.coeffs
        out = [(x - y) % p for x, y in zip(a, b)]
        if len(a) >= len(b):
            out.extend(a[len(b):])
        else:
            out.extend(p - c if c else 0 for c in b[len(a):])
        return _poly(p, _trimmed(out))

    def __mul__(self, other):
        self._same(other)
        if not self.coeffs or not other.coeffs:
            return _poly(self.p, ())
        return _poly(self.p, _mul_coeffs(self.coeffs, other.coeffs, self.p))

    def scale(self, c):
        p = self.p
        c %= p
        if not c:
            return _poly(p, ())
        return _poly(p, [c * a % p for a in self.coeffs])

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative exponent on Poly")
        result = _poly(self.p, (1,))
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
        quo, rem = _divmod_coeffs(self.coeffs, other.coeffs, p)
        return _poly(p, quo), _poly(p, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def derivative(self):
        p = self.p
        return _poly(p, _trimmed([i * c % p for i, c in enumerate(self.coeffs)][1:]))

    def reversed_coeffs(self):
        """The reciprocal polynomial: coefficients in reverse order.

        For f of degree d this is u^d * f(1/u); its constant term is the
        leading coefficient of f, so it is never divisible by u.
        """
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has no reciprocal")
        return _poly(self.p, _trimmed(list(reversed(self.coeffs))))

    def pth_root(self):
        """Exact p-th root of a polynomial with vanishing derivative."""
        p = self.p
        if any(c and i % p for i, c in enumerate(self.coeffs)):
            raise ValueError("polynomial is not a p-th power")
        # over F_p every coefficient is its own p-th root; the degree is a
        # multiple of p, so the leading coefficient is kept
        return _poly(p, self.coeffs[::p])

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
    return _poly(a.p, _gcd_coeffs(a.coeffs, b.coeffs, a.p))


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
    """f monic, non-constant -> {monic squarefree part: multiplicity}.

    Musser's loop on coefficient tuples, one p-th root level at a time:
    at step i, w is the product of the primes of multiplicity >= i prime
    to p.  While w divides c no part has multiplicity i, so c is divided
    by w without a gcd: one gcd per distinct multiplicity.
    """
    p = f.p
    out: dict[Poly, int] = {}
    a, scale = f.coeffs, 1
    while len(a) > 1:
        da = _trimmed([k * x % p for k, x in enumerate(a)][1:])
        c = _gcd_coeffs(a, da, p) if da else a
        w = _divmod_coeffs(a, c, p)[0]
        i = scale
        while len(w) > 1:
            c_over_w, r = _divmod_coeffs(c, w, p)
            if r:  # some part has multiplicity i: gcd(w, c) = gcd(w, c mod w)
                y = _gcd_coeffs(w, r, p)
                z = _poly(p, _divmod_coeffs(w, y, p)[0])
                out[z] = i
                w, c_over_w = y, _divmod_coeffs(c, y, p)[0]
            c = c_over_w
            i += scale
        a, scale = c[::p], scale * p
    return out


def _distinct_degree(f: Poly):
    """f monic squarefree -> [(product of degree-d irreducibles, d)]."""
    if f.degree() == 1:
        return [(f, 1)]
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
    depend on nothing but f.  The generator is made at the first part
    that has to be split, which is the first draw either way.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if f.is_constant():
        return {}
    rng = None
    out: dict[Poly, int] = {}
    for sqfree, mult in _squarefree_decomposition(f.monic()).items():
        for prod, d in _distinct_degree(sqfree):
            if prod.degree() == d:
                irrs = (prod,)
            else:
                if rng is None:
                    import random

                    rng = random.Random(hash((f.p, f.coeffs)))
                irrs = _equal_degree_split(prod, d, rng)
            for irr in irrs:
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

def _ratfun(num: Poly, den: Poly) -> "RatFun":
    """Trusted RatFun: num and den coprime, of one checked p, den monic."""
    r = _new(RatFun)
    r.num = num
    r.den = den
    return r


def _reduced(num: Poly, den: Poly) -> "RatFun":
    """num/den in lowest terms with a monic denominator, for a nonzero den
    of num's characteristic.  A constant part is coprime to anything, so
    the gcd is taken only when both parts are non-constant."""
    p = num.p
    a, b = num.coeffs, den.coeffs
    if not a:
        return _ratfun(num, _poly(p, (1,)))
    if len(a) > 1 and len(b) > 1:
        g = poly_gcd(num, den).coeffs
        if g != (1,):
            a = _divmod_coeffs(a, g, p)[0]
            b = _divmod_coeffs(b, g, p)[0]
            num, den = _poly(p, a), _poly(p, b)
    lc = b[-1]
    if lc == 1:
        return _ratfun(num, den)
    inv = pow(lc, p - 2, p)
    return _ratfun(_poly(p, [c * inv % p for c in a]), _poly(p, [c * inv % p for c in b]))


class RatFun:
    """Reduced fraction of polynomials: gcd(num, den) = 1, den monic."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        num._same(den)
        if den.is_zero():
            raise ZeroPolynomial("zero denominator")
        r = _reduced(num, den)
        self.num = r.num
        self.den = r.den

    @classmethod
    def from_poly(cls, f: Poly):
        return _ratfun(f, _poly(f.p, (1,)))

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
        return _reduced(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self):
        return _ratfun(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        return _reduced(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        other = self._coerce(other)
        return _reduced(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroElement("division by zero rational function")
        return _reduced(self.num * other.den, self.den * other.num)

    def inverse(self):
        if self.is_zero():
            raise ZeroElement("zero has no inverse")
        # already coprime: only the new denominator needs making monic
        inv = pow(self.num.lc(), self.p - 2, self.p)
        return _ratfun(self.den.scale(inv), self.num.scale(inv))

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
    def _of_irreducible(cls, poly: Poly):
        """Trusted finite place: poly is already known to be monic and
        irreducible (a factor() output, or the uniformizer of a place)."""
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
    # divide by pi, pi^2, pi^4, ... while each divides what is left; the
    # valuation left is then below 2^len(powers), so step back down
    p, cs = f.p, f.coeffs
    powers = []  # pi^(2^k) for every k that divided
    pw, count = v.poly.coeffs, 0
    while len(pw) <= len(cs):
        q, r = _divmod_coeffs(cs, pw, p)
        if r:
            break
        cs = q
        count += 1 << len(powers)
        powers.append(pw)
        if 2 * len(pw) - 1 > len(cs):
            break  # the next power is longer than what is left
        pw = _mul_coeffs(pw, pw, p)
    for k in range(len(powers) - 1, -1, -1):
        q, r = _divmod_coeffs(cs, powers[k], p)
        if not r:
            cs = q
            count += 1 << k
    return count


def valuation(r, v: Place) -> int:
    """Order of vanishing at v; negative at poles.  Additive on products,
    zero at all but finitely many places, and the degree-weighted sum over
    all places (infinity included) is zero."""
    if isinstance(r, Poly):
        return poly_valuation(r, v)
    if r.is_zero():
        raise ZeroElement("the zero function has no valuation")
    return poly_valuation(r.num, v) - poly_valuation(r.den, v)
