"""Reference arithmetic for the benchmark's answer checks.

Polynomials over F_p are coefficient lists, lowest degree first.  None
of this imports muram: the expected ramification divisors are derived
here from the chart equation alone, so a wrong answer from the library
cannot also corrupt the expectation it is checked against.

For z^q = f (q = p^n) the normalized covering is totally ramified over
the places where the local exponent of f is not divisible by q, with
multiplicity q - 1, and unramified elsewhere; at infinity the local
exponent is -deg f.
"""

from __future__ import annotations

from itertools import product


def trim(cs, p):
    cs = [c % p for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def pdivmod(a, b, p):
    """(quotient, remainder) of a by a nonzero b."""
    a, b = trim(a, p), trim(b, p)
    inv = pow(b[-1], p - 2, p)
    rem = list(a)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        c = rem[i + len(b) - 1] * inv % p
        quo[i] = c
        for j, y in enumerate(b):
            rem[i + j] = (rem[i + j] - c * y) % p
    return trim(quo, p), trim(rem[: len(b) - 1], p)


def factor(f, p):
    """[(monic irreducible, exponent)] by trial division in degree order.

    Dividing out every factor of degree d before trying degree d + 1
    means the first divisor found at each degree is irreducible.  Meant
    for the small degrees the benchmark generates.
    """
    f = trim(f, p)
    inv = pow(f[-1], p - 2, p)
    f = [c * inv % p for c in f]
    out = []
    d = 1
    while 2 * d <= len(f) - 1:
        for low in product(range(p), repeat=d):
            g = list(low) + [1]
            e = 0
            while True:
                q, r = pdivmod(f, g, p)
                if r:
                    break
                f, e = q, e + 1
            if e:
                out.append((tuple(g), e))
        d += 1
    if len(f) > 1:
        out.append((tuple(f), 1))
    return sorted(out, key=lambda ge: (len(ge[0]), ge[0]))


def place_key(coeffs):
    """Divisor key of a finite place; infinity is the key "inf"."""
    return ",".join(map(str, coeffs))


def expected_divisor(f, p, q, include_infinity=True):
    """{place key: multiplicity} of z^q = f, zero multiplicities omitted."""
    out = {}
    for g, e in factor(f, p):
        if e % q:
            out[place_key(g)] = q - 1
    if include_infinity and (len(trim(f, p)) - 1) % q:
        out["inf"] = q - 1
    return out


def places(f, p, include_infinity=True):
    """Every place a report covers: the factors of f, then infinity."""
    out = [list(g) for g, _ in factor(f, p)]
    return out + [None] if include_infinity else out


def is_qth_power_multiple(big, small, p, q):
    """big = small * h^q for some h (over F_p, h^q only has exponents
    divisible by q)."""
    quo, rem = pdivmod(big, small, p)
    return not rem and all(c == 0 for i, c in enumerate(quo) if i % q)


def divisor_from_obj(obj):
    """The {place key: multiplicity} view of a serialized divisor."""
    out = {}
    for rec in obj["places"]:
        place = rec["place"]
        key = "inf" if place["kind"] == "infinity" else place_key(place["poly"]["coeffs"])
        out[key] = rec["mult"]
    return out
