"""JSON encodings for polynomials, places, groups, coverings, reports.

Polynomials travel as coefficient arrays lowest-degree first; a
standalone polynomial is {"p": 2, "coeffs": [0, 1]} (that is x over
F_2).  Covering files carry the ambient group, so chart equations and
twists inside them are bare coefficient arrays:

    {"group": {"p": 3, "exponents": [1]},
     "kind": "kummer",
     "f": [[0, 1]],
     "twist": [{"elt": [1], "num": [0, 1], "den": [1]}],
     "infinity_degrees": [0, 1, 1]}

    {"group": {"p": 2, "exponents": [2]},
     "kind": "cocycle",
     "entries": [[[1], [1], [0, 1]], ...]}        # i, j, alpha(i, j); i <= j

Cyclic group elements may be given as bare integers instead of
one-element arrays.  The base is the projective line: a base genus key
is written as 0 and read only as 0.  Any other key is refused.  Reports
include a schema_version field.
"""

from __future__ import annotations

import json

from .covering import Cocycle, KummerData
from .divisors import Divisor
from .fppoly import Poly, RatFun
from .pgroup import GElt, PGroup

SCHEMA_VERSION = 1


# polynomials / places ----------------------------------------------------

def poly_to_obj(f: Poly) -> dict:
    return {"p": f.p, "coeffs": list(f.coeffs)}


def place_to_obj(v) -> dict:
    if v.is_infinity:
        return {"kind": "infinity"}
    return {"kind": "finite", "poly": poly_to_obj(v.poly)}


# groups ------------------------------------------------------------------

def group_to_obj(g: PGroup) -> dict:
    return {"p": g.p, "exponents": list(g.exponents)}

def group_from_obj(obj) -> PGroup:
    _known(obj, ("p", "exponents"), "$.group")
    p = _at(_get(obj, "p", "$.group"), int, "$.group.p")
    exponents = tuple(_ints(_get(obj, "exponents", "$.group"), "$.group.exponents"))
    try:
        return PGroup(p, exponents)
    except ValueError as exc:
        raise ValueError(f"$.group: {exc}") from None


def elt_to_obj(m: GElt):
    return list(m.residues)

def elt_from_obj(group: PGroup, obj, path: str) -> GElt:
    residues = [obj] if type(obj) is int else _ints(obj, path)
    if len(residues) != group.rank:
        raise ValueError(f"{path}: expected {group.rank} residues, got {len(residues)}")
    return group.elt(residues)


# coverings ---------------------------------------------------------------

def covering_to_obj(cov) -> dict:
    if isinstance(cov, KummerData):
        out = {
            "group": group_to_obj(cov.group),
            "kind": "kummer",
            "f": [list(f.coeffs) for f in cov.factors],
        }
        if cov.twist:
            out["twist"] = [
                {
                    "elt": elt_to_obj(m),
                    "num": list(b.num.coeffs),
                    "den": list(b.den.coeffs),
                }
                for m, b in sorted(cov.twist.items(), key=lambda kv: kv[0].residues)
            ]
    else:
        out = {
            "group": group_to_obj(cov.group),
            "kind": "cocycle",
            "entries": [
                [elt_to_obj(m), elt_to_obj(n), list(a.coeffs)]
                for m, n, a in cov.pairs()
            ],
        }
    out["g_X"] = 0
    return out


_COVERING_KEYS = {
    "kummer": ("group", "kind", "f", "twist", "infinity_degrees", "g_X"),
    "cocycle": ("group", "kind", "entries", "infinity_degrees", "g_X"),
}


def covering_from_obj(obj):
    """-> (covering, infinity_degrees or None).

    Malformed input (an unknown kind, a wrong type, an element of the
    wrong length, a group that PGroup refuses, a chart equation count
    other than the rank, a zero twist or twist denominator, a twist of
    the identity other than 1, a nonzero chart degree for the identity,
    a chart degree list of the wrong length, an unknown key, a nonzero
    base genus, a second twist record for one element or a second entry
    for one pair) raises ValueError naming its path, e.g. ``$.f[0][1]``.
    A null twist or infinity_degrees is absent."""
    group = group_from_obj(_get(obj, "group", "$"))
    p = group.p
    kind = obj.get("kind", "kummer")
    if kind not in ("kummer", "cocycle"):
        raise ValueError(f'$.kind: expected "kummer" or "cocycle", got {json.dumps(kind)}')
    _known(obj, _COVERING_KEYS[kind], "$")
    if _at(obj.get("g_X", 0), int, "$.g_X"):
        raise ValueError(f"$.g_X: the base is the projective line, of genus 0, got {obj['g_X']}")
    if kind == "kummer":
        fs = _at(_get(obj, "f", "$"), list, "$.f")
        if len(fs) != group.rank:
            raise ValueError(f"$.f: need one chart equation per invariant factor "
                             f"({group.rank}), got {len(fs)}")
        factors = tuple(Poly(p, _ints(cs, f"$.f[{i}]")) for i, cs in enumerate(fs))
        twist = {}
        recs = obj.get("twist")  # null means no twist
        for i, rec in enumerate([] if recs is None else _at(recs, list, "$.twist")):
            at = f"$.twist[{i}]"
            _known(rec, ("elt", "num", "den"), at)
            m = elt_from_obj(group, _get(rec, "elt", at), f"{at}.elt")
            if m in twist:
                raise ValueError(f"{at}: repeats the element {m}")
            num, den = (_ints(_get(rec, key, at), f"{at}.{key}") for key in ("num", "den"))
            if not any(c % p for c in num):
                raise ValueError(f"{at}.num: zero twist")
            if not any(c % p for c in den):
                raise ValueError(f"{at}.den: zero denominator")
            twist[m] = RatFun(Poly(p, num), Poly(p, den))
            if m.is_zero() and not twist[m].is_one():
                raise ValueError(f"{at}: twist must send 0 to 1")
        cov = KummerData(group, factors, twist or None)
    else:
        entries = {}
        for k, rec in enumerate(_at(_get(obj, "entries", "$"), list, "$.entries")):
            at = f"$.entries[{k}]"
            if type(rec) is not list or len(rec) != 3:
                raise ValueError(f"{at}: expected [i, j, coefficients]")
            i, j, cs = rec
            key = (elt_from_obj(group, i, f"{at}[0]"), elt_from_obj(group, j, f"{at}[1]"))
            if key in entries:
                raise ValueError(f"{at}: repeats the pair ({key[0]}, {key[1]})")
            entries[key] = Poly(p, _ints(cs, f"{at}[2]"))
        cov = Cocycle.from_entries(group, entries)
    degrees = None
    if obj.get("infinity_degrees") is not None:
        order = list(group.elements())
        given = _ints(obj["infinity_degrees"], "$.infinity_degrees")
        if len(given) != len(order):
            raise ValueError(f"$.infinity_degrees: must list {len(order)} integers in "
                             "canonical element order")
        if given[0]:
            raise ValueError(f"$.infinity_degrees[0]: the identity's degree is 0, got {given[0]}")
        degrees = dict(zip(order[1:], given[1:]))
    return cov, degrees


_KINDS = {int: "an integer", list: "an array", dict: "an object"}


def _at(value, kind, path: str):
    """value if it is a kind (int, list or dict); ValueError naming path otherwise."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{path}: expected {_KINDS[kind]}, got {json.dumps(value, default=repr)}")
    return value


def _known(obj, keys, path: str):
    """obj if it is an object whose keys are all among keys; ValueError
    naming the first other key otherwise."""
    for key in _at(obj, dict, path):
        if key not in keys:
            raise ValueError(f"{path}.{key}: unknown key")
    return obj


def _get(obj, key: str, path: str):
    if key not in _at(obj, dict, path):
        raise ValueError(f"{path}.{key}: missing")
    return obj[key]


def _ints(value, path: str) -> list[int]:
    for i, c in enumerate(_at(value, list, path)):
        if type(c) is not int:
            _at(c, int, f"{path}[{i}]")
    return value


# divisors ----------------------------------------------------------------

def divisor_to_obj(d: Divisor) -> dict:
    return {
        "places": [
            {"place": place_to_obj(v), "mult": m} for v, m in d.items()
        ],
        "degree": d.degree(),
    }
