#!/usr/bin/env python3
"""Best-of-N wall times of the main paths on z^q = x over F_p.

For each q = p^n in --q, on a model built afresh for every run, it times
ramification_divisor(include_infinity=True), the two hypothesis checks
of predict_genus that the divisor does not make (check_chart_consistency,
and gorenstein_places at the places of the divisor), oracle_multiplicity
at (x), and validate plus forward_decompose on the
dense table of z^q = x under a seeded random_integral_twist.  For
q = 2^n it also times the oracle at (x)
on f = x^5 (x^3 + x + 1) over F_2, whose local exponent there is
c = 5 mod q.  The oracle rows stop at q = 128, the size ROADMAP.md
item 4 targets.  The output is the markdown table of measurements kept
in ROADMAP.md:

    PYTHONPATH=src python scripts/path_timings.py --q 16,27,32,64,128 --repeat 3
"""

import argparse
import random
import time

from muram import GlobalModel, KummerData, PGroup, Poly
from muram.covering import Cocycle, forward_decompose, validate
from muram.fppoly import Place
from muram.ramification import normalize_local_model, ramification_divisor
from muram.randgen import random_integral_twist
from muram.rh_genus import check_chart_consistency, gorenstein_places
from muram.snf_oracle import oracle_multiplicity

C5_FAMILY = [0, 0, 0, 0, 0, 1, 1, 0, 1]  # x^5 (x^3 + x + 1) over F_2
ORACLE_MAX_Q = 128


def prime_power(q):
    """(p, n) with p prime and p^n = q, or None."""
    p = next((d for d in range(2, q + 1) if q % d == 0), None)
    n = 0
    while p and q % p == 0:
        q //= p
        n += 1
    return (p, n) if p and q == 1 else None


def best_of(repeat, prepare, run):
    """Shortest of `repeat` timed calls run(prepare()); prepare is untimed."""
    best = float("inf")
    for _ in range(repeat):
        arg = prepare()
        start = time.perf_counter()
        run(arg)
        best = min(best, time.perf_counter() - start)
    return best


def fmt(seconds):
    """Two significant digits in ms below 0.1 s, else seconds to 0.01 s."""
    if seconds is None:
        return "—"
    return f"{seconds * 1e3:.2g} ms" if seconds < 0.1 else f"{seconds:.2f} s"


def timings(q, repeat):
    p, n = prime_power(q)

    def kummer(coeffs=(0, 1)):
        return KummerData(PGroup(p, (n,)), (Poly(p, list(coeffs)),))

    def oracle(coeffs):
        if q > ORACLE_MAX_Q:
            return None
        at_x = Place.finite(Poly.x(p))
        return best_of(repeat, lambda: normalize_local_model(kummer(coeffs), at_x),
                       oracle_multiplicity)

    def divisor_places():
        gm = GlobalModel(kummer())
        return gm, [r.place for r in gm.ramification_divisor()[1]]

    def raw_table(table):
        validate(table)
        forward_decompose(table)

    group = PGroup(p, (n,))
    twisted = KummerData(group, (Poly.x(p),), random_integral_twist(random.Random(q), group))
    pairs = {(m, k): a for m, k, a in twisted.to_cocycle().pairs()}

    return {
        "`ramification_divisor` incl. ∞": best_of(
            repeat, kummer, lambda kd: ramification_divisor(kd, include_infinity=True)),
        "`check_chart_consistency`": best_of(
            repeat, lambda: GlobalModel(kummer()), check_chart_consistency),
        "`gorenstein_places`": best_of(
            repeat, divisor_places, lambda args: list(gorenstein_places(*args))),
        # a fresh Cocycle per run: the table keeps its decomposition
        "`validate` + `forward_decompose`, twisted table": best_of(
            repeat, lambda: Cocycle.from_entries(group, pairs), raw_table),
        "`oracle_multiplicity` at (x)": oracle((0, 1)),
        "oracle at (x), f = x^5(x^3+x+1)": oracle(C5_FAMILY) if p == 2 else None,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q", default="16,27,32,64,128",
                    help="comma-separated prime powers (default: %(default)s)")
    ap.add_argument("--repeat", type=int, default=3, help="runs per cell, best kept")
    args = ap.parse_args(argv)
    qs = [int(q) for q in args.q.split(",")]
    for q in qs:
        if prime_power(q) is None:
            ap.error(f"{q} is not a prime power")
    columns = {q: timings(q, args.repeat) for q in qs}
    print("| path | " + " | ".join(f"q={q}" for q in qs) + " |")
    print("|---" * (len(qs) + 1) + "|")
    for path in columns[qs[0]]:
        print(f"| {path} | " + " | ".join(fmt(columns[q][path]) for q in qs) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
