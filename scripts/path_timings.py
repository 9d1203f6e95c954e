#!/usr/bin/env python3
"""Best-of-N wall times of the main paths on z^q = x over F_p.

For each q = p^n in --q it times factor on x^(q+1) (x+1)^(2q+1), whose
multiplicities grow with q, and, on a model built afresh for every run,
ramification_divisor(include_infinity=True), the two hypothesis checks
of predict_genus that the divisor does not make (check_chart_consistency,
and gorenstein_places at the places of the divisor), the whole of
predict_genus, the Gorenstein rows of the benchmark's corpus Kummer op
(to_cocycle() plus gorenstein_places at the finite places of the
divisor), oracle_multiplicity at (x), and three paths on z^q = x under a
seeded random_integral_twist: check_chart_consistency on the Kummer
data, with each canonical chart degree raised by deg b(m) so that the
chart at infinity is integral too, and, on its dense table read as a raw
table, validate plus forward_decompose, and gorenstein_places at the
finite places of its divisor once validate has decided it (its chart at
infinity under the canonical degrees need not be integral).  A
GlobalModel keeps its chart at infinity, so every timed call gets a
GlobalModel of its own, and no row reads a chart that another row or
run built.  The oracle's setup is timed as its own layer:
build_presentation at (x), and snf_length on those columns with no rows,
which returns as soon as it has read them.  For q = 2^n it also times
the oracle at (x) on f = x^5 (x^3 + x + 1) over F_2, whose local
exponent there is c = 5 mod q.  The oracle rows stop at q = 128, the
size ROADMAP.md item 4 targets.

A second table gives cold-start times, each the median over --repeat
fresh interpreters: the import of muram.serialize, the import of every
module under src/muram (both timed inside the interpreter), and a whole
`python -m muram.cli ramify` process on z^16 = x.  They run on a copy of
src/muram with no bytecode, which is compiled from source with -B, then
once more after an untimed run has written its .pyc files.  The output
is the markdown tables of measurements kept in ROADMAP.md:

    PYTHONPATH=src python scripts/path_timings.py --q 16,27,32,64,128 --repeat 3
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from muram import GlobalModel, KummerData, PGroup, Poly
from muram.covering import Cocycle, canonical_infinity_degrees, forward_decompose, validate
from muram.fppoly import Place, factor
from muram.ramification import normalize_local_model, ramification_divisor
from muram.randgen import random_integral_twist
from muram.rh_genus import check_chart_consistency, gorenstein_places, predict_genus
from muram.snf_oracle import (
    PresentationMatrix, build_presentation, oracle_multiplicity, snf_length)

C5_FAMILY = [0, 0, 0, 0, 0, 1, 1, 0, 1]  # x^5 (x^3 + x + 1) over F_2
ORACLE_MAX_Q = 128
PACKAGE = os.path.dirname(os.path.abspath(sys.modules["muram"].__file__))
TIMED_IMPORT = ("import time; t = time.perf_counter(); import {}; "
                "print(time.perf_counter() - t)")


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

    def at_x(run, coeffs=(0, 1), prepare=lambda model: model):
        """best_of run on prepare(the local model at (x)); None above ORACLE_MAX_Q."""
        if q > ORACLE_MAX_Q:
            return None
        place = Place.finite(Poly.x(p))
        return best_of(repeat, lambda: prepare(normalize_local_model(kummer(coeffs), place)), run)

    def columns_only(model):
        # no rows: snf_length returns right after its setup has read every column
        pm = build_presentation(model)
        return PresentationMatrix(rows=(), labels=pm.labels, columns=pm.columns), model

    def divisor_places():
        gm = GlobalModel(kummer())
        return gm, [r.place for r in gm.ramification_divisor()[1]]

    def finite_places():
        kd = kummer()
        return kd, [r.place for r in ramification_divisor(kd)[1]]

    def table_rows(args):
        kd, places = args
        list(gorenstein_places(GlobalModel(kd.to_cocycle()), places))

    def raw_table(table):
        validate(table)
        forward_decompose(table)

    def decided_places():
        gm = GlobalModel(Cocycle.from_entries(group, pairs))
        validate(gm.covering)
        return gm, [r.place for r in gm.ramification_divisor()[1] if not r.place.is_infinity]

    def twisted_model():
        kd = KummerData(group, twisted.factors, twisted.twist)
        degrees = {m: d + kd.twist_at(m).num.degree() - kd.twist_at(m).den.degree()
                   for m, d in canonical_infinity_degrees(kd).items()}
        return GlobalModel(kd, degrees)

    group = PGroup(p, (n,))
    twisted = KummerData(group, (Poly.x(p),), random_integral_twist(random.Random(q), group))
    pairs = {(m, k): a for m, k, a in twisted.to_cocycle().pairs()}

    high_powers = Poly.x(p) ** (q + 1) * Poly(p, [1, 1]) ** (2 * q + 1)
    return {
        "`factor`, x^(q+1)(x+1)^(2q+1)": best_of(repeat, lambda: high_powers, factor),
        "`ramification_divisor` incl. ∞": best_of(
            repeat, kummer, lambda kd: ramification_divisor(kd, include_infinity=True)),
        "`check_chart_consistency`": best_of(
            repeat, lambda: GlobalModel(kummer()), check_chart_consistency),
        "`check_chart_consistency`, twisted Kummer data": best_of(
            repeat, twisted_model, check_chart_consistency),
        "`gorenstein_places`": best_of(
            repeat, divisor_places, lambda args: list(gorenstein_places(*args))),
        "`predict_genus`": best_of(repeat, lambda: GlobalModel(kummer()), predict_genus),
        "`to_cocycle` + `gorenstein_places`, finite places": best_of(
            repeat, finite_places, table_rows),
        # a fresh Cocycle per run: the table keeps its decomposition
        "`validate` + `forward_decompose`, twisted table": best_of(
            repeat, lambda: Cocycle.from_entries(group, pairs), raw_table),
        "`gorenstein_places`, twisted table after `validate`": best_of(
            repeat, decided_places, lambda args: list(gorenstein_places(*args))),
        "`build_presentation` at (x)": at_x(build_presentation),
        "`snf_length` setup at (x)": at_x(lambda args: snf_length(*args), prepare=columns_only),
        "`oracle_multiplicity` at (x)": at_x(oracle_multiplicity),
        "oracle at (x), f = x^5(x^3+x+1)":
            at_x(oracle_multiplicity, C5_FAMILY) if p == 2 else None,
    }


def cold_starts(repeat):
    """{row: (from source, from .pyc)}, medians over `repeat` fresh interpreters."""
    modules = sorted(name[:-3] for name in os.listdir(PACKAGE)
                     if name.endswith(".py") and name != "__init__.py")
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(PACKAGE, os.path.join(tmp, "muram"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        cov = os.path.join(tmp, "z16.json")
        with open(cov, "w") as fh:
            json.dump({"group": {"p": 2, "exponents": [4]}, "kind": "kummer", "f": [[0, 1]]}, fh)
        env = dict(os.environ, PYTHONPATH=tmp)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        rows = {
            "`import muram.serialize`": ["-c", TIMED_IMPORT.format("muram.serialize")],
            "importing every module": [
                "-c", TIMED_IMPORT.format(", ".join(f"muram.{m}" for m in modules))],
            "`python -m muram.cli ramify` on z^16 = x, whole process": [
                "-m", "muram.cli", "ramify", "--input", cov],
        }

        def run(args, *flags):
            start = time.perf_counter()
            out = subprocess.run([sys.executable, *flags, *args], capture_output=True,
                                 text=True, env=env, check=True).stdout
            wall = time.perf_counter() - start
            return wall if args[0] == "-m" else float(out)

        def median(args, *flags):
            return statistics.median(run(args, *flags) for _ in range(repeat))

        source = {row: median(args, "-B") for row, args in rows.items()}
        for args in rows.values():
            run(args)  # writes the bytecode that the next runs read
        return {row: (source[row], median(args)) for row, args in rows.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q", default="16,27,32,64,128",
                    help="comma-separated prime powers (default: %(default)s)")
    ap.add_argument("--repeat", type=int, default=3,
                    help="runs per cell: the best path time, the median cold start")
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
    print()
    print(f"| cold start, median of {args.repeat} | from source | from .pyc |")
    print("|---|---|---|")
    for row, cells in cold_starts(args.repeat).items():
        print(f"| {row} | " + " | ".join(fmt(cell) for cell in cells) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
