"""Seeded input generation: covering JSON files plus an op manifest.

Run as a child process so that generation, which goes through muram's
own certification path, leaves no state (such as the factorization RNG)
behind in the process that is measured:

    python perfbench/inputs.py --workload corpus --seed 1 --out DIR

Everything written depends only on the workload and the seed.  Each
model slot has a fixed size class (degree of the chart equation, degrees
of its places, whether infinity ramifies; for raw tables also the twist
degree): the class comes from a draw with a seed of its own, and the
workload seed only chooses which model of that class fills the slot.
Seeds thus change the polynomials and not the amount of work, which is
what keeps runs with different seeds comparable.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from itertools import product

import mathref

MAX_DRAWS = 20000

CORPUS_SHAPES = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1))
CORPUS_MODELS = 8
LADDER_SHAPES = ((2, 4), (3, 3), (2, 5), (2, 6), (3, 4), (5, 3), (2, 7), (2, 8))
ORACLE_SMALL = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))
ORACLE_SMALL_MODELS = 10
ORACLE_LARGE = ((2, 4), (5, 2), (3, 3), (2, 5))
CLI_KUMMER = ((2, 2), (2, 3), (3, 2), (2, 4))
CLI_RAW = ((2, 2), (2, 3), (3, 2))
CLI_MODELS = 2  # per shape, so that one pass holds over 100 CLI calls

# The two acceptance rejects reachable from the CLI, and the malformed
# files that must end in exit 1 without a traceback.
CLI_REJECTS = (
    ("cusp", {"group": {"p": 2, "exponents": [1]}, "kind": "kummer", "f": [[1, 0, 0, 1]]}),
    ("square", {"group": {"p": 2, "exponents": [1]}, "kind": "kummer", "f": [[0, 0, 1]]}),
)
CLI_MALFORMED = (
    ("no-group", {"kind": "kummer"}),
    ("bad-f", {"group": {"p": 2, "exponents": [1]}, "kind": "kummer", "f": "ab"}),
    ("top-list", []),
)


def _kummer_class(kd):
    p, q = kd.group.p, kd.group.order
    f = list(kd.factors[0].coeffs)
    degrees = tuple(len(g) - 1 for g, _ in mathref.factor(f, p))
    return len(f) - 1, degrees, (len(f) - 1) % q != 0


def _twist_class(b, group):
    return b[group.elt(1)].num.degree()


def _draw(rng, make, classify, key):
    """make(rng) until its size class matches that of the slot's own draw."""
    target = classify(make(random.Random(f"perfbench/class/{key}")))
    for _ in range(MAX_DRAWS):
        x = make(rng)
        if classify(x) == target:
            return x
    raise RuntimeError(f"no draw of size class {target} for {key} in {MAX_DRAWS} tries")


def draw_kummer(rng, p, n, slot):
    from muram.randgen import random_normal_cyclic_kummer

    return _draw(
        rng, lambda r: random_normal_cyclic_kummer(r, p, n), _kummer_class, f"kummer/{p}/{n}/{slot}"
    )


def draw_raw(rng, kd, slot):
    from muram.covering import twist
    from muram.randgen import random_integral_twist

    group = kd.group
    b = _draw(
        rng,
        lambda r: random_integral_twist(r, group),
        lambda b: _twist_class(b, group),
        f"twist/{group.p}/{group.exponents[0]}/{slot}",
    )
    return twist(kd.to_cocycle(), b)


class Writer:
    """Collects input files and ops under one run directory."""

    def __init__(self, out, workload, seed):
        self.out = out
        self.workload = workload
        self.seed = seed
        self.inputs = []
        self.ops = []
        os.makedirs(os.path.join(out, "inputs"), exist_ok=True)

    def covering(self, name, obj, loadable=True):
        """Write an input file; loadable ones are part of the set-up."""
        rel = os.path.join("inputs", name + ".json")
        with open(os.path.join(self.out, rel), "w") as fh:
            json.dump(obj, fh, sort_keys=True)
        if loadable:
            self.inputs.append(rel)
        return rel

    def model(self, name, cov):
        """A KummerData or Cocycle, written in muram's covering format."""
        from muram.serialize import covering_to_obj

        return self.covering(name, covering_to_obj(cov))

    def finish(self):
        manifest = {
            "workload": self.workload,
            "seed": self.seed,
            "inputs": self.inputs,
            "ops": self.ops,
        }
        with open(os.path.join(self.out, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=1)


def _expect(kd, include_infinity=True):
    p, q = kd.group.p, kd.group.order
    return mathref.expected_divisor(list(kd.factors[0].coeffs), p, q, include_infinity)


def gen_corpus(w, rng):
    for p, n in CORPUS_SHAPES:
        for slot in range(CORPUS_MODELS):
            kd = draw_kummer(rng, p, n, f"corpus/{slot}")
            name = f"c-{p}-{n}-{slot}"
            f = list(kd.factors[0].coeffs)
            w.ops.append({
                "kind": "kummer", "input": w.model(name + "-k", kd), "p": p, "n": n,
                "expect": _expect(kd),
            })
            w.ops.append({
                "kind": "raw", "input": w.model(name + "-r", draw_raw(rng, kd, f"corpus/{slot}")),
                "p": p, "n": n, "f": f, "expect": _expect(kd, include_infinity=False),
            })


def gen_ladder(w, rng):
    for p, n in LADDER_SHAPES:
        kd = draw_kummer(rng, p, n, "ladder")
        w.ops.append({
            "kind": "rung", "input": w.model(f"l-{p}-{n}", kd), "p": p, "n": n,
            "expect": _expect(kd),
        })


def gen_oracle(w, rng):
    models = [(p, n, slot) for p, n in ORACLE_SMALL for slot in range(ORACLE_SMALL_MODELS)]
    models += [(p, n, 0) for p, n in ORACLE_LARGE]
    for p, n, slot in models:
        kd = draw_kummer(rng, p, n, f"oracle/{slot}")
        rel = w.model(f"o-{p}-{n}-{slot}", kd)
        expect = _expect(kd)
        for place in mathref.places(list(kd.factors[0].coeffs), p):
            key = "inf" if place is None else mathref.place_key(place)
            w.ops.append({
                "kind": "oracle", "input": rel, "p": p, "n": n, "place": place,
                "expect": expect.get(key, 0),
            })


def gen_cli(w, rng):
    def cli(argv, check, code=0, **extra):
        w.ops.append({"kind": "cli", "argv": argv, "check": check, "exit": code, **extra})

    base = w.out
    for (p, n), slot in product(CLI_KUMMER, range(CLI_MODELS)):
        kd = draw_kummer(rng, p, n, f"cli/{slot}")
        path = os.path.join(base, w.model(f"k-{p}-{n}-{slot}", kd))
        f = list(kd.factors[0].coeffs)
        finite = mathref.places(f, p, include_infinity=False)
        full = _expect(kd)
        affine = _expect(kd, include_infinity=False)
        cli(["validate", "--input", path], "validate")
        cli(["ramify", "--input", path], "ramify", expect=affine)
        cli(["ramify", "--input", path, "--include-infinity"], "ramify", expect=full)
        cli(["oracle", "--input", path, "--place", ",".join(map(str, finite[0]))], "oracle",
            expect=full.get(mathref.place_key(finite[0]), 0))
        cli(["oracle", "--input", path, "--place", "infinity"], "oracle",
            expect=full.get("inf", 0))
        cli(["devissage", "--input", path, "-m", str(rng.randrange(1, n))], "devissage",
            expect=affine)
        cli(["gorenstein", "--input", path], "gorenstein", places=len(finite))
        cli(["gorenstein", "--input", path, "--include-infinity"], "gorenstein",
            places=len(finite) + 1)
        cli(["genus", "--input", path], "genus", expect=full, p=p, n=n)
    for (p, n), slot in product(CLI_RAW, range(CLI_MODELS)):
        kd = draw_kummer(rng, p, n, f"cli-raw/{slot}")
        path = os.path.join(base, w.model(f"r-{p}-{n}-{slot}", draw_raw(rng, kd, f"cli/{slot}")))
        f = list(kd.factors[0].coeffs)
        finite = mathref.places(f, p, include_infinity=False)
        affine = _expect(kd, include_infinity=False)
        cli(["validate", "--input", path], "validate")
        cli(["ramify", "--input", path], "ramify", expect=affine)
        cli(["oracle", "--input", path, "--place", ",".join(map(str, finite[0]))], "oracle",
            expect=affine.get(mathref.place_key(finite[0]), 0))
        cli(["gorenstein", "--input", path], "gorenstein-raw")
    for p, n, beta, gamma in ((2, 1, 1, 2), (3, 2, 1, 3)):
        cli(["regress-gln", "-p", str(p), "-n", str(n), "--beta", str(beta), "--gamma",
             str(gamma)], "regress-gln", p=p, n=n, beta=beta, gamma=gamma)
    cli(["fuzz", "--seed", str(rng.randrange(10 ** 6)), "--count", "1", "--pn", "2,1",
         "--pn", "3,1"], "fuzz", models=2)
    cli(["gorenstein", "--search", "--count", "3", "--seed", str(rng.randrange(10 ** 6))],
        "search")
    for name, obj in CLI_REJECTS:
        cli(["ramify", "--input", os.path.join(base, w.covering(name, obj))], "reject", 2)
    for name, obj in CLI_MALFORMED:
        path = os.path.join(base, w.covering(name, obj, loadable=False))
        cli(["ramify", "--input", path], "malformed", 1)


GENERATORS = {"corpus": gen_corpus, "ladder": gen_ladder, "oracle": gen_oracle, "cli": gen_cli}


def generate(workload, seed, out):
    w = Writer(out, workload, seed)
    GENERATORS[workload](w, random.Random(f"perfbench/{workload}/{seed}"))
    w.finish()
    return w


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
