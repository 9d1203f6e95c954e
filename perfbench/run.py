"""The muram benchmark: one workload, one seed, end to end or traced.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program under test is src/muram,
used from source.  Each step is a fresh interpreter:

1. perfbench/inputs.py writes the seeded inputs (covering JSON and an op
   manifest) under .perfbench_out/; its time is reported as gen_s and
   is not part of setup_s.
2. --trace 0: several fresh interpreters each import muram and load the
   inputs (setup_s is their median), then one runs the ops for whole
   passes within --seconds (at least one pass) with tracing off.
   Latency and throughput are gated in units of a reference kernel
   timed where and when each op runs (refkernel.py), because the host's
   speed drifts; the same numbers in wall time are printed beside them.
   --trace 1: one interpreter runs a single pass untraced and another a
   single pass with the wrappers of perfbench/tracing.py installed; the
   per-layer numbers come from the second, trace.overhead_ratio from
   both.  A single fixed pass makes every per-layer count repeat exactly
   for a given seed.

It prints each metric by name and unit with its sample count, the
per-rung ladder table or the oracle breakdown by group order, then, as
its last line, the JSON result.  The full result, spans included, is
written under .perfbench_out/.

``correct`` is false when any answer contradicts the mathematics.
``failed`` counts every failed op: wrong answers, and also ops that
raised, exited with an unexpected code or printed a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
from workloads import child_env  # noqa: E402

WORKLOADS = ("corpus", "ladder", "oracle", "cli")
OUT_ROOT = ".perfbench_out"
SETUP_REPEATS = 11
GEN_TIMEOUT_S = 120
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170

SUBCOMMANDS = {"validate", "ramify", "oracle", "devissage", "gorenstein", "--search", "genus",
               "regress-gln", "fuzz"}

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_ref", "1/ref"),
    ("op_p50_ref", "ref"),
    ("op_p90_ref", "ref"),
    ("peak_rss_mb", "MB"),
]


class ChildFailed(RuntimeError):
    pass


def _child(argv, timeout):
    cmd = [sys.executable, *argv]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{' '.join(argv[:2])} did not finish in {timeout} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(argv[:2])} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def _work(run_dir, name, *extra):
    path = os.path.join(run_dir, name + ".json")
    _child([os.path.join(HERE, "workloads.py"), "run", run_dir, "--result", path, *extra],
           RUN_TIMEOUT_S)
    with open(path) as fh:
        return json.load(fh)


def _tally(*works):
    attempted = sum(len(p["samples_ns"]) for w in works for p in w["passes"])
    failures = [f for w in works for p in w["passes"] for f in p["failures"]]
    return attempted, failures


def end_to_end(run_dir, seconds):
    setups = [
        float(_child([os.path.join(HERE, "workloads.py"), "setup", run_dir], SETUP_TIMEOUT_S))
        for _ in range(SETUP_REPEATS)
    ]
    work = _work(run_dir, "work", "--seconds", str(seconds))
    samples = [ns for p in work["passes"] for ns in p["samples_ns"]]
    refs = [r for p in work["passes"] for r in p["ref_ns"]]
    rel = [ns / r for ns, r in zip(samples, refs)]
    busy_s = sum(samples) / 1e9
    n = f"n={len(samples)}"
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_ref": len(rel) / sum(rel),
        "op_p50_ref": statistics.median(rel),
        "op_p90_ref": statistics.quantiles(rel, n=10, method="inclusive")[8],
        "peak_rss_mb": work["peak_rss_mb"],
    }
    counts = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "ops_per_ref": f"{len(samples)} ops in {len(work['passes'])} passes",
        "op_p50_ref": n,
        "op_p90_ref": n,
        "peak_rss_mb": "largest CLI child" if work["workload"] == "cli" else "workload process",
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    # the same in wall time, as a user of this host saw it: printed, not gated
    shown = dict(metrics, **{
        "ops_per_s": {"value": len(samples) / busy_s, "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(samples) / 1e6, "unit": "ms"},
        "op_p90_ms": {"value": statistics.quantiles(samples, n=10, method="inclusive")[8] / 1e6,
                      "unit": "ms"},
        "reference_ms": {"value": statistics.median(refs) / 1e6, "unit": "ms"},
    })
    return work, [work], metrics, shown, counts, {"setup_samples_s": setups}


def traced(run_dir):
    base = _work(run_dir, "base", "--passes", "1")
    work = _work(run_dir, "traced", "--passes", "1", "--trace")
    ratio = work["passes"][0]["wall_ns"] / base["passes"][0]["wall_ns"]
    work["trace"]["extra"]["trace.overhead_ratio"] = ratio
    agg = layers.Aggregate(work["trace"])
    shown = {name: {"value": fn(agg), "unit": unit} for name, unit, _, fn in layers.PER_LAYER}
    metrics = {k: v for k, v in shown.items() if k not in layers.UNGATED}
    counts = {"trace.overhead_ratio": "one traced pass / one untraced pass"}
    info = {"dropped_spans": work["trace"]["dropped_spans"], "layer_stats": work["trace"]["stats"]}
    # timings in the tables come from the untraced pass
    return base, [base, work], metrics, shown, counts, info


def _rows_by(work, key):
    """{key(op): [latency ns, ...]} over every pass."""
    out = {}
    for p in work["passes"]:
        for i, ns in enumerate(p["samples_ns"]):
            out.setdefault(key(work["ops"][i]), []).append(ns)
    return out


def tables(work):
    """The per-rung ladder table and the oracle breakdown by q."""
    wl = work["workload"]
    out = {}
    if wl == "ladder":
        rungs = {}
        for p in work["passes"]:
            for i, detail in p["details"]:
                op = work["ops"][i]
                row = rungs.setdefault(op["p"] ** op["n"], {"ramify_ns": [], "genus_ns": []})
                row["ramify_ns"].append(detail["ramify_ns"])
                row["genus_ns"].append(detail["genus_ns"])
        out["ladder"] = {
            q: {"ramify_ms": statistics.median(r["ramify_ns"]) / 1e6,
                "genus_ms": statistics.median(r["genus_ns"]) / 1e6,
                "samples": len(r["genus_ns"])}
            for q, r in sorted(rungs.items())
        }
        for q in (64, 256):
            if q in out["ladder"]:
                out[f"genus_ms.q{q}"] = out["ladder"][q]["genus_ms"]
    elif wl == "oracle":
        by_q = _rows_by(work, lambda op: op["p"] ** op["n"])
        out["oracle"] = {
            q: {"ops": len(xs), "median_ms": statistics.median(xs) / 1e6}
            for q, xs in sorted(by_q.items())
        }
        if 32 in out["oracle"]:
            out["oracle_ms.q32"] = out["oracle"][32]["median_ms"]
    elif wl == "cli":
        by_cmd = _rows_by(work, lambda op: " ".join(a for a in op["argv"] if a in SUBCOMMANDS))
        out["cli"] = {
            cmd: {"ops": len(xs), "median_ms": statistics.median(xs) / 1e6}
            for cmd, xs in sorted(by_cmd.items())
        }
    return out


def _print_summary(args, gen_s, metrics, shown, counts, info, extra, attempted, failures,
                   work):
    print(f"perfbench  workload={args.workload}  seed={args.seed}  trace={args.trace}")
    print(f"  {'gen_s':<44} {gen_s:>12.4f} s      input generation, not in setup_s")
    for name, m in shown.items():
        note = counts.get(name, "") if name in metrics else "(not in the JSON result)"
        print(f"  {name:<44} {m['value']:>12.6g} {m['unit']:<6} {note}")
    ratio = len(failures) / attempted
    print(f"  {'failed_ratio':<44} {ratio:>12.4f} 1      {len(failures)} of {attempted} ops")
    for f in failures[:8]:
        print(f"    failed op {f['op']} ({f['class']}): {f['why']}")
    print(f"  report sha256 {work['digest']}  (identical across passes: {work['digests_agree']})")
    for key, value in extra.items():
        if isinstance(value, dict):
            print(f"  {key}:")
            for row, cols in value.items():
                cells = "  ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                                  for k, v in cols.items())
                print(f"    {row!s:<22} {cells}")
        else:
            print(f"  {key:<44} {value:>12.6g}")
    for key, value in info.items():
        if isinstance(value, (int, float, str)):
            print(f"  {key}: {value}")


def main(argv=None):
    ap = argparse.ArgumentParser(description="muram benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "muram", "__init__.py")):
        print("perfbench: src/muram not found; run from the root of a muram checkout",
              file=sys.stderr)
        return 2
    run_dir = os.path.join(OUT_ROOT, f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        t0 = perf_counter()
        _child([os.path.join(HERE, "inputs.py"), "--workload", args.workload, "--seed",
                str(args.seed), "--out", run_dir], GEN_TIMEOUT_S)
        gen_s = perf_counter() - t0
        if args.trace:
            work, works, metrics, shown, counts, info = traced(run_dir)
        else:
            work, works, metrics, shown, counts, info = end_to_end(run_dir, args.seconds)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted, failures = _tally(*works)
    extra = tables(work)
    _print_summary(args, gen_s, metrics, shown, counts, info, extra, attempted, failures, work)
    result = {
        "correct": not any(f["class"] == "wrong" for f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    report = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  gen_s=gen_s, shown=shown, counts=counts, failures=failures, digest=work["digest"],
                  digests_agree=work["digests_agree"], failed_ratio=len(failures) / attempted,
                  info=info, **extra)
    with open(os.path.join(OUT_ROOT, f"{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
