#!/usr/bin/env python3
"""Record the benchmark's medians in BENCH_<short-sha>.json.

    python3 scripts/bench_record.py --seeds 1 2 3
    python3 scripts/bench_record.py --repo ../other-checkout --workloads oracle --seeds 7

Runs the benchmark command of ``BENCHMARK.json`` for its ``run_seconds``
once per (workload, seed, trace mode 0 and 1) in the root of the checkout
given by --repo (default: this one), one run after the other, and reads
each run's ``.perfbench_out/<workload>-s<seed>-t<trace>.json``.  The
workloads, the command and the run length all come from this checkout's
``BENCHMARK.json``, so every record is taken at the benchmark's own
length.  For every (workload, trace) it writes the median, minimum and
maximum of each metric over the seeds, the op counts and the report
digests, together with the interpreter, the host and the benchmarked
checkout's git SHA, to ``BENCH_<short-sha>.json`` in the root of this
checkout.  It reads the benchmark's output and changes nothing under
perfbench/.

    python3 scripts/bench_record.py --compare BENCH_<parent>.json BENCH_<change>.json

prints, for every workload, each end-to-end metric's median in both
records, its relative move and its bound in ``BENCHMARK.json``, marking
with WORSE every metric that moved the wrong way by more than its bound,
whether the report digests agree, and the per-layer medians of the
traced runs side by side.  It exits 1, naming the workload on a last
line, when a metric is WORSE, when the report digests differ, or when
more ops fail.  Next to
``peak_rss_mb`` it prints the ops attempted over the seeds in both
records and their ratio: a run keeps a record per pass, so a peak that
rises with the ops attempted shows as such.  It runs nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_ROOT = ".perfbench_out"
TRACES = (0, 1)


def load_benchmark(root: str = ROOT) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def bench_command(bench: dict) -> list[str]:
    """The benchmark's command line, with the run length it declares."""
    return [*bench["command"], "--seconds", f"{bench['run_seconds']:g}"]


def run_one(repo: str, bench: dict, workload: str, seed: int, trace: int) -> dict:
    """One benchmark run in repo; returns the run's full JSON report."""
    cmd = [sys.executable, *bench_command(bench)[1:], "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    subprocess.run(cmd, cwd=repo, check=True, stdout=subprocess.DEVNULL)
    return load_report(repo, workload, seed, trace)


def load_report(repo: str, workload: str, seed: int, trace: int) -> dict:
    with open(os.path.join(repo, OUT_ROOT, f"{workload}-s{seed}-t{trace}.json")) as fh:
        return json.load(fh)


def summarize(reports: list[dict]) -> dict:
    """Per "<workload>-t<trace>": the seeds, op totals, digests, and for
    every metric its unit and the median, min and max over the runs."""
    groups: dict[str, list[dict]] = {}
    for rep in reports:
        groups.setdefault(f"{rep['workload']}-t{rep['trace']}", []).append(rep)
    out = {}
    for key, reps in sorted(groups.items()):
        reps = sorted(reps, key=lambda r: r["seed"])
        metrics = {}
        for name in sorted({m for r in reps for m in r["metrics"]}):
            values = [r["metrics"][name]["value"] for r in reps if name in r["metrics"]]
            metrics[name] = {
                "unit": next(r["metrics"][name]["unit"] for r in reps if name in r["metrics"]),
                "median": statistics.median(values),
                "min": min(values),
                "max": max(values),
                "n": len(values),
            }
        out[key] = {
            "seeds": [r["seed"] for r in reps],
            "attempted": sum(r["attempted"] for r in reps),
            "failed": sum(r["failed"] for r in reps),
            "correct": all(r["correct"] for r in reps),
            "digests": {str(r["seed"]): r["digest"] for r in reps},
            "metrics": metrics,
        }
    return out


def git_state(repo: str) -> tuple[str, bool]:
    """(HEAD SHA, whether src/ or perfbench/ differ from it)."""
    sha = subprocess.run(["git", "-C", repo, "rev-parse", "HEAD"], check=True,
                         capture_output=True, text=True).stdout.strip()
    status = subprocess.run(["git", "-C", repo, "status", "--porcelain", "--", "src", "perfbench"],
                            check=True, capture_output=True, text=True).stdout
    return sha, bool(status.strip())


def host() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"platform": platform.platform(), "machine": platform.machine(), "cpu": cpu,
            "cpus": os.cpu_count()}


def record(summary: dict, sha: str, dirty: bool, bench: dict) -> dict:
    return {
        "git_sha": sha,
        "dirty": dirty,
        "recorded_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "host": host(),
        "command": " ".join(bench_command(bench)),
        "runs": summary,
    }


def _fmt(x) -> str:
    if x is None:
        return "-"
    if float(x).is_integer() and abs(x) < 1e15:
        return str(int(x))
    return f"{x:.4g}"


def _median(run: dict | None, name: str):
    return (run or {}).get("metrics", {}).get(name, {}).get("median")


def _attempted_line(base: dict | None, change: dict | None) -> str:
    a, b = (run["attempted"] if run else None for run in (base, change))
    ratio = f"x{b / a:.2f}" if a and b is not None else "-"
    return f"  {'attempted':<12} {_fmt(a):>10} -> {_fmt(b):<10} {ratio:>7}  ops over the seeds"


def compare(old: dict, new: dict, bench: dict) -> tuple[list[str], list[str]]:
    """Report lines comparing two BENCH records workload by workload, and
    one line per workload where some end-to-end median is worse than its
    bound, the report digests differ or more ops fail."""
    lines, refused = [], []
    for workload in (w["name"] for w in bench["workloads"]):
        base, change = old["runs"].get(f"{workload}-t0"), new["runs"].get(f"{workload}-t0")
        lines.append(f"{workload}: {old['git_sha'][:7]} -> {new['git_sha'][:7]}")
        reasons = []
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = _median(base, name), _median(change, name)
            if a is None or b is None:
                lines.append(f"  {name:<12} {_fmt(a):>10} -> {_fmt(b):<10} (missing)")
                continue
            move = (b - a) / a if a else 0.0
            worse = (move if metric["better"] == "lower" else -move) > bound
            if worse:
                reasons.append(f"{name} worse")
            lines.append(f"  {name:<12} {_fmt(a):>10} -> {_fmt(b):<10} {move:+7.1%}"
                         f"  bound {bound:.0%}{'  WORSE' if worse else ''}")
            if name == "peak_rss_mb":
                lines.append(_attempted_line(base, change))
        if base and change:
            same = base["digests"] == change["digests"]
            lines.append(f"  digests {'equal' if same else 'DIFFER'} "
                         f"(seeds {' '.join(sorted(base['digests']))} -> "
                         f"{' '.join(sorted(change['digests']))}); "
                         f"failed ops {base['failed']} -> {change['failed']}")
            if not same:
                reasons.append("report digests differ")
            if change["failed"] > base["failed"]:
                reasons.append("more ops fail")
        if reasons:
            refused.append(f"{workload}: {', '.join(reasons)}")
        base, change = old["runs"].get(f"{workload}-t1"), new["runs"].get(f"{workload}-t1")
        if base or change:
            lines.append("  per layer (trace 1, medians):")
            for metric in bench["per_layer"]:
                name = metric["name"]
                lines.append(f"    {name:<44} {_fmt(_median(base, name)):>12} "
                             f"{_fmt(_median(change, name)):>12}")
    return lines, refused


def main(argv=None) -> int:
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", default=ROOT, help="checkout to benchmark")
    ap.add_argument("--workloads", nargs="+", choices=workloads, default=workloads)
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="compare two BENCH files instead of running the benchmark")
    args = ap.parse_args(argv)
    if args.compare:
        records = []
        for path in args.compare:
            with open(path) as fh:
                records.append(json.load(fh))
        lines, refused = compare(*records, bench)
        print("\n".join(lines + [f"REFUSED {line}" for line in refused]))
        return 1 if refused else 0
    sha, dirty = git_state(args.repo)
    reports = []
    for workload in args.workloads:
        for trace in TRACES:
            for seed in args.seeds:
                print(f"{workload} seed {seed} trace {trace}", file=sys.stderr, flush=True)
                reports.append(run_one(args.repo, bench, workload, seed, trace))
    path = os.path.join(ROOT, f"BENCH_{sha[:7]}.json")
    with open(path, "w") as fh:
        json.dump(record(summarize(reports), sha, dirty, bench), fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
