"""One workload's ops, run in a fresh interpreter, with every answer checked.

    python perfbench/workloads.py setup DIR
    python perfbench/workloads.py run DIR --result FILE [--seconds S | --passes K] [--trace]

``setup`` imports muram, loads every input file of DIR through
``serialize.covering_from_obj`` and prints how long that took.  ``run``
does the same, then runs the op list of DIR/manifest.json in its fixed
order, one op at a time (a closed loop with one client), either for
whole passes until another pass would overrun S seconds (at least one),
or for exactly K passes.  The result file holds every op latency, the
failures, a sha256 over the pass's canonical JSON reports and the peak
RSS; with --seconds also the reference kernel's time for each op; with
--trace also the per-layer aggregates, whose spans go to
DIR/spans.json.

Answers are checked against the mathematics (see mathref), never against
a stored copy of earlier output.  An op fails when it returns a wrong
answer, raises, exits with an unexpected code or prints a traceback.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
from time import perf_counter, perf_counter_ns

import mathref
from refkernel import reference_ns
from tracing import Tracer, merge

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_TIMEOUT_S = 120
REFERENCE_EVERY_S = 0.2


class OpError(Exception):
    """The op produced no answer to check: it crashed, printed a traceback
    or exited with an unexpected code."""


class HostSpeed:
    """Times the reference kernel every REFERENCE_EVERY_S from a SIGALRM
    handler, so that samples also fall inside long ops.  ``spent`` is the
    time the samples took, which op timings subtract."""

    def __init__(self):
        self.times = []  # ns at the end of each sample
        self.kernel = []  # kernel ns of each sample
        self.spent = 0
        self._old = None

    def _tick(self, signum=None, frame=None):
        t0 = perf_counter_ns()
        kernel = reference_ns()
        t1 = perf_counter_ns()
        self.times.append(t1)
        self.kernel.append(kernel)
        self.spent += t1 - t0

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)

    def stop(self):
        if self._old is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)
            self._old = None

    def during(self, t0, t1):
        """Mean kernel time of the samples taken in [t0, t1], else the
        kernel time of the sample nearest to it."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi > lo:
            return sum(self.kernel[lo:hi]) / (hi - lo)
        near = min((i for i in (lo - 1, lo) if 0 <= i < len(self.times)),
                   key=lambda i: abs(self.times[i] - t0))
        return self.kernel[near]


def child_env():
    """Environment of every benchmark child: the checkout's src/ on the
    path and a fixed hash seed, so that set iteration order (and with it
    every count) repeats from run to run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONHASHSEED"] = "0"
    return env


def load(run_dir):
    import muram.serialize as ser

    with open(os.path.join(run_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    covs = {}
    for rel in manifest["inputs"]:
        with open(os.path.join(run_dir, rel)) as fh:
            covs[rel] = ser.covering_from_obj(json.load(fh))[0]
    return manifest, covs


class Ctx:
    """Loaded inputs plus the muram modules the ops call through, so that
    wrappers installed on module namespaces are seen."""

    def __init__(self, run_dir, covs, tracer=None):
        import muram.covering
        import muram.fppoly
        import muram.gorenstein
        import muram.ramification
        import muram.rh_genus
        import muram.serialize
        import muram.snf_oracle

        self.run_dir = run_dir
        self.covs = covs
        self.tracer = tracer
        self.host = None  # HostSpeed while a timed run measures the host
        self.cov = muram.covering
        self.fpp = muram.fppoly
        self.gor = muram.gorenstein
        self.ram = muram.ramification
        self.rh = muram.rh_genus
        self.ser = muram.serialize
        self.sno = muram.snf_oracle
        self.rd = {}  # input -> {place key: ramification_divisor multiplicity}
        self.cli_samples = {"cli.import_s": [], "cli.process_overhead_ms": []}
        self.cli_trace = {"stats": {}, "extra": {}, "spans": [], "dropped_spans": 0}


def _dump(report):
    return json.dumps(report, sort_keys=True)


def _gorenstein_rows(ctx, cocycle, reports):
    rows = []
    for r in reports:
        if r.place.is_infinity:
            continue
        ok, witness = ctx.gor.gorenstein_at(cocycle, r.place)
        rows.append({
            "place": ctx.ser.place_to_obj(r.place),
            "gorenstein": ok,
            "witness": None if witness is None else ctx.ser.elt_to_obj(witness),
        })
    return rows


# ops: (ctx, spec) -> (report, canonical JSON text, detail or None) ------------

def op_kummer(ctx, spec):
    kd = ctx.covs[spec["input"]]
    divisor, reports = ctx.ram.ramification_divisor(kd, include_infinity=True)
    genus = ctx.rh.predict_genus(ctx.rh.GlobalModel(kd))
    devissage = []
    for m in range(1, spec["n"]):
        dev = ctx.ram.devissage_check(kd, m)
        devissage.append({"m": m, "equal": dev.equal, "total": ctx.ser.divisor_to_obj(dev.total)})
    report = {
        "divisor": ctx.ser.divisor_to_obj(divisor),
        "deg_R": genus.deg_R,
        "g_Y": genus.g_Y,
        "devissage": devissage,
        "gorenstein": _gorenstein_rows(ctx, kd.to_cocycle(), reports),
    }
    return report, _dump(report), None


def op_raw(ctx, spec):
    cocycle = ctx.covs[spec["input"]]
    valid = ctx.cov.validate(cocycle)
    _, f = ctx.cov.forward_decompose(cocycle)
    divisor, reports = ctx.ram.ramification_divisor(cocycle)
    report = {
        "ok": valid.ok,
        "failures": [[name, list(info)] for name, info in valid.failures],
        "f": list(f.coeffs),
        "divisor": ctx.ser.divisor_to_obj(divisor),
        "gorenstein": _gorenstein_rows(ctx, cocycle, reports),
    }
    return report, _dump(report), None


def op_rung(ctx, spec):
    kd = ctx.covs[spec["input"]]
    t0 = perf_counter_ns()
    divisor, _ = ctx.ram.ramification_divisor(kd, include_infinity=True)
    t1 = perf_counter_ns()
    genus = ctx.rh.predict_genus(ctx.rh.GlobalModel(kd))
    t2 = perf_counter_ns()
    report = {
        "divisor": ctx.ser.divisor_to_obj(divisor),
        "deg_R": genus.deg_R,
        "g_Y": genus.g_Y,
        "genus_divisor": ctx.ser.divisor_to_obj(genus.divisor),
    }
    return report, _dump(report), {"ramify_ns": t1 - t0, "genus_ns": t2 - t1}


def _place(ctx, spec):
    p = spec["p"]
    if spec["place"] is None:
        return ctx.fpp.Place.infinity(p)
    return ctx.fpp.Place.finite(ctx.fpp.Poly(p, spec["place"]))


def prepare_oracle(ctx, ops):
    """Untimed: the places to probe and ramification_divisor's multiplicity
    at each, once per model."""
    for spec in ops:
        spec["_place"] = _place(ctx, spec)
        if spec["input"] not in ctx.rd:
            kd = ctx.covs[spec["input"]]
            _, reports = ctx.ram.ramification_divisor(kd, include_infinity=True)
            ctx.rd[spec["input"]] = {_key(ctx.ser.place_to_obj(r.place)): r.multiplicity
                                     for r in reports}


def _key(place_obj):
    if place_obj["kind"] == "infinity":
        return "inf"
    return mathref.place_key(place_obj["poly"]["coeffs"])


def op_oracle(ctx, spec):
    model = ctx.ram.normalize_local_model(ctx.covs[spec["input"]], spec["_place"])
    length = ctx.sno.oracle_multiplicity(model)
    report = {"place": ctx.ser.place_to_obj(spec["_place"]), "oracle": length, "c": model.c}
    return report, _dump(report), None


REFERENCE_LINE = "perfbench-reference-ns "


def op_cli(ctx, spec):
    """One CLI call in a fresh process.  In a timed run the process first
    times the reference kernel (cli_ref.py); detail["reference_ns"] carries
    that time, which the caller takes out of the op's latency."""
    stats_path = None
    if ctx.tracer is not None:
        stats_path = os.path.join(ctx.run_dir, "cli-trace.json")
        argv = [sys.executable, os.path.join(HERE, "cli_shim.py"), stats_path, *spec["argv"]]
    elif ctx.host is not None:
        argv = [sys.executable, os.path.join(HERE, "cli_ref.py"), *spec["argv"]]
    else:
        argv = [sys.executable, "-m", "muram.cli", *spec["argv"]]
    t0 = perf_counter_ns()
    proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(),
                          timeout=CLI_TIMEOUT_S)
    wall = perf_counter_ns() - t0
    if stats_path is not None:
        _absorb_cli_trace(ctx, stats_path, wall, spec)
    stderr = proc.stderr
    detail = {}
    if ctx.host is not None and stderr.startswith(REFERENCE_LINE):
        line, _, stderr = stderr.partition("\n")
        detail["reference_ns"] = int(line[len(REFERENCE_LINE):])
    detail["stderr"] = stderr
    report = {"exit": proc.returncode, "stdout": proc.stdout}
    return report, _dump(report), detail


def _absorb_cli_trace(ctx, path, wall_ns, spec):
    with open(path) as fh:
        part = json.load(fh)
    os.remove(path)
    merge(ctx.cli_trace, part)
    ctx.cli_trace["spans"].append({"argv": spec["argv"], "spans": part["spans"]})
    ctx.cli_samples["cli.import_s"].append(part["import_ns"] / 1e9)
    ctx.cli_samples["cli.process_overhead_ms"].append((wall_ns - part["main_ns"]) / 1e6)


OPS = {"kummer": op_kummer, "raw": op_raw, "rung": op_rung, "oracle": op_oracle, "cli": op_cli}


# checks: (spec, report, detail, ctx) -> None, or why the answer is wrong;
# OpError when there is no answer to judge ------------------------------

def _q(spec):
    return spec["p"] ** spec["n"]


def _affine(expect):
    return {k: v for k, v in expect.items() if k != "inf"}


def _genus_ok(spec, deg_R, g_Y):
    q = _q(spec)
    if deg_R != 2 * (q - 1) or g_Y != 0:
        return (f"deg_R={deg_R}, g_Y={g_Y}; a purely inseparable cover of the line "
                "has deg_R=2(q-1) and genus 0")
    return None


def check_kummer(spec, rep, detail, ctx):
    got = mathref.divisor_from_obj(rep["divisor"])
    if got != spec["expect"]:
        return f"divisor {got} != expected {spec['expect']}"
    bad = _genus_ok(spec, rep["deg_R"], rep["g_Y"])
    if bad:
        return bad
    for dev in rep["devissage"]:
        if not dev["equal"]:
            return f"devissage identity failed at m={dev['m']}"
        if mathref.divisor_from_obj(dev["total"]) != _affine(spec["expect"]):
            return f"devissage total at m={dev['m']} != expected affine divisor"
    if not all(row["gorenstein"] for row in rep["gorenstein"]):
        return "a monogenic (complete intersection) model reported a non-Gorenstein place"
    return None


def check_raw(spec, rep, detail, ctx):
    if not rep["ok"]:
        return f"validate rejected a twisted valid table: {rep['failures']}"
    got = mathref.divisor_from_obj(rep["divisor"])
    if got != spec["expect"]:
        return f"raw-form divisor {got} != Kummer-form divisor {spec['expect']}"
    if not mathref.is_qth_power_multiple(rep["f"], spec["f"], spec["p"], _q(spec)):
        return "forward_decompose did not recover the chart equation up to a q-th power"
    return None


def check_rung(spec, rep, detail, ctx):
    for field in ("divisor", "genus_divisor"):
        got = mathref.divisor_from_obj(rep[field])
        if got != spec["expect"]:
            return f"{field} {got} != expected {spec['expect']}"
    return _genus_ok(spec, rep["deg_R"], rep["g_Y"])


def check_oracle(spec, rep, detail, ctx):
    rd = ctx.rd[spec["input"]][_key(rep["place"])]
    if not rep["oracle"] == rd == spec["expect"]:
        return f"oracle {rep['oracle']}, ramification_divisor {rd}, expected {spec['expect']}"
    return None


def check_cli(spec, rep, detail, ctx):
    code, stdout, stderr = rep["exit"], rep["stdout"], detail["stderr"]
    if "Traceback (most recent call last)" in stderr:
        last = stderr.strip().splitlines()[-1]
        raise OpError(f"traceback on stderr (exit {code}): {last}")
    if code != spec["exit"]:
        raise OpError(f"exit {code}, expected {spec['exit']}: {stderr.strip()[:200]}")
    out = None
    if code in (0, 2):
        try:
            out = json.loads(stdout)
        except json.JSONDecodeError:
            raise OpError(f"stdout is not JSON for exit {code}") from None
    return CLI_CHECKS[spec["check"]](spec, out)


def _cli_validate(spec, out):
    return None if out["ok"] else f"validate failed: {out['failures']}"


def _cli_ramify(spec, out):
    got = mathref.divisor_from_obj(out["divisor"])
    return None if got == spec["expect"] else f"divisor {got} != expected {spec['expect']}"


def _cli_oracle(spec, out):
    if not out["oracle"] == out["formula"] == spec["expect"]:
        return f"oracle {out['oracle']}, formula {out['formula']}, expected {spec['expect']}"
    return None


def _cli_devissage(spec, out):
    if not out["equal"]:
        return "devissage identity failed"
    got = mathref.divisor_from_obj(out["total"])
    return None if got == spec["expect"] else f"devissage total {got} != {spec['expect']}"


def _cli_gorenstein(spec, out):
    if len(out["places"]) != spec["places"]:
        return f"{len(out['places'])} places reported, the model has {spec['places']}"
    if out["non_gorenstein_places"] or not all(row["gorenstein"] for row in out["places"]):
        return "a monogenic (complete intersection) model reported a non-Gorenstein place"
    return _signs_ok(out)


def _cli_gorenstein_raw(spec, out):
    for row in out["places"]:
        if row["gorenstein"] != (row["witness"] is not None):
            return "verdict and witness disagree"
    return _signs_ok(out)


def _signs_ok(out):
    signs = [row["sign"] for row in out["sign_table"]]
    if not signs or any(s not in (1, -1) for s in signs):
        return f"sign table holds values other than +/-1: {signs}"
    if "sign" in out and out["sign"] not in (1, -1):
        return f"sign {out['sign']} is not +/-1"
    return None


def _cli_genus(spec, out):
    got = mathref.divisor_from_obj(out["divisor"])
    if got != spec["expect"]:
        return f"divisor {got} != expected {spec['expect']}"
    return _genus_ok(spec, out["deg_R"], out["g_Y"])


def _cli_regress_gln(spec, out):
    p, n, b, g = spec["p"], spec["n"], spec["beta"], spec["gamma"]
    lhs, base = p ** (n * g) - 1, p ** (n * b) - 1
    pulled = p ** b * (p ** (n * (g - b)) - 1)
    want = {"lhs": lhs, "base_part": base, "pulled": pulled, "rhs": base + pulled,
            "equal": lhs == base + pulled, "degenerate_height_one": n == 1}
    got = {k: out[k] for k in want}
    return None if got == want else f"{got} != {want}"


def _cli_fuzz(spec, out):
    if out["failures"] or out["checked"]["models"] != spec["models"]:
        return f"fuzz: {out['failures']}, {out['checked']}"
    return None


def _cli_search(spec, out):
    if not isinstance(out["checked_places"], int) or not isinstance(out["counterexamples"], list):
        return "malformed search report"
    return None


def _cli_reject(spec, out):
    return None if out.get("rejected") else "exit 2 without a rejection report"


def _cli_malformed(spec, out):
    return None


CLI_CHECKS = {
    "validate": _cli_validate, "ramify": _cli_ramify, "oracle": _cli_oracle,
    "devissage": _cli_devissage, "gorenstein": _cli_gorenstein,
    "gorenstein-raw": _cli_gorenstein_raw, "genus": _cli_genus,
    "regress-gln": _cli_regress_gln, "fuzz": _cli_fuzz, "search": _cli_search,
    "reject": _cli_reject, "malformed": _cli_malformed,
}
CHECKS = {"kummer": check_kummer, "raw": check_raw, "rung": check_rung,
          "oracle": check_oracle, "cli": check_cli}


# the loop ---------------------------------------------------------------

def run_pass(ctx, ops):
    """Every op once, in order: latencies, failures, digest, report bytes,
    and with ctx.host the reference kernel's time for each op."""
    samples, details, failures, spans = [], [], [], []
    refs = [None] * len(ops)
    digest = hashlib.sha256()
    report_bytes = 0
    tracer = ctx.tracer
    host = ctx.host
    t_pass = perf_counter_ns()
    for i, spec in enumerate(ops):
        fn = OPS[spec["kind"]]
        spent = host.spent if host is not None else 0
        t0 = perf_counter_ns()
        try:
            if tracer is None:
                report, text, detail = fn(ctx, spec)
            else:
                report, text, detail = tracer.call("op." + spec["kind"], fn, ctx, spec)
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            report = text = detail = None
            error = ("error", f"{type(exc).__name__}: {exc}")
        t1 = perf_counter_ns()
        elapsed = t1 - t0
        if host is not None:
            elapsed -= host.spent - spent
            if detail and "reference_ns" in detail:
                elapsed -= detail["reference_ns"]
                refs[i] = detail["reference_ns"]
            else:
                spans.append((i, t0, t1))
        if error is None:
            try:
                wrong = CHECKS[spec["kind"]](spec, report, detail, ctx)
                error = None if wrong is None else ("wrong", wrong)
            except OpError as exc:
                error = ("error", str(exc))
            except (KeyError, TypeError) as exc:
                error = ("wrong", f"report lacks an expected field: {type(exc).__name__}: {exc}")
        samples.append(elapsed)
        if spec["kind"] == "rung" and detail:
            details.append([i, detail])
        if error is not None:
            failures.append({"op": i, "class": error[0], "why": error[1]})
        if text is not None:
            data = text.encode()
            report_bytes += len(report["stdout"].encode()) if spec["kind"] == "cli" else len(data)
            digest.update(data + b"\n")
    for i, t0, t1 in spans:
        refs[i] = host.during(t0, t1)
    return {
        "wall_ns": perf_counter_ns() - t_pass,
        "samples_ns": samples,
        "ref_ns": refs if host is not None else None,
        "details": details,
        "failures": failures,
        "digest": digest.hexdigest(),
        "report_bytes": report_bytes,
    }


def run(run_dir, seconds=None, passes=None, traced=False):
    if traced:
        tracer = Tracer()
        tracer.install()
    else:
        tracer = None
    host = HostSpeed() if passes is None else None  # a timed run also measures the host
    try:
        manifest, covs = load(run_dir)
        ctx = Ctx(run_dir, covs, tracer)
        ctx.host = host
        ops = manifest["ops"]
        if manifest["workload"] == "oracle":
            prepare_oracle(ctx, ops)
        results = []
        if host is not None and manifest["workload"] != "cli":  # CLI calls time it themselves
            host.start()
        start = perf_counter()
        while True:
            results.append(run_pass(ctx, ops))
            if passes is not None:
                if len(results) >= passes:
                    break
            elif perf_counter() - start + results[-1]["wall_ns"] / 1e9 > seconds:
                break
    finally:
        if host is not None:
            host.stop()
        if tracer is not None:
            tracer.restore()
    who = resource.RUSAGE_CHILDREN if manifest["workload"] == "cli" else resource.RUSAGE_SELF
    out = {
        "workload": manifest["workload"],
        "passes": [{k: v for k, v in r.items() if k != "digest"} for r in results],
        "digest": results[0]["digest"],
        "digests_agree": len({r["digest"] for r in results}) == 1,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "ops": [{"kind": s["kind"], "p": s.get("p"), "n": s.get("n"), "argv": s.get("argv")}
                for s in ops],
    }
    if tracer is not None:
        trace = tracer.result()
        merge(trace, ctx.cli_trace)
        trace["extra"]["serialize.report_bytes"] = results[0]["report_bytes"]
        trace["extra"].update(ctx.cli_samples)
        spans = {"in_process": trace.pop("spans"), "cli_children": ctx.cli_trace["spans"]}
        with open(os.path.join(run_dir, "spans.json"), "w") as fh:
            json.dump(spans, fh)
        out["trace"] = trace
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description="run one workload of the muram benchmark")
    sub = ap.add_subparsers(dest="mode", required=True)
    sp = sub.add_parser("setup")
    sp.add_argument("dir")
    sp = sub.add_parser("run")
    sp.add_argument("dir")
    sp.add_argument("--result", required=True)
    sp.add_argument("--seconds", type=float)
    sp.add_argument("--passes", type=int)
    sp.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    if args.mode == "setup":
        t0 = perf_counter()
        load(args.dir)
        print(perf_counter() - t0)
        return 0
    if (args.seconds is None) == (args.passes is None):
        ap.error("give exactly one of --seconds and --passes")
    out = run(args.dir, seconds=args.seconds, passes=args.passes, traced=args.trace)
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
