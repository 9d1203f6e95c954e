import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_frobenius_family_is_rational():
    rows = [line for line in run_script("frobenius_family.py").splitlines() if "g(Y) =" in line]
    assert len(rows) == 11
    assert all(line.rstrip().endswith("g(Y) = 0") for line in rows)


def _bench_record():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "bench_record", os.path.join(ROOT, "scripts", "bench_record.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fixture_report(workload, seed, trace, ops_per_ref, rss, failed=0):
    return {
        "workload": workload, "seed": seed, "trace": trace, "attempted": 10, "failed": failed,
        "correct": failed == 0, "digest": f"d{seed}",
        "metrics": {"ops_per_ref": {"unit": "1/ref", "value": ops_per_ref},
                    "peak_rss_mb": {"unit": "MB", "value": rss}},
    }


def test_bench_record_summarizes_fixture_runs(tmp_path):
    bench = _bench_record()
    out = tmp_path / ".perfbench_out"
    out.mkdir()
    fixtures = [
        _fixture_report("oracle", 3, 0, 0.5, 24.0),
        _fixture_report("oracle", 1, 0, 0.7, 24.5),
        _fixture_report("oracle", 2, 0, 0.6, 25.0, failed=1),
        _fixture_report("oracle", 1, 1, 0.2, 30.0),
        _fixture_report("cli", 1, 0, 0.25, 22.0),
        _fixture_report("cli", 2, 0, 0.75, 23.0),
    ]
    for rep in fixtures:
        with open(out / f"{rep['workload']}-s{rep['seed']}-t{rep['trace']}.json", "w") as fh:
            json.dump(rep, fh)
    reports = [bench.load_report(str(tmp_path), w, s, t)
               for w, s, t in [("oracle", 1, 0), ("oracle", 2, 0), ("oracle", 3, 0),
                               ("oracle", 1, 1), ("cli", 1, 0), ("cli", 2, 0)]]
    summary = bench.summarize(reports)
    assert sorted(summary) == ["cli-t0", "oracle-t0", "oracle-t1"]
    oracle = summary["oracle-t0"]
    assert oracle["seeds"] == [1, 2, 3]
    assert (oracle["attempted"], oracle["failed"], oracle["correct"]) == (30, 1, False)
    assert oracle["digests"] == {"1": "d1", "2": "d2", "3": "d3"}
    assert oracle["metrics"]["ops_per_ref"] == {
        "unit": "1/ref", "median": 0.6, "min": 0.5, "max": 0.7, "n": 3}
    assert oracle["metrics"]["peak_rss_mb"]["median"] == 24.5
    assert summary["oracle-t1"]["metrics"]["ops_per_ref"]["median"] == 0.2
    assert summary["cli-t0"]["metrics"]["ops_per_ref"]["median"] == 0.5
    assert summary["cli-t0"]["correct"] is True
    declared = {"command": ["python3", "perfbench/run.py"], "run_seconds": 12.5}
    rec = bench.record(summary, "0123456789abcdef", False, declared)
    assert rec["git_sha"] == "0123456789abcdef" and rec["runs"] is summary
    assert rec["command"] == "python3 perfbench/run.py --seconds 12.5"
    assert {"platform", "machine", "cpu", "cpus"} <= set(rec["host"])
    json.dumps(rec)


def test_bench_record_takes_run_length_and_workloads_from_benchmark_json():
    bench = _bench_record()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    assert bench.load_benchmark() == declared
    cmd = bench.bench_command(declared)
    assert cmd[:len(declared["command"])] == declared["command"]
    assert float(cmd[cmd.index("--seconds") + 1]) == declared["run_seconds"]


def _fixture_record(sha, oracle_ops, rss, poly_new, digest="d1", attempted=10, failed=0):
    def run(metrics):
        return {"seeds": [1], "attempted": attempted, "failed": failed, "correct": not failed,
                "digests": {"1": digest},
                "metrics": {name: {"unit": "", "median": v, "min": v, "max": v, "n": 1}
                            for name, v in metrics.items()}}
    return {"git_sha": sha, "runs": {
        "oracle-t0": run({"ops_per_ref": oracle_ops, "peak_rss_mb": rss}),
        "oracle-t1": run({"fppoly.poly_new.count": poly_new, "fppoly.self_s": 0.5}),
    }}


def test_bench_record_compares_fixture_records(tmp_path, capsys):
    bench = _bench_record()
    declared = {
        "workloads": [{"name": "oracle"}, {"name": "cli"}],
        "end_to_end": [{"name": "ops_per_ref", "better": "higher", "bound": 0.2},
                       {"name": "peak_rss_mb", "better": "lower", "bound": 0.05}],
        "per_layer": [{"name": "fppoly.poly_new.count"}, {"name": "fppoly.self_s"}],
    }
    old = _fixture_record("a" * 40, 0.8, 24.0, 416000)
    better = _fixture_record("b" * 40, 1.2, 24.5, 20000, attempted=25)
    lines, refused = bench.compare(old, better, declared)
    assert refused == []
    assert lines[0] == "oracle: aaaaaaa -> bbbbbbb"
    ops = next(line for line in lines if "ops_per_ref" in line).split()
    assert ops[1:6] == ["0.8", "->", "1.2", "+50.0%", "bound"] and "WORSE" not in ops
    # the ops attempted in both records and their ratio follow the peak RSS
    rss = next(i for i, line in enumerate(lines) if "peak_rss_mb" in line)
    assert lines[rss + 1].split()[:5] == ["attempted", "10", "->", "25", "x2.50"]
    assert any("digests equal" in line for line in lines)
    layer = next(line for line in lines if "fppoly.poly_new.count" in line).split()
    assert layer[1:] == ["416000", "20000"]
    assert "cli: aaaaaaa -> bbbbbbb" in lines
    # throughput down by more than 20% and memory up by more than 5% are both marked
    slower = _fixture_record("c" * 40, 0.6, 25.5, 20000, digest="d2")
    lines, refused = bench.compare(old, slower, declared)
    assert refused == ["oracle: ops_per_ref worse, peak_rss_mb worse, report digests differ"]
    marked = [line.split()[0] for line in lines if line.endswith("WORSE")]
    assert marked == ["ops_per_ref", "peak_rss_mb"]
    assert any("digests DIFFER" in line for line in lines)
    # equal metrics still refuse the change when the reports or the failed ops differ
    same_metrics = {
        "digests": _fixture_record("d" * 40, 0.8, 24.0, 416000, digest="d2"),
        "failed": _fixture_record("e" * 40, 0.8, 24.0, 416000, failed=2),
    }
    for key, rec in same_metrics.items():
        lines, refused = bench.compare(old, rec, declared)
        assert not any(line.endswith("WORSE") for line in lines)
        assert refused == [{"digests": "oracle: report digests differ",
                            "failed": "oracle: more ops fail"}[key]]
    for new, code in ((slower, 1), (same_metrics["digests"], 1), (same_metrics["failed"], 1),
                      (better, 0)):
        paths = []
        for name, rec in (("old", old), ("new", new)):
            paths.append(str(tmp_path / f"{name}.json"))
            with open(paths[-1], "w") as fh:
                json.dump(rec, fh)
        assert bench.main(["--compare", *paths]) == code
        out = capsys.readouterr().out
        assert "ops_per_ref" in out
        assert ("REFUSED oracle: " in out) == (code == 1)


def test_path_timings_prints_one_row_per_path():
    out = run_script("path_timings.py", "--q", "4,8", "--repeat", "1")
    paths, cold = (table.splitlines() for table in out.split("\n\n"))
    assert paths[0] == "| path | q=4 | q=8 |"
    rows = [line.split(" | ") for line in paths[2:]]
    assert [row[0] for row in rows] == [
        "| `factor`, x^(q+1)(x+1)^(2q+1)",
        "| `ramification_divisor` incl. ∞", "| `check_chart_consistency`",
        "| `check_chart_consistency`, twisted Kummer data", "| `gorenstein_places`",
        "| `predict_genus`",
        "| `to_cocycle` + `gorenstein_places`, finite places",
        "| `validate` + `forward_decompose`, twisted table",
        "| `gorenstein_places`, twisted table after `validate`",
        "| `build_presentation` at (x)", "| `snf_length` setup at (x)",
        "| `oracle_multiplicity` at (x)", "| oracle at (x), f = x^5(x^3+x+1)",
    ]
    assert all(cell.rstrip(" |").endswith(" ms") for row in rows for cell in row[1:])
    assert cold[0] == "| cold start, median of 1 | from source | from .pyc |"
    starts = [line.split(" | ") for line in cold[2:]]
    assert [row[0] for row in starts] == [
        "| `import muram.serialize`", "| importing every module",
        "| `python -m muram.cli ramify` on z^16 = x, whole process",
    ]
    assert all(cell.rstrip(" |").endswith((" ms", " s")) for row in starts for cell in row[1:])


def test_path_timings_refuses_a_q_that_is_no_prime_power():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "path_timings.py"),
                           "--q", "12"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2 and "12 is not a prime power" in proc.stderr
