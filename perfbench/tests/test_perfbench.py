"""Tests of the benchmark itself (not collected by the repository's suite):

    python -m pytest perfbench/tests
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import layers  # noqa: E402
import mathref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _generate(tmp_path, name, workload="corpus", seed=7):
    out = str(tmp_path / name)
    subprocess.run([sys.executable, os.path.join(BENCH, "inputs.py"), "--workload", workload,
                    "--seed", str(seed), "--out", out], check=True, env=workloads.child_env())
    return out


def _run(out, *extra):
    result = os.path.join(out, "result.json")
    subprocess.run([sys.executable, os.path.join(BENCH, "workloads.py"), "run", out,
                    "--result", result, "--passes", "1", *extra],
                   check=True, env=workloads.child_env())
    with open(result) as fh:
        return json.load(fh)


def test_same_seed_same_inputs_and_digest(tmp_path):
    a, b = _generate(tmp_path, "a"), _generate(tmp_path, "b")
    files = ["manifest.json"] + json.load(open(os.path.join(a, "manifest.json")))["inputs"]
    match, mismatch, errors = filecmp.cmpfiles(a, b, files, shallow=False)
    assert not mismatch and not errors and len(match) == len(files)
    ra, rb = _run(a), _run(b)
    assert ra["digest"] == rb["digest"]
    assert ra["passes"][0]["failures"] == []


def test_timed_run_measures_host_speed_for_every_op(tmp_path):
    out = _generate(tmp_path, "a")
    result = os.path.join(out, "timed.json")
    subprocess.run([sys.executable, os.path.join(BENCH, "workloads.py"), "run", out,
                    "--result", result, "--seconds", "0.1"],
                   check=True, env=workloads.child_env())
    for p in json.load(open(result))["passes"]:
        assert len(p["ref_ns"]) == len(p["samples_ns"])
        assert all(r > 0 for r in p["ref_ns"]) and all(ns > 0 for ns in p["samples_ns"])


def test_other_seed_other_inputs(tmp_path):
    a, b = _generate(tmp_path, "a", seed=1), _generate(tmp_path, "b", seed=2)
    assert open(os.path.join(a, "manifest.json")).read() != open(
        os.path.join(b, "manifest.json")).read()


def test_traced_counts_repeat(tmp_path):
    out = _generate(tmp_path, "a")
    first = _run(out, "--trace")["trace"]
    second = _run(out, "--trace")["trace"]
    counts = lambda t: {name: row[0] for name, row in t["stats"].items()}  # noqa: E731
    assert counts(first) == counts(second)
    assert first["extra"] == second["extra"]
    assert first["extra"]["covering.entries_built"] > 0
    spans = json.load(open(os.path.join(out, "spans.json")))["in_process"]
    assert spans and all(len(s) == 5 for s in spans)


def _planted_predict_genus(original):
    def planted(gm, **kwargs):
        rep = original(gm, **kwargs)
        rep.deg_R += 2
        rep.rhs += 2
        rep.g_Y += 1
        return rep
    return planted


def _planted_oracle(original):
    return lambda model: original(model) + 1


@pytest.mark.parametrize("workload, module, name, plant, expected", [
    ("corpus", "rh_genus", "predict_genus", _planted_predict_genus, 48),
    ("oracle", "snf_oracle", "oracle_multiplicity", _planted_oracle, None),
])
def test_planted_wrong_answer_fails(tmp_path, monkeypatch, workload, module, name, plant,
                                    expected):
    import importlib

    out = _generate(tmp_path, "a", workload=workload)
    manifest, covs = workloads.load(out)
    ctx = workloads.Ctx(out, covs)
    ops = [op for op in manifest["ops"] if op["p"] ** op["n"] <= 9]
    if workload == "oracle":
        workloads.prepare_oracle(ctx, ops)
    clean = workloads.run_pass(ctx, ops)
    assert clean["failures"] == []
    mod = importlib.import_module(f"muram.{module}")
    monkeypatch.setattr(mod, name, plant(getattr(mod, name)))
    planted = workloads.run_pass(ctx, ops)
    failed = planted["failures"]
    assert failed and all(f["class"] == "wrong" for f in failed)
    assert len(failed) == (expected or len(ops))


def _snapshot():
    """Identity of every function and class reachable from muram's module
    namespaces, class dictionaries and dispatch tables, for checking that
    a traced run left nothing wrapped."""
    out = {}
    for key, mod in sorted(sys.modules.items()):
        if key.split(".")[0] != "muram":
            continue
        for attr, value in vars(mod).items():
            if callable(value):
                out[(key, attr)] = value
            if isinstance(value, type) and value.__module__ == key:
                for cattr, cvalue in vars(value).items():
                    out[(key, attr, cattr)] = cvalue
            elif isinstance(value, dict) and not attr.startswith("__"):
                for dkey, dvalue in value.items():
                    if callable(dvalue):
                        out[(key, attr, repr(dkey))] = dvalue
    return out


def test_wrappers_restored_after_traced_pass(tmp_path):
    import muram.cli  # noqa: F401  (every probed module loaded before the snapshot)
    import muram.fppoly

    out = _generate(tmp_path, "a")
    before = _snapshot()
    original_mul = muram.fppoly.Poly.__mul__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert muram.fppoly.Poly.__mul__ is not original_mul
        manifest, covs = workloads.load(out)
        ctx = workloads.Ctx(out, covs, tracer)
        assert workloads.run_pass(ctx, manifest["ops"])["failures"] == []
    finally:
        tracer.restore()
    after = _snapshot()
    assert before.keys() == after.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert tracer.stats["fppoly.mul"][0] > 0


def test_malformed_cli_inputs_count_as_failures(tmp_path):
    out = _generate(tmp_path, "a", workload="cli")
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    ctx = workloads.Ctx(out, {})
    malformed = [op for op in manifest["ops"] if op["check"] in ("malformed", "reject")]
    result = workloads.run_pass(ctx, malformed)
    for op, ns in zip(malformed, result["samples_ns"]):
        assert ns > 0
    kinds = {malformed[f["op"]]["check"] for f in result["failures"]}
    # the two acceptance rejects pass; malformed input fails while it ends in a traceback
    assert kinds <= {"malformed"}
    assert all(f["class"] == "error" for f in result["failures"])


def test_reference_arithmetic():
    f = [0, 1, 1, 1, 1]  # x (x + 1)^3 over F_2
    assert mathref.factor(f, 2) == [((0, 1), 1), ((1, 1), 3)]
    assert mathref.factor([1, 1, 1], 2) == [((1, 1, 1), 1)]
    assert mathref.expected_divisor(f, 2, 4) == {"0,1": 3, "1,1": 3}
    assert mathref.expected_divisor([0, 1], 3, 3) == {"0,1": 2, "inf": 2}
    assert mathref.is_qth_power_multiple([0, 1, 0, 1], [0, 1], 2, 2)  # x (x + 1)^2
    assert not mathref.is_qth_power_multiple([0, 1, 1], [0, 1], 2, 2)


def test_benchmark_json_matches_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert sorted(inputs.GENERATORS) == sorted(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        row[:3] for row in layers.PER_LAYER if row[0] not in layers.UNGATED
    ]
    assert layers.UNGATED <= {row[0] for row in layers.PER_LAYER}
    assert set(layers.LAYER_MAP) == {probe[0] for probe in layers.PROBES}
    for layer in layers.LAYER_MAP:
        assert any(row[0].startswith(layer + ".") for row in layers.PER_LAYER)
        metrics, wls = layers.LAYER_MAP[layer]
        assert set(metrics) <= {m["name"] for m in bench["end_to_end"]}
        assert set(wls) <= set(run.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed",
                           "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
