"""Start-up pays only for what runs.

Each check runs a fresh interpreter with this checkout's src/ on the
path, so modules that the test process itself has loaded do not count.
The library avoids `dataclasses`, which loads `inspect` (and with it
`ast`, `dis` and `tokenize`) in every process that imports it.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "muram")

# runs `python -m muram.cli ARGV` in this process, then writes its exit code
# and every loaded module name to OUT:  python -c CLI_PROBE OUT ARGV...
CLI_PROBE = """
import json, runpy, sys
out, sys.argv = sys.argv[1], ["muram", *sys.argv[2:]]
code = 0
try:
    runpy.run_module("muram.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
with open(out, "w") as fh:
    json.dump({"exit": code, "modules": sorted(sys.modules)}, fh)
"""

UNUSED_BY_FILE_COMMANDS = ["muram.algebra", "muram.gorenstein", "muram.rh_genus",
                           "muram.snf_oracle", "muram.randgen"]


def fresh(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def modules_after(statement):
    code = f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    return set(json.loads(fresh("-c", code)))


def test_importing_the_package_loads_no_module_of_it():
    assert {m for m in modules_after("import muram") if m.startswith("muram")} == {"muram"}


def test_importing_serialize_loads_no_dataclasses_and_no_unused_module():
    loaded = modules_after("import muram.serialize")
    assert "muram.covering" in loaded
    unwanted = ["dataclasses", "inspect", "muram.algebra", "muram.gorenstein",
                "muram.ramification", "muram.rh_genus", "muram.snf_oracle", "muram.randgen"]
    assert [m for m in unwanted if m in loaded] == []


@pytest.mark.parametrize("command, uses", [
    (["ramify"], "muram.ramification"),
    (["ramify", "--include-infinity"], "muram.ramification"),
    (["validate"], "muram.covering"),
])
def test_file_command_loads_only_its_modules(tmp_path, command, uses):
    cov = tmp_path / "cov.json"
    cov.write_text(json.dumps({"group": {"p": 2, "exponents": [4]}, "kind": "kummer",
                               "f": [[0, 1]]}))
    out = tmp_path / "out.json"
    report = json.loads(fresh("-c", CLI_PROBE, str(out), *command, "--input", str(cov)))
    probe = json.loads(out.read_text())
    assert probe["exit"] == 0 and report["command"] == command[0]
    assert uses in probe["modules"]
    assert [m for m in UNUSED_BY_FILE_COMMANDS + ["dataclasses"] if m in probe["modules"]] == []


def test_no_library_module_imports_dataclasses():
    files = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
    assert "ramification.py" in files
    found = []
    for name in files:
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "dataclasses" for m in modules):
                found.append(f"{name}:{node.lineno}")
    assert found == []
