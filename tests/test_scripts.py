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


def test_devissage_sweep_verifies_every_identity():
    out = run_script("devissage_sweep.py", "--count", "8")
    assert out.rstrip().endswith("8/8 identities verified")


def test_frobenius_family_is_rational():
    rows = [line for line in run_script("frobenius_family.py").splitlines() if "g(Y) =" in line]
    assert len(rows) == 11
    assert all(line.rstrip().endswith("g(Y) = 0") for line in rows)
