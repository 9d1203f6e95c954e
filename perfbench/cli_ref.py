"""``python -m muram.cli ARGV`` with the reference kernel timed first:

    python perfbench/cli_ref.py ARGV...

The kernel runs in the same process as the CLI, just before it, so its
time reflects the host's speed for that call.  It is reported on the
first line of stderr as ``perfbench-reference-ns N``.
"""

import runpy
import sys

from refkernel import reference_ns

print(f"perfbench-reference-ns {reference_ns()}", file=sys.stderr, flush=True)
sys.argv = ["muram", *sys.argv[1:]]
runpy.run_module("muram.cli", run_name="__main__", alter_sys=True)
