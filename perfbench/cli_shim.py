"""Run one muram CLI invocation under the tracer, as a fresh process:

    python perfbench/cli_shim.py STATS_FILE ARGV...

Times a fresh ``import muram.cli``, installs the wrappers, runs
``muram.cli.main(ARGV)`` (so per-invocation set-up such as the sign
table is traced as a user pays it), restores the originals and writes
the aggregates and spans to STATS_FILE.  Output and exit code are the
CLI's own, an uncaught exception included.
"""

import json
import sys
from time import perf_counter_ns

from tracing import Tracer


def main():
    stats_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter_ns()
    import muram.cli as cli

    import_ns = perf_counter_ns() - t0
    tracer = Tracer()
    tracer.install()
    t1 = perf_counter_ns()
    try:
        return cli.main(argv)
    finally:
        main_ns = perf_counter_ns() - t1
        tracer.restore()
        result = tracer.result()
        result["import_ns"] = import_ns
        result["main_ns"] = main_ns
        with open(stats_path, "w") as fh:
            json.dump(result, fh)
        sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
