"""The reference kernel: fixed pure-Python work that never touches muram.

The host the benchmark was built on drifts in speed by up to 1.8x over
seconds to minutes, for all code alike.  Timing this kernel where and
when an op runs measures that drift, so that op times can also be given
in units of the kernel's time.  It imports nothing but time, so that
the CLI launcher (cli_ref.py) stays as light as ``python -m``.
"""

from time import perf_counter_ns


def reference_ns():
    """Wall time of one run of the kernel, about 5 ms."""
    t0 = perf_counter_ns()
    table = {}
    for i in range(60_000):
        table[i % 512] = (i * 7) % 13
    return perf_counter_ns() - t0
