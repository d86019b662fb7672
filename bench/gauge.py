"""The gauge: a fixed pure-Python kernel, timed next to the package.

The host of a small VM changes speed from second to second and from
minute to minute, and a slower host slows this kernel and the package
alike.  So the benchmark times the kernel between operations and reports
each operation's time over the kernel's time at that moment, converted
back to time at the kernel's nominal speed, NOMINAL_S.  The ratio keeps
what the package costs and drops most of how busy the host was.  The
kernel never calls the package, so a change to the package cannot move
it.  This module imports nothing but `time`, so that a fresh interpreter
can run it before timing the package's import.
"""

import time

# About the kernel's best time on a quiet 2-vCPU x86_64 VM running
# Python 3.11; it fixes the unit, not the ratio.
NOMINAL_S = 0.002


def kernel(n=4000):
    """Integer arithmetic, dict and list work, a sort and a join: the mix
    the package runs."""
    table, pairs = {}, []
    for i in range(n):
        k = i * 7919 % 97
        table[k] = table.get(k, 0) + i * i
        pairs.append((k, -i))
    pairs.sort()
    return sum(table.values()) + len(pairs) + len(",".join(map(str, table)))


def seconds():
    """One timed run of the kernel."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
