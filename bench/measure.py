"""Statistics, independent oracles and machine facts for the benchmark.

Nothing here imports forestry: the oracles are the benchmark's own
second route to the numbers the program reports.
"""

import os
import platform
import statistics
from time import perf_counter

# Reported times are scaled to a machine on which reference_work takes
# REF_SECONDS.  On a shared host the CPU speed a process gets drifts by
# up to half over minutes, as other tenants come and go.  The drift
# moves forestry's times and this loop's the same way when both run in
# one process, so dividing by the loop's time removes much of it; a
# loop timed in another process tracks it poorly.  The loop allocates
# no tracked objects, so nothing a forestry change does to the
# collector or the heap reaches it.
REF_SECONDS = 0.010
REF_SAMPLES = 15


def median(values):
    return statistics.median(values) if values else 0.0


def reference_work():
    s = 0
    d = {}
    for i in range(60000):
        s = (s + i * i) % 1000003
        d[i & 1023] = s
    return s


class Speed:
    """Samples reference_work through a run; seconds / ratio() are reference seconds."""

    def __init__(self):
        self.samples = []

    def sample(self, count=REF_SAMPLES):
        for _ in range(count):
            t0 = perf_counter()
            reference_work()
            self.samples.append(perf_counter() - t0)

    def ratio(self):
        """This run's reference time over REF_SECONDS: above 1 on a slower machine."""
        return median(self.samples) / REF_SECONDS


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With nearest-rank
    percentiles the value at 1-based rank n - 10 has exactly ten samples
    above it, at percentile 100 * (n - 10) / n.  When that rank would
    fall at or below the median (fewer than 20 samples) there is no
    tail to speak of, and the maximum is reported at percentile 100
    with nothing beyond it.
    """
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    ordered = sorted(values)
    rank = n - 10
    if 2 * rank <= n:
        return ordered[-1], 100.0, 0
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def kirchhoff_trees(n, bundles):
    """Spanning trees of a multigraph by a fraction-free (Bareiss) determinant.

    bundles is an iterable of (u, v, multiplicity) with u != v.  The
    reduced Laplacian of a connected graph is positive definite, so a
    zero pivot means the graph is disconnected and the count is 0.
    """
    if n <= 1:
        return 1
    lap = [[0] * n for _ in range(n)]
    for u, v, t in bundles:
        lap[u][u] += t
        lap[v][v] += t
        lap[u][v] -= t
        lap[v][u] -= t
    m = n - 1
    a = [row[:m] for row in lap[:m]]
    prev = 1
    for k in range(m - 1):
        pivot = a[k][k]
        if pivot == 0:
            return 0
        row_k = a[k]
        for i in range(k + 1, m):
            row_i = a[i]
            aik = row_i[k]
            for j in range(k + 1, m):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
        prev = pivot
    return a[m - 1][m - 1]


def forests_by_merging(n, bundles):
    """Spanning forests of a multigraph by tracking the partition of its vertices.

    Bundles are (u, v, multiplicity) and are taken one at a time; a
    forest uses at most one edge of a bundle, and only when u and v are
    still in different parts.  A part is labeled by its least vertex.
    """
    states = {tuple(range(n)): 1}
    for u, v, t in bundles:
        grown = dict(states)
        for parts, count in states.items():
            a, b = parts[u], parts[v]
            if a != b:
                lo, hi = min(a, b), max(a, b)
                merged = tuple(lo if x == hi else x for x in parts)
                grown[merged] = grown.get(merged, 0) + count * t
        states = grown
    return sum(states.values())


def source_lines(src_dir):
    """Non-blank lines of the .py files under src_dir that are not comments."""
    count = 0
    for dirpath, _, files in os.walk(src_dir):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    for line in fh:
                        s = line.strip()
                        if s and not s.startswith("#"):
                            count += 1
    return count


def machine_facts(src_dir):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "src_sloc": source_lines(src_dir),
    }
