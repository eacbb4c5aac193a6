"""The benchmark's workloads and how its solve-time percentiles are taken.

All three are closed loops: every NMPC solve blocks the next control tick, so
a slower layer lowers the real-time factor instead of building a queue.
"""

from __future__ import annotations

from dataclasses import dataclass

# percentiles `solve_ms_tail` may be taken at, lowest first
PERCENTILE_GRID = (50, 75, 80, 85, 90, 95, 99)


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    # fixed per workload from the solve count of one run on the preset seed,
    # so every later run reports the same percentile (see tail_percentile)
    tail_percentile: int
    # one closed loop's wall time on a 2-core x86 machine (Python 3.11,
    # numpy 2.4, one BLAS thread); sets the loop count for a run length
    loop_s: float

    def loops(self, seconds: float) -> int:
        """Closed loops in a run of `seconds`: fixed by the run length, not by
        how fast this run happens to go, so every run takes a median of the
        same number of loops; at least two, since one circle loop holds only
        15-20 solves."""
        return max(2, round(seconds / self.loop_s))


# why each workload is in the benchmark: BENCHMARK.json, "workloads"
WORKLOADS = {
    w.name: w
    for w in (
        Workload("circle", "circle-medium", tail_percentile=50, loop_s=21.0),
        Workload("hover", "hover", tail_percentile=85, loop_s=11.0),
        Workload("recovery", "hover-recovery", tail_percentile=80, loop_s=2.2),
    )
}


def tail_percentile(n_samples: int) -> int:
    """Highest grid percentile that leaves at least ten samples above it.

    20 samples give p50, 64 give p80 and 91 give p85.  Below 20 samples no
    percentile qualifies and the median is used.
    """
    best = PERCENTILE_GRID[0]
    for p in PERCENTILE_GRID:
        if n_samples * (100 - p) >= 10 * 100:
            best = p
    return best


def harrell_davis(values, p: float) -> float:
    """The p-th percentile (0-100) of `values` by the Harrell-Davis estimator.

    A Beta-weighted mean of all order statistics instead of the one or two
    nearest ranks.  Solve times fall into clusters by SQP iteration count (on
    the circle, 3-iteration solves near 190 ms and 4-iteration ones near
    260 ms, with the median between them), where the rank-based median jumps
    from one cluster to the other with a single reordered solve.
    """
    from scipy.special import betainc

    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p / 100.0, (n + 1) * (1.0 - p / 100.0)
    edges = betainc(a, b, [i / n for i in range(n + 1)])
    return float(sum(w * x for w, x in zip(edges[1:] - edges[:-1], xs)))
