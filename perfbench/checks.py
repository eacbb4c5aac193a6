"""Output check for one closed-loop run, computed from its own log and CSV.

The thresholds are those of the acceptance suite (tests/test_acceptance.py):
criteria 2-3 on the circle, 5 on the hover, 10 on the recovery.  A run that
fails any of them counts as failed; it is never dropped.
"""

from __future__ import annotations

import math

import numpy as np
from cablelift import harness


def _common(log, csv_path) -> list:
    problems = []
    if log.solver_failures:
        problems.append(f"{log.solver_failures} solver failures")
    for name, count in harness.invariant_counters(log).items():
        if count:
            problems.append(f"invariant counter {name} = {count}")
    config = log.config
    expected = math.ceil(config.duration / config.dt_tick - 1e-12)
    with open(csv_path) as f:
        rows = sum(1 for _ in f) - 1  # header
    if not rows == len(log.ticks) == expected:
        problems.append(f"CSV rows {rows}, log ticks {len(log.ticks)}, expected {expected}")
    return problems


def _circle(log) -> list:
    problems = []
    errs = np.array([r.payload_err for r in log.ticks if r.t >= 3.0])
    rms = float(np.sqrt(np.mean(errs**2)))
    if not rms <= 0.2:
        problems.append(f"rms payload error after 3 s {rms:.4f} m > 0.2 m")
    worst_sep = max(r.max_sep for r in log.ticks)
    if not worst_sep <= 1.05:
        problems.append(f"max pairwise separation {worst_sep:.4f} m > 1.05 m")
    return problems


def _hover(log) -> list:
    problems = []
    drift = max(r.payload_err for r in log.ticks)
    if not drift < 1e-3:
        problems.append(f"hover drift {drift:.3g} m >= 1e-3 m")
    tail = [r for r in log.ticks if r.t >= log.config.duration - 2.0]
    # cable force on the payload points attachment -> vehicle, the opposite
    # of the logged vehicle -> attachment direction
    lift = float(np.mean([np.sum(r.tensions * -r.directions[:, 2]) for r in tail]))
    weight = log.config.params.m_L * log.config.params.g
    if not abs(lift - weight) / weight < 0.01:
        problems.append(f"vertical tension sum {lift:.6f} N not within 1% of weight {weight:.6f} N")
    return problems


def _recovery(log) -> list:
    pairs = increases = 0
    for prev, ev in zip(log.events, log.events[1:]):
        if prev.kind == ev.kind == "forced" and prev.outside_terminal and ev.outside_terminal:
            pairs += 1
            if ev.cost > prev.cost * (1.0 + 1e-9):
                increases += 1
    if pairs == 0:
        return ["no consecutive forced replans outside the terminal region"]
    if increases:
        return [f"cost rose {increases} times over {pairs} consecutive forced replans"]
    return []


WORKLOAD_CHECKS = {"circle": _circle, "hover": _hover, "recovery": _recovery}


def check_run(workload: str, log, csv_path) -> list:
    """Every problem found in one finished run; an empty list means it passed."""
    return _common(log, csv_path) + WORKLOAD_CHECKS[workload](log)
