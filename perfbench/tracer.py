"""Span tracing around the cablelift layers, from outside the package.

`Tracer.install` replaces the public functions of each traced module with
timing wrappers, on the module object itself.  The package calls its layers
through module attributes (`plant.step_world`, `ocp.linearize_dynamics`, and
inside a module through its globals), so every call is seen without editing
`src/`.  `uninstall` puts the original objects back.

A span is (name, start, end, parent).  Spans live in flat arrays while the
run goes on and are reduced to per-layer numbers, or written out, after it.
`so3` is left alone: its helpers take microseconds, less than a wrapper costs,
and their time lands in the caller's self time.  `cli` has no spans; its cost
is the benchmark's set-up time.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

# The layer boundaries: every function harness and sqp call on another
# layer, plus sqp.qp_subproblem, the solver's own QP layer.  Wrapping the module
# attribute also catches calls from inside the module through its globals
# (step_world's own cable_closure, check_all's pair_separation).  Helpers used
# only inside a layer (plant.rk4_step, cable_control.cable_errors) stay
# unwrapped and count as their caller's self time.  harness is wrapped only at
# the entry points `cablelift run` calls, so the loop's own glue (references,
# TickRecord assembly, so3 calls) is its self time.
LAYER_FUNCTIONS = {
    "plant": ("step_world", "cable_closure"),
    "cable_control": (
        "attachment_accel", "control_components", "thrust_command",
        "desired_attitude", "attitude_errors", "moment_command",
    ),
    "allocation": (
        "build_allocation", "allocate", "nullspace_redistribute",
        "desired_cable_direction", "project_tension",
    ),
    "metrics": ("default_bounds", "check_all", "pair_separation", "payload_los_error"),
    "event_trigger": ("should_trigger", "first_entry_index", "shrink_horizon", "record_trigger"),
    "sqp": ("solve", "shift_warm_start", "qp_subproblem"),
    "payload_ocp": (
        "build_ocp", "state_error", "discretize", "retract", "local_coords",
        "linearize_dynamics", "cost_expansion", "tension_rows",
        "tension_row_hessians", "obstacle_rows", "total_cost", "dynamics_defects",
    ),
    "harness": ("run_closed_loop", "summarize", "emit_csv", "emit_summary"),
}

# direct children of sqp.solve, grouped into solver phases
SQP_PHASES = {
    "linearize": (
        "payload_ocp.linearize_dynamics",
        "payload_ocp.cost_expansion",
        "payload_ocp.tension_rows",
        "payload_ocp.tension_row_hessians",
        "payload_ocp.obstacle_rows",
        "payload_ocp.local_coords",
        "payload_ocp.discretize",
    ),
    "qp": ("sqp.qp_subproblem",),
    "merit": ("payload_ocp.total_cost", "payload_ocp.dynamics_defects", "payload_ocp.retract"),
}


def traced_functions():
    """(module, attribute, span name) for every function the tracer wraps."""
    targets = []
    for layer, attrs in LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"cablelift.{layer}")
        targets += [(module, attr, f"{layer}.{attr}") for attr in attrs]
    return targets


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.names: list = []
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._saved: list = []
        # values read from the return values of wrapped calls
        self.returns = {
            "sqp.solve": [],  # (iterations, status)
            "sqp.qp_subproblem": [],  # (iterations, status)
        }

    def wrap(self, name: str, fn):
        """A wrapper that times fn as span `name` under the current span."""
        name_id = len(self.names)
        self.names.append(name)
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self._stack,
        )
        clock = time.perf_counter
        returns = self.returns.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if returns is not None:
                returns.append((result.iterations, result.status))
            return result

        return traced

    def install(self, targets) -> None:
        for module, attr, name in targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def arrays(self) -> dict:
        """The spans as numpy arrays: name id, parent index, start, end."""
        return {
            "names": np.array(self.names),
            "name": np.array(self.name_of, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start),
            "end": np.array(self.end),
        }


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Calls are nested on one thread, so children of one span never overlap
    and lie inside it; their durations simply add up.
    """
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - covered


class SpanTable:
    """Per-name and per-layer sums over one traced run."""

    def __init__(self, names, name, parent, start, end):
        self.names = [str(n) for n in names]
        self.name = name
        self.parent = parent
        self.duration = end - start
        self.self_time = self_times(parent, self.duration)
        k = len(self.names)
        self._calls = np.bincount(name, minlength=k)
        self._self = np.bincount(name, weights=self.self_time, minlength=k)
        self._total = np.bincount(name, weights=self.duration, minlength=k)

    def _ids(self, prefix: str):
        return [i for i, n in enumerate(self.names) if n == prefix or n.startswith(prefix + ".")]

    def calls(self, prefix: str) -> int:
        return int(sum(self._calls[i] for i in self._ids(prefix)))

    def self_s(self, prefix: str) -> float:
        return float(sum(self._self[i] for i in self._ids(prefix)))

    def total_s(self, prefix: str) -> float:
        return float(sum(self._total[i] for i in self._ids(prefix)))

    def phase_s(self, parent_name: str, children) -> float:
        """Summed duration of spans named in `children` whose parent span is
        `parent_name`; their own children are included."""
        parent_ids = [i for i, n in enumerate(self.names) if n == parent_name]
        child_ids = [i for i, n in enumerate(self.names) if n in children]
        if not parent_ids or not child_ids:
            return 0.0
        has_parent = self.parent >= 0
        parent_name_id = np.full(len(self.name), -1)
        parent_name_id[has_parent] = self.name[self.parent[has_parent]]
        mask = np.isin(parent_name_id, parent_ids) & np.isin(self.name, child_ids)
        return float(self.duration[mask].sum())


def layer_metrics(table: SpanTable, returns: dict) -> dict:
    """The benchmark's per-layer metrics from one traced run."""
    solves = returns["sqp.solve"]
    qps = returns["sqp.qp_subproblem"]
    out = {
        "plant.step_world.calls": table.calls("plant.step_world"),
        "plant.step_world.self_s": table.self_s("plant.step_world"),
        "plant.cable_closure.calls": table.calls("plant.cable_closure"),
        "plant.cable_closure.self_s": table.self_s("plant.cable_closure"),
        "cable_control.calls": table.calls("cable_control"),
        "cable_control.self_s": table.self_s("cable_control"),
        "allocation.calls": table.calls("allocation"),
        "allocation.self_s": table.self_s("allocation"),
        "allocation.nullspace_redistribute.self_s": table.self_s("allocation.nullspace_redistribute"),
        "metrics.check_all.self_s": table.self_s("metrics.check_all"),
        "metrics.pair_separation.calls": table.calls("metrics.pair_separation"),
        "metrics.self_s": table.self_s("metrics"),
        "event_trigger.should_trigger.calls": table.calls("event_trigger.should_trigger"),
        "event_trigger.self_s": table.self_s("event_trigger"),
        "sqp.solve.calls": table.calls("sqp.solve"),
        "sqp.solve.total_s": table.total_s("sqp.solve"),
        "sqp.solve.self_s": table.self_s("sqp.solve"),
        "sqp.iterations": sum(it for it, _ in solves),
        "sqp.converged_ratio": (
            sum(1 for _, status in solves if status == "converged") / len(solves) if solves else 0.0
        ),
        "sqp.qp_subproblem.calls": table.calls("sqp.qp_subproblem"),
        "sqp.qp_subproblem.self_s": table.self_s("sqp.qp_subproblem"),
        "sqp.qp_ipm_iters": sum(it for it, _ in qps),
        "sqp.qp_max_iter": sum(1 for _, status in qps if status == "max_iter"),
        "payload_ocp.linearize_dynamics.calls": table.calls("payload_ocp.linearize_dynamics"),
        "payload_ocp.linearize_dynamics.self_s": table.self_s("payload_ocp.linearize_dynamics"),
        "payload_ocp.discretize.calls": table.calls("payload_ocp.discretize"),
        "payload_ocp.discretize.self_s": table.self_s("payload_ocp.discretize"),
        "payload_ocp.cost_expansion.self_s": table.self_s("payload_ocp.cost_expansion"),
        "payload_ocp.self_s": table.self_s("payload_ocp"),
        "harness.self_s": table.self_s("harness.run_closed_loop"),
        "harness.emit_csv_s": table.total_s("harness.emit_csv"),
        "harness.summarize_s": table.total_s("harness.summarize"),
    }
    for phase, children in SQP_PHASES.items():
        out[f"sqp.phase.{phase}_s"] = table.phase_s("sqp.solve", children)
    return out
