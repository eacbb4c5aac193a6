"""The benchmark reads the package by name (perfbench/tracer.py, checks.py).

A renamed or removed layer function would only surface when the benchmark
runs with --trace 1, and a renamed run-log field only when it checks a run,
so both are checked here, in the tier-1 suite.
"""

import dataclasses

import pytest

from cablelift import harness
from perfbench import checks, tracer


def test_every_traced_function_resolves_to_a_callable():
    targets = tracer.traced_functions()
    assert len(targets) == sum(len(attrs) for attrs in tracer.LAYER_FUNCTIONS.values())
    missing = [name for module, attr, name in targets if not callable(getattr(module, attr, None))]
    assert missing == []


@pytest.mark.parametrize(
    "workload, preset, duration",
    [
        ("circle", "circle-medium", 0.1),
        ("hover", "hover", 0.1),
        ("recovery", "hover-recovery", 0.5),
    ],
)
def test_run_checks_read_the_run_log(tmp_path, workload, preset, duration):
    """The benchmark's output check and invariant counters run on a short log
    and its CSV; a field they read that the log lacks raises here."""
    config = dataclasses.replace(harness.scenario_preset(preset), duration=duration)
    log = harness.run_closed_loop(config)
    csv_path = tmp_path / "run.csv"
    harness.emit_csv(log, csv_path)
    assert isinstance(checks.check_run(workload, log, csv_path), list)
    assert set(harness.invariant_counters(log)) == {"m_bounds", "horizon_chain"}


def test_benchmark_tests_doctor_the_run_log_by_replace():
    """perfbench/tests/test_checks.py doctors a run with dataclasses.replace
    on its tick records, its trigger events and the run log itself; each
    field it replaces reads back from the copy."""
    config = dataclasses.replace(harness.scenario_preset("hover-recovery"), duration=0.5)
    log = harness.run_closed_loop(config)
    record = log.ticks[-1]
    tensions = 0.5 * record.tensions
    doctored = dataclasses.replace(
        record, payload_err=0.01, tensions=tensions, t=record.t + 3.0, max_sep=1.2
    )
    assert (doctored.payload_err, doctored.t, doctored.max_sep) == (0.01, record.t + 3.0, 1.2)
    assert doctored.tensions is tensions
    event = dataclasses.replace(log.events[0], cost=10.0, m_k=0)
    assert (event.cost, event.m_k) == (10.0, 0)

    ticks = [doctored] * len(log.t)
    copy = dataclasses.replace(log, events=[event], ticks=ticks, solver_failures=1)
    assert copy.events == [event] and copy.ticks is ticks and copy.solver_failures == 1
    # without its own records, a copy reads its ticks from its columns
    assert dataclasses.replace(log, solver_failures=1).ticks[-1].payload_err == record.payload_err


def _traced_run(preset: str, duration: float):
    """A short run of a preset under the benchmark's tracer: (log, spans)."""
    config = dataclasses.replace(harness.scenario_preset(preset), duration=duration)
    spans = tracer.Tracer()
    spans.install(tracer.traced_functions())
    try:
        log = harness.run_closed_loop(config)
    finally:
        spans.uninstall()
    return log, spans.arrays()


def test_traced_tick_calls_each_layer_function_once():
    """Per-layer attribution rests on the tick calling every cable_control
    function, the allocation stages and the plant's step and cable reading
    once per tick for the whole rig, on the allocation map being built
    exactly once per run, shared by the controllers and every NMPC problem,
    and on the disturbance touching no payload_ocp function: a retraction
    outside a solve would land in the solver's layer."""
    log, arrays = _traced_run("hover", 0.02)
    table = tracer.SpanTable(**arrays)
    ticks = len(log.t)
    assert ticks == 10
    per_tick = [f"cable_control.{name}" for name in tracer.LAYER_FUNCTIONS["cable_control"]]
    stages = ("allocate", "nullspace_redistribute", "desired_cable_direction", "project_tension")
    per_tick += [f"allocation.{name}" for name in stages]
    per_tick += ["plant.step_world", "plant.cable_closure"]
    assert {name: table.calls(name) for name in per_tick} == {name: ticks for name in per_tick}
    solves = table.calls("sqp.solve")
    assert solves == log.nmpc_executions > 0
    assert table.calls("allocation.build_allocation") == 1

    log, arrays = _traced_run("circle-medium", 0.1)
    assert log.config.disturbance_eta > 0.0
    table = tracer.SpanTable(**arrays)
    ticks = len(log.t)
    assert table.calls("plant.step_world") == table.calls("plant.cable_closure") == ticks
    names = arrays["names"].tolist()
    name, parent = arrays["name"].tolist(), arrays["parent"].tolist()
    solve, retract = names.index("sqp.solve"), names.index("payload_ocp.retract")

    def inside_solve(i: int) -> bool:
        while i >= 0 and name[i] != solve:
            i = parent[i]
        return i >= 0

    retracts = [i for i, n in enumerate(name) if n == retract]
    assert retracts, "the solver's line search retracts"
    assert all(inside_solve(i) for i in retracts)
