"""The output check accepts real runs and rejects doctored logs."""

import dataclasses

import pytest

from cablelift import harness
from perfbench import checks


def _run(preset, tmp_path, duration=None):
    config = harness.scenario_preset(preset)
    if duration is not None:
        config = dataclasses.replace(config, duration=duration)
    log = harness.run_closed_loop(config)
    path = tmp_path / f"{preset}.csv"
    harness.emit_csv(log, path)
    return log, path


@pytest.fixture(scope="module")
def recovery(tmp_path_factory):
    return _run("hover-recovery", tmp_path_factory.mktemp("recovery"))


@pytest.fixture(scope="module")
def hover(tmp_path_factory):
    return _run("hover", tmp_path_factory.mktemp("hover"), duration=0.2)


def test_real_runs_pass(recovery, hover):
    assert checks.check_run("recovery", *recovery) == []
    assert checks.check_run("hover", *hover) == []


def test_rising_cost_between_forced_replans_is_rejected(recovery):
    log, path = recovery
    forced = [i for i, e in enumerate(log.events) if e.kind == "forced" and e.outside_terminal]
    events = list(log.events)
    events[forced[1]] = dataclasses.replace(events[forced[1]], cost=10 * events[forced[0]].cost)
    problems = checks.check_run("recovery", dataclasses.replace(log, events=events), path)
    assert any("cost rose" in p for p in problems)


def test_solver_failures_and_missing_rows_are_rejected(recovery, tmp_path):
    log, path = recovery
    assert checks.check_run("recovery", dataclasses.replace(log, solver_failures=1), path)
    short = tmp_path / "short.csv"
    short.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    assert any("CSV rows" in p for p in checks.check_run("recovery", log, short))


def test_broken_event_chain_is_rejected(recovery):
    log, path = recovery
    events = list(log.events)
    events[3] = dataclasses.replace(events[3], m_k=0)
    problems = checks.check_run("recovery", dataclasses.replace(log, events=events), path)
    assert any("m_bounds" in p for p in problems)


def test_hover_drift_and_lift_are_checked(hover):
    log, path = hover
    ticks = list(log.ticks)
    ticks[-1] = dataclasses.replace(ticks[-1], payload_err=0.01)
    assert checks.check_run("hover", dataclasses.replace(log, ticks=ticks), path)
    slack = [dataclasses.replace(r, tensions=0.5 * r.tensions) for r in log.ticks]
    problems = checks.check_run("hover", dataclasses.replace(log, ticks=slack), path)
    assert any("vertical tension" in p for p in problems)


def test_circle_tracking_and_separation_are_checked(hover):
    # the short hover stands in for a circle that tracks perfectly; shift it
    # past the 3 s transient the circle check skips
    log, path = hover
    late = [dataclasses.replace(r, t=r.t + 3.0) for r in log.ticks]
    assert checks.WORKLOAD_CHECKS["circle"](dataclasses.replace(log, ticks=late)) == []
    wide = [dataclasses.replace(r, max_sep=1.2) for r in late]
    assert checks.WORKLOAD_CHECKS["circle"](dataclasses.replace(log, ticks=wide))
    off = [dataclasses.replace(r, payload_err=0.5) for r in late]
    assert checks.WORKLOAD_CHECKS["circle"](dataclasses.replace(log, ticks=off))
