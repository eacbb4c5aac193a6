"""Span arithmetic, wrapper installation and removal, traced == untraced."""

import dataclasses
import hashlib

import numpy as np
import pytest

from cablelift import harness
from perfbench import tracer


def _table(spans):
    """spans: (name, parent index, start, end) rows."""
    names = sorted({s[0] for s in spans})
    return tracer.SpanTable(
        names=names,
        name=np.array([names.index(s[0]) for s in spans]),
        parent=np.array([s[1] for s in spans]),
        start=np.array([s[2] for s in spans], dtype=float),
        end=np.array([s[3] for s in spans], dtype=float),
    )


def test_self_time_subtracts_direct_children_only():
    # sqp.solve [0, 10] -> qp [1, 4], payload_ocp.total_cost [5, 9];
    # total_cost -> payload_ocp.discretize [6, 7]; a second root [20, 22]
    table = _table(
        [
            ("sqp.solve", -1, 0, 10),
            ("sqp.qp_subproblem", 0, 1, 4),
            ("payload_ocp.total_cost", 0, 5, 9),
            ("payload_ocp.discretize", 2, 6, 7),
            ("sqp.solve", -1, 20, 22),
        ]
    )
    assert table.self_time.tolist() == [3.0, 3.0, 3.0, 1.0, 2.0]
    assert table.self_s("sqp.solve") == 5.0
    assert table.total_s("sqp.solve") == 12.0
    assert table.calls("sqp.solve") == 2
    assert table.self_s("sqp") == 8.0  # layer prefix sums solve and qp
    assert table.self_s("payload_ocp") == 4.0
    assert table.phase_s("sqp.solve", ("payload_ocp.total_cost",)) == 4.0
    # discretize under total_cost is not a direct child of solve
    assert table.phase_s("sqp.solve", ("payload_ocp.discretize",)) == 0.0
    assert table.calls("plant") == 0 and table.self_s("plant") == 0.0


def test_wrapper_records_nesting_and_return_values():
    spans = tracer.Tracer()

    @dataclasses.dataclass
    class Result:
        iterations: int
        status: str

    inner = spans.wrap("sqp.qp_subproblem", lambda: Result(3, "optimal"))
    outer = spans.wrap("sqp.solve", lambda: (inner(), inner(), Result(2, "converged"))[-1])
    assert outer() == Result(2, "converged")
    arrays = spans.arrays()
    assert list(arrays["parent"]) == [-1, 0, 0]
    assert [arrays["names"][i] for i in arrays["name"]] == [
        "sqp.solve", "sqp.qp_subproblem", "sqp.qp_subproblem",
    ]
    assert np.all(arrays["end"] >= arrays["start"])
    assert spans.returns["sqp.qp_subproblem"] == [(3, "optimal"), (3, "optimal")]
    assert spans.returns["sqp.solve"] == [(2, "converged")]


def _short(preset, duration):
    return dataclasses.replace(harness.scenario_preset(preset), duration=duration)


def _csv_digest(log, path):
    harness.emit_csv(log, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("preset, duration", [("hover", 0.12), ("hover-recovery", 0.5)])
def test_traced_run_restores_every_attribute_and_changes_no_output(preset, duration, tmp_path):
    targets = tracer.traced_functions()
    originals = [getattr(module, attr) for module, attr, _ in targets]
    plain = _csv_digest(harness.run_closed_loop(_short(preset, duration)), tmp_path / "a.csv")

    spans = tracer.Tracer()
    spans.install(targets)
    try:
        assert all(
            getattr(module, attr) is not original
            for (module, attr, _), original in zip(targets, originals)
        )
        log = harness.run_closed_loop(_short(preset, duration))
    finally:
        spans.uninstall()
    for (module, attr, _), original in zip(targets, originals):
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} left wrapped"

    assert _csv_digest(log, tmp_path / "b.csv") == plain
    table = tracer.SpanTable(**spans.arrays())
    layers = tracer.layer_metrics(table, spans.returns)
    assert layers["sqp.solve.calls"] == len(log.events)
    assert layers["sqp.iterations"] == sum(e.iterations for e in log.events)
    if preset == "hover":
        # the harness closes the cables once and step_world again per tick
        assert layers["plant.step_world.calls"] == len(log.ticks)
        assert layers["plant.cable_closure.calls"] == 2 * len(log.ticks)
    else:
        assert layers["plant.step_world.calls"] == 0
