"""A workload's summary fails when an exact value differs between runs."""

import pytest

from perfbench import run


def _report(**changes):
    report = {
        "mode": "run", "exit_code": 0, "aborted": None, "problems": [],
        "seed": 7, "setup_s": 0.4, "reference_import_s": 0.2, "duration_s": 10.0,
        "loop_s": 2.0, "wall_s": 2.1, "speed_factor": 1.0, "cpu_s": 2.3,
        "solve_ms": [10.0, 11.0, 12.0], "solve_factors": [1.0, 1.0, 1.0],
        "solve_iterations": [1, 1, 1],
        "peak_rss_mb": 64.0, "rms_err_m": 0.01, "nmpc_executions": 3,
        "counters": {"ticks": 200, "nmpc_steps": 200, "sqp_iterations": 6},
        "csv_sha256": "a", "summary_prefix_sha256": "b",
        "environment": {}, "restored": True,
    }
    report.update(changes)
    return report


def _summary(*reports):
    return run._summarize("recovery", list(reports), list(reports), traced=False)


def test_agreeing_runs_pass():
    result = _summary(_report(), _report(loop_s=2.2))
    assert result["problems"] == [] and result["notes"] == []
    assert result["metrics"]["nmpc_executions"] == 3


def test_a_counter_or_exact_metric_that_differs_is_a_problem():
    bad = _report(counters={"ticks": 200, "nmpc_steps": 200, "sqp_iterations": 7})
    assert any("sqp_iterations" in p for p in _summary(_report(), bad)["problems"])
    bad = _report(nmpc_executions=4)
    assert any("nmpc_executions" in p for p in _summary(_report(), bad)["problems"])
    bad = _report(rms_err_m=0.02)
    assert any("rms_err_m" in p for p in _summary(_report(), bad)["problems"])


def test_a_hash_that_differs_is_only_noted():
    result = _summary(_report(), _report(csv_sha256="c"))
    assert result["problems"] == []
    assert any("csv_sha256" in n for n in result["notes"])



def test_set_up_is_scaled_by_the_reference_import_after_it():
    result = _summary(
        _report(setup_s=0.6, reference_import_s=0.3), _report(setup_s=0.4, reference_import_s=0.2)
    )
    assert result["metrics"]["setup_s"] == run.REFERENCE_IMPORT_S * 2.0
    assert result["raw"]["setup_s"] == 0.5


def test_per_iteration_solve_time_divides_by_each_solves_iterations():
    report = _report(solve_ms=[30.0, 40.0, 50.0], solve_iterations=[3, 4, 5])
    metrics = _summary(report, dict(report))["metrics"]
    assert metrics["solve_ms_p50"] > 35.0
    assert metrics["solve_ms_per_iter_p50"] == pytest.approx(10.0)
