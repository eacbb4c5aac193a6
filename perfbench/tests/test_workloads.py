"""The solve-time percentile rule and estimator."""

import pytest

from perfbench.workloads import WORKLOADS, harrell_davis, tail_percentile


@pytest.mark.parametrize(
    "samples, expected",
    [(20, 50), (64, 80), (91, 85), (100, 90), (1000, 99)],
)
def test_tail_percentile_leaves_ten_samples_above(samples, expected):
    assert tail_percentile(samples) == expected
    assert samples * (100 - expected) >= 1000


def test_fewer_than_twenty_samples_fall_back_to_the_median():
    assert tail_percentile(19) == 50


@pytest.mark.parametrize(
    "workload, solves", [("circle", 20), ("hover", 91), ("recovery", 64)]
)
def test_fixed_percentile_matches_the_rule_at_the_preset_seed(workload, solves):
    assert WORKLOADS[workload].tail_percentile == tail_percentile(solves)


def test_harrell_davis_median_of_a_symmetric_sample():
    assert harrell_davis([1.0, 2.0, 3.0], 50) == pytest.approx(2.0)
    assert harrell_davis([5.0] * 9, 85) == pytest.approx(5.0)


def test_harrell_davis_moves_little_when_one_sample_changes_cluster():
    # 3- and 4-iteration solves: the rank median jumps by half, this does not
    fast_heavy = harrell_davis([200.0] * 8 + [300.0] * 7, 50)
    slow_heavy = harrell_davis([200.0] * 7 + [300.0] * 8, 50)
    assert 200.0 < fast_heavy < slow_heavy < 300.0
    assert slow_heavy / fast_heavy < 1.1
