"""Distance metrics, funnels, and the constraint report."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cablelift import metrics
from cablelift.metrics import ConstraintBounds, ConstraintEntry, FunnelSpec

vec3 = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=3, max_size=3
).map(np.array)


class TestLosErrors:
    def test_coincident_zero(self):
        p = np.array([1.0, 2.0, 3.0])
        assert metrics.payload_los_error(p, p) == 0.0

    def test_three_four_five(self):
        assert metrics.payload_los_error(np.zeros(3), np.array([3.0, 4.0, 0.0])) == 5.0

    def test_unit_offset(self):
        assert metrics.payload_los_error(np.zeros(3), np.array([0.0, 0.0, 1.0])) == 1.0

    @given(a=vec3, b=vec3)
    def test_matches_norm_oracle(self, a, b):
        assert metrics.payload_los_error(a, b) == np.linalg.norm(a - b)

    @given(a=vec3, b=vec3)
    def test_symmetric_nonnegative(self, a, b):
        d = metrics.payload_los_error(a, b)
        assert d >= 0.0
        assert d == metrics.payload_los_error(b, a)


def separation_error(p_des_i, p_des_j, p_i, p_j) -> float:
    """Desired minus actual distance of one pair, as check_all reports it."""
    desired = np.array([p_des_i, p_des_j])
    bounds = metrics.default_bounds(desired, f_max=1.0)
    report = metrics.check_all(
        0.0, np.zeros(3), np.zeros(3), np.array([p_i, p_j]), desired, np.zeros(2), bounds
    )
    return report["separation_0_1"].value


class TestSeparations:
    def test_identical_geometry_zero_error(self):
        pi, pj = np.array([0.3, 0.3, 0.0]), np.array([-0.3, 0.3, 0.0])
        assert separation_error(pi, pj, pi, pj) == 0.0

    def test_subtraction_example(self):
        # desired 0.6 apart, actually 0.5 apart -> error 0.1 (pair too close)
        di, dj = np.zeros(3), np.array([0.6, 0.0, 0.0])
        ai, aj = np.zeros(3), np.array([0.5, 0.0, 0.0])
        assert separation_error(di, dj, ai, aj) == pytest.approx(0.1)

    def test_square_formation_pairs(self):
        """0.6 m square: side pairs 0.6 m, diagonals about 0.86 m."""
        side = 0.6
        corners = np.array(
            [
                [side / 2, side / 2, 0],
                [-side / 2, side / 2, 0],
                [-side / 2, -side / 2, 0],
                [side / 2, -side / 2, 0],
            ]
        )
        sides = [(0, 1), (1, 2), (2, 3), (3, 0)]
        diagonals = [(0, 2), (1, 3)]
        for i, j in sides:
            assert metrics.pair_separation(corners[i], corners[j]) == pytest.approx(0.6)
        for i, j in diagonals:
            d = metrics.pair_separation(corners[i], corners[j])
            assert d == pytest.approx(side * np.sqrt(2), abs=1e-12)
            assert abs(d - 0.86) < 0.02

    @given(a=vec3, b=vec3, c=vec3)
    def test_triangle_inequality(self, a, b, c):
        ab = metrics.pair_separation(a, b)
        bc = metrics.pair_separation(b, c)
        ac = metrics.pair_separation(a, c)
        assert ac <= ab + bc + 1e-9

    @given(a=vec3, b=vec3)
    def test_desired_matches_actual_formula(self, a, b):
        assert metrics.desired_pair_separation(a, b) == metrics.pair_separation(a, b)


class TestObstacleDistance:
    def test_coincident(self):
        p = np.array([1.0, 1.0, 1.0])
        assert metrics.obstacle_distance(p, p) == 0.0

    def test_two_above(self):
        assert metrics.obstacle_distance(np.zeros(3), np.array([0.0, 0.0, 2.0])) == 2.0

    @given(a=vec3, b=vec3)
    def test_norm_oracle(self, a, b):
        assert metrics.obstacle_distance(a, b) == np.linalg.norm(a - b)


class TestFunnelSpec:
    def test_interpolation_midpoint(self):
        f = FunnelSpec(((0.0, 0.2), (10.0, 0.4)))
        assert f.value(5.0) == pytest.approx(0.3)

    def test_clamped_outside_table(self):
        f = FunnelSpec(((0.0, 0.2), (10.0, 0.4)))
        assert f.value(-1.0) == 0.2
        assert f.value(20.0) == 0.4

    def test_constant(self):
        f = FunnelSpec.constant(0.25)
        for t in (0.0, 3.7, 100.0):
            assert f.value(t) == 0.25

    def test_nonpositive_value_rejected(self):
        with pytest.raises(ValueError):
            FunnelSpec(((0.0, 0.0),))
        with pytest.raises(ValueError):
            FunnelSpec(((0.0, 0.2), (5.0, -0.1)))

    def test_nonincreasing_times_rejected(self):
        with pytest.raises(ValueError):
            FunnelSpec(((0.0, 0.2), (0.0, 0.3)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FunnelSpec(())


def square(side=0.6, z=1.5):
    return np.array(
        [
            [side / 2, side / 2, z],
            [-side / 2, side / 2, z],
            [-side / 2, -side / 2, z],
            [side / 2, -side / 2, z],
        ]
    )


def hover_snapshot():
    p_des = square()
    return dict(
        t=0.0,
        payload_p=np.array([0.0, 0.0, 0.5]),
        payload_p_des=np.array([0.0, 0.0, 0.5]),
        mav_p=p_des.copy(),
        mav_p_des=p_des,
        tensions=np.full(4, 0.57),
    )


class TestCheckAll:
    def test_hover_all_satisfied(self):
        snap = hover_snapshot()
        bounds = metrics.default_bounds(snap["mav_p_des"], f_max=1.2)
        report = metrics.check_all(bounds=bounds, **snap)
        assert report.all_satisfied
        assert len(report.entries) == 1 + 4 + 6 + 4  # payload, mavs, pairs, tensions

    def test_tension_at_bound_is_satisfied(self):
        snap = hover_snapshot()
        snap["tensions"] = np.array([1.2, 0.5, 0.5, 0.5])
        bounds = metrics.default_bounds(snap["mav_p_des"], f_max=1.2)
        report = metrics.check_all(bounds=bounds, **snap)
        entry = report["tension_0"]
        assert entry.satisfied
        assert entry.margin == 0.0

    def test_payload_funnel_violation_margin(self):
        snap = hover_snapshot()
        snap["payload_p"] = snap["payload_p_des"] + np.array([0.3, 0.0, 0.0])
        bounds = metrics.default_bounds(snap["mav_p_des"], f_max=1.2, payload_radius=0.2)
        report = metrics.check_all(bounds=bounds, **snap)
        entry = report["payload_funnel"]
        assert not entry.satisfied
        assert entry.margin == pytest.approx(-0.1)
        assert not report.all_satisfied

    def test_two_sided_separation(self):
        snap = hover_snapshot()
        bounds = metrics.default_bounds(snap["mav_p_des"], f_max=1.2, pair_fraction=0.3)
        # squeeze vehicles 0 and 1 together past the 0.18 m shrink allowance
        snap["mav_p"] = snap["mav_p_des"].copy()
        snap["mav_p"][0] = snap["mav_p_des"][1] + np.array([0.35, 0.0, 0.0])
        report = metrics.check_all(bounds=bounds, **snap)
        assert not report["separation_0_1"].satisfied
        # and overstretch the same pair past the widen allowance
        snap["mav_p"][0] = snap["mav_p_des"][1] + np.array([0.85, 0.0, 0.0])
        report = metrics.check_all(bounds=bounds, **snap)
        assert not report["separation_0_1"].satisfied
        # nominal geometry sits inside both bounds
        snap["mav_p"] = snap["mav_p_des"].copy()
        report = metrics.check_all(bounds=bounds, **snap)
        assert report["separation_0_1"].satisfied

    def test_obstacle_entry(self):
        snap = hover_snapshot()
        bounds = metrics.default_bounds(snap["mav_p_des"], f_max=1.2)
        bounds.obstacle_center = np.array([0.0, 0.0, 0.5])
        bounds.obstacle_clearance = 0.4
        report = metrics.check_all(bounds=bounds, **snap)
        assert report["obstacle"].margin == pytest.approx(-0.4)
        bounds.obstacle_center = np.array([5.0, 0.0, 0.5])
        report = metrics.check_all(bounds=bounds, **snap)
        assert report["obstacle"].satisfied

    def test_pure_identical_reports(self):
        snap = hover_snapshot()
        bounds = metrics.default_bounds(snap["mav_p_des"], f_max=1.2)
        a = metrics.check_all(bounds=bounds, **snap)
        b = metrics.check_all(bounds=bounds, **snap)
        assert a.entries == b.entries

    def test_satisfied_iff_margin_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            snap = hover_snapshot()
            snap["payload_p"] = snap["payload_p"] + 0.3 * rng.standard_normal(3)
            snap["mav_p"] = snap["mav_p"] + 0.3 * rng.standard_normal((4, 3))
            snap["tensions"] = rng.uniform(0.0, 2.0, 4)
            bounds = metrics.default_bounds(snap["mav_p_des"], f_max=1.2)
            for entry in metrics.check_all(bounds=bounds, **snap).entries:
                assert entry.satisfied == (entry.margin >= 0.0)

    def test_worst_entry(self):
        snap = hover_snapshot()
        snap["tensions"] = np.array([5.0, 0.1, 0.1, 0.1])
        bounds = metrics.default_bounds(snap["mav_p_des"], f_max=1.2)
        report = metrics.check_all(bounds=bounds, **snap)
        assert report.worst().id == "tension_0"
