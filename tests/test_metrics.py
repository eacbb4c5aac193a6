"""Distance metrics, constant bounds, and the constraint margins."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cablelift import metrics
from cablelift.metrics import ConstraintBounds

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


class TestSeparations:
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


def obstacle_distance(p_L, p_O) -> float:
    """Payload-to-obstacle distance, as check_all reports it: the obstacle
    margin under a zero clearance."""
    margins = metrics.check_all(p_L, p_L, metrics.default_bounds(obstacle_center=p_O))
    return float(margins["obstacle"][0])


class TestObstacleDistance:
    def test_coincident(self):
        p = np.array([1.0, 1.0, 1.0])
        assert obstacle_distance(p, p) == 0.0

    def test_two_above(self):
        assert obstacle_distance(np.zeros(3), np.array([0.0, 0.0, 2.0])) == 2.0

    @given(a=vec3, b=vec3)
    def test_norm_oracle(self, a, b):
        assert obstacle_distance(a, b) == np.linalg.norm(a - b)


def hover_snapshot():
    return dict(payload_p=np.array([0.0, 0.0, 0.5]), payload_p_des=np.array([0.0, 0.0, 0.5]))


class TestCheckAll:
    def test_hover_all_satisfied(self):
        snap = hover_snapshot()
        margins = metrics.check_all(bounds=metrics.default_bounds(), **snap)
        assert list(margins) == ["payload_funnel"]
        assert all(np.all(m >= 0.0) for m in margins.values())
        far = metrics.default_bounds(obstacle_center=[5.0, 0.0, 0.5], obstacle_clearance=0.3)
        margins = metrics.check_all(bounds=far, **snap)
        assert list(margins) == ["payload_funnel", "obstacle"]
        assert all(np.all(m >= 0.0) for m in margins.values())

    def test_payload_funnel_violation_margin(self):
        snap = hover_snapshot()
        snap["payload_p"] = snap["payload_p_des"] + np.array([0.3, 0.0, 0.0])
        margins = metrics.check_all(bounds=metrics.default_bounds(payload_radius=0.2), **snap)
        assert margins["payload_funnel"][0] == pytest.approx(-0.1)

    def test_obstacle_entry(self):
        snap = hover_snapshot()
        bounds = metrics.default_bounds()
        bounds.obstacle_center = np.array([0.0, 0.0, 0.5])
        bounds.obstacle_clearance = 0.4
        margin = metrics.check_all(bounds=bounds, **snap)["obstacle"][0]
        assert margin == pytest.approx(-0.4)
        bounds.obstacle_center = np.array([5.0, 0.0, 0.5])
        assert metrics.check_all(bounds=bounds, **snap)["obstacle"][0] >= 0.0

    def test_pure_identical_reports(self):
        snap = hover_snapshot()
        bounds = metrics.default_bounds(obstacle_center=[0.3, 0.0, 0.5], obstacle_clearance=0.2)
        a = metrics.check_all(bounds=bounds, **snap)
        b = metrics.check_all(bounds=bounds, **snap)
        assert list(a) == list(b)
        for id in a:
            np.testing.assert_array_equal(a[id], b[id])

    def test_satisfied_iff_margin_nonnegative(self):
        """A margin is nonnegative exactly when its bound holds: the payload
        within the funnel radius of its desired position, and at least the
        clearance away from the obstacle, each met and missed."""
        rng = np.random.default_rng(8)
        center, clearance, radius = np.array([0.2, 0.0, 0.5]), 0.25, 0.2
        bounds = metrics.default_bounds(radius, center, clearance)
        inside_seen = set()
        for _ in range(50):
            snap = hover_snapshot()
            p = snap["payload_p"] = snap["payload_p"] + 0.3 * rng.standard_normal(3)
            margins = metrics.check_all(bounds=bounds, **snap)
            inside = {
                "payload_funnel": np.linalg.norm(p - snap["payload_p_des"]) <= radius,
                "obstacle": np.linalg.norm(p - center) >= clearance,
            }
            assert list(margins) == list(inside)
            for id, margin in margins.items():
                assert bool(margin[0] >= 0.0) == inside[id]
                inside_seen.add((id, inside[id]))
        assert len(inside_seen) == 4

    def test_default_pair_widths_follow_the_desired_formation(self):
        """pair_separations, which min_sep and max_sep read, is
        pair_separation of each pair i < j in row-major order, on a
        formation whose pairs all differ, and a stacked (T, n, 3) input
        gives each snapshot's row."""
        formation = np.array([[0.0, 0.0, 1.0], [0.5, 0.0, 1.0], [0.0, 0.9, 1.2], [-1.3, 0.2, 0.8]])
        widths = [
            metrics.pair_separation(formation[i], formation[j])
            for i in range(4)
            for j in range(i + 1, 4)
        ]
        np.testing.assert_allclose(metrics.pair_separations(formation), widths, rtol=1e-15, atol=0)
        stacked = np.stack([formation, formation[::-1], 2.0 * formation + 1.0])
        rows = metrics.pair_separations(stacked)
        assert rows.shape == (3, 6)
        for k, snapshot in enumerate(stacked):
            np.testing.assert_array_equal(rows[k], metrics.pair_separations(snapshot))

    def test_worst_entry(self):
        snap = hover_snapshot()
        # 0.1 m off the desired position, 0.1 m inside the 0.2 m funnel,
        # and 0.3 m from an obstacle that asks for 0.4 m
        snap["payload_p"] = snap["payload_p_des"] + np.array([0.1, 0.0, 0.0])
        bounds = metrics.default_bounds(obstacle_center=[0.4, 0.0, 0.5], obstacle_clearance=0.4)
        margins = metrics.check_all(bounds=bounds, **snap)
        assert min(margins, key=lambda id: margins[id][0]) == "obstacle"
        # 0.3 m off, 0.1 m outside the funnel, and clear of the obstacle
        snap["payload_p"] = snap["payload_p_des"] + np.array([-0.3, 0.0, 0.0])
        margins = metrics.check_all(bounds=bounds, **snap)
        assert min(margins, key=lambda id: margins[id][0]) == "payload_funnel"


# ---------------------------------------------------------------------------
# whole-run constraint margins


def check_snapshot(payload_p, payload_p_des, bounds):
    """One snapshot's margin per constraint id, computed one by one: the
    oracle for the stacked check_all."""
    e_L = float(np.linalg.norm(payload_p - payload_p_des))
    margins = {"payload_funnel": bounds.payload_radius - e_L}
    if bounds.obstacle_center is not None:
        e_LO = float(np.linalg.norm(payload_p - bounds.obstacle_center))
        margins["obstacle"] = e_LO - bounds.obstacle_clearance
    return margins


def assert_same_margins(margins, k, want):
    """Snapshot k of stacked margins equals one snapshot's, id for id."""
    assert list(margins) == list(want)
    for id, margin in want.items():
        assert margins[id][k] == margin


class TestConstraintTable:
    @settings(max_examples=60, deadline=None)
    @given(
        T=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        obstacle=st.booleans(),
    )
    def test_rows_match_single_snapshots(self, T, seed, obstacle):
        """Every id and margin of the stacked check equals the
        single-snapshot oracle exactly, and the check of that one snapshot,
        for a random funnel radius and an obstacle."""
        rng = np.random.default_rng(seed)
        bounds = ConstraintBounds(
            payload_radius=float(rng.uniform(0.01, 2.0)),
            obstacle_center=rng.normal(size=3) if obstacle else None,
            obstacle_clearance=float(rng.uniform(0.0, 1.0)),
        )
        payload_p = rng.normal(size=(T, 3))
        payload_p_des = rng.normal(size=(T, 3))
        margins = metrics.check_all(payload_p, payload_p_des, bounds)
        assert all(m.shape == (T,) for m in margins.values())
        for k in range(T):
            snapshot = (payload_p[k], payload_p_des[k])
            oracle = check_snapshot(*snapshot, bounds)
            assert_same_margins(margins, k, oracle)
            assert_same_margins(metrics.check_all(*snapshot, bounds), 0, oracle)

    def test_shared_desired_positions_broadcast(self):
        snap = hover_snapshot()
        snap["payload_p"] = snap["payload_p_des"] + np.array([0.0, 0.05, 0.0])
        bounds = metrics.default_bounds()
        payload_p = np.stack([snap["payload_p"]] * 2)
        stacked = metrics.check_all(payload_p, snap["payload_p_des"], bounds)
        single = metrics.check_all(bounds=bounds, **snap)
        assert_same_margins(stacked, 1, {id: m[0] for id, m in single.items()})
        np.testing.assert_array_equal(stacked["payload_funnel"], [0.2 - 0.05] * 2)

    def test_no_obstacle_margin_without_an_obstacle(self):
        snap = hover_snapshot()
        margins = metrics.check_all(bounds=metrics.default_bounds(), **snap)
        assert list(margins) == ["payload_funnel"]
        with pytest.raises(KeyError, match="'obstacle'"):
            margins["obstacle"]
