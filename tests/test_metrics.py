"""Distance metrics, constant bounds, and the constraint table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cablelift import metrics
from cablelift.metrics import ConstraintBounds

vec3 = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=3, max_size=3
).map(np.array)


def entry(table, id):
    """(value, lower, upper, margin) of one constraint in the first row."""
    c = table.ids.index(id)
    return tuple(
        float(a) for a in (table.value[0, c], table.lower[c], table.upper[c], table.margin[0, c])
    )


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
    """Payload-to-obstacle distance, as check_all reports it."""
    table = metrics.check_all(p_L, p_L, metrics.default_bounds(obstacle_center=p_O))
    return entry(table, "obstacle")[0]


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
        table = metrics.check_all(bounds=metrics.default_bounds(), **snap)
        assert np.all(table.margin >= 0.0)
        assert table.ids == ("payload_funnel",)
        far = metrics.default_bounds(obstacle_center=[5.0, 0.0, 0.5], obstacle_clearance=0.3)
        table = metrics.check_all(bounds=far, **snap)
        assert np.all(table.margin >= 0.0)
        assert table.ids == ("payload_funnel", "obstacle")

    def test_payload_funnel_violation_margin(self):
        snap = hover_snapshot()
        snap["payload_p"] = snap["payload_p_des"] + np.array([0.3, 0.0, 0.0])
        table = metrics.check_all(bounds=metrics.default_bounds(payload_radius=0.2), **snap)
        assert table.margins("payload_funnel")[0] == pytest.approx(-0.1)
        assert np.any(table.margin < 0.0)

    def test_obstacle_entry(self):
        snap = hover_snapshot()
        bounds = metrics.default_bounds()
        bounds.obstacle_center = np.array([0.0, 0.0, 0.5])
        bounds.obstacle_clearance = 0.4
        margin = metrics.check_all(bounds=bounds, **snap).margins("obstacle")[0]
        assert margin == pytest.approx(-0.4)
        bounds.obstacle_center = np.array([5.0, 0.0, 0.5])
        assert metrics.check_all(bounds=bounds, **snap).margins("obstacle")[0] >= 0.0

    def test_pure_identical_reports(self):
        snap = hover_snapshot()
        bounds = metrics.default_bounds(obstacle_center=[0.3, 0.0, 0.5], obstacle_clearance=0.2)
        a = metrics.check_all(bounds=bounds, **snap)
        b = metrics.check_all(bounds=bounds, **snap)
        assert a.ids == b.ids
        for part in ("value", "lower", "upper", "margin"):
            np.testing.assert_array_equal(getattr(a, part), getattr(b, part))

    def test_satisfied_iff_margin_nonnegative(self):
        """A margin is nonnegative exactly when the value lies inside its
        bounds (nan: no bound on that side): the funnel's upper bound and
        the obstacle's lower bound, each met and missed."""
        rng = np.random.default_rng(8)
        bounds = metrics.default_bounds(obstacle_center=[0.2, 0.0, 0.5], obstacle_clearance=0.25)
        inside_seen = set()
        for _ in range(50):
            snap = hover_snapshot()
            snap["payload_p"] = snap["payload_p"] + 0.3 * rng.standard_normal(3)
            table = metrics.check_all(bounds=bounds, **snap)
            inside = (np.isnan(table.lower) | (table.value >= table.lower)) & (
                np.isnan(table.upper) | (table.value <= table.upper)
            )
            np.testing.assert_array_equal(inside, table.margin >= 0.0)
            inside_seen.update(zip(table.ids, inside[0].tolist()))
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
        table = metrics.check_all(bounds=bounds, **snap)
        assert table.ids[int(np.argmin(table.margin[0]))] == "obstacle"
        # 0.3 m off, 0.1 m outside the funnel, and clear of the obstacle
        snap["payload_p"] = snap["payload_p_des"] + np.array([-0.3, 0.0, 0.0])
        table = metrics.check_all(bounds=bounds, **snap)
        assert table.ids[int(np.argmin(table.margin[0]))] == "payload_funnel"


# ---------------------------------------------------------------------------
# whole-run constraint table


def check_snapshot(payload_p, payload_p_des, bounds):
    """One snapshot's (id, value, lower, upper, margin) entries, computed one
    by one: the oracle for the stacked check_all.  nan stands for a missing
    bound."""
    nan = float("nan")
    e_L = float(np.linalg.norm(payload_p - payload_p_des))
    eps = bounds.payload_radius
    entries = [("payload_funnel", e_L, nan, eps, eps - e_L)]
    if bounds.obstacle_center is not None:
        e_LO = float(np.linalg.norm(payload_p - bounds.obstacle_center))
        clearance = bounds.obstacle_clearance
        entries.append(("obstacle", e_LO, clearance, nan, e_LO - clearance))
    return entries


def table_row(table, k):
    """Snapshot k of a table as check_snapshot's entries."""
    parts = (table.value[k], table.lower, table.upper, table.margin[k])
    return [(id, *map(float, values)) for id, *values in zip(table.ids, *parts)]


def assert_same_entries(got, want):
    """Equal ids and numbers, nan matching nan."""
    assert [e[0] for e in got] == [e[0] for e in want]
    np.testing.assert_array_equal([e[1:] for e in got], [e[1:] for e in want])


class TestConstraintTable:
    @settings(max_examples=60, deadline=None)
    @given(
        T=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        obstacle=st.booleans(),
    )
    def test_rows_match_single_snapshots(self, T, seed, obstacle):
        """Every id, value, bound and margin of the stacked table equals the
        single-snapshot oracle exactly, and the table of that one snapshot,
        for a random funnel radius and an obstacle."""
        rng = np.random.default_rng(seed)
        bounds = ConstraintBounds(
            payload_radius=float(rng.uniform(0.01, 2.0)),
            obstacle_center=rng.normal(size=3) if obstacle else None,
            obstacle_clearance=float(rng.uniform(0.0, 1.0)),
        )
        payload_p = rng.normal(size=(T, 3))
        payload_p_des = rng.normal(size=(T, 3))
        table = metrics.check_all(payload_p, payload_p_des, bounds)
        m = len(table.ids)
        assert table.value.shape == table.margin.shape == (T, m)
        assert table.lower.shape == table.upper.shape == (m,)
        for k in range(T):
            snapshot = (payload_p[k], payload_p_des[k])
            oracle = check_snapshot(*snapshot, bounds)
            assert_same_entries(table_row(table, k), oracle)
            assert_same_entries(table_row(metrics.check_all(*snapshot, bounds), 0), oracle)
        for c, id in enumerate(table.ids):
            np.testing.assert_array_equal(table.margins(id), table.margin[:, c])

    def test_shared_desired_positions_broadcast(self):
        snap = hover_snapshot()
        snap["payload_p"] = snap["payload_p_des"] + np.array([0.0, 0.05, 0.0])
        bounds = metrics.default_bounds()
        payload_p = np.stack([snap["payload_p"]] * 2)
        stacked = metrics.check_all(payload_p, snap["payload_p_des"], bounds)
        single = metrics.check_all(bounds=bounds, **snap)
        assert_same_entries(table_row(stacked, 1), table_row(single, 0))
        np.testing.assert_array_equal(stacked.margins("payload_funnel"), [0.2 - 0.05] * 2)

    def test_unknown_id_is_a_key_error_listing_the_ids(self):
        snap = hover_snapshot()
        table = metrics.check_all(bounds=metrics.default_bounds(), **snap)
        assert "obstacle" not in table.ids
        with pytest.raises(KeyError, match="'obstacle'") as caught:
            table.margins("obstacle")
        assert all(id in str(caught.value) for id in table.ids)
