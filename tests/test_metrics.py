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


def check_one(payload_p, payload_p_des, mav_p, mav_p_des, tensions, bounds):
    """check_all of one snapshot, stacked as a run of one tick."""
    tensions = np.asarray(tensions)[None]
    return metrics.check_all(payload_p, payload_p_des, mav_p, mav_p_des, tensions, bounds)


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


def separation_error(p_des_i, p_des_j, p_i, p_j) -> float:
    """Desired minus actual distance of one pair, as check_all reports it."""
    desired = np.array([p_des_i, p_des_j])
    bounds = metrics.default_bounds(desired, f_max=1.0)
    mav_p = np.array([p_i, p_j])
    table = check_one(np.zeros(3), np.zeros(3), mav_p, desired, np.zeros(2), bounds)
    return entry(table, "separation_0_1")[0]


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


def obstacle_distance(p_L, p_O) -> float:
    """Payload-to-obstacle distance, as check_all reports it."""
    formation = np.array([[0.3, 0.0, 0.0], [0.0, 0.3, 0.0], [-0.3, 0.0, 0.0]])
    bounds = metrics.default_bounds(formation, f_max=1.0, obstacle_center=p_O)
    table = check_one(p_L, p_L, formation, formation, np.zeros(3), bounds)
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
        table = check_one(bounds=bounds, **snap)
        assert np.all(table.margin >= 0.0)
        assert len(table.ids) == 1 + 4 + 6 + 4  # payload, mavs, pairs, tensions

    def test_tension_at_bound_is_satisfied(self):
        snap = hover_snapshot()
        snap["tensions"] = np.array([1.2, 0.5, 0.5, 0.5])
        bounds = metrics.default_bounds(snap["mav_p_des"], f_max=1.2)
        table = check_one(bounds=bounds, **snap)
        assert table.margins("tension_0")[0] == 0.0

    def test_payload_funnel_violation_margin(self):
        snap = hover_snapshot()
        snap["payload_p"] = snap["payload_p_des"] + np.array([0.3, 0.0, 0.0])
        bounds = metrics.default_bounds(snap["mav_p_des"], f_max=1.2, payload_radius=0.2)
        table = check_one(bounds=bounds, **snap)
        assert table.margins("payload_funnel")[0] == pytest.approx(-0.1)
        assert np.any(table.margin < 0.0)

    def test_two_sided_separation(self):
        snap = hover_snapshot()
        bounds = metrics.default_bounds(snap["mav_p_des"], f_max=1.2)
        # squeeze vehicles 0 and 1 together past the 0.18 m shrink allowance
        # (PAIR_FRACTION 0.3 of their 0.6 m spacing)
        snap["mav_p"] = snap["mav_p_des"].copy()
        snap["mav_p"][0] = snap["mav_p_des"][1] + np.array([0.35, 0.0, 0.0])
        assert check_one(bounds=bounds, **snap).margins("separation_0_1")[0] < 0.0
        # and overstretch the same pair past the widen allowance
        snap["mav_p"][0] = snap["mav_p_des"][1] + np.array([0.85, 0.0, 0.0])
        assert check_one(bounds=bounds, **snap).margins("separation_0_1")[0] < 0.0
        # nominal geometry sits inside both bounds
        snap["mav_p"] = snap["mav_p_des"].copy()
        assert check_one(bounds=bounds, **snap).margins("separation_0_1")[0] >= 0.0

    def test_obstacle_entry(self):
        snap = hover_snapshot()
        bounds = metrics.default_bounds(snap["mav_p_des"], f_max=1.2)
        bounds.obstacle_center = np.array([0.0, 0.0, 0.5])
        bounds.obstacle_clearance = 0.4
        assert check_one(bounds=bounds, **snap).margins("obstacle")[0] == pytest.approx(-0.4)
        bounds.obstacle_center = np.array([5.0, 0.0, 0.5])
        assert check_one(bounds=bounds, **snap).margins("obstacle")[0] >= 0.0

    def test_pure_identical_reports(self):
        snap = hover_snapshot()
        bounds = metrics.default_bounds(snap["mav_p_des"], f_max=1.2)
        a = check_one(bounds=bounds, **snap)
        b = check_one(bounds=bounds, **snap)
        assert a.ids == b.ids
        for part in ("value", "lower", "upper", "margin"):
            np.testing.assert_array_equal(getattr(a, part), getattr(b, part))

    def test_satisfied_iff_margin_nonnegative(self):
        """A margin is nonnegative exactly when the value lies inside its
        bounds (nan: no bound on that side)."""
        rng = np.random.default_rng(8)
        for _ in range(50):
            snap = hover_snapshot()
            snap["payload_p"] = snap["payload_p"] + 0.3 * rng.standard_normal(3)
            snap["mav_p"] = snap["mav_p"] + 0.3 * rng.standard_normal((4, 3))
            snap["tensions"] = rng.uniform(0.0, 2.0, 4)
            bounds = metrics.default_bounds(snap["mav_p_des"], f_max=1.2)
            table = check_one(bounds=bounds, **snap)
            inside = (np.isnan(table.lower) | (table.value >= table.lower)) & (
                np.isnan(table.upper) | (table.value <= table.upper)
            )
            np.testing.assert_array_equal(inside, table.margin >= 0.0)

    def test_default_pair_widths_follow_the_desired_formation(self):
        """PAIR_FRACTION of each pair's desired separation, pairs i < j in
        row-major order, on a formation whose pairs all differ."""
        formation = np.array([[0.0, 0.0, 1.0], [0.5, 0.0, 1.0], [0.0, 0.9, 1.2], [-1.3, 0.2, 0.8]])
        bounds = metrics.default_bounds(formation, f_max=1.2)
        np.testing.assert_array_equal(
            bounds.pair_width, metrics.PAIR_FRACTION * metrics.pair_separations(formation)
        )
        widths = [
            metrics.PAIR_FRACTION * metrics.pair_separation(formation[i], formation[j])
            for i in range(4)
            for j in range(i + 1, 4)
        ]
        np.testing.assert_allclose(bounds.pair_width, widths, rtol=1e-15, atol=0)
        assert bounds.mav_radius == metrics.MAV_RADIUS

    def test_worst_entry(self):
        snap = hover_snapshot()
        snap["tensions"] = np.array([5.0, 0.1, 0.1, 0.1])
        bounds = metrics.default_bounds(snap["mav_p_des"], f_max=1.2)
        table = check_one(bounds=bounds, **snap)
        assert table.ids[int(np.argmin(table.margin[0]))] == "tension_0"


# ---------------------------------------------------------------------------
# whole-run constraint table


def check_snapshot(payload_p, payload_p_des, mav_p, mav_p_des, tensions, bounds):
    """One snapshot's (id, value, lower, upper, margin) entries, computed one
    by one: the oracle for the stacked check_all.  nan stands for a missing
    bound."""
    n = len(mav_p)
    nan = float("nan")
    e_L = float(np.linalg.norm(payload_p - payload_p_des))
    eps = bounds.payload_radius
    entries = [("payload_funnel", e_L, nan, eps, eps - e_L)]
    eps_i = bounds.mav_radius
    for i in range(n):
        e = float(np.linalg.norm(mav_p[i] - mav_p_des[i]))
        entries.append((f"mav{i}_funnel", e, nan, eps_i, eps_i - e))
    pair = 0
    for i in range(n):
        for j in range(i + 1, n):
            desired = float(np.linalg.norm(mav_p_des[i] - mav_p_des[j]))
            e = desired - float(np.linalg.norm(mav_p[i] - mav_p[j]))
            w = float(bounds.pair_width[pair])
            entries.append((f"separation_{i}_{j}", e, -w, w, min(w - e, e + w)))
            pair += 1
    for i in range(n):
        T_i = float(tensions[i])
        entries.append((f"tension_{i}", T_i, nan, bounds.f_max, bounds.f_max - T_i))
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
        n=st.integers(2, 5),
        T=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        obstacle=st.booleans(),
    )
    def test_rows_match_single_snapshots(self, n, T, seed, obstacle):
        """Every id, value, bound and margin of the stacked table equals the
        single-snapshot oracle exactly, and the table of that one snapshot,
        for random radii, a different width for every pair, and an
        obstacle."""
        rng = np.random.default_rng(seed)
        bounds = ConstraintBounds(
            f_max=float(rng.uniform(0.5, 2.0)),
            payload_radius=float(rng.uniform(0.01, 2.0)),
            mav_radius=float(rng.uniform(0.01, 2.0)),
            pair_width=rng.uniform(0.01, 2.0, n * (n - 1) // 2),
            obstacle_center=rng.normal(size=3) if obstacle else None,
            obstacle_clearance=float(rng.uniform(0.0, 1.0)),
        )
        payload_p = rng.normal(size=(T, 3))
        payload_p_des = rng.normal(size=(T, 3))
        mav_p = rng.normal(size=(T, n, 3))
        mav_p_des = rng.normal(size=(T, n, 3))
        tensions = rng.uniform(0.0, 2.5, (T, n))
        table = metrics.check_all(payload_p, payload_p_des, mav_p, mav_p_des, tensions, bounds)
        m = len(table.ids)
        assert table.value.shape == table.margin.shape == (T, m)
        assert table.lower.shape == table.upper.shape == (m,)
        for k in range(T):
            snapshot = (payload_p[k], payload_p_des[k], mav_p[k], mav_p_des[k], tensions[k])
            oracle = check_snapshot(*snapshot, bounds)
            assert_same_entries(table_row(table, k), oracle)
            assert_same_entries(table_row(check_one(*snapshot, bounds), 0), oracle)
        for c, id in enumerate(table.ids):
            np.testing.assert_array_equal(table.margins(id), table.margin[:, c])

    def test_shared_desired_positions_broadcast(self):
        snap = hover_snapshot()
        bounds = metrics.default_bounds(snap["mav_p_des"], f_max=1.2)
        stacked = metrics.check_all(
            np.stack([snap["payload_p"]] * 2),
            np.stack([snap["payload_p_des"]] * 2),
            np.stack([snap["mav_p"]] * 2),
            snap["mav_p_des"],
            np.stack([snap["tensions"]] * 2),
            bounds,
        )
        single = check_one(bounds=bounds, **snap)
        assert_same_entries(table_row(stacked, 1), table_row(single, 0))
        np.testing.assert_array_equal(stacked.margins("tension_0"), [1.2 - 0.57] * 2)

    def test_unknown_id_is_a_key_error_listing_the_ids(self):
        snap = hover_snapshot()
        table = check_one(bounds=metrics.default_bounds(snap["mav_p_des"], f_max=1.2), **snap)
        assert "obstacle" not in table.ids
        with pytest.raises(KeyError, match="'obstacle'") as caught:
            table.margins("obstacle")
        assert all(id in str(caught.value) for id in table.ids)
