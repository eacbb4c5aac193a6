"""Allocation map construction, minimal-norm splitting, projection, directions.

The per-tick functions take one float 3-tuple per cable and the payload
rotation as a row-major 9-tuple; single-cable tests pass lists of one.
"""

import numpy as np
import pytest

from cablelift import allocation, so3
from cablelift.allocation import RankDeficient, ZeroTension
from rotation_helpers import quat_from_axis_angle

EYE = tuple(np.eye(3).ravel())


def flat(R) -> tuple:
    return tuple(np.ravel(R).tolist())


def direction(mu_now, mu_prev, dt):
    """desired_cable_direction of one force after the tick that allocated
    mu_prev (None: no tick before), as arrays."""
    prev = None if mu_prev is None else allocation.desired_cable_direction([mu_prev], None, dt)[0]
    xi, omega = allocation.desired_cable_direction([mu_now], prev, dt)
    return np.array(xi[0]), np.array(omega[0])


SQUARE = np.array(
    [
        [0.3, 0.3, 0.0],
        [-0.3, 0.3, 0.0],
        [-0.3, -0.3, 0.0],
        [0.3, -0.3, 0.0],
    ]
)

TRIANGLE = np.array([[0.3, 0.0, 0.0], [-0.15, 0.26, 0.0], [-0.15, -0.26, 0.0]])

# random attachment offsets of 3, 4 and 6 cables, non-degenerate with probability one
RANDOM_RIGS = [
    np.random.default_rng(seed).uniform(-0.5, 0.5, (n, 3)) for seed, n in ((0, 3), (1, 4), (2, 6))
]


class TestBuildAllocation:
    def test_square_rank_and_null_dimension(self):
        amap = allocation.build_allocation(SQUARE)
        assert amap.P.shape == (6, 12)
        assert np.linalg.matrix_rank(amap.P) == 6
        assert amap.Z.shape == (12, 6)

    def test_three_noncollinear(self):
        amap = allocation.build_allocation(TRIANGLE)
        assert np.linalg.matrix_rank(amap.P) == 6
        assert amap.Z.shape == (9, 3)

    def test_identical_attachments_rejected(self):
        with pytest.raises(RankDeficient):
            allocation.build_allocation(np.tile([0.1, 0.2, 0.0], (4, 1)))

    def test_collinear_attachments_rejected(self):
        r = np.array([[0.0, 0, 0], [0.2, 0, 0], [0.4, 0, 0], [0.6, 0, 0]])
        with pytest.raises(RankDeficient):
            allocation.build_allocation(r)

    @pytest.mark.parametrize(
        "r",
        [SQUARE, TRIANGLE, *RANDOM_RIGS],
        ids=["square", "triangle", "random3", "random4", "random6"],
    )
    def test_map_identities(self, r):
        amap = allocation.build_allocation(r)
        n = len(r)
        assert amap.Z.shape == (3 * n, 3 * n - 6)
        np.testing.assert_allclose(amap.P @ amap.P_pinv, np.eye(6), atol=1e-9)
        np.testing.assert_allclose(amap.P @ amap.Z, np.zeros((6, 3 * n - 6)), atol=1e-9)
        np.testing.assert_allclose(amap.Z.T @ amap.Z, np.eye(3 * n - 6), atol=1e-9)

    def test_rows_match_cross_product(self):
        amap = allocation.build_allocation(SQUARE)
        rng = np.random.default_rng(2)
        forces = rng.standard_normal((4, 3))
        wrench = amap.P @ forces.reshape(-1)
        np.testing.assert_allclose(wrench[:3], forces.sum(axis=0), atol=1e-12)
        expected_moment = sum(np.cross(SQUARE[k], forces[k]) for k in range(4))
        np.testing.assert_allclose(wrench[3:], expected_moment, atol=1e-12)


class TestAllocate:
    def test_hover_split_evenly(self):
        m_L, g = 0.232, 9.81
        amap = allocation.build_allocation(SQUARE)
        mu = allocation.allocate([0.0, 0.0, m_L * g, 0.0, 0.0, 0.0], EYE, amap)
        for k in range(4):
            np.testing.assert_allclose(mu[k], [0.0, 0.0, m_L * g / 4], atol=1e-12)

    def test_zero_wrench(self):
        amap = allocation.build_allocation(SQUARE)
        mu = allocation.allocate([0.0] * 6, EYE, amap)
        np.testing.assert_allclose(mu, np.zeros((4, 3)), atol=1e-15)

    def test_reconstruction_random_wrenches(self):
        amap = allocation.build_allocation(SQUARE)
        rng = np.random.default_rng(17)
        for _ in range(100):
            F = rng.standard_normal(3)
            M = 0.3 * rng.standard_normal(3)
            q = so3.quat_normalize(rng.standard_normal(4))
            R_L = so3.quat_to_rotation(q)
            mu = allocation.allocate(np.concatenate([F, M]).tolist(), flat(R_L), amap)
            stacked = allocation.stack_body(mu, flat(R_L))
            target = np.concatenate([R_L.T @ F, M])
            assert np.linalg.norm(amap.P @ stacked - target) < 1e-9

    def test_minimal_norm_solution(self):
        """Output is orthogonal to the null space, hence shortest among all
        exact splits; any null-perturbed alternative is at least as long."""
        amap = allocation.build_allocation(SQUARE)
        rng = np.random.default_rng(23)
        F, M = rng.standard_normal(3), rng.standard_normal(3)
        mu = allocation.allocate(np.concatenate([F, M]).tolist(), EYE, amap)
        stacked = np.array(allocation.stack_body(mu, EYE))
        assert np.linalg.norm(amap.Z.T @ stacked) < 1e-9
        for _ in range(20):
            other = stacked + amap.Z @ rng.standard_normal(6)
            assert np.linalg.norm(other) >= np.linalg.norm(stacked) - 1e-12

    def test_tilted_payload_rotates_blocks(self):
        amap = allocation.build_allocation(SQUARE)
        q = quat_from_axis_angle(np.array([0.0, 1.0, 0.0]), 0.3)
        R_L = so3.quat_to_rotation(q)
        F = np.array([0.0, 0.0, 2.0])
        mu = allocation.allocate(np.concatenate([F, np.zeros(3)]).tolist(), flat(R_L), amap)
        # total world-frame force must still match F
        np.testing.assert_allclose(np.sum(mu, axis=0), F, atol=1e-9)


class TestNullspaceRedistribute:
    def setup_method(self):
        self.amap = allocation.build_allocation(SQUARE)
        self.attach = (SQUARE + np.array([0.0, 0.0, 0.5])).tolist()
        self.l_i = [1.0] * 4

    def test_inactive_when_spacing_fine(self):
        """Vertical hover geometry keeps vehicles 0.6 m apart: no change."""
        mu = [(0.0, 0.0, 0.569)] * 4
        out = allocation.nullspace_redistribute(
            mu, self.attach, EYE, self.amap, self.l_i
        )
        assert out == mu

    def crowded_mu(self):
        """Forces whose implied static geometry clusters the vehicles."""
        center = np.array([0.0, 0.0, 0.5])
        targets = center + 0.25 * SQUARE / 0.3 * 0.3 + np.array([0, 0, 1.0])
        targets[:, :2] *= 0.5  # pull the horizontal spread in
        mu = np.zeros((4, 3))
        for k in range(4):
            xi = self.attach[k] - targets[k]
            xi = xi / np.linalg.norm(xi)
            mu[k] = -0.6 * xi
        return [tuple(row) for row in mu.tolist()]

    def test_crowded_forces_returned_as_given(self):
        """The step is an identity: even where the implied vehicle positions
        crowd together, the very input object comes back."""
        mu = self.crowded_mu()
        out = allocation.nullspace_redistribute(mu, self.attach, EYE, self.amap, self.l_i)
        assert out is mu

    def test_any_null_shift_preserves_wrench(self):
        rng = np.random.default_rng(5)
        mu = self.crowded_mu()
        stacked = np.array(allocation.stack_body(mu, EYE))
        for _ in range(20):
            c = rng.standard_normal(6)
            shifted = stacked + self.amap.Z @ c
            np.testing.assert_allclose(
                self.amap.P @ shifted, self.amap.P @ stacked, atol=1e-9
            )


class TestProjectTension:
    def test_aligned(self):
        mu = (0.0, 0.0, 3.0)
        out = allocation.project_tension([mu], [(0.0, 0.0, 1.0)])[0]
        np.testing.assert_allclose(out, mu, atol=1e-15)

    def test_orthogonal(self):
        out = allocation.project_tension([(0.0, 0.0, 3.0)], [(1.0, 0.0, 0.0)])[0]
        np.testing.assert_allclose(out, np.zeros(3), atol=1e-15)

    def test_forty_five_degrees(self):
        mu = np.array([0.0, 0.0, 2.0])
        xi = np.array([0.0, 1.0, 1.0]) / np.sqrt(2)
        out = allocation.project_tension([mu], [xi])[0]
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(mu) * np.cos(np.pi / 4))

    def test_idempotent_and_contractive(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            mu = rng.standard_normal(3)
            xi = rng.standard_normal(3)
            xi = xi / np.linalg.norm(xi)
            once = allocation.project_tension([mu], [xi])[0]
            twice = allocation.project_tension([once], [xi])[0]
            np.testing.assert_allclose(twice, once, atol=1e-12)
            assert np.linalg.norm(once) <= np.linalg.norm(mu) + 1e-12


class TestDesiredCableDirection:
    def test_static_vertical(self):
        mu = np.array([0.0, 0.0, 4.0])
        xi, omega = direction(mu, mu, 0.05)
        np.testing.assert_allclose(xi, [0.0, 0.0, -1.0], atol=1e-15)
        np.testing.assert_allclose(omega, np.zeros(3), atol=1e-15)

    def test_first_tick_zero_rate(self):
        xi, omega = direction(np.array([0.0, 0.0, 4.0]), None, 0.05)
        np.testing.assert_allclose(omega, np.zeros(3), atol=1e-15)

    def test_rotating_force_recovers_rate(self):
        """Force spinning in a plane at w rad/s: |omega_des| -> w as dt -> 0."""
        w, dt = 2.0, 1e-4
        mu_prev = 4.0 * np.array([np.cos(0.0), np.sin(0.0), 0.0])
        mu_now = 4.0 * np.array([np.cos(w * dt), np.sin(w * dt), 0.0])
        xi, omega = direction(mu_now, mu_prev, dt)
        assert abs(np.linalg.norm(omega) - w) < 1e-3

    def test_rate_perpendicular_to_direction(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            mu_now = rng.standard_normal(3)
            mu_prev = mu_now + 0.1 * rng.standard_normal(3)
            if min(np.linalg.norm(mu_now), np.linalg.norm(mu_prev)) < 1e-3:
                continue
            xi, omega = direction(mu_now, mu_prev, 0.05)
            assert abs(xi @ omega) < 1e-9
            assert abs(np.linalg.norm(xi) - 1.0) < 1e-12

    def test_zero_tension_raises(self):
        with pytest.raises(ZeroTension):
            direction(np.zeros(3), None, 0.05)
