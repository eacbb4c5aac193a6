"""Payload tracking problem: errors, dynamics, cost, derivatives, rows.

Gradient and Jacobian assemblies are checked against central finite
differences of the scalar cost / nonlinear step computed independently in
the tests; order-of-accuracy digits were produced by a forward-Euler
dt=1e-6 reference first and then frozen.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_references as refs
from cablelift import payload_ocp as po
from cablelift import so3
from cablelift.plant import SystemParams
from rotation_helpers import quat_from_axis_angle

# the preset rig's attachments, listed counterclockwise from (0.3, 0.3) where
# the preset lists them clockwise
R_I = np.array(
    [
        [0.3, 0.3, 0.0],
        [-0.3, 0.3, 0.0],
        [-0.3, -0.3, 0.0],
        [0.3, -0.3, 0.0],
    ]
)
RIG = SystemParams(r_i=R_I)
M_L, G, J_L = RIG.m_L, RIG.g, RIG.J_L

HOVER_F = np.array([0.0, 0.0, M_L * G])


def state(p=(0.0, 0.0, 0.0), q=None, v=(0.0, 0.0, 0.0), omega=(0.0, 0.0, 0.0)) -> np.ndarray:
    """State row [p, v, q, omega]."""
    q = so3.quat_identity() if q is None else q
    return np.concatenate([p, v, q, omega]).astype(float)


def wrench(F, M) -> np.ndarray:
    """Wrench row [F, M]."""
    return np.concatenate([F, M]).astype(float)


def hover_wrench() -> np.ndarray:
    return wrench(HOVER_F, np.zeros(3))


def hover_ref(p=(0.0, 0.0, 0.5)) -> np.ndarray:
    return state(p)


def unit_weights(terminal_scale=1.0) -> po.CostWeights:
    """Weight 1 on every block."""
    return po.CostWeights(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, terminal_scale)


def make_problem(N=4, dt=0.05, weights=None, params=RIG, **cfg_over) -> po.OcpProblem:
    if weights is None:
        weights = unit_weights(terminal_scale=2.0)
    cfg = po.OcpConfig(weights=weights, N=N, dt=dt, **cfg_over)
    x0 = state([0.0, 0.0, 0.5])
    ref_x = np.array([hover_ref() for _ in range(N + 1)])
    ref_u = np.array([hover_wrench() for _ in range(N + 1)])
    return po.build_ocp(x0, ref_x, ref_u, cfg, params)


def on_reference_trajectory(problem):
    """State rows X and wrench rows U that follow the reference exactly."""
    return problem.ref_x.copy(), problem.ref_u[:-1].copy()


def linearize_one(x, u, dt, prob):
    """linearize_dynamics for a single stage."""
    A, B = po.linearize_dynamics(x[None], u[None], dt, prob)
    return A[0], B[0]


def central_difference_jacobians(x, u, dt, prob, h=1e-6):
    """Oracle for linearize_dynamics: per-coordinate central differences of
    local_coords(x_next, discretize(retract(x, d), u + e)) on single rows."""
    x_next = po.discretize(x, u, dt, prob)
    A = np.zeros((12, 12))
    for j in range(12):
        d = np.zeros(12)
        d[j] = h
        fp = po.local_coords(x_next, po.discretize(po.retract(x, d), u, dt, prob))
        fm = po.local_coords(x_next, po.discretize(po.retract(x, -d), u, dt, prob))
        A[:, j] = (fp - fm) / (2 * h)
    B = np.zeros((12, 6))
    for j in range(6):
        d = np.zeros(6)
        d[j] = h
        fp = po.local_coords(x_next, po.discretize(x, u + d, dt, prob))
        fm = po.local_coords(x_next, po.discretize(x, u - d, dt, prob))
        B[:, j] = (fp - fm) / (2 * h)
    return A, B


class TestStateError:
    def test_on_reference_zero(self):
        ref = hover_ref()
        x = ref.copy()
        np.testing.assert_array_equal(po.state_error(x, ref), np.zeros(12))

    def test_position_offset_sign(self):
        """Errors are reference minus actual."""
        ref = hover_ref(p=(0.0, 0.0, 0.0))
        x = state([0.1, 0.0, 0.0])
        e = po.state_error(x, ref)
        np.testing.assert_allclose(e[0:3], [-0.1, 0.0, 0.0], atol=1e-15)
        np.testing.assert_array_equal(e[3:], np.zeros(9))

    def test_attitude_offset_about_z(self):
        ref = hover_ref(p=(0.0, 0.0, 0.0))
        q = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.2)
        x = state(q=q)
        e = po.state_error(x, ref)
        np.testing.assert_allclose(e[6:9], [0.0, 0.0, 0.2], atol=1e-12)

    def test_block_order(self):
        ref = state(p=[1.0, 0, 0], v=[0, 2.0, 0], omega=[0, 0, 3.0])
        x = state()
        e = po.state_error(x, ref)
        assert e[0] == 1.0  # position first
        assert e[4] == 2.0  # then velocity
        assert e[11] == 3.0  # body rate last


class TestPayloadDynamics:
    def test_hover_balance(self):
        prob = make_problem()
        d = po.payload_dynamics(state(), hover_wrench(), prob)
        np.testing.assert_allclose(d[3:6], np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(d[10:13], np.zeros(3), atol=1e-15)

    def test_ballistic(self):
        prob = make_problem()
        d = po.payload_dynamics(state(), np.zeros(6), prob)
        np.testing.assert_array_equal(d[3:6], prob.params.g_vec)

    def test_diagonal_inertia_moment(self):
        prob = make_problem()
        d = po.payload_dynamics(state(), wrench(HOVER_F, [0.01, 0, 0]), prob)
        np.testing.assert_allclose(d[10:13], [0.01 / J_L[0, 0], 0, 0], atol=1e-15)


class TestDiscretize:
    def test_hover_fixed_point(self):
        prob = make_problem()
        x = state([0, 0, 0.5])
        nxt = po.discretize(x, hover_wrench(), 0.05, prob)
        assert np.linalg.norm(nxt - x) < 1e-12

    def test_constant_force_velocity_gain(self):
        prob = make_problem()
        u = wrench(HOVER_F + np.array([M_L, 0, 0]), np.zeros(3))
        nxt = po.discretize(state(), u, 0.1, prob)
        np.testing.assert_allclose(nxt[3:6], [0.1, 0, 0], atol=1e-9)

    def test_quaternion_norm_preserved(self):
        prob = make_problem()
        x = state(omega=[3.0, -2.0, 1.0])
        for _ in range(40):
            x = po.discretize(x, hover_wrench(), 0.05, prob)
            assert abs(np.linalg.norm(x[6:10]) - 1.0) < 1e-12

    def test_fourth_order_convergence(self):
        """Tumbling payload, dt 0.05 vs 0.025 over 0.1 s, Euler dt=1e-6
        reference.  Measured ratio for this configuration: 14.2 (ideal 16)."""
        prob = make_problem()
        u = wrench([0.15, -0.08, M_L * G + 0.1], [0.004, -0.003, 0.002])
        x0 = state([0.0, 0.0, 1.0], v=[0.2, -0.1, 0.1], omega=[16.0, 11.0, 7.0])

        def run(h):
            x = x0.copy()
            for _ in range(int(round(0.1 / h))):
                x = po.discretize(x, u, h, prob)
            return x

        y = x0.copy()
        uv = u[None, :]
        h = 1e-6
        for _ in range(100000):
            y = y + h * po.payload_dynamics(y[None, :], uv, prob)[0]
        e1 = np.linalg.norm(run(0.05) - y)
        e2 = np.linalg.norm(run(0.025) - y)
        assert 12.0 < e1 / e2 < 20.0


class TestTotalCost:
    def test_on_reference_zero(self):
        prob = make_problem()
        X, U = on_reference_trajectory(prob)
        assert po.total_cost(X, U, prob) == 0.0

    def test_single_state_error_quadratic(self):
        prob = make_problem(N=1)
        X, U = on_reference_trajectory(prob)
        # small offset stays inside the funnel, so the cost is the pure quadratic
        X[1, 0:3] += np.array([0.05, 0, 0])
        e = po.state_error(X[1], prob.ref_x[1])
        assert po.total_cost(X, U, prob) == pytest.approx(float(e @ e) * 2.0)

    def test_single_input_error_quadratic(self):
        prob = make_problem(N=1)
        X, U = on_reference_trajectory(prob)
        U[0, 0:3] += np.array([0.3, 0, 0])
        assert po.total_cost(X, U, prob) == pytest.approx(0.3**2)

    def test_summation_oracle(self):
        """Stage-by-stage recomputation with independent loop code."""
        prob = make_problem(N=3)
        rng = np.random.default_rng(11)
        X, U = on_reference_trajectory(prob)
        for i in range(1, 4):
            X[i] = po.retract(X[i], 0.3 * rng.standard_normal(12))
        for i in range(3):
            U[i] = U[i] + rng.standard_normal(6)

        expected = 0.0
        for i in range(3):
            e_x = po.state_error(X[i], prob.ref_x[i])
            e_u = prob.ref_u[i] - U[i]
            expected += e_x @ prob.weights.Q_X @ e_x + e_u @ prob.weights.Q_U @ e_u
        e_N = po.state_error(X[3], prob.ref_x[3])
        expected += e_N @ prob.weights.Q_XN @ e_N
        for i in range(1, 4):
            gap = np.linalg.norm(prob.ref_x[i, 0:3] - X[i, 0:3])
            over = max(0.0, gap - prob.funnel_radius)
            expected += prob.funnel_weight * over**2
        assert po.total_cost(X, U, prob) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        prob = make_problem(N=3)
        X, U = on_reference_trajectory(prob)
        with pytest.raises(po.DimensionMismatch):
            po.total_cost(X[:-1], U, prob)
        with pytest.raises(po.DimensionMismatch):
            po.total_cost(X, U[:-1], prob)

    def test_positive_when_any_error(self):
        prob = make_problem(N=2)
        X, U = on_reference_trajectory(prob)
        X[2] = po.retract(X[2], 0.01 * np.ones(12))
        assert po.total_cost(X, U, prob) > 0.0


class TestBuildOcp:
    def test_shapes(self):
        prob = make_problem(N=3)
        assert prob.N == 3
        assert len(prob.ref_x) == 4

    def test_reference_count_mismatch(self):
        cfg = po.OcpConfig(weights=unit_weights(), N=3)
        with pytest.raises(po.ConfigError):
            po.build_ocp(
                state(), np.array([hover_ref()] * 3), np.array([hover_wrench()] * 3), cfg, RIG
            )

    def test_no_obstacle_means_no_rows(self):
        prob = make_problem()
        J, c = po.obstacle_rows(state()[None], prob)
        assert J.shape == (1, 0, 12) and c.shape == (1, 0)

    def test_hover_tension_margin(self):
        prob = make_problem()
        J, c = po.tension_rows(np.array([hover_wrench()] * prob.N), prob)
        assert c.shape == (prob.N, 4)
        np.testing.assert_allclose(c, -(1.2 - M_L * G / 4), atol=1e-12)

    def test_bad_weights_rejected(self):
        with pytest.raises(po.ConfigError):
            po.CostWeights(terminal_scale=0.0)

    @pytest.mark.parametrize("name", ["position", "force", "terminal_scale"])
    def test_a_bool_weight_rejected(self, name):
        """True is an int, but no weight: it is refused, not read as 1.0."""
        with pytest.raises(po.ConfigError):
            po.CostWeights(**{name: True})


class TestObstacleRows:
    def test_matches_closed_form_distance(self):
        prob = make_problem(obstacle_center=np.array([1.0, 0.0, 0.5]), obstacle_clearance=0.4)
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = rng.uniform(-2, 2, 3)
            J, c = po.obstacle_rows(state(p)[None], prob)
            dist = np.linalg.norm(p - np.array([1.0, 0.0, 0.5]))
            assert abs(c[0, 0] - (0.4 - dist)) < 1e-12

    def test_gradient_points_away(self):
        prob = make_problem(obstacle_center=np.array([0.0, 0.0, 0.5]), obstacle_clearance=0.4)
        J, c = po.obstacle_rows(state([0.3, 0, 0.5])[None], prob)
        # moving +x (away) must decrease the constraint value
        np.testing.assert_allclose(J[0, 0, 0:3], [-1.0, 0.0, 0.0], atol=1e-12)


class TestDerivatives:
    def test_gradient_matches_finite_differences(self):
        """Assembled cost expansion vs central differences of total_cost."""
        prob = make_problem(N=3)
        rng = np.random.default_rng(6)
        X, U = on_reference_trajectory(prob)
        for i in range(1, 4):
            X[i] = po.retract(X[i], 0.1 * rng.standard_normal(12))
        for i in range(3):
            U[i] = U[i] + 0.5 * rng.standard_normal(6)
        Hx, gx, Hu, gu = po.cost_expansion(X, U, prob)
        h = 1e-6
        for i in range(4):
            fd = np.zeros(12)
            for j in range(12):
                d = np.zeros(12)
                d[j] = h
                sp = X.copy()
                sp[i] = po.retract(X[i], d)
                sm = X.copy()
                sm[i] = po.retract(X[i], -d)
                fp = po.total_cost(sp, U, prob)
                fm = po.total_cost(sm, U, prob)
                fd[j] = (fp - fm) / (2 * h)
            rel = np.linalg.norm(gx[i] - fd) / max(1.0, np.linalg.norm(fd))
            assert rel < 1e-4
        for i in range(3):
            fd = np.zeros(6)
            for j in range(6):
                d = np.zeros(6)
                d[j] = h
                ip = U.copy()
                ip[i] = U[i] + d
                im = U.copy()
                im[i] = U[i] - d
                fp = po.total_cost(X, ip, prob)
                fm = po.total_cost(X, im, prob)
                fd[j] = (fp - fm) / (2 * h)
            rel = np.linalg.norm(gu[i] - fd) / max(1.0, np.linalg.norm(fd))
            assert rel < 1e-4

    def test_linearize_matches_per_coordinate_differences(self):
        prob = make_problem()
        rng = np.random.default_rng(9)
        x = state(
            p=rng.standard_normal(3),
            q=so3.quat_normalize(rng.standard_normal(4)),
            v=rng.standard_normal(3),
            omega=rng.standard_normal(3),
        )
        u = wrench(HOVER_F + rng.standard_normal(3), 0.01 * rng.standard_normal(3))
        A, B = linearize_one(x, u, 0.05, prob)
        A_fd, B_fd = central_difference_jacobians(x, u, 0.05, prob)
        np.testing.assert_allclose(A, A_fd, atol=1e-9)
        np.testing.assert_allclose(B, B_fd, atol=1e-9)

    def test_exact_jacobians_match_central_differences_on_hard_states(self):
        """Fast tumbling (|omega| up to 40 rad/s, 2 rad per step) and attitudes
        within 1e-3 rad of a half turn, where the renormalized quaternion sits
        next to the hemisphere flip."""
        prob = make_problem()
        rng = np.random.default_rng(31)
        for trial in range(12):
            axis = rng.standard_normal(3)
            angle = np.pi - rng.uniform(0.0, 1e-3)
            omega = rng.standard_normal(3)
            omega *= rng.uniform(5.0, 40.0) / np.linalg.norm(omega)
            x = state(
                p=rng.standard_normal(3),
                q=so3.quat_normalize(quat_from_axis_angle(axis, angle)),
                v=rng.standard_normal(3),
                omega=omega,
            )
            u = wrench(HOVER_F + rng.standard_normal(3), 0.02 * rng.standard_normal(3))
            A, B = linearize_one(x, u, 0.05, prob)
            A_fd, B_fd = central_difference_jacobians(x, u, 0.05, prob)
            assert np.linalg.norm(A - A_fd) <= 1e-7 * np.linalg.norm(A_fd), trial
            assert np.linalg.norm(B - B_fd) <= 1e-7 * np.linalg.norm(B_fd), trial

    def test_batched_stages_equal_per_stage_loop(self):
        prob = make_problem(N=6)
        rng = np.random.default_rng(12)
        X = np.array([
            state(
                p=rng.standard_normal(3),
                q=so3.quat_normalize(rng.standard_normal(4)),
                v=rng.standard_normal(3),
                omega=3.0 * rng.standard_normal(3),
            )
            for _ in range(7)
        ])
        U = np.array([
            np.concatenate([HOVER_F + rng.standard_normal(3), 0.01 * rng.standard_normal(3)])
            for _ in range(6)
        ])
        A, B = po.linearize_dynamics(X[:-1], U, prob.dt, prob)
        defects = po.dynamics_defects(X, U, prob)
        assert A.shape == (6, 12, 12) and B.shape == (6, 12, 6)
        for i in range(6):
            A_i, B_i = po.linearize_dynamics(X[i : i + 1], U[i : i + 1], prob.dt, prob)
            np.testing.assert_allclose(A[i], A_i[0], rtol=0, atol=1e-14)
            np.testing.assert_allclose(B[i], B_i[0], rtol=0, atol=1e-14)
            gap = po.local_coords(X[i + 1], po.discretize(X[i], U[i], prob.dt, prob))
            np.testing.assert_allclose(defects[i], gap, rtol=0, atol=1e-14)

    def test_hover_jacobian_structure(self):
        """Near hover, position picks up dt * velocity to leading order."""
        prob = make_problem()
        A, B = linearize_one(state([0, 0, 0.5]), hover_wrench(), 0.05, prob)
        np.testing.assert_allclose(A[0:3, 3:6], 0.05 * np.eye(3), atol=1e-6)
        np.testing.assert_allclose(B[3:6, 0:3], (0.05 / M_L) * np.eye(3), atol=1e-6)


def random_stages(rng, K):
    """K state rows at unit attitudes with rates up to 4 rad/s, and K wrench
    rows around hover."""
    X = np.empty((K, 13))
    X[:, 0:6] = rng.standard_normal((K, 6))
    X[:, 6:10] = so3.quat_normalize(rng.standard_normal((K, 4)))
    omega = rng.standard_normal((K, 3))
    X[:, 10:13] = omega * (rng.uniform(0.0, 4.0, (K, 1)) / np.linalg.norm(omega, axis=1)[:, None])
    U = np.hstack([HOVER_F + 2.0 * rng.standard_normal((K, 3)), 0.1 * rng.standard_normal((K, 3))])
    return X, U


def translation_block(dt, m_L):
    """The (p, v) rows of A in (dp, dv) and of B in dF: the double
    integrator's exact step."""
    eye = np.eye(3)
    A = np.block([[eye, dt * eye], [np.zeros((3, 3)), eye]])
    return A, np.vstack([dt * dt / (2.0 * m_L) * eye, dt / m_L * eye])


class TestRotationalLinearization:
    """linearize_dynamics carries only the rotational tangent columns and
    takes the translational block once: the same floats as the 18-column
    forward mode (`kernel_references.linearize_dynamics`)."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2, 20]), st.sampled_from([0.02, 0.05]), st.integers(0, 2**32 - 1))
    def test_bit_identical_to_the_18_column_mode(self, K, dt, seed):
        """Signed zeros included, with a diagonal J_L."""
        rng = np.random.default_rng(seed)
        params = SystemParams(r_i=R_I, J_L=np.diag(rng.uniform(0.003, 0.02, 3)))
        prob = make_problem(N=K, dt=dt, params=params)
        X, U = random_stages(rng, K)
        oracle = refs.linearize_dynamics(X, U, dt, prob)
        for new, old in zip(po.linearize_dynamics(X, U, dt, prob), oracle):
            assert np.array_equal(new, old)
            assert np.array_equal(np.signbit(new), np.signbit(old))

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([1, 2, 20]), st.integers(0, 2**32 - 1))
    def test_equal_to_the_18_column_mode_with_a_tilted_inertia(self, K, seed):
        """A non-diagonal J_L mixes the rate columns in BLAS products, which
        may give a zero another sign; the values are equal."""
        rng = np.random.default_rng(seed)
        R = so3.quat_to_rotation(so3.quat_normalize(rng.standard_normal(4)))
        prob = make_problem(N=K, params=SystemParams(r_i=R_I, J_L=R @ J_L @ R.T))
        X, U = random_stages(rng, K)
        oracle = refs.linearize_dynamics(X, U, 0.05, prob)
        for new, old in zip(po.linearize_dynamics(X, U, 0.05, prob), oracle):
            assert np.array_equal(new, old)

    def test_translational_block_is_the_double_integrator_at_every_stage(self):
        rng = np.random.default_rng(3)
        prob = make_problem(N=20)
        A_T, B_T = translation_block(0.05, M_L)
        for _ in range(2):
            X, U = random_stages(rng, 20)
            A, B = po.linearize_dynamics(X, U, 0.05, prob)
            assert np.array_equal(A[:, 0:6, 0:6], np.broadcast_to(A[0, 0:6, 0:6], (20, 6, 6)))
            assert np.array_equal(B[:, 0:6, 0:3], np.broadcast_to(B[0, 0:6, 0:3], (20, 6, 3)))
            np.testing.assert_allclose(A[0, 0:6, 0:6], A_T, rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(B[0, 0:6, 0:3], B_T, rtol=1e-15, atol=0.0)
            # the cross blocks
            for block in (A[:, 0:6, 6:12], A[:, 6:12, 0:6], B[:, 0:6, 3:6], B[:, 6:12, 0:3]):
                assert np.all(block == 0.0)

    def test_each_step_and_payload_mass_gets_its_own_block(self):
        """The block is cached per (dt, m_L); a second pair in the same
        process is not served the first one's."""
        rng = np.random.default_rng(4)
        X, U = random_stages(rng, 2)
        heavy = SystemParams(r_i=R_I, m_L=0.5)
        for dt, params in ((0.05, RIG), (0.02, RIG), (0.05, heavy), (0.02, heavy), (0.05, RIG)):
            A, B = po.linearize_dynamics(X, U, dt, make_problem(N=2, dt=dt, params=params))
            A_T, B_T = translation_block(dt, params.m_L)
            for i in range(2):
                np.testing.assert_allclose(A[i, 0:6, 0:6], A_T, rtol=1e-15, atol=0.0)
                np.testing.assert_allclose(B[i, 0:6, 0:3], B_T, rtol=1e-15, atol=0.0)


class TestRetraction:
    def test_round_trip(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            base = state(
                p=rng.standard_normal(3),
                q=so3.quat_normalize(rng.standard_normal(4)),
                v=rng.standard_normal(3),
                omega=rng.standard_normal(3),
            )
            delta = rng.uniform(-1.0, 1.0, 12)
            back = po.local_coords(base, po.retract(base, delta))
            np.testing.assert_allclose(back, delta, atol=1e-12)

    def test_defects_vanish_on_rollout(self):
        prob = make_problem(N=5)
        rng = np.random.default_rng(20)
        X = np.empty((6, 13))
        X[0] = prob.x0
        U = np.empty((5, 6))
        for i in range(5):
            U[i] = wrench(HOVER_F + 0.2 * rng.standard_normal(3), 0.01 * rng.standard_normal(3))
            X[i + 1] = po.discretize(X[i], U[i], prob.dt, prob)
        for d in po.dynamics_defects(X, U, prob):
            assert np.linalg.norm(d) < 1e-12
