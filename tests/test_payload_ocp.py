"""Payload tracking problem: errors, dynamics, cost, derivatives, rows.

Gradient and Jacobian assemblies are checked against central finite
differences of the scalar cost / nonlinear step computed independently in
the tests; order-of-accuracy digits were produced by a forward-Euler
dt=1e-6 reference first and then frozen.
"""

import numpy as np
import pytest

from cablelift import payload_ocp as po
from cablelift import so3

M_L = 0.232
G = 9.81
J_L = np.diag([0.007, 0.007, 0.013])
R_I = np.array(
    [
        [0.3, 0.3, 0.0],
        [-0.3, 0.3, 0.0],
        [-0.3, -0.3, 0.0],
        [0.3, -0.3, 0.0],
    ]
)

HOVER_F = np.array([0.0, 0.0, M_L * G])


def hover_wrench() -> po.Wrench:
    return po.Wrench(HOVER_F.copy(), np.zeros(3))


def hover_ref(p=(0.0, 0.0, 0.5)) -> po.ReferencePoint:
    return po.ReferencePoint(
        np.array(p, dtype=float),
        so3.quat_identity(),
        np.zeros(3),
        np.zeros(3),
        hover_wrench(),
    )


def make_problem(N=4, dt=0.05, weights=None, **cfg_over) -> po.OcpProblem:
    if weights is None:
        weights = po.CostWeights(np.eye(12), np.eye(6), 2 * np.eye(12))
    cfg = po.OcpConfig(
        weights=weights, m_L=M_L, J_L=J_L, r_i=R_I, f_max=1.2, N=N, dt=dt, **cfg_over
    )
    x0 = po.OcpState(np.array([0.0, 0.0, 0.5]), so3.quat_identity(), np.zeros(3), np.zeros(3))
    refs = [hover_ref() for _ in range(N + 1)]
    return po.build_ocp(x0, refs, cfg)


def on_reference_trajectory(problem):
    states = [
        po.OcpState(r.p_des.copy(), r.q_des.copy(), r.v_des.copy(), r.omega_des.copy())
        for r in problem.references
    ]
    inputs = [
        po.Wrench(r.wrench_des.F.copy(), r.wrench_des.M.copy())
        for r in problem.references[:-1]
    ]
    return states, inputs


def rows(states, inputs):
    """Stacked state and wrench rows of lists of OcpState / Wrench."""
    return po.stack_states(states), po.stack_inputs(inputs)


def linearize_one(x, u, dt, prob):
    """linearize_dynamics for a single stage."""
    A, B = po.linearize_dynamics(x.as_vector()[None], u.as_vector()[None], dt, prob)
    return A[0], B[0]


def central_difference_jacobians(x, u, dt, prob, h=1e-6):
    """Oracle for linearize_dynamics: per-coordinate central differences of
    local_coords(x_next, discretize(retract(x, d), u + e)) through the
    per-state functions."""
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
        up = po.Wrench.from_vector(u.as_vector() + d)
        um = po.Wrench.from_vector(u.as_vector() - d)
        fp = po.local_coords(x_next, po.discretize(x, up, dt, prob))
        fm = po.local_coords(x_next, po.discretize(x, um, dt, prob))
        B[:, j] = (fp - fm) / (2 * h)
    return A, B


class TestStateError:
    def test_on_reference_zero(self):
        ref = hover_ref()
        x = po.OcpState(ref.p_des.copy(), ref.q_des.copy(), np.zeros(3), np.zeros(3))
        np.testing.assert_array_equal(po.state_error(x, ref), np.zeros(12))

    def test_position_offset_sign(self):
        """Errors are reference minus actual."""
        ref = hover_ref(p=(0.0, 0.0, 0.0))
        x = po.OcpState(np.array([0.1, 0.0, 0.0]), so3.quat_identity(), np.zeros(3), np.zeros(3))
        e = po.state_error(x, ref)
        np.testing.assert_allclose(e[0:3], [-0.1, 0.0, 0.0], atol=1e-15)
        np.testing.assert_array_equal(e[3:], np.zeros(9))

    def test_attitude_offset_about_z(self):
        ref = hover_ref(p=(0.0, 0.0, 0.0))
        q = so3.quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.2)
        x = po.OcpState(np.zeros(3), q, np.zeros(3), np.zeros(3))
        e = po.state_error(x, ref)
        np.testing.assert_allclose(e[6:9], [0.0, 0.0, 0.2], atol=1e-12)

    def test_block_order(self):
        ref = po.ReferencePoint(
            np.array([1.0, 0, 0]),
            so3.quat_identity(),
            np.array([0, 2.0, 0]),
            np.array([0, 0, 3.0]),
            hover_wrench(),
        )
        x = po.OcpState(np.zeros(3), so3.quat_identity(), np.zeros(3), np.zeros(3))
        e = po.state_error(x, ref)
        assert e[0] == 1.0  # position first
        assert e[4] == 2.0  # then velocity
        assert e[11] == 3.0  # body rate last


class TestWrenchError:
    def test_matching_zero(self):
        ref = hover_ref()
        np.testing.assert_array_equal(po.wrench_error(hover_wrench(), ref), np.zeros(6))

    def test_gravity_feedforward(self):
        ref = hover_ref()
        e = po.wrench_error(po.Wrench(np.zeros(3), np.zeros(3)), ref)
        np.testing.assert_allclose(e, [0, 0, M_L * G, 0, 0, 0], atol=1e-15)

    def test_subtraction_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            F, M = rng.standard_normal(3), rng.standard_normal(3)
            ref = hover_ref()
            e = po.wrench_error(po.Wrench(F, M), ref)
            np.testing.assert_array_equal(e[0:3], HOVER_F - F)
            np.testing.assert_array_equal(e[3:6], -M)


class TestPayloadDynamics:
    def test_hover_balance(self):
        prob = make_problem()
        x = po.OcpState(np.zeros(3), so3.quat_identity(), np.zeros(3), np.zeros(3))
        d = po.payload_dynamics(x, hover_wrench(), prob)
        np.testing.assert_allclose(d.v, np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(d.omega, np.zeros(3), atol=1e-15)

    def test_ballistic(self):
        prob = make_problem()
        x = po.OcpState(np.zeros(3), so3.quat_identity(), np.zeros(3), np.zeros(3))
        d = po.payload_dynamics(x, po.Wrench(np.zeros(3), np.zeros(3)), prob)
        np.testing.assert_array_equal(d.v, prob.g_vec)

    def test_diagonal_inertia_moment(self):
        prob = make_problem()
        x = po.OcpState(np.zeros(3), so3.quat_identity(), np.zeros(3), np.zeros(3))
        d = po.payload_dynamics(x, po.Wrench(HOVER_F, np.array([0.01, 0, 0])), prob)
        np.testing.assert_allclose(d.omega, [0.01 / J_L[0, 0], 0, 0], atol=1e-15)


class TestDiscretize:
    def test_hover_fixed_point(self):
        prob = make_problem()
        x = po.OcpState(np.array([0, 0, 0.5]), so3.quat_identity(), np.zeros(3), np.zeros(3))
        nxt = po.discretize(x, hover_wrench(), 0.05, prob)
        assert np.linalg.norm(nxt.as_vector() - x.as_vector()) < 1e-12

    def test_constant_force_velocity_gain(self):
        prob = make_problem()
        x = po.OcpState(np.zeros(3), so3.quat_identity(), np.zeros(3), np.zeros(3))
        u = po.Wrench(HOVER_F + np.array([M_L, 0, 0]), np.zeros(3))
        nxt = po.discretize(x, u, 0.1, prob)
        np.testing.assert_allclose(nxt.v, [0.1, 0, 0], atol=1e-9)

    def test_quaternion_norm_preserved(self):
        prob = make_problem()
        x = po.OcpState(
            np.zeros(3), so3.quat_identity(), np.zeros(3), np.array([3.0, -2.0, 1.0])
        )
        for _ in range(40):
            x = po.discretize(x, hover_wrench(), 0.05, prob)
            assert abs(np.linalg.norm(x.q) - 1.0) < 1e-12

    def test_fourth_order_convergence(self):
        """Tumbling payload, dt 0.05 vs 0.025 over 0.1 s, Euler dt=1e-6
        reference.  Measured ratio for this configuration: 14.2 (ideal 16)."""
        prob = make_problem()
        u = po.Wrench(
            np.array([0.15, -0.08, M_L * G + 0.1]), np.array([0.004, -0.003, 0.002])
        )
        x0 = po.OcpState(
            np.array([0.0, 0.0, 1.0]),
            so3.quat_identity(),
            np.array([0.2, -0.1, 0.1]),
            np.array([16.0, 11.0, 7.0]),
        )

        def run(h):
            x = x0.copy()
            for _ in range(int(round(0.1 / h))):
                x = po.discretize(x, u, h, prob)
            return x.as_vector()

        y = x0.as_vector().copy()
        uv = u.as_vector()[None, :]
        h = 1e-6
        for _ in range(100000):
            y = y + h * po._dynamics_flat_batch(y[None, :], uv, prob)[0]
        e1 = np.linalg.norm(run(0.05) - y)
        e2 = np.linalg.norm(run(0.025) - y)
        assert 12.0 < e1 / e2 < 20.0


class TestTotalCost:
    def test_on_reference_zero(self):
        prob = make_problem()
        states, inputs = on_reference_trajectory(prob)
        assert po.total_cost(*rows(states, inputs), prob) == 0.0

    def test_single_state_error_quadratic(self):
        prob = make_problem(N=1)
        states, inputs = on_reference_trajectory(prob)
        # small offset stays inside the funnel, so the cost is the pure quadratic
        states[1] = po.OcpState(
            states[1].p + np.array([0.05, 0, 0]), states[1].q, states[1].v, states[1].omega
        )
        e = po.state_error(states[1], prob.references[1])
        assert po.total_cost(*rows(states, inputs), prob) == pytest.approx(float(e @ e) * 2.0)

    def test_single_input_error_quadratic(self):
        prob = make_problem(N=1)
        states, inputs = on_reference_trajectory(prob)
        inputs[0] = po.Wrench(inputs[0].F + np.array([0.3, 0, 0]), inputs[0].M.copy())
        assert po.total_cost(*rows(states, inputs), prob) == pytest.approx(0.3**2)

    def test_summation_oracle(self):
        """Stage-by-stage recomputation with independent loop code."""
        prob = make_problem(N=3)
        rng = np.random.default_rng(11)
        states, inputs = on_reference_trajectory(prob)
        for i in range(1, 4):
            states[i] = po.retract(states[i], 0.3 * rng.standard_normal(12))
        for i in range(3):
            inputs[i] = po.Wrench.from_vector(inputs[i].as_vector() + rng.standard_normal(6))

        expected = 0.0
        for i in range(3):
            e_x = po.state_error(states[i], prob.references[i])
            e_u = po.wrench_error(inputs[i], prob.references[i])
            expected += e_x @ prob.weights.Q_X @ e_x + e_u @ prob.weights.Q_U @ e_u
        e_N = po.state_error(states[3], prob.references[3])
        expected += e_N @ prob.weights.Q_XN @ e_N
        for i in range(1, 4):
            gap = np.linalg.norm(prob.references[i].p_des - states[i].p)
            over = max(0.0, gap - prob.funnel.value(i * prob.dt))
            expected += prob.funnel_weight * over**2
        assert po.total_cost(*rows(states, inputs), prob) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        prob = make_problem(N=3)
        states, inputs = on_reference_trajectory(prob)
        with pytest.raises(po.DimensionMismatch):
            po.total_cost(*rows(states[:-1], inputs), prob)
        with pytest.raises(po.DimensionMismatch):
            po.total_cost(*rows(states, inputs[:-1]), prob)

    def test_positive_when_any_error(self):
        prob = make_problem(N=2)
        states, inputs = on_reference_trajectory(prob)
        states[2] = po.retract(states[2], 0.01 * np.ones(12))
        assert po.total_cost(*rows(states, inputs), prob) > 0.0


class TestBuildOcp:
    def test_shapes(self):
        prob = make_problem(N=3)
        assert prob.N == 3
        assert len(prob.references) == 4

    def test_reference_count_mismatch(self):
        weights = po.CostWeights(np.eye(12), np.eye(6), np.eye(12))
        cfg = po.OcpConfig(weights=weights, m_L=M_L, J_L=J_L, r_i=R_I, f_max=1.2, N=3)
        x0 = po.OcpState(np.zeros(3), so3.quat_identity(), np.zeros(3), np.zeros(3))
        with pytest.raises(po.ConfigError):
            po.build_ocp(x0, [hover_ref()] * 3, cfg)

    def test_no_obstacle_means_no_rows(self):
        prob = make_problem()
        x = po.OcpState(np.zeros(3), so3.quat_identity(), np.zeros(3), np.zeros(3))
        J, c = po.obstacle_rows(x.as_vector()[None], prob)
        assert J.shape == (1, 0, 12) and c.shape == (1, 0)

    def test_hover_tension_margin(self):
        prob = make_problem()
        J, c = po.tension_rows(
            hover_wrench().as_vector()[None], prob.references[0].q_des[None], prob
        )
        assert c.shape == (1, 4)
        np.testing.assert_allclose(c[0], -(1.2 - M_L * G / 4), atol=1e-12)

    def test_bad_weights_rejected(self):
        asym = np.eye(12)
        asym[0, 1] = 0.5
        with pytest.raises(po.ConfigError):
            po.CostWeights(asym, np.eye(6), np.eye(12))
        with pytest.raises(po.ConfigError):
            po.CostWeights(np.eye(12), np.eye(6), np.zeros((12, 12)))


class TestObstacleRows:
    def test_matches_closed_form_distance(self):
        prob = make_problem(obstacle_center=np.array([1.0, 0.0, 0.5]), obstacle_clearance=0.4)
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = rng.uniform(-2, 2, 3)
            x = po.OcpState(p, so3.quat_identity(), np.zeros(3), np.zeros(3))
            J, c = po.obstacle_rows(x.as_vector()[None], prob)
            dist = np.linalg.norm(p - np.array([1.0, 0.0, 0.5]))
            assert abs(c[0, 0] - (0.4 - dist)) < 1e-12

    def test_gradient_points_away(self):
        prob = make_problem(obstacle_center=np.array([0.0, 0.0, 0.5]), obstacle_clearance=0.4)
        x = po.OcpState(np.array([0.3, 0, 0.5]), so3.quat_identity(), np.zeros(3), np.zeros(3))
        J, c = po.obstacle_rows(x.as_vector()[None], prob)
        # moving +x (away) must decrease the constraint value
        np.testing.assert_allclose(J[0, 0, 0:3], [-1.0, 0.0, 0.0], atol=1e-12)


class TestDerivatives:
    def test_gradient_matches_finite_differences(self):
        """Assembled cost expansion vs central differences of total_cost."""
        prob = make_problem(N=3)
        rng = np.random.default_rng(6)
        states, inputs = on_reference_trajectory(prob)
        for i in range(1, 4):
            states[i] = po.retract(states[i], 0.1 * rng.standard_normal(12))
        for i in range(3):
            inputs[i] = po.Wrench.from_vector(
                inputs[i].as_vector() + 0.5 * rng.standard_normal(6)
            )
        Hx, gx, Hu, gu = po.cost_expansion(*rows(states, inputs), prob)
        h = 1e-6
        for i in range(4):
            fd = np.zeros(12)
            for j in range(12):
                d = np.zeros(12)
                d[j] = h
                sp = list(states)
                sp[i] = po.retract(states[i], d)
                sm = list(states)
                sm[i] = po.retract(states[i], -d)
                fp = po.total_cost(*rows(sp, inputs), prob)
                fm = po.total_cost(*rows(sm, inputs), prob)
                fd[j] = (fp - fm) / (2 * h)
            rel = np.linalg.norm(gx[i] - fd) / max(1.0, np.linalg.norm(fd))
            assert rel < 1e-4
        for i in range(3):
            fd = np.zeros(6)
            for j in range(6):
                d = np.zeros(6)
                d[j] = h
                ip = list(inputs)
                ip[i] = po.Wrench.from_vector(inputs[i].as_vector() + d)
                im = list(inputs)
                im[i] = po.Wrench.from_vector(inputs[i].as_vector() - d)
                fp = po.total_cost(*rows(states, ip), prob)
                fm = po.total_cost(*rows(states, im), prob)
                fd[j] = (fp - fm) / (2 * h)
            rel = np.linalg.norm(gu[i] - fd) / max(1.0, np.linalg.norm(fd))
            assert rel < 1e-4

    def test_linearize_matches_per_coordinate_differences(self):
        prob = make_problem()
        rng = np.random.default_rng(9)
        x = po.OcpState(
            rng.standard_normal(3),
            so3.quat_normalize(rng.standard_normal(4)),
            rng.standard_normal(3),
            rng.standard_normal(3),
        )
        u = po.Wrench(HOVER_F + rng.standard_normal(3), 0.01 * rng.standard_normal(3))
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
            x = po.OcpState(
                rng.standard_normal(3),
                so3.quat_normalize(so3.quat_from_axis_angle(axis, angle)),
                rng.standard_normal(3),
                omega,
            )
            u = po.Wrench(HOVER_F + rng.standard_normal(3), 0.02 * rng.standard_normal(3))
            A, B = linearize_one(x, u, 0.05, prob)
            A_fd, B_fd = central_difference_jacobians(x, u, 0.05, prob)
            assert np.linalg.norm(A - A_fd) <= 1e-7 * np.linalg.norm(A_fd), trial
            assert np.linalg.norm(B - B_fd) <= 1e-7 * np.linalg.norm(B_fd), trial

    def test_batched_stages_equal_per_stage_loop(self):
        prob = make_problem(N=6)
        rng = np.random.default_rng(12)
        X = np.array([
            po.OcpState(
                rng.standard_normal(3),
                so3.quat_normalize(rng.standard_normal(4)),
                rng.standard_normal(3),
                3.0 * rng.standard_normal(3),
            ).as_vector()
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
            x_i = po.OcpState.from_vector(X[i])
            u_i = po.Wrench.from_vector(U[i])
            gap = po.local_coords(
                po.OcpState.from_vector(X[i + 1]), po.discretize(x_i, u_i, prob.dt, prob)
            )
            np.testing.assert_allclose(defects[i], gap, rtol=0, atol=1e-14)

    def test_hover_jacobian_structure(self):
        """Near hover, position picks up dt * velocity to leading order."""
        prob = make_problem()
        x = po.OcpState(np.array([0, 0, 0.5]), so3.quat_identity(), np.zeros(3), np.zeros(3))
        A, B = linearize_one(x, hover_wrench(), 0.05, prob)
        np.testing.assert_allclose(A[0:3, 3:6], 0.05 * np.eye(3), atol=1e-6)
        np.testing.assert_allclose(B[3:6, 0:3], (0.05 / M_L) * np.eye(3), atol=1e-6)


class TestRetraction:
    def test_round_trip(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            base = po.OcpState(
                rng.standard_normal(3),
                so3.quat_normalize(rng.standard_normal(4)),
                rng.standard_normal(3),
                rng.standard_normal(3),
            )
            delta = rng.uniform(-1.0, 1.0, 12)
            back = po.local_coords(base, po.retract(base, delta))
            np.testing.assert_allclose(back, delta, atol=1e-12)

    def test_defects_vanish_on_rollout(self):
        prob = make_problem(N=5)
        rng = np.random.default_rng(20)
        states = [prob.x0.copy()]
        inputs = []
        for i in range(5):
            u = po.Wrench(HOVER_F + 0.2 * rng.standard_normal(3), 0.01 * rng.standard_normal(3))
            inputs.append(u)
            states.append(po.discretize(states[-1], u, prob.dt, prob))
        for d in po.dynamics_defects(*rows(states, inputs), prob):
            assert np.linalg.norm(d) < 1e-12
