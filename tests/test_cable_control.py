"""Geometric cable/attitude controller tests.

The closed-form expectations (restoring directions, error identities, the
hover thrust value) were worked out by hand from the force balance of the
four-vehicle square rig and frozen here; vector identities are cross-checked
against np.cross, and the stabilization test builds its Jacobian by finite
differences on the actual controller rather than a hand-derived matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cablelift import allocation, cable_control as cc, harness, plant, so3
from cablelift.cable_control import CableTrackingState, DegenerateThrust, GainSet

G = 9.81
M_I = 0.12
M_L = 0.232
LEN = 1.0
J_I = np.diag([2.5e-3, 2.5e-3, 4.0e-3])
R_ATTACH = np.array(
    [
        [0.3, 0.3, 0.0],
        [0.3, -0.3, 0.0],
        [-0.3, -0.3, 0.0],
        [-0.3, 0.3, 0.0],
    ]
)
DOWN = np.array([0.0, 0.0, -1.0])
# per-cable share of the payload weight, and the thrust that carries it plus
# the vehicle's own weight: m_L g / 4 = 0.56898, + m_i g = 1.74618
HOVER_TENSION = M_L * G / 4
HOVER_THRUST = M_I * G + HOVER_TENSION


def tracking_state(xi=DOWN, omega_cable=None, xi_des=None, omega_des=None):
    if omega_cable is None:
        omega_cable = np.zeros(3)
    if xi_des is None:
        xi_des = xi.copy()
    if omega_des is None:
        omega_des = np.zeros(3)
    return CableTrackingState(xi, omega_cable, xi_des, omega_des)


class TestValidation:
    def test_gain_set_defaults_pass(self):
        gains = GainSet()
        assert gains.K_xi[0, 0] > 0

    def test_gain_set_rejects_non_diagonal(self):
        K = np.eye(3)
        K[0, 1] = 0.5
        with pytest.raises(ValueError):
            GainSet(K_R=K)

    def test_gain_set_rejects_non_positive_diagonal(self):
        with pytest.raises(ValueError):
            GainSet(K_omega=np.diag([1.0, -2.0, 1.0]))

    def test_tracking_state_rejects_non_unit_direction(self):
        with pytest.raises(ValueError):
            CableTrackingState(np.array([0.0, 0.0, -1.1]), np.zeros(3), DOWN, np.zeros(3))

    def test_tracking_state_rejects_rate_along_cable(self):
        with pytest.raises(ValueError):
            CableTrackingState(DOWN, np.array([0.0, 0.0, 0.2]), DOWN, np.zeros(3))


class TestCableErrors:
    def test_perfect_tracking_is_error_free(self):
        # omega_des lies in the tangent plane, so xi x (xi x omega_des)
        # collapses to -omega_des and cancels the measured rate exactly.
        omega = np.array([0.4, -0.2, 0.0])
        state = tracking_state(xi=DOWN, omega_cable=omega, xi_des=DOWN, omega_des=omega)
        e_xi, e_omega = cc.cable_errors(state)
        np.testing.assert_allclose(e_xi, np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(e_omega, np.zeros(3), atol=1e-15)

    def test_basis_directions(self):
        state = tracking_state(
            xi=np.array([1.0, 0.0, 0.0]), xi_des=np.array([0.0, 0.0, 1.0])
        )
        e_xi, _ = cc.cable_errors(state)
        np.testing.assert_allclose(e_xi, np.array([0.0, 1.0, 0.0]), atol=1e-15)

    def test_matches_cross_product_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            xi = rng.standard_normal(3)
            xi /= np.linalg.norm(xi)
            xi_des = rng.standard_normal(3)
            xi_des /= np.linalg.norm(xi_des)
            omega = rng.standard_normal(3)
            omega -= xi * (omega @ xi)
            omega_des = rng.standard_normal(3)
            state = tracking_state(xi, omega, xi_des, omega_des)
            e_xi, e_omega = cc.cable_errors(state)
            np.testing.assert_allclose(e_xi, np.cross(xi_des, xi), atol=1e-12)
            np.testing.assert_allclose(
                e_omega, omega + np.cross(xi, np.cross(xi, omega_des)), atol=1e-12
            )


class TestAttachmentAccel:
    def test_static_hover_is_gravity_only(self):
        a = cc.attachment_accel(np.zeros(3), np.eye(3), np.zeros(3), np.zeros(3), R_ATTACH[0])
        np.testing.assert_allclose(a, np.array([0.0, 0.0, G]), atol=1e-15)

    def test_spin_gives_centripetal_pull(self):
        # yaw rate w about z with a radial attachment: hat(Omega)^2 r = -w^2 r
        w = 2.0
        r = np.array([0.3, 0.0, 0.0])
        a = cc.attachment_accel(np.zeros(3), np.eye(3), np.array([0.0, 0.0, w]), np.zeros(3), r)
        np.testing.assert_allclose(a, np.array([-w * w * 0.3, 0.0, G]), atol=1e-12)

    def test_angular_accel_gives_tangential_term(self):
        Om_dot = np.array([0.0, 0.0, 3.0])
        r = np.array([0.3, 0.0, 0.0])
        a = cc.attachment_accel(np.zeros(3), np.eye(3), np.zeros(3), Om_dot, r)
        expected = np.array([0.0, 0.0, G]) - so3.hat(r) @ Om_dot
        np.testing.assert_allclose(a, expected, atol=1e-12)

    def test_rotated_payload_frame(self):
        R_L = so3.quat_to_rotation(so3.quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.7))
        Om = np.array([0.1, -0.2, 0.3])
        a = cc.attachment_accel(np.zeros(3), R_L, Om, np.zeros(3), R_ATTACH[1])
        expected = np.array([0.0, 0.0, G]) + R_L @ so3.hat(Om) @ so3.hat(Om) @ R_ATTACH[1]
        np.testing.assert_allclose(a, expected, atol=1e-12)


class TestControlComponents:
    def test_perfect_static_tracking_feeds_forward_accel(self):
        state = tracking_state()
        a_kc = np.array([0.5, -0.3, G])
        u_par, u_perp = cc.control_components(np.zeros(3), state, a_kc, M_I, LEN, GainSet())
        hat_xi = so3.hat(DOWN)
        np.testing.assert_allclose(u_perp, -M_I * hat_xi @ hat_xi @ a_kc, atol=1e-12)
        np.testing.assert_allclose(u_par, M_I * DOWN * (DOWN @ a_kc), atol=1e-12)
        # the two parts reassemble the full mass-times-acceleration demand
        np.testing.assert_allclose(u_par + u_perp, M_I * a_kc, atol=1e-12)

    def test_no_error_and_aligned_accel_means_no_perp_force(self):
        state = tracking_state()
        _, u_perp = cc.control_components(
            np.zeros(3), state, np.array([0.0, 0.0, G]), M_I, LEN, GainSet()
        )
        np.testing.assert_allclose(u_perp, np.zeros(3), atol=1e-12)

    def test_decomposition_invariant(self):
        rng = np.random.default_rng(23)
        gains = GainSet()
        for _ in range(30):
            xi = rng.standard_normal(3)
            xi /= np.linalg.norm(xi)
            omega = rng.standard_normal(3)
            omega -= xi * (omega @ xi)
            xi_des = rng.standard_normal(3)
            xi_des /= np.linalg.norm(xi_des)
            state = tracking_state(xi, omega, xi_des, rng.standard_normal(3))
            u_par, u_perp = cc.control_components(
                rng.standard_normal(3),
                state,
                rng.standard_normal(3),
                M_I,
                LEN,
                gains,
                xi_dot_des=rng.standard_normal(3),
                omega_dot_des=rng.standard_normal(3),
            )
            assert abs(u_perp @ xi) < 1e-9
            assert np.linalg.norm(np.cross(u_par, xi)) < 1e-9

    def test_raw_and_projected_allocation_agree(self):
        state = tracking_state(xi=DOWN, xi_des=np.array([0.1, 0.0, -1.0]) / np.sqrt(1.01))
        mu = np.array([0.2, -0.4, 0.6])
        a_kc = np.array([0.0, 0.0, G])
        raw = cc.control_components(mu, state, a_kc, M_I, LEN, GainSet())
        proj = cc.control_components(
            allocation.project_tension(mu, DOWN), state, a_kc, M_I, LEN, GainSet()
        )
        np.testing.assert_allclose(raw[0], proj[0], atol=1e-12)
        np.testing.assert_allclose(raw[1], proj[1], atol=1e-12)

    def test_direction_error_pushes_cable_toward_target(self):
        # cable hangs straight down, target tilted toward +x: the tangent
        # force must carry a +x component to swing the vehicle across.
        xi_des = np.array([np.sin(0.2), 0.0, -np.cos(0.2)])
        state = tracking_state(xi=DOWN, xi_des=xi_des)
        _, u_perp = cc.control_components(
            np.zeros(3), state, np.zeros(3), M_I, LEN, GainSet()
        )
        assert u_perp[0] < 0.0
        assert abs(u_perp[1]) < 1e-12


class TestThrustAndAttitude:
    def test_thrust_is_body_z_projection(self):
        assert cc.thrust_command(np.array([0.0, 0.0, 7.0]), np.eye(3)) == pytest.approx(7.0)
        assert cc.thrust_command(np.array([3.0, 0.0, 0.0]), np.eye(3)) == pytest.approx(0.0)

    def test_thrust_full_when_aligned(self):
        u = np.array([1.0, 2.0, 2.0])
        R = cc.desired_attitude(u, 0.3)
        assert cc.thrust_command(u, R) == pytest.approx(np.linalg.norm(u), abs=1e-12)

    def test_vertical_force_zero_yaw_is_identity(self):
        R = cc.desired_attitude(np.array([0.0, 0.0, HOVER_THRUST]), 0.0)
        np.testing.assert_allclose(R, np.eye(3), atol=1e-12)

    def test_tilted_force_gives_proper_rotation(self):
        u = HOVER_THRUST * np.array([np.sin(np.radians(10)), 0.0, np.cos(np.radians(10))])
        R = cc.desired_attitude(u, 0.0)
        np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(R[:, 2], u / np.linalg.norm(u), atol=1e-12)

    def test_zero_force_rejected(self):
        with pytest.raises(DegenerateThrust):
            cc.desired_attitude(np.zeros(3), 0.0)

    def test_force_along_heading_rejected(self):
        with pytest.raises(DegenerateThrust):
            cc.desired_attitude(np.array([2.0, 0.0, 0.0]), 0.0)


class TestAttitudeErrors:
    def test_aligned_reduces_to_rate_difference(self):
        omega = np.array([0.1, 0.2, -0.3])
        omega_des = np.array([0.05, 0.0, 0.0])
        e_R, e_Omega = cc.attitude_errors(np.eye(3), np.eye(3), omega, omega_des)
        np.testing.assert_allclose(e_R, np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(e_Omega, omega - omega_des, atol=1e-15)

    def test_small_yaw_offset(self):
        R = so3.quat_to_rotation(so3.quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.1))
        e_R, _ = cc.attitude_errors(R, np.eye(3), np.zeros(3), np.zeros(3))
        np.testing.assert_allclose(e_R, np.array([0.0, 0.0, np.sin(0.1)]), atol=1e-12)

    def test_transported_rate_reference_cancels(self):
        R_des = so3.quat_to_rotation(
            so3.quat_from_axis_angle(np.array([1.0, 1.0, 0.0]) / np.sqrt(2), 0.6)
        )
        R = so3.quat_to_rotation(so3.quat_from_axis_angle(np.array([0.0, 1.0, 0.0]), 0.2))
        omega_des = np.array([0.3, -0.1, 0.2])
        omega = R.T @ R_des @ omega_des
        _, e_Omega = cc.attitude_errors(R, R_des, omega, omega_des)
        np.testing.assert_allclose(e_Omega, np.zeros(3), atol=1e-14)


class TestMomentCommand:
    def test_rest_at_target_needs_no_moment(self):
        M = cc.moment_command(
            (np.zeros(3), np.zeros(3)),
            np.zeros(3),
            np.eye(3),
            np.eye(3),
            np.zeros(3),
            np.zeros(3),
            J_I,
            GainSet(),
        )
        np.testing.assert_allclose(M, np.zeros(3), atol=1e-15)

    def test_rate_error_damped_by_gain(self):
        gains = GainSet()
        e_Omega = np.array([0.1, 0.0, 0.0])
        M = cc.moment_command(
            (np.zeros(3), e_Omega),
            np.zeros(3),
            np.eye(3),
            np.eye(3),
            np.zeros(3),
            np.zeros(3),
            J_I,
            gains,
        )
        np.testing.assert_allclose(M, -gains.K_Omega @ e_Omega, atol=1e-15)

    def test_gyroscopic_term_isolated(self):
        # zero errors and references leave only the omega x J omega cross term
        omega = np.array([0.2, -0.1, 0.5])
        M = cc.moment_command(
            (np.zeros(3), np.zeros(3)),
            omega,
            np.eye(3),
            np.eye(3),
            np.zeros(3),
            np.zeros(3),
            J_I,
            GainSet(),
        )
        np.testing.assert_allclose(M, np.cross(omega, J_I @ omega), atol=1e-15)

    def test_restoring_direction(self):
        # body yawed past the target: the commanded moment must pull it back
        R = so3.quat_to_rotation(so3.quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.3))
        errors = cc.attitude_errors(R, np.eye(3), np.zeros(3), np.zeros(3))
        M = cc.moment_command(
            errors, np.zeros(3), R, np.eye(3), np.zeros(3), np.zeros(3), J_I, GainSet()
        )
        assert M[2] < 0.0


class TestAttitudeLoopStability:
    def test_linearized_hover_loop_is_hurwitz(self):
        """Finite-difference the closed attitude loop about hover and check
        every eigenvalue sits strictly in the left half plane."""
        gains = GainSet()
        J_inv = np.linalg.inv(J_I)

        def deriv(x):
            theta, omega = x[:3], x[3:]
            R = so3.quat_to_rotation(so3.quat_exp(theta))
            errors = cc.attitude_errors(R, np.eye(3), omega, np.zeros(3))
            M = cc.moment_command(
                errors, omega, R, np.eye(3), np.zeros(3), np.zeros(3), J_I, gains
            )
            return np.concatenate([omega, J_inv @ (M - np.cross(omega, J_I @ omega))])

        h = 1e-6
        A = np.zeros((6, 6))
        for j in range(6):
            e = np.zeros(6)
            e[j] = h
            A[:, j] = (deriv(e) - deriv(-e)) / (2 * h)
        eigenvalues = np.linalg.eigvals(A)
        assert np.max(eigenvalues.real) < -1e-3


def hover_rig():
    params = plant.SystemParams(
        n=4,
        m_i=M_I,
        J_i=J_I,
        m_L=M_L,
        J_L=np.diag([0.007, 0.007, 0.013]),
        r_i=R_ATTACH,
        l_i=LEN,
        F_max=2.5,
        f_max=1.2,
        g=G,
    )
    stretch = HOVER_TENSION / params.cable_stiffness
    # world rows [p, v, q, omega], payload first, everything level and at rest
    full = np.zeros((5, 13))
    full[:, 6:10] = so3.quat_identity()
    full[0, 0:3] = [0.0, 0.0, 1.0]
    for k in range(4):
        full[1 + k, 0:3] = full[0, 0:3] + R_ATTACH[k] + np.array([0.0, 0.0, LEN + stretch])
    return full, params


def run_hover_loop(n_steps, dt=0.002):
    """Drive the full stack (allocation -> cable loop -> attitude loop ->
    simulator) from the spring-stretch equilibrium and report the worst
    payload position drift plus the commands issued on the first tick."""
    full, params = hover_rig()
    amap = allocation.build_allocation(R_ATTACH)
    gains = GainSet()
    wrench = np.array([0.0, 0.0, M_L * G, 0.0, 0.0, 0.0])
    target = full[0, 0:3].copy()
    xi_prev = [None] * 4
    mu_prev = [None] * 4
    first_commands = None
    worst = 0.0
    for step in range(n_steps):
        readings = plant.cable_closure(full, params)
        R_L = so3.quat_to_rotation(full[0, 6:10])
        mu = allocation.allocate(wrench, R_L, amap)
        commands = []
        for k in range(4):
            xi_des, om_des = allocation.desired_cable_direction(mu[k], mu_prev[k], dt)
            mu_prev[k] = mu[k]
            xi = readings[k].direction if readings[k].taut else xi_des
            xi_dot = np.zeros(3) if xi_prev[k] is None else (xi - xi_prev[k]) / dt
            om_c = np.cross(xi, xi_dot)
            xi_prev[k] = xi
            state = CableTrackingState(xi, om_c, xi_des, om_des)
            a_kc = cc.attachment_accel(
                np.zeros(3), R_L, full[0, 10:13], np.zeros(3), R_ATTACH[k]
            )
            u_par, u_perp = cc.control_components(
                allocation.project_tension(mu[k], xi), state, a_kc, M_I, LEN, gains
            )
            u = u_par + u_perp
            R_k = so3.quat_to_rotation(full[1 + k, 6:10])
            f = cc.thrust_command(u, R_k)
            R_des = cc.desired_attitude(u, 0.0)
            errors = cc.attitude_errors(R_k, R_des, full[1 + k, 10:13], np.zeros(3))
            M = cc.moment_command(
                errors, full[1 + k, 10:13], R_k, R_des,
                np.zeros(3), np.zeros(3), params.J_i[k], gains,
            )
            commands.append((f, M))
        if first_commands is None:
            first_commands = commands
        thrusts, moments = (np.array(rows) for rows in zip(*commands))
        full = plant.step_world(full, (thrusts, moments), dt, params)
        worst = max(worst, float(np.linalg.norm(full[0, 0:3] - target)))
    return worst, first_commands


class TestFullStackHover:
    def test_equilibrium_held_for_ten_seconds(self):
        worst, _ = run_hover_loop(5000)
        assert worst <= 1e-3

    def test_equilibrium_commands_match_force_balance(self):
        _, commands = run_hover_loop(1)
        for f, M in commands:
            assert f == pytest.approx(HOVER_THRUST, abs=1e-9)
            np.testing.assert_allclose(M, np.zeros(3), atol=1e-9)


def per_vehicle_tick(config, Y, wrench_cmd, mu_prev):
    """The controller tick of the full plant written vehicle by vehicle, one
    loop over 3-vectors: the reference the row tick of
    `harness._FullPlant.realize` is pinned to.

    mu_prev is None (first tick of a stage) or the previous tick's (n, 3)
    allocated forces.  Returns (thrusts, moments, allocated forces).
    """
    params = config.params
    dt = config.dt_lowlevel
    readings = plant.cable_closure(Y, params)
    p_L, v_L, omega_l = Y[0, 0:3], Y[0, 3:6], Y[0, 10:13]
    R_L = so3.quat_to_rotation(Y[0, 6:10])
    amap = allocation.build_allocation(params.r_i)
    mu = allocation.allocate(wrench_cmd, R_L, amap)
    attachments = p_L + (R_L @ params.r_i.T).T
    mu = allocation.nullspace_redistribute(mu, attachments, R_L, amap, params.l_i)
    accel_des = wrench_cmd[0:3] / params.m_L + np.array([0.0, 0.0, -params.g])
    omega_dot_des = np.linalg.solve(
        params.J_L, wrench_cmd[3:6] - so3.cross3(omega_l, params.J_L @ omega_l)
    )
    thrusts, moments = [], []
    for k in range(params.n):
        v_k, q_k, omega_k = Y[1 + k, 3:6], Y[1 + k, 6:10], Y[1 + k, 10:13]
        prev = None if mu_prev is None else mu_prev[k]
        xi_des, om_des = allocation.desired_cable_direction(mu[k], prev, dt)
        om_norm = float(np.linalg.norm(om_des))
        if om_norm > harness.OMEGA_DES_LIMIT:
            om_des = om_des * (harness.OMEGA_DES_LIMIT / om_norm)
        if readings[k].taut:
            xi = readings[k].direction
            rel_v = v_L + R_L @ so3.cross3(omega_l, params.r_i[k]) - v_k
            dist = params.l_i[k] + readings[k].stretch
            xi_dot = (rel_v - xi * float(xi @ rel_v)) / dist
            om_c = so3.cross3(xi, xi_dot)
        else:
            xi = xi_des
            om_c = om_des
        state = CableTrackingState(xi, om_c, xi_des, om_des)
        a_kc = cc.attachment_accel(accel_des, R_L, omega_l, omega_dot_des, params.r_i[k], params.g)
        u_par, u_perp = cc.control_components(
            allocation.project_tension(mu[k], xi),
            state,
            a_kc,
            params.m_i[k],
            params.l_i[k],
            config.gains,
        )
        u = u_par + u_perp
        R_k = so3.quat_to_rotation(q_k)
        thrusts.append(float(cc.thrust_command(u, R_k)))
        R_des = cc.desired_attitude(u, 0.0)
        errors = cc.attitude_errors(R_k, R_des, omega_k, np.zeros(3))
        moments.append(
            cc.moment_command(
                errors, omega_k, R_k, R_des, np.zeros(3), np.zeros(3), params.J_i[k], config.gains
            )
        )
    return np.array(thrusts), np.array(moments), mu


@st.composite
def rig_ticks(draw):
    """A random rig state around hover with each cable taut or slack, a held
    wrench, and the previous tick's forces: none, nearby (small desired
    cable rates) or far off (rates past OMEGA_DES_LIMIT)."""
    config = harness.scenario_preset("circle-medium")
    params = config.params
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    slack = np.array(draw(st.lists(st.booleans(), min_size=4, max_size=4)))
    Y = np.zeros((5, 13))
    Y[0, 0:3] = rng.uniform(-1.0, 1.0, 3)
    Y[0, 3:6] = 0.3 * rng.standard_normal(3)
    Y[:, 6:10] = so3.quat_normalize([1.0, 0.0, 0.0, 0.0] + 0.1 * rng.standard_normal((5, 4)))
    Y[:, 10:13] = 0.3 * rng.standard_normal((5, 3))
    R_L = so3.quat_to_rotation(Y[0, 6:10])
    for k in range(4):
        up = np.array([0.0, 0.0, 1.0]) + 0.2 * rng.standard_normal(3)
        # taut cables stretch 0.1 mm and separate slowly, so the tension
        # stays far below the overload ceiling
        length = params.l_i[k] * (0.95 if slack[k] else 1.0001)
        Y[1 + k, 0:3] = Y[0, 0:3] + R_L @ params.r_i[k] + length * up / np.linalg.norm(up)
        v_attach = Y[0, 3:6] + R_L @ np.cross(Y[0, 10:13], params.r_i[k])
        Y[1 + k, 3:6] = v_attach + 0.01 * rng.standard_normal(3)
    wrench = np.concatenate([
        np.array([0.0, 0.0, params.m_L * params.g]) + 0.5 * rng.standard_normal(3),
        0.01 * rng.standard_normal(3),
    ])
    R_now = so3.quat_to_rotation(Y[0, 6:10])
    mu = allocation.allocate(wrench, R_now, allocation.build_allocation(params.r_i))
    prev = draw(st.sampled_from(["none", "near", "far"]))
    mu_prev = {
        "none": None,
        "near": mu + 1e-4 * rng.standard_normal(mu.shape),
        "far": mu + 0.2 * rng.standard_normal(mu.shape),
    }[prev]
    new_stage = draw(st.booleans())
    return config, Y, wrench, slack, mu_prev, prev, new_stage


class TestRowTick:
    """The one-pass row tick against the per-vehicle loop."""

    @settings(max_examples=60, deadline=None)
    @given(rig_ticks())
    def test_matches_per_vehicle_loop(self, tick):
        config, Y, wrench, slack, mu_prev, prev, new_stage = tick
        model = harness._FullPlant(config)
        model.mu_prev = mu_prev
        tensions, directions, mav_p, (thrusts, moments) = model.realize(Y, wrench, new_stage)

        ref_thrusts, ref_moments, ref_mu = per_vehicle_tick(
            config, Y, wrench, None if new_stage else mu_prev
        )
        np.testing.assert_allclose(thrusts, ref_thrusts, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(moments, ref_moments, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(model.mu_prev, ref_mu)

        readings = plant.cable_closure(Y, config.params)
        np.testing.assert_array_equal(readings.taut, ~slack)
        for k in range(4):
            assert tensions[k] == readings[k].tension
            np.testing.assert_array_equal(directions[k], readings[k].direction)
        np.testing.assert_array_equal(mav_p, Y[1:, 0:3])
        assert model.slack_cable_ticks == int(np.count_nonzero(slack))
        clipped = prev == "far" and not new_stage
        assert (model.omega_des_clips > 0) == clipped


def _hover_rig():
    config = harness.scenario_preset("hover")
    return config, harness.equilibrium_state(config)


def _hover_wrench(config):
    return np.array([0.0, 0.0, config.params.m_L * config.params.g, 0.0, 0.0, 0.0])


def _realize_with(mutate=None, wrench=None):
    config, Y = _hover_rig()
    if mutate is not None:
        mutate(config, Y)
    model = harness._FullPlant(config)
    model.realize(Y, _hover_wrench(config) if wrench is None else wrench, True)


def _rows(bad, good, k=2):
    """Four rows of `good` with row k replaced by `bad`."""
    rows = np.repeat(np.asarray(good, dtype=float)[None], 4, axis=0)
    rows[k] = bad
    return rows


def _coincident_mav(config, Y):
    Y[3, 0:3] = Y[0, 0:3] + config.params.r_i[2]


def _overstretched_cable(config, Y):
    Y[2, 0:3] += np.array([0.0, 0.0, 1.0])


def _nonfinite_step():
    config, Y = _hover_rig()
    thrusts = np.full(4, 1.7)
    torques = _rows([0.0, np.inf, 0.0], np.zeros(3), k=3)
    harness._FullPlant(config).advance(Y, (thrusts, torques), _hover_wrench(config), None)


def _non_skew_rows():
    rows = so3.hat(np.arange(12.0).reshape(4, 3))
    rows[1, 0, 0] = 1.0
    so3.vee(rows)


SAFETY_CASES = {
    "zero-tension": (
        allocation.ZeroTension,
        None,
        lambda: _realize_with(wrench=np.zeros(6)),
    ),
    "unit-direction": (
        ValueError,
        "unit vector",
        lambda: CableTrackingState(
            _rows([0.0, 0.0, -1.1], DOWN), np.zeros((4, 3)), _rows(DOWN, DOWN), np.zeros((4, 3))
        ),
    ),
    "perpendicular-rate": (
        ValueError,
        "perpendicular",
        lambda: CableTrackingState(
            _rows(DOWN, DOWN),
            _rows([0.0, 0.0, 0.2], np.zeros(3)),
            _rows(DOWN, DOWN),
            np.zeros((4, 3)),
        ),
    ),
    "thrust-too-small": (
        DegenerateThrust,
        "too small",
        lambda: cc.desired_attitude(_rows(np.zeros(3), [0.0, 0.0, HOVER_THRUST]), 0.0),
    ),
    "thrust-along-heading": (
        DegenerateThrust,
        "collinear",
        lambda: cc.desired_attitude(_rows([2.0, 0.0, 0.0], [0.0, 0.0, HOVER_THRUST]), 0.0),
    ),
    "not-skew": (so3.NotSkew, None, _non_skew_rows),
    "degenerate-geometry": (
        plant.DegenerateGeometry,
        "MAV 2",
        lambda: _realize_with(_coincident_mav),
    ),
    "cable-overload": (
        plant.CableOverload,
        "cable 1",
        lambda: _realize_with(_overstretched_cable),
    ),
    "non-finite-state": (plant.NonFiniteState, None, _nonfinite_step),
    # every comparison is written so that it must hold, and NaN makes it false
    "nan-not-skew": (
        so3.NotSkew,
        None,
        lambda: so3.vee(_rows(np.full((3, 3), np.nan), np.zeros((3, 3)))),
    ),
    "nan-direction": (
        ValueError,
        "unit vector",
        lambda: CableTrackingState(
            _rows([np.nan, 0.0, -1.0], DOWN), np.zeros((4, 3)), _rows(DOWN, DOWN), np.zeros((4, 3))
        ),
    ),
    "nan-thrust": (
        DegenerateThrust,
        None,
        lambda: cc.desired_attitude(_rows([np.nan, 0.0, 1.0], [0.0, 0.0, HOVER_THRUST]), 0.0),
    ),
    "nan-tension": (
        allocation.ZeroTension,
        None,
        lambda: allocation.desired_cable_direction(
            _rows([np.nan, 0.0, 1.0], [0.0, 0.0, HOVER_TENSION]), None, 0.002
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(SAFETY_CASES))
def test_safety_checks_raise_from_rows(case):
    """One bad vehicle among good ones still trips each check on the row path."""
    exc, match, call = SAFETY_CASES[case]
    with np.errstate(all="ignore"), pytest.raises(exc, match=match):
        call()

