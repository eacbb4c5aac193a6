"""Geometric cable/attitude controller tests.

The closed-form expectations (restoring directions, error identities, the
hover thrust value) were worked out by hand from the force balance of the
four-vehicle square rig and frozen here; vector identities are cross-checked
against np.cross, and the stabilization test builds its Jacobian by finite
differences on the actual controller rather than a hand-derived matrix.

Every controller function takes one entry per vehicle (float 3-tuples,
floats, row-major rotation 9-tuples); the single-vehicle tests pass lists of
one and read entry 0.  `reference_tick` is the whole controller tick written
again in numpy, vehicle by vehicle, as the oracle of the float tick.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cablelift import allocation, cable_control as cc, harness, plant, so3
from cablelift.cable_control import CableTrackingState, DegenerateThrust, GainSet
import kernel_references as refs
from rotation_helpers import quat_from_axis_angle

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
EYE = tuple(np.eye(3).ravel())
# per-cable share of the payload weight, and the thrust that carries it plus
# the vehicle's own weight: m_L g / 4 = 0.56898, + m_i g = 1.74618
HOVER_TENSION = M_L * G / 4
HOVER_THRUST = M_I * G + HOVER_TENSION


def flat(R) -> tuple:
    """A 3x3 matrix as the row-major 9-tuple the controllers take."""
    return tuple(np.ravel(R).tolist())


def tracking_state(xi=DOWN, omega_cable=None, xi_des=None, omega_des=None):
    """One vehicle's tracking state."""
    if omega_cable is None:
        omega_cable = np.zeros(3)
    if xi_des is None:
        xi_des = xi.copy()
    if omega_des is None:
        omega_des = np.zeros(3)
    return CableTrackingState([xi], [omega_cable], [xi_des], [omega_des])


def components(mu, state, a_kc, **kw):
    """control_components of one vehicle with the test rig's mass and length."""
    u_par, u_perp = cc.control_components([mu], state, [a_kc], M_I, LEN, GainSet(), **kw)
    return np.array(u_par[0]), np.array(u_perp[0])


def moment(e_R, omega, gains=None):
    """moment_command of one vehicle with inertia J_I."""
    out = cc.moment_command([e_R], [omega], flat(J_I), gains or GainSet())
    return np.array(out[0])


def attitude_errors(R, R_des):
    """attitude_errors of one vehicle, as an array."""
    return np.array(cc.attitude_errors([flat(R)], [flat(R_des)])[0])


def desired_attitude(u, yaw):
    return np.array(cc.desired_attitude([u], yaw)[0]).reshape(3, 3)


class TestValidation:
    def test_gain_set_defaults_pass(self):
        gains = GainSet()
        assert gains.K_xi > 0

    def test_gain_set_rejects_non_diagonal(self):
        K = np.eye(3)
        K[0, 1] = 0.5
        with pytest.raises(ValueError):
            GainSet(K_R=K)

    def test_gain_set_rejects_non_positive_diagonal(self):
        with pytest.raises(ValueError):
            GainSet(K_omega=-2.0)

    @pytest.mark.parametrize("name", ["K_R", "K_Omega", "K_xi", "K_omega"])
    def test_gain_set_rejects_a_bool(self, name):
        """True is an int, but no gain: it is refused, not read as 1.0."""
        with pytest.raises(ValueError):
            GainSet(**{name: True})

    def test_tracking_state_rejects_non_unit_direction(self):
        with pytest.raises(ValueError):
            tracking_state(xi=np.array([0.0, 0.0, -1.1]), xi_des=DOWN)

    def test_tracking_state_rejects_rate_along_cable(self):
        with pytest.raises(ValueError):
            tracking_state(omega_cable=np.array([0.0, 0.0, 0.2]))


class TestCableErrors:
    def test_perfect_tracking_is_error_free(self):
        # omega_des lies in the tangent plane, so xi x (xi x omega_des)
        # collapses to -omega_des and cancels the measured rate exactly.
        omega = np.array([0.4, -0.2, 0.0])
        state = tracking_state(xi=DOWN, omega_cable=omega, xi_des=DOWN, omega_des=omega)
        e_xi, e_omega = cc.cable_errors(state)
        np.testing.assert_allclose(e_xi[0], np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(e_omega[0], np.zeros(3), atol=1e-15)

    def test_basis_directions(self):
        state = tracking_state(
            xi=np.array([1.0, 0.0, 0.0]), xi_des=np.array([0.0, 0.0, 1.0])
        )
        e_xi, _ = cc.cable_errors(state)
        np.testing.assert_allclose(e_xi[0], np.array([0.0, 1.0, 0.0]), atol=1e-15)

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
            np.testing.assert_allclose(e_xi[0], np.cross(xi_des, xi), atol=1e-12)
            np.testing.assert_allclose(
                e_omega[0], omega + np.cross(xi, np.cross(xi, omega_des)), atol=1e-12
            )


def attachment_accel(R_L, Omega, Omega_dot, r):
    """attachment_accel of one attachment with zero desired acceleration."""
    return np.array(cc.attachment_accel(np.zeros(3), flat(R_L), Omega, Omega_dot, [r])[0])


class TestAttachmentAccel:
    def test_static_hover_is_gravity_only(self):
        a = attachment_accel(np.eye(3), np.zeros(3), np.zeros(3), R_ATTACH[0])
        np.testing.assert_allclose(a, np.array([0.0, 0.0, G]), atol=1e-15)

    def test_spin_gives_centripetal_pull(self):
        # yaw rate w about z with a radial attachment: hat(Omega)^2 r = -w^2 r
        w = 2.0
        r = np.array([0.3, 0.0, 0.0])
        a = attachment_accel(np.eye(3), np.array([0.0, 0.0, w]), np.zeros(3), r)
        np.testing.assert_allclose(a, np.array([-w * w * 0.3, 0.0, G]), atol=1e-12)

    def test_angular_accel_gives_tangential_term(self):
        Om_dot = np.array([0.0, 0.0, 3.0])
        r = np.array([0.3, 0.0, 0.0])
        a = attachment_accel(np.eye(3), np.zeros(3), Om_dot, r)
        expected = np.array([0.0, 0.0, G]) - so3.hat(r) @ Om_dot
        np.testing.assert_allclose(a, expected, atol=1e-12)

    def test_rotated_payload_frame(self):
        R_L = so3.quat_to_rotation(quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.7))
        Om = np.array([0.1, -0.2, 0.3])
        a = attachment_accel(R_L, Om, np.zeros(3), R_ATTACH[1])
        expected = np.array([0.0, 0.0, G]) + R_L @ so3.hat(Om) @ so3.hat(Om) @ R_ATTACH[1]
        np.testing.assert_allclose(a, expected, atol=1e-12)


class TestControlComponents:
    def test_perfect_static_tracking_feeds_forward_accel(self):
        state = tracking_state()
        a_kc = np.array([0.5, -0.3, G])
        u_par, u_perp = components(np.zeros(3), state, a_kc)
        hat_xi = so3.hat(DOWN)
        np.testing.assert_allclose(u_perp, -M_I * hat_xi @ hat_xi @ a_kc, atol=1e-12)
        np.testing.assert_allclose(u_par, M_I * DOWN * (DOWN @ a_kc), atol=1e-12)
        # the two parts reassemble the full mass-times-acceleration demand
        np.testing.assert_allclose(u_par + u_perp, M_I * a_kc, atol=1e-12)

    def test_no_error_and_aligned_accel_means_no_perp_force(self):
        state = tracking_state()
        _, u_perp = components(np.zeros(3), state, np.array([0.0, 0.0, G]))
        np.testing.assert_allclose(u_perp, np.zeros(3), atol=1e-12)

    def test_decomposition_invariant(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            xi = rng.standard_normal(3)
            xi /= np.linalg.norm(xi)
            omega = rng.standard_normal(3)
            omega -= xi * (omega @ xi)
            xi_des = rng.standard_normal(3)
            xi_des /= np.linalg.norm(xi_des)
            state = tracking_state(xi, omega, xi_des, rng.standard_normal(3))
            u_par, u_perp = components(rng.standard_normal(3), state, rng.standard_normal(3))
            assert abs(u_perp @ xi) < 1e-9
            assert np.linalg.norm(np.cross(u_par, xi)) < 1e-9

    def test_raw_and_projected_allocation_agree(self):
        state = tracking_state(xi=DOWN, xi_des=np.array([0.1, 0.0, -1.0]) / np.sqrt(1.01))
        mu = np.array([0.2, -0.4, 0.6])
        a_kc = np.array([0.0, 0.0, G])
        raw = components(mu, state, a_kc)
        proj = components(allocation.project_tension([mu], [DOWN])[0], state, a_kc)
        np.testing.assert_allclose(raw[0], proj[0], atol=1e-12)
        np.testing.assert_allclose(raw[1], proj[1], atol=1e-12)

    def test_direction_error_pushes_cable_toward_target(self):
        # cable hangs straight down, target tilted toward +x: the tangent
        # force must carry a +x component to swing the vehicle across.
        xi_des = np.array([np.sin(0.2), 0.0, -np.cos(0.2)])
        state = tracking_state(xi=DOWN, xi_des=xi_des)
        _, u_perp = components(np.zeros(3), state, np.zeros(3))
        assert u_perp[0] < 0.0
        assert abs(u_perp[1]) < 1e-12


class TestThrustAndAttitude:
    def test_thrust_is_body_z_projection(self):
        assert cc.thrust_command([(0.0, 0.0, 7.0)], [EYE])[0] == pytest.approx(7.0)
        assert cc.thrust_command([(3.0, 0.0, 0.0)], [EYE])[0] == pytest.approx(0.0)

    def test_thrust_full_when_aligned(self):
        u = (1.0, 2.0, 2.0)
        R = cc.desired_attitude([u], 0.3)
        assert cc.thrust_command([u], R)[0] == pytest.approx(np.linalg.norm(u), abs=1e-12)

    def test_vertical_force_zero_yaw_is_identity(self):
        R = desired_attitude((0.0, 0.0, HOVER_THRUST), 0.0)
        np.testing.assert_allclose(R, np.eye(3), atol=1e-12)

    def test_tilted_force_gives_proper_rotation(self):
        u = HOVER_THRUST * np.array([np.sin(np.radians(10)), 0.0, np.cos(np.radians(10))])
        R = desired_attitude(u, 0.0)
        np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(R[:, 2], u / np.linalg.norm(u), atol=1e-12)

    def test_zero_force_rejected(self):
        with pytest.raises(DegenerateThrust):
            desired_attitude((0.0, 0.0, 0.0), 0.0)

    def test_force_along_heading_rejected(self):
        with pytest.raises(DegenerateThrust):
            desired_attitude((2.0, 0.0, 0.0), 0.0)


class TestAttitudeErrors:
    def test_aligned_reduces_to_rate_difference(self):
        # aligned, only the rate error acts, and the desired body rate is
        # zero, so that error is the rate itself
        gains = GainSet()
        omega = np.array([0.1, 0.2, -0.3])
        e_R = attitude_errors(np.eye(3), np.eye(3))
        np.testing.assert_allclose(e_R, np.zeros(3), atol=1e-15)
        expected = -gains.K_Omega * omega + np.cross(omega, J_I @ omega)
        np.testing.assert_allclose(moment(e_R, omega, gains), expected, atol=1e-15)

    def test_small_yaw_offset(self):
        R = so3.quat_to_rotation(quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.1))
        e_R = attitude_errors(R, np.eye(3))
        np.testing.assert_allclose(e_R, np.array([0.0, 0.0, np.sin(0.1)]), atol=1e-12)


class TestMomentCommand:
    def test_rest_at_target_needs_no_moment(self):
        M = moment(np.zeros(3), np.zeros(3))
        np.testing.assert_allclose(M, np.zeros(3), atol=1e-15)

    def test_rate_error_damped_by_gain(self):
        # a rate about a principal axis has no gyroscopic term, so the rate
        # error, the rate itself, is damped by the gain alone
        gains = GainSet()
        omega = np.array([0.1, 0.0, 0.0])
        M = moment(np.zeros(3), omega, gains)
        np.testing.assert_allclose(M, -gains.K_Omega * omega, atol=1e-15)

    def test_gyroscopic_term_isolated(self):
        # zero rotation error leaves the rate damping and the omega x J omega
        # cross term
        gains = GainSet()
        omega = np.array([0.2, -0.1, 0.5])
        M = moment(np.zeros(3), omega, gains)
        np.testing.assert_allclose(M + gains.K_Omega * omega, np.cross(omega, J_I @ omega), atol=1e-15)

    def test_restoring_direction(self):
        # body yawed past the target: the commanded moment must pull it back
        R = so3.quat_to_rotation(quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.3))
        M = moment(attitude_errors(R, np.eye(3)), np.zeros(3))
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
            M = moment(attitude_errors(R, np.eye(3)), omega, gains)
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
    payload position drift plus the commands issued on the first tick.

    The measured cable rate is a backward difference of the measured
    directions here, not the attachment-velocity formula of the harness."""
    full, params = hover_rig()
    amap = allocation.build_allocation(R_ATTACH)
    gains = GainSet()
    wrench = [0.0, 0.0, M_L * G, 0.0, 0.0, 0.0]
    target = full[0, 0:3].copy()
    xi_prev = xi_des = None  # the previous tick's measured and desired directions
    first_commands = None
    worst = 0.0
    for step in range(n_steps):
        readings = plant.cable_closure(full.ravel().tolist(), params)
        R_L = flat(so3.quat_to_rotation(full[0, 6:10]))
        mu = allocation.allocate(wrench, R_L, amap)
        xi_des, om_des = allocation.desired_cable_direction(mu, xi_des, dt)
        xi = [
            tuple(direction) if stretch > 0.0 else xi_des[k]
            for k, (direction, stretch) in enumerate(zip(readings.direction, readings.stretch))
        ]
        xi_dot = np.zeros((4, 3)) if xi_prev is None else (np.array(xi) - xi_prev) / dt
        om_c = [tuple(np.cross(xi[k], xi_dot[k])) for k in range(4)]
        xi_prev = np.array(xi)
        state = CableTrackingState(xi, om_c, xi_des, om_des)
        a_kc = cc.attachment_accel(np.zeros(3), R_L, full[0, 10:13], np.zeros(3), R_ATTACH)
        u_par, u_perp = cc.control_components(
            allocation.project_tension(mu, xi), state, a_kc, M_I, LEN, gains
        )
        u = (np.array(u_par) + np.array(u_perp)).tolist()
        R_k = [flat(so3.quat_to_rotation(full[1 + k, 6:10])) for k in range(4)]
        omega_k = full[1:, 10:13].tolist()
        thrusts = cc.thrust_command(u, R_k)
        R_des = cc.desired_attitude(u, 0.0)
        e_R = cc.attitude_errors(R_k, R_des)
        moments = cc.moment_command(e_R, omega_k, flat(params.J_i), gains)
        if first_commands is None:
            first_commands = list(zip(thrusts, moments))
        y = plant.step_world(full.ravel().tolist(), (thrusts, moments), dt, params)
        full = np.reshape(y, full.shape)
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


# ---------------------------------------------------------------------------
# the independent numpy oracle of the whole tick


def reference_tick(config, Y, wrench_cmd, mu_prev):
    """The controller tick of `harness._FullPlant.tick`, up to its plant
    step, vehicle by vehicle in numpy (`@`, np.cross, np.linalg): the oracle
    the float tick is pinned to.  Only the matrices of
    `allocation.build_allocation` are shared.

    mu_prev is None (first tick of a stage) or the previous tick's (n, 3)
    allocated forces.  Returns (thrusts, moments, the minimal-norm allocated
    forces, the norm of each vehicle's force command u).
    """
    params, dt = config.params, config.dt_lowlevel
    K_R, K_Omega, K_xi, K_omega = (gain * np.eye(3) for gain in dataclasses.astuple(config.gains))
    amap = allocation.build_allocation(params.r_i)
    p_L, v_L, omega_l = Y[0, 0:3], Y[0, 3:6], Y[0, 10:13]
    R_L = so3.quat_to_rotation(Y[0, 6:10])
    F, M = wrench_cmd[0:3], wrench_cmd[3:6]
    stacked = amap.P_pinv @ np.concatenate([R_L.T @ F, M])
    attachments = p_L + params.r_i @ R_L.T
    mu = stacked.reshape(-1, 3) @ R_L.T
    accel_des = F / params.m_L - np.array([0.0, 0.0, params.g])
    omega_dot_des = np.linalg.solve(params.J_L, M - np.cross(omega_l, params.J_L @ omega_l))
    thrusts, moments, u_norms = [], [], []
    for k in range(params.n):
        p_k, v_k, omega_k = Y[1 + k, 0:3], Y[1 + k, 3:6], Y[1 + k, 10:13]
        r_k, l_k, m_k = params.r_i[k], params.l_i, params.m_i
        xi_des = -mu[k] / np.linalg.norm(mu[k])
        xi_dot_des = np.zeros(3)
        if mu_prev is not None:
            xi_dot_des = (xi_des + mu_prev[k] / np.linalg.norm(mu_prev[k])) / dt
        om_des = np.cross(xi_des, xi_dot_des)
        om_norm = np.linalg.norm(om_des)
        if om_norm > harness.OMEGA_DES_LIMIT:
            om_des = om_des * (harness.OMEGA_DES_LIMIT / om_norm)
        # the measured cable: the unit vector from the vehicle to its
        # attachment, taut while longer than the rest length
        d = attachments[k] - p_k
        dist = np.linalg.norm(d)
        if dist > l_k:
            xi = d / dist
            rel_v = v_L + R_L @ np.cross(omega_l, r_k) - v_k
            om_c = np.cross(xi, (rel_v - xi * (xi @ rel_v)) / dist)
        else:
            xi, om_c = xi_des, om_des
        a_kc = (
            accel_des + np.array([0.0, 0.0, params.g])
            - R_L @ np.cross(r_k, omega_dot_des)
            + R_L @ np.cross(omega_l, np.cross(omega_l, r_k))
        )
        e_xi = np.cross(xi_des, xi)
        e_omega = om_c + np.cross(xi, np.cross(xi, om_des))
        u_par = xi * (xi @ mu[k]) + m_k * l_k * (om_c @ om_c) * xi + m_k * xi * (xi @ a_kc)
        bracket = -K_xi @ e_xi - K_omega @ e_omega
        u_perp = m_k * l_k * np.cross(xi, bracket) - m_k * np.cross(xi, np.cross(xi, a_kc))
        u = u_par + u_perp
        R_k = so3.quat_to_rotation(Y[1 + k, 6:10])
        thrusts.append(u @ R_k[:, 2])
        u_norms.append(np.linalg.norm(u))
        b3 = u / u_norms[-1]
        b1 = np.array([1.0, 0.0, 0.0]) - b3[0] * b3
        b1 = b1 / np.linalg.norm(b1)
        R_des = np.column_stack([b1, np.cross(b3, b1), b3])
        S = R_des.T @ R_k - R_k.T @ R_des
        e_R = 0.5 * np.array([S[2, 1], S[0, 2], S[1, 0]])
        gyro = np.cross(omega_k, params.J_i @ omega_k)
        moments.append(-K_R @ e_R - K_Omega @ omega_k + gyro)
    return np.array(thrusts), np.array(moments), mu, np.array(u_norms)


def rig_tick(crowded, seed, slack, prev, new_stage):
    """A random rig state around hover with each cable taut or slack, a held
    wrench, and the previous tick's forces: none, nearby (small desired
    cable rates) or far off (rates past OMEGA_DES_LIMIT).  A crowded rig has
    its attachments at half the preset spacing; the tick allocates it by the
    minimal-norm map like any other.
    The state and forces are drawn from an rng seeded with `seed`."""
    config = harness.scenario_preset("circle-medium")
    if crowded:
        params = dataclasses.replace(config.params, r_i=0.5 * config.params.r_i)
        config = dataclasses.replace(config, params=params)
    params = config.params
    rng = np.random.default_rng(seed)
    slack = np.array(slack)
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
        length = params.l_i * (0.95 if slack[k] else 1.0001)
        Y[1 + k, 0:3] = Y[0, 0:3] + R_L @ params.r_i[k] + length * up / np.linalg.norm(up)
        v_attach = Y[0, 3:6] + R_L @ np.cross(Y[0, 10:13], params.r_i[k])
        Y[1 + k, 3:6] = v_attach + 0.01 * rng.standard_normal(3)
    wrench = np.concatenate([
        np.array([0.0, 0.0, params.m_L * params.g]) + 0.5 * rng.standard_normal(3),
        0.01 * rng.standard_normal(3),
    ])
    mu = reference_tick(config, Y, wrench, None)[2]
    mu_prev = {
        "none": None,
        "near": mu + 1e-4 * rng.standard_normal(mu.shape),
        "far": mu + 0.2 * rng.standard_normal(mu.shape),
    }[prev]
    return config, Y, wrench, slack, mu_prev, prev, new_stage, crowded


def rig_ticks():
    """`rig_tick` over every rig kind, seed, cable pattern and history."""
    return st.builds(
        rig_tick,
        st.booleans(),
        st.integers(0, 2**32 - 1),
        st.lists(st.booleans(), min_size=4, max_size=4),
        st.sampled_from(["none", "near", "far"]),
        st.booleans(),
    )


def full_plant(config):
    return harness._FullPlant(config, allocation.build_allocation(config.params.r_i))


def kept_directions(config, mu_prev):
    """The desired directions a tick that allocated mu_prev keeps for the
    next one; None without a previous tick."""
    if mu_prev is None:
        return None
    return allocation.desired_cable_direction(mu_prev.tolist(), None, config.dt_lowlevel)[0]


def tick_with_commands(model, y, wrench, new_stage):
    """model.tick's tuple and the (thrusts, moments) and cable reading it
    stepped the world with, read from its `plant.step_world` call."""
    with mock.patch.object(plant, "step_world", wraps=plant.step_world) as step:
        out = model.tick(y, wrench, new_stage)
    _, commands, _, _, cables = step.call_args.args
    return out, commands, cables


class TestFloatTick:
    """The float tick of `_FullPlant.tick` against the numpy oracle."""

    @settings(max_examples=80, deadline=None)
    @given(rig_ticks())
    # an uncrowded draw whose moments differ by 4e-12, on entries up to 12.9
    @example(rig_tick(False, 3120774400, [False, True, True, False], "near", False))
    def test_matches_numpy_reference(self, tick):
        config, Y, wrench, slack, mu_prev, prev, new_stage, crowded = tick
        model = full_plant(config)
        model.xi_prev = kept_directions(config, mu_prev)
        y = Y.ravel().tolist()
        (tensions, directions, mav_p, y_next), (thrusts, moments), cables = tick_with_commands(
            model, y, wrench.tolist(), new_stage
        )

        ref_thrusts, ref_moments, ref_mu, u_norms = reference_tick(
            config, Y, wrench, None if new_stage else mu_prev
        )
        # Both sides round differently in the last bits (numpy's 3x3 products
        # fuse multiply-adds), so the allocated forces differ by a few ulps (4e-16 relative at most
        # over 3000 draws), and so do the unit directions made from them.
        # Only the backward difference of the desired direction amplifies
        # that: it divides by dt (1/dt = 500).  Allow the two directions of
        # the difference to sit 8 eps apart in all, 4 eps each for a few ulps
        # of force and the normalizing division.  The desired rate is then
        # off by 8 eps / dt, and the force command u = u_par + u_perp by
        # m_k l_k K_omega 8 eps / dt through the rate term of u_perp; the
        # thrust, u along the body axis, by as much.  The thrust direction
        # u / |u| turns by at most 2 |du| / |u|, and the attitude error and
        # the moment follow it through K_R.  Every other term of the tick
        # rounds at eps of its own size, below 1e-14.  Over 3000 draws the
        # differences reach a quarter of these bounds.
        params, eps = config.params, np.finfo(float).eps
        du = params.m_i * params.l_i * config.gains.K_omega * 8 * eps
        du /= config.dt_lowlevel
        dM = config.gains.K_R * 2 * du / u_norms
        assert np.all(np.abs(np.array(thrusts) - ref_thrusts) <= du)
        assert np.all(np.abs(np.array(moments) - ref_moments) <= dM[:, None])
        ref_xi = -ref_mu / np.linalg.norm(ref_mu, axis=1, keepdims=True)
        np.testing.assert_allclose(model.xi_prev, ref_xi, rtol=1e-12, atol=1e-12)

        readings = plant.cable_closure(y, config.params)
        assert cables == readings
        np.testing.assert_array_equal(np.array(readings.stretch) > 0.0, ~slack)
        np.testing.assert_array_equal(tensions, readings.tension)
        np.testing.assert_array_equal(directions, readings.direction)
        np.testing.assert_array_equal(mav_p, Y[1:, 0:3])
        assert y_next == plant.step_world(
            y, (thrusts, moments), config.dt_lowlevel, config.params, readings
        )
        assert model.slack_cable_ticks == int(np.count_nonzero(slack))
        clipped = prev == "far" and not new_stage
        assert (model.omega_des_clips > 0) == clipped


def assert_same_floats(actual, expected):
    """Equal floats bit for bit, signed zeros included, in nested sequences
    of one shape."""
    np.testing.assert_array_equal(
        np.asarray(actual, dtype=np.float64).view(np.uint64),
        np.asarray(expected, dtype=np.float64).view(np.uint64),
    )


class TestWrittenOutKernels:
    """The tick's written-out products against their helper-based form
    (`kernel_references`), bit for bit, on taut and slack cables, clipped
    desired cable rates and crowded rigs."""

    KERNELS = {
        "allocate": allocation.allocate,
        "cable_errors": cc.cable_errors,
        "attachment_accel": cc.attachment_accel,
        "control_components": cc.control_components,
        "desired_attitude": cc.desired_attitude,
        "attitude_errors": cc.attitude_errors,
        "moment_command": cc.moment_command,
    }

    @settings(max_examples=80, deadline=None)
    @given(rig_ticks())
    def test_tick_matches_helper_form(self, tick):
        config, Y, wrench, slack, mu_prev, prev, new_stage, _ = tick
        params, y, wrench = config.params, Y.ravel().tolist(), wrench.tolist()
        model, ref_model = full_plant(config), full_plant(config)
        model.xi_prev = ref_model.xi_prev = kept_directions(config, mu_prev)
        out, (thrust, moment), cables = tick_with_commands(model, y, wrench, new_stage)
        ref_out, seen = refs.full_plant_tick(ref_model, y, wrench, new_stage)
        _, ref_commands, _, _, ref_cables = seen["step_world"][0]
        for got, expected in zip((*out, thrust, moment), (*ref_out, *ref_commands)):
            assert_same_floats(got, expected)
        assert cables == ref_cables
        assert_same_floats(model.xi_prev, ref_model.xi_prev)
        for counter in ("thrust_clamps", "omega_des_clips", "slack_cable_ticks"):
            assert getattr(model, counter) == getattr(ref_model, counter)
        clipped = prev == "far" and not new_stage
        assert (model.omega_des_clips > 0) == clipped

        # each kernel on the inputs the helper-based tick gave its twin
        for name, kernel in self.KERNELS.items():
            args, expected = seen[name]
            assert_same_floats(kernel(*args), expected)
        # the rig's attachment points, and the stacking of the tick's
        # minimal-norm forces into the payload frame and back
        R_L, mu = plant._rotation(*y[6:10]), seen["allocate"][1]
        assert_same_floats(
            harness._attachments(y[0:3], R_L, params._r_i), refs.attachments(y[0:3], R_L, params._r_i)
        )
        stacked = refs.stack_body(mu, R_L)
        assert_same_floats(allocation.stack_body(mu, R_L), stacked)
        assert_same_floats(allocation._unstack(stacked, R_L), refs.unstack(stacked, R_L))

        # the plant under the tick's commands, with and without its reading
        assert_same_floats(
            plant._payload_derivative(y[0:13], wrench, params),
            refs.payload_derivative(y[0:13], wrench, params),
        )
        inputs = ([plant.saturate_thrust(f, params.F_max) for f in thrust], moment)
        for reading in (None, cables):
            assert_same_floats(
                plant._world_derivative_flat(y, inputs, params, reading),
                refs.world_derivative_flat(y, inputs, params, reading),
            )
            assert_same_floats(
                plant.step_world(y, (thrust, moment), config.dt_lowlevel, params, reading),
                refs.step_world(y, (thrust, moment), config.dt_lowlevel, params, reading),
            )

        # the payload-only model's split of the same wrench
        payload_only = harness._PayloadOnly(config, model.amap)
        got = payload_only.tick(y, wrench, new_stage)
        expected = refs.payload_only_tick(payload_only, y, wrench)
        for a, b in zip(got, expected):
            assert_same_floats(a, b)


def run_ticks(preset, duration=1.5, every=45):
    """The config of a preset run cut to `duration`, and every `every`-th of
    its full-plant ticks as (world state, held wrench, new_stage, the
    model's kept desired directions) the way the tick received them."""
    config = dataclasses.replace(harness.scenario_preset(preset), duration=duration)
    tick, seen = harness._FullPlant.tick, []

    def spy(model, y, wrench, new_stage):
        if len(seen) % every == 0:
            captured.append((list(y), list(wrench), new_stage, model.xi_prev))
        seen.append(None)
        return tick(model, y, wrench, new_stage)

    captured = []
    with mock.patch.object(harness._FullPlant, "tick", spy):
        harness.run_closed_loop(config)
    return config, captured


class TestCommandLocality:
    """Each vehicle's thrust and moment read only the broadcast wrench, the
    payload state and the vehicle's own body and cable, so that each vehicle
    could compute its own: nudging vehicle j's velocity and body rate moves
    j's command and leaves every other vehicle's bit for bit.  Positions are
    left alone, since a 1 cm push overloads a 5000 N/m cable."""

    @staticmethod
    def commands(config, y, wrench, new_stage, xi_prev):
        model = full_plant(config)
        model.xi_prev = xi_prev
        return tick_with_commands(model, y, wrench, new_stage)[1]

    def assert_local(self, config, y, wrench, new_stage, xi_prev):
        thrust, moment = self.commands(config, y, wrench, new_stage, xi_prev)
        for j in range(config.params.n):
            b, nudged = 13 * (1 + j), list(y)
            for axis in range(3):
                nudged[b + 3 + axis] += 1e-3  # m/s
                nudged[b + 10 + axis] += 1e-2  # rad/s
            thrust_j, moment_j = self.commands(config, nudged, wrench, new_stage, xi_prev)
            others = [k for k in range(config.params.n) if k != j]
            assert_same_floats([thrust_j[k] for k in others], [thrust[k] for k in others])
            assert_same_floats([moment_j[k] for k in others], [moment[k] for k in others])
            assert (thrust_j[j], moment_j[j]) != (thrust[j], moment[j])

    @pytest.mark.parametrize("preset", ["hover", "circle-medium"])
    def test_mid_run_states(self, preset):
        config, ticks = run_ticks(preset)
        assert len(ticks) == 17 and any(t[2] for t in ticks) and not all(t[2] for t in ticks)
        for y, wrench, new_stage, xi_prev in ticks:
            self.assert_local(config, y, wrench, new_stage, xi_prev)

    @settings(max_examples=40, deadline=None)
    @given(rig_ticks())
    def test_rigs(self, tick):
        config, Y, wrench, _, mu_prev, _, new_stage, _ = tick
        xi_prev = kept_directions(config, mu_prev)
        self.assert_local(config, Y.ravel().tolist(), wrench.tolist(), new_stage, xi_prev)


# ---------------------------------------------------------------------------
# safety checks


def _hover_rig():
    config = harness.scenario_preset("hover")
    return config, harness.equilibrium_state(config)


def _hover_wrench(config):
    return np.array([0.0, 0.0, config.params.m_L * config.params.g, 0.0, 0.0, 0.0])


def _tick_with(mutate=None, wrench=None):
    """One full-plant tick of the hover rig after mutate(config, Y), under
    the hover wrench or the given one."""
    config, Y = _hover_rig()
    if mutate is not None:
        mutate(config, Y)
    wrench = _hover_wrench(config) if wrench is None else wrench
    full_plant(config).tick(Y.ravel().tolist(), wrench.tolist(), True)


def _rows(bad, good, k=2):
    """Four per-vehicle entries of `good` with entry k replaced by `bad`."""
    return [tuple(np.ravel(bad if i == k else good).tolist()) for i in range(4)]


def _coincident_mav(config, Y):
    Y[3, 0:3] = Y[0, 0:3] + config.params.r_i[2]


def _overstretched_cable(config, Y):
    Y[2, 0:3] += np.array([0.0, 0.0, 1.0])


def _nonfinite_step():
    config, Y = _hover_rig()
    thrusts = [1.7] * 4
    torques = _rows([0.0, np.inf, 0.0], np.zeros(3), k=3)
    plant.step_world(Y.ravel().tolist(), (thrusts, torques), config.dt_lowlevel, config.params)


def _nan_vehicle_quaternion(config, Y):
    Y[3, 6:10] = np.nan


def _nan_vehicle_rate(config, Y):
    Y[3, 11] = np.nan


def _inf_attitude():
    inf_rotation = np.eye(3)
    inf_rotation[0, 1] = np.inf
    R_k = _rows(inf_rotation, np.eye(3))
    cc.attitude_errors(R_k, _rows(np.eye(3), np.eye(3)))


def _nan_attitude():
    nan_rotation = np.full((3, 3), np.nan)
    R_k = _rows(nan_rotation, np.eye(3))
    cc.attitude_errors(R_k, _rows(np.eye(3), np.eye(3)))


SAFETY_CASES = {
    "zero-tension": (
        allocation.ZeroTension,
        None,
        lambda: _tick_with(wrench=np.zeros(6)),
    ),
    "unit-direction": (
        ValueError,
        "unit vector",
        lambda: CableTrackingState(
            _rows([0.0, 0.0, -1.1], DOWN), _rows(np.zeros(3), np.zeros(3)),
            _rows(DOWN, DOWN), _rows(np.zeros(3), np.zeros(3)),
        ),
    ),
    "perpendicular-rate": (
        ValueError,
        "perpendicular",
        lambda: CableTrackingState(
            _rows(DOWN, DOWN), _rows([0.0, 0.0, 0.2], np.zeros(3)),
            _rows(DOWN, DOWN), _rows(np.zeros(3), np.zeros(3)),
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
    "degenerate-geometry": (
        plant.DegenerateGeometry,
        "MAV 2",
        lambda: _tick_with(_coincident_mav),
    ),
    "cable-overload": (
        plant.CableOverload,
        "cable 1",
        lambda: _tick_with(_overstretched_cable),
    ),
    "non-finite-state": (plant.NonFiniteState, None, _nonfinite_step),
    # every comparison is written so that it must hold, and NaN makes it false
    "nan-not-skew": (cc.NotSkew, "attitude error", _nan_attitude),
    "inf-not-skew": (cc.NotSkew, "attitude error", _inf_attitude),
    "nan-attitude-in-tick": (
        cc.NotSkew, "attitude error", lambda: _tick_with(_nan_vehicle_quaternion)
    ),
    "nan-rate-in-tick": (plant.NonFiniteState, None, lambda: _tick_with(_nan_vehicle_rate)),
    "nan-direction": (
        ValueError,
        "unit vector",
        lambda: CableTrackingState(
            _rows([np.nan, 0.0, -1.0], DOWN), _rows(np.zeros(3), np.zeros(3)),
            _rows(DOWN, DOWN), _rows(np.zeros(3), np.zeros(3)),
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
    """One bad vehicle among good ones still trips each check."""
    exc, match, call = SAFETY_CASES[case]
    with np.errstate(all="ignore"), pytest.raises(exc, match=match):
        call()
