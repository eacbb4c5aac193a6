"""Simulator tests: cable closure, rigid-body derivatives, RK4, stepping.

Order-of-accuracy checks compare against independent references (forward
Euler at dt=1e-6, closed-form exponentials); expected digits were computed
with those oracles first and then frozen here.  The per-body derivative
formulas below are the reference the fused world derivative is pinned to.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cablelift import payload_ocp, plant, so3
from cablelift.plant import (
    CableOverload,
    DegenerateGeometry,
    DisturbanceModel,
    NonFiniteState,
    SystemParams,
)
from rotation_helpers import quat_from_axis_angle

G = 9.81
SIDE = 0.6

# blocks of one 13-number body row [p, v, q, omega]
P, V, Q, W = slice(0, 3), slice(3, 6), slice(6, 10), slice(10, 13)


def body(p, v, q, omega) -> np.ndarray:
    return np.concatenate([p, v, q, omega])


def flat(Y) -> list:
    """The plant's flat world state of (n+1, 13) body rows Y."""
    return np.ravel(Y).tolist()


def resting_world(mav_positions, mav_v=np.zeros(3)) -> np.ndarray:
    """Level payload at rest at the origin, level vehicles at the given
    positions moving with velocity mav_v."""
    rows = [body(np.zeros(3), np.zeros(3), so3.quat_identity(), np.zeros(3))]
    rows += [body(p, mav_v, so3.quat_identity(), np.zeros(3)) for p in mav_positions]
    return np.array(rows)


# a slack cable's direction and tension
SLACK = (np.zeros(3), 0.0)


def mav_derivative(y, thrust, torque, direction, tension, params):
    """Time derivative of one vehicle row; thrust must already be saturated.

    The cable pulls the vehicle toward the attachment point with the cable
    tension (zero, with a zero direction, while slack), thrust acts along the
    body z axis.
    """
    R = so3.quat_to_rotation(y[Q])
    force = thrust * R[:, 2] + params.m_i * np.array(params.g_vec)
    force = force + tension * np.asarray(direction)
    omega = y[W]
    omega_dot = np.linalg.inv(params.J_i) @ (torque - np.cross(omega, params.J_i @ omega))
    return body(y[V], force / params.m_i, so3.omega_to_quat_dot(y[Q], omega), omega_dot)


def payload_derivative(y, directions, tensions, params):
    """Time derivative of the payload row under the given cable directions
    and tensions.

    Each cable pulls the payload toward its MAV (the reaction to the pull on
    the vehicle), applied at the attachment offset; a slack cable has zero
    tension and direction.
    """
    R_L = so3.quat_to_rotation(y[Q])
    force = params.m_L * np.array(params.g_vec)
    moment = np.zeros(3)
    for k, (direction, tension) in enumerate(zip(directions, tensions)):
        f_world = -tension * np.asarray(direction)
        force = force + f_world
        moment = moment + np.cross(params.r_i[k], R_L.T @ f_world)
    omega = y[W]
    omega_dot = np.linalg.inv(params.J_L) @ (moment - np.cross(omega, params.J_L @ omega))
    return body(y[V], force / params.m_L, so3.omega_to_quat_dot(y[Q], omega), omega_dot)


def make_params(**over) -> SystemParams:
    """The shipped presets' four-vehicle square rig, its attachments listed
    counterclockwise from (0.3, 0.3) where the presets list them clockwise."""
    r_i = np.array(
        [
            [SIDE / 2, SIDE / 2, 0.0],
            [-SIDE / 2, SIDE / 2, 0.0],
            [-SIDE / 2, -SIDE / 2, 0.0],
            [SIDE / 2, -SIDE / 2, 0.0],
        ]
    )
    return SystemParams(**{"r_i": r_i, **over})


def hover_state(params: SystemParams) -> np.ndarray:
    """Static equilibrium: MAVs straight above their attachments, cables
    stretched exactly enough to carry m_L g / n each."""
    tension = params.m_L * params.g / params.n
    stretch = tension / params.cable_stiffness
    payload = body(np.array([0.0, 0.0, 0.5]), np.zeros(3), so3.quat_identity(), np.zeros(3))
    mavs = [
        body(
            payload[P] + params.r_i[k] + np.array([0.0, 0.0, params.l_i + stretch]),
            np.zeros(3),
            so3.quat_identity(),
            np.zeros(3),
        )
        for k in range(params.n)
    ]
    return np.array([payload] + mavs)


def hover_commands(params: SystemParams):
    """(thrusts, torques) rows: every vehicle carries itself and its share."""
    thrust = params.m_i * params.g + params.m_L * params.g / params.n
    return np.full(params.n, thrust), np.zeros((params.n, 3))


def random_full_state(rng, params: SystemParams, spread: float = 0.3) -> np.ndarray:
    payload = body(
        rng.uniform(-1, 1, 3),
        spread * rng.standard_normal(3),
        so3.quat_normalize(rng.standard_normal(4)),
        spread * rng.standard_normal(3),
    )
    mavs = []
    for k in range(params.n):
        mavs.append(
            body(
                payload[P] + params.r_i[k] + np.array([0, 0, 1.0]) + 0.1 * rng.standard_normal(3),
                spread * rng.standard_normal(3),
                so3.quat_normalize(rng.standard_normal(4)),
                spread * rng.standard_normal(3),
            )
        )
    return np.array([payload] + mavs)


class TestSystemParams:
    def test_one_model_serves_every_vehicle(self):
        p = make_params()
        assert (p.m_i, p.l_i) == (0.12, 1.0)
        assert type(p.m_i) is type(p.l_i) is float
        np.testing.assert_array_equal(p.J_i, np.diag([2.5e-3, 2.5e-3, 4.0e-3]))
        assert p._J_i == np.ravel(p.J_i).tolist()
        assert p._J_i_inv == np.ravel(np.linalg.inv(p.J_i)).tolist()

    def test_gravity_vector_points_down(self):
        np.testing.assert_array_equal(make_params().g_vec, [0.0, 0.0, -G])

    def test_three_attachments_make_a_three_vehicle_rig(self):
        p = SystemParams(r_i=np.array([[0.3, 0, 0], [-0.15, 0.26, 0], [-0.15, -0.26, 0]]))
        assert p.n == 3
        default = SystemParams()
        assert (p.m_i, p.l_i) == (default.m_i, default.l_i)
        np.testing.assert_array_equal(p.J_i, default.J_i)
        # the four-vehicle rig rebuilt on three attachments keeps its model
        assert dataclasses.replace(default, r_i=p.r_i).n == 3

    @pytest.mark.parametrize("name", ["m_i", "l_i", "J_i"])
    def test_vehicle_model_is_one_value(self, name):
        """A per-vehicle list, or a NaN, is refused naming the field, not
        with a bare comparison's TypeError."""
        one = getattr(SystemParams(), name)
        for value in ([one] * 4, np.nan, np.full_like(one, np.nan)):
            with pytest.raises(ValueError, match=f"'{name}'"):
                SystemParams(**{name: value})

    def test_too_few_vehicles_rejected(self):
        with pytest.raises(ValueError):
            make_params(r_i=np.array([[0.3, 0, 0], [-0.3, 0, 0]]))

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValueError):
            make_params(m_L=0.0)
        with pytest.raises(ValueError):
            make_params(m_i=-0.1)
        # and what a scenario file refuses: a NaN or infinite mass, length,
        # stiffness or gravity, a NaN force bound, a NaN, infinite or
        # negative damping, a negative stiffness
        bad = [(name, value) for name in ("m_i", "m_L", "l_i", "cable_stiffness", "g")
               for value in (np.nan, np.inf)]
        bad += [("m_i", [0.12, 0.12, np.nan, 0.12]), ("F_max", np.nan), ("f_max", np.nan),
                ("cable_damping", np.nan), ("cable_damping", np.inf), ("cable_damping", -1.0),
                ("cable_stiffness", -5000.0)]
        # one number per field, not a list
        bad += [("F_max", [1.0, 2.0]), ("f_max", [1.0]), ("cable_damping", [1.0])]
        for name, value in bad:
            with pytest.raises(ValueError, match=repr(name)):
                make_params(**{name: value})
        # an infinite tension bound is no bound
        assert make_params(f_max=np.inf).f_max == np.inf

    def test_indefinite_inertia_rejected(self):
        with pytest.raises(ValueError):
            make_params(J_L=np.diag([0.007, -0.007, 0.013]))

    def test_asymmetric_inertia_rejected(self):
        J = np.diag([1e-3, 1e-3, 2e-3])
        J[0, 1] = 1e-4
        with pytest.raises(ValueError):
            make_params(J_i=J)


class TestStateVectors:
    def test_payload_is_first_block(self):
        """Row 0 is read as the payload and row 1 + k as vehicle k: moving
        vehicle 0 sideways tilts cable 0 alone, toward the attachment."""
        params = make_params()
        Y = hover_state(params)
        Y[1, P] += np.array([0.01, 0.0, 0.0])
        readings = plant.cable_closure(flat(Y), params)
        attach = Y[0, P] + params.r_i[0]
        d = attach - Y[1, P]
        np.testing.assert_allclose(readings.direction[0], d / np.linalg.norm(d), atol=1e-15)
        for direction in readings.direction[1:]:
            np.testing.assert_allclose(direction, [0.0, 0.0, -1.0], atol=1e-12)


class TestSaturateThrust:
    def test_above_ceiling_clamps(self):
        assert plant.saturate_thrust(2.5 + 1.0, 2.5) == 2.5

    def test_inside_passes_through(self):
        assert plant.saturate_thrust(0.5 * 2.5, 2.5) == pytest.approx(1.25)

    def test_exact_ceiling(self):
        assert plant.saturate_thrust(2.5, 2.5) == 2.5

    def test_negative_command_clamps_to_zero(self):
        assert plant.saturate_thrust(-0.7, 2.5) == 0.0

    @given(
        F=st.floats(min_value=0.0, max_value=100.0),
        F_max=st.floats(min_value=1e-3, max_value=10.0),
    )
    def test_output_always_in_range(self, F, F_max):
        out = plant.saturate_thrust(F, F_max)
        assert 0.0 <= out <= F_max

    def test_nonpositive_ceiling_rejected(self):
        with pytest.raises(ValueError):
            plant.saturate_thrust(1.0, 0.0)
        # a NaN ceiling would leave every command unclamped
        with pytest.raises(ValueError):
            plant.saturate_thrust(5.0, np.nan)


class TestCableClosure:
    def test_zero_stretch_is_slack(self):
        """A cable at exactly its rest length transmits nothing."""
        params = make_params()
        Y = resting_world([params.r_i[k] + np.array([0, 0, params.l_i]) for k in range(4)])
        readings = plant.cable_closure(flat(Y), params)
        assert all(s <= 0.0 for s in readings.stretch)
        assert readings.tension == [0.0] * 4

    def test_one_millimeter_stretch(self):
        # k * s = 10000 * 0.001 = 10 N, direction straight down toward the load
        params = make_params(cable_stiffness=10000.0, f_max=2.0)
        Y = resting_world([params.r_i[k] + np.array([0, 0, params.l_i + 1e-3]) for k in range(4)])
        readings = plant.cable_closure(flat(Y), params)
        assert all(s > 0.0 for s in readings.stretch)
        for tension, direction in zip(readings.tension, readings.direction):
            assert tension == pytest.approx(10.0, abs=1e-9)
            np.testing.assert_allclose(direction, [0, 0, -1.0], atol=1e-12)
            assert abs(np.linalg.norm(direction) - 1.0) < 1e-9

    def test_slack_cable(self):
        params = make_params()
        Y = resting_world([params.r_i[k] + np.array([0, 0, 0.5 * params.l_i]) for k in range(4)])
        readings = plant.cable_closure(flat(Y), params)
        assert all(s <= 0.0 for s in readings.stretch)
        assert readings.tension == [0.0] * 4

    def test_damping_only_resists_further_stretch(self):
        """Damping term uses max(0, sdot): separating adds force, closing does not."""
        params = make_params()
        stretch = 1e-4

        def rig(mav_vz):
            return resting_world(
                [params.r_i[k] + np.array([0, 0, params.l_i + stretch]) for k in range(4)],
                np.array([0.0, 0.0, mav_vz]),
            )

        # MAV rising at 0.01 m/s: sdot = e . (v_attach - v_mav) = (0,0,-1).(0,0,-0.01) = 0.01
        taut = plant.cable_closure(flat(rig(0.01)), params).tension[0]
        assert taut == pytest.approx(
            params.cable_stiffness * stretch + params.cable_damping * 0.01
        )
        # MAV descending: cable is closing, damping clips to zero
        closing = plant.cable_closure(flat(rig(-0.01)), params).tension[0]
        assert closing == pytest.approx(params.cable_stiffness * stretch)

    def test_degenerate_geometry_raises(self):
        params = make_params()
        Y = resting_world([params.r_i[k].copy() for k in range(4)])
        with pytest.raises(DegenerateGeometry):
            plant.cable_closure(flat(Y), params)

    def test_overload_raises(self):
        params = make_params()
        Y = resting_world([params.r_i[k] + np.array([0, 0, params.l_i + 1.0]) for k in range(4)])
        with pytest.raises(CableOverload):
            plant.cable_closure(flat(Y), params)

    def test_reading_invariants_random_states(self):
        """Tension nonnegative, slack means zero force, taut directions unit."""
        params = make_params(f_max=1e6)  # disable the overload ceiling here
        rng = np.random.default_rng(12)
        for _ in range(200):
            full = random_full_state(rng, params, spread=0.5)
            try:
                readings = plant.cable_closure(flat(full), params)
            except DegenerateGeometry:
                continue
            for stretch, tension, direction in zip(
                readings.stretch, readings.tension, readings.direction
            ):
                assert tension >= 0.0
                if stretch > 0.0:
                    assert abs(np.linalg.norm(direction) - 1.0) < 1e-9
                else:
                    assert tension == 0.0


class TestCableLawOracle:
    def test_matches_the_physics_on_rotating_states(self):
        """Each cable computed from the physics alone: the attachment moves
        with the rotating payload, v_attach = v_L + R_L (omega_L x r_k), and
        damping acts only while the stretch grows."""
        params = make_params(f_max=1e6)
        rng = np.random.default_rng(21)
        seen = {"slack": 0, "closing": 0, "opening": 0}
        for _ in range(100):
            Y = random_full_state(rng, params, spread=1.0)
            readings = plant.cable_closure(flat(Y), params)
            R_L = so3.quat_to_rotation(Y[0, Q])
            for k in range(4):
                attach = Y[0, P] + R_L @ params.r_i[k]
                v_attach = Y[0, V] + R_L @ np.cross(Y[0, W], params.r_i[k])
                d = attach - Y[1 + k, P]
                s = np.linalg.norm(d) - params.l_i
                e = d / np.linalg.norm(d)
                sdot = e @ (v_attach - Y[1 + k, V])
                if s > 0:
                    tension = params.cable_stiffness * s + params.cable_damping * max(0.0, sdot)
                    seen["closing" if sdot < 0 else "opening"] += 1
                else:
                    tension = 0.0
                    seen["slack"] += 1
                assert (readings.stretch[k] > 0) == (s > 0)
                assert readings.stretch[k] == pytest.approx(s, abs=1e-12)
                assert readings.tension[k] == pytest.approx(tension, rel=1e-12, abs=1e-12)
                np.testing.assert_allclose(readings.direction[k], e if s > 0 else 0.0, atol=1e-12)
        assert min(seen.values()) >= 20, seen


class TestMavDerivative:
    def test_free_fall(self):
        params = make_params()
        state = body(np.zeros(3), np.zeros(3), so3.quat_identity(), np.zeros(3))
        d = mav_derivative(state, 0.0, np.zeros(3), *SLACK, params)
        np.testing.assert_array_equal(d[V], params.g_vec)
        np.testing.assert_array_equal(d[P], np.zeros(3))

    def test_hover_balance(self):
        """Thrust = weight + cable pull (cable hangs the load below the MAV)."""
        params = make_params()
        tension = params.m_L * G / 4
        thrust = params.m_i * G + tension
        state = body(np.array([0, 0, 1.5]), np.zeros(3), so3.quat_identity(), np.zeros(3))
        d = mav_derivative(state, thrust, np.zeros(3), [0.0, 0.0, -1.0], tension, params)
        np.testing.assert_allclose(d[V], np.zeros(3), atol=1e-12)

    def test_principal_axis_spin(self):
        params = make_params()
        state = body(np.zeros(3), np.zeros(3), so3.quat_identity(), np.array([1.0, 0.0, 0.0]))
        d = mav_derivative(state, 0.0, np.zeros(3), *SLACK, params)
        np.testing.assert_allclose(d[W], np.zeros(3), atol=1e-15)

    def test_gyroscopic_term_oracle(self):
        params = make_params()
        w = np.array([2.0, -1.0, 3.0])
        state = body(np.zeros(3), np.zeros(3), so3.quat_identity(), w)
        tau = np.array([0.01, -0.02, 0.005])
        d = mav_derivative(state, 0.0, tau, *SLACK, params)
        expected = np.linalg.solve(params.J_i, tau - np.cross(w, params.J_i @ w))
        np.testing.assert_allclose(d[W], expected, atol=1e-14)

    def test_attitude_rate_is_quaternion_kinematics(self):
        params = make_params()
        rng = np.random.default_rng(3)
        q = so3.quat_normalize(rng.standard_normal(4))
        w = rng.standard_normal(3)
        state = body(np.zeros(3), np.zeros(3), q, w)
        d = mav_derivative(state, 0.0, np.zeros(3), *SLACK, params)
        np.testing.assert_allclose(d[Q], so3.omega_to_quat_dot(q, w), atol=1e-15)


class TestPayloadDerivative:
    def test_ballistic(self):
        params = make_params()
        w = np.array([0.4, -0.2, 0.9])
        state = body(np.zeros(3), np.zeros(3), so3.quat_identity(), w)
        d = payload_derivative(state, [np.zeros(3)] * 4, [0.0] * 4, params)
        np.testing.assert_array_equal(d[V], params.g_vec)
        expected = -np.linalg.solve(params.J_L, np.cross(w, params.J_L @ w))
        np.testing.assert_allclose(d[W], expected, atol=1e-14)

    def test_four_symmetric_cables_balance(self):
        params = make_params()
        tension = params.m_L * G / 4
        state = body(np.zeros(3), np.zeros(3), so3.quat_identity(), np.zeros(3))
        down = np.array([0.0, 0.0, -1.0])  # MAVs above: direction points down at the load
        d = payload_derivative(state, [down] * 4, [tension] * 4, params)
        np.testing.assert_allclose(d[V], np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(d[W], np.zeros(3), atol=1e-12)

    def test_single_offset_cable_torque(self):
        """One taut cable at r1 = (0.1, 0, 0), 1 N straight up on the payload."""
        params = make_params(r_i=np.array([[0.1, 0, 0], [-0.1, 0, 0], [0, 0.1, 0], [0, -0.1, 0]]))
        state = body(np.zeros(3), np.zeros(3), so3.quat_identity(), np.zeros(3))
        down = np.array([0.0, 0.0, -1.0])
        d = payload_derivative(state, [down] + [np.zeros(3)] * 3, [1.0, 0.0, 0.0, 0.0], params)
        torque = np.cross(np.array([0.1, 0, 0]), -1.0 * down)
        np.testing.assert_allclose(params.J_L @ d[W], torque, atol=1e-14)

    def test_tilted_payload_uses_body_frame_moment_arm(self):
        params = make_params()
        q = quat_from_axis_angle(np.array([1.0, 0, 0]), 0.4)
        R = so3.quat_to_rotation(q)
        state = body(np.zeros(3), np.zeros(3), q, np.zeros(3))
        e_world = np.array([0.0, 0.0, -1.0])
        d = payload_derivative(state, [e_world] + [np.zeros(3)] * 3, [0.8, 0.0, 0.0, 0.0], params)
        moment = np.cross(params.r_i[0], R.T @ (-0.8 * e_world))
        np.testing.assert_allclose(params.J_L @ d[W], moment, atol=1e-14)


class TestRk4Step:
    def test_zero_field_fixed_point(self):
        y = np.array([1.0, -2.0, 3.5])
        out = plant.rk4_step(lambda s, u: np.zeros_like(s), y, None, 0.1)
        np.testing.assert_array_equal(out, y)

    def test_exponential_one_step(self):
        # one RK4 step of xdot = x from 1 at dt = 0.1; closed form e^0.1
        out = plant.rk4_step(lambda s, u: s, np.array([1.0]), None, 0.1)
        assert out[0] == 1.1051708333333332
        assert abs(out[0] - np.exp(0.1)) < 1e-7

    def test_scalar_order_of_accuracy(self):
        """Halving dt cuts global error ~16x (xdot = sin 3x vs Euler dt=1e-6).

        Measured ratio with this exact setup: 14.14.
        """
        f = lambda s, u: np.sin(3.0 * s)

        def run_rk4(dt):
            y = np.array([0.3])
            for _ in range(int(round(1.0 / dt))):
                y = plant.rk4_step(f, y, None, dt)
            return y[0]

        y_ref = np.array([0.3])
        h = 1e-6
        for _ in range(1000000):
            y_ref = y_ref + h * f(y_ref, None)
        e1 = abs(run_rk4(0.1) - y_ref[0])
        e2 = abs(run_rk4(0.05) - y_ref[0])
        assert 12.0 < e1 / e2 < 20.0

    def test_nonfinite_raises(self):
        with pytest.raises(NonFiniteState):
            plant.rk4_step(lambda s, u: np.full_like(s, np.inf), np.array([1.0]), None, 0.1)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            plant.rk4_step(lambda s, u: s, np.array([1.0]), None, 0.0)


def tumble_state(params: SystemParams) -> np.ndarray:
    """Slack-cable tumbling configuration for smooth-dynamics convergence tests.

    All cables stay slack over the window so the derivative field has no
    taut/slack switches or damping kinks to spoil the measured order.
    """
    payload = body(
        np.array([0.0, 0.0, 2.0]),
        np.array([0.2, -0.1, 0.1]),
        so3.quat_identity(),
        np.array([12.0, 8.0, 5.0]),
    )
    rng = np.random.default_rng(1)
    mavs = []
    for k in range(params.n):
        q = so3.quat_normalize(rng.standard_normal(4))
        mavs.append(
            body(
                payload[P] + params.r_i[k] + np.array([0.0, 0.0, 0.5]),
                0.1 * rng.standard_normal(3),
                q,
                np.array([6.0, -4.0, 9.0]),
            )
        )
    return np.array([payload] + mavs)


class TestFullSystemOrder:
    def test_fourth_order_against_euler_reference(self):
        """Whole-rig convergence on a 0.1 s tumble, dt 0.05 vs 0.025.

        Reference is forward Euler at dt=1e-6 (independent of the RK4 code
        path).  Measured ratio with this exact configuration: 12.69; an
        ideal fourth-order pair would give 16.
        """
        params = make_params()
        y0 = tumble_state(params).reshape(-1)
        inputs = (np.full(4, 1.0), np.zeros((4, 3)))
        deriv = lambda y, u: np.array(plant._world_derivative_flat(y.tolist(), u, params))

        def run_rk4(h):
            y = y0.copy()
            for _ in range(int(round(0.1 / h))):
                y = plant.rk4_step(deriv, y, inputs, h)
            return y

        y_ref = y0.copy()
        h = 1e-6
        for _ in range(100000):
            y_ref = y_ref + h * deriv(y_ref, inputs)
        e1 = np.linalg.norm(run_rk4(0.05) - y_ref)
        e2 = np.linalg.norm(run_rk4(0.025) - y_ref)
        assert 12.0 < e1 / e2 < 20.0


class TestFusedDerivative:
    def test_matches_per_body_assembly(self):
        """The flat fast path must agree with the typed reference formulas."""
        params = make_params(f_max=1e6)
        rng = np.random.default_rng(42)
        for _ in range(25):
            full = random_full_state(rng, params, spread=0.5)
            try:
                readings = plant.cable_closure(flat(full), params)
            except DegenerateGeometry:
                continue
            thrusts = rng.uniform(0.0, params.F_max, 4)
            torques = 0.01 * rng.standard_normal((4, 3))

            fused = plant._world_derivative_flat(flat(full), (thrusts, torques), params)

            directions, tensions = readings.direction, readings.tension
            typed = [payload_derivative(full[0], directions, tensions, params)]
            for k in range(4):
                typed.append(
                    mav_derivative(
                        full[1 + k], thrusts[k], torques[k], directions[k], tensions[k], params
                    )
                )
            np.testing.assert_allclose(fused, np.ravel(typed), atol=1e-12)


class TestMomentumBalance:
    def test_internal_cable_forces_cancel(self):
        """With thrust off, total acceleration beyond gravity must vanish
        (the cable pulls are internal forces in both code paths)."""
        params = make_params(f_max=1e6)
        rng = np.random.default_rng(5)
        for _ in range(20):
            full = random_full_state(rng, params, spread=0.4)
            try:
                d = plant._world_derivative_flat(
                    flat(full), (np.zeros(4), np.zeros((4, 3))), params
                )
            except DegenerateGeometry:
                continue
            rows = np.reshape(d, (5, 13))
            net = params.m_L * (rows[0, 3:6] - params.g_vec)
            for k in range(4):
                net = net + params.m_i * (rows[1 + k, 3:6] - params.g_vec)
            assert np.linalg.norm(net) < 1e-9


def random_commands(rng, params: SystemParams):
    """(thrusts, torques) as the controllers give them: lists of floats."""
    torques = 0.01 * rng.standard_normal((params.n, 3))
    return rng.uniform(0.0, params.F_max, params.n).tolist(), torques.tolist()


class TestStepWorld:
    def test_equilibrium_hover_drift(self):
        params = make_params()
        full = hover_state(params)
        cmds = hover_commands(params)
        nxt = np.reshape(plant.step_world(flat(full), cmds, 0.002, params), full.shape)
        drift = np.linalg.norm(nxt[0, P] - full[0, P])
        assert drift < 1e-6

    def test_equilibrium_holds_over_many_steps(self):
        params = make_params()
        y = flat(hover_state(params))
        cmds = hover_commands(params)
        for _ in range(250):  # 0.5 s at 500 Hz
            y = plant.step_world(y, cmds, 0.002, params)
        assert np.linalg.norm(np.subtract(y[P], [0, 0, 0.5])) < 1e-6
        assert np.linalg.norm(y[V]) < 1e-6

    def test_saturation_applied_inside_step(self):
        params = make_params()
        y = flat(hover_state(params))
        over = (np.full(4, params.F_max + 5.0), np.zeros((4, 3)))
        at_max = (np.full(4, params.F_max), np.zeros((4, 3)))
        a = plant.step_world(y, over, 0.002, params)
        b = plant.step_world(y, at_max, 0.002, params)
        assert a == b

    def test_command_count_mismatch_rejected(self):
        params = make_params()
        y = flat(hover_state(params))
        with pytest.raises(ValueError):
            plant.step_world(y, (np.ones(1), np.zeros((1, 3))), 0.002, params)

    def test_quaternions_stay_unit(self):
        params = make_params()
        y = flat(tumble_state(params))
        cmds = (np.ones(4), np.zeros((4, 3)))
        for _ in range(50):
            y = plant.step_world(y, cmds, 0.002, params)
        for row in np.reshape(y, (-1, 13)):
            assert abs(np.linalg.norm(row[Q]) - 1.0) < 1e-12

    def test_matches_rk4_step_on_arrays(self):
        """The float stages are rk4_step's arithmetic: one step equals
        rk4_step over the fused derivative on arrays, then each quaternion
        renormalized by so3.quat_normalize, bit for bit."""
        params = make_params(f_max=1e6)
        rng = np.random.default_rng(8)
        deriv = lambda y, u: np.array(plant._world_derivative_flat(y.tolist(), u, params))
        for _ in range(20):
            full = random_full_state(rng, params, spread=0.3)
            cmds = random_commands(rng, params)
            ref = plant.rk4_step(deriv, full.ravel(), cmds, 0.002).reshape(full.shape)
            ref[:, Q] = so3.quat_normalize(ref[:, Q])
            assert plant.step_world(flat(full), cmds, 0.002, params) == flat(ref)

    def test_shared_first_stage_reading_changes_nothing(self):
        """Passing cable_closure's reading of the state being stepped gives
        the same floats as letting the first stage evaluate the law again,
        on taut, slack and damped cables."""
        params = make_params(f_max=1e6)
        rng = np.random.default_rng(9)
        slack = 0
        for _ in range(50):
            y = flat(random_full_state(rng, params, spread=0.5))
            cmds = random_commands(rng, params)
            reading = plant.cable_closure(y, params)
            slack += sum(s <= 0.0 for s in reading.stretch)
            assert plant.step_world(y, cmds, 0.002, params, reading) == plant.step_world(
                y, cmds, 0.002, params
            )
        assert slack > 0


def payload_problem(params: SystemParams) -> payload_ocp.OcpProblem:
    """A one-stage problem on the rig's payload: the mass, inertia and
    gravity that payload_ocp.discretize reads."""
    cfg = payload_ocp.OcpConfig(N=1)
    x0 = body(np.zeros(3), np.zeros(3), so3.quat_identity(), np.zeros(3))
    return payload_ocp.build_ocp(x0, np.array([x0, x0]), np.zeros((2, 6)), cfg, params)


@st.composite
def payload_steps(draw):
    """(params, x, wrench, dt): a payload row with a unit quaternion of either
    sign of scalar part, body rates zero or up to 50 rad/s, an arbitrary
    wrench, a diagonal payload inertia (the rig's or a random one) and the
    NMPC or the low-level step."""
    finite = lambda bound: st.floats(-bound, bound, allow_nan=False)
    q = np.array(draw(st.lists(finite(1.0), min_size=4, max_size=4)))
    norm = np.linalg.norm(q)
    if not norm > 1e-3:
        q, norm = np.array([1.0, 0.0, 0.0, 0.0]), 1.0
    if draw(st.booleans()):
        q = -q
    rates = draw(st.one_of(st.just([0.0] * 3), st.lists(finite(50.0), min_size=3, max_size=3)))
    p_v = draw(st.lists(finite(10.0), min_size=6, max_size=6))
    wrench = draw(st.lists(finite(100.0), min_size=6, max_size=6))
    inertia = {}
    if draw(st.booleans()):
        diag = draw(st.lists(st.floats(1e-3, 0.1), min_size=3, max_size=3))
        inertia = {"J_L": np.diag(diag)}
    dt = draw(st.sampled_from([0.05, 0.002]))
    return make_params(**inertia), [*p_v, *(q / norm).tolist(), *rates], wrench, dt


class TestStepPayload:
    @settings(max_examples=300, deadline=None)
    @given(payload_steps())
    # signed zeros: the quaternion rate's zero terms decide the signs
    @example((make_params(), [0.0] * 6 + [-0.0, -0.0, -0.0, 1.0] + [0.0] * 3, [0.0] * 6, 0.05))
    # and matmul's sums, which start from +0.0: -0.0 rates and moments step to +0.0
    @example((make_params(), [0.0] * 6 + [1.0, 0.0, 0.0, 0.0] + [-0.0] * 3, [0.0] * 3 + [-0.0] * 3, 0.05))
    def test_equals_discretize_bit_for_bit(self, case):
        """step_payload computes the numpy predictor's floats: the solver's
        discretize is the oracle.  Bitwise for a diagonal payload inertia,
        which every scenario has; with off-diagonal terms BLAS may fuse the
        inertia products differently (see the test below)."""
        params, x, wrench, dt = case
        expected = payload_ocp.discretize(np.array([x]), np.array(wrench), dt, payload_problem(params))
        got = plant.step_payload(x, wrench, dt, params)
        assert np.array(got).tobytes() == expected[0].tobytes()

    def test_full_inertia_agrees_to_rounding(self):
        J_L = np.array([[0.007, 0.001, -4e-4], [0.001, 0.009, 7e-4], [-4e-4, 7e-4, 0.013]])
        params = make_params(J_L=J_L)
        problem = payload_problem(params)
        rng = np.random.default_rng(12)
        for _ in range(50):
            q = rng.standard_normal(4)
            x = np.concatenate([rng.standard_normal(6), q / np.linalg.norm(q), 5.0 * rng.standard_normal(3)])
            wrench = 10.0 * rng.standard_normal(6)
            expected = payload_ocp.discretize(x, wrench, 0.05, problem)
            got = plant.step_payload(x.tolist(), wrench.tolist(), 0.05, params)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_wrench_raises(self, bad):
        params = make_params()
        x = body(np.zeros(3), np.zeros(3), so3.quat_identity(), np.zeros(3)).tolist()
        wrench = [0.0, 0.0, params.m_L * G, 0.0, bad, 0.0]
        with pytest.raises(NonFiniteState):
            plant.step_payload(x, wrench, 0.05, params)

    def test_shares_the_world_step_body(self):
        """A rig whose cables are all slack: the payload row of step_world
        falls freely, as step_payload does under the zero wrench."""
        params = make_params()
        rows = hover_state(params)
        rows[1:, P] -= np.array([0.0, 0.0, 0.5])  # vehicles below their rest length
        rows[0, W] = [0.3, -0.2, 0.1]
        y = flat(rows)
        assert all(s <= 0.0 for s in plant.cable_closure(y, params).stretch)
        zero = ([0.0] * 4, [(0.0, 0.0, 0.0)] * 4)
        world = plant.step_world(y, zero, 0.002, params)
        assert world[0:13] == plant.step_payload(y[0:13], [0.0] * 6, 0.002, params)


def parent_disturbance(eta, seed, pose_scale, ticks, x):
    """The per-tick disturbance path the block sampler replaces: one
    12-number uniform draw per tick, its 1-D norm, and payload_ocp.retract
    on the one payload row.  Returns the payload row after each tick."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(ticks):
        u = rng.uniform(-1.0, 1.0, 12)
        norm = np.linalg.norm(u)
        if norm > 1.0:
            u = u / norm
        u[0:3] *= pose_scale
        u[6:9] *= pose_scale
        x = payload_ocp.retract(x, eta * u)
        rows.append(x)
    return np.array(rows)


class TestDisturbanceModel:
    def test_none_kind_returns_zeros(self):
        d = DisturbanceModel(eta=0.0)
        D, E = d.draw_block()
        np.testing.assert_array_equal(D, np.zeros((plant.DISTURBANCE_BLOCK, 12)))
        np.testing.assert_array_equal(E, np.tile(so3.quat_identity(), (len(E), 1)))
        y = flat(hover_state(make_params()))
        before = list(y)
        d.perturb(y)
        assert y == before

    def test_samples_respect_bound(self):
        d = DisturbanceModel(eta=0.03, seed=11)
        for _ in range(2):
            D, _ = d.draw_block()
            assert np.all(np.linalg.norm(D, axis=1) <= 0.03 + 1e-15)

    def test_seed_reproducibility(self):
        a = DisturbanceModel(eta=0.02, seed=4)
        b = DisturbanceModel(eta=0.02, seed=4)
        for _ in range(3):
            for x, y in zip(a.draw_block(), b.draw_block()):
                np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize("dt, scale", [(0.002, 1.0), (0.05, 5.0)])
    def test_bound_is_eta_per_root_two_milliseconds(self, dt, scale):
        """A tick of dt draws the 2 ms tick's samples times sqrt(dt / 2 ms):
        exactly them at 2 ms, five times them at 50 ms, so the bound is eta
        and 5 eta."""
        eta = 0.03
        D_2ms = DisturbanceModel(eta=eta, seed=3).draw_block()[0]
        D = DisturbanceModel(eta=eta, seed=3, dt=dt).draw_block()[0]
        np.testing.assert_allclose(D, scale * D_2ms, rtol=1e-15, atol=0.0)
        assert np.all(np.linalg.norm(D, axis=1) <= scale * eta * (1.0 + 1e-15))
        assert np.max(np.linalg.norm(D, axis=1)) > 0.5 * scale * eta  # the draws come near it
        if dt == 0.002:
            assert np.array_equal(D, D_2ms)

    @pytest.mark.parametrize("eta", [-1e-3, float("nan"), float("inf")])
    def test_bad_eta_rejected(self, eta):
        with pytest.raises(ValueError, match="eta"):
            DisturbanceModel(eta=eta)

    @pytest.mark.parametrize("eta, pose_scale", [(1.15e-3, 0.002), (0.05, 1.0)])
    def test_block_stream_matches_per_tick_draws(self, monkeypatch, eta, pose_scale):
        """Across more than three block boundaries, on a run length that is
        no multiple of the block, perturbing the payload on floats gives the
        per-tick path's payload rows bit for bit; the vehicles are untouched."""
        ticks = 3 * plant.DISTURBANCE_BLOCK + 77
        x0 = hover_state(make_params())[0]
        x0[Q] = so3.quat_normalize([0.9, 0.1, -0.2, 0.3])
        x0[W] = [0.3, -0.1, 0.2]
        expect = parent_disturbance(eta, 7, pose_scale, ticks, x0)
        monkeypatch.setattr(plant, "POSE_SCALE", pose_scale)
        d = DisturbanceModel(eta=eta, seed=7)
        y = flat(hover_state(make_params()))
        y[0:13] = x0.tolist()
        vehicles = y[13:]
        for k in range(ticks):
            d.perturb(y)
            assert y[0:13] == expect[k].tolist(), k
        assert y[13:] == vehicles
