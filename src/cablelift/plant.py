"""Ground-truth simulator of the coupled quadrotor-cable-payload system.

World frame is z-up, so the gravity vector is (0, 0, -g); thrust acts along
the +z body axis of each vehicle.  Cables are modeled as stiff unilateral
spring-dampers: a cable transmits force only while stretched past its rest
length, so slackness falls out of the model without constraint solving.

The world state is one (n+1, 13) array: the payload row first, then one row
per vehicle, each row [p, v, q, omega] (position, velocity, unit quaternion
scalar first, body rates).  `cable_closure` reads the cables off that array
and `step_world` advances it with one Runge-Kutta step of a derivative fused
over all bodies; both take the cables from one spring-damper law evaluated
on all cables at once (`_cable_rows`)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import so3

_BODY_DIM = 13


class DegenerateGeometry(ValueError):
    """A MAV coincides with its cable attachment point."""


class NonFiniteState(RuntimeError):
    """Integration produced NaN or infinity."""


class CableOverload(RuntimeError):
    """Cable tension exceeded the sanity ceiling (simulation diverged)."""


@dataclass
class SystemParams:
    """Physical parameters of the rig.

    Scalar per-MAV entries broadcast to all n vehicles.
    """

    n: int
    m_i: np.ndarray  # (n,) kg
    J_i: np.ndarray  # (n, 3, 3) kg m^2
    m_L: float
    J_L: np.ndarray  # (3, 3) kg m^2
    r_i: np.ndarray  # (n, 3) attachment offsets, payload frame, m
    l_i: np.ndarray  # (n,) cable rest lengths, m
    F_max: float  # thrust ceiling per MAV, N
    f_max: float  # cable tension bound, N
    g: float = 9.81
    cable_stiffness: float = 5000.0  # N/m
    cable_damping: float = 50.0  # N s/m

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need at least 3 vehicles")
        self.m_i = np.broadcast_to(np.asarray(self.m_i, dtype=np.float64), (self.n,)).copy()
        J = np.asarray(self.J_i, dtype=np.float64)
        if J.shape == (3, 3):
            J = np.broadcast_to(J, (self.n, 3, 3))
        self.J_i = J.reshape(self.n, 3, 3).copy()
        self.J_L = np.asarray(self.J_L, dtype=np.float64).reshape(3, 3)
        self.r_i = np.asarray(self.r_i, dtype=np.float64).reshape(self.n, 3)
        self.l_i = np.broadcast_to(np.asarray(self.l_i, dtype=np.float64), (self.n,)).copy()
        if np.any(self.m_i <= 0) or self.m_L <= 0:
            raise ValueError("masses must be positive")
        if np.any(self.l_i <= 0):
            raise ValueError("cable lengths must be positive")
        if self.F_max <= 0 or self.f_max <= 0:
            raise ValueError("force bounds must be positive")
        for M, name in [(self.J_L, "J_L")] + [(self.J_i[k], "J_i") for k in range(self.n)]:
            if np.linalg.norm(M - M.T) > 1e-12 or np.min(np.linalg.eigvalsh(M)) <= 0:
                raise ValueError(f"{name} must be symmetric positive definite")
        self._J_i_inv = np.linalg.inv(self.J_i)
        self._J_L_inv = np.linalg.inv(self.J_L)
        self._g_vec = self.g_vec

    @property
    def g_vec(self) -> np.ndarray:
        return np.array([0.0, 0.0, -self.g])


@dataclass
class CableReading:
    """Geometry and tension of the cables: arrays with one entry (row) per
    cable as `cable_closure` returns them, or the scalars and 3-vector of
    one cable, which indexing with the cable number gives.

    direction is the world-frame unit vector from the MAV mass center toward
    its attachment point (zero while the cable is slack).
    """

    direction: np.ndarray
    tension: float
    taut: bool
    stretch: float = 0.0

    def __getitem__(self, k) -> "CableReading":
        return CableReading(self.direction[k], self.tension[k], self.taut[k], self.stretch[k])


@dataclass
class DisturbanceModel:
    """Per-step additive payload-state disturbance, norm-bounded by eta.

    The sample lives in the 12-dimensional tangent of the payload state
    (position, velocity, attitude rotation-vector, body rate).  Pose
    components (position, attitude) are scaled down by pose_scale relative
    to the velocity components: an impulsive force moves the velocity
    within one step while the pose only follows through integration, and
    an unscaled position jump would fight the cable springs directly.
    """

    eta: float = 0.0
    seed: int = 0
    kind: str = "none"  # none | uniform-bounded
    pose_scale: float = 0.002
    _rng: np.random.Generator = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("none", "uniform-bounded"):
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        if not 0.0 <= self.pose_scale <= 1.0:
            raise ValueError("pose_scale must lie in [0, 1]")
        self._rng = np.random.default_rng(self.seed)

    def sample(self) -> np.ndarray:
        if self.kind == "none" or self.eta == 0.0:
            return np.zeros(12)
        u = self._rng.uniform(-1.0, 1.0, 12)
        norm = np.linalg.norm(u)
        if norm > 1.0:
            u = u / norm
        u[0:3] *= self.pose_scale
        u[6:9] *= self.pose_scale
        return self.eta * u


def saturate_thrust(F, F_max: float):
    """Clamp a thrust command, or each of an array of them, into [0, F_max]."""
    if F_max <= 0:
        raise ValueError("F_max must be positive")
    return np.clip(F, 0.0, F_max)


def _cable_rows(Y: np.ndarray, R_L: np.ndarray, params: SystemParams):
    """The spring-damper law of every cable of the (n+1, 13) rows Y, whose
    payload rotation is R_L: (unit directions e from each MAV toward its
    attachment, stretch past rest length, taut mask, tension)."""
    p_L, v_L, omega_L = Y[0, 0:3], Y[0, 3:6], Y[0, 10:13]
    attach = p_L + params.r_i @ R_L.T
    v_attach = v_L + so3.cross3_rows(omega_L, params.r_i) @ R_L.T
    d = attach - Y[1:, 0:3]
    dist = np.linalg.norm(d, axis=1)
    near = dist < 1e-9
    if near.any():
        k = int(np.argmax(near))
        raise DegenerateGeometry(f"MAV {k} coincides with its attachment point")
    stretch = dist - params.l_i
    taut = stretch > 0.0
    e = d / dist[:, None]
    sdot = np.einsum("ij,ij->i", e, v_attach - Y[1:, 3:6])
    tension = np.where(
        taut,
        params.cable_stiffness * stretch + params.cable_damping * np.maximum(0.0, sdot),
        0.0,
    )
    return e, stretch, taut, tension


def cable_closure(Y: np.ndarray, params: SystemParams) -> CableReading:
    """Per-cable taut/slack status, direction, and spring-damper tension of
    the (n+1, 13) world state Y, as rows."""
    e, stretch, taut, tension = _cable_rows(Y, so3.quat_to_rotation(Y[0, 6:10]), params)
    over = tension > 10.0 * params.f_max
    if over.any():
        k = int(np.argmax(over))
        raise CableOverload(f"cable {k} tension {tension[k]:.3f} N past sanity ceiling")
    return CableReading(np.where(taut[:, None], e, 0.0), tension, taut, stretch)


def rk4_step(derivative_fn, state, inputs, dt: float):
    """Classical 4-stage Runge-Kutta update of `state` under held `inputs`.

    Works on any array-like state; derivative_fn(state, inputs) must return the
    matching derivative.  Callers with quaternion states renormalize after.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    y = np.asarray(state, dtype=np.float64)
    k1 = np.asarray(derivative_fn(y, inputs))
    k2 = np.asarray(derivative_fn(y + 0.5 * dt * k1, inputs))
    k3 = np.asarray(derivative_fn(y + 0.5 * dt * k2, inputs))
    k4 = np.asarray(derivative_fn(y + dt * k3, inputs))
    out = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise NonFiniteState("integration produced non-finite state")
    return out


def _world_derivative_flat(y: np.ndarray, inputs, params: SystemParams) -> np.ndarray:
    """Fused derivative of the world state, flat or (n+1, 13), returned in the
    shape of y.  inputs = (thrusts, torques)."""
    thrusts, torques = inputs
    n = params.n
    rows = y.reshape(n + 1, _BODY_DIM)
    v = rows[:, 3:6]
    q = rows[:, 6:10]
    w = rows[:, 10:13]

    R = so3.quat_to_rotation(q)
    R_L = R[0]
    e, _, _, tension = _cable_rows(rows, R_L, params)
    cable_force = tension[:, None] * e  # on each MAV, world frame
    thrust_force = R[1:, :, 2] * thrusts[:, None]

    acc = np.empty((n + 1, 3))
    acc[1:] = (thrust_force + cable_force) / params.m_i[:, None] + params._g_vec
    payload_force = -cable_force.sum(axis=0)
    acc[0] = payload_force / params.m_L + params._g_vec

    e_body = e @ R_L  # world -> payload frame (rows of e times R_L columns)
    payload_moment = so3.cross3_rows(params.r_i, -tension[:, None] * e_body).sum(axis=0)

    wdot = np.empty((n + 1, 3))
    wdot[0] = params._J_L_inv @ (payload_moment - so3.cross3(w[0], params.J_L @ w[0]))
    Jw = np.einsum("nij,nj->ni", params.J_i, w[1:])
    wdot[1:] = np.einsum(
        "nij,nj->ni", params._J_i_inv, torques - so3.cross3_rows(w[1:], Jw)
    )

    qdot = so3.omega_to_quat_dot(q, w)

    out = np.empty_like(rows)
    out[:, 0:3] = v
    out[:, 3:6] = acc
    out[:, 6:10] = qdot
    out[:, 10:13] = wdot
    return out.reshape(y.shape)


def step_world(Y: np.ndarray, commands, dt: float, params: SystemParams) -> np.ndarray:
    """The (n+1, 13) world state one step later under held commands.

    commands: (thrusts (n,), torques (n, 3)), one row per MAV; thrust is
    saturated here.
    """
    thrusts, torques = commands
    thrusts = saturate_thrust(np.asarray(thrusts, dtype=np.float64), params.F_max)
    torques = np.asarray(torques, dtype=np.float64)
    if thrusts.shape != (params.n,) or torques.shape != (params.n, 3) or len(Y) != params.n + 1:
        raise ValueError("need one thrust and one torque row per MAV")
    deriv = lambda yv, u: _world_derivative_flat(yv, u, params)
    Y = rk4_step(deriv, Y, (thrusts, torques), dt)
    Y[:, 6:10] = so3.quat_normalize(Y[:, 6:10])
    return Y
