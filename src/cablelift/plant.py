"""Ground-truth simulator of the coupled quadrotor-cable-payload system.

World frame is z-up, so the gravity vector is (0, 0, -g); thrust acts along
the +z body axis of each vehicle.  Cables are modeled as stiff unilateral
spring-dampers: a cable transmits force only while stretched past its rest
length, so slackness falls out of the model without constraint solving.

The world state is one (n+1, 13) array: the payload row first, then one row
per vehicle, each row [p, v, q, omega] (position, velocity, unit quaternion
scalar first, body rates).  `cable_closure` reads the cables off that array
and `step_world` advances it with one Runge-Kutta step of a derivative fused
over all bodies; both take the cables from one spring-damper law
(`_cable_law`).  The law and the derivative run on Python floats read once
from the array per evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
        # plain-float copies for the scalar plant kernel
        self._m_i, self._l_i, self._r_i = self.m_i.tolist(), self.l_i.tolist(), self.r_i.tolist()
        self._J_i, self._J_L = self.J_i.tolist(), self.J_L.tolist()
        self._J_i_inv = np.linalg.inv(self.J_i).tolist()
        self._J_L_inv = np.linalg.inv(self.J_L).tolist()

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


def saturate_thrust(F: float, F_max: float) -> float:
    """Clamp a thrust command into [0, F_max]; NaN stays NaN."""
    if F_max <= 0:
        raise ValueError("F_max must be positive")
    return min(max(F, 0.0), F_max)


def _rotation(w: float, x: float, y: float, z: float) -> tuple:
    """Rotation matrix of a unit quaternion as 9 floats, row by row; the same
    sums as so3.quat_to_rotation."""
    return (
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    )


def _cable_law(y: list, R: tuple, params: SystemParams) -> list:
    """The spring-damper law of every cable of the flat world state y (a list
    of floats), whose payload rotation R comes from `_rotation`.  One
    (e_x, e_y, e_z, stretch, tension) per cable, e the unit vector from the
    MAV toward its attachment; the cable is taut when stretch > 0."""
    px, py, pz, vx, vy, vz = y[0:6]
    wx, wy, wz = y[10:13]
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = R
    stiffness, damping = params.cable_stiffness, params.cable_damping
    out = []
    b = 13
    for k, ((rx, ry, rz), rest) in enumerate(zip(params._r_i, params._l_i)):
        # attachment point p_L + R_L r and its velocity v_L + R_L (omega_L x r)
        dx = px + (r00 * rx + r01 * ry + r02 * rz) - y[b]
        dy = py + (r10 * rx + r11 * ry + r12 * rz) - y[b + 1]
        dz = pz + (r20 * rx + r21 * ry + r22 * rz) - y[b + 2]
        cx, cy, cz = wy * rz - wz * ry, wz * rx - wx * rz, wx * ry - wy * rx
        ux = vx + (r00 * cx + r01 * cy + r02 * cz) - y[b + 3]
        uy = vy + (r10 * cx + r11 * cy + r12 * cz) - y[b + 4]
        uz = vz + (r20 * cx + r21 * cy + r22 * cz) - y[b + 5]
        dist = math.sqrt(dx * dx + dy * dy + dz * dz)
        if dist < 1e-9:
            raise DegenerateGeometry(f"MAV {k} coincides with its attachment point")
        ex, ey, ez = dx / dist, dy / dist, dz / dist
        stretch = dist - rest
        tension = 0.0
        if stretch > 0.0:
            sdot = ex * ux + ey * uy + ez * uz
            tension = stiffness * stretch + damping * (sdot if sdot > 0.0 else 0.0)
        out.append((ex, ey, ez, stretch, tension))
        b += 13
    return out


def cable_closure(Y: np.ndarray, params: SystemParams) -> CableReading:
    """Per-cable taut/slack status, direction, and spring-damper tension of
    the (n+1, 13) world state Y, as rows."""
    y = Y.ravel().tolist()
    directions, stretches, tensions = [], [], []
    for k, (ex, ey, ez, stretch, tension) in enumerate(_cable_law(y, _rotation(*y[6:10]), params)):
        if tension > 10.0 * params.f_max:
            raise CableOverload(f"cable {k} tension {tension:.3f} N past sanity ceiling")
        directions.append((ex, ey, ez) if stretch > 0.0 else (0.0, 0.0, 0.0))
        stretches.append(stretch)
        tensions.append(tension)
    stretch = np.array(stretches)
    return CableReading(np.array(directions), np.array(tensions), stretch > 0.0, stretch)


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


def _quat_rate(w, x, y, z, ox, oy, oz) -> tuple:
    """Quaternion kinematics for body rate (ox, oy, oz), as
    so3.omega_to_quat_dot."""
    return (
        -0.5 * (x * ox + y * oy + z * oz),
        0.5 * (w * ox + (y * oz - z * oy)),
        0.5 * (w * oy + (z * ox - x * oz)),
        0.5 * (w * oz + (x * oy - y * ox)),
    )


def _euler_rate(J, J_inv, ox, oy, oz, tx, ty, tz) -> tuple:
    """Body angular acceleration J^-1 (tau - omega x J omega), J and J_inv as
    3x3 nested lists."""
    (a, b, c), (d, e, f), (g, h, i) = J
    hx, hy, hz = a * ox + b * oy + c * oz, d * ox + e * oy + f * oz, g * ox + h * oy + i * oz
    rx, ry, rz = tx - (oy * hz - oz * hy), ty - (oz * hx - ox * hz), tz - (ox * hy - oy * hx)
    (a, b, c), (d, e, f), (g, h, i) = J_inv
    return a * rx + b * ry + c * rz, d * rx + e * ry + f * rz, g * rx + h * ry + i * rz


def _world_derivative_flat(y: np.ndarray, inputs, params: SystemParams) -> np.ndarray:
    """Fused derivative of the world state, flat or (n+1, 13), returned in the
    shape of y.  inputs = (thrusts, torques): one float and one 3-vector per
    MAV.

    Evaluated on Python floats: on 4-5 bodies numpy's per-call cost would
    outweigh the arithmetic."""
    s = y.ravel().tolist()
    qw, qx, qy, qz, wx, wy, wz = s[6:13]
    R = _rotation(qw, qx, qy, qz)
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = R
    g = params.g
    out = s[3:6] + [0.0] * 10  # payload row: v, then acc, qdot, omega dot below
    fx = fy = fz = mx = my = mz = 0.0
    b = 13
    for (ex, ey, ez, _, t), (rx, ry, rz), thrust, (tx, ty, tz), m, J, Ji in zip(
        _cable_law(s, R, params), params._r_i, inputs[0], inputs[1],
        params._m_i, params._J_i, params._J_i_inv,
    ):
        # the cable pulls the MAV toward its attachment and the payload back
        cfx, cfy, cfz = t * ex, t * ey, t * ez
        fx, fy, fz = fx + cfx, fy + cfy, fz + cfz
        # the payload's pull -t e in its own frame, at the attachment offset
        bx = -t * (ex * r00 + ey * r10 + ez * r20)
        by = -t * (ex * r01 + ey * r11 + ez * r21)
        bz = -t * (ex * r02 + ey * r12 + ez * r22)
        mx, my, mz = mx + (ry * bz - rz * by), my + (rz * bx - rx * bz), mz + (rx * by - ry * bx)

        q0, q1, q2, q3, ox, oy, oz = s[b + 6 : b + 13]
        # thrust along the body z axis, the last column of the rotation
        ax = (2 * (q1 * q3 + q0 * q2) * thrust + cfx) / m
        ay = (2 * (q2 * q3 - q0 * q1) * thrust + cfy) / m
        az = ((1 - 2 * (q1 * q1 + q2 * q2)) * thrust + cfz) / m - g
        out += s[b + 3 : b + 6]
        out += (ax, ay, az, *_quat_rate(q0, q1, q2, q3, ox, oy, oz))
        out += _euler_rate(J, Ji, ox, oy, oz, tx, ty, tz)
        b += 13

    m_L = params.m_L
    out[3:6] = (-fx / m_L, -fy / m_L, -fz / m_L - g)
    out[6:10] = _quat_rate(qw, qx, qy, qz, wx, wy, wz)
    out[10:13] = _euler_rate(params._J_L, params._J_L_inv, wx, wy, wz, mx, my, mz)
    return np.array(out).reshape(y.shape)


def step_world(Y: np.ndarray, commands, dt: float, params: SystemParams) -> np.ndarray:
    """The (n+1, 13) world state one step later under held commands.

    commands: (thrusts, torques), one float and one 3-vector per MAV; thrust
    is saturated here.  The five quaternions are renormalized to unit norm
    and the scalar >= 0 hemisphere on Python floats, each norm summed left to
    right as numpy's does.
    """
    thrusts, torques = commands
    n = params.n
    shapes_ok = len(thrusts) == n and len(torques) == n and len(Y) == n + 1
    if not shapes_ok or any(len(t) != 3 for t in torques):
        raise ValueError("need one thrust and one torque row per MAV")
    thrusts = [saturate_thrust(float(f), params.F_max) for f in thrusts]
    deriv = lambda yv, u: _world_derivative_flat(yv, u, params)
    Y = rk4_step(deriv, Y, (thrusts, torques), dt)
    quats = Y[:, 6:10].tolist()
    for q in quats:
        w, x, y, z = q
        norm = math.sqrt(w * w + x * x + y * y + z * z)
        if w < 0.0:
            norm = -norm
        q[:] = w / norm, x / norm, y / norm, z / norm
    Y[:, 6:10] = quats
    return Y
