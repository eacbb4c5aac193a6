"""Ground-truth simulator of the coupled quadrotor-cable-payload system.

World frame is z-up, so the gravity vector is (0, 0, -g); thrust acts along
the +z body axis of each vehicle.  Cables are modeled as stiff unilateral
spring-dampers: a cable transmits force only while stretched past its rest
length, so slackness falls out of the model without constraint solving.

The world state is one flat list of 13(n+1) Python floats, payload first,
each body [p, v, q, omega] (position, velocity, unit quaternion scalar first,
body rates).  `cable_closure` reads the cables off it and `step_world` returns
it one Runge-Kutta step later, all on floats, from one derivative fused over
all bodies; both take the cables from one spring-damper law (`_cable_law`),
and a reading of the state being stepped serves the step's first stage.
`step_payload` steps the payload row alone under a held wrench, for the
payload-only model, with the same Runge-Kutta body (`_rk4_flat`) and the
payload derivative the fused one takes its payload row from."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import so3

_BODY_DIM = 13

# disturbance ticks per generator call; any size gives the same stream
DISTURBANCE_BLOCK = 256
# scale of the disturbance's pose components against its velocity components
POSE_SCALE = 0.002


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
        # plain-float copies for the scalar kernels, each 3x3 matrix a row-major
        # 9-list, and gravity (0, 0, -g) as a float 3-tuple
        self._m_i, self._l_i, self._r_i = self.m_i.tolist(), self.l_i.tolist(), self.r_i.tolist()
        self._J_i = self.J_i.reshape(self.n, 9).tolist()
        self._J_i_inv = np.linalg.inv(self.J_i).reshape(self.n, 9).tolist()
        self._J_L = self.J_L.ravel().tolist()
        self._J_L_inv = np.linalg.inv(self.J_L).ravel().tolist()
        self.g_vec = (0.0, 0.0, -self.g)


@dataclass
class CableReading:
    """Geometry and tension of the cables, one list entry per cable, as
    `cable_closure` returns them.

    direction is the world-frame unit vector from the MAV mass center toward
    its attachment point (zero while the cable is slack); a cable is taut
    exactly when its stretch is positive.
    """

    direction: list
    tension: list
    stretch: list
    law: list | None = field(default=None, repr=False)  # the _cable_law output read


@dataclass
class DisturbanceModel:
    """Per-step additive payload-state disturbance, norm-bounded by eta.

    The sample lives in the 12-dimensional tangent of the payload state
    (position, velocity, attitude rotation-vector, body rate).  Pose
    components (position, attitude) are scaled down by POSE_SCALE relative
    to the velocity components: an impulsive force moves the velocity
    within one step while the pose only follows through integration, and
    an unscaled position jump would fight the cable springs directly.
    `draw_block` draws the per-tick stream in blocks, `perturb` applies it.
    """

    eta: float = 0.0
    seed: int = 0
    kind: str = "none"  # none | uniform-bounded
    _rng: np.random.Generator | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("none", "uniform-bounded"):
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        if not 0.0 <= self.eta < math.inf:
            raise ValueError("eta must be finite and nonnegative")
        # an inactive model never draws, so it leaves numpy.random unimported
        self._rng = np.random.default_rng(self.seed) if self.active else None
        self._samples = self._ticks()

    @property
    def active(self) -> bool:
        return self.kind != "none" and self.eta > 0.0

    def draw_block(self) -> tuple:
        """(D, E) for the next DISTURBANCE_BLOCK ticks: tangent rows D (B, 12) of
        norm at most eta and the unit quaternions E (B, 4) of their attitude
        parts; zero rows, without a draw, when the model is not active."""
        u = np.zeros((DISTURBANCE_BLOCK, 12))
        if self.active:
            u = self._rng.uniform(-1.0, 1.0, u.shape)
            norm = so3.norm_rows(u)[:, None]  # rounds as each row's 1-D norm
            u = np.where(norm > 1.0, u / norm, u)
            u[:, 0:3] *= POSE_SCALE
            u[:, 6:9] *= POSE_SCALE
        D = self.eta * u
        return D, so3.quat_exp(D[:, 6:9])

    def _ticks(self):
        while True:
            D, E = self.draw_block()
            yield from zip(D.tolist(), E.tolist())

    def perturb(self, y: list) -> None:
        """Move the payload y[0:13] of a flat world state by the next tick's
        sample in place, the floats of payload_ocp.retract: the attitude is
        multiplied on the right and renormalized.  No-op when not active."""
        if not self.active:
            return
        d, (ew, ex, ey, ez) = next(self._samples)
        y[0:6] = [a + b for a, b in zip(y[0:6], d[0:6])]
        # so3.quat_mul's grouping, so the product rounds as it does there
        w, x, yq, z = y[6:10]
        y[6:10] = _unit_quaternion(
            ((w * ew - x * ex) - yq * ey) - z * ez,
            (w * ex + x * ew) + (yq * ez - z * ey),
            (w * ey + yq * ew) + (z * ex - x * ez),
            (w * ez + z * ew) + (x * ey - yq * ex),
        )
        y[10:13] = [a + b for a, b in zip(y[10:13], d[9:12])]


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


def cable_closure(y: list, params: SystemParams) -> CableReading:
    """Per-cable direction, stretch, and spring-damper tension of the flat
    world state y, one list entry per cable."""
    law = _cable_law(y, _rotation(*y[6:10]), params)
    directions, stretches, tensions = [], [], []
    for k, (ex, ey, ez, stretch, tension) in enumerate(law):
        if tension > 10.0 * params.f_max:
            raise CableOverload(f"cable {k} tension {tension:.3f} N past sanity ceiling")
        directions.append((ex, ey, ez) if stretch > 0.0 else (0.0, 0.0, 0.0))
        stretches.append(stretch)
        tensions.append(tension)
    return CableReading(directions, tensions, stretches, law)


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
    row-major 9-sequences."""
    a, b, c, d, e, f, g, h, i = J
    hx, hy, hz = a * ox + b * oy + c * oz, d * ox + e * oy + f * oz, g * ox + h * oy + i * oz
    rx, ry, rz = tx - (oy * hz - oz * hy), ty - (oz * hx - ox * hz), tz - (ox * hy - oy * hx)
    a, b, c, d, e, f, g, h, i = J_inv
    return a * rx + b * ry + c * rz, d * rx + e * ry + f * rz, g * rx + h * ry + i * rz


def _unit_quaternion(w: float, x: float, y: float, z: float) -> tuple:
    """(w, x, y, z) to unit norm, scalar >= 0: so3.quat_normalize's floats."""
    norm = math.sqrt(w * w + x * x + y * y + z * z)
    if w < 0.0:
        norm = -norm
    return w / norm, x / norm, y / norm, z / norm


def _payload_derivative(s: list, wrench, params: SystemParams) -> list:
    """Derivative of the payload row s alone under the wrench [F, M] on it:
    payload_ocp.payload_dynamics on floats, with its groupings."""
    qw, qx, qy, qz, wx, wy, wz = s[6:13]
    fx, fy, fz, mx, my, mz = wrench
    m_L, (gx, gy, gz) = params.m_L, params.g_vec
    return [
        *s[3:6], fx / m_L + gx, fy / m_L + gy, fz / m_L + gz,
        *_quat_rate(qw, qx, qy, qz, wx, wy, wz),
        *_euler_rate(params._J_L, params._J_L_inv, wx, wy, wz, mx, my, mz),
    ]


def _world_derivative_flat(s: list, inputs, params: SystemParams, law=None) -> list:
    """Fused derivative of the flat world state s, as a list.  inputs =
    (thrusts, torques): one float and one 3-vector per MAV.  law, when given,
    is `_cable_law`'s output at s.

    Evaluated on Python floats: on 4-5 bodies numpy's per-call cost would
    outweigh the arithmetic."""
    R = _rotation(*s[6:10])
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = R
    if law is None:
        law = _cable_law(s, R, params)
    g = params.g
    out = []  # the vehicle rows; the payload row goes in front at the end
    fx = fy = fz = mx = my = mz = 0.0
    b = 13
    for (ex, ey, ez, _, t), (rx, ry, rz), thrust, (tx, ty, tz), m, J, Ji in zip(
        law, params._r_i, inputs[0], inputs[1], params._m_i, params._J_i, params._J_i_inv,
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

    # the payload under the cables' net pull on it, -(fx, fy, fz), and their moment
    return _payload_derivative(s, (-fx, -fy, -fz, mx, my, mz), params) + out


def _rk4_flat(derivative, y: list, args: tuple, dt: float, k1: list | None = None) -> list:
    """rk4_step's arithmetic on the flat list y of whole bodies, as a new list
    with every quaternion renormalized.  derivative(s, *args) returns the
    derivative of a flat list s; k1, when given, is its value at y."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    h = 0.5 * dt
    if k1 is None:
        k1 = derivative(y, *args)
    k2 = derivative([a + h * b for a, b in zip(y, k1)], *args)
    k3 = derivative([a + h * b for a, b in zip(y, k2)], *args)
    k4 = derivative([a + dt * b for a, b in zip(y, k3)], *args)
    c = dt / 6.0
    out = [a + c * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
    if not all(map(math.isfinite, out)):
        raise NonFiniteState("integration produced non-finite state")
    for b in range(6, len(out), _BODY_DIM):
        out[b : b + 4] = _unit_quaternion(*out[b : b + 4])
    return out


def step_payload(x: list, wrench, dt: float, params: SystemParams) -> list:
    """The payload row x (13 floats) one step later under the held wrench
    [F, M], as a new list: payload_ocp.discretize's floats, bit for bit when
    J_L is diagonal (BLAS may round off-diagonal inertia products apart)."""
    return _rk4_flat(_payload_derivative, x, (wrench, params), dt)


def step_world(
    y: list, commands, dt: float, params: SystemParams, cables: CableReading | None = None
) -> list:
    """The flat world state y one step later under held commands, as a new
    list: `_rk4_flat` over the derivative fused over all bodies.

    commands: (thrusts, torques), one float and one 3-vector per MAV; thrust
    is saturated here.  cables, `cable_closure`'s reading of y if the caller
    has it, serves the first stage with the floats it would compute again.
    """
    thrusts, torques = commands
    n = params.n
    shapes_ok = len(thrusts) == n and len(torques) == n and len(y) == _BODY_DIM * (n + 1)
    if not shapes_ok or any(len(t) != 3 for t in torques):
        raise ValueError("need one thrust and one torque row per MAV")
    inputs = ([saturate_thrust(float(f), params.F_max) for f in thrusts], torques)
    k1 = None if cables is None else _world_derivative_flat(y, inputs, params, cables.law)
    return _rk4_flat(_world_derivative_flat, y, (inputs, params), dt, k1)
