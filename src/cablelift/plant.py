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
which also gives each taut cable's attachment velocity relative to its MAV,
and a reading of the state being stepped serves the step's first stage.
`step_payload` steps the payload row alone under a held wrench, for the
payload-only model, with the same Runge-Kutta body (`_rk4_flat`) and the
payload derivative the fused one takes its payload row from.  Every 3-vector
and 3x3 product is written out on local floats, each sum in the left-to-right
grouping of R v, a x b and a . b: another grouping moves the runs' bytes."""

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
    """Physical parameters of the rig; the defaults are the four-vehicle
    square rig of every preset: 0.6 m sides, 1 m cables, 232 g payload.

    The vehicle count n is the number of attachment offsets r_i.  The
    vehicles are identical: one mass m_i, inertia J_i and cable length l_i
    serve every one of them.  An inertia is its three principal moments, the
    body axes being the principal axes.
    """

    m_i: float = 0.12  # kg
    J_i: np.ndarray = field(default_factory=lambda: np.array([2.5e-3, 2.5e-3, 4.0e-3]))  # kg m^2
    m_L: float = 0.232
    J_L: np.ndarray = field(default_factory=lambda: np.array([0.007, 0.007, 0.013]))
    # (n, 3) attachment offsets, payload frame, m
    r_i: np.ndarray = field(
        default_factory=lambda: 0.3 * np.array([[1, 1, 0], [1, -1, 0], [-1, -1, 0], [-1, 1, 0]])
    )
    l_i: float = 1.0  # cable rest length, m
    F_max: float = 2.5  # thrust ceiling per MAV, N
    f_max: float = 1.2  # cable tension bound, N
    g: float = 9.81
    cable_stiffness: float = 5000.0  # N/m
    cable_damping: float = 50.0  # N s/m

    def __post_init__(self):
        self.r_i = np.asarray(self.r_i, dtype=np.float64).reshape(-1, 3)
        self.n = len(self.r_i)
        if self.n < 3:
            raise ValueError("need at least 3 vehicles")
        for names, rule, holds in (
            (("m_i", "m_L", "l_i", "cable_stiffness", "g", "F_max", "f_max"), "positive finite",
             lambda v: 0 < v < math.inf),
            (("cable_damping",), "nonnegative finite", lambda v: 0 <= v < math.inf),
        ):
            for name in names:
                value = getattr(self, name)
                if np.ndim(value) != 0 or isinstance(value, (bool, np.bool_)) or not holds(value):
                    raise ValueError(f"{name!r} must be one {rule} number, got {value!r}")
                setattr(self, name, float(value))
        for name in ("J_i", "J_L"):
            moments = np.array(getattr(self, name), dtype=np.float64)
            if moments.shape != (3,) or not ((0 < moments) & (moments < math.inf)).all():
                raise ValueError(f"{name!r} must be three positive finite principal moments, "
                                 f"got {getattr(self, name)!r}")
            setattr(self, name, moments)
        self.J_L_inv = 1.0 / self.J_L
        # plain-float copies for the scalar kernels, each inertia and inverse a
        # 3-list, and gravity (0, 0, -g) as a float 3-tuple
        self._r_i = self.r_i.tolist()
        self._J_i = self.J_i.tolist()
        self._J_i_inv = (1.0 / self.J_i).tolist()
        self._J_L = self.J_L.tolist()
        self._J_L_inv = self.J_L_inv.tolist()
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
    rotation: tuple | None = field(default=None, repr=False)  # the payload's, from _rotation


@dataclass
class DisturbanceModel:
    """Per-tick additive payload-state disturbance, norm-bounded by eta per
    sqrt(2 ms): a tick of dt draws within eta sqrt(dt / 2 ms), the
    Euler-Maruyama scaling of a Wiener-driven disturbance (Kloeden & Platen, 1992).

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
    dt: float = 0.002  # the tick, s; eta is stated for 2 ms
    _rng: np.random.Generator | None = field(default=None, repr=False)

    def __post_init__(self):
        if isinstance(self.eta, bool) or not 0.0 <= self.eta < math.inf:
            raise ValueError("eta must be finite and nonnegative")
        # an inactive model never draws, so it leaves numpy.random unimported
        self._rng = np.random.default_rng(self.seed) if self.active else None
        self._samples = self._ticks()

    @property
    def active(self) -> bool:
        return self.eta > 0.0

    def draw_block(self) -> tuple:
        """(D, E) for the next DISTURBANCE_BLOCK ticks: tangent rows D (B, 12) of
        norm at most eta sqrt(dt / 2 ms) and the unit quaternions E (B, 4) of
        their attitude parts; zero rows, without a draw, when not active."""
        u = np.zeros((DISTURBANCE_BLOCK, 12))
        if self.active:
            u = self._rng.uniform(-1.0, 1.0, u.shape)
            norm = so3.norm_rows(u)[:, None]  # rounds as each row's 1-D norm
            u = np.where(norm > 1.0, u / norm, u)
            u[:, 0:3] *= POSE_SCALE
            u[:, 6:9] *= POSE_SCALE
        D = self.eta * math.sqrt(self.dt / 0.002) * u
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
    if not F_max > 0:
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
    (e_x, e_y, e_z, stretch, tension, u) per cable, e the unit vector from the
    MAV toward its attachment and u the attachment's velocity relative to the
    MAV, v_L + R_L (omega_L x r) - v_k, zeros while slack; the cable is taut
    when stretch > 0."""
    px, py, pz, vx, vy, vz = y[0:6]
    wx, wy, wz = y[10:13]
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = R
    rest, stiffness, damping = params.l_i, params.cable_stiffness, params.cable_damping
    out = []
    b = 13
    for k, (rx, ry, rz) in enumerate(params._r_i):
        # attachment point p_L + R_L r
        dx = px + (r00 * rx + r01 * ry + r02 * rz) - y[b]
        dy = py + (r10 * rx + r11 * ry + r12 * rz) - y[b + 1]
        dz = pz + (r20 * rx + r21 * ry + r22 * rz) - y[b + 2]
        dist = math.sqrt(dx * dx + dy * dy + dz * dz)
        if dist < 1e-9:
            raise DegenerateGeometry(f"MAV {k} coincides with its attachment point")
        ex, ey, ez = dx / dist, dy / dist, dz / dist
        stretch = dist - rest
        tension, u = 0.0, (0.0, 0.0, 0.0)
        if stretch > 0.0:
            cx, cy, cz = wy * rz - wz * ry, wz * rx - wx * rz, wx * ry - wy * rx
            u = ux, uy, uz = (vx + (r00 * cx + r01 * cy + r02 * cz) - y[b + 3],
                              vy + (r10 * cx + r11 * cy + r12 * cz) - y[b + 4],
                              vz + (r20 * cx + r21 * cy + r22 * cz) - y[b + 5])
            sdot = ex * ux + ey * uy + ez * uz
            tension = stiffness * stretch + damping * (sdot if sdot > 0.0 else 0.0)
        out.append((ex, ey, ez, stretch, tension, u))
        b += 13
    return out


def cable_closure(y: list, params: SystemParams) -> CableReading:
    """Per-cable direction, stretch, and spring-damper tension of the flat
    world state y, one list entry per cable."""
    R = _rotation(*y[6:10])
    law = _cable_law(y, R, params)
    directions, stretches, tensions = [], [], []
    for k, (ex, ey, ez, stretch, tension, _) in enumerate(law):
        if tension > 10.0 * params.f_max:
            raise CableOverload(f"cable {k} tension {tension:.3f} N past sanity ceiling")
        directions.append((ex, ey, ez) if stretch > 0.0 else (0.0, 0.0, 0.0))
        stretches.append(stretch)
        tensions.append(tension)
    return CableReading(directions, tensions, stretches, law, R)


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


def _unit_quaternion(w: float, x: float, y: float, z: float) -> tuple:
    """(w, x, y, z) to unit norm, scalar >= 0: so3.quat_normalize's floats."""
    norm = math.sqrt(w * w + x * x + y * y + z * z)
    if w < 0.0:
        norm = -norm
    return w / norm, x / norm, y / norm, z / norm


def _payload_derivative(s: list, wrench, params: SystemParams) -> list:
    """Derivative of the payload row s alone under the wrench [F, M] on it:
    payload_ocp.payload_dynamics on floats, with its groupings, the zero terms
    of so3.omega_to_quat_dot and the +0.0 each inertia product starts from,
    so the two agree in every bit, signed zeros included."""
    _, _, _, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz = s[0:13]
    (fx, fy, fz, mx, my, mz), m_L, (gx, gy, gz) = wrench, params.m_L, params.g_vec
    jx, jy, jz = params._J_L
    hx, hy, hz = 0.0 + jx * wx, 0.0 + jy * wy, 0.0 + jz * wz
    ux, uy, uz = mx - (wy * hz - wz * hy), my - (wz * hx - wx * hz), mz - (wx * hy - wy * hx)
    kx, ky, kz = params._J_L_inv
    return [
        vx, vy, vz, fx / m_L + gx, fy / m_L + gy, fz / m_L + gz,
        0.5 * (((qw * 0.0 - qx * wx) - qy * wy) - qz * wz),
        0.5 * ((qw * wx + qx * 0.0) + (qy * wz - qz * wy)),
        0.5 * ((qw * wy + qy * 0.0) + (qz * wx - qx * wz)),
        0.5 * ((qw * wz + qz * 0.0) + (qx * wy - qy * wx)),
        0.0 + kx * ux, 0.0 + ky * uy, 0.0 + kz * uz,
    ]


def _world_derivative_flat(s: list, inputs, params: SystemParams, cables=None) -> list:
    """Fused derivative of the flat world state s, as a list.  inputs =
    (thrusts, torques): one float and one 3-vector per MAV.  cables, when
    given, is `cable_closure`'s reading of s, whose rotation and law it takes.

    Evaluated on Python floats with every product written out: on 4-5 bodies
    numpy's per-call cost, or a helper call per vehicle, would outweigh the
    arithmetic."""
    R = _rotation(*s[6:10]) if cables is None else cables.rotation
    law = _cable_law(s, R, params) if cables is None else cables.law
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = R
    m, g = params.m_i, params.g
    # the vehicles' principal moments J and their inverses K
    jx, jy, jz = params._J_i
    kx, ky, kz = params._J_i_inv
    out = []  # the vehicle rows; the payload row goes in front at the end
    fx = fy = fz = mx = my = mz = 0.0
    b = 13
    for (ex, ey, ez, _, t, _), (rx, ry, rz), thrust, (tx, ty, tz) in zip(
        law, params._r_i, inputs[0], inputs[1]
    ):
        # the cable pulls the MAV toward its attachment and the payload back
        cfx, cfy, cfz = t * ex, t * ey, t * ez
        fx, fy, fz = fx + cfx, fy + cfy, fz + cfz
        # the payload's pull -t e in its own frame, at the attachment offset
        bx = -t * (ex * r00 + ey * r10 + ez * r20)
        by = -t * (ex * r01 + ey * r11 + ez * r21)
        bz = -t * (ex * r02 + ey * r12 + ez * r22)
        mx, my, mz = mx + (ry * bz - rz * by), my + (rz * bx - rx * bz), mz + (rx * by - ry * bx)

        _, _, _, vx, vy, vz, q0, q1, q2, q3, ox, oy, oz = s[b : b + 13]
        # the rates as the payload row's in _payload_derivative: J omega,
        # then tau - omega x J omega
        hx, hy, hz = jx * ox, jy * oy, jz * oz
        ux, uy, uz = tx - (oy * hz - oz * hy), ty - (oz * hx - ox * hz), tz - (ox * hy - oy * hx)
        # thrust along the body z axis, the last column of the rotation
        out += (
            vx, vy, vz,
            (2 * (q1 * q3 + q0 * q2) * thrust + cfx) / m,
            (2 * (q2 * q3 - q0 * q1) * thrust + cfy) / m,
            ((1 - 2 * (q1 * q1 + q2 * q2)) * thrust + cfz) / m - g,
            -0.5 * (q1 * ox + q2 * oy + q3 * oz),
            0.5 * (q0 * ox + (q2 * oz - q3 * oy)),
            0.5 * (q0 * oy + (q3 * ox - q1 * oz)),
            0.5 * (q0 * oz + (q1 * oy - q2 * ox)),
            kx * ux, ky * uy, kz * uz,
        )
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
    [F, M], as a new list: payload_ocp.discretize's floats, in every bit,
    signed zeros included."""
    return _rk4_flat(_payload_derivative, x, (wrench, params), dt)


def step_world(
    y: list, commands, dt: float, params: SystemParams, cables: CableReading | None = None
) -> list:
    """The flat world state y one step later under held commands, as a new
    list: `_rk4_flat` over the derivative fused over all bodies.

    commands: (thrusts, torques), one float and one 3-vector per MAV; thrust
    is saturated here.  cables, `cable_closure`'s reading of y if the caller
    has it, gives the first stage its payload rotation and cable law.
    """
    thrusts, torques = commands
    n = params.n
    shapes_ok = len(thrusts) == n and len(torques) == n and len(y) == _BODY_DIM * (n + 1)
    if not shapes_ok or any(len(t) != 3 for t in torques):
        raise ValueError("need one thrust and one torque row per MAV")
    inputs = ([saturate_thrust(float(f), params.F_max) for f in thrusts], torques)
    k1 = None if cables is None else _world_derivative_flat(y, inputs, params, cables)
    return _rk4_flat(_world_derivative_flat, y, (inputs, params), dt, k1)
