"""Per-quadrotor geometric controller for cable direction and tension.

Each vehicle receives its desired cable force from the allocator and steers
the physical cable onto the desired direction with a controller posed
directly on the unit sphere: the commanded force decomposes into a component
along the cable (delivering tension plus the centripetal share) and one
perpendicular to it (turning the cable), and the attitude loop then realizes
that force with thrust along the body z-axis plus a moment command.

Every function takes and returns one entry per vehicle (float 3-tuples for
vectors, floats for scalars, row-major 9-tuples for 3x3 matrices, rotations
as `plant._rotation` gives them), so a tick for the whole rig is one call of
each, on Python floats: on four vehicles numpy's per-call cost would
outweigh the arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import so3
from .so3 import cross, dot, relative, rotate


class DegenerateThrust(RuntimeError):
    """Commanded force too small or collinear with the heading reference."""


def _diagonal_positive(name: str, M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=np.float64)
    if M.shape != (3, 3):
        raise ValueError(f"{name} must be 3x3")
    if np.any(M - np.diag(np.diagonal(M)) != 0.0):
        raise ValueError(f"{name} must be diagonal")
    if np.any(np.diagonal(M) <= 0.0):
        raise ValueError(f"{name} diagonal entries must be positive")
    return M


@dataclass
class GainSet:
    """Diagonal gain matrices; K @ e is applied as the diagonal (kept as the
    float 3-tuples `_k_R` etc.) times e elementwise, which rounds the same."""

    K_R: np.ndarray = field(default_factory=lambda: 8.0 * np.eye(3))
    K_Omega: np.ndarray = field(default_factory=lambda: 1.2 * np.eye(3))
    K_xi: np.ndarray = field(default_factory=lambda: 30.0 * np.eye(3))
    K_omega: np.ndarray = field(default_factory=lambda: 8.0 * np.eye(3))

    def __post_init__(self):
        for name in ("K_R", "K_Omega", "K_xi", "K_omega"):
            M = _diagonal_positive(name, getattr(self, name))
            setattr(self, name, M)
            setattr(self, "_k" + name[1:], tuple(np.diagonal(M).tolist()))


@dataclass
class CableTrackingState:
    """Measured and desired cable direction and rate, one float 3-tuple per
    vehicle in each list."""

    xi: list
    omega_cable: list
    xi_des: list
    omega_des: list

    def __post_init__(self):
        for (x, y, z), (a, b, c) in zip(self.xi, self.omega_cable):
            if not abs(math.sqrt(x * x + y * y + z * z) - 1.0) <= 1e-6:
                raise ValueError("cable direction must be a unit vector")
            if not abs(a * x + b * y + c * z) <= 1e-6:
                raise ValueError("cable angular velocity must be perpendicular to xi")


def cable_errors(state: CableTrackingState):
    """Direction error xi_des x xi and rate error on the tangent plane."""
    e_xi = [cross(xi_des, xi) for xi, xi_des in zip(state.xi, state.xi_des)]
    e_omega = []
    for xi, (a, b, c), omega_des in zip(state.xi, state.omega_cable, state.omega_des):
        x, y, z = cross(xi, cross(xi, omega_des))
        e_omega.append((a + x, b + y, c + z))
    return e_xi, e_omega


def attachment_accel(accel_des, R_L, Omega_L, Omega_dot_des, r, g: float = 9.81) -> list:
    """World acceleration each attachment point (offsets r, payload frame)
    must realize.

    Combines the desired payload acceleration, gravity compensation, the
    tangential share of the desired angular acceleration, and the centripetal
    term from the current payload rate.
    """
    ax, ay, az = accel_des[0], accel_des[1], accel_des[2] + g
    out = []
    for r_k in r:
        tx, ty, tz = rotate(R_L, cross(r_k, Omega_dot_des))
        cx, cy, cz = rotate(R_L, cross(Omega_L, cross(Omega_L, r_k)))
        out.append((ax - tx + cx, ay - ty + cy, az - tz + cz))
    return out


def control_components(mu_k, state: CableTrackingState, a_kc, mass, length, gains: GainSet):
    """Commanded force split along and across the cable, (u_parallel, u_perp);
    mass and length hold one entry per vehicle.  mu_k acts through its
    component along the actual cable, so the raw allocation and its
    projection give the same result.  u_perp is one cross product with xi,
    which pins it to the tangent plane regardless of operand alignment."""
    (kx, ky, kz), (wx, wy, wz) = gains._k_xi, gains._k_omega
    e_xi, e_omega = cable_errors(state)
    u_par, u_perp = [], []
    for k, xi in enumerate(state.xi):
        x, y, z = xi
        m, a, omega = mass[k], a_kc[k], state.omega_cable[k]
        ml = m * length[k]
        # grouped as xi (xi.mu) + (m l |omega|^2) xi + (m xi) (xi.a); another
        # grouping rounds differently and re-draws the circle runs' events
        d1, r2, d3 = dot(xi, mu_k[k]), ml * dot(omega, omega), dot(xi, a)
        u_par.append((x * d1 + r2 * x + m * x * d3, y * d1 + r2 * y + m * y * d3,
                      z * d1 + r2 * z + m * z * d3))
        (ex, ey, ez), (fx, fy, fz) = e_xi[k], e_omega[k]
        b = (-kx * ex - wx * fx, -ky * ey - wy * fy, -kz * ez - wz * fz)
        cx, cy, cz = cross(xi, a)
        u_perp.append(cross(xi, (ml * b[0] - m * cx, ml * b[1] - m * cy, ml * b[2] - m * cz)))
    return u_par, u_perp


def thrust_command(u_k, R_k) -> list:
    """Scalar thrust: commanded force resolved onto the body z-axis."""
    return [u[0] * R[2] + u[1] * R[5] + u[2] * R[8] for u, R in zip(u_k, R_k)]


def desired_attitude(u_k, yaw_des: float) -> list:
    """Rotation whose z-column carries the commanded force at the given yaw."""
    heading = hx, hy, hz = math.cos(yaw_des), math.sin(yaw_des), 0.0
    out = []
    for ux, uy, uz in u_k:
        norm_u = math.sqrt(ux * ux + uy * uy + uz * uz)
        if not norm_u > 1e-6:
            raise DegenerateThrust(f"commanded force {norm_u:.2e} N is too small")
        b3 = (ux / norm_u, uy / norm_u, uz / norm_u)
        c = cross(b3, heading)
        if not math.sqrt(dot(c, c)) > 1e-6:
            raise DegenerateThrust("commanded force is collinear with the heading")
        s = dot(heading, b3)
        x, y, z = hx - s * b3[0], hy - s * b3[1], hz - s * b3[2]
        n1 = math.sqrt(x * x + y * y + z * z)
        b1 = (x / n1, y / n1, z / n1)
        b2 = cross(b3, b1)
        out.append((b1[0], b2[0], b3[0], b1[1], b2[1], b3[1], b1[2], b2[2], b3[2]))
    return out


def attitude_errors(R_k, R_des, omega_k):
    """Rotation error (vee form) and body-rate error; the desired body rate
    is zero, so the rate error is the measured rate."""
    transports = [relative(R, D) for R, D in zip(R_k, R_des)]
    # R_des^T R_k - R_k^T R_des: each transport R_k^T R_des transposed minus itself
    skew = [
        (t00 - t00, t10 - t01, t20 - t02, t01 - t10, t11 - t11, t21 - t12,
         t02 - t20, t12 - t21, t22 - t22)
        for t00, t01, t02, t10, t11, t12, t20, t21, t22 in transports
    ]
    e_R = [(0.5 * x, 0.5 * y, 0.5 * z) for x, y, z in so3.vee(skew)]
    return e_R, [tuple(omega) for omega in omega_k]


def moment_command(errors, omega_k, J_k, gains: GainSet):
    """Body moment closing the attitude loop; J_k holds one row-major inertia
    9-tuple per vehicle.  Feedback enters with negative sign (e_R grows as
    the body rotates past the target, so the restoring moment opposes it),
    plus the gyroscopic term omega x J omega."""
    (kx, ky, kz), (wx, wy, wz) = gains._k_R, gains._k_Omega
    out = []
    for (ex, ey, ez), (fx, fy, fz), omega, J in zip(*errors, omega_k, J_k):
        gx, gy, gz = cross(omega, rotate(J, omega))
        out.append((-kx * ex - wx * fx + gx, -ky * ey - wy * fy + gy, -kz * ez - wz * fz + gz))
    return out
