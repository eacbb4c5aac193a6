"""Per-quadrotor geometric controller for cable direction and tension.

Each vehicle receives its desired cable force from the allocator and steers
the physical cable onto the desired direction with a controller posed
directly on the unit sphere: the commanded force decomposes into a component
along the cable (delivering tension plus the centripetal share) and one
perpendicular to it (turning the cable), and the attitude loop then realizes
that force with thrust along the body z-axis plus a moment command.

Every function takes and returns one entry per vehicle (float 3-tuples for
vectors, floats for scalars, row-major 9-tuples for 3x3 matrices, rotations
as `plant._rotation` gives them), and one vehicle model for them all, so a
tick for the whole rig is one call of each, on Python floats: on four
vehicles numpy's per-call cost would outweigh the arithmetic.  Inside, each
3-vector and 3x3 product is written out on local floats, because a helper
call per product costs more than its few multiplies; every sum keeps the
left-to-right grouping of R v, a x b and a . b: another grouping rounds
differently and moves the runs' bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class DegenerateThrust(RuntimeError):
    """Commanded force too small or collinear with the heading reference."""


class NotSkew(ValueError):
    """attitude_errors got rotations whose error matrix R_des^T R - R^T R_des
    is not skew-symmetric; as computed, only a non-finite entry makes it so."""


@dataclass
class GainSet:
    """Gains of the attitude (K_R, K_Omega) and cable-direction (K_xi,
    K_omega) loops, each one positive float acting alike on all three axes.

    The values are tuned for closed-loop runs on the full plant: under the
    payload controller the attitude and cable loops must respond well above
    the wrench-command bandwidth and absorb replan steps without ringing,
    otherwise the layers trade energy in a growing swing.  They put the
    attitude poles near 75 rad/s and make the cable-direction loop slightly
    overdamped around 12 rad/s.
    """

    K_R: float = 15.0
    K_Omega: float = 0.37
    K_xi: float = 150.0
    K_omega: float = 30.0

    def __post_init__(self):
        for name in ("K_R", "K_Omega", "K_xi", "K_omega"):
            value = getattr(self, name)
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (number and 0.0 < value < math.inf):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")
            setattr(self, name, float(value))


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
    e_xi, e_omega = [], []
    for (x, y, z), (a, b, c), (dx, dy, dz), (px, py, pz) in zip(
        state.xi, state.omega_cable, state.xi_des, state.omega_des
    ):
        e_xi.append((dy * z - dz * y, dz * x - dx * z, dx * y - dy * x))
        # omega_cable + xi x (xi x omega_des)
        cx, cy, cz = y * pz - z * py, z * px - x * pz, x * py - y * px
        e_omega.append((a + (y * cz - z * cy), b + (z * cx - x * cz), c + (x * cy - y * cx)))
    return e_xi, e_omega


def attachment_accel(accel_des, R_L, Omega_L, Omega_dot_des, r, g: float = 9.81) -> list:
    """World acceleration each attachment point (offsets r, payload frame)
    must realize.

    Combines the desired payload acceleration, gravity compensation, the
    tangential share of the desired angular acceleration, and the centripetal
    term from the current payload rate.
    """
    ax, ay, az = accel_des[0], accel_des[1], accel_des[2] + g
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = R_L
    (wx, wy, wz), (dx, dy, dz) = Omega_L, Omega_dot_des
    out = []
    for rx, ry, rz in r:
        # R_L (r x Omega_dot_des) is taken off and R_L (Omega_L x (Omega_L x r)) added
        tx, ty, tz = ry * dz - rz * dy, rz * dx - rx * dz, rx * dy - ry * dx
        sx, sy, sz = wy * rz - wz * ry, wz * rx - wx * rz, wx * ry - wy * rx
        cx, cy, cz = wy * sz - wz * sy, wz * sx - wx * sz, wx * sy - wy * sx
        out.append((
            ax - (r00 * tx + r01 * ty + r02 * tz) + (r00 * cx + r01 * cy + r02 * cz),
            ay - (r10 * tx + r11 * ty + r12 * tz) + (r10 * cx + r11 * cy + r12 * cz),
            az - (r20 * tx + r21 * ty + r22 * tz) + (r20 * cx + r21 * cy + r22 * cz),
        ))
    return out


def control_components(mu_k, state: CableTrackingState, a_kc, m, l, gains: GainSet):
    """Commanded force split along and across the cable, (u_parallel, u_perp),
    of vehicles of mass m on cables of length l.  mu_k acts through its
    component along the actual cable, so the raw allocation and its
    projection give the same result.  u_perp is one cross product with xi,
    which pins it to the tangent plane regardless of operand alignment."""
    k, w, ml = gains.K_xi, gains.K_omega, m * l
    u_par, u_perp = [], []
    rows = zip(state.xi, mu_k, state.omega_cable, a_kc, *cable_errors(state))
    for (x, y, z), (mx, my, mz), (ox, oy, oz), (ax, ay, az), (ex, ey, ez), (fx, fy, fz) in rows:
        # grouped as xi (xi.mu) + (m l |omega|^2) xi + (m xi) (xi.a); another
        # grouping rounds differently and re-draws the circle runs' events
        d1, r2 = x * mx + y * my + z * mz, ml * (ox * ox + oy * oy + oz * oz)
        d3 = x * ax + y * ay + z * az
        u_par.append((x * d1 + r2 * x + m * x * d3, y * d1 + r2 * y + m * y * d3,
                      z * d1 + r2 * z + m * z * d3))
        # xi x (m l (-K_xi e_xi - K_omega e_omega) - m (xi x a))
        cx, cy, cz = y * az - z * ay, z * ax - x * az, x * ay - y * ax
        bx = ml * (-k * ex - w * fx) - m * cx
        by = ml * (-k * ey - w * fy) - m * cy
        bz = ml * (-k * ez - w * fz) - m * cz
        u_perp.append((y * bz - z * by, z * bx - x * bz, x * by - y * bx))
    return u_par, u_perp


def thrust_command(u_k, R_k) -> list:
    """Scalar thrust: commanded force resolved onto the body z-axis."""
    return [u[0] * R[2] + u[1] * R[5] + u[2] * R[8] for u, R in zip(u_k, R_k)]


def desired_attitude(u_k, yaw_des: float) -> list:
    """Rotation whose z-column carries the commanded force at the given yaw."""
    hx, hy, hz = math.cos(yaw_des), math.sin(yaw_des), 0.0
    out = []
    for ux, uy, uz in u_k:
        norm_u = math.sqrt(ux * ux + uy * uy + uz * uz)
        if not norm_u > 1e-6:
            raise DegenerateThrust(f"commanded force {norm_u:.2e} N is too small")
        # b3 along the force, b1 the heading made normal to it, b2 = b3 x b1
        ax, ay, az = ux / norm_u, uy / norm_u, uz / norm_u
        cx, cy, cz = ay * hz - az * hy, az * hx - ax * hz, ax * hy - ay * hx
        if not math.sqrt(cx * cx + cy * cy + cz * cz) > 1e-6:
            raise DegenerateThrust("commanded force is collinear with the heading")
        s = hx * ax + hy * ay + hz * az
        x, y, z = hx - s * ax, hy - s * ay, hz - s * az
        n1 = math.sqrt(x * x + y * y + z * z)
        x, y, z = x / n1, y / n1, z / n1
        out.append((x, ay * z - az * y, ax, y, az * x - ax * z, ay, z, ax * y - ay * x, az))
    return out


def attitude_errors(R_k, R_des) -> list:
    """Rotation error of each vehicle, in vee form."""
    e_R = []
    for R, D in zip(R_k, R_des):
        r00, r01, r02, r10, r11, r12, r20, r21, r22 = R
        d00, d01, d02, d10, d11, d12, d20, d21, d22 = D
        # vee(R_des^T R_k - R_k^T R_des) = (t12 - t21, t20 - t02, t01 - t10),
        # t_ij = column i of R_k dot column j of R_des
        x = (r01 * d02 + r11 * d12 + r21 * d22) - (r02 * d01 + r12 * d11 + r22 * d21)
        y = (r02 * d00 + r12 * d10 + r22 * d20) - (r00 * d02 + r10 * d12 + r20 * d22)
        z = (r00 * d01 + r10 * d11 + r20 * d21) - (r01 * d00 + r11 * d10 + r21 * d20)
        # R_des^T R_k - R_k^T R_des is skew unless an entry is not finite;
        # the check is written so that NaN fails it
        if not (x - x) + (y - y) + (z - z) == 0.0:
            raise NotSkew("attitude error R_des^T R - R^T R_des is not skew-symmetric")
        e_R.append((0.5 * x, 0.5 * y, 0.5 * z))
    return e_R


def moment_command(e_R, omega_k, J, gains: GainSet):
    """Body moment closing the attitude loop of vehicles of principal moments
    of inertia J (3 floats).  Feedback enters with negative sign on the
    rotation errors e_R (they grow as the body rotates past the target) and
    on the body rates omega_k (the desired rate is zero), plus omega x J omega."""
    k, w = gains.K_R, gains.K_Omega
    jx, jy, jz = J
    out = []
    for (ex, ey, ez), (ox, oy, oz) in zip(e_R, omega_k):
        # omega x J omega
        hx, hy, hz = jx * ox, jy * oy, jz * oz
        out.append((
            -k * ex - w * ox + (oy * hz - oz * hy),
            -k * ey - w * oy + (oz * hx - ox * hz),
            -k * ez - w * oz + (ox * hy - oy * hx),
        ))
    return out
