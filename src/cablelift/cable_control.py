"""Per-quadrotor geometric controller for cable direction and tension.

Each vehicle receives its desired cable force from the allocator and steers
the physical cable onto the desired direction with a controller posed
directly on the unit sphere: the commanded force decomposes into a component
along the cable (delivering tension plus the centripetal share) and one
perpendicular to it (turning the cable), and the attitude loop then realizes
that force with thrust along the body z-axis plus a moment command.

Every function works on one vehicle's 3-vectors and 3x3 matrices or on rows
of them, one per vehicle along a leading axis, so a control tick for the
whole rig is one call of each.  Products keep the grouping of the
one-vehicle formulas (`so3.dot_rows`, `so3.matvec`), so a row rounds exactly
as the same vehicle computed alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import so3


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
    """Diagonal gain matrices; K @ e is applied as the row product
    diagonal(K) * e, which rounds the same."""

    K_R: np.ndarray = field(default_factory=lambda: 8.0 * np.eye(3))
    K_Omega: np.ndarray = field(default_factory=lambda: 1.2 * np.eye(3))
    K_xi: np.ndarray = field(default_factory=lambda: 30.0 * np.eye(3))
    K_omega: np.ndarray = field(default_factory=lambda: 8.0 * np.eye(3))

    def __post_init__(self):
        self.K_R = _diagonal_positive("K_R", self.K_R)
        self.K_Omega = _diagonal_positive("K_Omega", self.K_Omega)
        self.K_xi = _diagonal_positive("K_xi", self.K_xi)
        self.K_omega = _diagonal_positive("K_omega", self.K_omega)


@dataclass
class CableTrackingState:
    """Measured and desired cable direction/rate, (3,) for one vehicle or
    (n, 3) rows for n."""

    xi: np.ndarray
    omega_cable: np.ndarray
    xi_des: np.ndarray
    omega_des: np.ndarray

    def __post_init__(self):
        self.xi = np.asarray(self.xi, dtype=np.float64)
        self.omega_cable = np.asarray(self.omega_cable, dtype=np.float64)
        self.xi_des = np.asarray(self.xi_des, dtype=np.float64)
        self.omega_des = np.asarray(self.omega_des, dtype=np.float64)
        if not (np.abs(so3.norm_rows(self.xi) - 1.0) <= 1e-6).all():
            raise ValueError("cable direction must be a unit vector")
        if not (np.abs(so3.dot_rows(self.omega_cable, self.xi)) <= 1e-6).all():
            raise ValueError("cable angular velocity must be perpendicular to xi")


def _column(x) -> np.ndarray:
    """Per-vehicle scalars (or one scalar) as a column against (..., 3) rows."""
    return np.asarray(x, dtype=np.float64)[..., None]


def cable_errors(state: CableTrackingState):
    """Direction error xi_des x xi and rate error on the tangent plane."""
    e_xi = so3.cross3_rows(state.xi_des, state.xi)
    e_omega = state.omega_cable + so3.cross3_rows(
        state.xi, so3.cross3_rows(state.xi, state.omega_des)
    )
    return e_xi, e_omega


def attachment_accel(
    accel_des: np.ndarray,
    R_L: np.ndarray,
    Omega_L: np.ndarray,
    Omega_dot_des: np.ndarray,
    r_k: np.ndarray,
    g: float = 9.81,
) -> np.ndarray:
    """World acceleration the attachment point (or each of the rows of r_k)
    must realize.

    Combines the desired payload acceleration, gravity compensation, the
    tangential share of the desired angular acceleration, and the centripetal
    term from the current payload rate.
    """
    hat_Omega = so3.hat(Omega_L)
    return (
        np.asarray(accel_des, dtype=np.float64)
        + np.array([0.0, 0.0, g])
        - so3.matvec(R_L @ so3.hat(r_k), Omega_dot_des)
        + so3.matvec(R_L @ hat_Omega @ hat_Omega, r_k)
    )


def control_components(
    mu_k: np.ndarray,
    state: CableTrackingState,
    a_kc: np.ndarray,
    mass,
    length,
    gains: GainSet,
    xi_dot_des=None,
    omega_dot_des=None,
):
    """Commanded force split along and across the cable.

    mu_k acts through its component along the actual cable, so passing
    either the raw allocation or its projection gives the same result.  The
    perpendicular part keeps every term inside hat(xi), which pins the
    output to the tangent plane regardless of operand alignment.  mass and
    length are scalars or one entry per row.
    """
    xi = state.xi
    if xi_dot_des is None:
        xi_dot_des = np.zeros(3)
    if omega_dot_des is None:
        omega_dot_des = np.zeros(3)
    mass = _column(mass)
    length = _column(length)
    e_xi, e_omega = cable_errors(state)
    rate_sq = _column(so3.dot_rows(state.omega_cable, state.omega_cable))
    u_parallel = (
        xi * _column(so3.dot_rows(xi, mu_k))
        + mass * length * rate_sq * xi
        + mass * xi * _column(so3.dot_rows(xi, a_kc))
    )
    hat_xi = so3.hat(xi)
    hat_xi_sq = hat_xi @ hat_xi
    bracket = (
        -np.diagonal(gains.K_xi) * e_xi
        - np.diagonal(gains.K_omega) * e_omega
        - _column(so3.dot_rows(xi, state.omega_des)) * np.asarray(xi_dot_des, dtype=np.float64)
        - so3.matvec(hat_xi_sq, omega_dot_des)
    )
    u_perp = so3.matvec((mass * length)[..., None] * hat_xi, bracket) - so3.matvec(
        mass[..., None] * hat_xi @ hat_xi, a_kc
    )
    return u_parallel, u_perp


def thrust_command(u_k: np.ndarray, R_k: np.ndarray):
    """Scalar thrust: commanded force resolved onto the body z-axis."""
    return so3.dot_rows(u_k, R_k[..., :, 2])


def desired_attitude(u_k: np.ndarray, yaw_des: float) -> np.ndarray:
    """Rotation whose z-column carries the commanded force at the given yaw."""
    u_k = np.asarray(u_k, dtype=np.float64)
    norm_u = so3.norm_rows(u_k)
    if not (norm_u > 1e-6).all():
        raise DegenerateThrust(f"commanded force {np.min(norm_u):.2e} N is too small")
    b3 = u_k / norm_u[..., None]
    heading = np.array([np.cos(yaw_des), np.sin(yaw_des), 0.0])
    if not (so3.norm_rows(so3.cross3_rows(b3, heading)) > 1e-6).all():
        raise DegenerateThrust("commanded force is collinear with the heading")
    b1 = heading - _column(so3.dot_rows(heading, b3)) * b3
    b1 = b1 / _column(so3.norm_rows(b1))
    b2 = so3.cross3_rows(b3, b1)
    return np.stack([b1, b2, b3], axis=-1)


def attitude_errors(R_k, R_des, omega_k, omega_des_body):
    """Rotation error (vee form) and body-rate error against the transported
    desired rate."""
    R_k_T = np.swapaxes(R_k, -1, -2)
    e_R = 0.5 * so3.vee(np.swapaxes(R_des, -1, -2) @ R_k - R_k_T @ R_des)
    e_Omega = omega_k - so3.matvec(R_k_T @ R_des, omega_des_body)
    return e_R, e_Omega


def moment_command(
    errors,
    omega_k: np.ndarray,
    R_k: np.ndarray,
    R_des: np.ndarray,
    omega_des: np.ndarray,
    omega_dot_des: np.ndarray,
    J_k: np.ndarray,
    gains: GainSet,
) -> np.ndarray:
    """Body moment closing the attitude loop.

    Feedback enters with negative sign (e_R grows as the body rotates past
    the target, so the restoring moment opposes it); the trailing term
    transports the desired rate and its derivative into the body frame.
    """
    e_R, e_Omega = errors
    transport = np.swapaxes(R_k, -1, -2) @ R_des
    return (
        -np.diagonal(gains.K_R) * e_R
        - np.diagonal(gains.K_Omega) * e_Omega
        + so3.cross3_rows(omega_k, so3.matvec(J_k, omega_k))
        - so3.matvec(
            J_k,
            so3.matvec(so3.hat(omega_k) @ transport, omega_des)
            - so3.matvec(transport, omega_dot_des),
        )
    )
