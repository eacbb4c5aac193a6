"""Attitude representations and maps shared by every other module.

Conventions used across the stack:
  * world frame is z-up, rotation matrices map body coordinates to world,
  * quaternions are scalar-first [w, x, y, z] with the Hamilton product.

Quaternion helpers broadcast over leading axes so trajectory batches can be
processed in one call.
"""

from __future__ import annotations

import math

import numpy as np

EPS = 1e-12


class NotSkew(ValueError):
    """vee() received a matrix that is not skew-symmetric."""


def hat(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric cross-product matrix: hat(v) @ w == cross(v, w)."""
    v = np.asarray(v, dtype=np.float64)
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def vee(S: np.ndarray) -> np.ndarray:
    """Inverse of hat. Requires ||S + S^T|| <= 1e-9."""
    S = np.asarray(S, dtype=np.float64)
    if np.linalg.norm(S + S.T) > 1e-9:
        raise NotSkew("vee() input is not skew-symmetric")
    return np.array([S[2, 1], S[0, 2], S[1, 0]])


def cross3(a, b) -> np.ndarray:
    """Cross product of two 3-vectors.

    Same arithmetic as np.cross but without its axis-juggling overhead,
    which dominates when called once per vector inside control loops.
    """
    return np.array(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


def cross3_rows(A, B) -> np.ndarray:
    """Row-wise cross product over trailing-3 arrays (broadcasts like np.cross)."""
    a0, a1, a2 = A[..., 0], A[..., 1], A[..., 2]
    b0, b1, b2 = B[..., 0], B[..., 1], B[..., 2]
    out = np.empty(np.broadcast(a0, b0).shape + (3,))
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


# ---------------------------------------------------------------------------
# quaternions (scalar-first, Hamilton product); broadcast over leading axes


def quat_identity() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


def quat_mul(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Hamilton product q1 * q2 (raw; no renormalization)."""
    q1 = np.asarray(q1, dtype=np.float64)
    q2 = np.asarray(q2, dtype=np.float64)
    w1, x1, y1, z1 = q1[..., 0], q1[..., 1], q1[..., 2], q1[..., 3]
    w2, x2, y2, z2 = q2[..., 0], q2[..., 1], q2[..., 2], q2[..., 3]
    # grouping chosen so q * conj(q) has an exactly-zero vector part
    return np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            (w1 * x2 + x1 * w2) + (y1 * z2 - z1 * y2),
            (w1 * y2 + y1 * w2) + (z1 * x2 - x1 * z2),
            (w1 * z2 + z1 * w2) + (x1 * y2 - y1 * x2),
        ],
        axis=-1,
    )


def quat_conj(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Unit-normalize and pick the scalar >= 0 hemisphere."""
    q = np.asarray(q, dtype=np.float64)
    n = np.linalg.norm(q, axis=-1, keepdims=True)
    q = q / n
    sign = np.where(q[..., :1] < 0.0, -1.0, 1.0)
    return q * sign


def quat_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    half = 0.5 * angle
    return np.concatenate([[math.cos(half)], math.sin(half) * axis])


def quat_to_rotation(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion; shape (..., 3, 3)."""
    q = np.asarray(q, dtype=np.float64)
    if q.ndim == 1:
        w, x, y, z = q
        out = np.empty((3, 3))
        out[0, 0] = 1 - 2 * (y * y + z * z)
        out[0, 1] = 2 * (x * y - w * z)
        out[0, 2] = 2 * (x * z + w * y)
        out[1, 0] = 2 * (x * y + w * z)
        out[1, 1] = 1 - 2 * (x * x + z * z)
        out[1, 2] = 2 * (y * z - w * x)
        out[2, 0] = 2 * (x * z - w * y)
        out[2, 1] = 2 * (y * z + w * x)
        out[2, 2] = 1 - 2 * (x * x + y * y)
        return out
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    row0 = np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], axis=-1)
    row1 = np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], axis=-1)
    row2 = np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], axis=-1)
    return np.stack([row0, row1, row2], axis=-2)


def quat_exp(rotvec: np.ndarray) -> np.ndarray:
    """Unit quaternion for a rotation vector (angle * axis)."""
    rotvec = np.asarray(rotvec, dtype=np.float64)
    angle = np.linalg.norm(rotvec, axis=-1, keepdims=True)
    half = 0.5 * angle
    small = angle < 1e-10
    # sin(half)/angle -> 1/2 - angle^2/48 for small angles
    k = np.where(small, 0.5 - angle * angle / 48.0, np.sin(half) / np.where(small, 1.0, angle))
    return np.concatenate([np.cos(half), k * rotvec], axis=-1)


def quat_log(q: np.ndarray) -> np.ndarray:
    """Rotation vector of a unit quaternion, hemisphere-normalized; norm <= pi."""
    q = np.asarray(q, dtype=np.float64)
    sign = np.where(q[..., :1] < 0.0, -1.0, 1.0)
    q = q * sign
    w = q[..., 0]
    v = q[..., 1:]
    s = np.linalg.norm(v, axis=-1)
    angle = 2.0 * np.arctan2(s, w)
    small = s < 1e-10
    scale = np.where(small, 2.0 / np.where(w == 0.0, 1.0, w), angle / np.where(small, 1.0, s))
    return scale[..., None] * v


def omega_to_quat_dot(q: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Quaternion kinematics for body-frame angular velocity."""
    q = np.asarray(q, dtype=np.float64)
    omega = np.asarray(omega, dtype=np.float64)
    zeros = np.zeros(omega.shape[:-1] + (1,))
    return 0.5 * quat_mul(q, np.concatenate([zeros, omega], axis=-1))


def attitude_error_log(q: np.ndarray, q_des: np.ndarray) -> np.ndarray:
    """Rotation-vector logarithm of the relative rotation q * q_des^-1.

    Zero iff the two rotations coincide; norm <= pi by hemisphere choice.
    """
    return quat_log(quat_mul(q, quat_conj(q_des)))


def left_jacobian_inverse(rotvec: np.ndarray) -> np.ndarray:
    """Inverse left Jacobian of the rotation exponential at the given vector.

    Satisfies d/da log(Exp(a) Exp(b)) |_(a=0) = left_jacobian_inverse(b).
    Broadcasts over leading axes: (..., 3) vectors give (..., 3, 3) matrices.
    """
    rotvec = np.asarray(rotvec, dtype=np.float64)
    theta = np.linalg.norm(rotvec, axis=-1)
    x, y, z = rotvec[..., 0], rotvec[..., 1], rotvec[..., 2]
    S = np.zeros(rotvec.shape[:-1] + (3, 3))
    S[..., 0, 1], S[..., 0, 2] = -z, y
    S[..., 1, 0], S[..., 1, 2] = z, -x
    S[..., 2, 0], S[..., 2, 1] = -y, x
    small = theta < 1e-6
    safe = np.where(small, 1.0, theta)
    coeff = np.where(
        small, 1.0 / 12.0, (1.0 - 0.5 * safe * np.sin(safe) / (1.0 - np.cos(safe))) / (safe * safe)
    )
    return np.eye(3) - 0.5 * S + coeff[..., None, None] * (S @ S)
