"""Attitude representations and maps shared by every other module.

Conventions used across the stack:
  * world frame is z-up, rotation matrices map body coordinates to world,
  * quaternions are scalar-first [w, x, y, z] with the Hamilton product.

Quaternion helpers broadcast over leading axes so trajectory batches can be
processed in one call.  The per-tick kernels on Python floats (plant,
cable_control, allocation, harness) write their 3-vector products out
instead: one helper call costs more than its few multiplies.
"""

from __future__ import annotations

import numpy as np


def hat(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric cross-product matrix: hat(v) @ w == cross(v, w).

    Broadcasts over leading axes: (..., 3) vectors give (..., 3, 3) matrices.
    """
    v = np.asarray(v, dtype=np.float64)
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1], out[..., 0, 2] = -v[..., 2], v[..., 1]
    out[..., 1, 0], out[..., 1, 2] = v[..., 2], -v[..., 0]
    out[..., 2, 0], out[..., 2, 1] = -v[..., 1], v[..., 0]
    return out


# ---------------------------------------------------------------------------
# rows of 3-vectors along leading axes, in numpy


_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def cross3_rows(A, B) -> np.ndarray:
    """Row-wise cross product over trailing-3 arrays (broadcasts like np.cross)."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    return A.take(_NEXT, axis=-1) * B.take(_PREV, axis=-1) - A.take(_PREV, axis=-1) * B.take(
        _NEXT, axis=-1
    )


def dot_rows(a, b) -> np.ndarray:
    """Row-wise dot product over trailing-3 arrays (broadcasts).

    Taken as stacked (1, 3) @ (3, 1) products, so each row rounds exactly as
    the 1-D `a @ b` of that row does; a sum of elementwise products rounds
    differently.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def norm_rows(a) -> np.ndarray:
    """Row-wise Euclidean norm, rounding as the 1-D np.linalg.norm does."""
    return np.sqrt(dot_rows(a, a))


# ---------------------------------------------------------------------------
# quaternions (scalar-first, Hamilton product); broadcast over leading axes


def quat_identity() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


# Flat indices 4 a + b into the outer product q1[a] * q2[b] of the Hamilton
# product's terms: out = (T[_QM_A] + _QM_SIGN * T[_QM_B]) + (T[_QM_C] - T[_QM_D])
# on the vector part; the scalar part folds its four terms left to right.
_QM_A = np.array([0, 1, 2, 3])
_QM_B = np.array([5, 4, 8, 12])
_QM_SIGN = np.array([-1.0, 1.0, 1.0, 1.0])
_QM_C = np.array([11, 13, 6])
_QM_D = np.array([14, 7, 9])


def quat_mul(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Hamilton product q1 * q2 (raw; no renormalization)."""
    q1 = np.asarray(q1, dtype=np.float64)
    q2 = np.asarray(q2, dtype=np.float64)
    outer = q1[..., :, None] * q2[..., None, :]
    outer = outer.reshape(outer.shape[:-2] + (16,))
    # w1 w2 - x1 x2 - y1 y2 - z1 z2, and the vector part grouped as
    # (w1 x2 + x1 w2) + (y1 z2 - z1 y2), so q * conj(q) has an exactly-zero
    # vector part
    out = outer.take(_QM_A, axis=-1) + _QM_SIGN * outer.take(_QM_B, axis=-1)
    out[..., 0] -= outer[..., 10]
    out[..., 0] -= outer[..., 15]
    out[..., 1:] += outer.take(_QM_C, axis=-1) - outer.take(_QM_D, axis=-1)
    return out


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


# rotation matrix entry (r, c) is 1 - 2 s on the diagonal and 2 s off it,
# where s = q[a] q[b] + sign * q[a'] q[b'] with the pairs below
_ROT_A = np.array([10, 6, 7, 6, 5, 11, 7, 11, 5])  # 4 a + b
_ROT_B = np.array([15, 3, 2, 3, 15, 1, 2, 1, 10])  # 4 a' + b'
_ROT_SIGN = np.array([1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0])
_ROT_DIAG = np.eye(3, dtype=bool).reshape(9)


def quat_to_rotation(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion; shape (..., 3, 3)."""
    q = np.asarray(q, dtype=np.float64)
    # the entries' sums taken from the outer product q q^T in a few array
    # operations; one quaternion (4,) is the case with no leading axis
    outer = (q[..., :, None] * q[..., None, :]).reshape(q.shape[:-1] + (16,))
    s = outer.take(_ROT_A, axis=-1) + _ROT_SIGN * outer.take(_ROT_B, axis=-1)
    return np.where(_ROT_DIAG, 1.0 - 2.0 * s, 2.0 * s).reshape(q.shape[:-1] + (3, 3))


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
    S = hat(rotvec)
    small = theta < 1e-6
    safe = np.where(small, 1.0, theta)
    coeff = np.where(
        small, 1.0 / 12.0, (1.0 - 0.5 * safe * np.sin(safe) / (1.0 - np.cos(safe))) / (safe * safe)
    )
    return np.eye(3) - 0.5 * S + coeff[..., None, None] * (S @ S)
