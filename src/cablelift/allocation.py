"""Allocation of the payload wrench to cable tensions.

The payload wrench commanded by the optimizer is split across cables by a
minimal-norm pseudo-inverse of the attachment geometry, optionally shifted
inside the null space to keep vehicles apart, then projected onto the actual
cable directions.  Per-cable force vectors are expressed in the world frame;
the allocation itself happens in the payload frame.

Sign convention: mu_k is the force cable k exerts on the payload, so a
hovering rig gets mu_k pointing up and the desired cable direction
xi_des = -mu/|mu| points from each vehicle down toward its attachment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.linalg

from . import metrics, so3

TENSION_FLOOR = 1e-6  # N; below this a cable direction is undefined


class RankDeficient(ValueError):
    """Attachment geometry cannot realize every 6-DoF wrench."""


class ZeroTension(ValueError):
    """Desired tension too small to define a cable direction."""


@dataclass(frozen=True)
class AllocationMap:
    """Stacked-force map for one attachment geometry.

    P maps stacked payload-frame per-cable forces to the total (force, moment)
    they produce; P_pinv is its minimal-norm right inverse and Z an
    orthonormal basis of the wrench-neutral subspace.
    """

    n: int
    P: np.ndarray  # (6, 3n)
    P_pinv: np.ndarray  # (3n, 6)
    Z: np.ndarray  # (3n, 3n - 6)


def build_allocation(r_i: np.ndarray) -> AllocationMap:
    """Build the stacked-force map for attachment offsets r_i (payload frame).

    Raises RankDeficient when the geometry cannot span all six wrench
    directions (collinear or coincident attachments).
    """
    r = np.asarray(r_i, dtype=np.float64).reshape(-1, 3)
    n = len(r)
    if n < 3:
        raise RankDeficient("need at least 3 attachments")
    P = np.zeros((6, 3 * n))
    for k in range(n):
        P[0:3, 3 * k : 3 * k + 3] = np.eye(3)
        P[3:6, 3 * k : 3 * k + 3] = so3.hat(r[k])
    if np.linalg.matrix_rank(P) < 6:
        raise RankDeficient("attachment geometry spans fewer than 6 wrench directions")
    P_pinv = np.linalg.pinv(P)
    Z = scipy.linalg.null_space(P)
    return AllocationMap(n=n, P=P, P_pinv=P_pinv, Z=Z)


def allocate(wrench: np.ndarray, R_L: np.ndarray, amap: AllocationMap) -> np.ndarray:
    """Minimal-norm per-cable forces realizing the wrench row [F, M]; rows
    world frame.

    F is taken in the world frame and M in the payload frame; the stacked
    payload-frame solution is rotated back out block by block.
    """
    wrench = np.asarray(wrench, dtype=np.float64)
    target = np.concatenate([R_L.T @ wrench[0:3], wrench[3:6]])
    stacked = amap.P_pinv @ target
    return (stacked.reshape(amap.n, 3) @ R_L.T).copy()


def stack_body(mu_world: np.ndarray, R_L: np.ndarray) -> np.ndarray:
    """World-frame rows back to one stacked payload-frame vector."""
    return (np.asarray(mu_world) @ R_L).reshape(-1)


def _predicted_positions(
    stacked_body: np.ndarray, attachments_world: np.ndarray, R_L: np.ndarray, l_i: np.ndarray
) -> Optional[np.ndarray]:
    """Static-geometry vehicle positions implied by candidate cable forces.

    Each vehicle sits one cable length up the desired direction from its
    attachment; undefined (None) if any candidate force is near zero.
    """
    mu_world = stacked_body.reshape(-1, 3) @ R_L.T
    norms = np.linalg.norm(mu_world, axis=1)
    if (norms <= TENSION_FLOOR).any():
        return None
    xi = -mu_world / norms[:, None]
    return attachments_world - l_i[:, None] * xi


def _separation_surrogate(
    stacked_body: np.ndarray,
    attachments_world: np.ndarray,
    R_L: np.ndarray,
    l_i: np.ndarray,
    d_safe: float,
    lam_sep: float,
) -> Optional[np.ndarray]:
    """Stacked hinge residuals sqrt(lam)*max(0, d_safe - dist) per pair."""
    pos = _predicted_positions(stacked_body, attachments_world, R_L, l_i)
    if pos is None:
        return None
    gap = d_safe - metrics.pair_separations(pos)
    return np.sqrt(lam_sep) * np.maximum(0.0, gap)


def nullspace_redistribute(
    mu_des: np.ndarray,
    attachments_world: np.ndarray,
    R_L: np.ndarray,
    amap: AllocationMap,
    l_i: np.ndarray,
    d_safe: float = 0.4,
    lam_sep: float = 10.0,
) -> np.ndarray:
    """Shift the allocation inside the null space to open up vehicle spacing.

    Minimizes lam_sep * sum of squared pairwise-separation hinges plus |c|^2
    with one Gauss-Newton step from c = 0; the realized wrench is untouched
    because the shift lives in the null space of the stacked-force map.
    Returns the input unchanged whenever no pair is predicted inside d_safe.
    """
    mu_des = np.asarray(mu_des, dtype=np.float64)
    l_i = np.broadcast_to(np.asarray(l_i, dtype=np.float64), (amap.n,))
    stacked0 = stack_body(mu_des, R_L)
    r0 = _separation_surrogate(stacked0, attachments_world, R_L, l_i, d_safe, lam_sep)
    if r0 is None or not (r0 > 0.0).any():
        return mu_des

    m = amap.Z.shape[1]
    step = 1e-6
    J = np.zeros((len(r0), m))
    for a in range(m):
        pert = _separation_surrogate(
            stacked0 + step * amap.Z[:, a], attachments_world, R_L, l_i, d_safe, lam_sep
        )
        if pert is None:
            return mu_des
        J[:, a] = (pert - r0) / step

    # least-squares step on [sqrt(lam)*hinge; c] with Jacobian [J; I]
    A = np.vstack([J, np.eye(m)])
    b = -np.concatenate([r0, np.zeros(m)])
    c, *_ = np.linalg.lstsq(A, b, rcond=None)

    cand = stacked0 + amap.Z @ c
    r_new = _separation_surrogate(cand, attachments_world, R_L, l_i, d_safe, lam_sep)
    if r_new is None:
        return mu_des
    before = float(r0 @ r0)
    after = float(r_new @ r_new) + float(c @ c)
    if after >= before:
        return mu_des
    return (cand.reshape(amap.n, 3) @ R_L.T).copy()


def project_tension(mu_des: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Component of the desired force along the actual cable line, per row."""
    xi = np.asarray(xi, dtype=np.float64)
    return xi * so3.dot_rows(xi, mu_des)[..., None]


def desired_cable_direction(
    mu_des_now: np.ndarray,
    mu_des_prev: Optional[np.ndarray],
    dt: float,
    tension_floor: float = TENSION_FLOOR,
) -> Tuple[np.ndarray, np.ndarray]:
    """Desired cable direction and its angular velocity from consecutive ticks,
    for one force or for rows of them.

    The direction rate comes from a backward difference of the unit
    directions; the first tick (no previous force) and a previous force at
    or below the floor give zero rate.  Raises ZeroTension when a current
    force cannot define a direction.
    """
    mu_now = np.asarray(mu_des_now, dtype=np.float64)
    norm_now = so3.norm_rows(mu_now)
    if not (norm_now > tension_floor).all():
        raise ZeroTension(f"desired tension {np.min(norm_now):.2e} N below floor")
    xi_des = -mu_now / norm_now[..., None]
    xi_dot = np.zeros(mu_now.shape)
    if mu_des_prev is not None:
        mu_prev = np.asarray(mu_des_prev, dtype=np.float64)
        norm_prev = so3.norm_rows(mu_prev)
        defined = (norm_prev > tension_floor)[..., None]
        prev_dir = -mu_prev / np.where(defined, norm_prev[..., None], 1.0)
        xi_dot = np.where(defined, (xi_des - prev_dir) / dt, 0.0)
    omega_des = so3.cross3_rows(xi_des, xi_dot)
    return xi_des, omega_des
