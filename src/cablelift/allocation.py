"""Allocation of the payload wrench to cable tensions.

The payload wrench commanded by the optimizer is split across cables by a
minimal-norm pseudo-inverse of the attachment geometry, then projected onto
the actual cable directions; the plan, not the allocation, keeps the vehicles
apart, and the tick never calls `nullspace_redistribute`.  Per-cable force
vectors are expressed in the world frame; the allocation itself happens in
the payload frame.

Sign convention: mu_k is the force cable k exerts on the payload, so a
hovering rig gets mu_k pointing up and the desired cable direction
xi_des = -mu/|mu| points from each vehicle down toward its attachment.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import so3

TENSION_FLOOR = 1e-6  # N; below this a cable direction is undefined
# nullspace_redistribute: vehicle spacing (m) below which a pair is pushed
# apart, and the weight of the spacing hinges against the shift size
D_SAFE = 0.4
LAM_SEP = 10.0


class RankDeficient(ValueError):
    """Attachment geometry cannot realize every 6-DoF wrench."""


class ZeroTension(ValueError):
    """Desired tension too small to define a cable direction."""


@dataclass(frozen=True)
class AllocationMap:
    """Stacked-force map for one attachment geometry.

    P maps stacked payload-frame per-cable forces to the total (force, moment)
    they produce; P_pinv is its minimal-norm right inverse and Z an
    orthonormal basis of the wrench-neutral subspace, the last two also as
    float tuples for the per-tick functions below.
    """

    n: int
    P: np.ndarray  # (6, 3n)
    P_pinv: np.ndarray  # (3n, 6)
    Z: np.ndarray  # (3n, 3n - 6)
    pinv_rows: tuple  # P_pinv.tolist(), rows as tuples
    null_cols: tuple  # Z.T.tolist(), columns as tuples


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
    # one SVD gives the rank (np.linalg.matrix_rank's tolerance) and, past the
    # first six right singular vectors, an orthonormal basis of the null space
    _, s, vh = np.linalg.svd(P)
    if s[5] <= s[0] * 3 * n * np.finfo(np.float64).eps:
        raise RankDeficient("attachment geometry spans fewer than 6 wrench directions")
    P_pinv = np.linalg.pinv(P)
    Z = vh[6:].T
    return AllocationMap(
        n=n, P=P, P_pinv=P_pinv, Z=Z,
        pinv_rows=tuple(map(tuple, P_pinv.tolist())), null_cols=tuple(map(tuple, Z.T.tolist())),
    )


# Forces and positions are lists with one float 3-tuple per cable, and the
# payload rotation R_L a row-major 9-tuple (as `plant._rotation` gives it);
# the products with R_L are written out, as in the other per-tick kernels.


def _unstack(stacked, R_L) -> list:
    """A stacked payload-frame vector back to world-frame forces, R_L s each."""
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = R_L
    it = iter(stacked)
    return [
        (r00 * x + r01 * y + r02 * z, r10 * x + r11 * y + r12 * z, r20 * x + r21 * y + r22 * z)
        for x, y, z in zip(it, it, it)
    ]


def allocate(wrench, R_L, amap: AllocationMap) -> list:
    """Minimal-norm per-cable forces realizing the wrench [F, M] (6 floats),
    world frame.

    F is taken in the world frame and M in the payload frame; the stacked
    payload-frame solution is rotated back out block by block.
    """
    t0, t1, t2 = stack_body([wrench[0:3]], R_L)
    t3, t4, t5 = wrench[3:6]
    stacked = [
        a0 * t0 + a1 * t1 + a2 * t2 + a3 * t3 + a4 * t4 + a5 * t5
        for a0, a1, a2, a3, a4, a5 in amap.pinv_rows
    ]
    return _unstack(stacked, R_L)


def stack_body(mu_world, R_L) -> list:
    """World-frame forces back to one stacked payload-frame vector, R_L^T mu
    each."""
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = R_L
    out = []
    for x, y, z in mu_world:
        out += (r00 * x + r10 * y + r20 * z, r01 * x + r11 * y + r21 * z,
                r02 * x + r12 * y + r22 * z)
    return out


def _predicted_positions(stacked_body, attachments_world, R_L, l_i) -> Optional[list]:
    """Static-geometry vehicle positions implied by candidate cable forces.

    Each vehicle sits one cable length up the desired direction from its
    attachment; undefined (None) if any candidate force is near zero.
    """
    out = []
    forces = _unstack(stacked_body, R_L)
    for (mx, my, mz), (ax, ay, az), length in zip(forces, attachments_world, l_i):
        norm = math.sqrt(mx * mx + my * my + mz * mz)
        if not norm > TENSION_FLOOR:
            return None
        ux, uy, uz = -mx / norm, -my / norm, -mz / norm
        out.append((ax - length * ux, ay - length * uy, az - length * uz))
    return out


def _separation_surrogate(stacked_body, attachments_world, R_L, l_i) -> Optional[list]:
    """Hinge residuals sqrt(LAM_SEP)*max(0, D_SAFE - dist), one per pair i < j
    in row-major pair order."""
    pos = _predicted_positions(stacked_body, attachments_world, R_L, l_i)
    if pos is None:
        return None
    scale = math.sqrt(LAM_SEP)
    out = []
    for i, (xi, yi, zi) in enumerate(pos):
        for xj, yj, zj in pos[i + 1 :]:
            dx, dy, dz = xi - xj, yi - yj, zi - zj
            gap = D_SAFE - math.sqrt(dx * dx + dy * dy + dz * dz)
            out.append(scale * (gap if gap > 0.0 else 0.0))
    return out


def _hinge_jacobian(stacked_body, attachments_world, R_L, l_i, amap: AllocationMap, r0):
    """Closed-form Jacobian of the hinge residuals r0 of `_separation_surrogate`
    in the null-space coordinates c of stacked_body + Z c, at c = 0; the rows
    of flat hinges (r0 zero) are zero.

    A vehicle sits at p_k = a_k + l_k n_k with n_k = mu_k / |mu_k| and
    mu_k = R_L s_k, so dp_k = l_k / |mu_k| (I - n_k n_k^T) R_L ds_k, and an
    active hinge sqrt(lam) (D_SAFE - |p_i - p_j|) moves by
    -sqrt(lam) e^T (dp_i - dp_j), e the unit vector from p_j to p_i, with
    lam = LAM_SEP.
    """
    n = amap.n
    R = np.reshape(R_L, (3, 3))
    mu = np.reshape(stacked_body, (n, 3)) @ R.T
    norm = np.linalg.norm(mu, axis=1)
    unit = mu / norm[:, None]
    pos = np.asarray(attachments_world) + np.asarray(l_i)[:, None] * unit
    dmu = R @ amap.Z.reshape(n, 3, -1)  # (n, 3, null dim)
    radial = unit[:, :, None] * np.einsum("ki,kic->kc", unit, dmu)[:, None, :]
    dpos = (np.asarray(l_i) / norm)[:, None, None] * (dmu - radial)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    J = np.zeros((len(pairs), amap.Z.shape[1]))
    scale = math.sqrt(LAM_SEP)
    for row, ((i, j), r) in enumerate(zip(pairs, r0)):
        if r > 0.0:
            e = pos[i] - pos[j]
            J[row] = -scale * (e / np.linalg.norm(e)) @ (dpos[i] - dpos[j])
    return J


def nullspace_redistribute(mu_des, attachments_world, R_L, amap: AllocationMap, l_i) -> list:
    """Shift the allocation inside the null space to open up vehicle spacing.

    The tick does not call it; it stays only as a name the benchmark's
    tracer wraps.  Minimizes LAM_SEP * sum of squared pairwise-separation
    hinges plus |c|^2 with one Gauss-Newton step from c = 0, its Jacobian in
    closed form (`_hinge_jacobian`); the realized wrench is untouched because
    the shift lives in the null space of the stacked-force map.  Returns the
    input unchanged whenever no pair is predicted inside D_SAFE.
    """
    def surrogate(stacked):
        return _separation_surrogate(stacked, attachments_world, R_L, l_i)

    stacked0 = stack_body(mu_des, R_L)
    r0 = surrogate(stacked0)
    if r0 is None or not any(r > 0.0 for r in r0):
        return mu_des

    # least-squares step on [sqrt(lam)*hinge; c] with Jacobian [J; I]
    J = _hinge_jacobian(stacked0, attachments_world, R_L, l_i, amap, r0)
    m = J.shape[1]
    A = np.vstack([J, np.eye(m)])
    b = -np.concatenate([r0, np.zeros(m)])
    c = np.linalg.lstsq(A, b, rcond=None)[0].tolist()

    null_rows = zip(*amap.null_cols)
    cand = [s + sum(map(operator.mul, z_row, c)) for s, z_row in zip(stacked0, null_rows)]
    r_new = surrogate(cand)
    if r_new is None:
        return mu_des
    before = sum(r * r for r in r0)
    after = sum(r * r for r in r_new) + sum(x * x for x in c)
    if after >= before:
        return mu_des
    return _unstack(cand, R_L)


def project_tension(mu_des, xi) -> list:
    """Component of each desired force along its actual cable line."""
    out = []
    for (x, y, z), mu in zip(xi, mu_des):
        d = x * mu[0] + y * mu[1] + z * mu[2]
        out.append((x * d, y * d, z * d))
    return out


def desired_cable_direction(mu_des_now, xi_prev, dt: float) -> Tuple[list, list]:
    """Desired cable direction of each force and its angular velocity, a
    backward difference against xi_prev, the directions returned the tick
    before (None on a first tick: zero rate).  Raises ZeroTension when a
    current force cannot define a direction."""
    xi_des = []
    for mx, my, mz in mu_des_now:
        norm = math.sqrt(mx * mx + my * my + mz * mz)
        if not norm > TENSION_FLOOR:
            raise ZeroTension(f"desired tension {norm:.2e} N below floor")
        xi_des.append((-mx / norm, -my / norm, -mz / norm))
    # the first tick differences each direction with itself
    omega_des = []
    for (x, y, z), (px, py, pz) in zip(xi_des, xi_des if xi_prev is None else xi_prev):
        dx, dy, dz = (x - px) / dt, (y - py) / dt, (z - pz) / dt
        omega_des.append((y * dz - z * dy, z * dx - x * dz, x * dy - y * dx))
    return xi_des, omega_des
