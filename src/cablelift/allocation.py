"""Allocation of the payload wrench to cable tensions.

The payload wrench commanded by the optimizer is split across cables by a
minimal-norm pseudo-inverse of the attachment geometry, then projected onto
the actual cable directions; the plan, not the allocation, keeps the vehicles
apart.  Per-cable force vectors are expressed in the world frame; the
allocation itself happens in the payload frame.

Sign convention: mu_k is the force cable k exerts on the payload, so a
hovering rig gets mu_k pointing up and the desired cable direction
xi_des = -mu/|mu| points from each vehicle down toward its attachment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import so3

TENSION_FLOOR = 1e-6  # N; below this a cable direction is undefined


class RankDeficient(ValueError):
    """Attachment geometry cannot realize every 6-DoF wrench."""


class ZeroTension(ValueError):
    """Desired tension too small to define a cable direction."""


@dataclass(frozen=True)
class AllocationMap:
    """Stacked-force map for one attachment geometry.

    P maps stacked payload-frame per-cable forces to the total (force, moment)
    they produce; P_pinv is its minimal-norm right inverse, also as float
    tuples for the per-tick functions below, and Z an orthonormal basis of
    the wrench-neutral subspace.
    """

    n: int
    P: np.ndarray  # (6, 3n)
    P_pinv: np.ndarray  # (3n, 6)
    Z: np.ndarray  # (3n, 3n - 6)
    pinv_rows: tuple  # P_pinv.tolist(), rows as tuples


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
    return AllocationMap(n=n, P=P, P_pinv=P_pinv, Z=Z, pinv_rows=tuple(map(tuple, P_pinv.tolist())))


# Forces are lists with one float 3-tuple per cable, and the payload
# rotation R_L a row-major 9-tuple (as `plant._rotation` gives it); the
# products with R_L are written out, as in the other per-tick kernels.


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


def nullspace_redistribute(mu_des, attachments_world, R_L, amap: AllocationMap, l_i) -> list:
    """The identity: returns mu_des itself.

    The tick does not call it, and the plan, not the allocation, keeps the
    vehicles apart; the name stays only because the benchmark's tracer
    wraps it.
    """
    return mu_des


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
