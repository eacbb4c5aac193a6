"""Tracking errors, formation separations, and constraint checking.

Everything here is pure geometry on snapshots: line-of-sight distances, pair
separations of the formation, and the margins of the bounds the planner
imposes on the payload (its tracking funnel and, when an obstacle is set,
its clearance).  Violations are reported as signed margins, never raised.
Snapshots are stacked along a leading axis, so a whole run is checked in
one call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import so3


def payload_los_error(p_L: np.ndarray, p_des: np.ndarray) -> float:
    """Line-of-sight distance between actual and desired payload position."""
    return float(np.linalg.norm(np.asarray(p_L) - np.asarray(p_des)))


def pair_separation(p_i: np.ndarray, p_j: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(p_i) - np.asarray(p_j)))


def pair_separations(P: np.ndarray) -> np.ndarray:
    """pair_separation of every pair i < j of the rows of P (..., n, 3), in
    row-major pair order (0-1, 0-2, ..., 1-2, ...)."""
    pairs = list(itertools.combinations(range(P.shape[-2]), 2))
    out = np.empty(P.shape[:-2] + (len(pairs),))
    for c, (i, j) in enumerate(pairs):
        out[..., c] = so3.norm_rows(P[..., i, :] - P[..., j, :])
    return out


@dataclass
class ConstraintBounds:
    """Bound set consumed by check_all: the payload funnel radius and, when
    obstacle_center is set, the payload's clearance from it."""

    payload_radius: float
    obstacle_center: Optional[np.ndarray] = None
    obstacle_clearance: float = 0.0


def default_bounds(
    payload_radius: float = 0.2,
    obstacle_center: Optional[np.ndarray] = None,
    obstacle_clearance: float = 0.0,
) -> ConstraintBounds:
    """The planner's bounds: its funnel radius and its obstacle, if any."""
    return ConstraintBounds(
        payload_radius=payload_radius,
        obstacle_center=None if obstacle_center is None else np.asarray(obstacle_center),
        obstacle_clearance=obstacle_clearance,
    )


def check_all(
    payload_p: np.ndarray, payload_p_des: np.ndarray, bounds: ConstraintBounds
) -> dict[str, np.ndarray]:
    """Signed margins of the payload funnel and, with an obstacle, its
    clearance over T snapshots.

    Each constraint id maps to its (T,) margin, the signed distance to its
    bound: a violated constraint shows up with margin < 0, nothing raises.
    The positions are stacked along a leading axis (T, 3), or one (3,)
    snapshot, and give one margin each; the desired position may be stacked
    or shared by every snapshot.
    """
    payload_p, payload_p_des = (np.reshape(p, (-1, 3)) for p in (payload_p, payload_p_des))
    margins = {"payload_funnel": bounds.payload_radius - so3.norm_rows(payload_p - payload_p_des)}
    if bounds.obstacle_center is not None:
        distance = so3.norm_rows(payload_p - bounds.obstacle_center)
        margins["obstacle"] = distance - bounds.obstacle_clearance
    return margins
