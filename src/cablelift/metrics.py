"""Tracking errors, formation separations, and constraint checking.

Everything here is pure geometry on snapshots: line-of-sight distances, pair
separations of the formation, and the table of the bounds the planner
imposes on the payload (its tracking funnel and, when an obstacle is set,
its clearance).  Violations are reported as signed margins, never raised.
Snapshots are stacked along a leading axis, so a whole run is checked in
one call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import so3


@dataclass(frozen=True)
class ConstraintTable:
    """check_all over stacked snapshots: row k of value (T, m) is snapshot
    k, column c is constraint ids[c], whose bounds are lower[c] and upper[c]
    (nan where the constraint has no such bound).  Margins are computed on
    read, never stored."""

    ids: Tuple[str, ...]
    value: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    @property
    def margin(self) -> np.ndarray:
        """(T, m) signed distance of every value to its nearest bound."""
        return np.fmin(self.upper - self.value, self.value - self.lower)

    def margins(self, id: str) -> np.ndarray:
        """(T,) margin of one constraint over every snapshot."""
        if id not in self.ids:
            raise KeyError(f"no constraint {id!r} in the table; it has {', '.join(self.ids)}")
        c = self.ids.index(id)
        return np.fmin(self.upper[c] - self.value[:, c], self.value[:, c] - self.lower[c])


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


def check_all(payload_p: np.ndarray, payload_p_des: np.ndarray, bounds: ConstraintBounds):
    """Evaluate the payload funnel and, with an obstacle, its clearance over
    T snapshots.

    Margins, read off the table, are signed distances to the nearest bound;
    a violated constraint shows up with margin < 0, nothing raises.  The
    positions are stacked along a leading axis (T, 3), or one (3,) snapshot,
    and give a ConstraintTable with one row each; the desired position may
    be stacked or shared by every snapshot.
    """
    payload_p, payload_p_des = (np.reshape(p, (-1, 3)) for p in (payload_p, payload_p_des))
    ids, lower, upper = ["payload_funnel"], [np.nan], [bounds.payload_radius]
    columns = [so3.norm_rows(payload_p - payload_p_des)]
    if bounds.obstacle_center is not None:
        ids.append("obstacle")
        lower.append(bounds.obstacle_clearance)
        upper.append(np.nan)
        columns.append(so3.norm_rows(payload_p - bounds.obstacle_center))
    value = np.stack(columns, axis=1)
    return ConstraintTable(tuple(ids), value, np.array(lower), np.array(upper))
