"""Tracking errors, formation separations, and constraint checking.

Everything here is pure geometry on snapshots: line-of-sight distances for the
payload and each vehicle, pairwise separation errors for the formation,
obstacle clearance, and cable-tension bounds.  Violations are reported as
signed margins, never raised.  Snapshots are stacked along a leading axis,
so a whole run is checked in one call.
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
    """Bound set consumed by check_all.

    Every bound is one constant: the payload and vehicle funnel radii, and
    pair_width, the (n(n-1)/2,) allowed shrink or stretch of each pair's
    separation relative to desired, in row-major pair order.
    """

    f_max: float
    payload_radius: float
    mav_radius: float
    pair_width: np.ndarray
    obstacle_center: Optional[np.ndarray] = None
    obstacle_clearance: float = 0.0


# default_bounds' vehicle funnel radius (m), and its pair bounds as a
# fraction of each pair's desired separation
MAV_RADIUS = 0.2
PAIR_FRACTION = 0.3


def default_bounds(
    mav_p_des0: np.ndarray,
    f_max: float,
    payload_radius: float = 0.2,
    obstacle_center: Optional[np.ndarray] = None,
    obstacle_clearance: float = 0.0,
) -> ConstraintBounds:
    """Constant bounds sized off the initial desired formation.

    Vehicles get a MAV_RADIUS funnel, and each pair may shrink or stretch
    by PAIR_FRACTION times its desired separation.
    """
    return ConstraintBounds(
        f_max=f_max,
        payload_radius=payload_radius,
        mav_radius=MAV_RADIUS,
        pair_width=PAIR_FRACTION * pair_separations(np.asarray(mav_p_des0, dtype=np.float64)),
        obstacle_center=None if obstacle_center is None else np.asarray(obstacle_center),
        obstacle_clearance=obstacle_clearance,
    )


def check_all(
    payload_p: np.ndarray,
    payload_p_des: np.ndarray,
    mav_p: np.ndarray,
    mav_p_des: np.ndarray,
    tensions: np.ndarray,
    bounds: ConstraintBounds,
):
    """Evaluate every tracking, formation, obstacle, and tension constraint
    of T snapshots.

    Margins, read off the table, are signed distances to the nearest bound;
    a violated constraint shows up with margin < 0, nothing raises.  The
    snapshots are stacked along a leading axis (payload_p (T, 3), mav_p
    (T, n, 3), tensions (T, n)) and give a ConstraintTable with one row each;
    the desired positions may be stacked or shared by every snapshot.
    """
    n = np.shape(mav_p)[-2]
    payload_p, payload_p_des = (np.reshape(p, (-1, 3)) for p in (payload_p, payload_p_des))
    mav_p, mav_p_des = (np.reshape(p, (-1, n, 3)) for p in (mav_p, mav_p_des))
    pairs = list(itertools.combinations(range(n), 2))
    w = bounds.pair_width
    ids = ["payload_funnel", *(f"mav{i}_funnel" for i in range(n))]
    ids += [f"separation_{i}_{j}" for i, j in pairs] + [f"tension_{i}" for i in range(n)]
    lower = [np.nan] * (1 + n) + (-w).tolist() + [np.nan] * n
    upper = [bounds.payload_radius] + [bounds.mav_radius] * n + w.tolist() + [bounds.f_max] * n
    if bounds.obstacle_center is not None:
        ids.append("obstacle")
        lower.append(bounds.obstacle_clearance)
        upper.append(np.nan)

    # each group of columns written in place, in ids order
    value = np.empty((len(mav_p), len(ids)))
    value[:, 0] = so3.norm_rows(payload_p - payload_p_des)
    value[:, 1 : 1 + n] = so3.norm_rows(mav_p - mav_p_des)
    s = 1 + n + len(pairs)  # the first tension column
    np.subtract(pair_separations(mav_p_des), pair_separations(mav_p), out=value[:, 1 + n : s])
    value[:, s : s + n] = np.asarray(tensions, dtype=np.float64)[..., :n]
    if bounds.obstacle_center is not None:
        value[:, -1] = so3.norm_rows(payload_p - bounds.obstacle_center)
    return ConstraintTable(tuple(ids), value, np.array(lower), np.array(upper))
