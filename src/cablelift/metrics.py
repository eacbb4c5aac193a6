"""Tracking errors, formation separations, and constraint checking.

Everything here is pure geometry on snapshots: line-of-sight distances for the
payload and each vehicle, pairwise separation errors for the formation,
obstacle clearance, and cable-tension bounds.  Violations are reported as
signed margins, never raised.  Snapshots are stacked along a leading axis,
so a whole run is checked in one call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import so3


@dataclass(frozen=True)
class ConstraintTable:
    """check_all over stacked snapshots: row k of each (T, m) array is
    snapshot k, column c is constraint ids[c].  lower and upper hold nan
    where the constraint has no such bound."""

    ids: Tuple[str, ...]
    value: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    margin: np.ndarray

    def margins(self, id: str) -> np.ndarray:
        """(T,) margin of one constraint over every snapshot."""
        return self.margin[:, self.ids.index(id)]


def payload_los_error(p_L: np.ndarray, p_des: np.ndarray) -> float:
    """Line-of-sight distance between actual and desired payload position."""
    return float(np.linalg.norm(np.asarray(p_L) - np.asarray(p_des)))


def pair_separation(p_i: np.ndarray, p_j: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(p_i) - np.asarray(p_j)))


@functools.lru_cache(maxsize=None)
def _pairs(n: int):
    """Row indices (i, j) of every pair i < j, in row-major pair order."""
    i, j = np.triu_indices(n, 1)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


def pair_separations(P: np.ndarray) -> np.ndarray:
    """pair_separation of every pair i < j of the rows of P (..., n, 3), in
    row-major pair order (0-1, 0-2, ..., 1-2, ...)."""
    i, j = _pairs(P.shape[-2])
    return so3.norm_rows(P[..., i, :] - P[..., j, :])


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

    Margins are signed distances to the nearest bound; a violated constraint
    shows up with margin < 0, nothing raises.  The snapshots are stacked
    along a leading axis (payload_p (T, 3), mav_p (T, n, 3), tensions (T, n))
    and give a ConstraintTable with one row each; the desired positions may
    be stacked or shared by every snapshot.
    """
    n = np.shape(mav_p)[-2]
    payload_p, payload_p_des = (np.reshape(p, (-1, 3)) for p in (payload_p, payload_p_des))
    mav_p, mav_p_des = (np.reshape(p, (-1, n, 3)) for p in (mav_p, mav_p_des))
    T = len(mav_p)
    ids: List[str] = []
    columns = []  # (value, lower, upper, margin), each broadcast to (T, k)

    def add(names, value, lower, upper, margin):
        ids.extend(names)
        columns.append([np.broadcast_to(a, (T, len(names))) for a in (value, lower, upper, margin)])

    e_L = so3.norm_rows(payload_p - payload_p_des)[:, None]
    eps = bounds.payload_radius
    add(["payload_funnel"], e_L, np.nan, eps, eps - e_L)

    e_i = so3.norm_rows(mav_p - mav_p_des)
    eps_i = bounds.mav_radius
    add([f"mav{i}_funnel" for i in range(n)], e_i, np.nan, eps_i, eps_i - e_i)

    e_ij = pair_separations(mav_p_des) - pair_separations(mav_p)
    w = bounds.pair_width
    names = [f"separation_{i}_{j}" for i, j in zip(*(side.tolist() for side in _pairs(n)))]
    add(names, e_ij, -w, w, np.minimum(w - e_ij, e_ij + w))

    tension = np.reshape(np.asarray(tensions, dtype=np.float64)[..., :n], (-1, n))
    add([f"tension_{i}" for i in range(n)], tension, np.nan, bounds.f_max, bounds.f_max - tension)

    if bounds.obstacle_center is not None:
        e_LO = so3.norm_rows(payload_p - bounds.obstacle_center)[:, None]
        clearance = bounds.obstacle_clearance
        add(["obstacle"], e_LO, clearance, np.nan, e_LO - clearance)

    return ConstraintTable(tuple(ids), *(np.concatenate(parts, axis=1) for parts in zip(*columns)))
