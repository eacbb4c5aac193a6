"""Tracking errors, formation separations, and constraint checking.

Everything here is pure geometry on snapshots: line-of-sight distances for the
payload and each vehicle, pairwise separation errors for the formation,
obstacle clearance, and cable-tension bounds.  Violations are reported as
signed margins, never raised.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import so3


@dataclass(frozen=True)
class FunnelSpec:
    """Time-varying positive bound given as a piecewise-linear table.

    `table` is a sequence of (time s, value m) pairs with strictly increasing
    times and strictly positive values; evaluation clamps outside the table.
    """

    table: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        if len(self.table) == 0:
            raise ValueError("funnel table must not be empty")
        times = np.array([t for t, _ in self.table], dtype=np.float64)
        values = np.array([v for _, v in self.table], dtype=np.float64)
        if np.any(values <= 0.0):
            raise ValueError("funnel values must be strictly positive")
        if len(times) > 1 and np.any(np.diff(times) <= 0.0):
            raise ValueError("funnel times must be strictly increasing")
        object.__setattr__(self, "_times", times)
        object.__setattr__(self, "_values", values)

    @classmethod
    def constant(cls, value: float) -> "FunnelSpec":
        return cls(((0.0, float(value)),))

    def value(self, t: float) -> float:
        if len(self._values) == 1:
            # np.interp on a one-entry table returns that entry at every t
            return float(self._values[0])
        return float(np.interp(t, self._times, self._values))


@dataclass(frozen=True)
class ConstraintEntry:
    """One evaluated constraint: margin >= 0 exactly when satisfied."""

    id: str
    value: float
    lower: Optional[float]
    upper: Optional[float]
    margin: float

    @property
    def satisfied(self) -> bool:
        return self.margin >= 0.0


@dataclass
class ConstraintReport:
    entries: List[ConstraintEntry] = field(default_factory=list)

    @property
    def all_satisfied(self) -> bool:
        return all(e.satisfied for e in self.entries)

    def __getitem__(self, id: str) -> ConstraintEntry:
        for e in self.entries:
            if e.id == id:
                return e
        raise KeyError(id)

    def worst(self) -> ConstraintEntry:
        return min(self.entries, key=lambda e: e.margin)


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
    """pair_separation of every pair i < j of the rows of P, in row-major
    pair order (0-1, 0-2, ..., 1-2, ...)."""
    i, j = _pairs(len(P))
    return so3.norm_rows(P[i] - P[j])


def desired_pair_separation(p_des_i: np.ndarray, p_des_j: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(p_des_i) - np.asarray(p_des_j)))


def obstacle_distance(p_L: np.ndarray, p_O: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(p_L) - np.asarray(p_O)))


@dataclass
class ConstraintBounds:
    """Bound set consumed by check_all.

    pair_tighten/pair_widen map vehicle index pairs (i < j) to the allowed
    shrink/stretch of that pair's separation relative to desired.
    """

    f_max: float
    payload_funnel: FunnelSpec
    mav_funnel: FunnelSpec
    pair_tighten: Dict[Tuple[int, int], FunnelSpec] = field(default_factory=dict)
    pair_widen: Dict[Tuple[int, int], FunnelSpec] = field(default_factory=dict)
    obstacle_center: Optional[np.ndarray] = None
    obstacle_clearance: float = 0.0


def default_bounds(
    mav_p_des0: np.ndarray,
    f_max: float,
    payload_radius: float = 0.2,
    mav_radius: float = 0.2,
    pair_fraction: float = 0.3,
    obstacle_center: Optional[np.ndarray] = None,
    obstacle_clearance: float = 0.0,
) -> ConstraintBounds:
    """Constant funnels sized off the initial desired formation.

    Pair bounds default to pair_fraction times each pair's desired
    separation, symmetric in both directions.
    """
    n = len(mav_p_des0)
    tighten = {}
    widen = {}
    for i in range(n):
        for j in range(i + 1, n):
            width = pair_fraction * desired_pair_separation(mav_p_des0[i], mav_p_des0[j])
            tighten[(i, j)] = FunnelSpec.constant(width)
            widen[(i, j)] = FunnelSpec.constant(width)
    return ConstraintBounds(
        f_max=f_max,
        payload_funnel=FunnelSpec.constant(payload_radius),
        mav_funnel=FunnelSpec.constant(mav_radius),
        pair_tighten=tighten,
        pair_widen=widen,
        obstacle_center=None if obstacle_center is None else np.asarray(obstacle_center),
        obstacle_clearance=obstacle_clearance,
    )


def check_all(
    t: float,
    payload_p: np.ndarray,
    payload_p_des: np.ndarray,
    mav_p: np.ndarray,
    mav_p_des: np.ndarray,
    tensions: np.ndarray,
    bounds: ConstraintBounds,
) -> ConstraintReport:
    """Evaluate every tracking, formation, obstacle, and tension constraint.

    Margins are signed distances to the nearest bound; a violated constraint
    shows up with margin < 0, nothing raises.
    """
    n = len(mav_p)
    entries = []

    e_L = payload_los_error(payload_p, payload_p_des)
    eps = bounds.payload_funnel.value(t)
    entries.append(ConstraintEntry("payload_funnel", e_L, None, eps, eps - e_L))

    e_i = so3.norm_rows(np.asarray(mav_p) - np.asarray(mav_p_des))
    eps_i = bounds.mav_funnel.value(t)
    entries += [
        ConstraintEntry(f"mav{i}_funnel", e, None, eps_i, m)
        for i, (e, m) in enumerate(zip(e_i.tolist(), (eps_i - e_i).tolist()))
    ]

    pairs = [
        (i, j, bounds.pair_tighten.get((i, j)), bounds.pair_widen.get((i, j)))
        for i in range(n)
        for j in range(i + 1, n)
    ]
    e_ij = pair_separations(mav_p_des) - pair_separations(mav_p)
    eps_h = np.array([np.inf if hi is None else hi.value(t) for _, _, hi, _ in pairs])
    eps_w = np.array([np.inf if lo is None else lo.value(t) for _, _, _, lo in pairs])
    margin = np.minimum(eps_h - e_ij, e_ij + eps_w)
    entries += [
        ConstraintEntry(f"separation_{i}_{j}", e, -w, h, m)
        for (i, j, hi, lo), e, h, w, m in zip(
            pairs, e_ij.tolist(), eps_h.tolist(), eps_w.tolist(), margin.tolist()
        )
        if hi is not None or lo is not None
    ]

    T = np.asarray(tensions, dtype=np.float64)[:n]
    entries += [
        ConstraintEntry(f"tension_{i}", T_i, None, bounds.f_max, m)
        for i, (T_i, m) in enumerate(zip(T.tolist(), (bounds.f_max - T).tolist()))
    ]

    if bounds.obstacle_center is not None:
        e_LO = obstacle_distance(payload_p, bounds.obstacle_center)
        entries.append(
            ConstraintEntry(
                "obstacle",
                e_LO,
                bounds.obstacle_clearance,
                None,
                e_LO - bounds.obstacle_clearance,
            )
        )

    return ConstraintReport(entries)
