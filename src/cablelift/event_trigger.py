"""Event logic deciding when the payload controller re-solves its OCP.

Between solves the stored prediction is replayed open loop.  A new solve is
forced when the prediction runs out, and happens early when the measured
state drifts too far from the predicted one, subject to a minimum
inter-execution time of sigma steps.  Deviations and state magnitudes are
measured with the plain Euclidean norm on the 12-dimensional error embedding
(position, velocity, attitude logarithm, angular rate).

After each trigger the prediction horizon may shrink: once the previous
prediction is known to enter the terminal region at index N_hat, the steps
already burned and the tail beyond N_hat can both be dropped, bounded so the
new prediction window always extends strictly past the old one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import payload_ocp as ocp
from . import so3


class PredictionGap(RuntimeError):
    """Asked for a step beyond the stored prediction."""


class InvariantViolation(RuntimeError):
    """The horizon-chain guarantee failed; indicates a programming error."""


@dataclass
class TriggerConfig:
    alpha: float = 0.10
    beta: float = 0.05
    sigma: int = 2

    def __post_init__(self):
        if not 0 <= self.alpha < math.inf:
            raise ValueError("alpha must be finite and nonnegative")
        if not 0 < self.beta < math.inf:
            raise ValueError("beta must be positive and finite")
        if isinstance(self.sigma, bool) or not isinstance(self.sigma, int) or self.sigma < 1:
            raise ValueError("sigma must be an integer of at least one step")

    @property
    def horizon_floor(self) -> int:
        """The shortest horizon a replan may get: max(2, sigma)."""
        return max(2, self.sigma)


@dataclass
class TriggerState:
    k_j: int
    predicted: ocp.OcpSolution
    N_kj: int


@dataclass
class TerminalRegion:
    epsilon: float
    weight: np.ndarray

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError("terminal radius must be positive and finite")
        self.weight = np.asarray(self.weight, dtype=np.float64)

    def contains(self, error: np.ndarray) -> bool:
        return math.sqrt(float(error @ self.weight @ error)) <= self.epsilon


def state_embedding(x: np.ndarray) -> np.ndarray:
    """12-d vector (p, v, log q, omega) of a state row, used for trigger norms."""
    return np.concatenate([x[0:6], so3.quat_log(x[6:10]), x[10:13]])


def should_trigger(
    k: int, current: np.ndarray, trigger_state: TriggerState, config: TriggerConfig
) -> str:
    """Decide "none", "event", or "forced" at step k for the state row current.

    Forced exactly when the prediction is exhausted (k = k_j + N_kj).  An
    event needs at least sigma elapsed steps and a deviation strictly above
    the threshold; a deviation exactly on the threshold does not trigger.
    """
    idx = k - trigger_state.k_j
    if idx < 0:
        raise ValueError("step precedes the last trigger")
    if idx > len(trigger_state.predicted.X) - 1:
        raise PredictionGap(
            f"step {k} is {idx} past trigger {trigger_state.k_j}, prediction "
            f"holds {len(trigger_state.predicted.X)} states"
        )
    if idx == trigger_state.N_kj:
        return "forced"
    if idx < config.sigma:
        return "none"
    deviation = float(np.linalg.norm(ocp.local_coords(trigger_state.predicted.X[idx], current)))
    threshold = config.alpha * float(np.linalg.norm(state_embedding(current))) + config.beta
    return "event" if deviation > threshold else "none"


def first_entry_index(
    predicted: ocp.OcpSolution, region: TerminalRegion, ref_x: np.ndarray
) -> Optional[int]:
    """Smallest index in [0, N_kj - 1] whose error against the reference rows
    ref_x sits inside the region.  The errors are taken in one stacked call;
    each row rounds as its one-row call does."""
    last = len(predicted.X) - 1
    for i, error in enumerate(ocp.state_error(predicted.X[:last], ref_x[:last])):
        if region.contains(error):
            return i
    return None


def shrink_horizon(
    trigger_state: TriggerState,
    m_k: int,
    N_hat: Optional[int],
    config: TriggerConfig,
) -> int:
    """New horizon after a trigger m_k steps past the previous one.

    Shrinks by n = min(m_k - 1, N_kj - N_hat), with N_hat defaulting to the
    full horizon (no terminal-region entry, no shrink from that side), then
    floors at max(2, sigma).  The chain k_j + N_kj < k_{j+1} + N_{k_{j+1}}
    <= k_{j+1} + N_kj is re-checked on every call.
    """
    N_kj = trigger_state.N_kj
    if not (config.sigma <= m_k <= N_kj):
        raise ValueError(f"elapsed steps {m_k} outside [{config.sigma}, {N_kj}]")
    if N_hat is not None and not (0 <= N_hat <= N_kj):
        raise ValueError("entry index outside the prediction")
    effective = N_kj if N_hat is None else N_hat
    n = min(m_k - 1, N_kj - effective)
    new_horizon = max(N_kj - n, config.horizon_floor)
    if not (N_kj < m_k + new_horizon and new_horizon <= N_kj):
        raise InvariantViolation(
            f"horizon chain broken: N_kj={N_kj}, m_k={m_k}, new={new_horizon}"
        )
    return new_horizon


def record_trigger(k: int, solution: ocp.OcpSolution, new_horizon: int) -> TriggerState:
    """Bookkeeping after a solve at step k."""
    if len(solution.X) - 1 != new_horizon:
        raise ValueError(
            f"solution spans {len(solution.X) - 1} steps, expected {new_horizon}"
        )
    return TriggerState(k_j=k, predicted=solution, N_kj=new_horizon)
