"""Finite-horizon tracking problem on the payload's six degrees of freedom.

The decision variables are the payload state trajectory and the total cable
wrench (world-frame force, payload-frame moment) at each stage.  Cables never
enter the decision vector: the per-cable tension bound is expressed through
the minimal-norm allocation at the reference attitude, one norm row per cable
per stage.

States live on R^3 x S^3 x R^6; all derivatives are taken in the 12-d tangent
(position, velocity, attitude rotation-vector, body rate) around a nominal
trajectory, with right-multiplicative quaternion retraction.  The dynamics
Jacobians are exact, their rotational block taken in forward mode.

A state is one row [p, v, q, omega] of 13 numbers and a wrench one row
[F, M] of 6; a trajectory is a (K, 13) array of state rows and a (K, 6)
array of wrench rows.  The per-state functions (state_error,
payload_dynamics, discretize, retract, local_coords) take rows with any
leading shape: all stages are one numpy call, and one state is the 1-D case.
An optional rollout, E or shares argument passes what rk4_stages,
state_error or tension_shares already computed on the same rows, so that
the solver evaluates each iterate once and builds its QP from that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from typing import Optional, Tuple

import numpy as np

from . import allocation, plant, so3

NX = 12  # tangent dimension of the payload state
NU = 6  # wrench dimension
# linearize_dynamics' columns (dp, dv, dtheta, domega, dF, dM): translational, rotational
_TRANSLATION, _ROTATION = np.r_[0:6, 12:15], np.r_[6:12, 15:18]
# the input parts (9, 3) of 9 tangent columns whose last 3 move the input,
# and state_error's plain differences (p, v, omega) in the tangent
_INPUT_TANGENTS, _EYE3, _PLAIN = np.eye(9, 3, -6), np.eye(3), np.r_[0:6, 9:12]


class ConfigError(ValueError):
    """Inconsistent problem dimensions or option combinations."""


class DimensionMismatch(ValueError):
    """Trajectory lengths do not match the horizon."""


@dataclass
class CostWeights:
    """Tracking weights, one float per block, named as a scenario file's
    `weights:` keys: the stage state weight Q_X is diagonal with position,
    velocity, attitude and rate on its four 3-blocks, the input weight Q_U
    with force and moment on its two, and the terminal weight is
    Q_XN = terminal_scale * Q_X.

    The cables produce a moment only once the vehicles have moved to tilt
    them, far slower than one 50 ms stage.  The moment weight keeps a plan
    from closing the body-rate error with a one-stage moment impulse; such
    impulses go mostly unrealized, and replanning every sigma steps then
    pumps the payload's rotation into an event storm.
    """

    position: float = 60.0
    velocity: float = 8.0
    attitude: float = 30.0
    rate: float = 2.0
    force: float = 0.8
    moment: float = 40.0
    terminal_scale: float = 4.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise ConfigError(f"{f.name!r} must be a finite number, got {value!r}")
            setattr(self, f.name, float(value))
        for key, value in (("force", self.force), ("moment", self.moment)):
            if value < 0.0:
                raise ConfigError(f"{key!r} must be nonnegative, got {value!r}")
        state = (self.position, self.velocity, self.attitude, self.rate)
        for key, value in zip(("position", "velocity", "attitude", "rate"), state):
            if not (value > 0.0 and 0.0 < self.terminal_scale * value < math.inf):
                raise ConfigError(
                    f"{key!r} and 'terminal_scale' must be positive with a positive finite "
                    f"product, got {value!r} and {self.terminal_scale!r}"
                )
        self.Q_X = np.diag(np.repeat(state, 3))
        self.Q_U = np.diag(np.repeat([self.force, self.moment], 3))
        self.Q_XN = self.terminal_scale * self.Q_X


@dataclass
class OcpConfig:
    """The solver settings of the problem around one reference window; the
    payload model it predicts with is the rig's SystemParams."""

    weights: CostWeights = field(default_factory=CostWeights)
    N: int = 20
    dt: float = 0.05
    obstacle_center: Optional[np.ndarray] = None
    obstacle_clearance: float = 0.0
    funnel_radius: float = 0.2
    funnel_weight: float = 1e3


@dataclass(kw_only=True)
class OcpProblem(OcpConfig):
    """An OcpConfig with its window, on the payload of params (m_L, J_L, g_vec,
    f_max) and the allocation map of its attachments."""

    x0: np.ndarray  # (13,) measured state row
    ref_x: np.ndarray  # (N+1, 13) reference state rows
    ref_u: np.ndarray  # (N+1, 6) reference wrench rows
    params: plant.SystemParams
    amap: allocation.AllocationMap

    @cached_property
    def share_maps(self) -> np.ndarray:
        """tension_shares' maps at the stage reference attitudes, built once."""
        return _share_maps(self.ref_x[:-1, 6:10], self.amap)


@dataclass
class OcpSolution:
    X: np.ndarray  # (N+1, 13) state rows
    U: np.ndarray  # (N, 6) wrench rows
    cost: float
    kkt_residual: float
    iterations: int
    status: str  # converged | stalled | max_iter


def build_ocp(
    x0: np.ndarray,
    ref_x: np.ndarray,
    ref_u: np.ndarray,
    config: OcpConfig,
    params: plant.SystemParams,
    amap: Optional[allocation.AllocationMap] = None,
) -> OcpProblem:
    """Assemble the tracking problem for one reference window.

    x0 is the (13,) start row; the window ref_x (N+1, 13) / ref_u (N+1, 6)
    must hold exactly N+1 rows at the problem's step spacing.  params is the
    rig whose payload the problem predicts.  amap is the allocation map of
    params.r_i, built here when not given; a closed loop builds it once and
    passes it to every solve.
    """
    if config.N < 1:
        raise ConfigError("horizon must be at least 1")
    if config.dt <= 0:
        raise ConfigError("dt must be positive")
    if len(ref_x) != config.N + 1 or len(ref_u) != config.N + 1:
        raise ConfigError(
            f"need {config.N + 1} reference rows for horizon {config.N}, "
            f"got {len(ref_x)} states and {len(ref_u)} wrenches"
        )
    if amap is None:
        amap = allocation.build_allocation(params.r_i)
    return OcpProblem(
        **{f.name: getattr(config, f.name) for f in fields(OcpConfig)},
        x0=np.array(x0, dtype=np.float64),
        ref_x=np.asarray(ref_x, dtype=np.float64),
        ref_u=np.asarray(ref_u, dtype=np.float64),
        params=params,
        amap=amap,
    )


# ---------------------------------------------------------------------------
# errors and dynamics


def state_error(X: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Reference-minus-actual in the 12-d tangent, of every state row X
    against the matching reference row R.

    Position, velocity, and rate blocks are plain differences; the attitude
    block is the rotation-vector of actual relative to desired.
    """
    E = np.empty(X.shape[:-1] + (NX,))
    E[..., 0:6] = R[..., 0:6] - X[..., 0:6]
    E[..., 6:9] = so3.attitude_error_log(X[..., 6:10], R[..., 6:10])
    E[..., 9:12] = R[..., 10:13] - X[..., 10:13]
    return E


def payload_dynamics(Y: np.ndarray, U: np.ndarray, problem) -> np.ndarray:
    """Continuous-time rigid-body derivative of the state rows Y under the
    wrench rows U."""
    w = Y[..., 10:13]
    out = np.empty_like(Y)
    out[..., 0:3] = Y[..., 3:6]
    out[..., 3:6] = U[..., 0:3] / problem.params.m_L + problem.params.g_vec
    out[..., 6:10] = so3.omega_to_quat_dot(Y[..., 6:10], w)
    Jw = w @ problem.params.J_L.T
    out[..., 10:13] = (U[..., 3:6] - so3.cross3_rows(w, Jw)) @ problem.params.J_L_inv.T
    return out


def _dynamics_tangent(Y: np.ndarray, dY: np.ndarray, dM: np.ndarray, problem) -> np.ndarray:
    """Directional derivatives of the (q, omega) part of payload_dynamics at
    the (B, 13) rows Y along the (B, T, 7) tangents dY of (q, omega) and the
    (T, 3) moment tangents dM.

    The derivative is bilinear in (q, omega) and quadratic in omega, so the
    product rule below is exact.
    """
    q = Y[:, None, 6:10]
    w = Y[:, None, 10:13]
    dw = dY[..., 4:7]
    out = np.empty_like(dY)
    out[..., 0:4] = so3.omega_to_quat_dot(dY[..., 0:4], w) + so3.omega_to_quat_dot(q, dw)
    J, J_inv = problem.params.J_L.T, problem.params.J_L_inv.T
    out[..., 4:7] = (dM - so3.cross3_rows(dw, w @ J) - so3.cross3_rows(w, dw @ J)) @ J_inv
    return out


def rk4_stages(Y: np.ndarray, U: np.ndarray, dt: float, problem):
    """discretize's Runge-Kutta step kept for reuse: ([Y1, Y2, Y3, Y4], end),
    the stage states the derivative is taken at and the unnormalized end."""
    stages = []

    def derivative(y, u):
        stages.append(y)
        return payload_dynamics(y, u, problem)
    end = plant.rk4_step(derivative, Y, U, dt)
    return stages, end


def discretize(Y: np.ndarray, U: np.ndarray, dt: float, problem, rollout=None) -> np.ndarray:
    """One Runge-Kutta step of the payload dynamics of every state row Y under
    the matching wrench row U, attitude renormalized."""
    _, end = rk4_stages(Y, U, dt, problem) if rollout is None else rollout
    Y = end.copy()
    Y[..., 6:10] = so3.quat_normalize(Y[..., 6:10])
    return Y


# ---------------------------------------------------------------------------
# tangent-space plumbing


def retract(X: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Move every state row X by the matching 12-d tangent row D (attitude
    via right perturbation)."""
    out = np.empty(X.shape)
    out[..., 0:6] = X[..., 0:6] + D[..., 0:6]
    out[..., 6:10] = so3.quat_normalize(so3.quat_mul(X[..., 6:10], so3.quat_exp(D[..., 6:9])))
    out[..., 10:13] = X[..., 10:13] + D[..., 9:12]
    return out


def local_coords(base: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Tangent coordinates of every state row Y around the matching base row;
    inverse of retract at base."""
    out = np.empty(Y.shape[:-1] + (NX,))
    out[..., 0:6] = Y[..., 0:6] - base[..., 0:6]
    out[..., 6:9] = so3.quat_log(so3.quat_mul(so3.quat_conj(base[..., 6:10]), Y[..., 6:10]))
    out[..., 9:12] = Y[..., 10:13] - base[..., 10:13]
    return out


@lru_cache(maxsize=None)
def _translation_block(dt: float, m_L: float) -> np.ndarray:
    """The (p, v) entries of the step's tangents in the columns (dp, dv, dF),
    (9, 6).  The double integrator p' = v, v' = F / m_L does not depend on
    the state, so one Runge-Kutta step serves every stage and state."""
    derivative = lambda dy, df: np.hstack([dy[:, 3:6], df / m_L])  # noqa: E731
    return plant.rk4_step(derivative, np.eye(9, 6), _INPUT_TANGENTS, dt)


def linearize_dynamics(
    X: np.ndarray, U: np.ndarray, dt: float, problem, rollout=None
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact tangent-space Jacobians of the discrete step at every stage.

    X holds (K, 13) state rows and U (K, 6) wrench rows.  Returns A (K, 12, 12)
    and B (K, 12, 6): the derivatives of
    local_coords(x_next, discretize(retract(x, dx), u + du)) in dx and du at
    zero, with x_next = discretize(x, u).  The translation is a double
    integrator that attitude does not enter: its block in (dp, dv, dF) is
    one constant per (dt, m_L), and the cross blocks are zero.  Forward mode
    carries the 9 rotational columns (dtheta, domega, dM) on (q, omega)
    through the retraction, the four RK4 stages, the quaternion
    renormalization and local_coords, for all K stages at once.
    """
    X = np.asarray(X, dtype=np.float64)
    U = np.asarray(U, dtype=np.float64)
    K = len(X)
    dX = np.zeros((K, 9, 7))
    dX[:, 0:3, 0:4] = so3.omega_to_quat_dot(X[:, None, 6:10], _EYE3)  # d retract / d dtheta
    dX[:, 3:6, 4:7] = _EYE3

    stages, end = rk4_stages(X, U, dt, problem) if rollout is None else rollout
    # the same step on the tangents, each stage along its stage state
    stage = iter(stages)
    tangent = lambda dy, dm: _dynamics_tangent(next(stage), dy, dm, problem)  # noqa: E731
    dY = plant.rk4_step(tangent, dX, _INPUT_TANGENTS, dt)

    # renormalization q -> q/|q|; the hemisphere sign multiplies the base and
    # its tangent alike and cancels in local_coords, whose attitude block at
    # the base is 2 * vec(conj(q_next) * dq_next).  Row 9 stands for the
    # translational columns, whose dq_next is +0: their attitude entries are
    # zeros signed by q_next.
    norm = np.linalg.norm(end[:, 6:10], axis=-1)[:, None, None]
    qh = end[:, None, 6:10] / norm
    dq = dY[..., 0:4]
    dqh = np.zeros((K, 10, 4))
    dqh[:, :9] = (dq - qh * np.sum(qh * dq, axis=-1, keepdims=True)) / norm
    attitude = 2.0 * so3.quat_mul(so3.quat_conj(qh), dqh)[..., 1:4]
    D = np.zeros((K, NX + NU, NX))
    D[:, _TRANSLATION, 0:6] = _translation_block(dt, problem.params.m_L)
    D[:, _TRANSLATION, 6:9] = attitude[:, 9:]
    D[:, _ROTATION, 6:9] = attitude[:, :9]
    D[:, _ROTATION, 9:12] = dY[..., 4:7]
    D = D.transpose(0, 2, 1)
    return np.ascontiguousarray(D[:, :, :NX]), np.ascontiguousarray(D[:, :, NX:])


def dynamics_defects(X: np.ndarray, U: np.ndarray, problem, rollout=None) -> np.ndarray:
    """(N, 12) gap between each rolled-out step of the stacked state rows X
    under the wrench rows U and the stored next state."""
    return local_coords(X[1:], discretize(X[:-1], U, problem.dt, problem, rollout))


# ---------------------------------------------------------------------------
# cost


def _check_rows(X: np.ndarray, U: np.ndarray, problem) -> None:
    if len(X) != problem.N + 1 or len(U) != problem.N:
        raise DimensionMismatch(
            f"expected {problem.N + 1} states and {problem.N} inputs, "
            f"got {len(X)} and {len(U)}"
        )


def total_cost(X: np.ndarray, U: np.ndarray, problem, E=None) -> float:
    """Quadratic tracking cost plus the soft funnel penalty.

    The funnel penalizes position deviation beyond its radius at every stage
    the optimizer can influence (1..N).  X holds the N + 1 stacked state
    rows, U the N wrench rows.
    """
    _check_rows(X, U, problem)
    W = problem.weights
    E = state_error(X, problem.ref_x) if E is None else E
    E_u = problem.ref_u[:-1] - U
    cost = float(np.sum((E[:-1] @ W.Q_X) * E[:-1]) + np.sum((E_u @ W.Q_U) * E_u))
    cost += float(E[-1] @ W.Q_XN @ E[-1])
    over = np.maximum(np.linalg.norm(E[1:, 0:3], axis=-1) - problem.funnel_radius, 0.0)
    cost += problem.funnel_weight * float(over @ over)
    return cost


def _error_jacobians(X: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Exact tangent Jacobians of state_error at the rows X (K x 12 x 12,
    block diagonal); E holds the errors themselves."""
    J = np.zeros((len(X), NX, NX))
    J[:, _PLAIN, _PLAIN] = -1.0
    J[:, 6:9, 6:9] = so3.left_jacobian_inverse(E[:, 6:9]) @ so3.quat_to_rotation(X[:, 6:10])
    return J


def cost_expansion(X: np.ndarray, U: np.ndarray, problem, E=None):
    """Per-stage gradients and Gauss-Newton Hessians of total_cost.

    Gradients are exact (up to the funnel hinge kink); Hessians drop the
    second-derivative curvature of the error maps, which keeps them PSD.
    Returns stacked (H_x, g_x) over stages 0..N and (H_u, g_u) over 0..N-1.
    """
    _check_rows(X, U, problem)
    W = problem.weights
    N = problem.N
    E = state_error(X, problem.ref_x) if E is None else E
    J = _error_jacobians(X, E)
    Q = np.empty((N + 1, NX, NX))
    Q[:N] = W.Q_X
    Q[N] = W.Q_XN
    JtQ = J.transpose(0, 2, 1) @ Q
    H_x = 2.0 * JtQ @ J
    g_x = 2.0 * np.einsum("kij,kj->ki", JtQ, E)
    p_err = E[1:, 0:3]
    rho = np.linalg.norm(p_err, axis=-1)
    v = rho - problem.funnel_radius
    on = np.nonzero((v > 0.0) & (rho > 1e-12))[0]
    if len(on):
        fw = problem.funnel_weight
        phat = p_err[on] / rho[on, None]
        outer = phat[:, :, None] * phat[:, None, :]
        # d|p_des - p|/d(delta p) = -phat
        g_x[on + 1, 0:3] -= (2.0 * fw * v[on])[:, None] * phat
        # curvature of the norm itself; convex since v > 0, and
        # without it the solver crawls once the hinge residual is big
        H_x[on + 1, 0:3, 0:3] += 2.0 * fw * outer + (2.0 * fw * v[on] / rho[on])[
            :, None, None
        ] * (np.eye(3) - outer)
    H_u = np.broadcast_to(2.0 * W.Q_U, (N, NU, NU)).copy()
    g_u = -2.0 * (problem.ref_u[:-1] - U) @ W.Q_U.T
    return H_x, g_x, H_u, g_u


# ---------------------------------------------------------------------------
# inequality rows


def _share_maps(q_ref: np.ndarray, amap: allocation.AllocationMap) -> np.ndarray:
    """d y / d u (K, n, 3, 6) of each cable's minimal-norm share y of a wrench
    u at each of the (K, 4) reference attitudes."""
    R_t = so3.quat_to_rotation(q_ref).transpose(0, 2, 1)
    T = np.zeros((len(q_ref), NU, NU))
    T[:, 0:3, 0:3] = R_t
    T[:, 3:6, 3:6] = np.eye(3)
    G = amap.P_pinv.reshape(amap.n, 3, NU)
    return G[None] @ T[:, None]


def tension_shares(U: np.ndarray, problem):
    """Each cable's minimal-norm share of every wrench row U (N, 6) at the
    problem's stage reference attitudes: shares y (N, n, 3), their norms
    (N, n) and the maps d y / d u (N, n, 3, 6)."""
    GT = problem.share_maps
    y = (GT @ U[:, None, :, None])[..., 0]
    return y, np.linalg.norm(y, axis=-1), GT


def tension_rows(U: np.ndarray, problem, shares=None) -> tuple:
    """Per-cable tension-norm rows at every stage, linearized at the inputs.

    U holds the problem's (N, 6) wrench rows.  Row k of stage i reads
    c[i, k] + J[i, k] @ delta_u_i <= 0 with c[i, k] = |mu_ik| - f_max, where
    mu_ik is cable k's minimal-norm share of the wrench at the stage's
    reference attitude.  Returns J (N, n, 6) and c (N, n).  A row with
    vanishing share gets a zero gradient (it sits at -f_max, inactive by
    that margin); an infinite bound gives n = 0 rows.
    """
    K = len(U)
    if not np.isfinite(problem.params.f_max):
        return np.zeros((K, 0, NU)), np.zeros((K, 0))
    y, ny, GT = tension_shares(U, problem) if shares is None else shares
    unit = np.where(ny[..., None] < 1e-9, 0.0, y / np.maximum(ny, 1e-9)[..., None])
    J = np.einsum("kni,knij->knj", unit, GT)
    return J, ny - problem.params.f_max


def tension_row_hessians(U: np.ndarray, problem, shares=None) -> np.ndarray:
    """Second derivatives of the tension-norm rows, (N, n, 6, 6).

    Same rows as tension_rows.  Each block is the positive semidefinite
    curvature of |mu_ik| in the wrench variable, used by the solver to weight
    active-constraint curvature into its Hessian; zero for a vanishing share.
    """
    K = len(U)
    if not np.isfinite(problem.params.f_max):
        return np.zeros((K, 0, NU, NU))
    y, ny, GT = tension_shares(U, problem) if shares is None else shares
    live = ny >= 1e-9
    safe = np.where(live, ny, 1.0)
    yh = y / safe[..., None]
    P = (np.eye(3) - yh[..., :, None] * yh[..., None, :]) * (live / safe)[..., None, None]
    return GT.transpose(0, 1, 3, 2) @ P @ GT


def obstacle_rows(X: np.ndarray, problem) -> Tuple[np.ndarray, np.ndarray]:
    """Clearance rows eps - |p - p_O| <= 0 linearized at the state rows X.

    Returns J (K, r, 12) and c (K, r), with r = 1 when an obstacle is set
    and r = 0 otherwise.
    """
    K = len(X)
    if problem.obstacle_center is None:
        return np.zeros((K, 0, NX)), np.zeros((K, 0))
    d = X[:, 0:3] - problem.obstacle_center
    dist = np.linalg.norm(d, axis=-1)
    away = d / np.maximum(dist, 1e-12)[:, None]
    # sitting exactly on the obstacle: push out along an arbitrary axis
    away[dist < 1e-12] = [1.0, 0.0, 0.0]
    J = np.zeros((K, 1, NX))
    J[:, 0, 0:3] = -away
    return J, (problem.obstacle_clearance - dist)[:, None]
