"""Sequential quadratic programming on the payload tracking problem.

Transcription is multiple shooting in the 12-d tangent around a nominal
trajectory: states and wrenches are both decision variables, dynamics enter
as defect equalities, and each iteration solves one structured convex QP
(Gauss-Newton Hessian, linearized constraint rows) followed by an L1 merit
line search.  Every stage quantity of an iteration (exact dynamics
Jacobians, defects, cost expansion, constraint rows, merit) is computed on
stage-stacked arrays.  A solve starts from one wrench plan (a replan's is
the previous plan shifted) rolled out from the measured state, so its first
iterate has no dynamics defect (Diehl, Bock & Schlöder, SIAM J. Control
Optim. 2005).

The QP itself is solved in-repo on one Riccati factorization of the QP
without its inequality rows, so its cost stays linear in the horizon
length; it takes the stage Hessians as they are, since the input Hessians
it inverts are positive definite by construction.  Its back-solve is the QP
optimum when no row is violated there; otherwise the Goldfarb-Idnani dual
active-set method (Math. Program. 27, 1983) adds violated rows one at a
time on the same factorization, each at the price of one more back-solve,
until every row holds.

The stagewise QP data layout is dimension-generic on purpose; the unit tests
drive it with scalar problems whose KKT systems are solved by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import payload_ocp as ocp
from . import plant


class Infeasible(RuntimeError):
    """Hard constraint set is inconsistent."""


class QpNumericalFailure(RuntimeError):
    """Riccati factorization of the stage QP failed."""


# line search: initial L1 merit weight, step shrink factor, smallest step
# tried and Armijo slope fraction
MERIT_WEIGHT = 10.0
BACKTRACK = 0.5
MIN_STEP = 1e-4
ARMIJO = 1e-4
# QP: cap on the active-set steps
QP_MAX_ITERS = 100
# the longest horizon whose line-search candidates step on floats: an RK4
# step of K stages takes 41 us on floats and 101 us in numpy at K = 2, 345
# and 121 us at K = 20, and about 106 us each at K = 6 (timeit, x86 core)
FLOAT_STEP_HORIZON = 6


@dataclass
class SolverConfig:
    max_sqp_iters: int = 30
    kkt_tol: float = 1e-6
    feas_tol: float = 1e-6

    def __post_init__(self):
        iters = self.max_sqp_iters
        if isinstance(iters, bool) or not isinstance(iters, (int, np.integer)) or iters < 1:
            raise ValueError("max_sqp_iters must be an integer of at least 1")
        for name in ("kkt_tol", "feas_tol"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")


def shift_warm_start(previous: ocp.OcpSolution, elapsed_steps: int, new_horizon: int):
    """The wrench plan of a solution after elapsed_steps have passed: a copy of
    its remaining rows, the final row repeated (or the rows cut) to
    new_horizon rows.  `solve` rolls it out from the measured state.
    """
    if elapsed_steps < 1:
        raise ValueError("elapsed_steps must be at least 1")
    rows = previous.U[elapsed_steps:]
    pad = np.repeat(previous.U[-1:], max(new_horizon - len(rows), 0), axis=0)
    return np.concatenate([rows, pad])[:new_horizon]


# ---------------------------------------------------------------------------
# structured QP


class _Rows:
    """Inequality rows C_r y_{stage_r} + c_r <= 0 on one kind of stage
    variable (states or inputs), every stage's rows stacked: C (m, dim),
    c (m,) and the stage index (m,), over `stages` stages."""

    def __init__(self, C, c, stage, stages: int):
        self.C = np.asarray(C, dtype=np.float64)
        self.c = np.asarray(c, dtype=np.float64)
        self.stage = np.asarray(stage, dtype=np.intp)
        self.stages = stages

    @classmethod
    def of(cls, J: np.ndarray, c: np.ndarray, first: int, stages: int) -> "_Rows":
        """The rows of gradients J (K, r, dim) and values c (K, r), block k
        on stage first + k, as payload_ocp's row functions return them."""
        K, r, dim = J.shape
        stage = np.repeat(np.arange(first, first + K), r)
        return cls(J.reshape(K * r, dim), c.reshape(K * r), stage, stages)

    @property
    def m(self) -> int:
        return len(self.c)

    @cached_property
    def _onehot(self) -> np.ndarray:
        """(stages, m): 1 where row r sits on the stage."""
        return (np.arange(self.stages)[:, None] == self.stage[None, :]).astype(np.float64)

    def apply(self, y: np.ndarray) -> np.ndarray:
        """C_r @ y_{stage(r)} for every row (without rows, the empty c)."""
        return np.einsum("rj,rj->r", self.C, y[self.stage]) if self.m else self.c

    def scatter(self, v: np.ndarray) -> np.ndarray:
        """sum over a stage's rows of C_r^T v_r, per stage (zeros when v is
        all zero or empty: they add like the product's, up to zero signs)."""
        if not v.any():
            return np.zeros((self.stages, self.C.shape[1]))
        return self._onehot @ (self.C * v[:, None])


@dataclass
class QpData:
    """Stagewise convex QP over tangent steps (z_0..z_N, w_0..w_{N-1}).

    min sum_i 1/2 z H_x z + g_x z + 1/2 w H_u w + g_u w  (+ terminal z-term)
    s.t. z_0 = z0,  z_{i+1} = A_i z_i + B_i w_i + c_i,
         rows_x on the states z_0..z_N,  rows_u on the inputs w_0..w_{N-1}.

    Stage data are stacked arrays, H_x (N+1, nx, nx), g_x (N+1, nx),
    H_u (N, nu, nu), g_u (N, nu), A (N, nx, nx), B (N, nx, nu), c (N, nx);
    lists of per-stage blocks are stacked on construction.
    """

    H_x: np.ndarray
    g_x: np.ndarray
    H_u: np.ndarray
    g_u: np.ndarray
    A: np.ndarray
    B: np.ndarray
    c: np.ndarray
    rows_x: _Rows
    rows_u: _Rows
    z0: np.ndarray

    def __post_init__(self):
        for name in ("H_x", "g_x", "H_u", "g_u", "A", "B", "c"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))

    @property
    def N(self) -> int:
        return len(self.H_u)


@dataclass
class QpResult:
    z: np.ndarray  # (N+1, nx)
    w: np.ndarray  # (N, nu)
    nu: np.ndarray  # (N, nx) dynamics multipliers
    lam_x: np.ndarray  # (m_x,) multipliers of rows_x
    lam_u: np.ndarray  # (m_u,) multipliers of rows_u
    iterations: int
    status: str  # optimal | max_iter


def _mv(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Stage-wise matrix-vector products M_i @ x_i."""
    return np.einsum("kij,kj->ki", M, x)


def _mtv(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Stage-wise transposed products M_i.T @ x_i."""
    return np.einsum("kji,kj->ki", M, x)


@dataclass
class _Riccati:
    """Backward sweep of one Newton matrix: value Hessians P (N+1, nx, nx),
    feedback gains K (N, nu, nx), inverse Cholesky factors L_inv (N, nu, nu)
    of the input Hessians Q_uu = L L^T, cross terms Q_xu = A^T P B
    (N, nx, nu) and closed-loop dynamics Acl = A + B K (N, nx, nx)."""

    A: np.ndarray
    B: np.ndarray
    P: np.ndarray
    K: np.ndarray
    L_inv: np.ndarray
    Q_xu: np.ndarray
    Acl: np.ndarray

    def solve_uu(self, r: np.ndarray) -> np.ndarray:
        """Q_uu^{-1} r_i at every stage, as L_inv^T (L_inv r_i): the
        triangular factors applied in turn, not a formed inverse
        L_inv^T L_inv, which rounds differently."""
        return _mtv(self.L_inv, _mv(self.L_inv, r))


def _riccati_factor(A, B, H_x, H_u) -> _Riccati:
    """Factor the equality-constrained stage QP by backward value recursion.

    Raises numpy.linalg.LinAlgError when an input Hessian block Q_uu is not
    positive definite.
    """
    N, nx = A.shape[0], A.shape[1]
    nu = B.shape[2]
    AB = np.concatenate([A, B], axis=2)
    ABt = AB.transpose(0, 2, 1)
    P = np.empty((N + 1, nx, nx))
    K = np.empty((N, nu, nx))
    L_inv = np.empty((N, nu, nu))
    Q_xu = np.empty((N, nx, nu))
    P[N] = H_x[N]
    for i in range(N - 1, -1, -1):
        M = ABt[i] @ P[i + 1] @ AB[i]
        Li = np.linalg.inv(np.linalg.cholesky(H_u[i] + M[nx:, nx:]))
        Q_ux = M[nx:, :nx]
        K[i] = -Li.T @ (Li @ Q_ux)
        V = H_x[i] + M[:nx, :nx] + Q_ux.T @ K[i]
        P[i] = 0.5 * (V + V.T)
        L_inv[i] = Li
        Q_xu[i] = M[:nx, nx:]
    return _Riccati(A=A, B=B, P=P, K=K, L_inv=L_inv, Q_xu=Q_xu, Acl=A + B @ K)


def _riccati_solve(fac: _Riccati, g_x, g_u, c, z0):
    """Back-solve a factored stage QP for one right-hand side.

    Returns (z, w, nu) with nu the dynamics multipliers (costates).  With
    value gradients p and k_i = -Q_uu^{-1} (g_u_i + B_i^T (P_{i+1} c_i + p_{i+1})),
    the recursion p_i = g_x_i + A_i^T (P_{i+1} c_i + p_{i+1}) + Q_xu_i k_i
    reduces to p_i = b_i + Acl_i^T p_{i+1}, with every part of b stacked.
    """
    N = len(fac.K)
    Pc = _mv(fac.P[1:], c)
    k_c = -fac.solve_uu(g_u + _mtv(fac.B, Pc))
    b = g_x[:N] + _mtv(fac.A, Pc) + _mv(fac.Q_xu, k_c)
    p = np.empty_like(g_x)
    p[N] = g_x[N]
    for i in range(N - 1, -1, -1):
        p[i] = b[i] + fac.Acl[i].T @ p[i + 1]
    k = k_c - fac.solve_uu(_mtv(fac.B, p[1:]))
    d = _mv(fac.B, k) + c
    z = np.empty_like(g_x)
    z[0] = z0
    for i in range(N):
        z[i + 1] = fac.Acl[i] @ z[i] + d[i]
    w = _mv(fac.K, z[:N]) + k
    nu = _mv(fac.P[1:], z[1:]) + p[1:]
    return z, w, nu


def _max_abs(*arrays) -> float:
    return max((float(np.max(np.abs(a))) for a in arrays if np.size(a)), default=0.0)


def qp_subproblem(data: QpData) -> QpResult:
    """Solve the stagewise QP on one Riccati factorization of it without rows.

    The factorization takes the stage Hessians as they are, and its
    back-solve gives the row-free minimizer.  When no row is violated there
    (C y + c <= 1e-12 on every row) that is the optimum of the full convex
    QP, with zero row multipliers and iterations 1 (Nocedal & Wright,
    Numerical Optimization, 2nd ed., ch. 16); the dynamics defects sit in
    the QP's equality rows, so this holds at an infeasible iterate too.
    Otherwise `_dual_active_set` adds the violated rows on the same
    factorization, each of its steps adding one to iterations; status is
    "max_iter" when QP_MAX_ITERS is reached first.  Raises Infeasible when
    the rows cannot hold together and QpNumericalFailure when an input
    Hessian Q_uu = H_u + B^T P B is not positive definite.  The SQP's stage
    QPs have Q_uu positive definite by construction: CostWeights keeps Q_X
    positive definite, so are H_x and every value Hessian P; H_u, lagged
    tension curvature included, is positive semidefinite; and B has full
    column rank.
    """
    try:
        fac = _riccati_factor(data.A, data.B, data.H_x, data.H_u)
    except np.linalg.LinAlgError as err:
        raise QpNumericalFailure(f"Riccati factorization failed: {err}") from err
    return _dual_active_set(data, fac)


def _dual_active_set(data: QpData, fac: _Riccati) -> QpResult:
    """The Goldfarb-Idnani dual active-set method (Math. Program. 27, 1983)
    on the factorization of the QP without rows.

    The KKT point with multipliers lam on the rows, its z, w and nu, is the
    row-free one plus sum_j lam_j times row j's response: the back-solve of
    a unit multiplier on row j.  So the rows read v = v0 + M lam, M negative
    semidefinite, and only a row that enters costs a back-solve.  From
    lam = 0, each step raises the multiplier of the most violated row q and
    moves the active rows' multipliers so that they stay at equality: a
    full step brings row q to equality and makes it active, a partial step
    stops where an active multiplier reaches zero and that row leaves.  A
    row whose response depends on the active rows' (Schur complement of M
    at least -1e-10 |M_qq|) cannot enter; when no active multiplier can
    fall either, the rows cannot hold together and Infeasible is raised.
    """
    rows_x, rows_u = data.rows_x, data.rows_u
    mx = rows_x.m
    z, w, nu = _riccati_solve(fac, data.g_x, data.g_u, data.c, data.z0)
    v = np.concatenate([rows_x.apply(z) + rows_x.c, rows_u.apply(w) + rows_u.c])
    lam = np.zeros(len(v))
    active: list = []
    responses: dict = {}  # row -> (dz, dw, dnu, the rows' readings of them)

    def response(j):
        g_x, g_u = np.zeros_like(data.g_x), np.zeros_like(data.g_u)
        if j < mx:
            g_x[rows_x.stage[j]] = rows_x.C[j]
        else:
            g_u[rows_u.stage[j - mx]] = rows_u.C[j - mx]
        dz, dw, dnu = _riccati_solve(fac, g_x, g_u, np.zeros_like(data.c), np.zeros_like(data.z0))
        return dz, dw, dnu, np.concatenate([rows_x.apply(dz), rows_u.apply(dw)])

    status, q = "max_iter", None
    for it in range(1, QP_MAX_ITERS + 1):
        if q is None:
            q = int(np.argmax(v)) if v.size else None
            if q is None or v[q] <= 1e-12:
                status = "optimal"
                break
        if q not in responses:
            responses[q] = response(q)
        M_q = responses[q][3]
        M_A = np.array([responses[j][3] for j in active]).reshape(len(active), len(v))
        # active multipliers per unit of lam_q, keeping the active rows at equality
        u = np.linalg.solve(M_A[:, active].T, -M_q[active]) if active else np.zeros(0)
        dv = M_q + u @ M_A
        # dv_q, a Schur complement of M, is about 0 when row q depends on the active rows
        t_full = v[q] / -dv[q] if dv[q] < -1e-10 * abs(M_q[q]) else np.inf
        falling = np.flatnonzero(u < 0.0)
        ratios = lam[active][falling] / -u[falling]
        t_part = float(np.min(ratios)) if falling.size else np.inf
        if t_full == t_part == np.inf:
            raise Infeasible("inequality rows inconsistent: a violated row depends on the active ones")
        t = min(t_full, t_part)
        v = v + t * dv
        lam[active] = np.maximum(lam[active] + t * u, 0.0)
        lam[q] += t
        if t_full <= t_part:
            active.append(q)
            q = None
        else:
            dropped = active.pop(int(falling[np.argmin(ratios)]))
            lam[dropped] = 0.0
        v[active] = 0.0
    for j, (dz, dw, dnu, _) in responses.items():
        z, w, nu = z + lam[j] * dz, w + lam[j] * dw, nu + lam[j] * dnu
    return QpResult(z, w, nu, lam[:mx], lam[mx:], it, status)


# ---------------------------------------------------------------------------
# SQP driver


@dataclass
class _Iterate:
    """A stacked trajectory with what the merit and the next QP need at it."""

    X: np.ndarray  # (N+1, 13) state rows
    U: np.ndarray  # (N, 6) wrench rows
    cost: float
    defects: np.ndarray  # (N, 12)
    tension: tuple  # tension_rows (J, c) over stages 0..N-1
    obstacle: tuple  # obstacle_rows (J, c) over stages 0..N
    rollout: tuple  # rk4_stages of (X[:-1], U)
    errors: np.ndarray  # (N+1, 12) state_error against the reference
    shares: tuple  # tension_shares of U
    defect_l1: float = field(init=False)
    defect_max: float = field(init=False)
    viol_l1: float = field(init=False)  # hard-row violations, positive parts
    viol_max: float = field(init=False)

    def __post_init__(self):
        viol = np.concatenate([self.tension[1].ravel(), self.obstacle[1].ravel()])
        viol = viol[viol > 0]
        self.defect_l1 = float(np.sum(np.abs(self.defects)))
        self.defect_max = _max_abs(self.defects)
        self.viol_l1 = float(np.sum(viol))
        self.viol_max = _max_abs(viol)

    def merit(self, mu_merit: float) -> float:
        return self.cost + mu_merit * (self.defect_l1 + self.viol_l1)


def _evaluate(X: np.ndarray, U: np.ndarray, problem, rollout=None) -> _Iterate:
    """The iterate at (X, U); rollout is rk4_stages of (X[:-1], U) when
    already computed, as `_rollout` records it, and is otherwise stepped on
    floats up to FLOAT_STEP_HORIZON stages, in numpy above."""
    errors = ocp.state_error(X, problem.ref_x)
    if rollout is None and len(U) <= FLOAT_STEP_HORIZON:
        rollout = _rollout(problem, U, X)[1]
    elif rollout is None:
        rollout = ocp.rk4_stages(X[:-1], U, problem.dt, problem)
    shares = ocp.tension_shares(U, problem)
    return _Iterate(
        X=X, U=U, rollout=rollout, errors=errors, shares=shares,
        cost=ocp.total_cost(X, U, problem, errors),
        defects=ocp.dynamics_defects(X, U, problem, rollout),
        tension=ocp.tension_rows(U, problem, shares),
        obstacle=ocp.obstacle_rows(X, problem),
    )


def _rollout(problem, U: np.ndarray, X: Optional[np.ndarray] = None):
    """U stepped by `plant.step_payload`'s RK4 body and derivative from each
    start row X[:-1], or rolled out from the initial state without X: the
    state rows X, and the step as rk4_stages of (X[:-1], U) gives it (in every
    bit when J_L is diagonal), from the recorded stages and rk4_step's end
    formula.  Raises plant.NonFiniteState when a step leaves the floats."""
    rows = []

    def derivative(s, u, params):
        ds = plant._payload_derivative(s, u, params)
        rows.extend((s, ds))
        return ds
    starts = [problem.x0.tolist()] if X is None else X[:-1].tolist()
    for i, u in enumerate(U.tolist()):
        stepped = plant._rk4_flat(derivative, starts[i], (u, problem.params), problem.dt)
        if X is None:
            starts.append(stepped)
    # (state or derivative, RK4 stage, step, 13), each stage's rows contiguous
    Y, k = np.array(rows).reshape(len(U), 4, 2, -1).transpose(2, 1, 0, 3).copy()
    end = Y[0] + (problem.dt / 6.0) * (k[0] + 2.0 * k[1] + 2.0 * k[2] + k[3])
    return np.array(starts) if X is None else X, (list(Y), end)


def _build_qp_data(point: _Iterate, problem, lam_u_prev=None) -> QpData:
    H_x, g_x, H_u, g_u = ocp.cost_expansion(point.X, point.U, problem, point.errors)
    A, B = ocp.linearize_dynamics(point.X[:-1], point.U, problem.dt, problem, point.rollout)
    J_u, c_u = point.tension
    if lam_u_prev is not None and np.any(lam_u_prev > 1e-12):
        # lagged-multiplier curvature of the active rows keeps the outer
        # loop from stalling at the Gauss-Newton accuracy floor (without
        # one, a zero sum would add to H_u = 2 Q_U, which has no -0.0)
        lam = lam_u_prev.reshape(c_u.shape)
        blocks = ocp.tension_row_hessians(point.U, problem, point.shares)
        H_u = H_u + np.einsum("kr,krij->kij", np.where(lam > 1e-12, lam, 0.0), blocks)
    J_x, c_x = point.obstacle
    N = problem.N
    return QpData(
        H_x=H_x, g_x=g_x, H_u=H_u, g_u=g_u, A=A, B=B, c=point.defects,
        # stage 0 is pinned to the measured state; constant rows there are
        # either trivially satisfied or a genuine infeasibility
        rows_x=_Rows.of(J_x[1:], c_x[1:], 1, N + 1),
        rows_u=_Rows.of(J_u, c_u, 0, N),
        z0=np.zeros(ocp.NX),
    )


def _nonlinear_kkt(data: QpData, result: QpResult) -> float:
    """Stationarity of the nonlinear problem at the current nominal, using the
    freshest QP duals: the QP's Lagrangian gradient at zero steps, g plus the
    dynamics and row multiplier terms, over stages 1..N of z and all of w."""
    r_x = data.g_x + data.rows_x.scatter(result.lam_x)
    r_x[:-1] += _mtv(data.A, result.nu)
    r_x[1:] -= result.nu
    r_u = data.g_u + _mtv(data.B, result.nu) + data.rows_u.scatter(result.lam_u)
    return _max_abs(r_x[1:], r_u)


def _price(point: _Iterate, problem, lam_u_prev, config: SolverConfig):
    """An iterate's QP data, QP result, stationarity and feasibility.

    Every pass, feasible iterate or not, solves its QP, lagged tension
    curvature included, by `qp_subproblem`: one Riccati factorization, whose
    back-solve answers when no row is violated at it, and active-set steps
    on the same factorization otherwise.  Feasibility only feeds the
    convergence test.
    """
    data = _build_qp_data(point, problem, lam_u_prev)
    result = qp_subproblem(data)
    feasible = point.defect_max <= config.feas_tol and point.viol_max <= config.feas_tol
    return data, result, _nonlinear_kkt(data, result), feasible


def solve(
    problem,
    warm: Optional[np.ndarray] = None,
    config: Optional[SolverConfig] = None,
    trace: Optional[list] = None,
) -> ocp.OcpSolution:
    """Solve the tracking problem; returns the iterate the solve stands on.

    warm is a guess of the N wrench rows, as shift_warm_start returns it;
    without one the reference wrenches ref_u[:-1] are the guess.  The solve
    starts from that guess rolled out from the initial state (`_rollout`),
    whose recorded RK4 step prices the first iterate, so it has no dynamics
    defect.  Raises plant.NonFiniteState when the rollout leaves the floats.

    status is "converged" when stationarity reaches kkt_tol with defects and
    hard constraints inside feas_tol, "stalled" when the line search accepts
    no step down to MIN_STEP (the iterate that step left from is returned),
    and otherwise "max_iter" (the iterate the last accepted step reached is
    returned).  Every returned kkt_residual is priced as each pass prices
    its iterate (`_price`), by the exact QP optimum of `qp_subproblem`: the
    row-free Riccati solve when no row is violated there, dual active-set
    steps on the same factorization otherwise.  Raises Infeasible when the
    constraint rows are inconsistent (including an initial state already
    violating a hard row, which no control can undo).  When trace is a
    list, one dict per outer iteration is appended: the incumbent merit,
    cost and stationarity, the accepted step length, the QP's iteration
    count (1 for the row-free solve, plus one per active-set step) and
    status ("optimal" or "max_iter"), and whether the line search stalled
    (no step accepted down to MIN_STEP, which ends the solve).  Raises
    QpNumericalFailure when a QP's factorization fails (`qp_subproblem`).
    """
    config = config or SolverConfig()
    _, v0 = ocp.obstacle_rows(problem.x0[None, :], problem)
    if v0.size and np.max(v0) > config.feas_tol:
        raise Infeasible(
            f"initial state violates obstacle clearance by {float(np.max(v0)):.3g} m"
        )

    U = np.array(problem.ref_u[:-1] if warm is None else warm, dtype=np.float64)
    if U.shape != (problem.N, ocp.NU):
        raise ocp.DimensionMismatch("warm start does not match the horizon")
    X, rollout = _rollout(problem, U)
    point = _evaluate(X, U, problem, rollout)

    mu_merit = MERIT_WEIGHT
    status = "max_iter"
    lam_u_prev = None
    for it in range(1, config.max_sqp_iters + 1):
        data, result, kkt, feasible = _price(point, problem, lam_u_prev, config)
        lam_u_prev = result.lam_u
        mu_merit = max(mu_merit, 1.1 * _max_abs(result.nu, result.lam_x, result.lam_u))

        phi0 = point.merit(mu_merit)
        record = {
            "merit": phi0, "cost": point.cost, "kkt": kkt, "alpha": 0.0,
            "qp_iters": result.iterations, "qp_status": result.status, "stalled": False,
        }
        if trace is not None:
            trace.append(record)
        if kkt <= config.kkt_tol and feasible:
            status = "converged"
            break

        # L1 merit line search along the QP step.  From an exactly feasible
        # iterate the step is a descent direction for the cost model, so cost
        # decrease is additionally enforced there; while closing defects or
        # constraint violations the merit alone governs acceptance.
        infeasibility = point.defect_l1 + point.viol_l1
        dgrad = float(np.sum(data.g_x * result.z) + np.sum(data.g_u * result.w))
        dphi = dgrad - mu_merit * infeasibility
        feasible_now = infeasibility <= 1e-12
        slack = 1e-12 * max(1.0, abs(phi0))
        alpha = 1.0
        accepted = False
        while alpha >= MIN_STEP:
            cand_X = point.X.copy()
            cand_X[1:] = ocp.retract(point.X[1:], alpha * result.z[1:])
            cand = _evaluate(cand_X, point.U + alpha * result.w, problem)
            phi = cand.merit(mu_merit)
            target = phi0 + ARMIJO * alpha * min(dphi, 0.0)
            ok = phi <= target and phi <= phi0 + slack
            if ok and feasible_now:
                ok = cand.cost <= point.cost + slack
            if ok:
                point = cand
                accepted = True
                break
            alpha *= BACKTRACK
        record["alpha"] = alpha if accepted else 0.0
        record["stalled"] = not accepted
        if not accepted:
            status = "stalled"  # no descent at the minimum step
            break
    else:
        # out of budget on an accepted step: price it like any pass, untraced
        kkt = _price(point, problem, lam_u_prev, config)[2]
    return ocp.OcpSolution(point.X, point.U, point.cost, kkt, it, status, point.errors)
