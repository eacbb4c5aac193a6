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

The QP itself is solved in-repo by a Mehrotra predictor-corrector interior
point method (Rao, Wright & Rawlings, JOTA 1998).  Each iteration factors
one Riccati recursion of the condensed Newton matrix and back-solves it
twice, once for the affine predictor and once for the centred corrector,
so the cost per iteration stays linear in the horizon length.  At every
iterate, feasible or not, the QP without its rows is solved first, by one
Riccati factorization; when no row binds at that minimizer it is the QP
optimum and gives the step, and the interior point runs only otherwise.

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
    """Riccati factorization failed at every regularization level."""


# line search: initial L1 merit weight, step shrink factor, smallest step
# tried and Armijo slope fraction
MERIT_WEIGHT = 10.0
BACKTRACK = 0.5
MIN_STEP = 1e-4
ARMIJO = 1e-4
# interior point: iteration cap, stopping tolerance, and the first nonzero
# Hessian regularization tried when a factorization fails
QP_MAX_ITERS = 100
QP_TOL = 1e-9
REG = 1e-8


@dataclass
class SolverConfig:
    max_sqp_iters: int = 30
    kkt_tol: float = 1e-6
    feas_tol: float = 1e-6

    def __post_init__(self):
        if not isinstance(self.max_sqp_iters, (int, np.integer)) or self.max_sqp_iters < 1:
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

    @cached_property
    def _outer(self) -> np.ndarray:
        """(m, dim * dim): each row's C_r^T C_r, flattened."""
        dim = self.C.shape[1]
        return (self.C[:, :, None] * self.C[:, None, :]).reshape(self.m, dim * dim)

    def apply(self, y: np.ndarray) -> np.ndarray:
        """C_r @ y_{stage(r)} for every row (without rows, the empty c)."""
        return np.einsum("rj,rj->r", self.C, y[self.stage]) if self.m else self.c

    def scatter(self, v: np.ndarray):
        """sum over a stage's rows of C_r^T v_r, per stage (without rows, a
        scalar 0.0, which adds bit for bit like the all-zero stage array)."""
        return self._onehot @ (self.C * v[:, None]) if self.m else 0.0

    def curvature(self, weight: np.ndarray):
        """sum over a stage's rows of weight_r C_r^T C_r, per stage (without
        rows, 0.0 as in scatter)."""
        dim = self.C.shape[1]
        return (self._onehot @ (weight[:, None] * self._outer)).reshape(-1, dim, dim) if self.m else 0.0


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

    def row_count(self) -> int:
        return self.rows_x.m + self.rows_u.m


@dataclass
class QpResult:
    z: np.ndarray  # (N+1, nx)
    w: np.ndarray  # (N, nu)
    nu: np.ndarray  # (N, nx) dynamics multipliers
    lam_x: np.ndarray  # (m_x,) multipliers of rows_x
    lam_u: np.ndarray  # (m_u,) multipliers of rows_u
    iterations: int
    status: str  # optimal | max_iter
    reg: float  # Hessian regularization the factorizations succeeded at


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
        """Q_uu^{-1} r_i at every stage, through the triangular factors.

        The interior point condenses rows with weights up to lam^2 / mu into
        Q_uu; applying the factors in turn keeps those directions accurate
        where a formed inverse L_inv^T L_inv loses them.
        """
        return _mtv(self.L_inv, _mv(self.L_inv, r))


def _riccati_factor(A, B, H_x, H_u, AB) -> _Riccati:
    """Factor the equality-constrained stage QP by backward value recursion.

    AB is [A B] stacked along the columns.  Raises numpy.linalg.LinAlgError
    when an input Hessian block is not positive definite; the caller
    escalates regularization.
    """
    N, nx = A.shape[0], A.shape[1]
    nu = B.shape[2]
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


def _stationarity(data: QpData, z, w, nu, lam_x, lam_u):
    """Lagrangian gradients in z (N+1, nx) and w (N, nu), with the row
    multipliers lam_x and lam_u."""
    r_x = _mv(data.H_x, z) + data.g_x + data.rows_x.scatter(lam_x)
    r_x[:-1] += _mtv(data.A, nu)
    r_x[1:] -= nu
    r_u = _mv(data.H_u, w) + data.g_u + _mtv(data.B, nu) + data.rows_u.scatter(lam_u)
    return r_x, r_u


def _max_abs(*arrays) -> float:
    return max((float(np.max(np.abs(a))) for a in arrays if np.size(a)), default=0.0)


def _max_step(value: np.ndarray, step: np.ndarray) -> float:
    """Largest a with value + a * step >= 0 (inf when nothing decreases)."""
    neg = step < 0
    return float(np.min(-value[neg] / step[neg])) if np.any(neg) else np.inf


def _equality_qp(data: QpData, H_x: np.ndarray, H_u: np.ndarray, reg: float) -> QpResult:
    """The QP without its inequality rows, from one Riccati factorization and
    one back-solve; zero multipliers on every row.  Raises
    numpy.linalg.LinAlgError when an input Hessian block is not positive
    definite."""
    fac = _riccati_factor(data.A, data.B, H_x, H_u, np.concatenate([data.A, data.B], axis=2))
    z, w, nu = _riccati_solve(fac, data.g_x, data.g_u, data.c, data.z0)
    return QpResult(z, w, nu, np.zeros(data.rows_x.m), np.zeros(data.rows_u.m), 1, "optimal", reg)


def _equality_certificate(data: QpData) -> Optional[QpResult]:
    """The QP optimum when no inequality row binds at it, else None.

    Solves the QP without its rows at reg 0.  When that minimizer satisfies
    every row, C y + c <= 0, it is also the optimum of the full convex QP,
    with zero row multipliers (Nocedal & Wright, Numerical Optimization,
    2nd ed., ch. 16), and `_price` takes it as the pass's QP answer.  The
    test holds at an infeasible iterate too: the dynamics defects sit in
    the QP's equality rows.  None when a row is violated or the
    factorization fails; the caller then runs the interior point.
    """
    try:
        result = _equality_qp(data, data.H_x, data.H_u, 0.0)
    except np.linalg.LinAlgError:
        return None
    for rows, y in ((data.rows_x, result.z), (data.rows_u, result.w)):
        if rows.m and np.max(rows.apply(y) + rows.c) > 0.0:
            return None
    return result


def qp_subproblem(data: QpData) -> QpResult:
    """Solve the stagewise QP; interior point when inequality rows exist.

    Without rows one Riccati factorization and back-solve give the optimum.
    Raises Infeasible when the rows cannot be satisfied (duals diverge while
    primal infeasibility stalls) and QpNumericalFailure when factorizations
    fail at every regularization level.  `solve` calls it only for a pass
    the certificate does not answer: a row violated at the row-free
    minimizer, or a failed reg-0 factorization (see `_price`).
    """
    levels = [0.0, REG, 1e-6, 1e-4, 1e-2]
    nx, nu = data.H_x.shape[-1], data.H_u.shape[-1]
    last_error: Optional[Exception] = None
    for reg in levels:
        H_x = data.H_x + reg * np.eye(nx)
        H_u = data.H_u + reg * np.eye(nu)
        try:
            if data.row_count() == 0:
                return _equality_qp(data, H_x, H_u, reg)
            return _qp_interior_point(data, H_x, H_u, reg)
        except np.linalg.LinAlgError as err:
            last_error = err
            continue
    raise QpNumericalFailure(f"Riccati factorization failed at reg {levels[-1]}: {last_error}")


def _qp_interior_point(data: QpData, H_x, H_u, reg: float) -> QpResult:
    """Mehrotra predictor-corrector on C y + c + s = 0, s >= 0, lam >= 0.

    Each iteration condenses the rows into the stage Hessians with weights
    lam / s, factors the Riccati recursion once, and solves it for the
    affine direction (sigma = 0) and then for the corrector, centred at
    sigma = (mu_aff / mu)^3 and carrying the second-order term
    ds_aff * dlam_aff.
    """
    N = data.N
    nx = len(data.z0)
    rows_x, rows_u = data.rows_x, data.rows_u
    mx = rows_x.m
    m = mx + rows_u.m
    z = np.zeros((N + 1, nx))
    z[0] = data.z0
    w = np.zeros_like(data.g_u)
    nu = np.zeros((N, nx))
    c_rows = np.concatenate([rows_x.c, rows_u.c])
    lam = np.ones(m)
    s = np.maximum(1.0, np.abs(c_rows))
    ftb = 0.995
    AB = np.concatenate([data.A, data.B], axis=2)

    def residuals():
        r_x, r_u = _stationarity(data, z, w, nu, lam[:mx], lam[mx:])
        r_eq = _mv(data.A, z[:N]) + _mv(data.B, w) + data.c - z[1:]
        r_in = np.concatenate([rows_x.apply(z), rows_u.apply(w)]) + c_rows + s
        return r_x, r_u, r_eq, r_in

    for it in range(1, QP_MAX_ITERS + 1):
        r_x, r_u, r_eq, r_in = residuals()
        mu = float(lam @ s) / m
        if (
            mu <= QP_TOL
            and _max_abs(r_x[1:], r_u) <= QP_TOL * 10  # stage 0 is pinned
            and _max_abs(r_eq) <= QP_TOL
            and _max_abs(r_in) <= QP_TOL
        ):
            return QpResult(z, w, nu, lam[:mx], lam[mx:], it, "optimal", reg)
        if np.max(lam) > 1e8 and _max_abs(r_in) > 1e-6:
            raise Infeasible("inequality rows inconsistent: duals diverged")

        # condensed Newton matrix: absorb each row block into its stage Hessian
        weight = lam / s
        fac = _riccati_factor(
            data.A, data.B, H_x + rows_x.curvature(weight[:mx]),
            H_u + rows_u.curvature(weight[mx:]), AB,
        )
        sl = np.concatenate([s, lam])

        def direction(r_comp):
            # slack and multiplier steps eliminated; the new iterate must
            # close the equality residual: dz_+ = A dz + B dw + r_eq
            v = (lam * r_in - r_comp) / s
            dz, dw, dnu = _riccati_solve(
                fac, r_x + rows_x.scatter(v[:mx]), r_u + rows_u.scatter(v[mx:]), r_eq, np.zeros(nx)
            )
            ds = -r_in - np.concatenate([rows_x.apply(dz), rows_u.apply(dw)])
            dlam = -(r_comp + lam * ds) / s
            # one ratio test over slacks and multipliers together
            return dz, dw, dnu, ds, dlam, _max_step(sl, np.concatenate([ds, dlam]))

        _, _, _, ds, dlam, step = direction(lam * s)
        alpha = min(1.0, step)
        mu_aff = float((s + alpha * ds) @ (lam + alpha * dlam)) / m
        sigma = (mu_aff / mu) ** 3
        dz, dw, dnu, ds, dlam, step = direction(lam * s + ds * dlam - sigma * mu)
        alpha = min(1.0, ftb * step)
        z = z + alpha * dz
        w = w + alpha * dw
        nu = nu + alpha * dnu
        s = s + alpha * ds
        lam = lam + alpha * dlam

    # out of iterations: distinguish infeasibility from slow convergence
    r_in = residuals()[3]
    if _max_abs(r_in) > 1e-6 and np.max(lam) > 1e6:
        raise Infeasible("inequality rows inconsistent: primal residual stalled")
    return QpResult(z, w, nu, lam[:mx], lam[mx:], QP_MAX_ITERS, "max_iter", reg)


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
    already computed, as `_rollout` records it."""
    errors = ocp.state_error(X, problem.ref_x)
    rollout = ocp.rk4_stages(X[:-1], U, problem.dt, problem) if rollout is None else rollout
    shares = ocp.tension_shares(U, problem)
    return _Iterate(
        X=X, U=U, rollout=rollout, errors=errors, shares=shares,
        cost=ocp.total_cost(X, U, problem, errors),
        defects=ocp.dynamics_defects(X, U, problem, rollout),
        tension=ocp.tension_rows(U, problem, shares),
        obstacle=ocp.obstacle_rows(X, problem),
    )


def _rollout(problem, U: np.ndarray):
    """The wrench rows U rolled out from the initial state by the RK4 body and
    derivative of `plant.step_payload`: the state rows X, and the step as
    rk4_stages of (X[:-1], U) gives it (in every bit when J_L is diagonal),
    from the recorded stages and rk4_step's end formula.  Raises
    plant.NonFiniteState when the rollout leaves the floats."""
    rows = []

    def derivative(s, u, params):
        ds = plant._payload_derivative(s, u, params)
        rows.extend((s, ds))
        return ds
    X = [problem.x0.tolist()]
    for u in U.tolist():
        X.append(plant._rk4_flat(derivative, X[-1], (u, problem.params), problem.dt))
    # (state or derivative, RK4 stage, step, 13), each stage's rows contiguous
    Y, k = np.array(rows).reshape(len(U), 4, 2, -1).transpose(2, 1, 0, 3).copy()
    end = Y[0] + (problem.dt / 6.0) * (k[0] + 2.0 * k[1] + 2.0 * k[2] + k[3])
    return np.array(X), (list(Y), end)


def _build_qp_data(point: _Iterate, problem, lam_u_prev=None) -> QpData:
    H_x, g_x, H_u, g_u = ocp.cost_expansion(point.X, point.U, problem, point.errors)
    A, B = ocp.linearize_dynamics(point.X[:-1], point.U, problem.dt, problem, point.rollout)
    J_u, c_u = point.tension
    if lam_u_prev is not None and c_u.size:
        # lagged-multiplier curvature of the active rows keeps the outer
        # loop from stalling at the Gauss-Newton accuracy floor
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
    freshest QP duals: `_stationarity` at zero steps less its zero Hessian terms."""
    r_x = data.g_x + data.rows_x.scatter(result.lam_x)
    r_x[:-1] += _mtv(data.A, result.nu)
    r_x[1:] -= result.nu
    r_u = data.g_u + _mtv(data.B, result.nu) + data.rows_u.scatter(result.lam_u)
    return _max_abs(r_x[1:], r_u)


def _price(point: _Iterate, problem, lam_u_prev, config: SolverConfig):
    """An iterate's QP data, QP result, stationarity and feasibility.

    At every iterate, feasible or not, the QP without rows is solved first
    (`_equality_certificate`); when no row binds there, that is the pass's
    QP answer, its step and multipliers.  Otherwise (a row violated at the
    row-free minimizer, or a failed reg-0 factorization) `qp_subproblem`
    answers.  Both solve the same QP, lagged tension curvature included.
    Feasibility only feeds the convergence test.
    """
    data = _build_qp_data(point, problem, lam_u_prev)
    result = _equality_certificate(data) or qp_subproblem(data)
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
    its iterate (`_price`): with the QP solved without its rows first (one
    Riccati factorization, `_equality_certificate`), feasible iterate or
    not; when no row binds there, that solve gives the step and the
    interior point is not run.  Otherwise the step comes from
    `qp_subproblem`.  Both solve the same convex QP, so the iterates match
    an interior-point-only solve to its QP_TOL, not bit for bit.  Raises
    Infeasible when the constraint rows are inconsistent (including an
    initial state already violating a hard row, which no control can undo).
    When trace is a list, one dict per outer iteration is appended: the
    incumbent merit, cost and stationarity, the accepted step length, the
    QP's iteration count, status ("optimal" or "max_iter") and Hessian
    regularization, and whether the line search stalled (no step accepted
    down to MIN_STEP, which ends the solve).
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
            "qp_iters": result.iterations, "qp_status": result.status,
            "reg": result.reg, "stalled": False,
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
    return ocp.OcpSolution(point.X, point.U, point.cost, kkt, it, status)
