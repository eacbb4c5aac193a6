"""Solver tests: hand-KKT QP oracles, full solves against independent references."""

import dataclasses
import itertools
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_references as refs
from cablelift import payload_ocp as ocp
from cablelift import harness, plant, so3, sqp
from cablelift.plant import SystemParams

RIG = SystemParams()
M_L, GRAV = RIG.m_L, RIG.g
# the presets' weights with a tenth of their moment weight
WEIGHTS = ocp.CostWeights(moment=4.0)


def state(p, v=(0.0, 0.0, 0.0)):
    """Level, non-rotating state row [p, v, q, omega]."""
    return np.concatenate([p, v, so3.quat_identity(), np.zeros(3)]).astype(float)


HOVER_U = np.array([0.0, 0.0, M_L * GRAV, 0.0, 0.0, 0.0])


def hover_refs(N, p=(0.0, 0.0, 1.0)):
    """(ref_x, ref_u): N + 1 hover reference rows at p."""
    return np.array([state(p)] * (N + 1)), np.array([HOVER_U] * (N + 1))


def make_problem(p0, N=20, f_max=1.2, obstacle=None, funnel_radius=0.2, v0=None):
    x0 = state(p0, (0.0, 0.0, 0.0) if v0 is None else v0)
    config = ocp.OcpConfig(
        weights=WEIGHTS,
        N=N,
        dt=0.05,
        obstacle_center=None if obstacle is None else np.asarray(obstacle[0], dtype=float),
        obstacle_clearance=0.0 if obstacle is None else obstacle[1],
        funnel_radius=funnel_radius,
    )
    return ocp.build_ocp(x0, *hover_refs(N), config, SystemParams(f_max=f_max))


def peak_tension_excess(solution, problem):
    _, vals = ocp.tension_rows(solution.U, problem)
    return float(np.max(vals)) if vals.size else -np.inf


# ---------------------------------------------------------------------------


class TestSolverConfig:
    def test_defaults_valid(self):
        cfg = sqp.SolverConfig()
        assert cfg.max_sqp_iters == 30
        assert cfg.kkt_tol == 1e-6
        assert cfg.feas_tol == 1e-6

    @pytest.mark.parametrize("field", ["kkt_tol", "feas_tol"])
    def test_tolerances_positive(self, field):
        for value in (-1e-6, 0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                sqp.SolverConfig(**{field: value})

    @pytest.mark.parametrize("value", [0, -1, 2.0])
    def test_max_sqp_iters_positive_integer(self, value):
        with pytest.raises(ValueError):
            sqp.SolverConfig(max_sqp_iters=value)


class TestShiftWarmStart:
    def _fake_solution(self, N):
        X = np.array([state((float(i), 0.0, 0.0)) for i in range(N + 1)])
        U = np.array([[float(i), 0.0, 0.0, 0.0, 0.0, 0.0] for i in range(N)])
        return ocp.OcpSolution(
            X=X, U=U, cost=0.0, kkt_residual=0.0, iterations=1, status="converged",
        )

    def test_one_step_same_horizon(self):
        prev = self._fake_solution(4)
        U = sqp.shift_warm_start(prev, 1, 4)
        assert U.shape == (4, 6)
        assert list(U[:, 0]) == [1.0, 2.0, 3.0, 3.0]  # duplicated final row

    def test_two_steps_shrunk_horizon_exact_suffix(self):
        prev = self._fake_solution(4)
        U = sqp.shift_warm_start(prev, 2, 2)
        assert list(U[:, 0]) == [2.0, 3.0]

    def test_elapsed_full_horizon_pads_from_terminal(self):
        prev = self._fake_solution(4)
        U = sqp.shift_warm_start(prev, 4, 4)
        assert list(U[:, 0]) == [3.0] * 4

    def test_elapsed_below_one_rejected(self):
        prev = self._fake_solution(4)
        with pytest.raises(ValueError):
            sqp.shift_warm_start(prev, 0, 4)

    def test_returns_copies(self):
        prev = self._fake_solution(3)
        U = sqp.shift_warm_start(prev, 1, 3)
        U[0, 0] = -99.0
        assert prev.U[1, 0] == 1.0


# ---------------------------------------------------------------------------


def no_rows(dim, stages):
    return sqp._Rows(np.zeros((0, dim)), np.zeros(0), np.zeros(0, dtype=int), stages)


def _scalar_qp(H_u, g_u, Cu=None, cu=None):
    """One state dimension, one input, trivial dynamics: cost lives on u_0."""
    z1 = np.zeros((1, 1))
    return sqp.QpData(
        H_x=[z1.copy(), z1.copy()],
        g_x=[np.zeros(1), np.zeros(1)],
        H_u=[np.asarray(H_u, dtype=float)],
        g_u=[np.asarray(g_u, dtype=float)],
        A=[z1.copy()],
        B=[z1.copy()],
        c=[np.zeros(1)],
        rows_x=no_rows(1, 2),
        rows_u=no_rows(1, 1) if Cu is None else sqp._Rows(Cu, cu, np.zeros(len(cu), dtype=int), 1),
        z0=np.zeros(1),
    )


class TestQpSubproblem:
    def test_scalar_unconstrained(self):
        # min 1/2 u^2 - u: stationarity u - 1 = 0, so u = 1
        result = sqp.qp_subproblem(_scalar_qp([[1.0]], [-1.0]))
        assert result.status == "optimal"
        assert result.w[0][0] == pytest.approx(1.0, abs=1e-10)

    def test_equality_two_variable_closed_form(self):
        # min 1/2 x1^2 - 2 x1 + 1/2 u^2  s.t.  x1 = u + 1.
        # Substituting: d/du [1/2 (u+1)^2 - 2(u+1) + 1/2 u^2] = 2u - 1 = 0,
        # so u = 1/2, x1 = 3/2, and the multiplier from the x1 stationarity
        # row x1 - 2 + nu_flip = 0 gives nu = x1 - 2 = -1/2.
        data = _scalar_qp([[1.0]], [0.0])
        data.H_x[1] = np.eye(1)
        data.g_x[1] = np.array([-2.0])
        data.B[0] = np.eye(1)
        data.c[0] = np.array([1.0])
        result = sqp.qp_subproblem(data)
        assert result.w[0][0] == pytest.approx(0.5, abs=1e-10)
        assert result.z[1][0] == pytest.approx(1.5, abs=1e-10)
        assert result.nu[0][0] == pytest.approx(-0.5, abs=1e-10)

    def test_active_box_constraint_dual_feasible(self):
        # min 1/2 u^2 - u  s.t.  u <= 1/2: the bound binds, u = 1/2, and the
        # stationarity row u - 1 + lam = 0 gives lam = 1/2 >= 0
        result = sqp.qp_subproblem(_scalar_qp([[1.0]], [-1.0], [[1.0]], [-0.5]))
        assert result.status == "optimal"
        assert result.w[0][0] == pytest.approx(0.5, abs=1e-6)
        assert result.lam_u[0] == pytest.approx(0.5, abs=1e-6)
        assert result.lam_u[0] >= 0.0

    def test_inactive_box_constraint(self):
        result = sqp.qp_subproblem(_scalar_qp([[1.0]], [-1.0], [[1.0]], [-5.0]))
        assert result.w[0][0] == pytest.approx(1.0, abs=1e-6)
        assert result.lam_u[0] == pytest.approx(0.0, abs=1e-6)

    def test_conflicting_rows_infeasible(self):
        # u <= -1 and u >= 1 cannot both hold
        data = _scalar_qp([[1.0]], [0.0], [[1.0], [-1.0]], [1.0, 1.0])
        with pytest.raises(sqp.Infeasible):
            sqp.qp_subproblem(data)

    def test_indefinite_hessian_numerical_failure(self):
        data = _scalar_qp([[-1.0]], [-1.0])
        with pytest.raises(sqp.QpNumericalFailure):
            sqp.qp_subproblem(data)

    def test_random_equality_qp_matches_dense_kkt(self):
        # oracle: assemble the full KKT system over (z_1..z_N, w_0..w_{N-1})
        # with z_0 pinned and solve it densely with numpy
        rng = np.random.default_rng(7)
        N, nx, nu = 3, 2, 1
        for _ in range(10):
            H_x = [None] * (N + 1)
            g_x = [rng.standard_normal(nx) for _ in range(N + 1)]
            for i in range(N + 1):
                S = rng.standard_normal((nx, nx))
                H_x[i] = S @ S.T + np.eye(nx)
            H_u, g_u = [], []
            for _ in range(N):
                s = rng.standard_normal((nu, nu))
                H_u.append(s @ s.T + np.eye(nu))
                g_u.append(rng.standard_normal(nu))
            A = [rng.standard_normal((nx, nx)) for _ in range(N)]
            B = [rng.standard_normal((nx, nu)) for _ in range(N)]
            c = [rng.standard_normal(nx) for _ in range(N)]
            z0 = rng.standard_normal(nx)
            data = sqp.QpData(
                H_x=H_x, g_x=g_x, H_u=H_u, g_u=g_u, A=A, B=B, c=c,
                rows_x=no_rows(nx, N + 1), rows_u=no_rows(nu, N), z0=z0,
            )
            result = sqp.qp_subproblem(data)
            assert np.allclose(result.z[0], z0)

            nz = N * nx + N * nu

            def zi(i):
                return slice((i - 1) * nx, i * nx)

            def wi(i):
                return slice(N * nx + i * nu, N * nx + (i + 1) * nu)

            H = np.zeros((nz, nz))
            g = np.zeros(nz)
            for i in range(1, N + 1):
                H[zi(i), zi(i)] = H_x[i]
                g[zi(i)] = g_x[i]
            for i in range(N):
                H[wi(i), wi(i)] = H_u[i]
                g[wi(i)] = g_u[i]
            E = np.zeros((N * nx, nz))
            d = np.zeros(N * nx)
            for i in range(N):
                rows = slice(i * nx, (i + 1) * nx)
                E[rows, zi(i + 1)] = -np.eye(nx)
                E[rows, wi(i)] = B[i]
                d[rows] = -c[i]
                if i == 0:
                    d[rows] -= A[0] @ z0
                else:
                    E[rows, zi(i)] = A[i]
            KKT = np.block([[H, E.T], [E, np.zeros((N * nx, N * nx))]])
            sol = np.linalg.solve(KKT, np.concatenate([-g, d]))
            z_dense = [z0] + [sol[zi(i)] for i in range(1, N + 1)]
            w_dense = [sol[wi(i)] for i in range(N)]
            nu_dense = sol[nz:].reshape(N, nx)
            for i in range(N + 1):
                np.testing.assert_allclose(result.z[i], z_dense[i], atol=1e-8)
            for i in range(N):
                np.testing.assert_allclose(result.w[i], w_dense[i], atol=1e-8)
                np.testing.assert_allclose(result.nu[i], nu_dense[i], atol=1e-8)

    def test_inactive_rows_do_not_move_the_optimum(self):
        rng = np.random.default_rng(3)
        base = _scalar_qp([[2.0]], [-3.0])
        free = sqp.qp_subproblem(base)
        boxed = _scalar_qp([[2.0]], [-3.0], [[1.0], [-1.0]], [-50.0, -50.0])
        result = sqp.qp_subproblem(boxed)
        assert result.w[0][0] == pytest.approx(free.w[0][0], abs=1e-6)


# ---------------------------------------------------------------------------
# the dual active set and the interior-point oracle against dense oracles


def _dense_form(data):
    """The stagewise QP over y = (z_1..z_N, w_0..w_{N-1}) as dense arrays:
    min 1/2 y H y + g y  s.t.  E y = d,  G y + h <= 0, with the rows of G
    ordered as (lam_x, lam_u) of a QpResult; no state row sits on the pinned
    stage 0."""
    N, nx, nu = data.N, len(data.z0), data.H_u.shape[-1]
    n = N * (nx + nu)

    def zi(i):
        return slice((i - 1) * nx, i * nx)

    def wi(i):
        return slice(N * nx + i * nu, N * nx + (i + 1) * nu)

    H = np.zeros((n, n))
    g = np.zeros(n)
    for i in range(1, N + 1):
        H[zi(i), zi(i)] = data.H_x[i]
        g[zi(i)] = data.g_x[i]
    for i in range(N):
        H[wi(i), wi(i)] = data.H_u[i]
        g[wi(i)] = data.g_u[i]
    E = np.zeros((N * nx, n))
    d = np.zeros(N * nx)
    for i in range(N):
        rows = slice(i * nx, (i + 1) * nx)
        E[rows, zi(i + 1)] = -np.eye(nx)
        E[rows, wi(i)] = data.B[i]
        d[rows] = -data.c[i]
        if i == 0:
            d[rows] -= data.A[0] @ data.z0
        else:
            E[rows, zi(i)] = data.A[i]
    G_rows, h = [], []
    for block, where in ((data.rows_x, zi), (data.rows_u, wi)):
        for C_r, c_r, i in zip(block.C, block.c, block.stage):
            row = np.zeros(n)
            row[where(i)] = C_r
            G_rows.append(row)
            h.append(c_r)
    assert 0 not in data.rows_x.stage
    return H, g, E, d, np.reshape(G_rows, (-1, n)), np.array(h)


def _dense_active_set_solution(H, g, E, d, G, h, tol=1e-9):
    """Exact optimum by enumerating active sets: the first set whose
    equality-constrained KKT point is primal and dual feasible to tol."""
    n, p = len(g), len(d)
    for size in range(len(h) + 1):
        for active in itertools.combinations(range(len(h)), size):
            S = list(active)
            M = np.vstack([E, G[S]])
            KKT = np.block([[H, M.T], [M, np.zeros((len(M), len(M)))]])
            try:
                sol = np.linalg.solve(KKT, np.concatenate([-g, d, -h[S]]))
            except np.linalg.LinAlgError:
                continue  # dependent rows: a smaller set carries the optimum
            y, lam_S = sol[:n], sol[n + p :]
            if np.all(G @ y + h <= tol) and np.all(lam_S >= -tol):
                lam = np.zeros(len(h))
                lam[S] = lam_S
                return y, sol[n : n + p], lam
    raise AssertionError("no active set satisfies the KKT conditions")


def _fixed_sigma_iterations(H, g, E, d, G, h, tol=1e-9, sigma=0.1, max_iter=100):
    """Iteration count of the primal-dual interior point with fixed
    centring sigma = 0.1, on the dense form, from the start point and with
    the stopping rule of the interior-point oracle."""
    n, p, m = len(g), len(d), len(h)
    y, nu, lam, s = np.zeros(n), np.zeros(p), np.ones(m), np.maximum(1.0, np.abs(h))
    for it in range(1, max_iter + 1):
        r_stat = H @ y + g + E.T @ nu + G.T @ lam
        r_eq = E @ y - d
        r_in = G @ y + h + s
        mu = lam @ s / m
        if (
            np.max(np.abs(r_stat)) <= 10 * tol
            and np.max(np.abs(r_eq)) <= tol
            and np.max(np.abs(r_in)) <= tol
            and mu <= tol
        ):
            return it
        r_comp = lam * s - sigma * mu
        W = lam / s
        KKT = np.block([[H + G.T @ (W[:, None] * G), E.T], [E, np.zeros((p, p))]])
        rhs = np.concatenate([-(r_stat + G.T @ ((lam * r_in - r_comp) / s)), -r_eq])
        sol = np.linalg.solve(KKT, rhs)
        dy, dnu = sol[:n], sol[n:]
        ds = -r_in - G @ dy
        dlam = -(r_comp + lam * ds) / s
        alpha = 1.0
        for v, dv in ((s, ds), (lam, dlam)):
            neg = dv < 0
            if np.any(neg):
                alpha = min(alpha, 0.995 * np.min(-v[neg] / dv[neg]))
        y, nu, s, lam = y + alpha * dy, nu + alpha * dnu, s + alpha * ds, lam + alpha * dlam
    return max_iter


def _random_qp_with_cut_rows(seed, N, nx, nu):
    """A strictly convex stagewise QP with one row on every input and, when
    there are two inputs per stage, on some states: rows are placed between
    a dynamically feasible point, which satisfies them strictly, and the
    unconstrained optimum, which violates all of them.  At most N * nu rows,
    so generic data keep the active rows linearly independent and the
    multipliers unique."""
    rng = np.random.default_rng(seed)

    def spd(k):
        S = rng.standard_normal((k, k))
        return S @ S.T + np.eye(k)

    data = sqp.QpData(
        H_x=[spd(nx) for _ in range(N + 1)],
        g_x=[rng.standard_normal(nx) for _ in range(N + 1)],
        H_u=[spd(nu) for _ in range(N)],
        g_u=[rng.standard_normal(nu) for _ in range(N)],
        A=[0.7 * rng.standard_normal((nx, nx)) for _ in range(N)],
        B=[rng.standard_normal((nx, nu)) for _ in range(N)],
        c=[rng.standard_normal(nx) for _ in range(N)],
        rows_x=no_rows(nx, N + 1), rows_u=no_rows(nu, N),
        z0=rng.standard_normal(nx),
    )
    free = sqp.qp_subproblem(data)
    w_feas = rng.standard_normal((N, nu))
    z_feas = [data.z0]
    for i in range(N):
        z_feas.append(data.A[i] @ z_feas[-1] + data.B[i] @ w_feas[i] + data.c[i])

    def cut(y_opt, y_feas):
        a = y_opt - y_feas + 0.3 * np.linalg.norm(y_opt - y_feas) * rng.standard_normal(len(y_opt))
        if a @ (y_opt - y_feas) <= 1e-3 * np.linalg.norm(a) * np.linalg.norm(y_opt - y_feas):
            a = y_opt - y_feas
        a = a / np.linalg.norm(a)  # unit rows keep the multipliers on the scale of the cost
        gap = a @ (y_opt - y_feas)
        return a, -(a @ y_feas) - rng.uniform(0.2, 0.8) * gap

    x_stages, x_rows = [], []
    for i in range(1, N + 1):
        if nu > 1 and rng.random() < 0.5:
            x_stages.append(i)
            x_rows.append(cut(free.z[i], z_feas[i]))
    C_x = np.reshape([C for C, _ in x_rows], (-1, nx))
    data.rows_x = sqp._Rows(C_x, [c for _, c in x_rows], x_stages, N + 1)
    u_rows = [cut(free.w[i], w_feas[i]) for i in range(N)]
    data.rows_u = sqp._Rows([C for C, _ in u_rows], [c for _, c in u_rows], np.arange(N), N)
    return data


def _binding_tension_qp():
    """The QP of a tension-bound solve after two SQP iterations: 40 wrench
    rows, the four of stage 0 binding, and linearly dependent there."""
    problem = make_problem((1.0, 0.0, 1.0), N=10, f_max=1.2, funnel_radius=10.0)
    early = sqp.solve(problem, config=sqp.SolverConfig(max_sqp_iters=2))
    return sqp._build_qp_data(sqp._evaluate(early.X, early.U, problem), problem)


class TestInteriorPointOracles:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        N=st.integers(1, 3),
        nx=st.integers(1, 3),
        nu=st.integers(1, 2),
    )
    def test_matches_dense_kkt_with_active_rows(self, seed, N, nx, nu):
        data = _random_qp_with_cut_rows(seed, N, nx, nu)
        y, nu_dense, lam_dense = _dense_active_set_solution(*_dense_form(data))
        assert np.any(lam_dense > 1e-6)  # some row binds
        # the solver's dual active set, and the interior point the tests
        # keep as the QP oracle
        for result in (sqp.qp_subproblem(data), _oracle_qp(data)):
            assert result.status == "optimal" and result.iterations > 1
            y_qp = np.concatenate([result.z[1:].ravel(), result.w.ravel()])
            lam_qp = np.concatenate([result.lam_x, result.lam_u])
            np.testing.assert_allclose(result.z[0], data.z0)
            np.testing.assert_allclose(y_qp, y, rtol=1e-6, atol=1e-6)
            np.testing.assert_allclose(result.nu.ravel(), nu_dense, rtol=1e-6, atol=1e-6)
            np.testing.assert_allclose(lam_qp, lam_dense, rtol=1e-6, atol=1e-6)

    def test_no_more_iterations_than_fixed_centring(self):
        # a QP of a tension-bound solve after two SQP iterations: 40 wrench
        # rows, several of them active at the QP optimum
        data = _binding_tension_qp()
        ipm = refs.qp_oracle(data)
        assert ipm.status == "optimal"
        assert np.sum(ipm.lam_u > 1e-6) >= 4
        fixed = _fixed_sigma_iterations(*_dense_form(data))
        assert fixed < 100
        assert ipm.iterations <= fixed
        # the dual active set reaches the oracle's optimum in fewer steps
        result = sqp.qp_subproblem(data)
        assert result.status == "optimal" and 1 < result.iterations < ipm.iterations
        for got, want in ((result.z, ipm.z), (result.w, ipm.w)):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-8)


# ---------------------------------------------------------------------------
# the convergence certificate: the QP without rows answers when no row binds


def _random_qp_with_slack_rows(seed, N, nx, nu):
    """A strictly convex stagewise QP whose rows all hold strictly at the
    minimizer without rows: each is a random unit row with its offset set
    0.1 to 1 below the value it reads there."""
    data = _random_qp_with_cut_rows(seed, N, nx, nu)
    free = sqp.qp_subproblem(
        dataclasses.replace(data, rows_x=no_rows(nx, N + 1), rows_u=no_rows(nu, N))
    )
    rng = np.random.default_rng(seed + 1)

    def slack_rows(Y, first):
        """Two rows on each stage of Y, which start at stage `first`."""
        C_all, c_all = [], []
        for y in Y:
            C = rng.standard_normal((2, len(y)))
            C /= np.linalg.norm(C, axis=1, keepdims=True)
            C_all.append(C)
            c_all.append(-(C @ y) - rng.uniform(0.1, 1.0, 2))
        stage = np.repeat(np.arange(first, first + len(Y)), 2)
        return sqp._Rows(np.concatenate(C_all), np.concatenate(c_all), stage, first + len(Y))

    data.rows_x = slack_rows(free.z[1:], 1)
    data.rows_u = slack_rows(free.w, 0)
    return data


def _converged_qp(problem):
    """The QP of a solver problem at its converged solution."""
    solution = sqp.solve(problem)
    assert solution.status == "converged"
    return sqp._build_qp_data(sqp._evaluate(solution.X, solution.U, problem), problem)


def _defective_iterate(problem, scale=1e-3, seed=0):
    """A converged solution with X[1:] retracted by a small random tangent
    step: dynamics defects far past feas_tol, every hard row still slack."""
    solution = sqp.solve(problem)
    X = solution.X.copy()
    step = scale * np.random.default_rng(seed).standard_normal((problem.N, ocp.NX))
    X[1:] = ocp.retract(solution.X[1:], step)
    return sqp._evaluate(X, solution.U, problem)


def _oracle_qp(data):
    """The interior-point oracle stops at QP_TOL = 1e-9 on mu and on its
    residuals, which leaves it up to about 2e-8 from the exact optimum on
    these QPs; run it far closer, so a 1e-8 match tests qp_subproblem."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(refs, "QP_TOL", 1e-12)
        return refs.qp_oracle(data)


def _kkt_errors(data, result) -> dict:
    """The largest error of each KKT condition of a QP result: stationarity
    (stages 1..N of z and all of w), the dynamics, the rows, the sign of the
    multipliers and complementarity."""
    r_x, r_u = refs.stationarity(data, result.z, result.w, result.nu, result.lam_x, result.lam_u)
    rows = np.concatenate([
        data.rows_x.apply(result.z) + data.rows_x.c, data.rows_u.apply(result.w) + data.rows_u.c
    ])
    lam = np.concatenate([result.lam_x, result.lam_u])
    return {
        "stationarity": sqp._max_abs(r_x[1:], r_u),
        "dynamics": sqp._max_abs(
            sqp._mv(data.A, result.z[:-1]) + sqp._mv(data.B, result.w) + data.c - result.z[1:],
            result.z[0] - data.z0,
        ),
        "rows": max(float(np.max(rows, initial=0.0)), 0.0),
        "sign": max(float(np.max(-lam, initial=0.0)), 0.0),
        "complementarity": sqp._max_abs(lam * rows),
    }


def _assert_dense_optimum(data, result, tol=1e-8):
    """result holds the dense active-set oracle's primal and dual optimum
    (on QPs whose multipliers are unique), and meets every KKT condition to
    1e-9.  The oracle takes rows as met to 1e-12, so that a row violated by
    1e-9 is active in it."""
    y, nu_dense, lam_dense = _dense_active_set_solution(*_dense_form(data), tol=1e-12)
    np.testing.assert_allclose(result.z[0], data.z0)
    np.testing.assert_allclose(
        np.concatenate([result.z[1:].ravel(), result.w.ravel()]), y, rtol=0.0, atol=tol
    )
    # the costates reach 1e3 on the tracking QPs; the dense solve rounds them
    # to about 1e-10 relative
    np.testing.assert_allclose(result.nu.ravel(), nu_dense, rtol=tol, atol=tol)
    lam = np.concatenate([result.lam_x, result.lam_u])
    np.testing.assert_allclose(lam, lam_dense, rtol=0.0, atol=tol)
    assert max(_kkt_errors(data, result).values()) <= 1e-9


def _counting_factorizations(patch, counts: list):
    """Make sqp._riccati_factor append to counts on every call."""
    factor = sqp._riccati_factor

    def counted(*args):
        counts.append(1)
        return factor(*args)

    patch.setattr(sqp, "_riccati_factor", counted)


class TestConvergenceCertificate:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**31),
        N=st.integers(1, 4),
        nx=st.integers(1, 3),
        nu=st.integers(1, 2),
    )
    def test_matches_interior_point_with_inactive_rows(self, seed, N, nx, nu):
        data = _random_qp_with_slack_rows(seed, N, nx, nu)
        assert data.rows_x.m + data.rows_u.m > 0
        cert = sqp.qp_subproblem(data)
        ipm = _oracle_qp(data)
        assert (cert.iterations, cert.status) == (1, "optimal")  # the row-free solve
        assert ipm.status == "optimal" and ipm.iterations > 1
        for got, want in ((cert.z, ipm.z), (cert.w, ipm.w), (cert.nu, ipm.nu)):
            np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-8)
        assert np.all(cert.lam_x == 0.0) and np.all(cert.lam_u == 0.0)
        assert sqp._nonlinear_kkt(data, cert) == pytest.approx(
            sqp._nonlinear_kkt(data, ipm), rel=1e-8, abs=1e-8
        )

    @pytest.mark.parametrize("p0", [(0.0, 0.0, 1.0), (0.3, -0.2, 1.1)])
    def test_matches_interior_point_on_a_converged_tracking_qp(self, p0):
        data = _converged_qp(make_problem(p0, N=10))
        assert data.rows_x.m + data.rows_u.m > 0  # tension rows, all slack
        cert = sqp.qp_subproblem(data)
        ipm = _oracle_qp(data)
        assert (cert.iterations, cert.status) == (1, "optimal") and ipm.status == "optimal"
        for got, want in ((cert.z, ipm.z), (cert.w, ipm.w), (cert.nu, ipm.nu)):
            np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-8)
        kkt = sqp._nonlinear_kkt(data, cert)
        assert kkt == pytest.approx(sqp._nonlinear_kkt(data, ipm), rel=1e-8, abs=1e-8)
        assert kkt <= sqp.SolverConfig().kkt_tol

    def test_answers_an_infeasible_iterate_where_no_row_binds(self, monkeypatch):
        """Dynamics defects sit in the QP's equality rows, so at an
        infeasible iterate the row-free minimizer is still the QP optimum
        when it meets every row, and `_price` takes it: one factorization,
        no active-set step."""
        problem = make_problem((0.3, -0.2, 1.1), N=10)
        point = _defective_iterate(problem)
        config = sqp.SolverConfig()
        assert point.defect_max > 100 * config.feas_tol and point.viol_max == 0.0
        factored = []
        with monkeypatch.context() as patch:
            _counting_factorizations(patch, factored)
            data, result, _, feasible = sqp._price(point, problem, None, config)
        assert not feasible and len(factored) == 1
        assert data.rows_x.m + data.rows_u.m > 0 and result.iterations == 1
        assert np.all(result.lam_x == 0.0) and np.all(result.lam_u == 0.0)
        ipm = _oracle_qp(data)
        assert ipm.status == "optimal" and ipm.iterations > 1
        for got, want in ((result.z, ipm.z), (result.w, ipm.w), (result.nu, ipm.nu)):
            np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-8)

    def test_an_infeasible_iterate_with_a_violated_row_steps(self, monkeypatch):
        """The same iterate, its tension row nearest to binding pushed 1e-9
        past the row-free minimizer: `_price` takes an active-set step on
        the same factorization, to the dense oracle's optimum."""
        problem = make_problem((0.3, -0.2, 1.1), N=10)
        point = _defective_iterate(problem)
        build, pushed_rows, factored = sqp._build_qp_data, [], []

        def pushed(*args):
            data = build(*args)
            rows, w = data.rows_u, sqp.qp_subproblem(data).w  # the row-free minimizer
            r = int(np.argmax(rows.apply(w) + rows.c))
            rows.c[r] = 1e-9 - rows.C[r] @ w[rows.stage[r]]
            pushed_rows.append(r)
            factored.clear()
            return data

        monkeypatch.setattr(sqp, "_build_qp_data", pushed)
        with monkeypatch.context() as patch:
            _counting_factorizations(patch, factored)
            data, result, _, feasible = sqp._price(point, problem, None, sqp.SolverConfig())
        assert not feasible and len(factored) == 1
        assert (result.iterations, result.status) == (2, "optimal")
        (r,) = pushed_rows
        assert result.lam_u[r] > 0.0 and np.count_nonzero(result.lam_u) == 1
        assert abs(data.rows_u.C[r] @ result.w[data.rows_u.stage[r]] + data.rows_u.c[r]) <= 1e-12
        _assert_dense_optimum(data, result)

    def test_circle_medium_runs_no_interior_point(self, monkeypatch):
        """Circle-medium's replans from 3 s on (steps 60 and 80 here) reach
        infeasible iterates, where no row binds either: the row-free solve
        prices every pass of the run, one factorization each and no
        active-set step."""
        config = dataclasses.replace(harness.scenario_preset("circle-medium"), duration=4.5)
        results, factored = [], []
        subproblem = sqp.qp_subproblem

        def spy(data):
            results.append(subproblem(data))
            return results[-1]

        monkeypatch.setattr(sqp, "qp_subproblem", spy)
        _counting_factorizations(monkeypatch, factored)
        log = harness.run_closed_loop(config)
        assert [e.k for e in log.events] == [0, 20, 40, 60, 80]
        assert log.solver_failures == 0
        assert len(results) >= sum(len(e.trace) for e in log.events) > len(log.events)
        assert len(factored) == len(results)
        assert all((r.iterations, r.status) == (1, "optimal") for r in results)

    def test_declines_on_a_binding_tension_row(self, monkeypatch):
        problem = make_problem((1.0, 0.0, 1.0), N=10, f_max=1.2, funnel_radius=10.0)
        data = _converged_qp(problem)
        ipm = _oracle_qp(data)
        assert np.max(ipm.lam_u) > 1e-3  # a row binds
        result = sqp.qp_subproblem(data)
        assert result.status == "optimal" and result.iterations > 1  # active-set steps
        for got, want in ((result.z, ipm.z), (result.w, ipm.w)):
            np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-8)
        # the solve ends where a solve whose every QP the interior-point
        # oracle answers, run to 1e-12, ends
        solution = sqp.solve(problem)
        monkeypatch.setattr(sqp, "qp_subproblem", _oracle_qp)
        ipm_only = sqp.solve(problem)
        assert (solution.status, solution.iterations) == (ipm_only.status, ipm_only.iterations)
        assert solution.status == "converged"
        np.testing.assert_allclose(solution.X, ipm_only.X, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(solution.U, ipm_only.U, rtol=0.0, atol=1e-9)
        assert solution.cost == pytest.approx(ipm_only.cost, rel=1e-12)
        assert max(solution.kkt_residual, ipm_only.kkt_residual) <= sqp.SolverConfig().kkt_tol

    def test_trace_keeps_one_record_per_iteration(self):
        # on the binding tension row the feasible cold start's step comes
        # from the row-free solve, and every later one, with the row binding,
        # from active-set steps
        problem = make_problem((1.0, 0.0, 1.0), N=10, f_max=1.2, funnel_radius=10.0)
        trace = []
        solution = sqp.solve(problem, trace=trace)
        assert solution.status == "converged"
        assert len(trace) == solution.iterations >= 3
        assert all(set(entry) == set(trace[0]) for entry in trace)
        first = trace[0]
        assert (first["qp_iters"], first["qp_status"], first["reg"]) == (1, "optimal", 0.0)
        assert first["alpha"] > 0.0
        assert all(entry["qp_iters"] > 1 for entry in trace[1:])
        last = trace[-1]
        assert (last["alpha"], last["stalled"]) == (0.0, False)
        assert last["kkt"] == solution.kkt_residual <= 1e-6

    @pytest.mark.parametrize(
        "preset, duration, payload_tol",
        # the full plant's stiff cables amplify round-off (measured: 1.6e-12
        # m on hover-recovery, 3.5e-5 m on circle-medium)
        [("hover-recovery", 3.0, 1e-9), ("circle-medium", 1.5, 1e-3)],
        ids=["hover-recovery-3.0", "circle-medium-1.5"],
    )
    def test_closed_loop_is_unchanged_without_it(self, monkeypatch, preset, duration, payload_tol):
        """A closed loop whose passes the row-free solve answers makes the
        events of one whose every QP the interior-point oracle solves, and
        its payload path agrees to payload_tol; no row binds on either run,
        so no pass takes an active-set step."""
        config = dataclasses.replace(harness.scenario_preset(preset), duration=duration)
        results, factored = [], []
        subproblem = sqp.qp_subproblem

        def subproblem_spy(data):
            results.append(subproblem(data))
            return results[-1]

        with monkeypatch.context() as patch:
            patch.setattr(sqp, "qp_subproblem", subproblem_spy)
            _counting_factorizations(patch, factored)
            log = harness.run_closed_loop(config)
        assert results and len(factored) == len(results)
        assert all((r.iterations, r.status) == (1, "optimal") for r in results)
        monkeypatch.setattr(sqp, "qp_subproblem", refs.qp_oracle)
        ipm_log = harness.run_closed_loop(config)
        assert len(log.events) == len(ipm_log.events) >= 2
        for e, e_ipm in zip(log.events, ipm_log.events):
            assert (e.k, e.kind, e.horizon, e.iterations, e.status) == (
                e_ipm.k, e_ipm.kind, e_ipm.horizon, e_ipm.iterations, e_ipm.status
            )
        np.testing.assert_array_equal(log.event, ipm_log.event)
        np.testing.assert_array_equal(log.horizon, ipm_log.horizon)
        np.testing.assert_allclose(
            log.payload[:, 0:3], ipm_log.payload[:, 0:3], rtol=0.0, atol=payload_tol
        )

    def test_empty_rows_add_like_the_general_expressions(self):
        """Without rows, apply and scatter skip their numpy work; what they
        return adds bit for bit like the zero-row expressions' results,
        signed zeros included."""
        rng = np.random.default_rng(6)
        dim, stages = 3, 4
        rows = no_rows(dim, stages)
        y = rng.standard_normal((stages, dim))
        empty = np.zeros(0)
        general_apply = np.einsum("rj,rj->r", rows.C, y[rows.stage])
        general_scatter = rows._onehot @ (rows.C * empty[:, None])
        base = rng.standard_normal((stages, dim))
        base[0] = [-0.0, 0.0, np.nan]
        for got, want in (
            (rows.apply(y) + rows.c, general_apply + rows.c),
            (np.concatenate([base[0], rows.apply(y)]), np.concatenate([base[0], general_apply])),
            (base + rows.scatter(empty), base + general_scatter),
        ):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# dependent and contradictory rows


def _objective(data, result) -> float:
    H, g = _dense_form(data)[:2]
    y = np.concatenate([result.z[1:].ravel(), result.w.ravel()])
    return float(0.5 * y @ H @ y + g @ y)


def _with_row(rows, C, c, stage):
    """rows with one more row C y + c <= 0 on the given stage."""
    return sqp._Rows(
        np.vstack([rows.C, C]), np.append(rows.c, c), np.append(rows.stage, stage), rows.stages
    )


def _contradicting(data, weights):
    """data with an input row that contradicts rows j of weights_j > 0, all
    on one stage: -sum_j weights_j (C_j w + c_j) + 1e-3 <= 0, where each
    row j must read at most 0.  Scaled and combined rows leave the Schur
    complement of the new row at rounding level, of either sign."""
    rows = data.rows_u
    (stage,) = set(rows.stage[weights > 0])
    return dataclasses.replace(
        data, rows_u=_with_row(rows, -(weights @ rows.C), 1e-3 - weights @ rows.c, stage)
    )


class TestDependentRows:
    """Rows whose gradients depend on the active rows' have no unique
    multipliers: the active set takes a vertex of the multiplier set, with
    the primal optimum of any other method."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        N=st.integers(1, 3),
        nx=st.integers(1, 3),
        nu=st.integers(1, 2),
    )
    def test_duplicated_and_scaled_rows_match_the_dense_oracle(self, seed, N, nx, nu):
        data = _random_qp_with_cut_rows(seed, N, nx, nu)
        rng = np.random.default_rng(seed + 2)
        for kind in ("rows_x", "rows_u"):
            rows = getattr(data, kind)
            for r in rng.choice(rows.m, size=min(rows.m, 2), replace=False):
                k = rng.choice([1.0, rng.uniform(0.3, 3.0)])  # a copy or a scaled copy
                rows = _with_row(rows, k * rows.C[r], k * rows.c[r], rows.stage[r])
            setattr(data, kind, rows)
        y, _, lam_dense = _dense_active_set_solution(*_dense_form(data))
        assert np.any(lam_dense > 1e-6)
        result = sqp.qp_subproblem(data)
        assert result.status == "optimal"
        np.testing.assert_allclose(result.z[0], data.z0)
        np.testing.assert_allclose(
            np.concatenate([result.z[1:].ravel(), result.w.ravel()]), y, rtol=1e-6, atol=1e-6
        )
        H, g = _dense_form(data)[:2]
        assert _objective(data, result) == pytest.approx(0.5 * y @ H @ y + g @ y, rel=1e-8, abs=1e-8)
        assert max(_kkt_errors(data, result).values()) <= 1e-9
        weights = np.zeros(data.rows_u.m)
        weights[np.argmax(result.lam_u)] = rng.uniform(0.3, 3.0)
        with pytest.raises(sqp.Infeasible):
            sqp.qp_subproblem(_contradicting(data, weights))

    def test_the_four_tension_rows_of_a_binding_stage(self):
        """The four tension rows of one wrench stage are linearly dependent
        (rows 0 + 2 = rows 1 + 3 here): the oracle spreads the multiplier
        evenly over them, the active set puts it on two, and both give the
        same primal optimum, costates and row force sum_r lam_r C_r."""
        data = _binding_tension_qp()
        rows = data.rows_u
        np.testing.assert_allclose(rows.C[0] + rows.C[2], rows.C[1] + rows.C[3], atol=1e-14)
        result, ipm = sqp.qp_subproblem(data), _oracle_qp(data)
        assert result.status == ipm.status == "optimal"
        assert np.all(ipm.lam_u[:4] > 1.0)
        assert np.count_nonzero(result.lam_u[:4]) == 2
        for got, want in ((result.z, ipm.z), (result.w, ipm.w), (result.nu, ipm.nu)):
            np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(
            rows.scatter(result.lam_u), rows.scatter(ipm.lam_u), rtol=0.0, atol=1e-8
        )
        assert _objective(data, result) == pytest.approx(_objective(data, ipm), rel=1e-12)
        assert max(_kkt_errors(data, result).values()) <= 1e-9
        # a row against the two active rows, alone or combined
        for k in (0.5, 0.7, 1.3, 2.0):
            for weights in ((k, 0.0, 0.0, 0.0), (0.0, 0.0, k, 0.0), (1.0, 0.0, k, 0.0)):
                with pytest.raises(sqp.Infeasible):
                    sqp.qp_subproblem(_contradicting(data, np.pad(weights, (0, rows.m - 4))))


# ---------------------------------------------------------------------------
# a QP on which the interior point fails


FULL_RECOVERY_QP = Path(__file__).parent / "fixtures" / "full_recovery_qp_step176.npz"


def _fixture_qp(path) -> sqp.QpData:
    arrays = np.load(path)
    rows = {
        kind: sqp._Rows(
            arrays[f"{kind}_C"], arrays[f"{kind}_c"], arrays[f"{kind}_stage"], stages
        )
        for kind, stages in (("rows_x", len(arrays["H_x"])), ("rows_u", len(arrays["H_u"])))
    }
    fields = ("H_x", "g_x", "H_u", "g_u", "A", "B", "c", "z0")
    return sqp.QpData(**{name: arrays[name] for name in fields}, **rows)


class TestFullRecoveryQp:
    """The first QP of the event solve at NMPC step 176 of `hover-recovery`
    with `plant_model: full` (the preset's 0.30 m offset) that failed while
    an interior point solved the binding QPs: 20 stages, 80 tension rows.
    The interior point condenses the binding rows into input Hessians with
    entries up to about 5e19, which read indefinite in floats, and raises
    QpNumericalFailure at every regularization level."""

    def test_the_dual_active_set_solves_it_at_reg_0(self):
        data = _fixture_qp(FULL_RECOVERY_QP)
        assert (data.N, data.rows_x.m, data.rows_u.m) == (20, 0, 80)
        result = sqp.qp_subproblem(data)
        assert (result.status, result.reg) == ("optimal", 0.0)
        assert result.iterations > 1 and np.count_nonzero(result.lam_u) > 1
        errors = _kkt_errors(data, result)
        assert max(errors.values()) <= 1e-9, errors
        # a row that left the active set keeps no multiplier at all
        slack = data.rows_u.apply(result.w) + data.rows_u.c < -1e-9
        assert np.all(result.lam_u[slack] == 0.0)

    def test_the_interior_point_oracle_fails_on_it(self):
        with pytest.raises(sqp.QpNumericalFailure):
            refs.qp_oracle(_fixture_qp(FULL_RECOVERY_QP))


# ---------------------------------------------------------------------------
# the inequality rows, stacked over the stages


def _obstacle_problem(N=6):
    """A problem with a far obstacle row on every state and four tension rows
    on every wrench, all slack at its solution."""
    return make_problem((0.3, -0.2, 1.1), N=N, obstacle=((5.0, 0.0, 1.0), 0.2))


class TestStackedRows:
    def test_obstacle_rows_on_stages_1_to_N_and_tension_rows_on_0_to_N_minus_1(self):
        N = 6
        problem = _obstacle_problem(N)
        U = problem.ref_u[:-1]
        X, rollout = sqp._rollout(problem, U)
        point = sqp._evaluate(X, U, problem, rollout)
        data = sqp._build_qp_data(point, problem)
        J_x, c_x = point.obstacle
        J_u, c_u = point.tension
        assert (data.rows_x.stages, data.rows_u.stages) == (N + 1, N)
        np.testing.assert_array_equal(data.rows_x.stage, np.arange(1, N + 1))
        np.testing.assert_array_equal(data.rows_u.stage, np.repeat(np.arange(N), 4))
        # row r of stage i is row r of payload_ocp's stage-i block
        assert np.array_equal(data.rows_x.C, J_x[1:, 0])
        assert np.array_equal(data.rows_x.c, c_x[1:, 0])
        assert np.array_equal(data.rows_u.C, J_u.reshape(4 * N, 6))
        assert np.array_equal(data.rows_u.c, c_u.ravel())

    @pytest.mark.parametrize("kind", ["rows_x", "rows_u"])
    def test_a_one_stage_step_moves_only_that_stage_rows(self, kind):
        data = _converged_qp(_obstacle_problem())
        block = getattr(data, kind)
        rng = np.random.default_rng(4)
        for k in range(block.stages):
            y = np.zeros((block.stages, block.C.shape[1]))
            y[k] = rng.standard_normal(block.C.shape[1])
            moved = block.apply(y) != 0.0
            np.testing.assert_array_equal(moved, block.stage == k)
            # and a multiplier on that stage's rows lands on that stage alone
            v = np.where(block.stage == k, rng.uniform(0.5, 1.0, block.m), 0.0)
            summed = block.scatter(v)
            assert np.all(np.delete(summed, k, axis=0) == 0.0)
            assert np.any(summed[k] != 0.0) == np.any(block.stage == k)

    @pytest.mark.parametrize("kind", ["rows_x", "rows_u"])
    def test_certificate_declines_one_violated_mid_horizon_row(self, kind):
        """The row-free solve answers while every row is slack; one row
        violated by 1e-9 takes one active-set step, which holds that row at
        equality, to the dense oracle's optimum."""
        N = 6
        data = _converged_qp(_obstacle_problem(N))
        cert = sqp.qp_subproblem(data)
        assert cert.iterations == 1  # every row slack
        block = getattr(data, kind)
        y = cert.z if kind == "rows_x" else cert.w
        r = int(np.flatnonzero(block.stage == N // 2)[-1])
        reading = block.C[r] @ y[N // 2]
        assert reading + block.c[r] < 0.0
        block.c[r] = 1e-9 - reading  # violated by 1e-9 at the equality minimizer
        result = sqp.qp_subproblem(data)
        assert (result.iterations, result.status) == (2, "optimal")
        lam = result.lam_x if kind == "rows_x" else result.lam_u
        assert lam[r] > 0.0 and np.count_nonzero(lam) == 1
        y = result.z if kind == "rows_x" else result.w
        assert abs(block.C[r] @ y[N // 2] + block.c[r]) <= 1e-12
        _assert_dense_optimum(data, result)


# ---------------------------------------------------------------------------


class TestSolve:
    def test_on_reference_immediate_convergence(self):
        problem = make_problem((0.0, 0.0, 1.0))
        solution = sqp.solve(problem)
        assert solution.status == "converged"
        assert solution.iterations <= 2
        assert solution.cost <= 1e-12
        assert solution.kkt_residual <= 1e-6

    def test_hover_offset_matches_single_shooting_oracle(self):
        # oracle: direct single shooting over the 18 wrench numbers, descent
        # along finite-difference gradients with Barzilai-Borwein steps until
        # the gradient infinity norm drops below 1e-8
        problem = make_problem((0.1, 0.0, 1.0), N=3)
        solution = sqp.solve(problem)
        assert solution.status == "converged"

        def objective(uvec):
            U = uvec.reshape(problem.N, 6)
            X = [problem.x0]
            for u in U:
                X.append(ocp.discretize(X[-1], u, problem.dt, problem))
            return ocp.total_cost(np.array(X), U, problem)

        def gradient(uvec, h=1e-6):
            grad = np.zeros_like(uvec)
            for j in range(len(uvec)):
                up, dn = uvec.copy(), uvec.copy()
                up[j] += h
                dn[j] -= h
                grad[j] = (objective(up) - objective(dn)) / (2.0 * h)
            return grad

        u = np.concatenate([HOVER_U for _ in range(3)])
        g = gradient(u)
        u_prev = g_prev = None
        step = 1e-2
        for _ in range(500):
            if np.max(np.abs(g)) <= 1e-8:
                break
            if u_prev is not None:
                du, dg = u - u_prev, g - g_prev
                denom = float(dg @ dg)
                if denom > 0.0:
                    step = abs(float(du @ dg)) / denom
            u_prev, g_prev = u.copy(), g.copy()
            u = u - step * g
            g = gradient(u)
        assert np.max(np.abs(g)) <= 1e-8, "oracle failed to converge"
        assert abs(objective(u) - solution.cost) <= 1e-4

    def test_initial_state_inside_clearance_infeasible(self):
        problem = make_problem(
            (0.0, 0.0, 1.0), N=1, obstacle=((0.0, 0.0, 1.0), 0.5)
        )
        with pytest.raises(sqp.Infeasible):
            sqp.solve(problem)

    def test_bit_deterministic_resolve(self):
        problem = make_problem((0.6, -0.2, 1.1), N=10)
        first = sqp.solve(problem)
        second = sqp.solve(problem)
        assert first.cost == second.cost
        assert first.iterations == second.iterations
        assert np.array_equal(first.X, second.X)
        assert np.array_equal(first.U, second.U)
        warm = sqp.shift_warm_start(first, 1, 10)
        third = sqp.solve(problem, warm=warm)
        fourth = sqp.solve(problem, warm=sqp.shift_warm_start(first, 1, 10))
        assert third.cost == fourth.cost
        assert np.array_equal(third.X, fourth.X)
        assert np.array_equal(third.U, fourth.U)

    def test_tension_bound_binds_and_is_respected(self):
        # a 1 m lateral offset demands cable shares past f_max when unbounded
        free = sqp.solve(make_problem((1.0, 0.0, 1.0), f_max=np.inf, funnel_radius=10.0))
        bound_check = make_problem((1.0, 0.0, 1.0), f_max=1.2, funnel_radius=10.0)
        assert peak_tension_excess(free, bound_check) > 0.3
        solution = sqp.solve(bound_check)
        assert solution.status == "converged"
        assert peak_tension_excess(solution, bound_check) <= 1e-6
        assert solution.cost >= free.cost  # constraint can only cost tracking

    def test_obstacle_clearance_respected(self):
        problem = make_problem(
            (0.8, 0.05, 1.0),
            f_max=np.inf,
            obstacle=((0.4, 0.0, 1.0), 0.15),
            funnel_radius=10.0,
        )
        solution = sqp.solve(problem)
        assert solution.status == "converged"
        dists = [
            float(np.linalg.norm(x[0:3] - problem.obstacle_center)) for x in solution.X
        ]
        assert min(dists) >= 0.15 - 1e-6
        # the straight-line descent would cut well inside the keep-out ball
        assert min(
            float(np.linalg.norm(p - problem.obstacle_center))
            for p in np.linspace(problem.x0[0:3], problem.ref_x[-1, 0:3], 50)
        ) < 0.10

    def test_merit_and_cost_monotone_from_feasible_start(self):
        trace = []
        solution = sqp.solve(make_problem((1.0, 0.0, 1.0), funnel_radius=10.0), trace=trace)
        assert solution.status == "converged"
        merits = [entry["merit"] for entry in trace]
        for prev, curr in zip(merits, merits[1:]):
            assert curr <= prev + 1e-9 * max(1.0, abs(prev))
        # cold start is feasible, so the plain cost must not increase either
        # until constraint rows activate; check the pre-activation prefix
        costs = [entry["cost"] for entry in trace]
        assert costs[1] < costs[0]

    def test_linear_unconstrained_problem_single_iteration_kkt(self):
        # pure translation, no inequality rows, funnel far away: the dynamics
        # restricted to the visited subspace are linear, so the first QP step
        # already lands on the KKT point and the next pass certifies it
        problem = make_problem(
            (0.1, 0.05, 0.8), f_max=np.inf, funnel_radius=50.0, N=8
        )
        solution = sqp.solve(problem)
        assert solution.status == "converged"
        assert solution.iterations <= 2
        assert solution.kkt_residual <= 1e-6

    def test_max_iter_returns_a_full_horizon_iterate(self):
        config = sqp.SolverConfig(max_sqp_iters=2)
        problem = make_problem((1.5, 0.0, 1.0), funnel_radius=10.0)
        solution = sqp.solve(problem, config=config)
        assert solution.status == "max_iter"
        assert solution.iterations == 2
        assert np.isfinite(solution.cost)
        assert len(solution.X) == problem.N + 1
        assert len(solution.U) == problem.N
        full = sqp.solve(problem)
        assert full.status == "converged"
        assert full.cost <= solution.cost + 1e-9

    @pytest.mark.parametrize("cap", [1, 2, 3, 4])
    def test_capped_solve_returns_the_iterate_it_reached(self, cap):
        """A solve out of budget returns the point its last step reached,
        priced as the next pass of an uncapped solve prices it."""
        problem = make_problem((-1.2, 0.8, 1.5), N=12, f_max=0.8, v0=(0.0, 0.5, 0.0))
        trace = []
        sqp.solve(problem, trace=trace)
        assert len(trace) > cap
        capped = sqp.solve(problem, config=sqp.SolverConfig(max_sqp_iters=cap))
        assert (capped.status, capped.iterations) == ("max_iter", cap)
        assert capped.cost == trace[cap]["cost"]
        assert capped.kkt_residual == trace[cap]["kkt"]

    def test_line_search_stall_reads_stalled(self, monkeypatch):
        # a minimum step above the full step leaves the line search nothing
        # to try, so the first iteration that needs a step stalls
        monkeypatch.setattr(sqp, "MIN_STEP", 1.5)
        problem = make_problem((1.5, 0.0, 1.0), funnel_radius=10.0)
        trace = []
        solution = sqp.solve(problem, trace=trace)
        assert solution.status == "stalled"
        assert solution.iterations == 1
        assert [entry["stalled"] for entry in trace] == [True]
        assert np.isfinite(solution.cost)

    def test_converged_solve_reads_converged(self):
        problem = make_problem((1.5, 0.0, 1.0), funnel_radius=10.0)
        trace = []
        solution = sqp.solve(problem, trace=trace)
        assert solution.status == "converged"
        assert not any(entry["stalled"] for entry in trace)

    def test_warm_started_resolve_converges_fast(self):
        problem = make_problem((0.5, 0.0, 1.0), N=20)
        cold = sqp.solve(problem)
        assert cold.status == "converged"
        # restarting at the optimal wrench plan certifies in one pass
        warm = cold.U
        resolved = sqp.solve(problem, warm=warm)
        assert resolved.status == "converged"
        assert resolved.iterations <= 2
        # closed-loop usage: the plant advanced one step, the shifted tail
        # of the old solution is a near-optimal guess for the new problem
        advanced = ocp.build_ocp(
            cold.X[1],
            *hover_refs(20),
            ocp.OcpConfig(weights=WEIGHTS, N=20, dt=0.05, funnel_radius=0.2),
            RIG,
        )
        shifted = sqp.solve(advanced, warm=sqp.shift_warm_start(cold, 1, 20))
        assert shifted.status == "converged"
        assert shifted.iterations <= 4

    @staticmethod
    def _replan(params, x0):
        """A cold solve from the state row x0 toward hover at 1 m, then the
        replan one step later: (first solution, new problem, shifted plan)."""
        config = ocp.OcpConfig(weights=WEIGHTS, N=20, dt=0.05, funnel_radius=0.2)
        first = sqp.solve(ocp.build_ocp(x0, *hover_refs(20), config, params))
        advanced = ocp.build_ocp(first.X[1], *hover_refs(20), config, params)
        return first, advanced, sqp.shift_warm_start(first, 1, 20)

    def test_warm_start_is_dynamically_feasible(self):
        """The shifted plan rolled out from the new state has no defect: none
        at all on the preset rig, whose diagonal J_L makes the rollout
        discretize's floats, and within feas_tol for a tilted inertia."""
        x0 = state((0.5, 0.0, 1.0))
        x0[10:13] = (0.3, -0.2, 0.1)
        R = so3.quat_to_rotation(so3.quat_normalize(np.array([0.9, 0.2, -0.3, 0.1])))
        tilted = SystemParams(J_L=R @ RIG.J_L @ R.T)
        for params, bound in ((RIG, 0.0), (tilted, sqp.SolverConfig().feas_tol)):
            first, advanced, U = self._replan(params, x0)
            assert first.status == "converged"
            X, _ = sqp._rollout(advanced, U)
            assert sqp._evaluate(X, U, advanced).defect_max <= bound

    def test_feasible_replan_skips_the_interior_point_on_its_first_pass(self, monkeypatch):
        """A shifted plan meeting every tension row starts at a feasible
        iterate, so the row-free solve answers the first pass: one
        factorization, no active-set step."""
        _, advanced, U = self._replan(RIG, state((0.5, 0.0, 1.0)))
        assert np.max(ocp.tension_rows(U, advanced)[1]) <= 0.0
        trace, first_pass = [], []
        factor = sqp._riccati_factor

        def counted(*args):
            first_pass.append(not trace)  # no pass recorded yet
            return factor(*args)

        monkeypatch.setattr(sqp, "_riccati_factor", counted)
        assert sqp.solve(advanced, warm=U, trace=trace).status == "converged"
        assert first_pass.count(True) == 1 and trace[0]["qp_iters"] == 1

    def test_warm_and_cold_solves_agree(self):
        """Oracle: from the shifted plan and from the reference wrenches the
        solver reaches the same optimum, to its tolerance."""
        _, advanced, U = self._replan(RIG, state((0.5, 0.0, 1.0)))
        warm, cold = sqp.solve(advanced, warm=U), sqp.solve(advanced)
        assert warm.status == cold.status == "converged"
        tol = sqp.SolverConfig().feas_tol
        np.testing.assert_allclose(warm.X, cold.X, rtol=0.0, atol=tol)
        np.testing.assert_allclose(warm.U, cold.U, rtol=0.0, atol=tol)

    def test_converged_solution_has_tiny_defects(self):
        problem = make_problem((0.7, 0.3, 1.2), N=12)
        solution = sqp.solve(problem)
        assert solution.status == "converged"
        defects = ocp.dynamics_defects(solution.X, solution.U, problem)
        assert max(float(np.max(np.abs(d))) for d in defects) <= 1e-6

    def test_wrong_warm_start_length_rejected(self):
        problem = make_problem((0.1, 0.0, 1.0), N=5)
        other = sqp.solve(make_problem((0.1, 0.0, 1.0), N=3))
        warm = sqp.shift_warm_start(other, 1, 3)  # three wrench rows for five stages
        with pytest.raises(ocp.DimensionMismatch):
            sqp.solve(problem, warm=warm)
        with pytest.raises(ocp.DimensionMismatch):
            sqp.solve(problem, warm=sqp.shift_warm_start(other, 1, 5)[:, :3])

    def test_trace_marks_qp_max_iter_and_reports_the_qp(self, monkeypatch):
        # the binding tension row: the cold start's step comes from the
        # row-free solve, the next two from the capped active set
        problem = make_problem((1.0, 0.0, 1.0), N=10, f_max=1.2, funnel_radius=10.0)
        trace = []
        with monkeypatch.context() as patch:
            patch.setattr(sqp, "QP_MAX_ITERS", 2)
            sqp.solve(problem, config=sqp.SolverConfig(max_sqp_iters=3), trace=trace)
        assert [(e["qp_iters"], e["qp_status"]) for e in trace] == [
            (1, "optimal"), (2, "max_iter"), (2, "max_iter")
        ]
        full = []
        solution = sqp.solve(problem, trace=full)
        assert solution.status == "converged"
        assert max(entry["qp_iters"] for entry in full) > 1
        for entry in full:
            assert entry["qp_status"] == "optimal"
            assert 1 <= entry["qp_iters"] < 100
            assert entry["reg"] == 0.0
            assert entry["stalled"] is False


# ---------------------------------------------------------------------------
# each iterate evaluated once: its QP is built from the merit's values.
# Every comparison is bitwise (np.array_equal); a tolerance would hide a
# stale or mismatched reuse.


def _tilted_problem(N, seed=0):
    """A tension-bound problem whose reference attitudes are all different,
    so that each stage has its own cable share maps."""
    rng = np.random.default_rng(seed)
    ref_x, ref_u = hover_refs(N)
    ref_x[:, 6:10] = so3.quat_normalize(
        so3.quat_identity() + 0.2 * rng.standard_normal((N + 1, 4))
    )
    config = ocp.OcpConfig(weights=WEIGHTS, N=N, dt=0.05)
    return ocp.build_ocp(state((0.1, -0.1, 1.0)), ref_x, ref_u, config, SystemParams(f_max=0.7))


def _random_trajectory(problem, seed=1):
    """State rows (N+1, 13) around the reference, attitudes and rates
    perturbed, and wrench rows (N, 6) some of which overload a cable."""
    rng = np.random.default_rng(seed)
    N = problem.N
    X = problem.ref_x.copy()
    X[:, 0:6] += 0.1 * rng.standard_normal((N + 1, 6))
    X[:, 6:10] = so3.quat_normalize(X[:, 6:10] + 0.1 * rng.standard_normal((N + 1, 4)))
    X[:, 10:13] = rng.standard_normal((N + 1, 3))
    X[0] = problem.x0
    U = problem.ref_u[:-1] + np.concatenate(
        [rng.standard_normal((N, 3)), 0.02 * rng.standard_normal((N, 3))], axis=1
    )
    return X, U


def _assert_same_qp(a: sqp.QpData, b: sqp.QpData):
    for f in dataclasses.fields(sqp.QpData):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, sqp._Rows):
            assert x.stages == y.stages, f.name
            for part in ("C", "c", "stage"):
                assert np.array_equal(getattr(x, part), getattr(y, part)), (f.name, part)
        else:
            assert np.array_equal(x, y), f.name


class TestIterateReuse:
    @pytest.mark.parametrize("K", [1, 2, 20])
    def test_linearize_from_the_stored_rollout(self, K):
        problem = _tilted_problem(K)
        X, U = _random_trajectory(problem)
        point = sqp._evaluate(X, U, problem)
        stored = ocp.linearize_dynamics(X[:-1], U, problem.dt, problem, point.rollout)
        fresh = ocp.linearize_dynamics(X[:-1], U, problem.dt, problem)
        assert all(map(np.array_equal, stored, fresh))
        assert np.array_equal(point.defects, ocp.dynamics_defects(X, U, problem))

    def test_discretize_is_one_rk4_step(self):
        """discretize through rk4_stages: plant.rk4_step on the payload
        dynamics, then the attitude renormalized."""
        problem = _tilted_problem(20)
        X, U = _random_trajectory(problem)
        expected = plant.rk4_step(
            lambda y, u: ocp.payload_dynamics(y, u, problem), X[:-1], U, problem.dt
        )
        expected[:, 6:10] = so3.quat_normalize(expected[:, 6:10])
        assert np.array_equal(ocp.discretize(X[:-1], U, problem.dt, problem), expected)
        stages, end = ocp.rk4_stages(X[:-1], U, problem.dt, problem)
        assert len(stages) == 4 and np.array_equal(stages[0], X[:-1])

    def test_cost_from_the_stored_errors(self):
        problem = make_problem((0.4, 0.0, 1.0), N=6, funnel_radius=0.05)
        X, U = _random_trajectory(problem)
        point = sqp._evaluate(X, U, problem)
        assert point.cost == ocp.total_cost(X, U, problem)
        stored = ocp.cost_expansion(X, U, problem, point.errors)
        assert all(map(np.array_equal, stored, ocp.cost_expansion(X, U, problem)))

    def test_tension_rows_from_the_problem_share_maps(self):
        problem = _tilted_problem(8)
        X, U = _random_trajectory(problem)
        assert problem.share_maps is problem.share_maps  # built once
        # the kept maps are those of the stage reference attitudes
        fresh_maps = ocp._share_maps(problem.ref_x[:-1, 6:10], problem.amap)
        assert np.array_equal(problem.share_maps, fresh_maps)
        shares = ocp.tension_shares(U, problem)
        J, c = ocp.tension_rows(U, problem, shares)
        assert np.max(c) > 0.0  # some cable overloaded
        J_fresh, c_fresh = ocp.tension_rows(U, problem)
        assert np.array_equal(J, J_fresh) and np.array_equal(c, c_fresh)
        assert np.array_equal(
            ocp.tension_row_hessians(U, problem, shares), ocp.tension_row_hessians(U, problem)
        )

    def test_qp_subproblem_stacks_AB_once(self, monkeypatch):
        """Every regularization level factors with the same stacked [A B];
        here reg 0 fails on an input Hessian of -5e-9 and REG succeeds."""
        data = _scalar_qp([[-5e-9]], [-1.0], [[1.0]], [-0.5])
        data.B[0] = np.eye(1)
        shared = sqp.qp_subproblem(data)
        assert (shared.reg, shared.iterations, shared.status) == (sqp.REG, 2, "optimal")
        assert shared.w[0][0] == pytest.approx(0.5, abs=1e-12)
        real = sqp._riccati_factor
        handed = []

        def stack_each_time(A, B, H_x, H_u, AB):
            handed.append(AB)
            return real(A, B, H_x, H_u, np.concatenate([A, B], axis=2))

        monkeypatch.setattr(sqp, "_riccati_factor", stack_each_time)
        each = sqp.qp_subproblem(data)
        assert len(handed) > 1 and all(AB is handed[0] for AB in handed)
        assert (shared.iterations, shared.status, shared.reg) == (each.iterations, each.status, each.reg)
        for name in ("z", "w", "nu", "lam_x", "lam_u"):
            assert np.array_equal(getattr(shared, name), getattr(each, name)), name
        assert sqp._nonlinear_kkt(data, shared) == sqp._nonlinear_kkt(data, each)

    def test_backtracking_solve_matches_one_that_recomputes(self, monkeypatch):
        """The line search evaluates candidates it rejects; only the accepted
        iterate's values may reach the next QP."""
        problem = make_problem((1.0, 0.0, 1.0), N=10, f_max=1.2, funnel_radius=10.0)

        def run():
            qps, trace = [], []
            build = sqp._build_qp_data

            def recording(point, problem, lam_u_prev=None):
                qps.append(build(point, problem, lam_u_prev))
                return qps[-1]

            with monkeypatch.context() as patch:
                patch.setattr(sqp, "_build_qp_data", recording)
                solution = sqp.solve(problem, trace=trace)
            return solution, qps, trace

        reused = run()
        real = sqp._evaluate
        monkeypatch.setattr(
            sqp, "_evaluate",
            lambda X, U, problem, rollout=None: dataclasses.replace(
                real(X, U, problem), rollout=None, errors=None, shares=None
            ),
        )
        recomputed = run()
        (solution, qps, trace), (solution_r, qps_r, trace_r) = reused, recomputed
        assert any(0.0 < entry["alpha"] < 1.0 for entry in trace)  # it backtracked
        assert trace == trace_r
        assert len(qps) == len(qps_r)
        for a, b in zip(qps, qps_r):
            _assert_same_qp(a, b)
        for f in dataclasses.fields(ocp.OcpSolution):
            assert np.array_equal(getattr(solution, f.name), getattr(solution_r, f.name)), f.name

    @pytest.mark.parametrize("start", ["cold", "warm"])
    def test_solve_from_the_recorded_rollout_matches_one_that_recomputes(
        self, start, monkeypatch
    ):
        """The first iterate takes its RK4 step from the rollout that built
        it; a solve whose first evaluation recomputes rk4_stages instead
        takes the same steps, bit for bit."""
        problem = make_problem((1.0, 0.0, 1.0), N=10, f_max=1.2, funnel_radius=10.0)
        warm = None
        if start == "warm":
            first = sqp.solve(problem)
            x1 = first.X[1].copy()
            x1[3:6] += 0.05  # a measured state off the prediction
            problem = ocp.build_ocp(x1, problem.ref_x, problem.ref_u, problem, problem.params)
            warm = sqp.shift_warm_start(first, 1, problem.N)
        real, given = sqp._evaluate, []

        def run(evaluate):
            trace = []
            with monkeypatch.context() as patch:
                patch.setattr(sqp, "_evaluate", evaluate)
                return sqp.solve(problem, warm, trace=trace), trace

        def spied(X, U, problem, rollout=None):
            given.append(rollout is not None)
            return real(X, U, problem, rollout)

        reused, trace = run(spied)
        assert given[0] and not any(given[1:])  # only the first iterate had one
        recomputed, trace_r = run(lambda X, U, problem, rollout=None: real(X, U, problem))
        assert trace == trace_r
        for f in dataclasses.fields(ocp.OcpSolution):
            assert np.array_equal(getattr(reused, f.name), getattr(recomputed, f.name)), f.name


def _drawn_rollout_problem(rng, K, J_L, dt=0.05):
    """A horizon-K problem on a payload of inertia J_L, from a random state
    row (unit attitude, rates up to 4 rad/s), and K random wrench rows."""
    x0 = np.empty(13)
    x0[0:6] = rng.standard_normal(6)
    x0[6:10] = so3.quat_normalize(rng.standard_normal(4))
    omega = rng.standard_normal(3)
    x0[10:13] = omega * (rng.uniform(0.0, 4.0) / np.linalg.norm(omega))
    F = HOVER_U[:3] + 2.0 * rng.standard_normal((K, 3))
    U = np.hstack([F, 0.1 * rng.standard_normal((K, 3))])
    config = ocp.OcpConfig(weights=WEIGHTS, N=K, dt=dt)
    return ocp.build_ocp(x0, *hover_refs(K), config, SystemParams(J_L=J_L)), U


class TestRecordedRollout:
    """`_rollout` keeps the RK4 step its float rollout took, in rk4_stages'
    layout ([Y1, Y2, Y3, Y4], end), for the solve's first iterate."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2, 20]), st.sampled_from([0.02, 0.05]), st.integers(0, 2**32 - 1))
    def test_bit_identical_to_rk4_stages(self, K, dt, seed):
        """Signed zeros included, with a diagonal J_L; the state rows are
        those of one plant.step_payload per stage."""
        rng = np.random.default_rng(seed)
        problem, U = _drawn_rollout_problem(rng, K, np.diag(rng.uniform(0.003, 0.02, 3)), dt)
        X, (stages, end) = sqp._rollout(problem, U)
        steps = [problem.x0.tolist()]
        for u in U.tolist():
            steps.append(plant.step_payload(steps[-1], u, dt, problem.params))
        ref_stages, ref_end = ocp.rk4_stages(X[:-1], U, dt, problem)
        assert len(stages) == 4
        for new, old in zip([X, *stages, end], [np.array(steps), *ref_stages, ref_end]):
            assert np.array_equal(new, old)
            assert np.array_equal(np.signbit(new), np.signbit(old))

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([1, 2, 20]), st.integers(0, 2**32 - 1))
    def test_equal_to_rk4_stages_with_a_tilted_inertia(self, K, seed):
        """A non-diagonal J_L rounds the float and numpy derivatives apart,
        so only the values agree; the first iterate, priced along the steps
        the rollout took, has no defect at all."""
        rng = np.random.default_rng(seed)
        R = so3.quat_to_rotation(so3.quat_normalize(rng.standard_normal(4)))
        problem, U = _drawn_rollout_problem(rng, K, R @ RIG.J_L @ R.T)
        X, rollout = sqp._rollout(problem, U)
        ref_stages, ref_end = ocp.rk4_stages(X[:-1], U, problem.dt, problem)
        for new, old in zip([*rollout[0], rollout[1]], [*ref_stages, ref_end]):
            np.testing.assert_allclose(new, old, rtol=1e-12, atol=1e-12)
        assert sqp._evaluate(X, U, problem, rollout).defect_max == 0.0


def _kkt_at_zero_steps(data: sqp.QpData, result: sqp.QpResult) -> float:
    """The nonlinear stationarity as the QP's Lagrangian gradient at zero
    primal steps (the oracle's stationarity)."""
    zero_x, zero_u = np.zeros_like(data.g_x), np.zeros_like(data.g_u)
    r_x, r_u = refs.stationarity(data, zero_x, zero_u, result.nu, result.lam_x, result.lam_u)
    return sqp._max_abs(r_x[1:], r_u)


def _binding_obstacle_window():
    """circle-medium with an obstacle on the circle (0.15 m clearance at
    (-1, 0, 0.5)): the window at t = 6.6 s binds the clearance row."""
    config, _ = harness.build_scenario({
        "schema_version": 1,
        "preset": "circle-medium",
        "obstacle": {"center_m": [-1.0, 0.0, 0.5], "clearance_m": 0.15},
    })
    N = config.ocp.N
    ref_x, ref_u = config.reference_at(6.6 + np.arange(N + 1) * config.ocp.dt)
    ref_u = np.array(np.broadcast_to(ref_u, (N + 1, ocp.NU)))
    return ocp.build_ocp(ref_x[0], ref_x, ref_u, config.ocp, config.params), config.solver


class TestNonlinearKkt:
    def test_equals_the_stationarity_at_zero_steps(self):
        """Bit for bit on every pass, both on passes the row-free solve
        answers and on passes whose active-set steps hold a binding row."""
        passes = []
        kkt = sqp._nonlinear_kkt

        def priced(data, result):
            passes.append((data, result, kkt(data, result)))
            return passes[-1][2]

        window, solver = _binding_obstacle_window()
        with mock.patch.object(sqp, "_nonlinear_kkt", priced):
            sqp.solve(make_problem((0.4, 0.0, 1.0), N=6))
            sqp.solve(window, None, solver)
        for data, result, value in passes:
            assert value == _kkt_at_zero_steps(data, result)
        stepped = [result for _, result, _ in passes if result.iterations > 1]
        assert len(stepped) < len(passes)  # some passes the row-free solve answered
        assert any(result.lam_x.size and np.max(result.lam_x) > 1e-6 for result in stepped)


class TestLinearizationOnBindingRows:
    def test_active_set_solve_matches_the_18_column_mode(self):
        """The preset runs never bind a row, so their digests take no
        active-set step.  On circle-medium with an obstacle on the circle
        (0.15 m clearance at (-1, 0, 0.5)), a window ending inside it binds
        the clearance row; the solve takes the same steps with the
        18-column linearization patched in, bit for bit."""
        config, _ = harness.build_scenario({
            "schema_version": 1,
            "preset": "circle-medium",
            "obstacle": {"center_m": [-1.0, 0.0, 0.5], "clearance_m": 0.15},
        })
        N = config.ocp.N
        ref_x, ref_u = config.reference_at(6.6 + np.arange(N + 1) * config.ocp.dt)
        ref_u = np.array(np.broadcast_to(ref_u, (N + 1, ocp.NU)))
        problem = ocp.build_ocp(ref_x[0], ref_x, ref_u, config.ocp, config.params)
        trace = []
        new = sqp.solve(problem, None, config.solver, trace)
        assert any(entry["qp_iters"] > 1 for entry in trace)
        with mock.patch.object(ocp, "linearize_dynamics", wraps=refs.linearize_dynamics) as oracle:
            old = sqp.solve(problem, None, config.solver)
        assert oracle.call_count > 0
        assert np.array_equal(new.X, old.X) and np.array_equal(new.U, old.U)
        assert new.kkt_residual == old.kkt_residual
        assert new.iterations == old.iterations
