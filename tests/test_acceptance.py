"""Acceptance suite: ten end-to-end checks on the shipped stack.

Each test prints one `criterion N: PASS/FAIL` line; run with -s to watch
them stream (pytest shows the captured lines for failures either way).
The three 15 s circle runs and the 10 s hover run are shared module
fixtures, so the whole file costs roughly 80 s of wall time, most of it
closed-loop simulation plus the dt=1e-6 Euler reference for the
integrator-order check.
"""

import dataclasses
import hashlib
import time

import numpy as np
import pytest

from cablelift import allocation, harness, payload_ocp as po, plant, so3, sqp

CONDITIONS = ("loose", "medium", "tight")


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _rms_after(log, t_min: float) -> float:
    errs = [r.payload_err for r in log.ticks if r.t >= t_min]
    return float(np.sqrt(np.mean(np.square(errs))))


def _pair_distances(mav_p: np.ndarray) -> np.ndarray:
    n = len(mav_p)
    return np.array(
        [
            np.linalg.norm(mav_p[i] - mav_p[j])
            for i in range(n)
            for j in range(i + 1, n)
        ]
    )


def _outside_forced_pairs(log):
    """(comparable pairs, cost increases) over consecutive forced replans
    that both happened outside the terminal region."""
    pairs = increases = 0
    for prev, ev in zip(log.events, log.events[1:]):
        if (
            prev.kind == "forced"
            and ev.kind == "forced"
            and prev.outside_terminal
            and ev.outside_terminal
        ):
            pairs += 1
            if ev.cost > prev.cost * (1.0 + 1e-9):
                increases += 1
    return pairs, increases


# ---------------------------------------------------------------------------
# shared closed-loop runs


@pytest.fixture(scope="module")
def circle_runs():
    began = time.perf_counter()
    runs = {
        name: harness.run_closed_loop(harness.scenario_preset(f"circle-{name}"))
        for name in CONDITIONS
    }
    return runs, time.perf_counter() - began


@pytest.fixture(scope="module")
def hover_run():
    return harness.run_closed_loop(harness.scenario_preset("hover"))


@pytest.fixture(scope="module")
def nominal_run():
    began = time.perf_counter()
    log = harness.run_closed_loop(harness.scenario_preset("hover-nominal"))
    return log, time.perf_counter() - began


@pytest.fixture(scope="module")
def recovery_run():
    return harness.run_closed_loop(harness.scenario_preset("hover-recovery"))


@pytest.fixture(scope="module")
def recovery_disturbed_run():
    config = dataclasses.replace(
        harness.scenario_preset("hover-recovery"),
        disturbance_eta=1.15e-3,
        seed=10,
    )
    return harness.run_closed_loop(config)


# ---------------------------------------------------------------------------
# the ten checks


def test_criterion_01_execution_counts_separate(circle_runs):
    runs, wall = circle_runs
    counts = [runs[name].nmpc_executions for name in CONDITIONS]
    ok = counts[0] < counts[1] < counts[2] and all(10 <= c <= 120 for c in counts)
    _verdict(
        1,
        ok,
        f"loose/medium/tight executions {counts[0]}/{counts[1]}/{counts[2]} "
        f"strictly increasing, each in [10, 120] ({wall:.1f} s for the trio)",
    )


def test_criterion_02_tighter_triggering_tracks_no_worse(circle_runs):
    runs, _ = circle_runs
    assert runs["loose"].config.seed == runs["tight"].config.seed
    rms_loose = _rms_after(runs["loose"], 3.0)
    rms_tight = _rms_after(runs["tight"], 3.0)
    ok = rms_tight <= rms_loose and rms_loose <= 0.2 and rms_tight <= 0.2
    _verdict(
        2,
        ok,
        f"rms error after the 3 s transient: tight {rms_tight:.4f} m <= "
        f"loose {rms_loose:.4f} m, both <= 0.2 m",
    )


def test_criterion_03_formation_stays_together(circle_runs):
    runs, _ = circle_runs
    worst_sep = max(max(r.max_sep for r in log.ticks) for log in runs.values())
    closest = min(min(r.min_sep for r in log.ticks) for log in runs.values())
    worst_drift = 0.0
    for log in runs.values():
        initial = _pair_distances(log.ticks[0].mav_p)
        final = _pair_distances(log.ticks[-1].mav_p)
        worst_drift = max(worst_drift, float(np.max(np.abs(final - initial) / initial)))
    # criterion 3's own bounds: no pair closer than 0.4 m nor farther than
    # 1.05 m, and no pair's final spacing off its initial one by over 10%
    ok = 0.4 <= closest and worst_sep <= 1.0 + 0.05 and worst_drift <= 0.10
    _verdict(
        3,
        ok,
        f"pairwise separation in [{closest:.4f}, {worst_sep:.4f}] m within "
        f"[0.4, 1.05] m, final separations within {100 * worst_drift:.2f}% of "
        "initial (<= 10%)",
    )


def test_criterion_04_undisturbed_nominal_plant_never_event_triggers(nominal_run):
    log, wall = nominal_run
    assert log.config.disturbance_eta == 0.0
    events = sum(1 for e in log.events if e.kind == "event")
    forced = sum(1 for e in log.events if e.kind == "forced")
    ok = events == 0 and forced == log.nmpc_executions and wall < 10.0
    _verdict(
        4,
        ok,
        f"prediction-model plant, eta=0: {events} event triggers, "
        f"{forced} forced, {wall:.1f} s wall (< 10 s)",
    )


def test_criterion_05_full_stack_holds_hover(hover_run):
    log = hover_run
    drift = max(r.payload_err for r in log.ticks)
    tail = [r for r in log.ticks if r.t >= log.config.duration - 2.0]
    # cable force on the payload is tension along attachment -> vehicle,
    # the opposite of the stored vehicle -> attachment direction
    lift = float(
        np.mean([np.sum(r.tensions * -r.directions[:, 2]) for r in tail])
    )
    weight = log.config.params.m_L * log.config.params.g
    rel = abs(lift - weight) / weight
    ok = drift < 1e-3 and rel < 0.01
    _verdict(
        5,
        ok,
        f"10 s hover drift {drift:.2e} m (< 1e-3), vertical tension sum "
        f"{lift:.6f} N vs weight {weight:.6f} N ({100 * rel:.4f}% error, < 1%)",
    )


def test_hover_clamps_nothing(hover_run):
    """The hover never asks for thrust outside [0, F_max], never clips the
    desired cable rate and never lets a cable go slack."""
    assert hover_run.thrust_clamps == 0
    assert hover_run.omega_des_clips == 0
    assert hover_run.slack_cable_ticks == 0


def test_criterion_06_allocation_exact_and_minimal():
    params = plant.SystemParams()
    amap = allocation.build_allocation(params.r_i)
    rng = np.random.default_rng(2024)
    worst_recon = worst_null = 0.0
    for _ in range(1000):
        F, M = rng.uniform(-5, 5, 3), rng.uniform(-2, 2, 3)
        target = np.concatenate([F, M])
        stacked = np.ravel(allocation.allocate(target, tuple(np.eye(3).ravel()), amap))
        recon = np.linalg.norm(amap.P @ stacked - target) / max(1.0, np.linalg.norm(target))
        worst_recon = max(worst_recon, float(recon))
        worst_null = max(worst_null, float(np.max(np.abs(amap.Z.T @ stacked))))
    ok = worst_recon <= 1e-9 and worst_null <= 1e-9
    _verdict(
        6,
        ok,
        f"1000 random wrenches: worst reconstruction {worst_recon:.2e} "
        f"(<= 1e-9), worst null-space component {worst_null:.2e} (<= 1e-9)",
    )


def test_criterion_07_integrator_order():
    """Whole-rig convergence ratio against a dt=1e-6 forward-Euler reference
    on a slack-cable tumble; an ideal fourth-order pair would give 16."""
    params = plant.SystemParams()
    # world rows [p, v, q, omega], payload first
    payload = np.concatenate([
        np.array([0.0, 0.0, 2.0]),
        np.array([0.2, -0.1, 0.1]),
        so3.quat_identity(),
        np.array([12.0, 8.0, 5.0]),
    ])
    rng = np.random.default_rng(1)
    mavs = [
        np.concatenate([
            payload[0:3] + params.r_i[k] + np.array([0.0, 0.0, 0.5]),
            0.1 * rng.standard_normal(3),
            so3.quat_normalize(rng.standard_normal(4)),
            np.array([6.0, -4.0, 9.0]),
        ])
        for k in range(params.n)
    ]
    y0 = np.concatenate([payload] + mavs)
    inputs = (np.full(4, 1.0), np.zeros((4, 3)))
    deriv = lambda y, u: np.array(plant._world_derivative_flat(y.tolist(), u, params))

    def run_rk4(h):
        y = y0.copy()
        for _ in range(int(round(0.1 / h))):
            y = plant.rk4_step(deriv, y, inputs, h)
        return y

    y_ref = y0.copy()
    for _ in range(100000):
        y_ref = y_ref + 1e-6 * deriv(y_ref, inputs)
    ratio = float(
        np.linalg.norm(run_rk4(0.05) - y_ref) / np.linalg.norm(run_rk4(0.025) - y_ref)
    )
    ok = 12.0 <= ratio <= 20.0
    _verdict(7, ok, f"halving dt cuts the global error {ratio:.2f}x (in [12, 20])")


def test_criterion_08_optimizer_matches_independent_oracles():
    params = plant.SystemParams()
    weights = po.CostWeights()

    def hover_refs(points):
        """(ref_x, ref_u) rows of hover references at the given points."""
        specs = [harness.ReferenceSpec(kind="hover", position=p) for p in points]
        refs = [spec.at(0.0, params.m_L, params.g) for spec in specs]
        return tuple(np.array(rows) for rows in zip(*refs))

    def make_config(N):
        return po.OcpConfig(weights=weights, N=N, dt=0.05)

    # part 1: three-stage hover recovery against direct single shooting over
    # the 18 wrench numbers (finite-difference gradients, Barzilai-Borwein
    # steps, run to gradient infinity norm 1e-8)
    x0 = np.concatenate([[0.1, 0.0, 1.0], np.zeros(3), so3.quat_identity(), np.zeros(3)])
    problem = po.build_ocp(x0, *hover_refs([(0.0, 0.0, 1.0)] * 4), make_config(3), params)
    solution = sqp.solve(problem)
    assert solution.status == "converged"

    def objective(uvec):
        U = uvec.reshape(problem.N, 6)
        X = [problem.x0]
        for u in U:
            X.append(po.discretize(X[-1], u, problem.dt, problem))
        return po.total_cost(np.array(X), U, problem)

    def fd_gradient(uvec, h=1e-6):
        g = np.zeros_like(uvec)
        for j in range(len(uvec)):
            up, dn = uvec.copy(), uvec.copy()
            up[j] += h
            dn[j] -= h
            g[j] = (objective(up) - objective(dn)) / (2.0 * h)
        return g

    u = problem.ref_u[:3].reshape(-1).copy()
    g = fd_gradient(u)
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
        g = fd_gradient(u)
    assert np.max(np.abs(g)) <= 1e-8, "single-shooting oracle failed to converge"
    gap = abs(objective(u) - solution.cost)

    # part 2: analytic cost gradients against central differences on 50
    # random problems (random initial state, references, and trajectories)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        N = 2
        p = rng.uniform(-1, 1, 3) + [0.0, 0.0, 1.0]
        q = so3.quat_normalize(rng.standard_normal(4))
        v = rng.uniform(-1, 1, 3)
        x0 = np.concatenate([p, v, q, rng.uniform(-1, 1, 3)])
        points = [rng.uniform(-1, 1, 3) + [0.0, 0.0, 1.0] for _ in range(N + 1)]
        prob = po.build_ocp(x0, *hover_refs(points), make_config(N), params)
        X, U = [x0], np.empty((N, 6))
        for i in range(N):
            U[i, 0:3] = rng.uniform(-2, 2, 3) + [0.0, 0.0, params.m_L * 9.81]
            U[i, 3:6] = rng.uniform(-0.5, 0.5, 3)
            X.append(po.discretize(X[-1], U[i], prob.dt, prob))
        X = np.array([po.retract(x, 0.2 * rng.standard_normal(12)) for x in X])
        _Hx, gx, _Hu, gu = po.cost_expansion(X, U, prob)
        h = 1e-6
        for i in range(N + 1):
            fd = np.zeros(12)
            for j in range(12):
                d = np.zeros(12)
                d[j] = h
                sp, sm = X.copy(), X.copy()
                sp[i] = po.retract(X[i], d)
                sm[i] = po.retract(X[i], -d)
                fd[j] = (po.total_cost(sp, U, prob) - po.total_cost(sm, U, prob)) / (2 * h)
            worst = max(worst, float(np.linalg.norm(gx[i] - fd) / max(1.0, np.linalg.norm(fd))))
        for i in range(N):
            fd = np.zeros(6)
            for j in range(6):
                d = np.zeros(6)
                d[j] = h
                up, dn = U.copy(), U.copy()
                up[i] = U[i] + d
                dn[i] = U[i] - d
                fd[j] = (po.total_cost(X, up, prob) - po.total_cost(X, dn, prob)) / (2 * h)
            worst = max(worst, float(np.linalg.norm(gu[i] - fd) / max(1.0, np.linalg.norm(fd))))

    ok = gap <= 1e-4 and worst <= 1e-4
    _verdict(
        8,
        ok,
        f"single-shooting cost gap {gap:.2e} (<= 1e-4), worst gradient "
        f"mismatch over 50 problems {worst:.2e} (<= 1e-4 relative)",
    )


def test_criterion_09_trigger_invariants_hold_everywhere(
    circle_runs, hover_run, nominal_run, recovery_run, recovery_disturbed_run
):
    runs, _ = circle_runs
    logs = list(runs.values()) + [hover_run, nominal_run[0], recovery_run, recovery_disturbed_run]
    totals = {"m_bounds": 0, "horizon_chain": 0}
    events = 0
    for log in logs:
        counters = harness.invariant_counters(log)
        totals["m_bounds"] += counters["m_bounds"]
        totals["horizon_chain"] += counters["horizon_chain"]
        events += log.nmpc_executions
    ok = totals == {"m_bounds": 0, "horizon_chain": 0}
    _verdict(
        9,
        ok,
        f"{events} replans across {len(logs)} runs: {totals['m_bounds']} "
        f"inter-execution bound violations, {totals['horizon_chain']} horizon "
        f"chain violations (both must be 0)",
    )


def test_criterion_10_cost_decreases_between_forced_replans(
    recovery_run, recovery_disturbed_run
):
    assert recovery_run.config.disturbance_eta == 0.0
    pairs, increases = _outside_forced_pairs(recovery_run)
    d_pairs, d_increases = _outside_forced_pairs(recovery_disturbed_run)
    ok = pairs >= 1 and increases == 0
    _verdict(
        10,
        ok,
        f"eta=0 recovery: {increases} cost increases over {pairs} comparable "
        f"forced pairs (must be 0); disturbed run for reference only: "
        f"{d_increases} increases over {d_pairs} pairs",
    )


# ---------------------------------------------------------------------------
# the presets' output bytes

# preset -> sha256 prefixes of its CSV and of its summary without the
# wall-clock mean_solve_time_ms line
PRESET_DIGESTS = {
    "circle-medium": ("61f51cf707770b1b", "629bb08a90390eef"),
    "circle-loose": ("ffe152dd730551c8", "4e9e5922ae2dc2ed"),
    "circle-tight": ("baa3a44f95e0c5cd", "7c19bcc914054187"),
    "hover": ("165a32523560e26e", "25ce8d85c54dec6f"),
    "hover-nominal": ("445885d3f3fd5953", "25ce8d85c54dec6f"),
    "hover-recovery": ("3b69fe003612d17c", "b29bf35a5da865b2"),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def test_preset_outputs_match_their_digests(
    circle_runs, hover_run, nominal_run, recovery_run, tmp_path
):
    """The six presets' CSVs and deterministic summary lines, emitted from
    the shared runs, hash to PRESET_DIGESTS.

    A change that moves these bytes on purpose (say, taking SQP steps from
    another solve) updates the digests here and says so in CHANGES.md; a
    mismatch prints the whole measured mapping, ready to paste.
    The digests were taken with numpy 2.4.6 (Python 3.11, x86-64); another
    numpy or BLAS may round the solver's products differently.
    """
    runs, _ = circle_runs
    logs = {f"circle-{name}": log for name, log in runs.items()}
    logs.update({"hover": hover_run, "hover-nominal": nominal_run[0], "hover-recovery": recovery_run})
    digests = {}
    for name, log in logs.items():
        csv, summary = tmp_path / f"{name}.csv", tmp_path / f"{name}.txt"
        harness.emit_csv(log, csv)
        harness.emit_summary(harness.summarize(log), summary)
        lines = summary.read_bytes().splitlines(keepends=True)
        kept = b"".join(line for line in lines if not line.startswith(b"mean_solve_time_ms"))
        digests[name] = (_digest(csv.read_bytes()), _digest(kept))
    # on a mismatch, print every measured entry in PRESET_DIGESTS' layout,
    # since pytest's own diff omits the entries that agree
    measured = "".join(
        f'    "{name}": ("{csv}", "{summary}"),\n' for name, (csv, summary) in digests.items()
    )
    assert digests == PRESET_DIGESTS, f"measured:\nPRESET_DIGESTS = {{\n{measured}}}"
