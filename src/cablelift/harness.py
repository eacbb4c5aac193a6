"""Scenario harness: the closed-loop runner and the run's files.

`run_closed_loop` is the one tick loop for both plant models; the world state
it carries from tick to tick is the plant's flat list of floats, payload
first.  On NMPC ticks the event trigger decides whether to re-solve the
payload OCP (warm-started, horizon shrunk via the terminal-region rule);
between solves the stored open-loop wrench plan is consumed index by index.
Every tick the plant model turns the held wrench into cable tensions and
vehicle positions and advances the state one tick, and the bounded payload
disturbance is added after the step.  The full model (2 ms ticks) allocates
the wrench to per-cable force demands, runs the geometric cable and attitude
controllers and steps the multi-body plant; the payload-only model (one tick
per NMPC period) steps the payload row alone, on the plant's floats with the
predictor's own arithmetic.
The log captures enough per tick to rebuild the tracking, separation, and
trigger figures offline, and everything is deterministic for a fixed config
and seed (wall-clock solve times are kept out of the CSV for that reason)."""

from __future__ import annotations

import dataclasses
import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import allocation, cable_control, event_trigger, metrics, payload_ocp, plant, so3, sqp
from .cable_control import CableTrackingState
from .event_trigger import TerminalRegion
from .plant import DisturbanceModel
# the scenario names the runner uses, and those its callers reach through here
from .scenario import (  # noqa: F401
    TRIGGER_PRESETS, ConfigError, ReferenceSpec, ScenarioConfig, build_scenario, equilibrium_state,
    load_config, preset_names, scenario_preset,
)


class HarnessAbort(RuntimeError):
    """Closed-loop run stopped early; the message carries the diagnostic."""


class EmptyLog(ValueError):
    """Summary statistics need at least one tick."""


# ceiling on the desired cable rotation rate fed to the direction controller
# (rad/s); nominal maneuvers stay well under 1 rad/s
OMEGA_DES_LIMIT = 4.0


# ---------------------------------------------------------------------------
# run log


@dataclass
class TriggerEvent:
    k: int
    t: float
    kind: str  # forced | event
    m_k: Optional[int]  # None for the initial solve
    horizon: int
    cost: float
    kkt_residual: float
    iterations: int
    status: str
    solve_time: float
    outside_terminal: bool
    trace: list = field(default_factory=list)  # the solve's per-pass records (sqp.solve)
    # local_coords(predicted X[m_k], x_now), 12 floats; None for the initial solve
    prediction_error: Optional[np.ndarray] = None


@dataclass
class FailedSolve:
    """An event solve that raised, after which the held plan played on."""

    k: int
    t: float
    error: str  # the exception's class name
    message: str
    trace: list  # the passes recorded before the raise


def _column(*shape, dtype=np.float64, fill=0):
    """A RunLog column: one row of `shape` per tick, "n" standing for the
    vehicle count."""
    meta = {"shape": shape, "dtype": dtype, "fill": fill}
    return field(default=None, repr=False, compare=False, metadata=meta)


@dataclass
class RunLog:
    """One run as columns of `length` ticks.

    The closed loop writes `payload` down to `event` but `reference`; before
    it run_closed_loop fills `t`, after it `reference`, the rest and the
    constraint margins, for every tick at once.  `ticks` reads the log back one
    TickRecord per tick (a caller may pass its own records, say a doctored
    copy for a check).
    """

    config: ScenarioConfig
    length: dataclasses.InitVar[int] = 0
    t: np.ndarray = _column()
    payload: np.ndarray = _column(13)  # state rows [p, v, q, omega]
    reference: np.ndarray = _column(13)
    wrench: np.ndarray = _column(6)  # held [F, M]
    tensions: np.ndarray = _column("n")
    directions: np.ndarray = _column("n", 3)  # vehicle -> attachment unit vectors
    mav_p: np.ndarray = _column("n", 3)  # vehicle positions (synthesized in payload-only mode)
    decision: np.ndarray = _column(dtype="<U12", fill="")  # ""|none|event|forced|event-failed
    horizon: np.ndarray = _column(dtype=np.int64)
    pred_index: np.ndarray = _column(dtype=np.int64)
    event: np.ndarray = _column(dtype=np.int64, fill=-1)  # index into events, -1: no solve
    payload_err: np.ndarray = _column()
    min_sep: np.ndarray = _column()
    max_sep: np.ndarray = _column()
    constraints: Optional[dict[str, np.ndarray]] = field(default=None, repr=False)
    events: List[TriggerEvent] = field(default_factory=list)
    failed_solves: List[FailedSolve] = field(default_factory=list)
    solver_failures: int = 0  # len(failed_solves)
    # vehicle-ticks with the thrust command outside [0, F_max], with the
    # desired cable rate clipped to OMEGA_DES_LIMIT, and cable-ticks slack
    thrust_clamps: int = 0
    omega_des_clips: int = 0
    slack_cable_ticks: int = 0
    ticks: Optional[Sequence] = field(default=None, repr=False, compare=False)

    def __post_init__(self, length: int):
        n = self.config.params.n
        for f in dataclasses.fields(self):
            if "shape" in f.metadata and getattr(self, f.name) is None:
                shape = [n if d == "n" else d for d in f.metadata["shape"]]
                column = np.full((length, *shape), f.metadata["fill"], f.metadata["dtype"])
                setattr(self, f.name, column)
        if self.ticks is None or isinstance(self.ticks, TickView):
            # a copy made by dataclasses.replace reads its own columns
            self.ticks = TickView(self)

    @property
    def nmpc_executions(self) -> int:
        return len(self.events)


_COLUMNS = [f.name for f in dataclasses.fields(RunLog) if "shape" in f.metadata]


@dataclass
class TickRecord:
    """One tick of a RunLog: its row of every column but `event`, and the
    solver columns of the solve made on it."""

    t: float
    payload: np.ndarray
    reference: np.ndarray
    wrench: np.ndarray
    tensions: np.ndarray
    directions: np.ndarray
    mav_p: np.ndarray
    decision: str
    horizon: int
    pred_index: int
    payload_err: float
    min_sep: float
    max_sep: float
    solver_status: str = ""
    solver_iterations: int = 0
    cost: float = float("nan")


class TickView(Sequence):
    """Read-only sequence of a RunLog's ticks, each record built when read."""

    def __init__(self, log: RunLog):
        self._log = log

    def __len__(self) -> int:
        return len(self._log.t)

    def __getitem__(self, index):
        ks = range(len(self))[index]
        return [self._record(k) for k in ks] if isinstance(ks, range) else self._record(ks)

    def _record(self, k: int) -> TickRecord:
        row = {name: getattr(self._log, name)[k] for name in _COLUMNS}
        row = {name: v.item() if np.ndim(v) == 0 else v for name, v in row.items()}
        e = row.pop("event")
        if e < 0:
            return TickRecord(**row)
        event = self._log.events[e]
        return TickRecord(
            **row, solver_status=event.status, solver_iterations=event.iterations, cost=event.cost
        )


def invariant_counters(log: RunLog) -> dict:
    """Re-check the inter-execution and horizon-chain rules over the whole
    event list; healthy runs report zero everywhere."""
    sigma, floor = log.config.trigger.sigma, log.config.trigger.horizon_floor
    m_violations = 0
    chain_violations = 0
    for prev, ev in zip(log.events, log.events[1:]):
        N_prev, m, N_new = prev.horizon, ev.m_k, ev.horizon
        if m is None or not (sigma <= m <= N_prev):
            m_violations += 1
        if not (N_prev < m + N_new and floor <= N_new <= N_prev):
            chain_violations += 1
    return {"m_bounds": m_violations, "horizon_chain": chain_violations}


# ---------------------------------------------------------------------------
# closed loop


class _TriggerLoop:
    """Trigger bookkeeping shared by both plant models."""

    def __init__(self, config: ScenarioConfig, amap: allocation.AllocationMap):
        self.config = config
        self.amap = amap
        self.region = (
            None
            if config.terminal_epsilon is None
            else TerminalRegion(config.terminal_epsilon, config.ocp.weights.Q_XN)
        )
        self.state: Optional[event_trigger.TriggerState] = None
        self.events: List[TriggerEvent] = []
        self.failed: List[FailedSolve] = []

    def step(self, k: int, t: float, x_now: np.ndarray):
        """Run the trigger at NMPC step k with the state row x_now; returns
        (decision, wrench row, idx)."""
        cfg = self.config
        if self.state is None:
            decision, m_k, N_new = "forced", None, cfg.ocp.N
        else:
            decision = event_trigger.should_trigger(k, x_now, self.state, cfg.trigger)
            if decision != "none":
                m_k = k - self.state.k_j
                N_hat = None
                if self.region is not None:
                    N_hat = event_trigger.first_entry_index(
                        self.state.predicted.errors, self.region
                    )
                N_new = event_trigger.shrink_horizon(self.state, m_k, N_hat, cfg.trigger)
        if decision != "none":
            rows = cfg.reference_at(t + np.arange(N_new + 1) * cfg.ocp.dt)
            ref_x, ref_u = (np.array(np.broadcast_to(r, (N_new + 1, r.shape[-1]))) for r in rows)
            problem = payload_ocp.build_ocp(
                x_now, ref_x, ref_u, dataclasses.replace(cfg.ocp, N=N_new), cfg.params, self.amap
            )
            warm = error = None
            if self.state is not None:
                warm = sqp.shift_warm_start(self.state.predicted, m_k, N_new)
                error = payload_ocp.local_coords(self.state.predicted.X[m_k], x_now)
            began, trace = time.perf_counter(), []
            try:
                solution = sqp.solve(problem, warm, cfg.solver, trace=trace)
            except (sqp.Infeasible, sqp.QpNumericalFailure, plant.NonFiniteState) as exc:
                if self.state is None or decision == "forced":
                    raise HarnessAbort(
                        f"solver failed at a forced trigger (t={t:.3f} s, step {k}): {exc}"
                    ) from exc
                self.failed.append(FailedSolve(k, t, type(exc).__name__, str(exc), trace))
                decision = "event-failed"
            else:
                outside = self.region is None or not self.region.contains(solution.errors[0])
                self.events.append(TriggerEvent(
                    k=k, t=t, kind=decision, m_k=m_k, horizon=N_new, cost=solution.cost,
                    kkt_residual=solution.kkt_residual, iterations=solution.iterations,
                    status=solution.status, solve_time=time.perf_counter() - began,
                    outside_terminal=outside, trace=trace, prediction_error=error,
                ))
                self.state = event_trigger.record_trigger(k, solution, N_new)
        idx = k - self.state.k_j
        return decision, self.state.predicted.U[idx], idx


def _attachments(p_L, R_L: tuple, r_i: list) -> list:
    """World attachment points p_L + R_L r of the payload-frame offsets r_i."""
    px, py, pz = p_L
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = R_L
    return [
        (px + (r00 * rx + r01 * ry + r02 * rz), py + (r10 * rx + r11 * ry + r12 * rz),
         pz + (r20 * rx + r21 * ry + r22 * rz))
        for rx, ry, rz in r_i
    ]


class _FullPlant:
    """The held wrench realized by the cable and attitude controllers of every
    vehicle and applied to the multi-body plant.

    Each tick reads the flat world state and makes one call per controller
    stage for all vehicles, each taking and returning one float 3-tuple (or
    scalar, or row-major rotation 9-tuple) per vehicle.  It also counts, in
    vehicle-ticks, the clamps that act without an error: thrust commands
    outside [0, F_max] (the plant clamps them), desired cable rates clipped to
    OMEGA_DES_LIMIT, and slack cables.
    """

    def __init__(self, config: ScenarioConfig, amap: allocation.AllocationMap):
        self.config = config
        self.amap = amap
        self.xi_prev: Optional[list] = None
        self.thrust_clamps = 0
        self.omega_des_clips = 0
        self.slack_cable_ticks = 0

    def tick(self, y: list, wrench: list, new_stage: bool):
        """(tensions, directions, vehicle positions) at the tick's start, and
        the world state one tick later."""
        config, params, gains = self.config, self.config.params, self.config.gains
        if new_stage:
            # the held wrench just changed, so differencing the desired
            # directions across this tick would read the jump as a physical
            # cable rotation; restart the direction-rate estimate instead
            self.xi_prev = None
        cables = plant.cable_closure(y, params)
        R_L, omega_l = cables.rotation, y[10:13]
        bodies = range(13, len(y), 13)
        R_k = [plant._rotation(*y[b + 6 : b + 10]) for b in bodies]
        omega_k = [y[b + 10 : b + 13] for b in bodies]
        mu = allocation.allocate(wrench, R_L, self.amap)

        # the commanded wrench implies the payload acceleration the cables
        # must realize (the payload row's own derivative under it); feeding it
        # forward keeps the vehicles moving with the payload instead of
        # trailing it on feedback alone
        payload_rates = plant._payload_derivative(y[0:13], wrench, params)
        accel_des, omega_dot_des = payload_rates[3:6], payload_rates[10:13]

        xi_des, om_des = allocation.desired_cable_direction(mu, self.xi_prev, config.dt_lowlevel)
        self.xi_prev = xi_des
        # guard against direction flips when an allocated tension passes
        # near zero: the backward difference then reports a rotation rate
        # far beyond anything the vehicles could follow
        for k, (ox, oy, oz) in enumerate(om_des):
            om_norm = math.sqrt(ox * ox + oy * oy + oz * oz)
            if om_norm > OMEGA_DES_LIMIT:
                s = OMEGA_DES_LIMIT / om_norm
                om_des[k] = (ox * s, oy * s, oz * s)
                self.omega_des_clips += 1

        # taut cables are measured, their rate from the attachment's velocity
        # u relative to the vehicle; a slack cable is steered toward the
        # commanded direction with zero tracking error, feedforward only
        xi, om_c = list(xi_des), list(om_des)
        for k, (ex, ey, ez, stretch, _, (ux, uy, uz)) in enumerate(cables.law):
            if stretch > 0.0:
                dist = params.l_i + stretch
                d = ex * ux + ey * uy + ez * uz
                dx, dy, dz = (ux - ex * d) / dist, (uy - ey * d) / dist, (uz - ez * d) / dist
                xi[k] = (ex, ey, ez)
                om_c[k] = (ey * dz - ez * dy, ez * dx - ex * dz, ex * dy - ey * dx)
        state = CableTrackingState(xi, om_c, xi_des, om_des)

        a_kc = cable_control.attachment_accel(
            accel_des, R_L, omega_l, omega_dot_des, params._r_i, params.g
        )
        u_par, u_perp = cable_control.control_components(
            allocation.project_tension(mu, xi), state, a_kc, params.m_i, params.l_i, gains
        )
        u = [(a + d, b + e, c + f) for (a, b, c), (d, e, f) in zip(u_par, u_perp)]
        thrust = cable_control.thrust_command(u, R_k)
        R_des = cable_control.desired_attitude(u, 0.0)
        e_R = cable_control.attitude_errors(R_k, R_des)
        moment = cable_control.moment_command(e_R, omega_k, params._J_i, gains)

        self.thrust_clamps += sum(1 for f in thrust if f < 0.0 or f > params.F_max)
        self.slack_cable_ticks += sum(1 for stretch in cables.stretch if not stretch > 0.0)
        mav_p = [y[b : b + 3] for b in bodies]
        y_next = plant.step_world(y, (thrust, moment), config.dt_lowlevel, params, cables)
        return cables.tension, cables.direction, mav_p, y_next


class _PayloadOnly:
    """Nominal-model run: only the payload row of the world state moves, one
    tick per NMPC period under the held wrench.  Both plant models tick on
    floats through one Runge-Kutta body (`plant._rk4_flat`); here it steps
    the payload row alone and computes `payload_ocp.discretize`'s floats, the
    predictor's own integrator, so predictions and plant agree up to the
    solver's feasibility tolerance."""

    # no controllers, so no clamps
    thrust_clamps = omega_des_clips = slack_cable_ticks = 0

    def __init__(self, config: ScenarioConfig, amap: allocation.AllocationMap):
        self.config = config
        self.amap = amap

    def tick(self, y: list, wrench: list, new_stage: bool):
        """(tensions, directions, vehicle positions) of the minimal-norm
        allocation (the full plant's float `allocation.allocate`), vehicles
        placed one cable length along each tension, or straight above their
        attachments where it is zero; and the next world state."""
        params = self.config.params
        R_L, length = plant._rotation(*y[6:10]), params.l_i
        tensions, directions, mav_p = [], [], []
        for (mx, my, mz), (ax, ay, az) in zip(
            allocation.allocate(wrench, R_L, self.amap), _attachments(y[0:3], R_L, params._r_i)
        ):
            tension = math.sqrt(mx * mx + my * my + mz * mz)
            taut = tension > 1e-12
            ux, uy, uz = (mx / tension, my / tension, mz / tension) if taut else (0.0, 0.0, 1.0)
            tensions.append(tension)
            directions.append((-ux, -uy, -uz) if taut else (0.0, 0.0, 0.0))
            mav_p.append((ax + length * ux, ay + length * uy, az + length * uz))
        y_next = plant.step_payload(y[0:13], wrench, self.config.ocp.dt, params) + y[13:]
        return tensions, directions, mav_p, y_next


def run_closed_loop(config: ScenarioConfig) -> RunLog:
    """Simulate one scenario end to end and return the complete log."""
    # the attachment geometry is fixed, so one map serves the plant model
    # and every NMPC problem
    amap = allocation.build_allocation(config.params.r_i)
    model = (_FullPlant if config.plant_model == "full" else _PayloadOnly)(config, amap)
    trigger = _TriggerLoop(config, amap)
    disturbance = DisturbanceModel(config.disturbance_eta, config.seed, config.dt_tick)
    bounds = metrics.default_bounds(
        config.ocp.funnel_radius,
        obstacle_center=config.ocp.obstacle_center,
        obstacle_clearance=config.ocp.obstacle_clearance,
    )
    y = equilibrium_state(config).ravel().tolist()
    dt = config.dt_tick
    ratio = int(round(config.ocp.dt / dt))
    n_ticks = config.n_ticks
    log = RunLog(config, n_ticks)
    log.t[:] = np.arange(n_ticks) * dt
    decision, wrench, idx = "", None, 0

    for tick in range(n_ticks):
        t = tick * dt
        x_now = y[0:13]
        if not all(map(math.isfinite, x_now)):
            raise HarnessAbort(f"non-finite payload state at t={t:.3f} s")
        new_stage = tick % ratio == 0
        if new_stage:
            decision, wrench, idx = trigger.step(tick // ratio, t, np.array(x_now))
            wrench = wrench.tolist()
        else:
            decision = ""
        try:
            tensions, directions, mav_p, y = model.tick(y, wrench, new_stage)
        except (  # every failure of the plant and the controllers ends the run
            plant.NonFiniteState, plant.CableOverload, plant.DegenerateGeometry,
            allocation.ZeroTension, cable_control.DegenerateThrust, cable_control.NotSkew,
        ) as exc:
            raise HarnessAbort(f"plant failure at t={t:.3f} s: {exc}") from exc

        log.payload[tick] = x_now
        log.wrench[tick] = wrench
        log.tensions[tick] = tensions
        log.directions[tick] = directions
        log.mav_p[tick] = mav_p
        log.horizon[tick] = trigger.state.N_kj
        log.pred_index[tick] = idx
        if decision:
            log.decision[tick] = decision
            if decision in ("forced", "event"):
                log.event[tick] = len(trigger.events) - 1
        disturbance.perturb(y)

    # every derived column, for the whole run at once
    log.reference[:] = config.reference_at(log.t)[0]
    p, p_ref = log.payload[:, 0:3], log.reference[:, 0:3]
    log.payload_err = so3.norm_rows(p - p_ref)
    separations = metrics.pair_separations(log.mav_p)
    log.min_sep, log.max_sep = separations.min(axis=1), separations.max(axis=1)
    del separations
    log.constraints = metrics.check_all(p, p_ref, bounds)
    log.events = trigger.events
    log.failed_solves = trigger.failed
    log.solver_failures = len(trigger.failed)
    log.thrust_clamps = model.thrust_clamps
    log.omega_des_clips = model.omega_des_clips
    log.slack_cable_ticks = model.slack_cable_ticks
    return log


# ---------------------------------------------------------------------------
# summaries and files


def summarize(log: RunLog) -> dict:
    """Aggregate one run into the quantities the experiment tables report, in
    the fixed order the summary file lists them, wall-clock time last."""
    if not len(log.t):
        raise EmptyLog("cannot summarize a log with no ticks")
    errs = log.payload_err
    inter = [e.m_k for e in log.events if e.m_k is not None]
    solve_times = [e.solve_time for e in log.events]
    violations = int(np.count_nonzero(log.constraints["payload_funnel"] < 0))
    statuses = [e.status for e in log.events]
    passes = [record for e in log.events for record in e.trace]
    return {
        "nmpc_executions": log.nmpc_executions,
        "event_triggers": sum(1 for e in log.events if e.kind == "event"),
        "forced_triggers": sum(1 for e in log.events if e.kind == "forced"),
        "rms_payload_error_m": float(np.sqrt(np.mean(errs**2))),
        "max_payload_error_m": float(np.max(errs)),
        "final_payload_error_m": float(errs[-1]),
        "min_separation_m": float(np.min(log.min_sep)),
        "max_separation_m": float(np.max(log.max_sep)),
        "funnel_violations": violations,
        "mean_inter_execution_steps": float(np.mean(inter)) if inter else 0.0,
        "horizon_trace": [e.horizon for e in log.events],
        "solver_failures": log.solver_failures,
        "thrust_clamps": log.thrust_clamps,
        "omega_des_clips": log.omega_des_clips,
        "slack_cable_ticks": log.slack_cable_ticks,
        "solves_converged": statuses.count("converged"),
        "solves_max_iter": statuses.count("max_iter"),
        "solves_stalled": statuses.count("stalled"),
        # over every SQP pass: QPs out of active-set steps
        "qp_max_iter": sum(r["qp_status"] == "max_iter" for r in passes),
        "mean_solve_time_ms": 1e3 * float(np.mean(solve_times)) if solve_times else 0.0,
    }


def fmt(value) -> str:
    """A summary or CSV value as text: floats by repr, anything else by str."""
    return repr(value) if isinstance(value, float) else str(value)


CSV_COLUMNS = (
    ["t_s", "decision", "horizon", "pred_index"]
    + [f"p{a}_m" for a in "xyz"]
    + [f"v{a}_mps" for a in "xyz"]
    + ["qw", "qx", "qy", "qz"]
    + [f"omega{a}_radps" for a in "xyz"]
    + [f"ref_p{a}_m" for a in "xyz"]
    + ["payload_err_m"]
    + [f"F{a}_N" for a in "xyz"]
    + [f"M{a}_Nm" for a in "xyz"]
)


def _csv_header(n: int) -> List[str]:
    cols = list(CSV_COLUMNS)
    cols += [f"tension{k}_N" for k in range(n)]
    for k in range(n):
        cols += [f"dir{k}_{a}" for a in "xyz"]
    for k in range(n):
        cols += [f"mav{k}_p{a}_m" for a in "xyz"]
    cols += ["min_sep_m", "max_sep_m", "solver_status", "solver_iterations", "cost"]
    return cols


# ticks emit_csv gathers and formats at a time, which bounds its working memory
CSV_BLOCK = 1024


def emit_csv(log: RunLog, path) -> None:
    """One row per tick, fixed column order, units in the header names.

    Floats are written with repr so re-emitting the same log reproduces the
    file byte for byte; wall-clock solve times are deliberately absent.
    """
    columns = (log.payload, log.reference[:, 0:3], log.payload_err, log.wrench, log.tensions)
    columns += (log.directions, log.mav_p, log.min_sep, log.max_sep)
    # the solver columns of each event, and last, at index -1, of a tick without one
    solver = [
        [e.status, str(e.iterations), "" if math.isnan(e.cost) else fmt(e.cost)]
        for e in log.events
    ]
    solver.append(["", "0", ""])
    with open(path, "w") as f:
        f.write(",".join(_csv_header(log.config.params.n)) + "\n")
        for start in range(0, len(log.t), CSV_BLOCK):
            rows = slice(start, min(start + CSV_BLOCK, len(log.t)))
            floats = np.hstack([c[rows].reshape(rows.stop - start, -1) for c in columns])
            ticks = zip(
                log.t[rows].tolist(), log.decision[rows].tolist(), log.horizon[rows].tolist(),
                log.pred_index[rows].tolist(), floats, log.event[rows].tolist(),
            )
            for t, decision, horizon, idx, row, e in ticks:
                fields = [repr(t), decision, str(horizon), str(idx), *map(repr, row.tolist())]
                f.write(",".join(fields + solver[e]) + "\n")


def summary_lines(summary: dict) -> List[str]:
    """`key = value` for each entry of a `summarize` dict, in its order:
    lists comma-joined, floats written with repr."""
    lines = []
    for key, value in summary.items():
        text = ",".join(str(v) for v in value) if isinstance(value, list) else fmt(value)
        lines.append(f"{key} = {text}")
    return lines


def emit_summary(summary: dict, path) -> None:
    """The summary_lines as flat text.  Every line is deterministic for a
    given config and seed except mean_solve_time_ms, which is why
    summarize puts that key last."""
    with open(path, "w") as f:
        f.write("\n".join(summary_lines(summary)) + "\n")
