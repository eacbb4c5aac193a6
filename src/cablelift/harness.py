"""Scenario harness: scenarios, the closed-loop runner, and the run's files.

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
per NMPC period) steps the payload row with the predictor's own integrator.
The log captures enough per tick to rebuild the tracking, separation, and
trigger figures offline, and everything is deterministic for a fixed config
and seed (wall-clock solve times are kept out of the CSV for that reason)."""

from __future__ import annotations

import dataclasses
import math
import os
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import allocation, cable_control, event_trigger, metrics, payload_ocp, plant, so3, sqp
from .cable_control import CableTrackingState, GainSet
from .event_trigger import TerminalRegion, TriggerConfig
from .payload_ocp import CostWeights, OcpConfig
from .plant import DisturbanceModel, SystemParams
from .sqp import SolverConfig


class ConfigError(ValueError):
    """Bad scenario file: wrong schema version, unknown key, invalid value."""


class HarnessAbort(RuntimeError):
    """Closed-loop run stopped early; the message carries the diagnostic."""


class EmptyLog(ValueError):
    """Summary statistics need at least one tick."""


SCHEMA_VERSION = 1

# ceiling on the desired cable rotation rate fed to the direction controller
# (rad/s); nominal maneuvers stay well under 1 rad/s
OMEGA_DES_LIMIT = 4.0

# the three built-in triggering conditions, loosest to tightest
TRIGGER_PRESETS = {
    "loose": (0.20, 0.10),
    "medium": (0.10, 0.05),
    "tight": (0.02, 0.01),
    "condition1": (0.20, 0.10),
    "condition2": (0.10, 0.05),
    "condition3": (0.02, 0.01),
}


# ---------------------------------------------------------------------------
# references


def _level_reference(p, v, m_L: float, g: float):
    """(x_ref, u_ref): the state row [p, v, q, omega] with level attitude and
    zero rate (stacked over array entries of p, v), and the hover wrench [F, M]."""
    pv = np.broadcast_arrays(*p, *v)
    x_ref = np.zeros(pv[0].shape + (13,))
    x_ref[..., 0:6] = np.stack(pv, axis=-1)
    x_ref[..., 6:10] = so3.quat_identity()
    u_ref = np.zeros(6)
    u_ref[2] = m_L * g
    return x_ref, u_ref


def reference_circle(t: float, r: float, T_c: float, h: float, m_L: float, g: float = 9.81):
    """(x_ref, u_ref) on the circular trajectory at time t (x_ref rows along
    an array t): level attitude, analytic velocity, hover wrench feedforward."""
    if T_c <= 0:
        raise ValueError("circle period must be positive")
    w = 2.0 * np.pi / T_c
    c, s = np.cos(w * t), np.sin(w * t)
    return _level_reference([r * c, r * s, h], [-r * w * s, r * w * c, 0.0], m_L, g)


def reference_hover(p: np.ndarray, m_L: float, g: float = 9.81):
    """(x_ref, u_ref) at rest at p with the hover wrench."""
    return _level_reference(p, (0.0, 0.0, 0.0), m_L, g)


@dataclass
class ReferenceSpec:
    """Which trajectory the payload should follow."""

    kind: str = "circle"  # circle | hover
    radius: float = 1.0
    period: float = 15.0
    height: float = 0.5
    position: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 0.5]))

    def __post_init__(self):
        if self.kind not in ("circle", "hover"):
            raise ConfigError(f"unknown reference kind {self.kind!r}")
        if self.kind == "circle" and (self.radius <= 0 or self.period <= 0):
            raise ConfigError("circle radius and period must be positive")
        self.position = np.asarray(self.position, dtype=np.float64)

    def at(self, t: float, m_L: float, g: float):
        """(x_ref (13,) or one row per entry of an array t, u_ref (6,))."""
        if self.kind == "circle":
            return reference_circle(t, self.radius, self.period, self.height, m_L, g)
        return reference_hover(self.position, m_L, g)


# ---------------------------------------------------------------------------
# scenario configuration


def default_weights() -> CostWeights:
    """Tracking weights shared by every preset.

    The cables produce a moment only once the vehicles have moved to tilt
    them, far slower than one 50 ms stage.  The moment weight keeps a plan
    from closing the body-rate error with a one-stage moment impulse; such
    impulses go mostly unrealized, and replanning every sigma steps then
    pumps the payload's rotation into an event storm.
    """
    Q_X = np.diag([60.0] * 3 + [8.0] * 3 + [30.0] * 3 + [2.0] * 3)
    return CostWeights(Q_X=Q_X, Q_U=np.diag([0.8] * 3 + [40.0] * 3), Q_XN=4.0 * Q_X)


def default_system(n: int = 4) -> SystemParams:
    """Four-vehicle square rig: 0.6 m sides, 1 m cables, 232 g payload."""
    if n != 4:
        raise ConfigError("the shipped presets define the 4-vehicle square rig")
    return SystemParams(
        n=4,
        m_i=0.12,
        J_i=np.diag([2.5e-3, 2.5e-3, 4.0e-3]),
        m_L=0.232,
        J_L=np.diag([0.007, 0.007, 0.013]),
        r_i=np.array(
            [
                [0.3, 0.3, 0.0],
                [0.3, -0.3, 0.0],
                [-0.3, -0.3, 0.0],
                [-0.3, 0.3, 0.0],
            ]
        ),
        l_i=1.0,
        F_max=2.5,
        f_max=1.2,
        g=9.81,
    )


@dataclass
class ScenarioConfig:
    """Everything one closed-loop run needs, fully resolved."""

    name: str = "circle-medium"
    duration: float = 15.0
    seed: int = 0
    plant_model: str = "full"  # full | payload_only
    dt_lowlevel: float = 0.002
    params: SystemParams = field(default_factory=default_system)
    reference: ReferenceSpec = field(default_factory=ReferenceSpec)
    ocp: OcpConfig = None
    trigger: TriggerConfig = field(default_factory=lambda: TriggerConfig(alpha=0.10, beta=0.05))
    # convergence gate for horizon shrinking; None disables shrinking, the
    # right choice for references that are followed rather than reached
    terminal_epsilon: Optional[float] = 0.05
    solver: SolverConfig = field(default_factory=SolverConfig)
    gains: GainSet = field(default_factory=GainSet)
    disturbance_eta: float = 0.0
    disturbance_kind: str = "none"
    initial_offset: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        if self.duration <= 0:
            raise ConfigError("duration must be positive")
        if self.plant_model not in ("full", "payload_only"):
            raise ConfigError(f"unknown plant model {self.plant_model!r}")
        if self.ocp is None:
            self.ocp = OcpConfig(
                weights=default_weights(),
                m_L=self.params.m_L,
                J_L=self.params.J_L,
                r_i=self.params.r_i,
                f_max=self.params.f_max,
                g=self.params.g,
            )
        self.initial_offset = np.asarray(self.initial_offset, dtype=np.float64)
        if self.plant_model == "full":
            ratio = self.ocp.dt / self.dt_lowlevel
            if abs(ratio - round(ratio)) > 1e-9:
                raise ConfigError("NMPC period must be an integer multiple of the low-level step")
        if self.terminal_epsilon is not None and self.terminal_epsilon <= 0:
            raise ConfigError("terminal region radius must be positive")

    @property
    def dt_tick(self) -> float:
        """Logging/simulation step: low-level period, or the NMPC period when
        only the payload rigid body is simulated."""
        return self.dt_lowlevel if self.plant_model == "full" else self.ocp.dt

    def reference_at(self, t: float):
        return self.reference.at(t, self.params.m_L, self.params.g)


def equilibrium_state(config: ScenarioConfig) -> np.ndarray:
    """The (n+1, 13) world state at t=0, rows [p, v, q, omega], payload first.

    All vehicles park above their attachments with the hover spring stretch,
    the payload sits at the t=0 reference plus the configured offset, and
    every body is level.  The whole formation starts with the reference
    velocity so a moving reference does not open the run with a step in
    velocity error; the cable vehicles cannot absorb a near-saturation
    lateral command from rest without the cables going slack.
    """
    params = config.params
    x_ref, _ = config.reference_at(0.0)
    p0 = x_ref[0:3] + config.initial_offset
    tension = params.m_L * params.g / params.n
    Y = np.zeros((params.n + 1, 13))
    Y[0, 0:3] = p0
    Y[:, 3:6] = x_ref[3:6]
    Y[:, 6:10] = so3.quat_identity()
    for k in range(params.n):
        stretch = tension / params.cable_stiffness
        Y[1 + k, 0:3] = p0 + params.r_i[k] + np.array([0.0, 0.0, params.l_i[k] + stretch])
    return Y


def scenario_preset(name: str) -> ScenarioConfig:
    builders = _preset_builders()
    if name not in builders:
        raise ConfigError(f"unknown preset {name!r}; choices: {', '.join(sorted(builders))}")
    return builders[name]()


def preset_names() -> List[str]:
    return sorted(_preset_builders())


def tracking_gains() -> GainSet:
    """Stiffened inner-loop gains for closed-loop runs on the full plant.

    The library defaults favor gentle, well-damped stand-alone behavior.
    Under the payload controller the attitude and cable loops must respond
    well above the wrench-command bandwidth and absorb replan steps without
    ringing, otherwise the layers trade energy in a growing swing; these
    values put the attitude poles near 75 rad/s and make the
    cable-direction loop slightly overdamped around 12 rad/s.
    """
    return GainSet(
        K_R=15.0 * np.eye(3),
        K_Omega=0.37 * np.eye(3),
        K_xi=150.0 * np.eye(3),
        K_omega=30.0 * np.eye(3),
    )


def _circle(condition: str) -> ScenarioConfig:
    alpha, beta = TRIGGER_PRESETS[condition]
    return ScenarioConfig(
        name=f"circle-{condition}",
        duration=15.0,
        seed=10,
        plant_model="full",
        trigger=TriggerConfig(alpha=alpha, beta=beta),
        disturbance_eta=1.15e-3,
        disturbance_kind="uniform-bounded",
        # a moving reference is followed, never reached: disable horizon
        # shrinking so replans come from the deviation test alone
        terminal_epsilon=None,
        gains=tracking_gains(),
    )


def _hover(
    plant_model: str, offset, duration: float, name: str, terminal_epsilon: float = 0.05
) -> ScenarioConfig:
    gains = tracking_gains() if plant_model == "full" else GainSet()
    return ScenarioConfig(
        name=name,
        duration=duration,
        plant_model=plant_model,
        reference=ReferenceSpec(kind="hover", position=np.array([0.0, 0.0, 1.0])),
        trigger=TriggerConfig(alpha=0.10, beta=0.05),
        initial_offset=np.asarray(offset, dtype=np.float64),
        gains=gains,
        terminal_epsilon=terminal_epsilon,
    )


def _preset_builders():
    return {
        "circle": lambda: _circle("medium"),
        "circle-loose": lambda: _circle("loose"),
        "circle-medium": lambda: _circle("medium"),
        "circle-tight": lambda: _circle("tight"),
        "hover": lambda: _hover("full", np.zeros(3), 10.0, "hover"),
        "hover-nominal": lambda: _hover("payload_only", np.zeros(3), 10.0, "hover-nominal"),
        # the tighter convergence gate keeps several consecutive forced
        # replans outside the terminal region, where the optimal cost is
        # expected to decrease monotonically
        "hover-recovery": lambda: _hover(
            "payload_only", [0.3, 0.0, 0.0], 10.0, "hover-recovery", terminal_epsilon=0.005
        ),
    }


# ---------------------------------------------------------------------------
# run log


@dataclass
class TriggerEvent:
    k: int
    t: float
    kind: str  # forced | event
    m_k: Optional[int]  # None for the initial solve
    horizon: int
    horizon_before: Optional[int]
    cost: float
    kkt_residual: float
    iterations: int
    status: str
    solve_time: float
    outside_terminal: bool


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
    constraint table, for every tick at once.  `ticks` reads the log back one
    TickRecord per tick (a caller may pass its own records, say a doctored
    copy for a check), and `constraint_report(k)` gives one tick's report.
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
    constraints: Optional[metrics.ConstraintTable] = field(default=None, repr=False)
    events: List[TriggerEvent] = field(default_factory=list)
    solver_failures: int = 0
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

    def constraint_report(self, k: int) -> metrics.ConstraintReport:
        return self.constraints.report(k)


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
    sigma = log.config.trigger.sigma
    floor = max(2, sigma)
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
        self.ref_x: Optional[np.ndarray] = None
        self.problem = None
        self.events: List[TriggerEvent] = []
        self.failures = 0

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
                    N_hat = event_trigger.first_entry_index(self.state.predicted, self.region, self.ref_x)
                N_new = event_trigger.shrink_horizon(self.state, m_k, N_hat, cfg.trigger)
        if decision != "none":
            refs = [cfg.reference_at(t + i * cfg.ocp.dt) for i in range(N_new + 1)]
            ref_x, ref_u = (np.array(rows) for rows in zip(*refs))
            problem = payload_ocp.build_ocp(
                x_now, ref_x, ref_u, dataclasses.replace(cfg.ocp, N=N_new), self.amap
            )
            warm = None
            if self.state is not None:
                warm = sqp.shift_warm_start(self.state.predicted, m_k, N_new)
            began = time.perf_counter()
            try:
                solution = sqp.solve(problem, warm, cfg.solver)
            except (sqp.Infeasible, sqp.QpNumericalFailure) as exc:
                if self.state is None or decision == "forced":
                    raise HarnessAbort(
                        f"solver failed at a forced trigger (t={t:.3f} s, step {k}): {exc}"
                    ) from exc
                self.failures += 1
                decision = "event-failed"
            else:
                outside = self.region is None or not self.region.contains(
                    payload_ocp.state_error(x_now, ref_x[0])
                )
                self.events.append(
                    TriggerEvent(
                        k=k,
                        t=t,
                        kind=decision,
                        m_k=m_k,
                        horizon=N_new,
                        horizon_before=None if self.state is None else self.state.N_kj,
                        cost=solution.cost,
                        kkt_residual=solution.kkt_residual,
                        iterations=solution.iterations,
                        status=solution.status,
                        solve_time=time.perf_counter() - began,
                        outside_terminal=outside,
                    )
                )
                self.state = event_trigger.record_trigger(self.state, k, solution, N_new)
                self.ref_x = ref_x
                self.problem = problem
        idx = k - self.state.k_j
        return decision, self.state.predicted.U[idx], idx


def _formation_targets(config: ScenarioConfig, x_ref: np.ndarray) -> np.ndarray:
    """Desired vehicle positions (..., n, 3): level formation above the
    attachments, at the reference state rows x_ref (..., 13)."""
    params = config.params
    return x_ref[..., None, 0:3] + params.r_i + params.l_i[:, None] * np.array([0.0, 0.0, 1.0])


def _add(a, b) -> tuple:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _sub(a, b) -> tuple:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _flat(M) -> tuple:
    return tuple(np.ravel(M).tolist())


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
        # gravity and inertias as float tuples, the controllers' formats
        params = config.params
        self._g_vec = _flat(params.g_vec)
        self._J_L, self._J_L_inv = _flat(params.J_L), _flat(params._J_L_inv)
        self._J_i = [_flat(J) for J in params.J_i]
        self.mu_prev: Optional[list] = None
        self.thrust_clamps = 0
        self.omega_des_clips = 0
        self.slack_cable_ticks = 0

    def realize(self, y: list, wrench: list, new_stage: bool):
        """(tensions, directions, vehicle positions, advance's input) this tick."""
        config, params, gains = self.config, self.config.params, self.config.gains
        if new_stage:
            # the held wrench just changed, so differencing the allocated
            # tensions across this tick would read the jump as a physical
            # cable rotation; restart the direction-rate estimate instead
            self.mu_prev = None
        cables = plant.cable_closure(y, params)
        R_L = plant._rotation(*y[6:10])
        p_L, v_L, omega_l = y[0:3], y[3:6], y[10:13]
        bodies = range(13, len(y), 13)
        R_k = [plant._rotation(*y[b + 6 : b + 10]) for b in bodies]
        omega_k = [y[b + 10 : b + 13] for b in bodies]
        mu = allocation.allocate(wrench, R_L, self.amap)
        attachments = [_add(p_L, so3.rotate(R_L, r)) for r in params._r_i]
        mu = allocation.nullspace_redistribute(mu, attachments, R_L, self.amap, params._l_i)

        # the commanded wrench implies the payload acceleration the cables
        # must realize; feeding it forward keeps the vehicles moving with the
        # payload instead of trailing it on feedback alone
        m_L, (gx, gy, gz) = params.m_L, self._g_vec
        accel_des = (wrench[0] / m_L + gx, wrench[1] / m_L + gy, wrench[2] / m_L + gz)
        gyro = so3.cross(omega_l, so3.rotate(self._J_L, omega_l))
        omega_dot_des = so3.rotate(self._J_L_inv, _sub(wrench[3:6], gyro))

        xi_des, om_des = allocation.desired_cable_direction(mu, self.mu_prev, config.dt_lowlevel)
        self.mu_prev = mu
        # guard against direction flips when an allocated tension passes
        # near zero: the backward difference then reports a rotation rate
        # far beyond anything the vehicles could follow
        for k, (ox, oy, oz) in enumerate(om_des):
            om_norm = math.sqrt(ox * ox + oy * oy + oz * oz)
            if om_norm > OMEGA_DES_LIMIT:
                s = OMEGA_DES_LIMIT / om_norm
                om_des[k] = (ox * s, oy * s, oz * s)
                self.omega_des_clips += 1

        # taut cables are measured; a slack cable is steered toward the
        # commanded direction with zero tracking error, feedforward only
        xi, om_c = list(xi_des), list(om_des)
        vx, vy, vz = v_L
        for k, ((ex, ey, ez), stretch, r, b) in enumerate(
            zip(cables.direction, cables.stretch, params._r_i, bodies)
        ):
            if stretch > 0.0:
                # the attachment's velocity relative to the vehicle, v_L + R_L (omega_L x r) - v_k
                cx, cy, cz = so3.rotate(R_L, so3.cross(omega_l, r))
                ux, uy, uz = vx + cx - y[b + 3], vy + cy - y[b + 4], vz + cz - y[b + 5]
                dist = params._l_i[k] + stretch
                d = ex * ux + ey * uy + ez * uz
                dx, dy, dz = (ux - ex * d) / dist, (uy - ey * d) / dist, (uz - ez * d) / dist
                xi[k] = (ex, ey, ez)
                om_c[k] = (ey * dz - ez * dy, ez * dx - ex * dz, ex * dy - ey * dx)
        state = CableTrackingState(xi, om_c, xi_des, om_des)

        a_kc = cable_control.attachment_accel(
            accel_des, R_L, omega_l, omega_dot_des, params._r_i, params.g
        )
        u_par, u_perp = cable_control.control_components(
            allocation.project_tension(mu, xi), state, a_kc, params._m_i, params._l_i, gains
        )
        u = [_add(a, b) for a, b in zip(u_par, u_perp)]
        thrust = cable_control.thrust_command(u, R_k)
        R_des = cable_control.desired_attitude(u, 0.0)
        errors = cable_control.attitude_errors(R_k, R_des, omega_k)
        moment = cable_control.moment_command(errors, omega_k, R_k, R_des, self._J_i, gains)

        self.thrust_clamps += sum(1 for f in thrust if f < 0.0 or f > params.F_max)
        self.slack_cable_ticks += sum(1 for stretch in cables.stretch if not stretch > 0.0)
        mav_p = [y[b : b + 3] for b in bodies]
        return cables.tension, cables.direction, mav_p, ((thrust, moment), cables)

    def advance(self, y: list, step_input, wrench: list, problem) -> list:
        commands, cables = step_input
        return plant.step_world(y, commands, self.config.dt_lowlevel, self.config.params, cables)


class _PayloadOnly:
    """Nominal-model run: only the payload row of the world state moves, stepped
    directly with the NMPC wrench by the predictor's own integrator, so
    predictions and plant agree up to the solver's feasibility tolerance."""

    # no controllers, so no clamps
    thrust_clamps = omega_des_clips = slack_cable_ticks = 0

    def __init__(self, config: ScenarioConfig, amap: allocation.AllocationMap):
        self.config = config
        self.amap = amap

    def realize(self, y: list, wrench: list, new_stage: bool):
        """(tensions, directions, vehicle positions, None) of the minimal-norm
        allocation, vehicles placed one cable length along each tension.

        The split is taken with numpy's whole-matrix products.  BLAS fuses
        their multiply-adds, so the controllers' float `allocation.allocate`
        would move this model's logged tensions and positions in the last
        bits, and nothing here feeds back into the payload."""
        params, x = self.config.params, np.array(y[0:13])
        R_L = so3.quat_to_rotation(x[6:10])
        target = np.concatenate([R_L.T @ wrench[0:3], wrench[3:6]])
        mu = (self.amap.P_pinv @ target).reshape(params.n, 3) @ R_L.T
        tensions = np.linalg.norm(mu, axis=1)
        directions = np.where(tensions[:, None] > 1e-12, -mu / np.maximum(tensions, 1e-12)[:, None], 0.0)
        attachments = x[0:3] + (R_L @ params.r_i.T).T
        mav_p = attachments + params.l_i[:, None] * np.where(
            tensions[:, None] > 1e-12, mu / np.maximum(tensions, 1e-12)[:, None], [[0.0, 0.0, 1.0]]
        )
        return tensions, directions, mav_p, None

    def advance(self, y: list, step_input, wrench: list, problem) -> list:
        X = payload_ocp.discretize(np.array([y[0:13]]), np.array(wrench), self.config.ocp.dt, problem)
        return X[0].tolist() + y[13:]


def run_closed_loop(config: ScenarioConfig) -> RunLog:
    """Simulate one scenario end to end and return the complete log."""
    params = config.params
    # the attachment geometry is fixed, so one map serves the plant model
    # and every NMPC problem
    amap = allocation.build_allocation(params.r_i)
    model = (_FullPlant if config.plant_model == "full" else _PayloadOnly)(config, amap)
    trigger = _TriggerLoop(config, amap)
    disturbance = DisturbanceModel(
        eta=config.disturbance_eta, seed=config.seed, kind=config.disturbance_kind
    )
    bounds = metrics.default_bounds(
        _formation_targets(config, config.reference_at(0.0)[0]),
        params.f_max,
        payload_radius=config.ocp.funnel.value(0.0) if config.ocp.funnel else 0.2,
        obstacle_center=config.ocp.obstacle_center,
        obstacle_clearance=config.ocp.obstacle_clearance,
    )
    y = equilibrium_state(config).ravel().tolist()
    dt = config.dt_tick
    ratio = int(round(config.ocp.dt / dt))
    n_ticks = math.ceil(config.duration / dt - 1e-12)
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
            tensions, directions, mav_p, step_input = model.realize(y, wrench, new_stage)
        except (plant.CableOverload, plant.DegenerateGeometry) as exc:
            raise HarnessAbort(f"cable failure at t={t:.3f} s: {exc}") from exc

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
        try:
            y = model.advance(y, step_input, wrench, trigger.problem)
        except (plant.NonFiniteState, plant.CableOverload, plant.DegenerateGeometry) as exc:
            raise HarnessAbort(f"plant failure at t={t:.3f} s: {exc}") from exc
        disturbance.perturb(y)

    # every derived column, for the whole run at once
    log.reference[:] = config.reference_at(log.t)[0]
    p, p_ref = log.payload[:, 0:3], log.reference[:, 0:3]
    log.payload_err = so3.norm_rows(p - p_ref)
    separations = metrics.pair_separations(log.mav_p)
    log.min_sep, log.max_sep = separations.min(axis=1), separations.max(axis=1)
    targets = _formation_targets(config, log.reference)
    log.constraints = metrics.check_all(log.t, p, p_ref, log.mav_p, targets, log.tensions, bounds)
    log.events = trigger.events
    log.solver_failures = trigger.failures
    log.thrust_clamps = model.thrust_clamps
    log.omega_des_clips = model.omega_des_clips
    log.slack_cable_ticks = model.slack_cable_ticks
    return log


# ---------------------------------------------------------------------------
# summaries and files


def summarize(log: RunLog) -> dict:
    """Aggregate one run into the quantities the experiment tables report."""
    if not len(log.t):
        raise EmptyLog("cannot summarize a log with no ticks")
    errs = log.payload_err
    inter = [e.m_k for e in log.events if e.m_k is not None]
    solve_times = [e.solve_time for e in log.events]
    violations = int(np.count_nonzero(log.constraints.margins("payload_funnel") < 0))
    statuses = [e.status for e in log.events]
    return {
        "nmpc_executions": log.nmpc_executions,
        "event_triggers": sum(1 for e in log.events if e.kind == "event"),
        "forced_triggers": sum(1 for e in log.events if e.kind == "forced"),
        "rms_payload_error_m": float(np.sqrt(np.mean(errs**2))),
        "max_payload_error_m": float(np.max(errs)),
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
        "mean_solve_time_ms": 1e3 * float(np.mean(solve_times)) if solve_times else 0.0,
    }


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


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


def emit_csv(log: RunLog, path) -> None:
    """One row per tick, fixed column order, units in the header names.

    Floats are written with repr so re-emitting the same log reproduces the
    file byte for byte; wall-clock solve times are deliberately absent.
    """
    n, T = log.config.params.n, len(log.t)
    blocks = (log.payload, log.reference[:, 0:3], log.payload_err, log.wrench, log.tensions)
    blocks += (log.directions, log.mav_p, log.min_sep, log.max_sep)
    floats = np.hstack([b.reshape(T, math.prod(b.shape[1:])) for b in blocks])
    # the solver columns of each event, and last, at index -1, of a tick without one
    solver = [
        [e.status, str(e.iterations), "" if math.isnan(e.cost) else _fmt(e.cost)]
        for e in log.events
    ]
    solver.append(["", "0", ""])
    ticks = zip(
        log.t.tolist(), log.decision.tolist(), log.horizon.tolist(), log.pred_index.tolist(),
        floats, log.event.tolist(),
    )
    with open(path, "w") as f:
        f.write(",".join(_csv_header(n)) + "\n")
        for t, decision, horizon, idx, row, e in ticks:
            fields = [repr(t), decision, str(horizon), str(idx), *map(repr, row.tolist())]
            f.write(",".join(fields + solver[e]) + "\n")


SUMMARY_ORDER = [
    "nmpc_executions",
    "event_triggers",
    "forced_triggers",
    "rms_payload_error_m",
    "max_payload_error_m",
    "min_separation_m",
    "max_separation_m",
    "funnel_violations",
    "mean_inter_execution_steps",
    "horizon_trace",
    "solver_failures",
    "thrust_clamps",
    "omega_des_clips",
    "slack_cable_ticks",
    "solves_converged",
    "solves_max_iter",
    "solves_stalled",
    "mean_solve_time_ms",
]


def emit_summary(summary: dict, path) -> None:
    """Flat key = value text in a fixed order.  Every line is deterministic
    for a given config and seed except mean_solve_time_ms, which is why that
    key is sorted last."""
    lines = []
    for key in SUMMARY_ORDER:
        value = summary[key]
        if isinstance(value, list):
            lines.append(f"{key} = {','.join(str(v) for v in value)}")
        else:
            lines.append(f"{key} = {_fmt(value)}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# config files


_TOP_KEYS = {
    "schema_version", "preset", "name", "scenario", "reference", "system",
    "trigger", "nmpc", "solver", "disturbance", "weights", "gains", "obstacle",
    "sweep",
}
_SCENARIO_KEYS = {"duration_s", "seed", "plant_model", "dt_lowlevel_s", "initial_offset_m"}
_REFERENCE_KEYS = {"kind", "radius_m", "period_s", "height_m", "position_m"}
_SYSTEM_KEYS = {
    "mav_mass_kg", "payload_mass_kg", "cable_length_m", "thrust_max_N",
    "tension_max_N", "cable_stiffness_Npm", "cable_damping_Nspm",
}
_TRIGGER_KEYS = {"preset", "alpha", "beta", "sigma", "terminal_epsilon"}
_NMPC_KEYS = {"horizon", "dt_s", "funnel_epsilon_m", "funnel_weight"}
# config key -> SolverConfig field type
_SOLVER_KEYS = {"max_sqp_iters": int, "kkt_tol": float, "feas_tol": float}
_DISTURBANCE_KEYS = {"eta", "kind"}
# config key -> first index of its 3-block on the diagonal of Q_X (state) or Q_U (input)
_STATE_WEIGHT_BLOCKS = {"position": 0, "velocity": 3, "attitude": 6, "rate": 9}
_INPUT_WEIGHT_BLOCKS = {"force": 0, "moment": 3}
_WEIGHT_KEYS = {*_STATE_WEIGHT_BLOCKS, *_INPUT_WEIGHT_BLOCKS, "terminal_scale"}
# config key -> GainSet field
_GAIN_KEYS = {"attitude": "K_R", "attitude_rate": "K_Omega", "cable": "K_xi", "cable_rate": "K_omega"}
_OBSTACLE_KEYS = {"center_m", "clearance_m"}
_SWEEP_KEYS = {"alphas", "betas"}


def _check_keys(section: dict, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"section {where!r} must be a mapping")
    unknown = set(section).difference(allowed)
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in section {where!r}")


def _number(
    section: dict, key: str, default=None, kind=float, positive=False, nonnegative=False
):
    """section[key] as a finite float, an integer (kind=int), a list of three
    finite floats (kind=np.ndarray) or a list of finite floats (kind=list);
    default when the key is absent.  With positive=True a number, or each
    item of a list, must also be > 0, with nonnegative=True >= 0.  Anything
    else is a ConfigError naming the key."""
    if key not in section:
        return default
    value = section[key]
    if kind is np.ndarray or kind is list:
        if not isinstance(value, list) or (kind is np.ndarray and len(value) != 3):
            size = "3 " if kind is np.ndarray else ""
            raise ConfigError(f"{key!r} must be a list of {size}numbers, got {value!r}")
        items = [_number({key: v}, key, positive=positive, nonnegative=nonnegative) for v in value]
        return np.array(items) if kind is np.ndarray else items
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key!r} must be a number, got {value!r}")
    if kind is int:
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{key!r} must be an integer, got {value!r}")
        value = int(value)
    else:
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{key!r} must be finite, got {value!r}")
    if positive and value <= 0:
        raise ConfigError(f"{key!r} must be positive, got {value!r}")
    if nonnegative and value < 0:
        raise ConfigError(f"{key!r} must be nonnegative, got {value!r}")
    return value


def _override_weights(base: CostWeights, section: dict) -> CostWeights:
    """The preset's weights with the blocks named in `section` replaced.

    Preset weights are diagonal with one value per 3-block, and the terminal
    weight is Q_XN = terminal_scale * Q_X; every block the section leaves
    out, and the terminal scale, keep the preset's values.
    """
    diag_x = np.diag(base.Q_X).copy()
    diag_u = np.diag(base.Q_U).copy()
    scale = _number(section, "terminal_scale", float(base.Q_XN[0, 0] / base.Q_X[0, 0]))
    for key, start in _STATE_WEIGHT_BLOCKS.items():
        if key in section:
            diag_x[start : start + 3] = _number(section, key)
    for key, start in _INPUT_WEIGHT_BLOCKS.items():
        if key in section:
            diag_u[start : start + 3] = _number(section, key)
    Q_X = np.diag(diag_x)
    return CostWeights(Q_X=Q_X, Q_U=np.diag(diag_u), Q_XN=scale * Q_X)


def load_config(path):
    """Parse a scenario file into (ScenarioConfig, sweep grid or None).

    A file that cannot be read or parsed is a ConfigError naming it.
    """
    # imported here, the only place that reads YAML, so that a preset run
    # never pays for loading the parser
    import yaml

    try:
        with open(path) as f:
            data = yaml.safe_load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {str(path)!r}: {exc.strerror}") from exc
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"scenario file {str(path)!r} is not valid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a mapping")
    return build_scenario(data)


def _file_name(value) -> str:
    """The scenario name, which names the output files inside --out-dir: one
    non-empty file-name component."""
    separators = [sep for sep in (os.sep, os.altsep) if sep]
    if not isinstance(value, str) or value in ("", ".", "..") or any(
        sep in value for sep in separators
    ):
        raise ConfigError(f"'name' must be a file name without a path separator, got {value!r}")
    return value


def build_scenario(data: dict):
    _check_keys(data, _TOP_KEYS, "top level")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
    config = scenario_preset(data.get("preset", "circle"))
    if "name" in data:
        config.name = _file_name(data["name"])

    sc = data.get("scenario", {})
    _check_keys(sc, _SCENARIO_KEYS, "scenario")
    config.duration = _number(sc, "duration_s", config.duration, positive=True)
    config.seed = _number(sc, "seed", config.seed, int)
    config.plant_model = sc.get("plant_model", config.plant_model)
    config.dt_lowlevel = _number(sc, "dt_lowlevel_s", config.dt_lowlevel, positive=True)
    config.initial_offset = _number(sc, "initial_offset_m", config.initial_offset, np.ndarray)

    ref = data.get("reference", {})
    _check_keys(ref, _REFERENCE_KEYS, "reference")
    if ref:
        config.reference = ReferenceSpec(
            kind=ref.get("kind", config.reference.kind),
            radius=_number(ref, "radius_m", config.reference.radius),
            period=_number(ref, "period_s", config.reference.period),
            height=_number(ref, "height_m", config.reference.height),
            position=_number(ref, "position_m", config.reference.position, np.ndarray),
        )

    sys_sec = data.get("system", {})
    _check_keys(sys_sec, _SYSTEM_KEYS, "system")
    if sys_sec:
        base = config.params
        config.params = SystemParams(
            n=base.n,
            m_i=_number(sys_sec, "mav_mass_kg", float(base.m_i[0]), positive=True),
            J_i=base.J_i[0],
            m_L=_number(sys_sec, "payload_mass_kg", base.m_L, positive=True),
            J_L=base.J_L,
            r_i=base.r_i,
            l_i=_number(sys_sec, "cable_length_m", float(base.l_i[0]), positive=True),
            F_max=_number(sys_sec, "thrust_max_N", base.F_max, positive=True),
            f_max=_number(sys_sec, "tension_max_N", base.f_max, positive=True),
            g=base.g,
            cable_stiffness=_number(
                sys_sec, "cable_stiffness_Npm", base.cable_stiffness, positive=True
            ),
            cable_damping=_number(
                sys_sec, "cable_damping_Nspm", base.cable_damping, nonnegative=True
            ),
        )

    trig = data.get("trigger", {})
    _check_keys(trig, _TRIGGER_KEYS, "trigger")
    alpha, beta = config.trigger.alpha, config.trigger.beta
    if "preset" in trig:
        if trig["preset"] not in TRIGGER_PRESETS:
            raise ConfigError(f"unknown trigger preset {trig['preset']!r}")
        alpha, beta = TRIGGER_PRESETS[trig["preset"]]
    config.trigger = TriggerConfig(
        alpha=_number(trig, "alpha", alpha, nonnegative=True),
        beta=_number(trig, "beta", beta, positive=True),
        sigma=_number(trig, "sigma", config.trigger.sigma, int, positive=True),
    )
    eps = trig.get("terminal_epsilon", config.terminal_epsilon)
    config.terminal_epsilon = None if eps is None else _number(trig, "terminal_epsilon", eps)

    nmpc = data.get("nmpc", {})
    _check_keys(nmpc, _NMPC_KEYS, "nmpc")
    weights_sec = data.get("weights", {})
    _check_keys(weights_sec, _WEIGHT_KEYS, "weights")
    weights = config.ocp.weights
    if weights_sec:
        weights = _override_weights(weights, weights_sec)
    obstacle = data.get("obstacle", {})
    _check_keys(obstacle, _OBSTACLE_KEYS, "obstacle")
    if obstacle and "center_m" not in obstacle:
        raise ConfigError("section 'obstacle' needs center_m")
    funnel_eps = _number(nmpc, "funnel_epsilon_m", config.ocp.funnel.value(0.0), positive=True)
    config.ocp = OcpConfig(
        weights=weights,
        m_L=config.params.m_L,
        J_L=config.params.J_L,
        r_i=config.params.r_i,
        f_max=config.params.f_max,
        N=_number(nmpc, "horizon", config.ocp.N, int, positive=True),
        dt=_number(nmpc, "dt_s", config.ocp.dt, positive=True),
        g=config.params.g,
        obstacle_center=_number(obstacle, "center_m", None, np.ndarray) if obstacle else None,
        obstacle_clearance=_number(obstacle, "clearance_m", 0.0, nonnegative=True),
        funnel=metrics.FunnelSpec.constant(funnel_eps),
        funnel_weight=_number(nmpc, "funnel_weight", config.ocp.funnel_weight, nonnegative=True),
    )

    solver = data.get("solver", {})
    _check_keys(solver, _SOLVER_KEYS, "solver")
    config.solver = dataclasses.replace(
        config.solver,
        **{key: _number(solver, key, kind=_SOLVER_KEYS[key], positive=True) for key in solver},
    )

    gains_sec = data.get("gains", {})
    _check_keys(gains_sec, _GAIN_KEYS, "gains")
    config.gains = dataclasses.replace(
        config.gains,
        **{_GAIN_KEYS[key]: _number(gains_sec, key) * np.eye(3) for key in gains_sec},
    )

    dist = data.get("disturbance", {})
    _check_keys(dist, _DISTURBANCE_KEYS, "disturbance")
    config.disturbance_eta = _number(dist, "eta", config.disturbance_eta, nonnegative=True)
    config.disturbance_kind = dist.get("kind", config.disturbance_kind)
    if config.disturbance_kind not in ("none", "uniform-bounded"):
        raise ConfigError(f"unknown disturbance kind {config.disturbance_kind!r}")

    sweep = data.get("sweep")
    if sweep is not None:
        _check_keys(sweep, _SWEEP_KEYS, "sweep")
        # the ranges TriggerConfig requires of alpha and beta, checked before
        # any grid point runs
        alphas = _number(sweep, "alphas", [], list, nonnegative=True)
        betas = _number(sweep, "betas", [], list, positive=True)
        if not alphas or not betas:
            raise ConfigError("sweep needs non-empty alphas and betas lists")
        sweep = (alphas, betas)

    # re-run the cross-field validation with the final field values
    config.__post_init__()
    return config, sweep
