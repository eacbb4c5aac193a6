"""Scenarios: references, the resolved run configuration, the presets, and
the scenario-file table (`FIELDS`) through which a file overrides a preset."""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import so3
from .cable_control import GainSet
from .event_trigger import TriggerConfig
from .payload_ocp import ConfigError as OcpConfigError, CostWeights, OcpConfig
from .plant import SystemParams
from .sqp import SolverConfig


class ConfigError(ValueError):
    """Bad scenario file: wrong schema version, unknown key, invalid value."""


SCHEMA_VERSION = 1

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
            raise ConfigError(f"unknown reference 'kind' {self.kind!r}")
        for key, value in (("radius_m", self.radius), ("period_s", self.period)):
            if self.kind == "circle" and value <= 0:
                raise ConfigError(f"circle {key!r} must be positive, got {value!r}")
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
        if not 0.0 < self.duration < math.inf:
            raise ConfigError("duration must be positive and finite")
        if not 0.0 < self.dt_lowlevel < math.inf:
            raise ConfigError("low-level step must be positive and finite")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ConfigError(f"'seed' must be a nonnegative integer, got {self.seed!r}")
        if self.plant_model not in ("full", "payload_only"):
            raise ConfigError(f"unknown 'plant_model' {self.plant_model!r}")
        if self.disturbance_kind not in ("none", "uniform-bounded"):
            raise ConfigError(f"unknown disturbance 'kind' {self.disturbance_kind!r}")
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
        if self.terminal_epsilon is not None and not 0.0 < self.terminal_epsilon < math.inf:
            raise ConfigError(
                f"'terminal_epsilon' must be positive and finite, got {self.terminal_epsilon!r}"
            )
        if not 0.0 <= self.disturbance_eta < math.inf:
            raise ConfigError(
                f"disturbance 'eta' must be nonnegative and finite, got {self.disturbance_eta!r}"
            )
        # a replan comes sigma to N steps into a plan, and its horizon is
        # at least max(2, sigma) but no longer than N
        floor = max(2, self.trigger.sigma)
        if self.ocp.N < floor:
            raise ConfigError(
                f"'horizon' must be at least max(2, sigma) = {floor}, got {self.ocp.N}"
            )

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
    if not isinstance(name, str) or name not in _PRESETS:
        raise ConfigError(f"unknown 'preset' {name!r}; choices: {', '.join(sorted(_PRESETS))}")
    return _PRESETS[name]()


def preset_names() -> List[str]:
    return sorted(_PRESETS)


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


def _hover(plant_model: str, offset, name: str, terminal_epsilon: float = 0.05) -> ScenarioConfig:
    gains = tracking_gains() if plant_model == "full" else GainSet()
    return ScenarioConfig(
        name=name,
        duration=10.0,
        plant_model=plant_model,
        reference=ReferenceSpec(kind="hover", position=np.array([0.0, 0.0, 1.0])),
        trigger=TriggerConfig(alpha=0.10, beta=0.05),
        initial_offset=np.asarray(offset, dtype=np.float64),
        gains=gains,
        terminal_epsilon=terminal_epsilon,
    )


# preset name -> a function building a fresh config
_PRESETS = {
    "circle": lambda: _circle("medium"),
    "circle-loose": lambda: _circle("loose"),
    "circle-medium": lambda: _circle("medium"),
    "circle-tight": lambda: _circle("tight"),
    "hover": lambda: _hover("full", np.zeros(3), "hover"),
    "hover-nominal": lambda: _hover("payload_only", np.zeros(3), "hover-nominal"),
    # the tighter convergence gate keeps several consecutive forced
    # replans outside the terminal region, where the optimal cost is
    # expected to decrease monotonically
    "hover-recovery": lambda: _hover(
        "payload_only", [0.3, 0.0, 0.0], "hover-recovery", terminal_epsilon=0.005
    ),
}


# ---------------------------------------------------------------------------
# scenario files

POSITIVE, NONNEGATIVE = "positive", "nonnegative"
# the kind of a list of three numbers, held as a (3,) array
VECTOR = np.ndarray

# (section, key) -> (kind, range, field): every key of every section of a
# scenario file.  The field is a dotted path from ScenarioConfig.  A float
# key for a per-vehicle field sets it for every vehicle, and a gain sets its
# matrix to the value times the identity.  A key without a field sets more or
# less than one field, and build_scenario handles it.
FIELDS = {
    ("scenario", "duration_s"): (float, POSITIVE, "duration"),
    ("scenario", "seed"): (int, NONNEGATIVE, "seed"),
    ("scenario", "plant_model"): (str, None, "plant_model"),
    ("scenario", "dt_lowlevel_s"): (float, POSITIVE, "dt_lowlevel"),
    ("scenario", "initial_offset_m"): (VECTOR, None, "initial_offset"),
    ("reference", "kind"): (str, None, "reference.kind"),
    ("reference", "radius_m"): (float, None, "reference.radius"),
    ("reference", "period_s"): (float, None, "reference.period"),
    ("reference", "height_m"): (float, None, "reference.height"),
    ("reference", "position_m"): (VECTOR, None, "reference.position"),
    ("system", "mav_mass_kg"): (float, POSITIVE, "params.m_i"),
    ("system", "payload_mass_kg"): (float, POSITIVE, "params.m_L"),
    ("system", "cable_length_m"): (float, POSITIVE, "params.l_i"),
    ("system", "thrust_max_N"): (float, POSITIVE, "params.F_max"),
    ("system", "tension_max_N"): (float, POSITIVE, "params.f_max"),
    ("system", "cable_stiffness_Npm"): (float, POSITIVE, "params.cable_stiffness"),
    ("system", "cable_damping_Nspm"): (float, NONNEGATIVE, "params.cable_damping"),
    ("trigger", "preset"): (str, None, None),
    ("trigger", "alpha"): (float, NONNEGATIVE, "trigger.alpha"),
    ("trigger", "beta"): (float, POSITIVE, "trigger.beta"),
    ("trigger", "sigma"): (int, POSITIVE, "trigger.sigma"),
    # or null, which turns horizon shrinking off
    ("trigger", "terminal_epsilon"): (float, POSITIVE, "terminal_epsilon"),
    ("nmpc", "horizon"): (int, POSITIVE, "ocp.N"),
    ("nmpc", "dt_s"): (float, POSITIVE, "ocp.dt"),
    ("nmpc", "funnel_epsilon_m"): (float, POSITIVE, "ocp.funnel_radius"),
    ("nmpc", "funnel_weight"): (float, NONNEGATIVE, "ocp.funnel_weight"),
    ("solver", "max_sqp_iters"): (int, POSITIVE, "solver.max_sqp_iters"),
    ("solver", "kkt_tol"): (float, POSITIVE, "solver.kkt_tol"),
    ("solver", "feas_tol"): (float, POSITIVE, "solver.feas_tol"),
    ("disturbance", "eta"): (float, NONNEGATIVE, "disturbance_eta"),
    ("disturbance", "kind"): (str, None, "disturbance_kind"),
    ("weights", "position"): (float, POSITIVE, None),
    ("weights", "velocity"): (float, POSITIVE, None),
    ("weights", "attitude"): (float, POSITIVE, None),
    ("weights", "rate"): (float, POSITIVE, None),
    ("weights", "force"): (float, NONNEGATIVE, None),
    ("weights", "moment"): (float, NONNEGATIVE, None),
    ("weights", "terminal_scale"): (float, POSITIVE, None),
    # GainSet takes exactly the positive gains
    ("gains", "attitude"): (float, POSITIVE, "gains.K_R"),
    ("gains", "attitude_rate"): (float, POSITIVE, "gains.K_Omega"),
    ("gains", "cable"): (float, POSITIVE, "gains.K_xi"),
    ("gains", "cable_rate"): (float, POSITIVE, "gains.K_omega"),
    ("obstacle", "center_m"): (VECTOR, None, "ocp.obstacle_center"),
    ("obstacle", "clearance_m"): (float, NONNEGATIVE, "ocp.obstacle_clearance"),
    # the ranges TriggerConfig requires of alpha and beta, checked before any
    # grid point runs
    ("sweep", "alphas"): (list, NONNEGATIVE, None),
    ("sweep", "betas"): (list, POSITIVE, None),
}
SECTIONS = {section: {key for name, key in FIELDS if name == section} for section, _ in FIELDS}
_TOP_KEYS = {"schema_version", "preset", "name", *SECTIONS}

# weights key -> first index of its 3-block on the diagonals of Q_X (12) and Q_U (6), end to end
_WEIGHT_BLOCKS = {"position": 0, "velocity": 3, "attitude": 6, "rate": 9, "force": 12, "moment": 15}


def _check_keys(section: dict, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"section {where!r} must be a mapping")
    unknown = set(section).difference(allowed)
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in section {where!r}")


def _number(value, key: str, kind=float, bound=None):
    """The value of `key` as a finite float, an integer (kind=int), a string
    (kind=str), a list of three finite floats (kind=VECTOR) or a list of
    distinct finite floats (kind=list).  With bound=POSITIVE a number, or each
    item of a list, must also be > 0, with bound=NONNEGATIVE >= 0.  Anything
    else is a ConfigError naming the key."""
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{key!r} must be a string, got {value!r}")
        return value
    if kind is VECTOR or kind is list:
        if not isinstance(value, list) or (kind is VECTOR and len(value) != 3):
            size = "3 " if kind is VECTOR else ""
            raise ConfigError(f"{key!r} must be a list of {size}numbers, got {value!r}")
        items = [_number(v, key, bound=bound) for v in value]
        if kind is list and len(set(items)) < len(items):
            raise ConfigError(f"{key!r} must not repeat a value, got {value!r}")
        return np.array(items) if kind is VECTOR else items
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
    if (bound == POSITIVE and value <= 0) or (bound == NONNEGATIVE and value < 0):
        raise ConfigError(f"{key!r} must be {bound}, got {value!r}")
    return value


def _override_weights(base: CostWeights, values: dict) -> CostWeights:
    """The preset's weights with the blocks named in `values` replaced.

    Preset weights are diagonal with one value per 3-block, and the terminal
    weight is Q_XN = terminal_scale * Q_X; every block the file leaves out,
    and the terminal scale, keep the preset's values.
    """
    diag = np.concatenate([np.diag(base.Q_X), np.diag(base.Q_U)])
    scale = values.get(("weights", "terminal_scale"), float(base.Q_XN[0, 0] / base.Q_X[0, 0]))
    for key, start in _WEIGHT_BLOCKS.items():
        if ("weights", key) in values:
            diag[start : start + 3] = values["weights", key]
    Q_X = np.diag(diag[:12])
    with np.errstate(over="ignore"):
        Q_XN = scale * Q_X
    try:
        return CostWeights(Q_X=Q_X, Q_U=np.diag(diag[12:]), Q_XN=Q_XN)
    except OcpConfigError as exc:
        given = {k: values[s, k] for s, k in values if s == "weights"}
        if np.all(np.isfinite(Q_XN)):
            # the preset's weights pass, so blame the smallest weight the file gives
            key = min(given, key=given.get)
        else:
            # terminal_scale * Q_X overflowed: blame its largest factor the file gives
            key = max((k for k in given if k not in ("force", "moment")), key=given.get)
        raise ConfigError(f"{key!r} in section 'weights' is out of range: {exc}") from exc


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
    """(ScenarioConfig, sweep grid or None) from a parsed scenario file: the
    preset it names with every setting the file gives replaced."""
    _check_keys(data, _TOP_KEYS, "top level")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
    config = scenario_preset(data.get("preset", "circle"))

    values = {}  # (section, key) -> value, for every key the file gives
    for name in SECTIONS:
        section = data.get(name, {})
        if name == "sweep" and section is None:
            # an empty `sweep:` is no sweep
            section = {}
        _check_keys(section, SECTIONS[name], name)
        for key, value in section.items():
            kind, bound, _ = FIELDS[name, key]
            # a null terminal_epsilon stays None
            if value is not None or (name, key) != ("trigger", "terminal_epsilon"):
                value = _number(value, key, kind, bound)
            values[name, key] = value

    # ScenarioConfig attribute ("" for the config itself) -> {field: value}
    changes = {obj: {} for obj in ("", "reference", "params", "trigger", "ocp", "solver", "gains")}
    for (name, key), value in values.items():
        path = FIELDS[name, key][2]
        if path:
            obj, _, attr = path.rpartition(".")
            changes[obj][attr] = value
    if "name" in data:
        changes[""]["name"] = _file_name(data["name"])
    given = {name for name, _ in values}  # the sections that set anything
    if ("trigger", "preset") in values:
        preset = values["trigger", "preset"]
        if preset not in TRIGGER_PRESETS:
            choices = ", ".join(TRIGGER_PRESETS)
            raise ConfigError(f"unknown trigger 'preset' {preset!r}; choices: {choices}")
        alpha, beta = TRIGGER_PRESETS[preset]
        # an explicit alpha or beta overrides the trigger preset's
        changes["trigger"] = {"alpha": alpha, "beta": beta, **changes["trigger"]}
    if "weights" in given:
        changes["ocp"]["weights"] = _override_weights(config.ocp.weights, values)
    changes["gains"] = {attr: gain * np.eye(3) for attr, gain in changes["gains"].items()}
    if "obstacle" in given and ("obstacle", "center_m") not in values:
        raise ConfigError("section 'obstacle' needs center_m")

    # each object rebuilt once, so that its own checks run on the final values
    params = dataclasses.replace(config.params, **changes.pop("params"))
    # the predictor's model is the rig's
    rig = {attr: getattr(params, attr) for attr in ("m_L", "J_L", "r_i", "f_max", "g")}
    changes["ocp"].update(rig)
    top = changes.pop("")
    objects = {obj: dataclasses.replace(getattr(config, obj), **kw) for obj, kw in changes.items()}
    config = dataclasses.replace(config, params=params, **objects, **top)

    sweep = None
    if data.get("sweep") is not None:
        sweep = (values.get(("sweep", "alphas")), values.get(("sweep", "betas")))
        if not all(sweep):
            raise ConfigError("sweep needs non-empty alphas and betas lists")
    return config, sweep
