"""Scenarios: references, the resolved run configuration, the presets, and
the scenario-file table (`FIELDS`) through which a file overrides a preset."""

from __future__ import annotations

import dataclasses
import math
import os
import re
import sys
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import allocation, so3
from .cable_control import GainSet
from .event_trigger import TriggerConfig
from .payload_ocp import ConfigError as OcpConfigError, OcpConfig
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
            if self.kind == "circle" and not 0 < value < math.inf:
                raise ConfigError(f"circle {key!r} must be positive and finite, got {value!r}")
        self.position = np.asarray(self.position, dtype=np.float64)

    def at(self, t: float, m_L: float, g: float):
        """(x_ref (13,), or on a circle one row per entry of an array t,
        u_ref (6,)): the state row [p, v, q, omega] at time t with level
        attitude, zero rate and the circle's analytic velocity, and the hover
        wrench [F, M]."""
        if self.kind == "circle":
            r, w = self.radius, 2.0 * np.pi / self.period
            c, s = np.cos(w * t), np.sin(w * t)
            p, v = [r * c, r * s, self.height], [-r * w * s, r * w * c, 0.0]
        else:
            p, v = self.position, (0.0, 0.0, 0.0)
        pv = np.broadcast_arrays(*p, *v)
        x_ref = np.zeros(pv[0].shape + (13,))
        x_ref[..., 0:6] = np.stack(pv, axis=-1)
        x_ref[..., 6:10] = so3.quat_identity()
        u_ref = np.zeros(6)
        u_ref[2] = m_L * g
        return x_ref, u_ref


# ---------------------------------------------------------------------------
# scenario configuration


@dataclass
class ScenarioConfig:
    """Everything one closed-loop run needs, fully resolved."""

    name: str = "circle-medium"
    duration: float = 15.0
    seed: int = 0
    plant_model: str = "full"  # full | payload_only
    dt_lowlevel: float = 0.002
    params: SystemParams = field(default_factory=SystemParams)
    reference: ReferenceSpec = field(default_factory=ReferenceSpec)
    # the solver settings; the solver predicts with the payload of params
    ocp: OcpConfig = field(default_factory=OcpConfig)
    trigger: TriggerConfig = field(default_factory=TriggerConfig)
    # convergence gate for horizon shrinking; None disables shrinking, the
    # right choice for references that are followed rather than reached
    terminal_epsilon: Optional[float] = 0.05
    solver: SolverConfig = field(default_factory=SolverConfig)
    gains: GainSet = field(default_factory=GainSet)
    # the per-step disturbance bound; the disturbance is on exactly when it is > 0
    disturbance_eta: float = 0.0
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
        self.initial_offset = np.asarray(self.initial_offset, dtype=np.float64)
        if self.plant_model == "full":
            ratio = self.ocp.dt / self.dt_lowlevel
            if not math.isfinite(ratio) or round(ratio) < 1 or abs(ratio - round(ratio)) > 1e-9:
                raise ConfigError("'dt_s' must be a positive integer multiple of 'dt_lowlevel_s'")
        # a count no array can hold
        if not self.duration / self.dt_tick < sys.maxsize:
            raise ConfigError(f"'duration_s' must hold at most {sys.maxsize} ticks of "
                              f"{self.dt_tick!r} s, got {self.duration!r}")
        if self.n_ticks < 1:
            raise ConfigError(f"'duration_s' must hold at least one tick of {self.dt_tick!r} s, "
                              f"got {self.duration!r}")
        if self.terminal_epsilon is not None and not 0.0 < self.terminal_epsilon < math.inf:
            raise ConfigError(
                f"'terminal_epsilon' must be positive and finite, got {self.terminal_epsilon!r}"
            )
        if not 0.0 <= self.disturbance_eta < math.inf:
            raise ConfigError(
                f"disturbance 'eta' must be nonnegative and finite, got {self.disturbance_eta!r}"
            )
        # below a cable's share of the hover wrench the plan can only let the payload fall
        lift = allocation.build_allocation(self.params.r_i).P_pinv[:, 2].reshape(-1, 3)
        share = self.params.m_L * self.params.g * float(np.linalg.norm(lift, axis=1).max())
        if self.params.f_max < share:
            raise ConfigError(f"'tension_max_N' must be at least the hover share {share:.3f} N, "
                              f"got {self.params.f_max!r}")
        # a replan comes sigma to N steps into a plan, and its horizon is
        # at least max(2, sigma) but no longer than N
        floor = self.trigger.horizon_floor
        if self.ocp.N < floor:
            raise ConfigError(
                f"'horizon' must be at least max(2, sigma) = {floor}, got {self.ocp.N}"
            )

    @property
    def dt_tick(self) -> float:
        """Logging/simulation step: low-level period, or the NMPC period when
        only the payload rigid body is simulated."""
        return self.dt_lowlevel if self.plant_model == "full" else self.ocp.dt

    @property
    def n_ticks(self) -> int:
        """Ticks the run logs: the duration in ticks, rounded up."""
        return math.ceil(self.duration / self.dt_tick - 1e-12)

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
    # each cable carries m_L g / n
    stretch = params.m_L * params.g / params.n / params.cable_stiffness
    Y = np.zeros((params.n + 1, 13))
    Y[0, 0:3] = p0
    Y[:, 3:6] = x_ref[3:6]
    Y[:, 6:10] = so3.quat_identity()
    Y[1:, 0:3] = p0 + params.r_i + np.array([0.0, 0.0, params.l_i + stretch])
    return Y


def scenario_preset(name: str) -> ScenarioConfig:
    if not isinstance(name, str) or name not in _PRESETS:
        raise ConfigError(f"unknown 'preset' {name!r}; choices: {', '.join(sorted(_PRESETS))}")
    return _PRESETS[name]()


def preset_names() -> List[str]:
    return sorted(_PRESETS)


def _circle(condition: str) -> ScenarioConfig:
    alpha, beta = TRIGGER_PRESETS[condition]
    return ScenarioConfig(
        name=f"circle-{condition}",
        seed=10,
        trigger=TriggerConfig(alpha=alpha, beta=beta),
        disturbance_eta=1.15e-3,
        # a moving reference is followed, never reached: disable horizon
        # shrinking so replans come from the deviation test alone
        terminal_epsilon=None,
    )


def _hover(name: str, **changes) -> ScenarioConfig:
    hover = ReferenceSpec(kind="hover", position=np.array([0.0, 0.0, 1.0]))
    return ScenarioConfig(name=name, duration=10.0, reference=hover, **changes)


# preset name -> a function building a fresh config
_PRESETS = {
    "circle": lambda: _circle("medium"),
    "circle-loose": lambda: _circle("loose"),
    "circle-medium": lambda: _circle("medium"),
    "circle-tight": lambda: _circle("tight"),
    "hover": lambda: _hover("hover"),
    "hover-nominal": lambda: _hover("hover-nominal", plant_model="payload_only"),
    # the tighter convergence gate keeps several consecutive forced
    # replans outside the terminal region, where the optimal cost is
    # expected to decrease monotonically
    "hover-recovery": lambda: _hover(
        "hover-recovery",
        plant_model="payload_only",
        initial_offset=[0.3, 0.0, 0.0],
        terminal_epsilon=0.005,
    ),
}


# ---------------------------------------------------------------------------
# scenario files

POSITIVE, NONNEGATIVE = "positive", "nonnegative"
# the kind of a list of three numbers, held as a (3,) array
VECTOR = np.ndarray

# (section, key) -> (kind, range, field): every key of every section of a
# scenario file.  The field is a dotted path from ScenarioConfig.  The
# vehicle keys set one value shared by every vehicle.  A key without a
# field sets more or less than one field, and build_scenario handles it.
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
    ("weights", "position"): (float, POSITIVE, "ocp.weights.position"),
    ("weights", "velocity"): (float, POSITIVE, "ocp.weights.velocity"),
    ("weights", "attitude"): (float, POSITIVE, "ocp.weights.attitude"),
    ("weights", "rate"): (float, POSITIVE, "ocp.weights.rate"),
    ("weights", "force"): (float, NONNEGATIVE, "ocp.weights.force"),
    ("weights", "moment"): (float, NONNEGATIVE, "ocp.weights.moment"),
    ("weights", "terminal_scale"): (float, POSITIVE, "ocp.weights.terminal_scale"),
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


def load_config(path):
    """Parse a scenario file into (ScenarioConfig, sweep grid or None).

    A file that cannot be read or parsed is a ConfigError naming it.
    """
    # imported here, the only place that reads YAML, so that a preset run
    # never pays for loading the parser
    import yaml

    class Loader(yaml.SafeLoader):
        """The safe loader, plus the exponent forms (1e-3, 1.0e6, 1e+3) that
        YAML 1.1 leaves as text, read as floats."""

    Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
        list("-+0123456789."),
    )
    try:
        with open(path) as f:
            data = yaml.load(f, Loader)
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
    banned = [sep for sep in (os.sep, os.altsep, "\0") if sep]
    if not isinstance(value, str) or value in ("", ".", "..") or any(c in value for c in banned):
        raise ConfigError(f"'name' must be a file name without a path separator or NUL, got {value!r}")
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

    # ScenarioConfig attribute or dotted path ("" for the config itself) -> {field: value}
    objs = ("", "reference", "params", "trigger", "ocp", "ocp.weights", "solver", "gains")
    changes = {obj: {} for obj in objs}
    for (name, key), value in values.items():
        path = FIELDS[name, key][2]
        if path:
            obj, _, attr = path.rpartition(".")
            changes[obj][attr] = value
    if "name" in data:
        changes[""]["name"] = _file_name(data["name"])
    if ("trigger", "preset") in values:
        preset = values["trigger", "preset"]
        if preset not in TRIGGER_PRESETS:
            choices = ", ".join(TRIGGER_PRESETS)
            raise ConfigError(f"unknown trigger 'preset' {preset!r}; choices: {choices}")
        alpha, beta = TRIGGER_PRESETS[preset]
        # an explicit alpha or beta overrides the trigger preset's
        changes["trigger"] = {"alpha": alpha, "beta": beta, **changes["trigger"]}
    if ("obstacle", "clearance_m") in values and ("obstacle", "center_m") not in values:
        raise ConfigError("section 'obstacle' needs center_m")

    # each object rebuilt once, so that its own checks run on the final values
    try:
        weights = dataclasses.replace(config.ocp.weights, **changes.pop("ocp.weights"))
    except OcpConfigError as exc:
        raise ConfigError(f"section 'weights': {exc}") from exc
    changes["ocp"]["weights"] = weights
    top = changes.pop("")
    objects = {obj: dataclasses.replace(getattr(config, obj), **kw) for obj, kw in changes.items()}
    config = dataclasses.replace(config, **objects, **top)

    sweep = None
    if data.get("sweep") is not None:
        sweep = (values.get(("sweep", "alphas")), values.get(("sweep", "betas")))
        if not all(sweep):
            raise ConfigError("sweep needs non-empty alphas and betas lists")
    return config, sweep
