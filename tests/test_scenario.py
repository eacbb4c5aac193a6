"""The scenario-file table: presets read back through it, one-key overrides,
malformed values, and the README's example file.

`read_back` writes a config as the scenario file that rebuilds it, reading
every table row from its field and every handled key from what it sets, so
the properties below test the table against the config objects rather than
against a second copy of the parsing rules.
"""

import contextlib
import dataclasses
import io
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cablelift import cli, harness, payload_ocp, plant, scenario
from cablelift.cable_control import GainSet
from cablelift.payload_ocp import CostWeights
from cablelift.scenario import NONNEGATIVE, POSITIVE, VECTOR

# an obstacle far from every preset's path, so that its keys can be overridden
OBSTACLE = {"center_m": [5.0, 5.0, 5.0], "clearance_m": 0.25}


def read_back(config) -> dict:
    """The scenario file that rebuilds config: every key, read from its field."""
    data = {"schema_version": 1, "name": config.name}
    for (section, key), (kind, _, path) in scenario.FIELDS.items():
        if path is None:
            continue
        value = config
        for attr in path.split("."):
            value = getattr(value, attr)
        if kind is VECTOR and value is not None:
            value = value.tolist()
        elif isinstance(value, np.ndarray):
            # a per-vehicle field holds the value once per vehicle
            one = float(value.flat[0])
            np.testing.assert_array_equal(value, np.full(value.shape, one), err_msg=path)
            value = one
        data.setdefault(section, {})[key] = value
    if config.ocp.obstacle_center is None:
        # no obstacle is no section; a clearance alone is refused
        assert data.pop("obstacle") == {"center_m": None, "clearance_m": 0.0}
    return data


def assert_same(a, b, path="config"):
    """a and b equal field by field, arrays in shape and every entry."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), path
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
    elif isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert np.shape(a) == np.shape(b), path
        np.testing.assert_array_equal(a, b, err_msg=path)
    else:
        assert a == b, path


def test_read_back_names_every_key_but_the_trigger_preset_and_the_sweep():
    data = {**read_back(scenario.scenario_preset("hover")), "obstacle": OBSTACLE}
    sections = {name: section for name, section in data.items() if isinstance(section, dict)}
    keys = {(name, key) for name, section in sections.items() for key in section}
    unread = {("trigger", "preset"), ("sweep", "alphas"), ("sweep", "betas")}
    assert keys | unread == set(scenario.FIELDS)


@pytest.mark.parametrize("preset", scenario.preset_names())
def test_preset_read_back_rebuilds_it_from_any_preset(preset):
    """Every field of every preset is reachable from a scenario file, and
    the file's values are the ones the preset holds."""
    target = scenario.scenario_preset(preset)
    for base in scenario.preset_names():
        config, sweep = scenario.build_scenario({**read_back(target), "preset": base})
        assert sweep is None
        assert_same(config, target)


positive = st.floats(1e-3, 1e3)
nonnegative = st.floats(0.0, 1e3)
vectors = st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3)
# values each key accepts on every preset, the other keys unchanged: a
# number in the key's range, or for these keys one of these values
VALID = {
    key: nonnegative if bound == NONNEGATIVE else positive
    for key, (_, bound, _) in scenario.FIELDS.items()
    if key[0] != "sweep" and key != ("trigger", "preset")
}
VALID |= {
    ("scenario", "duration_s"): positive,
    ("scenario", "seed"): st.integers(0, 2**63),
    ("scenario", "plant_model"): st.sampled_from(["full", "payload_only"]),
    # divisors of the 50 ms NMPC period
    ("scenario", "dt_lowlevel_s"): st.sampled_from([0.001, 0.0025, 0.005, 0.01, 0.025, 0.05]),
    ("scenario", "initial_offset_m"): vectors,
    ("reference", "kind"): st.sampled_from(["circle", "hover"]),
    ("reference", "radius_m"): positive,
    ("reference", "period_s"): positive,
    ("reference", "height_m"): st.floats(-10.0, 10.0),
    ("reference", "position_m"): vectors,
    ("trigger", "sigma"): st.integers(1, 20),
    ("trigger", "terminal_epsilon"): st.none() | positive,
    ("nmpc", "horizon"): st.integers(2, 60),
    # multiples of the 2 ms low-level step
    ("nmpc", "dt_s"): st.sampled_from([0.002, 0.01, 0.02, 0.04, 0.1, 0.2]),
    ("solver", "max_sqp_iters"): st.integers(1, 100),
    ("obstacle", "center_m"): vectors,
}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    preset=st.sampled_from(scenario.preset_names()),
    override=st.sampled_from(sorted(VALID)).flatmap(lambda k: st.tuples(st.just(k), VALID[k])),
)
def test_overriding_one_key_changes_that_field_and_no_other(preset, override):
    (section, key), value = override
    data = read_back(scenario.scenario_preset(preset))
    data["obstacle"] = dict(OBSTACLE)
    base, _ = scenario.build_scenario(data)
    assert read_back(base) == data
    data[section][key] = value
    config, _ = scenario.build_scenario(data)
    assert read_back(config) == data


def _bad_values(kind, bound):
    """Values of the wrong type, non-finite values and out-of-range values for
    a key of this kind and range."""
    numbers = ["abc", True, [1.0], {"a": 1.0}]
    if kind is str:
        return st.sampled_from([3, 1.5, True, ["full"], {"a": 1}])
    if kind is VECTOR:
        bad = [1.0, "abc", [1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [1.0, "a", 2.0], [math.nan, 0.0, 0.0]]
        return st.sampled_from(bad + [[math.inf, 0.0, 0.0]])
    if kind is list:
        bad = [1.0, "abc", [1.0, "a"], [math.nan], [-math.inf]]
        return st.sampled_from(bad + [[-1.0] if bound == NONNEGATIVE else [0.0]])
    bad = st.sampled_from(numbers + [math.nan, math.inf, -math.inf])
    if kind is int:
        bad = bad | st.sampled_from([2.5, 1e-3])
    if bound == POSITIVE:
        bad = bad | st.integers(max_value=0) | st.floats(max_value=0.0, allow_nan=False)
    elif bound == NONNEGATIVE:
        bad = bad | st.integers(max_value=-1) | st.floats(max_value=-1e-9, allow_nan=False)
    return bad


malformed = st.one_of(
    st.sampled_from(sorted(scenario.FIELDS)).flatmap(
        lambda key: st.tuples(*map(st.just, key), _bad_values(*scenario.FIELDS[key][:2]))
    ),
    st.tuples(st.sampled_from([None, *scenario.SECTIONS]), st.just("not_a_key"), st.just(1.0)),
    st.tuples(
        st.sampled_from([None, "trigger"]),
        st.just("preset"),
        st.sampled_from([["hover"], {"name": "hover"}, 3, "no-such-preset"]),
    ),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=malformed)
@example(case=("scenario", "seed", -3))
@example(case=("nmpc", "horizon", 1))
@example(case=(None, "preset", ["hover"]))
@example(case=(None, "preset", {"name": "hover"}))
@example(case=("trigger", "preset", ["tight"]))
@example(case=("trigger", "preset", {"name": "tight"}))
@example(case=("weights", "position", -1.0))
@example(case=("gains", "attitude", -1.0))
def test_malformed_value_exits_two_and_names_the_key(case):
    section, key, value = case
    data = {"schema_version": 1, "preset": "hover-nominal"}
    if section is None:
        data[key] = value
    else:
        data[section] = {key: value}
    err = io.StringIO()
    never = mock.Mock(side_effect=AssertionError("simulated a malformed scenario"))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(harness, "run_closed_loop", never):
        path = Path(tmp) / "scenario.yaml"
        path.write_text(yaml.safe_dump(data))
        with contextlib.redirect_stderr(err):
            code = cli.main(["run", "--config", str(path), "--out-dir", str(Path(tmp) / "out")])
    assert code == 2
    assert err.getvalue().startswith("config error:")
    assert repr(key) in err.getvalue()


# around each end of the ranges CostWeights and GainSet accept
EDGE_VALUES = [-1.0, -1e-13, 0.0, 5e-324, 1e-300, 1.0]


def _accepts(build) -> bool:
    try:
        build()
    except ValueError:  # payload_ocp.ConfigError is one
        return False
    return True


def _builds_or_names(data: dict, key: str, accepted: bool):
    if accepted:
        scenario.build_scenario(data)
    else:
        with pytest.raises(scenario.ConfigError) as err:
            scenario.build_scenario(data)
        assert repr(key) in str(err.value)


@pytest.mark.parametrize("value", [*EDGE_VALUES, math.nan, math.inf])
@pytest.mark.parametrize("key", sorted(scenario.SECTIONS["weights"]))
def test_a_weight_is_refused_exactly_when_cost_weights_refuses_it(key, value):
    """A weight outside README's range (force and moment nonnegative, the
    state blocks and the terminal scale positive) or outside what
    CostWeights takes is a config error naming the key, and every other
    weight builds."""
    in_range = value >= 0.0 if key in ("force", "moment") else value > 0.0
    accepted = _accepts(lambda: CostWeights(**{key: value}))
    assert accepted == (in_range and math.isfinite(value))
    if not accepted:
        with pytest.raises(ValueError, match=key):
            CostWeights(**{key: value})
    data = {"schema_version": 1, "preset": "hover", "weights": {key: value}}
    _builds_or_names(data, key, accepted)


@pytest.mark.parametrize("value", [*EDGE_VALUES, math.nan, math.inf])
@pytest.mark.parametrize("key", sorted(scenario.SECTIONS["gains"]))
def test_a_gain_is_refused_exactly_when_gain_set_refuses_it(key, value):
    attr = scenario.FIELDS["gains", key][2].split(".")[1]
    accepted = _accepts(lambda: GainSet(**{attr: value}))
    if not accepted:
        with pytest.raises(ValueError, match=attr):
            GainSet(**{attr: value})
    _builds_or_names({"schema_version": 1, "preset": "hover", "gains": {key: value}}, key, accepted)


def test_readme_example_parses_and_names_exactly_the_table_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    files = readme[readme.index("## Scenario files") :]
    data = yaml.safe_load(re.search(r"```yaml\n(.*?)```", files, re.S).group(1))
    config, sweep = scenario.build_scenario(data)
    assert config.name == data["name"]
    assert config.ocp.weights == CostWeights()
    assert config.gains == GainSet()
    assert sweep == (data["sweep"]["alphas"], data["sweep"]["betas"])
    assert set(data) == {"schema_version", "preset", "name", *scenario.SECTIONS}
    for name, keys in scenario.SECTIONS.items():
        assert set(data[name]) == keys, name


@pytest.mark.parametrize("preset", scenario.preset_names())
def test_every_preset_runs_the_tuned_weights_and_gains(preset):
    """The tuning has one home, the defaults of CostWeights and GainSet,
    whose fields are the scenario file's weights and gains."""
    config = scenario.scenario_preset(preset)
    assert config.ocp.weights == CostWeights()
    assert config.gains == GainSet()
    weights = [f.name for f in dataclasses.fields(CostWeights)]
    assert weights == [key for section, key in scenario.FIELDS if section == "weights"]


def test_the_payload_model_has_one_home():
    """The solver settings name no field of the rig: the payload model the
    solver predicts with can only be the one the plant integrates."""
    settings = {f.name for f in dataclasses.fields(payload_ocp.OcpConfig)}
    rig = {f.name for f in dataclasses.fields(plant.SystemParams)}
    assert settings == {
        "weights", "N", "dt", "obstacle_center", "obstacle_clearance",
        "funnel_radius", "funnel_weight",
    }
    assert not settings & rig
