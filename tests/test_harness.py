"""Scenario harness tests: references, presets, closed-loop runs, files.

Expected numbers were worked out independently before being frozen here:
circle kinematics from the closed-form parametrization, spring stretch from
force balance, aggregate statistics by hand on two-tick logs.
"""

import dataclasses
import math
import os
import sys
from unittest import mock

import numpy as np
import pytest

from cablelift import (
    allocation, cable_control, event_trigger, harness, metrics, payload_ocp, plant, scenario, so3,
    sqp,
)
from cablelift.harness import (
    ConfigError,
    EmptyLog,
    ReferenceSpec,
    RunLog,
    ScenarioConfig,
    TriggerEvent,
)

TWO_PI_OVER_15 = 2.0 * math.pi / 15.0


def hover_state(p=(0.0, 0.0, 1.0)):
    """Level state row [p, v, q, omega] at rest at p."""
    return np.concatenate([p, np.zeros(3), so3.quat_identity(), np.zeros(3)]).astype(float)


# ---------------------------------------------------------------------------
# references


def circle_at(t, radius=1.0, period=15.0, height=0.5):
    """(x_ref, u_ref) on the circle of the given geometry at time t."""
    spec = ReferenceSpec(kind="circle", radius=radius, period=period, height=height)
    return spec.at(t, m_L=0.232, g=9.81)


def hover_at(p):
    return ReferenceSpec(kind="hover", position=p).at(0.0, m_L=0.232, g=9.81)


class TestCircleReference:
    def test_start_point(self):
        ref, _ = circle_at(0.0)
        np.testing.assert_allclose(ref[0:3], [1.0, 0.0, 0.5], atol=1e-15)
        np.testing.assert_allclose(ref[3:6], [0.0, TWO_PI_OVER_15, 0.0], atol=1e-15)

    def test_quarter_period(self):
        ref, _ = circle_at(3.75)
        np.testing.assert_allclose(ref[0:3], [0.0, 1.0, 0.5], atol=1e-12)
        np.testing.assert_allclose(ref[3:6], [-TWO_PI_OVER_15, 0.0, 0.0], atol=1e-12)

    def test_speed_is_constant(self):
        # |v| = 2 pi r / T everywhere on the loop
        for t in (0.0, 1.3, 7.2, 14.9):
            ref, _ = circle_at(t)
            assert abs(np.linalg.norm(ref[3:6]) - 0.41887902047863906) < 1e-12

    def test_periodic(self):
        a, _ = circle_at(2.0)
        b, _ = circle_at(17.0)
        np.testing.assert_allclose(a[0:3], b[0:3], atol=1e-9)
        np.testing.assert_allclose(a[3:6], b[3:6], atol=1e-9)

    def test_feedforward_is_hover_wrench(self):
        ref, u_ref = circle_at(4.0)
        np.testing.assert_allclose(u_ref[0:3], [0.0, 0.0, 0.232 * 9.81])
        np.testing.assert_allclose(u_ref[3:6], np.zeros(3))
        np.testing.assert_allclose(ref[6:10], so3.quat_identity())
        np.testing.assert_allclose(ref[10:13], np.zeros(3))

    def test_nonpositive_period_rejected(self):
        for period in (0.0, -15.0):
            with pytest.raises(ConfigError, match="period_s"):
                circle_at(0.0, period=period)


class TestHoverReference:
    def test_fields(self):
        ref, u_ref = hover_at(np.array([0.1, -0.2, 1.0]))
        np.testing.assert_allclose(ref[0:3], [0.1, -0.2, 1.0])
        assert np.all(ref[3:6] == 0.0) and np.all(ref[10:13] == 0.0)
        np.testing.assert_allclose(u_ref[0:3], [0.0, 0.0, 0.232 * 9.81])

    def test_position_copied(self):
        p = np.array([0.0, 0.0, 1.0])
        ref, _ = hover_at(p)
        p[0] = 99.0
        assert ref[0] == 0.0


class TestReferenceSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            ReferenceSpec(kind="lemniscate")

    def test_bad_circle_geometry_rejected(self):
        with pytest.raises(ConfigError):
            ReferenceSpec(kind="circle", radius=-1.0)
        with pytest.raises(ConfigError):
            ReferenceSpec(kind="circle", period=0.0)
        for bad in ({"radius": np.nan}, {"period": np.nan}, {"radius": np.inf}):
            with pytest.raises(ConfigError):
                ReferenceSpec(kind="circle", **bad)

    def test_dispatch(self):
        circle = ReferenceSpec(kind="circle", radius=2.0, period=10.0, height=0.7)
        ref, _ = circle.at(0.0, m_L=0.232, g=9.81)
        np.testing.assert_allclose(ref[0:3], [2.0, 0.0, 0.7])
        hover = ReferenceSpec(kind="hover", position=np.array([0.0, 0.0, 1.5]))
        ref, _ = hover.at(123.0, m_L=0.232, g=9.81)
        np.testing.assert_allclose(ref[0:3], [0.0, 0.0, 1.5])
        assert np.all(ref[3:6] == 0.0)


# ---------------------------------------------------------------------------
# scenario configuration


class TestDefaultSystem:
    def test_square_rig(self):
        params = plant.SystemParams()
        assert params.n == 4
        np.testing.assert_allclose(params.l_i, 1.0)
        # 0.6 m sides
        assert abs(np.linalg.norm(params.r_i[0] - params.r_i[1]) - 0.6) < 1e-12
        assert params.m_L == 0.232


class TestScenarioConfig:
    def test_defaults_resolve(self):
        config = ScenarioConfig()
        assert config.ocp.weights is not None
        assert config.ocp.N == 20

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(duration=0.0)

    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    def test_nonfinite_duration_rejected(self, duration):
        with pytest.raises(ConfigError, match="duration"):
            ScenarioConfig(duration=duration)

    @pytest.mark.parametrize("dt", [-0.002, 0.0, math.nan, math.inf])
    def test_low_level_step_must_be_positive_and_finite(self, dt):
        # -0.002 divides the NMPC period (ratio -25), so only this check stops it
        with pytest.raises(ConfigError, match="low-level step"):
            ScenarioConfig(dt_lowlevel=dt)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ConfigError, match="'seed'"):
            ScenarioConfig(seed=seed)

    @pytest.mark.parametrize("N, sigma", [(1, 1), (1, 2), (2, 3), (4, 5)])
    def test_horizon_below_two_or_sigma_rejected(self, N, sigma):
        base = ScenarioConfig()
        with pytest.raises(ConfigError, match="'horizon'"):
            dataclasses.replace(
                base,
                ocp=dataclasses.replace(base.ocp, N=N),
                trigger=dataclasses.replace(base.trigger, sigma=sigma),
            )

    def test_unknown_plant_model_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(plant_model="hybrid")

    def test_nmpc_period_must_divide(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(dt_lowlevel=0.003)

    def test_nmpc_period_below_half_the_low_level_step_rejected(self):
        # the ratio 5e-10 lies within the multiple check's 1e-9 of its rounding, 0
        base = ScenarioConfig()
        with pytest.raises(ConfigError, match="'dt_s'"):
            dataclasses.replace(base, ocp=dataclasses.replace(base.ocp, dt=1e-12))

    def test_terminal_epsilon_none_allowed(self):
        config = ScenarioConfig(terminal_epsilon=None)
        assert config.terminal_epsilon is None

    def test_terminal_epsilon_sign_checked(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(terminal_epsilon=-0.1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("terminal_epsilon", float("nan")),
            ("terminal_epsilon", float("inf")),
            ("disturbance_eta", float("nan")),
            ("disturbance_eta", float("inf")),
            ("disturbance_eta", -1.0),
        ],
    )
    def test_non_finite_or_negative_value_names_its_key(self, field, value):
        # the scenario-file key of each field
        key = {"terminal_epsilon": "terminal_epsilon", "disturbance_eta": "eta"}[field]
        with pytest.raises(ConfigError, match=repr(key)):
            ScenarioConfig(**{field: value})

    def test_tick_step_follows_plant_model(self):
        assert ScenarioConfig(plant_model="full").dt_tick == 0.002
        assert ScenarioConfig(plant_model="payload_only").dt_tick == 0.05


class TestEquilibriumState:
    def test_hover_geometry(self):
        config = harness.scenario_preset("hover")
        Y = harness.equilibrium_state(config)
        assert Y.shape == (5, 13)
        np.testing.assert_allclose(Y[0, 0:3], [0.0, 0.0, 1.0])
        assert np.all(Y[0, 3:6] == 0.0)
        # each vehicle parks one cable length plus the hover spring stretch
        # above its attachment: f = m_L g / 4, stretch = f / k
        stretch = 0.232 * 9.81 / 4.0 / config.params.cable_stiffness
        assert abs(stretch - 0.000113796) < 1e-9
        for k in range(4):
            expect = Y[0, 0:3] + config.params.r_i[k] + [0.0, 0.0, 1.0 + stretch]
            np.testing.assert_allclose(Y[1 + k, 0:3], expect, atol=1e-12)
            assert np.all(Y[1 + k, 3:6] == 0.0)

    def test_moving_reference_velocity_matched(self):
        """A circle start must not open with a velocity-error step."""
        config = harness.scenario_preset("circle-medium")
        Y = harness.equilibrium_state(config)
        np.testing.assert_allclose(Y[0, 3:6], [0.0, TWO_PI_OVER_15, 0.0], atol=1e-15)
        for row in Y[1:]:
            np.testing.assert_allclose(row[3:6], Y[0, 3:6])

    def test_initial_offset_shifts_formation(self):
        config = harness.scenario_preset("hover-recovery")
        Y = harness.equilibrium_state(config)
        np.testing.assert_allclose(Y[0, 0:3], [0.3, 0.0, 1.0])
        np.testing.assert_allclose(Y[1, 0:2], [0.3 + 0.3, 0.3])


class TestPresets:
    def test_names(self):
        assert harness.preset_names() == [
            "circle",
            "circle-loose",
            "circle-medium",
            "circle-tight",
            "hover",
            "hover-nominal",
            "hover-recovery",
        ]

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            harness.scenario_preset("figure-eight")

    def test_trigger_conditions_ordered_loose_to_tight(self):
        presets = harness.TRIGGER_PRESETS
        alphas = [presets[name][0] for name in ("loose", "medium", "tight")]
        betas = [presets[name][1] for name in ("loose", "medium", "tight")]
        assert alphas == sorted(alphas, reverse=True)
        assert betas == sorted(betas, reverse=True)

    def test_condition_aliases(self):
        presets = harness.TRIGGER_PRESETS
        assert presets["condition1"] == presets["loose"]
        assert presets["condition2"] == presets["medium"]
        assert presets["condition3"] == presets["tight"]

    def test_circle_presets_share_everything_but_the_trigger(self):
        loose = harness.scenario_preset("circle-loose")
        tight = harness.scenario_preset("circle-tight")
        assert loose.seed == tight.seed
        assert loose.duration == tight.duration == 15.0
        assert loose.disturbance_eta == tight.disturbance_eta
        assert loose.terminal_epsilon is None and tight.terminal_epsilon is None
        assert (loose.trigger.alpha, loose.trigger.beta) == (0.20, 0.10)
        assert (tight.trigger.alpha, tight.trigger.beta) == (0.02, 0.01)

    def test_circle_is_circle_medium(self):
        assert harness.scenario_preset("circle").trigger.alpha == 0.10

    def test_hover_presets(self):
        assert harness.scenario_preset("hover").plant_model == "full"
        assert harness.scenario_preset("hover-nominal").plant_model == "payload_only"
        recovery = harness.scenario_preset("hover-recovery")
        assert recovery.plant_model == "payload_only"
        np.testing.assert_allclose(recovery.initial_offset, [0.3, 0.0, 0.0])

    def test_presets_return_fresh_objects(self):
        a = harness.scenario_preset("hover")
        a.duration = 1.0
        assert harness.scenario_preset("hover").duration == 10.0


# ---------------------------------------------------------------------------
# trigger loop wiring


def trigger_loop(config):
    return harness._TriggerLoop(config, allocation.build_allocation(config.params.r_i))


def solved_problems(monkeypatch):
    """The problems sqp.solve is given from now on, in order."""
    problems, solve = [], sqp.solve

    def spied(problem, *args, **kwargs):
        problems.append(problem)
        return solve(problem, *args, **kwargs)
    monkeypatch.setattr(sqp, "solve", spied)
    return problems


class TestTriggerLoop:
    def test_initial_solve_is_forced_full_horizon(self):
        config = harness.scenario_preset("hover-nominal")
        loop = trigger_loop(config)
        decision, wrench, idx = loop.step(0, 0.0, hover_state())
        assert decision == "forced"
        assert idx == 0
        assert loop.state.N_kj == config.ocp.N
        np.testing.assert_array_equal(wrench, loop.state.predicted.U[0])
        # the solve's per-pass records stay on its event, one per SQP pass
        (event,) = loop.events
        assert len(event.trace) == event.iterations >= 1

    def test_open_loop_replay_between_triggers(self, monkeypatch):
        """Held plan: the wrench at step k is exactly U[k - k_j]."""
        config = harness.scenario_preset("hover-nominal")
        loop, problems = trigger_loop(config), solved_problems(monkeypatch)
        x = hover_state()
        for k in range(6):
            decision, wrench, idx = loop.step(k, k * config.ocp.dt, x)
            assert idx == k
            if k > 0:
                assert decision == "none"
            np.testing.assert_array_equal(wrench, loop.state.predicted.U[idx])
            x = payload_ocp.discretize(x, wrench, config.ocp.dt, problems[-1])

    @pytest.mark.parametrize("preset", ["circle", "hover"])
    @pytest.mark.parametrize("k", [0, 147])
    def test_reference_window_is_the_per_stage_rows(self, preset, k, monkeypatch):
        """The solve's N + 1 reference rows, read in one reference_at call on
        the stage times, are bitwise the rows read one stage at a time."""
        config = harness.scenario_preset(preset)
        dt = config.ocp.dt
        t = k * dt
        loop, problems = trigger_loop(config), solved_problems(monkeypatch)
        loop.step(k, t, config.reference_at(t)[0])
        rows = [config.reference_at(t + i * dt) for i in range(config.ocp.N + 1)]
        (problem,) = problems
        assert np.array_equal(problem.ref_x, np.array([x for x, _ in rows]))
        assert np.array_equal(problem.ref_u, np.array([u for _, u in rows]))

    def test_no_terminal_region_means_no_shrink_source(self):
        config = dataclasses.replace(
            harness.scenario_preset("hover-nominal"), terminal_epsilon=None
        )
        loop = trigger_loop(config)
        assert loop.region is None

    @pytest.mark.parametrize("preset, duration, kind", [
        ("circle-tight", 1.0, "event"), ("hover-nominal", 1.5, "forced"),
    ])
    def test_each_replan_records_the_prediction_error_its_trigger_read(
        self, preset, duration, kind
    ):
        """prediction_error is local_coords(predicted X[m_k], x_now): at an
        event, the deviation should_trigger compared; at a forced replan,
        m_k is the previous horizon, the prediction's last row."""
        trigger, coords = event_trigger.should_trigger, payload_ocp.local_coords
        calls, read, inside = {}, {}, []

        def spied_coords(base, Y):
            out = coords(base, Y)
            if inside:
                read[inside[-1]] = out
            return out

        def spied_trigger(k, current, state, config):
            calls[k] = (current, state)
            inside.append(k)
            try:
                return trigger(k, current, state, config)
            finally:
                inside.pop()

        config = dataclasses.replace(harness.scenario_preset(preset), duration=duration)
        with mock.patch.object(event_trigger, "should_trigger", spied_trigger), \
                mock.patch.object(payload_ocp, "local_coords", spied_coords):
            log = harness.run_closed_loop(config)
        assert log.events[0].prediction_error is None
        assert any(e.kind == kind for e in log.events[1:])
        for prev, e in zip(log.events, log.events[1:]):
            assert e.prediction_error.shape == (payload_ocp.NX,)
            if e.kind == "event":
                deviation = float(np.linalg.norm(read[e.k]))
                assert float(np.linalg.norm(e.prediction_error)) == deviation
            else:
                current, state = calls[e.k]
                assert e.m_k == prev.horizon == state.N_kj
                expected = coords(state.predicted.X[e.m_k], current)
                assert np.array_equal(e.prediction_error, expected)


    def test_each_replan_reads_the_stage_errors_its_solves_returned(self, monkeypatch):
        """A solve's errors give its outside_terminal (row 0) and the next
        replan's terminal-entry index N_hat.  Recomputed by one-row
        state_error calls, of the measured state against the window's first
        reference row and of the previous prediction against its reference
        rows, every one matches what the loop used.  4.5 s takes the loop
        into the terminal region and the horizon down to 2."""
        config = dataclasses.replace(harness.scenario_preset("hover-recovery"), duration=4.5)
        solves, entries = [], []
        solve, first_entry = sqp.solve, event_trigger.first_entry_index

        def spied_solve(problem, *args, **kwargs):
            solves.append((problem, solve(problem, *args, **kwargs)))
            return solves[-1][1]

        def spied_entry(errors, region):
            entries.append(first_entry(errors, region))
            return entries[-1]
        monkeypatch.setattr(sqp, "solve", spied_solve)
        monkeypatch.setattr(event_trigger, "first_entry_index", spied_entry)
        log = harness.run_closed_loop(config)
        region = event_trigger.TerminalRegion(config.terminal_epsilon, config.ocp.weights.Q_XN)
        assert len(solves) == len(log.events) == len(entries) + 1 and not log.failed_solves
        error = payload_ocp.state_error
        outside = [not region.contains(error(p.x0, p.ref_x[0])) for p, _ in solves]
        assert [e.outside_terminal for e in log.events] == outside
        assert True in outside and False in outside
        for (problem, solution), N_hat in zip(solves, entries):
            inside = [region.contains(error(x, r)) for x, r in zip(solution.X, problem.ref_x)]
            assert N_hat == next((i for i in range(problem.N) if inside[i]), None)
        assert any(N_hat is None for N_hat in entries)
        assert any(N_hat is not None for N_hat in entries)


# ---------------------------------------------------------------------------
# closed-loop runs, nominal prediction plant


class TestRunPayloadOnly:
    def test_tick_count_and_timestamps(self):
        config = dataclasses.replace(harness.scenario_preset("hover-nominal"), duration=0.5)
        log = harness.run_closed_loop(config)
        assert len(log.ticks) == 10
        np.testing.assert_allclose([r.t for r in log.ticks], 0.05 * np.arange(10))

    def test_zero_disturbance_only_forced_triggers(self):
        config = dataclasses.replace(harness.scenario_preset("hover-nominal"), duration=3.0)
        log = harness.run_closed_loop(config)
        assert log.nmpc_executions >= 1
        assert all(e.kind == "forced" for e in log.events)
        assert sum(1 for e in log.events if e.kind == "event") == 0

    def test_forced_trigger_fires_at_horizon_end(self):
        # every forced replan after the first happens exactly when the held
        # plan runs out of stages
        config = dataclasses.replace(harness.scenario_preset("hover-nominal"), duration=3.0)
        log = harness.run_closed_loop(config)
        for prev, event in zip(log.events, log.events[1:]):
            assert event.m_k == prev.horizon

    def test_nominal_hover_stays_put(self):
        config = dataclasses.replace(harness.scenario_preset("hover-nominal"), duration=2.0)
        log = harness.run_closed_loop(config)
        assert max(r.payload_err for r in log.ticks) < 1e-6

    def test_pred_index_resets_at_events_and_counts_up(self):
        config = dataclasses.replace(harness.scenario_preset("hover-recovery"), duration=2.0)
        log = harness.run_closed_loop(config)
        for prev, tick in zip(log.ticks, log.ticks[1:]):
            if tick.decision in ("forced", "event"):
                assert tick.pred_index == 0
            else:
                assert tick.pred_index == prev.pred_index + 1

    def test_decisions_from_known_vocabulary(self):
        config = dataclasses.replace(harness.scenario_preset("hover-recovery"), duration=2.0)
        log = harness.run_closed_loop(config)
        assert {r.decision for r in log.ticks} <= {"forced", "event", "event-failed", "none"}

    def test_invariant_counters_zero(self):
        config = dataclasses.replace(harness.scenario_preset("hover-nominal"), duration=3.0)
        log = harness.run_closed_loop(config)
        assert harness.invariant_counters(log) == {"m_bounds": 0, "horizon_chain": 0}

    def test_funnel_radius_reaches_the_solver_and_the_run_bound(self):
        config, _ = harness.build_scenario(
            {
                "schema_version": 1,
                "preset": "hover-nominal",
                "scenario": {"duration_s": 0.1},
                "nmpc": {"funnel_epsilon_m": 0.35},
            }
        )
        assert config.ocp.funnel_radius == 0.35
        log = harness.run_closed_loop(config)
        np.testing.assert_array_equal(log.constraints["payload_funnel"], 0.35 - log.payload_err)

    def test_obstacle_in_constraint_report(self):
        config, _ = harness.build_scenario(
            {
                "schema_version": 1,
                "preset": "hover-nominal",
                "scenario": {"duration_s": 0.1},
                "obstacle": {"center_m": [2.0, 0.0, 1.0], "clearance_m": 0.3},
            }
        )
        log = harness.run_closed_loop(config)
        assert log.constraints["obstacle"][0] == pytest.approx(2.0 - 0.3)

    def test_moving_reference_starts_at_reference_velocity(self, tmp_path):
        config = dataclasses.replace(
            harness.scenario_preset("circle-medium"), plant_model="payload_only", duration=0.1
        )
        log = harness.run_closed_loop(config)
        path = tmp_path / "run.csv"
        harness.emit_csv(log, path)
        header, first = path.read_text().splitlines()[:2]
        row = dict(zip(header.split(","), first.split(",")))
        assert float(row["vx_mps"]) == 0.0
        assert float(row["vy_mps"]) == pytest.approx(TWO_PI_OVER_15, abs=1e-15)
        assert float(row["vz_mps"]) == 0.0

    def test_disturbed_run_reproducible(self):
        config = dataclasses.replace(
            harness.scenario_preset("hover-recovery"),
            duration=1.0,
            disturbance_eta=1e-3,
        )
        first = harness.run_closed_loop(config)
        second = harness.run_closed_loop(config)
        for a, b in zip(first.ticks, second.ticks):
            np.testing.assert_array_equal(a.payload[0:3], b.payload[0:3])
            np.testing.assert_array_equal(a.wrench, b.wrench)


def payload_only_split(config, y, wrench):
    """The payload-only model's earlier numpy split of the wrench, kept as
    the reference: (tensions, directions, vehicle positions)."""
    params, x = config.params, np.array(y[0:13])
    amap = allocation.build_allocation(params.r_i)
    R_L = so3.quat_to_rotation(x[6:10])
    target = np.concatenate([R_L.T @ wrench[0:3], wrench[3:6]])
    mu = (amap.P_pinv @ target).reshape(params.n, 3) @ R_L.T
    tensions = np.linalg.norm(mu, axis=1)
    directions = np.where(tensions[:, None] > 1e-12, -mu / np.maximum(tensions, 1e-12)[:, None], 0.0)
    attachments = x[0:3] + (R_L @ params.r_i.T).T
    mav_p = attachments + params.l_i * np.where(
        tensions[:, None] > 1e-12, mu / np.maximum(tensions, 1e-12)[:, None], [[0.0, 0.0, 1.0]]
    )
    return tensions, directions, mav_p


class TestPayloadOnlyRealize:
    def model(self):
        config = harness.scenario_preset("hover-recovery")
        return config, harness._PayloadOnly(config, allocation.build_allocation(config.params.r_i))

    def test_matches_the_numpy_split(self):
        config, model = self.model()
        rng = np.random.default_rng(31)
        for _ in range(200):
            q = rng.standard_normal(4)
            y = hover_state(rng.uniform(-2.0, 2.0, 3))
            y[6:10] = q / np.linalg.norm(q)
            wrench = rng.uniform(-5.0, 5.0, 6)
            wrench[2] += config.params.m_L * config.params.g
            got = model.tick(y.tolist(), wrench.tolist(), True)
            for value, expected in zip(got[:3], payload_only_split(config, y, wrench)):
                np.testing.assert_allclose(value, expected, rtol=0.0, atol=1e-12)
            step = plant.step_payload(y.tolist(), wrench.tolist(), config.ocp.dt, config.params)
            assert got[3] == step

    def test_zero_wrench_hangs_the_vehicles_above_their_attachments(self):
        config, model = self.model()
        params = config.params
        y = hover_state((0.3, -0.2, 1.0))
        y[6:10] = [math.cos(0.2), 0.0, 0.0, math.sin(0.2)]  # yawed 0.4 rad
        tensions, directions, mav_p, _ = model.tick(y.tolist(), [0.0] * 6, True)
        assert tensions == [0.0] * params.n
        assert directions == [(0.0, 0.0, 0.0)] * params.n
        attachments = y[0:3] + params.r_i @ so3.quat_to_rotation(y[6:10]).T
        expected = attachments + params.l_i * np.array([0.0, 0.0, 1.0])
        np.testing.assert_allclose(mav_p, expected, rtol=0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# closed-loop runs, full plant (short smokes; the long runs live in the
# acceptance suite)


class TestRunFull:
    def test_circle_smoke(self):
        config = dataclasses.replace(harness.scenario_preset("circle-medium"), duration=0.6)
        log = harness.run_closed_loop(config)
        assert len(log.ticks) == 300  # 0.6 s at 2 ms
        assert log.nmpc_executions >= 1
        assert max(r.payload_err for r in log.ticks) < 0.1
        assert min(r.min_sep for r in log.ticks) > 0.5
        assert max(r.max_sep for r in log.ticks) < 0.95
        for r in log.ticks:
            assert np.all(np.isfinite(r.wrench))
            assert np.all(r.tensions >= 0.0)

    def test_hover_smoke_no_drift(self):
        config = dataclasses.replace(harness.scenario_preset("hover"), duration=0.5)
        log = harness.run_closed_loop(config)
        assert max(r.payload_err for r in log.ticks) < 1e-3

    def test_one_cable_closure_per_tick(self):
        config = dataclasses.replace(harness.scenario_preset("hover"), duration=0.1)
        with mock.patch.object(plant, "cable_closure", wraps=plant.cable_closure) as closure:
            log = harness.run_closed_loop(config)
        assert len(log.ticks) == 50
        assert closure.call_count == len(log.ticks)

    def test_one_tick_takes_eight_rotations_and_four_cable_laws(self):
        """Per full-plant tick: the payload's and four vehicles' rotations,
        then one payload rotation in each Runge-Kutta stage after the first,
        which reuses the tick's cable reading; the cable law once for the
        reading and once per later stage."""
        config = dataclasses.replace(harness.scenario_preset("hover"), duration=0.1)
        with mock.patch.object(plant, "_rotation", wraps=plant._rotation) as rotation, \
                mock.patch.object(plant, "_cable_law", wraps=plant._cable_law) as law:
            log = harness.run_closed_loop(config)
        ticks = len(log.ticks)
        assert ticks == 50
        assert (rotation.call_count, law.call_count) == (8 * ticks, 4 * ticks)


NUMPY_DIR = os.path.dirname(np.__file__) + os.sep


def _from_numpy(fn) -> bool:
    """A C function numpy defines, or a method of a numpy object or module."""
    owner = getattr(fn, "__self__", None)
    names = (getattr(fn, "__module__", None), type(owner).__module__,
             getattr(owner, "__name__", None))
    return any(isinstance(name, str) and name.split(".")[0] == "numpy" for name in names)


def _floats(values):
    """The leaves of nested tuples and lists."""
    for v in values:
        if isinstance(v, (tuple, list)):
            yield from _floats(v)
        else:
            yield v


@pytest.mark.parametrize("preset", ["hover", "circle-medium"])
def test_the_full_plant_tick_stays_on_python_floats(preset):
    """Between solves the full-plant tick runs on Python floats: inside
    `_FullPlant.tick` no call enters numpy, and every thrust, moment,
    tension, direction, vehicle position and next-state entry is exactly a
    float.  A numpy scalar leaking in would keep every byte and only cost
    time, so nothing else would notice."""
    numpy_calls, leaks, calls = [], [], []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(NUMPY_DIR):
            numpy_calls.append(frame.f_code.co_name)
        elif event == "c_call" and _from_numpy(arg):
            numpy_calls.append(repr(arg))

    def watched(method, values):
        def wrapper(*args):
            previous = sys.getprofile()
            sys.setprofile(profile)
            try:
                out = method(*args)
            finally:
                sys.setprofile(previous)
            calls.append(method.__name__)
            leaks.extend(type(v) for v in _floats(values(out)) if type(v) is not float)
            return out
        return wrapper

    full = harness._FullPlant
    config = dataclasses.replace(harness.scenario_preset(preset), duration=0.5)
    with mock.patch.object(full, "tick", watched(full.tick, lambda out: out)), \
            mock.patch.object(plant, "step_world", wraps=plant.step_world) as step:
        log = harness.run_closed_loop(config)
    assert calls.count("tick") == step.call_count == len(log.t) == 250
    # the thrusts and moments each tick stepped the world with
    commands = [call.args[1] for call in step.call_args_list]
    leaks.extend(type(v) for v in _floats(commands) if type(v) is not float)
    assert numpy_calls == []
    assert leaks == []


# the failures a plant model's tick raises, each from one callee called once
# per tick: (preset, module, callee, exception)
TICK_FAILURES = [
    ("hover", plant, "step_world", plant.NonFiniteState),
    ("hover-recovery", plant, "step_payload", plant.NonFiniteState),
    ("hover", plant, "cable_closure", plant.CableOverload),
    ("hover", plant, "cable_closure", plant.DegenerateGeometry),
    ("hover", allocation, "desired_cable_direction", allocation.ZeroTension),
    ("hover", cable_control, "desired_attitude", cable_control.DegenerateThrust),
    ("hover", cable_control, "attitude_errors", cable_control.NotSkew),
]


@pytest.mark.parametrize(
    "preset, module, callee, failure", TICK_FAILURES,
    ids=[f"{case[2]}-{case[3].__name__}" for case in TICK_FAILURES],
)
def test_a_failure_inside_a_tick_aborts_the_run(preset, module, callee, failure):
    """Whichever callee of a tick fails, the run ends as one HarnessAbort
    naming the tick's time and the failure, never as the bare exception."""
    original, calls, solve, solving = getattr(module, callee), [], sqp.solve, []

    def fails_on_the_third_tick(*args):
        if solving:  # only the tick's own calls count, none a solve might make
            return original(*args)
        calls.append(args)
        if len(calls) == 3:
            raise failure("injected")
        return original(*args)

    def marked_solve(*args, **kwargs):
        solving.append(True)
        try:
            return solve(*args, **kwargs)
        finally:
            solving.pop()

    config = dataclasses.replace(harness.scenario_preset(preset), duration=0.5)
    t = 2 * config.dt_tick
    with mock.patch.object(module, callee, fails_on_the_third_tick), \
            mock.patch.object(sqp, "solve", marked_solve), \
            pytest.raises(harness.HarnessAbort, match=rf"t={t:.3f} s: injected") as aborted:
        harness.run_closed_loop(config)
    assert isinstance(aborted.value.__cause__, failure)


# what a solve raises: an inconsistent constraint set, a failed Riccati
# factorization, and the predictor's integrator leaving the floats
SOLVE_FAILURES = [sqp.Infeasible, sqp.QpNumericalFailure, plant.NonFiniteState]


@pytest.mark.parametrize("failure", SOLVE_FAILURES, ids=lambda f: f.__name__)
def test_a_failure_inside_a_solve_aborts_a_forced_trigger_and_skips_an_event(failure):
    """A forced solve that fails ends the run as one HarnessAbort naming the
    tick's time; an event solve that fails is counted, its tick marked
    event-failed, and the held plan played on."""
    config = dataclasses.replace(harness.scenario_preset("hover-nominal"), duration=0.5)

    def fails(*args, **kwargs):
        raise failure("injected")

    with mock.patch.object(sqp, "solve", fails), pytest.raises(
        harness.HarnessAbort, match=r"forced trigger \(t=0\.000 s, step 0\): injected"
    ) as aborted:
        harness.run_closed_loop(config)
    assert isinstance(aborted.value.__cause__, failure)

    original_solve, original_trigger, solves = sqp.solve, event_trigger.should_trigger, []

    def fails_after_the_first(*args, **kwargs):
        solves.append(args)
        if len(solves) > 1:
            raise failure("injected")
        return original_solve(*args, **kwargs)

    def event_at_step_3(k, *args):
        return "event" if k == 3 else original_trigger(k, *args)

    with mock.patch.object(sqp, "solve", fails_after_the_first), \
            mock.patch.object(event_trigger, "should_trigger", event_at_step_3):
        log = harness.run_closed_loop(config)
    assert log.decision.tolist() == ["forced", "none", "none", "event-failed"] + ["none"] * 6
    assert log.solver_failures == 1
    assert log.nmpc_executions == 1
    assert log.pred_index.tolist() == list(range(10))


# the overflow on the way to the non-finite state warns as it happens
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_an_event_solve_whose_rollout_overflows_is_skipped():
    """The solver rolls a replan's shifted plan out from the measured state;
    when that leaves the floats, the solve raises plant.NonFiniteState, and
    an event solve is counted as failed and the held plan played on."""
    config = dataclasses.replace(harness.scenario_preset("hover-nominal"), duration=0.5)
    original_trigger, original_solve, raised = event_trigger.should_trigger, sqp.solve, []

    def event_at_step_3(k, *args):
        return "event" if k == 3 else original_trigger(k, *args)

    def overflowing_plan(previous, elapsed_steps, new_horizon):
        return np.full((new_horizon, 6), 1e300)

    def spied_solve(*args, **kwargs):
        try:
            return original_solve(*args, **kwargs)
        except Exception as exc:
            raised.append(type(exc))
            raise

    with mock.patch.object(event_trigger, "should_trigger", event_at_step_3), \
            mock.patch.object(sqp, "shift_warm_start", overflowing_plan), \
            mock.patch.object(sqp, "solve", spied_solve):
        log = harness.run_closed_loop(config)
    assert raised == [plant.NonFiniteState]
    assert log.decision.tolist() == ["forced", "none", "none", "event-failed"] + ["none"] * 6
    assert log.solver_failures == 1
    assert log.nmpc_executions == 1


def test_a_failed_event_solve_keeps_its_record():
    """An event solve that raises after some passes leaves one FailedSolve:
    its step, time, exception class and message, and the passes it recorded;
    the run goes on and counts it in solver_failures."""
    config = dataclasses.replace(harness.scenario_preset("circle-tight"), duration=1.0)
    original_solve, solves = sqp.solve, []

    def fails_at_the_second_solve(*args, trace=None, **kwargs):
        solves.append(args)
        solution = original_solve(*args, trace=trace, **kwargs)
        if len(solves) == 2:
            raise sqp.QpNumericalFailure("injected")
        return solution

    with mock.patch.object(sqp, "solve", fails_at_the_second_solve):
        log = harness.run_closed_loop(config)
    assert len(log.failed_solves) == log.solver_failures == 1
    failed = log.failed_solves[0]
    (tick,) = np.flatnonzero(log.decision == "event-failed")
    k = tick // round(config.ocp.dt / config.dt_tick)
    assert (failed.k, failed.t) == (k, log.t[tick])
    assert (failed.error, failed.message) == ("QpNumericalFailure", "injected")
    assert failed.trace and all(set(r) == set(log.events[0].trace[0]) for r in failed.trace)
    assert failed.k not in [e.k for e in log.events]
    assert log.nmpc_executions == len(log.events) >= 2


def _float_step_horizon_run(config, horizon, monkeypatch, path):
    """The run of config with sqp.FLOAT_STEP_HORIZON set to horizon, and its
    CSV bytes."""
    monkeypatch.setattr(sqp, "FLOAT_STEP_HORIZON", horizon)
    log = harness.run_closed_loop(config)
    harness.emit_csv(log, path)
    return log, path.read_bytes()


@pytest.mark.parametrize("preset, duration", [("hover-recovery", None), ("circle-medium", 2.0)])
def test_the_float_step_horizon_moves_no_output(preset, duration, monkeypatch, tmp_path):
    """A line-search candidate steps on floats up to FLOAT_STEP_HORIZON stages
    and in numpy above, with the same bits: a run whose candidates all step
    in numpy (0) and one whose candidates all step on floats (64) log the
    same columns, counters, events (but their solve times) and CSV bytes."""
    config = harness.scenario_preset(preset)
    if duration is not None:
        config = dataclasses.replace(config, duration=duration)
    numpy_log, numpy_csv = _float_step_horizon_run(config, 0, monkeypatch, tmp_path / "a.csv")
    float_log, float_csv = _float_step_horizon_run(config, 64, monkeypatch, tmp_path / "b.csv")
    assert numpy_csv == float_csv
    for name in harness._COLUMNS:
        assert getattr(numpy_log, name).tobytes() == getattr(float_log, name).tobytes(), name
    assert numpy_log.constraints.keys() == float_log.constraints.keys()
    for key, margins in numpy_log.constraints.items():
        assert margins.tobytes() == float_log.constraints[key].tobytes(), key
    for name in ("solver_failures", "thrust_clamps", "omega_des_clips", "slack_cable_ticks"):
        assert getattr(numpy_log, name) == getattr(float_log, name), name
    assert numpy_log.nmpc_executions == float_log.nmpc_executions > 1
    for a, b in zip(numpy_log.events + numpy_log.failed_solves,
                    float_log.events + float_log.failed_solves):
        for f in dataclasses.fields(a):
            if f.name != "solve_time":
                u, v = getattr(a, f.name), getattr(b, f.name)
                if isinstance(u, np.ndarray):
                    assert u.tobytes() == v.tobytes(), f.name
                else:  # repr spells every float exactly, signed zeros and NaN included
                    assert repr(u) == repr(v), f.name


class TestClampCounters:
    def test_low_thrust_ceiling_is_counted(self):
        """Below the hover thrust (1.746 N) every vehicle saturates; the count
        reaches the run log and the summary."""
        config, _ = harness.build_scenario(
            {
                "schema_version": 1,
                "preset": "hover",
                "scenario": {"duration_s": 0.1},
                "system": {"thrust_max_N": 1.7},
            }
        )
        log = harness.run_closed_loop(config)
        assert log.thrust_clamps > 0
        assert log.thrust_clamps <= config.params.n * len(log.ticks)
        assert harness.summarize(log)["thrust_clamps"] == log.thrust_clamps

    def test_payload_only_counts_nothing(self):
        log = harness.run_closed_loop(
            dataclasses.replace(harness.scenario_preset("hover-recovery"), duration=0.5)
        )
        summary = harness.summarize(log)
        counts = [summary[k] for k in ("thrust_clamps", "omega_des_clips", "slack_cable_ticks")]
        assert counts == [0, 0, 0]


def _short_hover(duration, **disturbance):
    return dataclasses.replace(harness.scenario_preset("hover"), duration=duration, **disturbance)


class TestDisturbance:
    def test_disturbance_off_is_bit_exact(self):
        # eta 0 draws nothing, so the seed cannot reach the run
        none = harness.run_closed_loop(_short_hover(0.02))
        zero = harness.run_closed_loop(_short_hover(0.02, disturbance_eta=0.0, seed=5))
        for a, b in zip(none.ticks, zero.ticks):
            np.testing.assert_array_equal(a.payload, b.payload)
            np.testing.assert_array_equal(a.mav_p, b.mav_p)

    def test_disturbance_bound(self):
        """The one sample added after the first step moves the payload by at
        most eta from the undisturbed step, in the 12-d tangent."""
        eta = 0.01
        clean = harness.run_closed_loop(_short_hover(0.004)).ticks[1].payload
        noisy = harness.run_closed_loop(_short_hover(0.004, disturbance_eta=eta)).ticks[1].payload
        dp = noisy[0:3] - clean[0:3]
        dv = noisy[3:6] - clean[3:6]
        dw = noisy[10:13] - clean[10:13]
        datt = so3.quat_log(so3.quat_mul(so3.quat_conj(clean[6:10]), noisy[6:10]))
        dev = np.linalg.norm(np.concatenate([dp, dv, datt, dw]))
        assert dev <= eta + 1e-9
        assert dev > 0.0  # the sample actually fired

    def test_payload_only_tick_draws_per_root_tick(self):
        """On the payload-only model's 50 ms tick the one sample may move the
        payload by 5 eta, sqrt(50 ms / 2 ms) times the 2 ms tick's bound."""
        eta = 0.01
        config = dataclasses.replace(harness.scenario_preset("hover-nominal"), duration=0.1)
        clean = harness.run_closed_loop(config).ticks[1].payload
        noisy = harness.run_closed_loop(
            dataclasses.replace(config, disturbance_eta=eta)
        ).ticks[1].payload
        dev = np.linalg.norm(
            np.concatenate([noisy[0:6] - clean[0:6], noisy[10:13] - clean[10:13]])
        )
        assert config.dt_tick == 0.05
        assert eta < dev <= 5.0 * eta * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# summaries


def tiny_report(errs):
    """The constraint margins of hover snapshots offset by errs along x,
    under the default bounds."""
    config = harness.scenario_preset("hover-nominal")
    ref, _ = config.reference_at(0.0)
    p = ref[0:3] + np.outer(errs, [1.0, 0.0, 0.0])
    return metrics.check_all(p, ref[0:3], metrics.default_bounds())


def synthetic_log(errs, min_seps, max_seps):
    config = harness.scenario_preset("hover-nominal")
    T = len(errs)
    log = RunLog(config, T)
    ref, _ = config.reference_at(0.0)
    log.t[:] = 0.05 * np.arange(T)
    log.payload[:] = hover_state()
    # a level formation, each vehicle one cable length above its attachment
    params = config.params
    log.mav_p[:] = ref[0:3] + params.r_i + params.l_i * np.array([0.0, 0.0, 1.0])
    log.reference[:] = ref
    log.tensions[:] = 0.5
    log.directions[:] = [0.0, 0.0, -1.0]
    log.decision[:] = "none"
    log.horizon[:] = 20
    log.pred_index[:] = np.arange(T)
    log.payload_err[:] = errs
    log.min_sep[:] = min_seps
    log.max_sep[:] = max_seps
    log.constraints = tiny_report(errs)
    return log


def synthetic_event(k, kind, m_k, horizon, cost=1.0, status="converged"):
    return TriggerEvent(
        k=k,
        t=0.05 * k,
        kind=kind,
        m_k=m_k,
        horizon=horizon,
        cost=cost,
        kkt_residual=1e-9,
        iterations=3,
        status=status,
        solve_time=0.01,
        outside_terminal=True,
    )


class TestSummarize:
    def test_empty_log_rejected(self):
        with pytest.raises(EmptyLog):
            harness.summarize(RunLog(harness.scenario_preset("hover-nominal")))

    def test_two_tick_statistics(self):
        # rms of 0.3 and 0.4 is sqrt(0.125)
        log = synthetic_log([0.3, 0.4], [0.58, 0.59], [0.85, 0.86])
        summary = harness.summarize(log)
        assert abs(summary["rms_payload_error_m"] - 0.3535533905932738) < 1e-15
        assert summary["max_payload_error_m"] == 0.4
        assert summary["min_separation_m"] == 0.58
        assert summary["max_separation_m"] == 0.86

    def test_final_error_is_the_last_ticks(self):
        """A run that ends far off says so, however small its worst error
        was before the end."""
        summary = harness.summarize(synthetic_log([0.5, 0.2, 0.3], [0.6] * 3, [0.85] * 3))
        assert summary["max_payload_error_m"] == 0.5
        assert summary["final_payload_error_m"] == 0.3

    def test_event_bookkeeping(self):
        log = synthetic_log([0.0], [0.6], [0.85])
        log.events = [
            synthetic_event(0, "forced", None, 20),
            synthetic_event(4, "event", 4, 18),
            synthetic_event(10, "forced", 6, 16),
        ]
        summary = harness.summarize(log)
        assert summary["nmpc_executions"] == 3
        assert summary["event_triggers"] == 1
        assert summary["forced_triggers"] == 2
        assert summary["mean_inter_execution_steps"] == 5.0
        assert summary["horizon_trace"] == [20, 18, 16]

    def test_solver_outcomes_counted(self):
        log = synthetic_log([0.0], [0.6], [0.85])
        log.events = [
            synthetic_event(0, "forced", None, 20),
            synthetic_event(4, "event", 4, 18, status="max_iter"),
            synthetic_event(8, "event", 4, 16, status="stalled"),
            synthetic_event(12, "forced", 4, 14, status="max_iter"),
        ]
        summary = harness.summarize(log)
        assert summary["solves_converged"] == 1
        assert summary["solves_max_iter"] == 2
        assert summary["solves_stalled"] == 1

    def test_qp_outcomes_counted_over_every_pass(self):
        log = synthetic_log([0.0], [0.6], [0.85])
        log.events = [synthetic_event(0, "forced", None, 20), synthetic_event(4, "event", 4, 18)]
        log.events[0].trace = [{"qp_status": "max_iter"}, {"qp_status": "optimal"}]
        log.events[1].trace = [{"qp_status": "max_iter"}]
        summary = harness.summarize(log)
        assert summary["qp_max_iter"] == 2

    def test_funnel_violations_counted(self):
        log = synthetic_log([0.3, 0.1], [0.6, 0.6], [0.85, 0.85])
        # the default payload funnel radius is 0.2, so 0.3 violates it
        assert harness.summarize(log)["funnel_violations"] == 1

    def test_funnel_violations_count_the_csv_error_column(self):
        """The funnel margin is the funnel radius less the payload_err
        column in every bit, so the summary's count is the count of ticks
        whose error is past the radius; a 2 cm funnel puts a short circle
        run on both sides of it."""
        config, _ = harness.build_scenario(
            {
                "schema_version": 1,
                "preset": "circle-medium",
                "scenario": {"duration_s": 1.0},
                "nmpc": {"funnel_epsilon_m": 0.02},
            }
        )
        log = harness.run_closed_loop(config)
        radius = config.ocp.funnel_radius
        np.testing.assert_array_equal(log.constraints["payload_funnel"], radius - log.payload_err)
        outside = int(np.count_nonzero(log.payload_err > radius))
        assert 0 < outside < len(log.t)
        assert harness.summarize(log)["funnel_violations"] == outside


class TestInvariantCounters:
    def test_clean_chain(self):
        log = RunLog(harness.scenario_preset("hover-nominal"))
        log.events = [
            synthetic_event(0, "forced", None, 20),
            synthetic_event(5, "event", 5, 17),
            synthetic_event(9, "event", 4, 15),
        ]
        assert harness.invariant_counters(log) == {"m_bounds": 0, "horizon_chain": 0}

    def test_bad_inter_execution_flagged(self):
        log = RunLog(harness.scenario_preset("hover-nominal"))
        log.events = [
            synthetic_event(0, "forced", None, 20),
            synthetic_event(1, "event", 1, 20),  # below sigma
        ]
        assert harness.invariant_counters(log)["m_bounds"] == 1

    def test_grown_horizon_flagged(self):
        log = RunLog(harness.scenario_preset("hover-nominal"))
        log.events = [
            synthetic_event(0, "forced", None, 18),
            synthetic_event(5, "event", 5, 20),  # horizon grew
        ]
        assert harness.invariant_counters(log)["horizon_chain"] == 1


# ---------------------------------------------------------------------------
# file emission


class TestEmitCsv:
    def test_header_matches_row_width(self, tmp_path):
        config = dataclasses.replace(harness.scenario_preset("hover-nominal"), duration=0.3)
        log = harness.run_closed_loop(config)
        path = tmp_path / "run.csv"
        harness.emit_csv(log, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(log.ticks)
        width = len(lines[0].split(","))
        assert all(len(line.split(",")) == width for line in lines[1:])

    def test_header_names_carry_units_not_wall_clock(self, tmp_path):
        header = harness._csv_header(4)
        assert header[0] == "t_s"
        assert "payload_err_m" in header
        assert "tension0_N" in header
        assert not any("time_ms" in name or "solve_time" in name for name in header)

    def test_empty_log_is_header_only(self, tmp_path):
        log = RunLog(harness.scenario_preset("hover-nominal"))
        path = tmp_path / "empty.csv"
        harness.emit_csv(log, path)
        assert path.read_text() == ",".join(harness._csv_header(4)) + "\n"

    def test_reemission_is_byte_identical(self, tmp_path):
        config = dataclasses.replace(harness.scenario_preset("hover-nominal"), duration=0.3)
        log = harness.run_closed_loop(config)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        harness.emit_csv(log, a)
        harness.emit_csv(log, b)
        assert a.read_bytes() == b.read_bytes()

    def test_identical_seeds_identical_files(self, tmp_path):
        config = dataclasses.replace(
            harness.scenario_preset("hover-recovery"),
            duration=1.0,
            disturbance_eta=1e-3,
            seed=3,
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        harness.emit_csv(harness.run_closed_loop(config), a)
        harness.emit_csv(harness.run_closed_loop(dataclasses.replace(config)), b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_changes_the_file(self, tmp_path):
        base = dataclasses.replace(
            harness.scenario_preset("hover-recovery"),
            duration=1.0,
            disturbance_eta=1e-3,
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        harness.emit_csv(harness.run_closed_loop(dataclasses.replace(base, seed=3)), a)
        harness.emit_csv(harness.run_closed_loop(dataclasses.replace(base, seed=4)), b)
        assert a.read_bytes() != b.read_bytes()


def emit_csv_by_row(log, path):
    """The CSV written tick record by tick record, one float at a time: the
    reference the columnar `harness.emit_csv` is pinned to, byte for byte."""

    def fmt(value):
        return repr(value) if isinstance(value, float) else str(value)

    n = log.config.params.n
    lines = [",".join(harness._csv_header(n))]
    for r in log.ticks:
        row = [fmt(r.t), r.decision, str(r.horizon), str(r.pred_index)]
        row += [fmt(float(v)) for v in r.payload]
        row += [fmt(float(v)) for v in r.reference[0:3]]
        row.append(fmt(r.payload_err))
        row += [fmt(float(v)) for v in r.wrench]
        row += [fmt(float(v)) for v in r.tensions]
        row += [fmt(float(v)) for v in r.directions.reshape(-1)]
        row += [fmt(float(v)) for v in r.mav_p.reshape(-1)]
        row += [fmt(r.min_sep), fmt(r.max_sep), r.solver_status, str(r.solver_iterations)]
        row.append("" if math.isnan(r.cost) else fmt(r.cost))
        lines.append(",".join(row))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _obstacle_circle():
    config, _ = harness.build_scenario(
        {
            "schema_version": 1,
            "preset": "circle-medium",
            "scenario": {"duration_s": 0.5, "plant_model": "payload_only"},
            "obstacle": {"center_m": [3.0, 0.0, 0.5], "clearance_m": 0.3},
        }
    )
    return config


class TestColumnarCsv:
    @pytest.mark.parametrize(
        "make_config",
        [
            pytest.param(lambda: _short_hover(0.1), id="full-plant-hover"),
            pytest.param(_obstacle_circle, id="payload-only-circle-obstacle"),
            pytest.param(
                lambda: dataclasses.replace(
                    harness.scenario_preset("hover-recovery"),
                    duration=1.0,
                    disturbance_eta=1e-3,
                ),
                id="disturbed-recovery",
            ),
            pytest.param(
                lambda: dataclasses.replace(harness.scenario_preset("hover-recovery"), duration=1.5),
                id="replan",
            ),
        ],
    )
    def test_matches_the_row_by_row_file(self, tmp_path, make_config):
        log = harness.run_closed_loop(make_config())
        columns, rows = tmp_path / "columns.csv", tmp_path / "rows.csv"
        harness.emit_csv(log, columns)
        emit_csv_by_row(log, rows)
        assert columns.read_bytes() == rows.read_bytes()

    def test_replan_fills_the_solver_columns(self):
        config = dataclasses.replace(harness.scenario_preset("hover-recovery"), duration=1.5)
        log = harness.run_closed_loop(config)
        assert log.nmpc_executions >= 2
        solves = [r for r in log.ticks if r.solver_status]
        assert len(solves) == log.nmpc_executions
        assert [r.cost for r in solves] == [e.cost for e in log.events]

    def test_obstacle_run_reports_the_obstacle_every_tick(self):
        log = harness.run_closed_loop(_obstacle_circle())
        assert np.all(log.constraints["obstacle"] > 0.0)


def emit_csv_whole_run(log, path):
    """The CSV with every float column of the run joined in one (T, 25 + 7n)
    np.hstack: the reference the block-by-block `harness.emit_csv` is pinned
    to, byte for byte."""
    n, T = log.config.params.n, len(log.t)
    blocks = (log.payload, log.reference[:, 0:3], log.payload_err, log.wrench, log.tensions)
    blocks += (log.directions, log.mav_p, log.min_sep, log.max_sep)
    floats = np.hstack([b.reshape(T, math.prod(b.shape[1:])) for b in blocks])
    solver = [
        [e.status, str(e.iterations), "" if math.isnan(e.cost) else repr(e.cost)]
        for e in log.events
    ]
    solver.append(["", "0", ""])
    ticks = zip(
        log.t.tolist(), log.decision.tolist(), log.horizon.tolist(), log.pred_index.tolist(),
        floats, log.event.tolist(),
    )
    with open(path, "w") as f:
        f.write(",".join(harness._csv_header(n)) + "\n")
        for t, decision, horizon, idx, row, e in ticks:
            fields = [repr(t), decision, str(horizon), str(idx), *map(repr, row.tolist())]
            f.write(",".join(fields + solver[e]) + "\n")


def random_log(T):
    """A log of T ticks of random floats, with solves on its first, middle
    and last ticks (the middle one without a cost)."""
    rng = np.random.default_rng(T)
    log = RunLog(harness.scenario_preset("hover-nominal"), T)
    for name in ("payload", "reference", "wrench", "tensions", "directions", "mav_p"):
        getattr(log, name)[:] = rng.standard_normal(getattr(log, name).shape)
    for name in ("payload_err", "min_sep", "max_sep"):
        getattr(log, name)[:] = rng.uniform(0.0, 2.0, T)
    log.t[:] = 0.002 * np.arange(T)
    log.decision[:] = rng.choice(["", "none", "event", "forced"], T)
    log.horizon[:] = rng.integers(2, 21, T)
    log.pred_index[:] = rng.integers(0, 20, T)
    solved = sorted({0, T // 2, T - 1})
    costs = [float(rng.uniform()), float("nan"), float(rng.uniform())]
    log.events = [synthetic_event(k, "forced", None, 20, cost=c) for k, c in zip(solved, costs)]
    log.event[solved] = np.arange(len(solved))
    return log


class TestCsvBlocks:
    @pytest.mark.parametrize(
        "T", [1, harness.CSV_BLOCK, harness.CSV_BLOCK + 1], ids=["one-tick", "one-block", "block+1"]
    )
    def test_matches_the_whole_run_file(self, tmp_path, T):
        log = random_log(T)
        blocks, whole = tmp_path / "blocks.csv", tmp_path / "whole.csv"
        harness.emit_csv(log, blocks)
        emit_csv_whole_run(log, whole)
        assert blocks.read_bytes() == whole.read_bytes()
        assert len(blocks.read_text().splitlines()) == 1 + T


# the summary file's keys, in order
SUMMARY_KEYS = [
    "nmpc_executions", "event_triggers", "forced_triggers", "rms_payload_error_m",
    "max_payload_error_m", "final_payload_error_m", "min_separation_m", "max_separation_m",
    "funnel_violations", "mean_inter_execution_steps", "horizon_trace", "solver_failures",
    "thrust_clamps", "omega_des_clips", "slack_cable_ticks", "solves_converged",
    "solves_max_iter", "solves_stalled", "qp_max_iter", "mean_solve_time_ms",
]


class TestEmitSummary:
    def test_fixed_order_wall_clock_last(self, tmp_path):
        log = synthetic_log([0.1], [0.6], [0.85])
        log.events = [synthetic_event(0, "forced", None, 20)]
        path = tmp_path / "summary.txt"
        harness.emit_summary(harness.summarize(log), path)
        lines = path.read_text().splitlines()
        assert [line.split(" = ")[0] for line in lines] == SUMMARY_KEYS
        assert lines[-1].startswith("mean_solve_time_ms = ")

    def test_all_lines_deterministic_except_the_last(self, tmp_path):
        config = dataclasses.replace(harness.scenario_preset("hover-nominal"), duration=1.0)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        harness.emit_summary(harness.summarize(harness.run_closed_loop(config)), a)
        harness.emit_summary(harness.summarize(harness.run_closed_loop(config)), b)
        assert a.read_text().splitlines()[:-1] == b.read_text().splitlines()[:-1]


# ---------------------------------------------------------------------------
# config files


def write_config(tmp_path, text):
    path = tmp_path / "scenario.yaml"
    path.write_text(text)
    return path


class TestLoadConfig:
    def test_minimal_file_is_the_default_circle(self, tmp_path):
        config, sweep = harness.load_config(write_config(tmp_path, "schema_version: 1\n"))
        assert config.name == "circle-medium"
        assert (config.trigger.alpha, config.trigger.beta) == (0.10, 0.05)
        assert sweep is None

    def test_schema_version_required(self, tmp_path):
        with pytest.raises(ConfigError):
            harness.load_config(write_config(tmp_path, "preset: hover\n"))

    def test_wrong_schema_version_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            harness.load_config(write_config(tmp_path, "schema_version: 2\n"))

    def test_non_mapping_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            harness.load_config(write_config(tmp_path, "- just\n- a list\n"))

    def test_unknown_top_level_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            harness.load_config(
                write_config(tmp_path, "schema_version: 1\nturbulence: high\n")
            )

    @pytest.mark.parametrize(
        "section",
        ["scenario", "reference", "system", "trigger", "nmpc", "solver",
         "disturbance", "weights", "gains", "obstacle"],
    )
    def test_unknown_key_rejected_in_every_section(self, tmp_path, section):
        text = f"schema_version: 1\n{section}:\n  not_a_key: 1\n"
        with pytest.raises(ConfigError, match="not_a_key"):
            harness.load_config(write_config(tmp_path, text))

    def test_preset_plus_overrides(self, tmp_path):
        text = (
            "schema_version: 1\n"
            "preset: hover-nominal\n"
            "name: quick\n"
            "scenario:\n  duration_s: 1.5\n  seed: 7\n"
        )
        config, _ = harness.load_config(write_config(tmp_path, text))
        assert config.name == "quick"
        assert config.plant_model == "payload_only"
        assert config.duration == 1.5
        assert config.seed == 7

    def test_trigger_preset_name(self, tmp_path):
        text = "schema_version: 1\ntrigger:\n  preset: tight\n"
        config, _ = harness.load_config(write_config(tmp_path, text))
        assert (config.trigger.alpha, config.trigger.beta) == (0.02, 0.01)

    def test_explicit_alpha_overrides_trigger_preset(self, tmp_path):
        text = "schema_version: 1\ntrigger:\n  preset: tight\n  alpha: 0.5\n"
        config, _ = harness.load_config(write_config(tmp_path, text))
        assert config.trigger.alpha == 0.5
        assert config.trigger.beta == 0.01

    def test_unknown_trigger_preset_rejected(self, tmp_path):
        text = "schema_version: 1\ntrigger:\n  preset: casual\n"
        with pytest.raises(ConfigError):
            harness.load_config(write_config(tmp_path, text))

    def test_terminal_epsilon_null_disables_shrinking(self, tmp_path):
        text = "schema_version: 1\npreset: hover\ntrigger:\n  terminal_epsilon: null\n"
        config, _ = harness.load_config(write_config(tmp_path, text))
        assert config.terminal_epsilon is None

    def test_terminal_epsilon_number(self, tmp_path):
        text = "schema_version: 1\ntrigger:\n  terminal_epsilon: 0.01\n"
        config, _ = harness.load_config(write_config(tmp_path, text))
        assert config.terminal_epsilon == 0.01

    def test_reference_switch_to_hover(self, tmp_path):
        text = (
            "schema_version: 1\n"
            "reference:\n  kind: hover\n  position_m: [0.0, 0.0, 2.0]\n"
        )
        config, _ = harness.load_config(write_config(tmp_path, text))
        assert config.reference.kind == "hover"
        np.testing.assert_allclose(config.reference_at(0.0)[0][0:3], [0.0, 0.0, 2.0])

    def test_system_overrides_flow_into_the_ocp(self, tmp_path, monkeypatch):
        text = "schema_version: 1\nsystem:\n  payload_mass_kg: 0.4\n"
        config, _ = harness.load_config(write_config(tmp_path, text))
        assert config.params.m_L == 0.4
        # the solver predicts with the rig's payload
        loop, problems = trigger_loop(config), solved_problems(monkeypatch)
        loop.step(0, 0.0, harness.equilibrium_state(config)[0])
        assert problems[0].params.m_L == 0.4

    def test_nmpc_and_weights_sections(self, tmp_path):
        text = (
            "schema_version: 1\n"
            "nmpc:\n  horizon: 12\n  dt_s: 0.1\n"
            "weights:\n  position: 10.0\n  force: 2.0\n"
            "scenario:\n  plant_model: payload_only\n"
        )
        config, _ = harness.load_config(write_config(tmp_path, text))
        assert config.ocp.N == 12
        assert config.ocp.dt == 0.1
        assert config.ocp.weights.Q_X[0, 0] == 10.0
        assert config.ocp.weights.Q_U[0, 0] == 2.0

    def test_partial_gains_keep_the_preset_gains(self, tmp_path):
        text = "schema_version: 1\npreset: circle-medium\ngains:\n  attitude: 12\n"
        config, _ = harness.load_config(write_config(tmp_path, text))
        gains = config.gains
        assert (gains.K_R, gains.K_Omega, gains.K_xi, gains.K_omega) == (12.0, 0.37, 150.0, 30.0)

    def test_a_full_plant_file_runs_the_full_plant_presets_gains(self, tmp_path):
        text = "schema_version: 1\npreset: hover-recovery\nscenario:\n  plant_model: full\n"
        config, _ = harness.load_config(write_config(tmp_path, text))
        assert config.gains == scenario.scenario_preset("hover").gains

    def test_eta_alone_turns_the_disturbance_on(self, tmp_path):
        text = (
            "schema_version: 1\npreset: hover\n"
            "scenario:\n  duration_s: 0.5\ndisturbance:\n  eta: 1.0e-3\n"
        )
        config, _ = harness.load_config(write_config(tmp_path, text))
        assert np.max(harness.run_closed_loop(config).payload_err) > 0.0

    @pytest.mark.parametrize(
        "text, value",
        [("1e-3", 1e-3), ("1.0e6", 1e6), ("1e+3", 1e3), ("-2E5", -2e5), (".5e1", 5.0)],
    )
    def test_exponent_forms_are_numbers(self, tmp_path, text, value):
        """YAML 1.1 reads an exponent without a dot, or with a sign-less
        exponent, as text; a scenario file reads every such form as a
        float."""
        text = f"schema_version: 1\nobstacle:\n  center_m: [{text}, 0.0, 0.5]\n"
        config, _ = harness.load_config(write_config(tmp_path, text))
        assert config.ocp.obstacle_center[0] == value

    def test_exponent_forms_in_integer_and_scalar_keys(self, tmp_path):
        text = "schema_version: 1\nscenario:\n  seed: 1e3\ndisturbance:\n  eta: 1e-3\n"
        config, _ = harness.load_config(write_config(tmp_path, text))
        assert config.disturbance_eta == 0.001
        assert config.seed == 1000 and isinstance(config.seed, int)

    @pytest.mark.parametrize(
        "text, error", [(".inf", "must be finite"), ("1e", "must be a number")]
    )
    def test_infinity_and_text_are_still_refused(self, tmp_path, text, error):
        path = write_config(tmp_path, f"schema_version: 1\ndisturbance:\n  eta: {text}\n")
        with pytest.raises(ConfigError, match=error):
            harness.load_config(path)

    def test_partial_weights_and_solver_keep_the_preset_values(self, tmp_path):
        # a preset whose weights and solver settings all differ from the
        # library defaults
        preset = harness.scenario_preset("hover-recovery")
        preset.ocp = dataclasses.replace(
            preset.ocp, weights=payload_ocp.CostWeights(20.0, 5.0, 10.0, 1.0, 1.0, 2.0, 2.0)
        )
        preset.solver = dataclasses.replace(preset.solver, max_sqp_iters=12, feas_tol=1e-5)
        text = (
            "schema_version: 1\npreset: hover-recovery\n"
            "weights:\n  velocity: 3.0\n"
            "solver:\n  kkt_tol: 1.0e-7\n"
        )
        with mock.patch.object(scenario, "scenario_preset", return_value=preset):
            config, _ = harness.load_config(write_config(tmp_path, text))
        assert config.ocp.weights == dataclasses.replace(preset.ocp.weights, velocity=3.0)
        assert config.solver.kkt_tol == 1e-7
        assert config.solver.max_sqp_iters == 12
        assert config.solver.feas_tol == 1e-5

    def test_obstacle_needs_a_center(self, tmp_path):
        text = "schema_version: 1\nobstacle:\n  clearance_m: 0.3\n"
        with pytest.raises(ConfigError, match="center_m"):
            harness.load_config(write_config(tmp_path, text))

    def test_sweep_grid_parsed(self, tmp_path):
        text = (
            "schema_version: 1\n"
            "sweep:\n  alphas: [0.1, 0.2]\n  betas: [0.05]\n"
        )
        _, sweep = harness.load_config(write_config(tmp_path, text))
        assert sweep == ([0.1, 0.2], [0.05])

    def test_empty_sweep_rejected(self, tmp_path):
        text = "schema_version: 1\nsweep:\n  alphas: []\n  betas: [0.05]\n"
        with pytest.raises(ConfigError):
            harness.load_config(write_config(tmp_path, text))

    def test_cross_field_validation_runs_last(self, tmp_path):
        # a payload-only preset switched to the full plant must re-check the
        # step-ratio rule
        text = (
            "schema_version: 1\npreset: hover-nominal\n"
            "scenario:\n  plant_model: full\n  dt_lowlevel_s: 0.003\n"
        )
        with pytest.raises(ConfigError):
            harness.load_config(write_config(tmp_path, text))
