"""Trigger-rule tests: thresholds, deviation norms, horizon shrinking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cablelift import event_trigger as et
from cablelift import payload_ocp as ocp
from cablelift import so3
from rotation_helpers import quat_from_axis_angle


def make_state(p=(0.0, 0.0, 0.0), q=None, v=(0.0, 0.0, 0.0), omega=(0.0, 0.0, 0.0)):
    """State row [p, v, q, omega]."""
    q = so3.quat_identity() if q is None else q
    return np.concatenate([p, v, q, omega]).astype(float)


def make_solution(states):
    """A prediction through the state rows, planned against references on
    them: its errors are zero."""
    n = len(states) - 1
    return ocp.OcpSolution(
        X=np.array(states),
        U=np.zeros((n, 6)),
        cost=0.0,
        kkt_residual=0.0,
        iterations=1,
        status="converged",
        errors=np.zeros((n + 1, ocp.NX)),
    )


def make_trigger_state(states, k_j=0):
    return et.TriggerState(k_j=k_j, predicted=make_solution(states), N_kj=len(states) - 1)


class TestTriggerConfig:
    def test_defaults(self):
        cfg = et.TriggerConfig()
        assert cfg.sigma == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta": 0.0},
            {"beta": -0.1},
            {"sigma": 0},
            {"alpha": -0.01},
            {"alpha": float("nan")},
            {"beta": float("nan")},
            {"alpha": float("inf")},
            {"beta": float("inf")},
            {"sigma": 2.5},
            {"sigma": True},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            et.TriggerConfig(**kwargs)

class TestShouldTrigger:
    def test_exact_prediction_no_trigger(self):
        states = [make_state(p=(0.1 * i, 0.0, 1.0)) for i in range(6)]
        ts = make_trigger_state(states)
        cfg = et.TriggerConfig(alpha=0.0, beta=0.05)
        assert et.should_trigger(3, states[3], ts, cfg) == "none"

    def test_boundary_deviation_is_none(self):
        # alpha = 0 makes the threshold exactly beta = 0.25; a deviation of
        # exactly 0.25 (representable in binary) must not trigger
        states = [make_state(p=(0.0, 0.0, 1.0)) for _ in range(6)]
        ts = make_trigger_state(states)
        cfg = et.TriggerConfig(alpha=0.0, beta=0.25)
        on_boundary = make_state(p=(0.25, 0.0, 1.0))
        assert et.should_trigger(2, on_boundary, ts, cfg) == "none"
        past = make_state(p=(0.2500001, 0.0, 1.0))
        assert et.should_trigger(2, past, ts, cfg) == "event"

    def test_forced_at_horizon_end(self):
        states = [make_state(p=(0.0, 0.0, 1.0)) for _ in range(6)]
        ts = make_trigger_state(states)
        cfg = et.TriggerConfig(alpha=0.0, beta=0.25)
        assert et.should_trigger(5, states[5], ts, cfg) == "forced"

    def test_sigma_gate_suppresses_early_events(self):
        states = [make_state(p=(0.0, 0.0, 1.0)) for _ in range(6)]
        ts = make_trigger_state(states)
        cfg = et.TriggerConfig(alpha=0.0, beta=0.01, sigma=3)
        far = make_state(p=(5.0, 0.0, 1.0))
        assert et.should_trigger(2, far, ts, cfg) == "none"
        assert et.should_trigger(3, far, ts, cfg) == "event"

    def test_prediction_gap(self):
        states = [make_state() for _ in range(4)]
        ts = make_trigger_state(states)
        with pytest.raises(et.PredictionGap):
            et.should_trigger(4, states[0], ts, et.TriggerConfig())

    def test_step_before_trigger_rejected(self):
        states = [make_state() for _ in range(4)]
        ts = make_trigger_state(states, k_j=5)
        with pytest.raises(ValueError):
            et.should_trigger(4, states[0], ts, et.TriggerConfig())

    def test_relative_term_scales_with_state_norm(self):
        # same absolute deviation: triggers near the origin, tolerated when
        # the state itself is large
        states = [make_state(p=(4.0, 0.0, 0.0)) for _ in range(6)]
        ts = make_trigger_state(states)
        current = make_state(p=(4.3, 0.0, 0.0))  # deviation 0.3, norm 4.3
        loose = et.TriggerConfig(alpha=0.10, beta=0.05)  # threshold 0.48
        tight = et.TriggerConfig(alpha=0.0, beta=0.05)
        assert et.should_trigger(2, current, ts, loose) == "none"
        assert et.should_trigger(2, current, ts, tight) == "event"

    def test_attitude_deviation_measured_by_log(self):
        q_rot = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.3)
        states = [make_state(p=(0.0, 0.0, 1.0)) for _ in range(6)]
        ts = make_trigger_state(states)
        rotated = make_state(p=(0.0, 0.0, 1.0), q=q_rot)
        assert (
            et.should_trigger(2, rotated, ts, et.TriggerConfig(alpha=0.0, beta=0.25))
            == "event"
        )
        assert (
            et.should_trigger(2, rotated, ts, et.TriggerConfig(alpha=0.0, beta=0.35))
            == "none"
        )

class TestFirstEntryIndex:
    def _errors(self, norms):
        """A prediction's errors: references at the origin, states at
        distance |norm| along x."""
        states = np.array([make_state(p=(r, 0.0, 0.0)) for r in norms])
        return ocp.state_error(states, np.array([make_state() for _ in norms]))

    def test_starts_inside(self):
        errors = self._errors([0.01, 0.5, 0.5, 0.5])
        region = et.TerminalRegion(epsilon=0.05, weight=np.eye(12))
        assert et.first_entry_index(errors, region) == 0

    def test_entry_at_index_two(self):
        errors = self._errors([0.5, 0.3, 0.04, 0.01, 0.01])
        region = et.TerminalRegion(epsilon=0.05, weight=np.eye(12))
        assert et.first_entry_index(errors, region) == 2

    def test_no_entry(self):
        errors = self._errors([0.5, 0.4, 0.3, 0.2])
        region = et.TerminalRegion(epsilon=0.05, weight=np.eye(12))
        assert et.first_entry_index(errors, region) is None

    def test_terminal_state_excluded_from_search(self):
        errors = self._errors([0.5, 0.4, 0.3, 0.01])
        region = et.TerminalRegion(epsilon=0.05, weight=np.eye(12))
        assert et.first_entry_index(errors, region) is None

    def test_weight_matters(self):
        # error 0.04 in position squeaks under epsilon with identity weight
        # but not when position is weighted by 4 (norm doubles to 0.08)
        errors = self._errors([0.5, 0.04, 0.01, 0.01])
        heavy = np.eye(12)
        heavy[0:3, 0:3] *= 4.0
        assert et.first_entry_index(errors, et.TerminalRegion(0.05, np.eye(12))) == 1
        assert et.first_entry_index(errors, et.TerminalRegion(0.05, heavy)) == 2

    def test_bad_epsilon(self):
        for epsilon in (0.0, np.nan):
            with pytest.raises(ValueError):
                et.TerminalRegion(epsilon=epsilon, weight=np.eye(12))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 21), st.integers(0, 2**32 - 1))
    def test_stacked_errors_match_one_row_calls(self, rows, seed):
        """The errors a solve takes over its stacked prediction have each
        row's bits of a one-row state_error call, so the entry index in them
        is the one a row-by-row search finds, on predictions near the
        region's edge and with attitudes of both hemispheres."""
        rng = np.random.default_rng(seed)
        q = rng.standard_normal((rows, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        X = np.hstack([rng.normal(0.0, 0.05, (rows, 6)), q, rng.normal(0.0, 0.05, (rows, 3))])
        refs = X.copy()
        refs[:, 0:6] += rng.normal(0.0, 0.03, (rows, 6))
        refs[:, 6:10] *= rng.choice([-1.0, 1.0], (rows, 1))
        stacked = ocp.state_error(X, refs)
        for i in range(rows):
            assert stacked[i].tobytes() == ocp.state_error(X[i], refs[i]).tobytes()
        region = et.TerminalRegion(epsilon=0.06, weight=np.eye(12))
        by_row = next(
            (i for i in range(rows - 1) if region.contains(ocp.state_error(X[i], refs[i]))), None
        )
        assert et.first_entry_index(stacked, region) == by_row


class TestShrinkHorizon:
    def _ts(self, N):
        return make_trigger_state([make_state() for _ in range(N + 1)])

    def test_spec_example(self):
        cfg = et.TriggerConfig(sigma=2)
        assert et.shrink_horizon(self._ts(10), 5, 2, cfg) == 6

    def test_single_step_no_shrink(self):
        cfg = et.TriggerConfig(sigma=1)
        assert et.shrink_horizon(self._ts(10), 1, 0, cfg) == 10

    def test_no_entry_no_shrink(self):
        cfg = et.TriggerConfig(sigma=2)
        assert et.shrink_horizon(self._ts(10), 5, None, cfg) == 10

    def test_floor_applies(self):
        cfg = et.TriggerConfig(sigma=2)
        assert et.shrink_horizon(self._ts(10), 10, 0, cfg) == 2

    def test_floor_follows_sigma(self):
        cfg = et.TriggerConfig(sigma=4)
        assert et.shrink_horizon(self._ts(10), 10, 0, cfg) == 4

    def test_elapsed_out_of_range(self):
        cfg = et.TriggerConfig(sigma=2)
        with pytest.raises(ValueError):
            et.shrink_horizon(self._ts(10), 1, None, cfg)
        with pytest.raises(ValueError):
            et.shrink_horizon(self._ts(10), 11, None, cfg)

    def test_bad_entry_index(self):
        cfg = et.TriggerConfig(sigma=2)
        with pytest.raises(ValueError):
            et.shrink_horizon(self._ts(10), 5, 11, cfg)

    @settings(max_examples=200, deadline=None)
    @given(
        N=st.integers(min_value=2, max_value=30),
        sigma=st.integers(min_value=1, max_value=6),
        m_frac=st.floats(min_value=0.0, max_value=1.0),
        entry=st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
    )
    def test_chain_invariant_property(self, N, sigma, m_frac, entry):
        sigma = min(sigma, N)
        m_k = sigma + int(round(m_frac * (N - sigma)))
        N_hat = None if entry is None else int(round(entry * N))
        cfg = et.TriggerConfig(sigma=sigma)
        new = et.shrink_horizon(self._ts(N), m_k, N_hat, cfg)
        assert N < m_k + new       # new window extends strictly past the old
        assert new <= N            # never grows
        assert new >= max(2, sigma)


class TestRecordTrigger:
    def test_initialization(self):
        sol = make_solution([make_state() for _ in range(5)])
        ts = et.record_trigger(0, sol, 4)
        assert ts.k_j == 0
        assert ts.N_kj == 4

    def test_second_trigger(self):
        sol = make_solution([make_state() for _ in range(5)])
        ts = et.record_trigger(0, sol, 4)
        sol2 = make_solution([make_state() for _ in range(4)])
        ts2 = et.record_trigger(3, sol2, 3)
        assert ts2.k_j == 3
        assert ts2.predicted is sol2

    def test_horizon_mismatch_rejected(self):
        sol = make_solution([make_state() for _ in range(5)])
        with pytest.raises(ValueError):
            et.record_trigger(0, sol, 6)


class TestMonotoneSensitivity:
    def test_replay_counts_monotone_in_threshold(self):
        # replay a recorded deviation/state-norm log under two thresholds
        # with (alpha2, beta2) >= (alpha1, beta1); the looser pair can never
        # trigger more often
        rng = np.random.default_rng(42)
        N = 6
        for run in range(50):
            T = 40
            devs = rng.uniform(0.0, 0.6, size=T)
            norms = rng.uniform(0.0, 3.0, size=T)
            a1, b1 = rng.uniform(0.0, 0.2), rng.uniform(0.01, 0.2)
            a2 = a1 + rng.uniform(0.0, 0.2)
            b2 = b1 + rng.uniform(0.0, 0.2)
            counts = []
            for alpha, beta in ((a1, b1), (a2, b2)):
                cfg = et.TriggerConfig(alpha=alpha, beta=beta, sigma=2)
                count, k_j = 1, 0  # initialization trigger at k = 0
                for k in range(1, T):
                    idx = k - k_j
                    # recorded prediction: deviation devs[k] along x at a
                    # state of norm norms[k]
                    states = [make_state(p=(norms[k] - devs[k], 0.0, 0.0))] * (N + 1)
                    ts = et.TriggerState(k_j=k_j, predicted=make_solution(states), N_kj=N)
                    current = make_state(p=(norms[k], 0.0, 0.0))
                    if et.should_trigger(k, current, ts, cfg) != "none":
                        count += 1
                        k_j = k
                counts.append(count)
            assert counts[1] <= counts[0], f"replay {run}: {counts}"
