"""The machine-speed probe: keyed samples, medians, gaps, restoration."""

import types

import pytest

from perfbench import speed


def test_probe_runs_the_kernel_before_each_call_and_restores_the_attribute():
    calls = []
    module = types.SimpleNamespace(step=lambda k, x: calls.append(k) or x)
    original = module.step
    probe = speed.Probe(module, "step")
    probe.install()
    try:
        assert [module.step(k, -k) for k in range(1, 4)] == [-1, -2, -3]
    finally:
        probe.uninstall()
    assert module.step is original
    assert calls == [1, 2, 3] and sorted(probe.samples) == [1, 2, 3]
    assert all(t > 0 for t in probe.samples.values())
    assert probe.total_s() == pytest.approx(sum(probe.samples.values()))
    probe.check_steps(range(1, 4))


def test_one_stalled_sample_moves_no_factor():
    probe = speed.Probe(types.SimpleNamespace(step=None), "step")
    # steps 1..5, step 2 stalled by a scheduler switch
    probe.samples = {1: 1.0, 2: 50.0, 3: 1.0, 4: 1.0, 5: 1.0}
    assert probe.factor() == pytest.approx(speed.REFERENCE_S)
    assert probe.local_factor(2) == pytest.approx(speed.REFERENCE_S)
    # step 0 has no sample of its own: steps 1 and 2 stand for it
    assert probe.local_factor(0) == pytest.approx(speed.REFERENCE_S / 25.5)


def test_a_slow_spell_counts_for_the_steps_it_covers():
    probe = speed.Probe(types.SimpleNamespace(step=None), "step")
    probe.samples = {k: 1.0 if k <= 5 else 4.0 for k in range(1, 11)}
    assert probe.local_factor(3) == pytest.approx(speed.REFERENCE_S / 1.0)
    assert probe.local_factor(8) == pytest.approx(speed.REFERENCE_S / 4.0)
    assert probe.local_factor(6) == pytest.approx(speed.REFERENCE_S / 4.0)  # 1, 1, 4, 4, 4
    assert probe.factor() == pytest.approx(speed.REFERENCE_S / 2.5)


def test_missing_or_shifted_samples_are_reported():
    probe = speed.Probe(types.SimpleNamespace(step=None), "step")
    with pytest.raises(speed.ProbeGap):
        probe.factor()
    with pytest.raises(speed.ProbeGap):
        probe.local_factor(3)
    probe.samples = {k: 1.0 for k in range(2, 9)}
    with pytest.raises(speed.ProbeGap, match=r"missing \[1\]"):
        probe.check_steps(range(1, 9))
    with pytest.raises(speed.ProbeGap, match=r"unexpected \[8\]"):
        probe.check_steps(range(2, 8))
    with pytest.raises(speed.ProbeGap):
        probe.local_factor(20)

