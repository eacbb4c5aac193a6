"""Machine-speed probe: scales a run's timings to one reference machine speed.

On a shared machine other tenants slow a process by up to half for tens of
seconds at a time, longer than one closed loop, so no repeat inside a run
averages it out.  The probe runs a fixed kernel of the same kind of work the
loop does (small numpy products and solves, Python list arithmetic) once per
NMPC step, inside the loop, and keeps the kernel's time out of the loop's.
The kernel's time over the loop says how fast the machine ran during it;
`factor` converts the loop's timings to what they would read with the kernel
at its reference time.  A solve lasts a few hundred milliseconds at most,
shorter than the slow spells, so `local_factor` scales it by the probe
samples of the NMPC steps around it instead.  Both start from the median of
the samples around a step, so that one stalled sample (a scheduler switch, a
garbage collection) does not move a factor.  Raw timings stay in the results.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# close to the kernel's fastest median time per call seen on a shared 2-core
# x86 machine (Python 3.11, numpy 2.4, one BLAS thread); any fixed value
# serves, it only sets the scale of the scaled timings
REFERENCE_S = 1.5e-4

# a step's kernel time is the median of the samples this many NMPC steps
# either side of it
REACH = 2

_A = np.random.default_rng(0).standard_normal((12, 12))
_EYE = np.eye(12)


def kernel() -> float:
    s = 0.0
    for _ in range(10):
        s += float(np.linalg.solve(_A @ _A.T + _EYE, _A[0])[0])
        s += sum([j * 1.5 for j in range(30)])
    return s


class ProbeGap(RuntimeError):
    """The probe did not sample the steps it was meant to."""


class Probe:
    """Runs the kernel before every call of module.attr and times it.

    Samples are keyed by the call's first argument, the NMPC step k when the
    probe wraps the trigger check, so each is tied to the step it ran at.
    """

    def __init__(self, module, attr: str):
        self.module, self.attr = module, attr
        self.original = getattr(module, attr)
        self.samples: dict = {}

    def install(self) -> None:
        original, samples, clock = self.original, self.samples, time.perf_counter

        def probed(k, *args, **kwargs):
            began = clock()
            kernel()
            samples[k] = clock() - began
            return original(k, *args, **kwargs)

        setattr(self.module, self.attr, probed)

    def uninstall(self) -> None:
        setattr(self.module, self.attr, self.original)

    def total_s(self) -> float:
        return sum(self.samples.values())

    def check_steps(self, steps) -> None:
        """Raise ProbeGap unless exactly `steps` were sampled."""
        missing = sorted(set(steps) - set(self.samples))
        extra = sorted(set(self.samples) - set(steps))
        if missing or extra:
            raise ProbeGap(
                f"probe samples do not match the NMPC steps: missing {missing[:10]}, "
                f"unexpected {extra[:10]}"
            )

    def _local_s(self, step: int) -> float:
        """The kernel's median time over NMPC steps step-REACH .. step+REACH."""
        window = [
            self.samples[k] for k in range(step - REACH, step + REACH + 1) if k in self.samples
        ]
        if not window:
            raise ProbeGap(f"no probe sample within {REACH} steps of step {step}")
        return statistics.median(window)

    def factor(self) -> float:
        """Reference speed over the speed measured: below 1 on a busy machine.

        The mean over the loop's steps of each step's local median: a stall
        in one sample is outvoted by its neighbours, while a slow spell
        counts for the share of the loop it covers.
        """
        if not self.samples:
            raise ProbeGap("the probe took no samples")
        return REFERENCE_S / statistics.mean(self._local_s(k) for k in self.samples)

    def local_factor(self, step: int) -> float:
        """The factor from the samples of NMPC steps step-REACH .. step+REACH."""
        return REFERENCE_S / self._local_s(step)
