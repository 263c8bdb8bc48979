"""A fixed reference computation that gauges how fast the host runs right now.

On a shared virtual machine the speed of a vCPU drifts by 20-50% over tens of
seconds as other tenants' load comes and goes (CPU time tracks wall time, so
the guest sees no steal: the same instructions simply take longer).  That
drift, not the program, set the run-to-run spread of the raw timings.

The harness times this computation next to every timed driver call and every
set-up probe, and reports their host time, wall time divided by
``host_slowness()``: the seconds the work would take on a host where the
reference takes ``NOMINAL_S``.  The computation lives here, outside the
program, so a change to the program never changes it; it mixes the kinds of
work the stack does on the host (interpreted Python arithmetic, dict updates
and sorting, small NumPy array operations) so that it slows with the host
much as the stack does.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

# The reference's duration on the 2-vCPU Sapphire Rapids KVM guest the bounds
# were set on, rounded; it only scales the figures to read as seconds there.
NOMINAL_S = 0.04

_AMPLITUDES = np.array([1.0, 1j]) @ np.random.default_rng(0).normal(size=(2, 256))


def _work() -> int:
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    hist: dict[int, int] = {}
    for i in range(30_000):
        key = i * 2_654_435_761 % 100_003
        hist[key] = hist.get(key, 0) + 1
    acc += len(sorted(hist.items()))
    x = _AMPLITUDES
    for _ in range(1_500):
        x = x * 0.5 + _AMPLITUDES
        probs = np.abs(x) ** 2
    return acc + int(probs.argmax())


def reference_s() -> float:
    """Seconds the reference computation takes now; garbage collection is held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def host_slowness(before_s: float, after_s: float) -> float:
    """How much slower than nominal the host ran between two reference timings."""
    return (before_s + after_s) / (2 * NOMINAL_S)
