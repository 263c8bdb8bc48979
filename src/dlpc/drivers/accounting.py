"""Cost roll-up shared by the experiment drivers and the scenarios.

``RunCosts`` lives in ``devcomp`` beside ``CostModel``: a kernel's price is a
one-compile run.  ``costs_from`` adds a run's traced device busy time and RPC
stalls to its ``CompileLog``, so total time is a sum by construction, never a
stopwatch reading.  ``loop_costs`` is the one writer of the pricing law:
before device time, a loop that needs the same kernels on every iteration
costs them once per iteration in the baseline, which rebuilds them, and once
plus one RPC round trip per iteration in DLPC, which streams values to them.

With equal device work, as the two modes of one driver do, ``speedup(a, b)``
equals ``b.device_fraction / a.device_fraction`` exactly (both are
``a.total_s / b.total_s``), so a speedup target and a pair of device-fraction
targets for the same run constrain one number.
"""

from __future__ import annotations

from typing import Iterable

from ..devcomp import RPC_ROUNDTRIP_S, CompileLog, RunCosts, check_mode
from ..qpu import ExecutionTrace

__all__ = ["RunCosts", "costs_from", "loop_costs", "speedup"]


def costs_from(log: CompileLog, traces: Iterable[ExecutionTrace]) -> RunCosts:
    device_us = 0.0
    rpc_us = 0.0
    for t in traces:
        device_us += t.busy_us
        rpc_us += t.rpc_us
    return log.costs + RunCosts(device_s=device_us * 1e-6, rpc_s=rpc_us * 1e-6)


def loop_costs(mode: str, kernels: list[RunCosts], iterations: int) -> RunCosts:
    """What ``iterations`` iterations that each need ``kernels`` cost, before device time."""
    check_mode(mode)
    once = sum(kernels, RunCosts())
    if mode == "baseline":
        return iterations * once
    return once + RunCosts(rpc_s=iterations * RPC_ROUNDTRIP_S)


def speedup(baseline: RunCosts, other: RunCosts) -> float:
    """How many times faster the second run finished the same workload."""
    return baseline.total_s / other.total_s
