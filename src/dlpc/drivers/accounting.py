"""Cost roll-up shared by the experiment drivers.

The ledger type, ``RunCosts``, lives in ``devcomp`` beside ``CostModel``: a
kernel's price is a one-compile run, and a run's bill is a sum of such
prices plus its device and RPC time.  A driver's ``CompileLog`` already holds
the summed price of every kernel it built; ``costs_from`` adds the device busy
time and RPC stalls of the run's execution traces.  Total time is their sum by
construction, so comparisons between pipeline modes never depend on a
stopwatch.

Whenever two runs do equal device work, as the pipeline modes of one driver
do, ``speedup(a, b)`` equals ``b.device_fraction / a.device_fraction``
exactly: both are ``a.total_s / b.total_s``.  A speedup target and a pair of
device-fraction targets for the same run therefore constrain one number.
"""

from __future__ import annotations

from typing import Iterable

from ..devcomp import CompileLog, RunCosts
from ..qpu import ExecutionTrace

__all__ = ["RunCosts", "costs_from", "speedup"]


def costs_from(log: CompileLog, traces: Iterable[ExecutionTrace]) -> RunCosts:
    device_us = 0.0
    rpc_us = 0.0
    for t in traces:
        device_us += t.busy_us
        rpc_us += t.rpc_us
    return log.costs + RunCosts(device_s=device_us * 1e-6, rpc_s=rpc_us * 1e-6)


def speedup(baseline: RunCosts, other: RunCosts) -> float:
    """How many times faster the second run finished the same workload."""
    return baseline.total_s / other.total_s
