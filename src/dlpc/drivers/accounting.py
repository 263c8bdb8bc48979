"""The one runner of both pipelines, and the cost roll-up shared with the scenarios.

A driver writes its host loop once, as ``host(fetch)``, and ``run_loop`` runs
it on either pipeline.  The baseline rebuilds its kernels for every directive
and runs each to HALT.  DLPC compiles one streaming kernel and streams it the
directives through ``rpc.run_session``: the first fetch launches the kernel
with its directive; every later fetch sends its directive first.  Draws are
keyed by (run seed, iteration, section), and baseline fetch k runs its kernel
j as ``iteration=k, first_section=j``, so it draws exactly what section j of
streamed iteration k draws: one seed, identical counts.

``RunCosts`` lives in ``devcomp`` beside ``CostModel``: a kernel's price is a
one-compile run.  A run's ledger adds its traced device busy time and RPC
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

from typing import Callable

from ..devcomp import RPC_ROUNDTRIP_S, CompileLog, CostModel, KernelBinary, RunCosts, check_mode
from ..qpu import VmError
from ..rpc import CircuitBlock, Params, Results, RpcError, run_session

__all__ = ["RunCosts", "run_loop", "loop_costs", "speedup"]


def run_loop(
    mode: str,
    host: Callable,
    *,
    cost_model: CostModel,
    build: Callable,
    rebuild: Callable,
    run: Callable,
    transport: str,
) -> tuple[RunCosts, int, KernelBinary]:
    """Run ``host`` on ``mode``'s pipeline; returns its ledger, iterations and last kernel.

    ``build()`` is DLPC's kernel, which the first fetch launches with its
    directive, and ``rebuild(directive)`` the baseline's for each fetch, one
    per section.  ``run(binary, **options)`` is the driver's own ``execute``
    with its options.  A ``VmError`` or ``RpcError`` that ends the run gets a
    note naming the pipeline, and for the baseline the iteration; a
    ``CompileError`` names a bad kernel or value, the same in either pipeline.
    """
    check_mode(mode)
    log = CompileLog()
    binary = None  # the kernel built last
    fetches = 0
    device_us = rpc_us = 0.0  # summed in run order
    try:
        if mode == "baseline":

            def fetch(directive: Params | CircuitBlock) -> Results:
                nonlocal binary, fetches, device_us, rpc_us
                k, posted = fetches, []
                fetches += 1
                for j, kernel in enumerate(rebuild(directive)):
                    binary = log.record(kernel, cost_model)
                    trace = run(binary, iteration=k, first_section=j)
                    device_us += trace.busy_us
                    rpc_us += trace.rpc_us
                    posted += trace.results
                first = posted[0]  # as posted, so the host can check it
                sections = tuple(c for r in posted for c in r.counts)
                return Results(first.iteration, first.n_qubits, sections)

            host(fetch)
            n_iterations = fetches
        else:
            binary = log.record(build(), cost_model)
            trace = run_session(
                lambda h, first: run(binary, endpoint=h, launch=first), host, transport=transport
            )
            device_us, rpc_us = trace.busy_us, trace.rpc_us
            n_iterations = trace.n_iterations
    except (VmError, RpcError) as e:
        # ``BaseException.add_note`` does this from Python 3.11; 3.10 is supported.
        note = f"in the {mode} pipeline" + (f", iteration {fetches - 1}" if fetches else "")
        e.__notes__ = [*getattr(e, "__notes__", ()), note]
        raise
    costs = log.costs + RunCosts(device_s=device_us * 1e-6, rpc_s=rpc_us * 1e-6)
    return costs, n_iterations, binary


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
