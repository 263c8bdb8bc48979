"""Optimizer loops and the bridge that runs them as the host worker.

Both pipeline modes drive the same optimizer code through an evaluate(x)
callable, so given identical energies they trace identical parameter paths.
In the recompile-per-iteration mode, evaluate compiles and runs a kernel
synchronously.  In the parameter-streaming mode, evaluate is a thin shim over
the host's rendezvous buffers: the first call consumes the results of the
kernel's launch-time run, and every later call sends PARAMS and blocks for the
matching RESULTS.  The optimizer therefore runs in the worker context without
knowing which pipeline is underneath.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize

from ..rpc import Params, RendezvousCell, Results, Sentinel

__all__ = [
    "OptResult",
    "nelder_mead",
    "streaming_evaluate",
    "optimizer_worker",
]

Evaluate = Callable[[np.ndarray], float]


@dataclass(frozen=True, slots=True)
class OptResult:
    x: tuple[float, ...]
    fun: float
    n_evals: int


def nelder_mead(
    evaluate: Evaluate,
    x0: Sequence[float],
    *,
    max_evals: int,
) -> OptResult:
    """Simplex search with a hard evaluation budget.

    Tolerances are deliberately far below the shot-noise floor, so on sampled
    objectives the budget is what ends the search and run lengths stay
    comparable across seeds.
    """
    res = minimize(
        lambda x: float(evaluate(x)),
        np.asarray(x0, dtype=float),
        method="Nelder-Mead",
        options={"maxfev": max_evals, "xatol": 1e-5, "fatol": 1e-7},
    )
    return OptResult(tuple(float(v) for v in res.x), float(res.fun), int(res.nfev))


def streaming_evaluate(
    results_buffer: RendezvousCell,
    parameter_buffer: RendezvousCell,
    to_energy: Callable[[Results], float],
) -> Evaluate:
    """evaluate(x) over the host buffers.

    The kernel already ran its launch parameters, so the first call only
    collects those results; callers must make their first evaluation at the
    same point the kernel was launched with.
    """
    first = True

    def evaluate(x: np.ndarray) -> float:
        nonlocal first
        if first:
            first = False
        else:
            parameter_buffer.put(Params(tuple(float(v) for v in x)))
        r = results_buffer.take()
        assert isinstance(r, Results)
        return to_energy(r)

    return evaluate


def optimizer_worker(
    run: Callable[[Evaluate], OptResult],
    to_energy: Callable[[Results], float],
    out: list,
) -> Callable[[RendezvousCell, RendezvousCell], None]:
    """Wrap an optimizer loop as the host worker; appends its OptResult to out."""

    def worker(results_buffer: RendezvousCell, parameter_buffer: RendezvousCell) -> None:
        evaluate = streaming_evaluate(results_buffer, parameter_buffer, to_energy)
        out.append(run(evaluate))
        parameter_buffer.put(Sentinel())

    return worker
