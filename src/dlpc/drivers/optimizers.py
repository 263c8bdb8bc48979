"""The optimizer loop both VQE pipeline modes run.

The optimizer sees only an evaluate(x) callable, so given identical energies
both modes trace identical parameter paths.  What evaluate does underneath is
the driver's business (``vqe.run_vqe``): the baseline compiles and runs one
kernel per section, and the streamed mode exchanges parameters and results
with its running kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize

__all__ = ["OptResult", "nelder_mead"]

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
