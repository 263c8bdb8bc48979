"""The optimizers the drivers and the cost-model fit run.

The VQE optimizer sees only an evaluate(x) callable, so given identical
energies both modes trace identical parameter paths.  In ``vqe.run_vqe``
evaluate is one ``fetch(Params(x))`` of the driver's host loop, whichever
pipeline ``accounting.run_loop`` runs it on.

Both searches are ports of scipy's and keep its operation order, so they
evaluate the same points and return the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["OptResult", "nelder_mead", "bounded_min"]

Evaluate = Callable[[np.ndarray], float]


@dataclass(frozen=True, slots=True)
class OptResult:
    x: tuple[float, ...]
    fun: float
    n_evals: int


class _BudgetSpent(Exception):
    """The next evaluation would exceed the budget."""


def nelder_mead(
    evaluate: Evaluate,
    x0: Sequence[float],
    *,
    max_evals: int,
) -> OptResult:
    """Simplex search with a hard evaluation budget.

    Tolerances are deliberately far below the shot-noise floor, so on sampled
    objectives the budget is what ends the search and run lengths stay
    comparable across seeds.  The search never evaluates past the budget; a
    step the budget cuts short stays unfinished.
    """
    # Port of scipy 1.17.1 _minimize_neldermead (BSD-3): unbounded, non-adaptive, default simplex.
    x0 = np.asarray(x0, dtype=float).flatten()
    n = len(x0)
    n_evals = 0

    def f(x: np.ndarray) -> float:
        nonlocal n_evals
        if n_evals >= max_evals:
            raise _BudgetSpent
        n_evals += 1
        return float(evaluate(np.copy(x)))

    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.full((n + 1,), np.inf, dtype=float)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    for _ in range(2):  # sorted twice, as scipy does: argsort is not stable
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    # scipy's coefficients written out: reflection 1, expansion 2, contraction
    # and shrink 1/2.
    while n_evals < max_evals:
        try:
            if (
                np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= 1e-5
                and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-7
            ):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:  # expand
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:  # reflect
                sim[-1], fsim[-1] = xr, fxr
            else:  # contract, outside or inside the simplex
                outside = fxr < fsim[-1]
                xc = 1.5 * xbar - 0.5 * sim[-1] if outside else 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(xc)
                if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
        except _BudgetSpent:
            pass
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return OptResult(tuple(float(v) for v in sim[0]), float(np.min(fsim)), n_evals)


def bounded_min(f: Callable[[float], float], lo: float, hi: float, *, xatol: float) -> float:
    """Brent's bounded scalar search (golden section with parabolic steps).

    Returns the abscissa of the local minimum found in [lo, hi]; stops after
    500 evaluations at the latest.
    """
    # Port of scipy 1.17.1 _minimize_scalar_bounded (BSD-3), with math in place of numpy scalars.
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    while True:
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if not abs(xf - xm) > tol2 - 0.5 * (b - a) or num >= 500:
            return xf
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (-1.0 if xm - xf < 0 else 1.0)
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
