"""The ported searches against scipy's own: same points, same bits.

scipy is a test dependency only, so these tests skip without it.  The last
test checks that the package itself never imports it.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dlpc import fitting
from dlpc.drivers.optimizers import bounded_min, nelder_mead

optimize = pytest.importorskip("scipy.optimize")

SRC = Path(__file__).resolve().parent.parent / "src"


def _recorded(g):
    """g, plus the bytes of every point it is called at, in call order."""
    points: list[bytes] = []

    def f(x):
        points.append(np.asarray(x, dtype=float).tobytes())
        return g(x)

    return f, points


def _rosenbrock(x):
    return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)


def _bowl(x):
    return float((x[0] - 1.0) ** 2 + 3.0 * (x[1] + 0.5) ** 2)


def _tilted_bowl_3d(x):
    return float((x[0] - 1.0) ** 2 + 2.0 * (x[1] + 0.5) ** 2 + 0.5 * (x[2] - 0.25) ** 2
                 + 0.3 * x[0] * x[2])


def _noisy_bowl(seed):
    rng = np.random.default_rng(seed)
    return lambda x: float((x[0] - 1.0) ** 2 + (x[1] + 0.5) ** 2 + 0.05 * rng.standard_normal())


NM_CASES = {
    "quadratic-1d": (lambda: lambda x: float((x[0] - 2.0) ** 2), [0.5], 200),
    "rosenbrock-2d": (lambda: _rosenbrock, [-1.2, 1.0], 400),
    "zero-in-x0": (lambda: _bowl, [0.0, 1.5], 200),
    "tilted-3d": (lambda: _tilted_bowl_3d, [0.3, -0.7, 1.1], 300),
    "noisy-shrinks": (lambda: _noisy_bowl(0), [0.3, 0.4], 60),
    # Seed 0 from (0.3, 0.4): evaluation 25 is a contraction that fails and
    # 26 and 27 are the shrink's two, so budgets 25 and 26 both cut it short.
    "noisy-cut-before-shrink": (lambda: _noisy_bowl(0), [0.3, 0.4], 25),
    "noisy-cut-mid-shrink": (lambda: _noisy_bowl(0), [0.3, 0.4], 26),
}


@pytest.mark.parametrize("case", NM_CASES)
def test_nelder_mead_matches_scipy_bit_for_bit(case):
    make, x0, budget = NM_CASES[case]
    f_port, ours = _recorded(make())
    got = nelder_mead(f_port, x0, max_evals=budget)
    f_ref, theirs = _recorded(make())
    ref = optimize.minimize(
        f_ref,
        np.asarray(x0, dtype=float),
        method="Nelder-Mead",
        options={"maxfev": budget, "xatol": 1e-5, "fatol": 1e-7},
    )
    assert ours == theirs
    assert got.x == tuple(float(v) for v in ref.x)
    assert got.fun == float(ref.fun)
    assert got.n_evals == ref.nfev == len(ours)
    if case.startswith("noisy-cut"):
        # The cut shrink leaves a vertex that was moved but never evaluated.
        assert any(v.tobytes() not in theirs for v in ref.final_simplex[0])
        assert got.n_evals == budget


def _brent_pair(f, lo, hi, xatol):
    f_port, ours = _recorded(f)
    x = bounded_min(f_port, lo, hi, xatol=xatol)
    f_ref, theirs = _recorded(f)
    ref = optimize.minimize_scalar(
        f_ref, bounds=(lo, hi), method="bounded", options={"xatol": xatol}
    )
    assert ours == theirs
    assert x == float(ref.x)
    assert len(ours) == ref.nfev


@pytest.mark.parametrize(
    "f, lo, hi, xatol",
    [
        (lambda x: (x - 2.0) ** 2, 0.0, 5.0, 1e-5),
        (math.cos, 0.0, 2.0 * math.pi, 1e-5),
        (lambda x: x, 1.0, 3.0, 1e-5),  # minimum on the lower bound
        (lambda x: abs(x - 0.3) + 0.1 * math.sin(9.0 * x), 0.0, 1.0, 1e-12),
    ],
    ids=["quadratic", "cosine", "edge", "kinked"],
)
def test_bounded_min_matches_scipy_bit_for_bit(f, lo, hi, xatol):
    _brent_pair(f, lo, hi, xatol)


def test_bounded_min_matches_scipy_on_the_cost_model_fit(monkeypatch):
    calls = []

    def spy(f, lo, hi, *, xatol):
        calls.append((f, lo, hi, xatol))
        return bounded_min(f, lo, hi, xatol=xatol)

    monkeypatch.setattr(fitting, "bounded_min", spy)
    fit = fitting.fit_cost_model()
    (f, lo, hi, xatol), = calls
    _brent_pair(f, lo, hi, xatol)
    assert fit.prep_us == 534.8524739051361


def test_package_never_imports_scipy():
    probe = (
        "import sys\n"
        "import dlpc.cli\n"
        "from dlpc.fitting import fit_cost_model\n"
        "fit_cost_model()\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "[]"
