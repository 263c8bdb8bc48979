"""Fit the cost model and readout timing against reference measurements.

The simulator's free constants are pinned by four anchor numbers measured on
the reference trap stack: the one-off compile times of the 24-element gate
pool and of the segmented sweep kernel pin the compile-time line exactly
(two equations, two unknowns), and the device-busy fractions of the
single-parameter optimization loop in each pipeline mode pin the combined
prepare-plus-detect overhead by scalar least squares.  Every kernel size used
here is produced by the real code generator, so the fitted model stays honest
against emergent instruction counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import minimize_scalar

from .devcomp import CostModel, compile_full, compile_partial
from .drivers.calibration import build_sweep_partial
from .drivers.rb import RB_SHOTS, clifford_pool
from .drivers.vqe import one_param_problem, section_schedules
from .pulse import DEFAULT_RABI, CalibrationDataset, duration_of

__all__ = ["CostAnchors", "FitResult", "ANCHORS", "fit_cost_model", "calibrated_dataset"]


@dataclass(frozen=True, slots=True)
class CostAnchors:
    pool_compile_s: float
    sweep_compile_s: float
    baseline_device_fraction: float
    streamed_device_fraction: float
    amortize_iterations: int  # loop length the streamed fraction is quoted at


ANCHORS = CostAnchors(
    pool_compile_s=0.87,
    sweep_compile_s=1.2,
    baseline_device_fraction=0.468,
    streamed_device_fraction=0.944,
    amortize_iterations=25,
)


@dataclass(frozen=True, slots=True)
class FitResult:
    cost_model: CostModel
    prep_us: float
    detect_us: float
    reproduced: dict[str, float]

    def to_json_dict(self) -> dict:
        return {
            "cost_model": {
                "compile_a": self.cost_model.compile_a,
                "compile_b": self.cost_model.compile_b,
            },
            "prep_us": self.prep_us,
            "detect_us": self.detect_us,
            "reproduced": self.reproduced,
        }


def _sweep_instructions() -> int:
    return build_sweep_partial(prep_us=1000.0, detect_us=2000.0).n_instr


def fit_cost_model(anchors: CostAnchors = ANCHORS) -> FitResult:
    """Solve the compile line exactly, then least-squares the readout split."""
    n_pool = clifford_pool(CalibrationDataset.default(1), RB_SHOTS).n_instr
    n_sweep = _sweep_instructions()
    compile_b = (anchors.sweep_compile_s - anchors.pool_compile_s) / (n_sweep - n_pool)
    compile_a = anchors.pool_compile_s - compile_b * n_pool
    model = CostModel(compile_a=compile_a, compile_b=compile_b)

    # Overheads of the single-parameter loop kernels; sizes do not depend on
    # the readout durations, so both are fixed before the scalar fit.
    problem = one_param_problem()
    calib = CalibrationDataset.default(1)
    scheds = section_schedules(problem, calib)
    full = compile_full(scheds, list(problem.x0), problem.shots, n_qubits=1)
    partial = compile_partial(scheds, problem.shots, n_qubits=1)
    oh_full = model.cost_of(full).total
    oh_partial = model.cost_of(partial).total
    # Quote device time at the canonical pi/2 gate, like the anchors were.
    pulse_us = duration_of(math.pi / 2.0, DEFAULT_RABI)
    iters = anchors.amortize_iterations

    def fractions(readout_us: float) -> tuple[float, float]:
        device_s = problem.shots * (readout_us + pulse_us) * 1e-6
        f_base = device_s / (device_s + oh_full)
        f_stream = device_s / (
            device_s + model.rpc_roundtrip_s + oh_partial / iters
        )
        return f_base, f_stream

    def sse(readout_us: float) -> float:
        f_base, f_stream = fractions(readout_us)
        return (f_base - anchors.baseline_device_fraction) ** 2 + (
            f_stream - anchors.streamed_device_fraction
        ) ** 2

    opt = minimize_scalar(sse, bounds=(1.0, 20000.0), method="bounded")
    readout_us = float(opt.x)
    f_base, f_stream = fractions(readout_us)
    # Detection integrates photons for roughly twice as long as recooling.
    return FitResult(
        cost_model=model,
        prep_us=readout_us / 3.0,
        detect_us=2.0 * readout_us / 3.0,
        reproduced={
            "pool_compile_s": model.compile_time(n_pool),
            "sweep_compile_s": model.compile_time(n_sweep),
            "baseline_device_fraction": f_base,
            "streamed_device_fraction": f_stream,
        },
    )


def calibrated_dataset(n_qubits: int, fit: FitResult | None = None) -> CalibrationDataset:
    """Default dataset with the fitted readout timings installed."""
    if fit is None:
        fit = fit_cost_model()
    calib = CalibrationDataset.default(n_qubits)
    calib.prep_us = fit.prep_us
    calib.detect_us = fit.detect_us
    return calib
