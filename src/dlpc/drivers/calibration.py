"""Calibration-day driver: one parameter sweep per device knob.

A full pass over an N-qubit device runs 2N single-qubit experiments (carrier
frequency, then drive amplitude, per qubit) and 5 experiments per coupled
pair, one per entangling-pulse parameter.  Every experiment is the same
segmented sweep kernel: prepare, play a fixed ladder of probe segments, read
out once per shot.  Because the kernel is retargeted purely through its slot
values (carrier in slot 0, segment profile after it), the streaming pipeline
compiles it exactly once for the whole day, while the baseline re-bakes and
re-uploads it for every experiment.

The simulator accounts time, not sweep physics: runs are cost-only and the
per-segment response curve is synthesized host-side from a quadratic peak
around a hidden true value plus measurement noise.  Fits land wherever the
response peaks, the dataset is updated in experiment order, and both modes
see the same synthetic data, so they produce identical fitted values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..devcomp import (
    ALL_CHANNELS,
    CostModel,
    Instr,
    KernelBinary,
    Opcode,
    bake,
    partial_kernel,
)
from ..ir import SlotRef
from ..pulse import CalibrationDataset, LiteralUs
from ..qpu import execute
from ..rpc import Params, ProtocolError
from .accounting import RunCosts, run_loop

__all__ = [
    "SEGMENTS",
    "SWEEP_SHOTS",
    "SEGMENT_US",
    "Experiment",
    "experiment_plan",
    "n_experiments",
    "sweep_slots",
    "build_sweep_partial",
    "CalibrationReport",
    "run_calibration",
]

SEGMENTS = 67
SWEEP_SHOTS = 50
SEGMENT_US = 2.5


@dataclass(frozen=True, slots=True)
class Experiment:
    name: str
    kind: str  # "freq" | "amp" | "pair"
    target: tuple[int, ...]
    param_index: int = 0  # pair experiments: which of the 5 pulse parameters


def experiment_plan(calib: CalibrationDataset) -> list[Experiment]:
    plan = []
    for q in sorted(calib.qubits):
        plan.append(Experiment(f"q{q}/freq", "freq", (q,)))
        plan.append(Experiment(f"q{q}/amp", "amp", (q,)))
    for (i, j) in sorted(calib.pairs):
        for p in range(5):
            plan.append(Experiment(f"q{i}-q{j}/pair{p}", "pair", (i, j), p))
    return plan


def n_experiments(n_qubits: int) -> int:
    return 2 * n_qubits + 5 * math.comb(n_qubits, 2)


def _center(exp: Experiment, calib: CalibrationDataset) -> float:
    if exp.kind == "freq":
        return calib.qubit(exp.target[0]).omega
    if exp.kind == "amp":
        return calib.qubit(exp.target[0]).rabi
    return calib.pair_params(*exp.target)[exp.param_index]


def _scale(center: float) -> float:
    """Scan half-width: relative for live values, absolute around zero."""
    return 0.05 * abs(center) if center else 0.2


def _grid(exp: Experiment, calib: CalibrationDataset) -> np.ndarray:
    center = _center(exp, calib)
    return center + _scale(center) * np.linspace(-1.0, 1.0, SEGMENTS)


def _carrier(exp: Experiment, calib: CalibrationDataset) -> float:
    if exp.kind == "pair":
        a, b = exp.target
        return 0.5 * (calib.qubit(a).omega + calib.qubit(b).omega)
    return calib.qubit(exp.target[0]).omega


def sweep_slots(exp: Experiment, calib: CalibrationDataset) -> tuple[float, ...]:
    """Slot image of one experiment: carrier, then the probe ladder in [0, 1]."""
    return (_carrier(exp, calib), *(float(v) for v in np.linspace(0.0, 1.0, SEGMENTS)))


def build_sweep_partial(*, prep_us: float, detect_us: float) -> KernelBinary:
    """The reusable sweep kernel, ``SWEEP_SHOTS`` per scan; resuming at the loop re-runs it."""
    body = [Instr(Opcode.PREP, (prep_us,))]
    for i in range(SEGMENTS):
        body.append(Instr(Opcode.SET_AMP, (0, SlotRef(1 + i))))
        body.append(Instr(Opcode.PLAY, (LiteralUs(SEGMENT_US),)))
    body.append(Instr(Opcode.DETECT, (ALL_CHANNELS, detect_us)))
    return partial_kernel(
        [Instr(Opcode.SET_FREQ, (0, SlotRef(0)))],
        [Instr(Opcode.LOOP_SHOTS, (SWEEP_SHOTS, len(body))), *body],
        n_qubits=1, pair_channels=(), blocks=(),
    )


def _fit(exp: Experiment, calib: CalibrationDataset, run_seed: int, exp_idx: int) -> float:
    """Synthesize the sweep response and return the peak position.

    The hidden truth sits inside the scan window; the response is a clipped
    quadratic peak whose width covers a few segments, plus shot-scale noise.
    """
    rng = np.random.Generator(np.random.Philox(key=[run_seed, exp_idx]))
    grid = _grid(exp, calib)
    center = _center(exp, calib)
    scale = _scale(center)
    truth = center + scale * rng.uniform(-0.6, 0.6)
    response = np.clip(1.0 - ((grid - truth) / (0.25 * scale)) ** 2, 0.0, 1.0)
    response += rng.normal(0.0, 0.02, SEGMENTS)
    return float(grid[int(np.argmax(response))])


def _apply(exp: Experiment, calib: CalibrationDataset, fitted: float) -> None:
    if exp.kind == "freq":
        calib.recalibrate_qubit(exp.target[0], omega=fitted)
    elif exp.kind == "amp":
        calib.recalibrate_qubit(exp.target[0], rabi=fitted)
    else:
        params = list(calib.pair_params(*exp.target))
        params[exp.param_index] = fitted
        calib.recalibrate_pair(*exp.target, tuple(params))


@dataclass(slots=True)
class CalibrationReport:
    mode: str
    n_experiments: int
    costs: RunCosts
    version_advance: int
    fitted: dict[str, float]
    kernel_instructions: int

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "n_experiments": self.n_experiments,
            "version_advance": self.version_advance,
            "kernel_instructions": self.kernel_instructions,
            "costs": self.costs.to_json_dict(),
            "fitted": self.fitted,
        }


def run_calibration(
    calib: CalibrationDataset,
    mode: str,
    *,
    cost_model: CostModel,
    run_seed: int = 0,
) -> CalibrationReport:
    """Run a full calibration day over every qubit and pair in the dataset.

    Updates calib in place, one version bump per experiment.
    """
    plan = experiment_plan(calib)
    version_before = calib.version
    fitted: dict[str, float] = {}
    sweep = build_sweep_partial(prep_us=calib.prep_us, detect_us=calib.detect_us)

    # Slots for experiment k+1 depend on fits applied through experiment k,
    # so the host loop interleaves analysis with the parameter stream.  Each
    # reply must be experiment k's one scan, or the fits would be misfiled.
    def host(fetch) -> None:
        for k, exp in enumerate(plan):
            results = fetch(Params(sweep_slots(exp, calib)))
            shots = [sum(section.values()) for section in results.counts]
            if results.iteration != k or shots != [SWEEP_SHOTS]:
                raise ProtocolError(
                    f"experiment {k} ({exp.name}): got iteration {results.iteration} "
                    f"with section shots {shots}, expected one scan of {SWEEP_SHOTS}"
                )
            value = _fit(exp, calib, run_seed, k)
            _apply(exp, calib, value)
            fitted[exp.name] = value

    costs, _, kernel = run_loop(
        mode,
        host,
        cost_model=cost_model,
        build=lambda: sweep,
        rebuild=lambda p: [bake(sweep, p.values)],
        run=lambda k, **kw: execute(k, run_seed=run_seed, cost_only=True, **kw),
        transport="memory",
    )
    return CalibrationReport(
        mode, len(plan), costs, calib.version - version_before, fitted, len(kernel.instructions)
    )
