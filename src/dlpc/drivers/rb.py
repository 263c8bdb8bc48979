"""Randomized benchmarking driver: decay of survival with sequence length.

Each circuit is m uniformly random Clifford elements closed by the group
inverse of their product, so a noiseless run always returns the qubit to
ground.  Depolarization acts per physical pulse, and four of the 24 elements
need no pulse at all, so the per-element decay the fit recovers is the
pulse-weighted group average rather than a single pulse fidelity.

The baseline pipeline inlines every sequence into its own kernel, which makes
compile time scale with sequence length.  The streaming pipeline compiles the
24-element gate pool once and replays each sequence as a block-index list, so
its one compile covers the whole experiment.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import OptimizeWarning, curve_fit

from ..cliffords import CLIFFORD_COUNT, compose, inverse, n_pulses, native_ops
from ..devcomp import CompileLog, CostModel, KernelBinary, compile_full, compile_pool
from ..ir import Circuit, op
from ..pulse import CalibrationDataset, lower_to_pulses
from ..qpu import ExecutionTrace, execute
from ..rpc import CircuitBlock, RendezvousCell, Sentinel, run_session
from ..transpile import transpile
from .accounting import RunCosts, costs_from

__all__ = [
    "RB_LENGTHS",
    "RB_CIRCUITS_PER_LENGTH",
    "RB_SHOTS",
    "RbCircuit",
    "DecayFit",
    "RbReport",
    "clifford_pool",
    "random_circuits",
    "survival",
    "fit_decay",
    "p_oracle",
    "run_rb",
]

RB_LENGTHS = (2, 4, 8, 16, 32, 64, 128)
RB_CIRCUITS_PER_LENGTH = 10
RB_SHOTS = 100


@dataclass(frozen=True, slots=True)
class RbCircuit:
    length: int  # random elements drawn, excluding the closing inverse
    elements: tuple[int, ...]


def random_circuits(
    run_seed: int,
    lengths: tuple[int, ...] = RB_LENGTHS,
    per_length: int = RB_CIRCUITS_PER_LENGTH,
) -> list[RbCircuit]:
    """Inverse-closed random sequences, keyed so any circuit can be rebuilt."""
    circuits = []
    for idx_len, m in enumerate(lengths):
        for c in range(per_length):
            rng = np.random.Generator(
                np.random.Philox(key=[run_seed, (idx_len << 32) | c])
            )
            seq = [int(e) for e in rng.integers(0, CLIFFORD_COUNT, size=m)]
            acc = 0
            for e in seq:
                acc = compose(e, acc)  # later elements multiply from the left
            circuits.append(RbCircuit(m, (*seq, inverse(acc))))
    return circuits


def _sequence_schedule(circ: RbCircuit, calib: CalibrationDataset):
    ops = [g for e in circ.elements for g in native_ops(e, 0)]
    ops.append(op("MEASURE", ()))
    return lower_to_pulses(transpile(Circuit(1, ops)), calib)


def clifford_pool(calib: CalibrationDataset, shots: int) -> KernelBinary:
    """The 24-element single-qubit gate pool as one streamed kernel on qubit 0."""
    blocks = [
        lower_to_pulses(transpile(Circuit(1, list(native_ops(i, 0)))), calib)
        for i in range(CLIFFORD_COUNT)
    ]
    return compile_pool(
        blocks, shots, prep_us=calib.prep_us, detect_us=calib.detect_us, n_qubits=1
    )


def survival(counts: dict[int, int]) -> float:
    """Fraction of shots read out in the ground state, outcome key 0."""
    total = sum(counts.values())
    return counts.get(0, 0) / total


def p_oracle(depolarizing: float) -> float:
    """Expected per-element decay: pulse-count-weighted group average."""
    f = max(0.0, 1.0 - 4.0 * depolarizing / 3.0)
    return sum(f ** n_pulses(i) for i in range(CLIFFORD_COUNT)) / CLIFFORD_COUNT


@dataclass(frozen=True, slots=True)
class DecayFit:
    amplitude: float
    offset: float
    p: float


def fit_decay(lengths: list[int], survivals: list[float]) -> DecayFit:
    """Least-squares A p^m + B through per-length means.

    A flat curve has no decay information and an unconstrained fit would chase
    noise there, so it short-circuits to p = 1.
    """
    xs = np.asarray(lengths, dtype=float)
    ys = np.asarray(survivals, dtype=float)
    if np.all(ys == ys[0]):
        return DecayFit(0.0, float(ys[0]), 1.0)
    with warnings.catch_warnings():
        # The covariance is unused; three points determine three parameters.
        warnings.simplefilter("ignore", OptimizeWarning)
        popt, _ = curve_fit(
            lambda m, a, b, p: a * p**m + b,
            xs,
            ys,
            p0=(0.5, 0.5, 0.95),
            bounds=((-1.0, -1.0, 0.0), (1.0, 1.0, 1.0)),
            maxfev=10000,
        )
    return DecayFit(float(popt[0]), float(popt[1]), float(popt[2]))


@dataclass(slots=True)
class RbReport:
    mode: str
    lengths: tuple[int, ...]
    survivals: tuple[float, ...]  # one per circuit, plan order
    mean_by_length: dict[int, float]
    fit: DecayFit
    costs: RunCosts
    n_iterations: int

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "lengths": list(self.lengths),
            "survivals": list(self.survivals),
            "mean_by_length": {str(k): v for k, v in self.mean_by_length.items()},
            "fit": {"amplitude": self.fit.amplitude, "offset": self.fit.offset, "p": self.fit.p},
            "costs": self.costs.to_json_dict(),
            "n_iterations": self.n_iterations,
        }


def run_rb(
    mode: str,
    *,
    cost_model: CostModel,
    calib: CalibrationDataset | None = None,
    depolarizing: float = 0.01,
    run_seed: int = 0,
    lengths: tuple[int, ...] = RB_LENGTHS,
    per_length: int = RB_CIRCUITS_PER_LENGTH,
    shots: int = RB_SHOTS,
) -> RbReport:
    if mode not in ("baseline", "dlpc"):
        raise ValueError(f"mode must be 'baseline' or 'dlpc', got {mode!r}")
    if calib is None:
        calib = CalibrationDataset.default(1)
    plan = random_circuits(run_seed, lengths, per_length)
    log = CompileLog()

    if mode == "baseline":
        traces: list[ExecutionTrace] = []
        counts = []
        for k, circ in enumerate(plan):
            binary = compile_full(_sequence_schedule(circ, calib), [], shots, n_qubits=1)
            log.record(binary, cost_model, kind="full", label=f"m{circ.length}/c{k}")
            trace = execute(
                binary,
                run_seed=run_seed,
                iteration=k,
                depolarizing=depolarizing,
            )
            traces.append(trace)
            counts.append(trace.results[0].counts[0])
        all_traces = traces
    else:
        binary = clifford_pool(calib, shots)
        log.record(binary, cost_model, kind="pool", label="clifford-pool")
        collected = []

        def worker(results_buffer: RendezvousCell, parameter_buffer: RendezvousCell) -> None:
            for k in range(len(plan)):
                msg = results_buffer.take()
                collected.append(msg.counts[0])
                if k + 1 < len(plan):
                    parameter_buffer.put(CircuitBlock((plan[k + 1].elements,)))
            parameter_buffer.put(Sentinel())

        trace, _ = run_session(
            lambda handle: execute(
                binary,
                endpoint=handle,
                run_seed=run_seed,
                initial_circuits=[plan[0].elements],
                depolarizing=depolarizing,
                rpc_roundtrip_us=cost_model.rpc_roundtrip_s * 1e6,
            ),
            worker,
        )
        counts = collected
        all_traces = [trace]

    survivals = tuple(survival(c) for c in counts)
    by_length: dict[int, list[float]] = {}
    for circ, s in zip(plan, survivals):
        by_length.setdefault(circ.length, []).append(s)
    means = {m: float(np.mean(v)) for m, v in by_length.items()}
    fit = fit_decay(list(means), list(means.values()))
    return RbReport(
        mode=mode,
        lengths=tuple(c.length for c in plan),
        survivals=survivals,
        mean_by_length=means,
        fit=fit,
        costs=costs_from(log, all_traces),
        n_iterations=sum(t.n_iterations for t in all_traces),
    )
