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

from dataclasses import dataclass

import numpy as np

from ..cliffords import CLIFFORD_COUNT, compose, inverse, n_pulses, native_ops
from ..devcomp import CostModel, KernelBinary, bake, compile_partial, compile_pool
from ..ir import Circuit, op
from ..pulse import CalibrationDataset, lower_to_pulses
from ..qpu import execute, rekey, shot_rng
from ..rpc import CircuitBlock
from ..transpile import transpile
from .accounting import RunCosts, run_loop
from .optimizers import bounded_min

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
    "check_lengths",
    "fit_decay",
    "p_oracle",
    "run_rb",
]

RB_LENGTHS = (2, 4, 8, 16, 32, 64, 128)
RB_CIRCUITS_PER_LENGTH = 10
RB_SHOTS = 100
RB_DEPOLARIZING = 0.0


@dataclass(frozen=True, slots=True)
class RbCircuit:
    length: int  # random elements drawn, excluding the closing inverse
    elements: tuple[int, ...]


def random_circuits(
    run_seed: int,
    lengths: tuple[int, ...] = RB_LENGTHS,
    per_length: int = RB_CIRCUITS_PER_LENGTH,
) -> list[RbCircuit]:
    """Inverse-closed random sequences, keyed so any circuit can be rebuilt.

    One generator, re-keyed per circuit: c of length index i reads the key
    ``(run_seed, (i << 32) | c)`` of ``qpu.shot_rng(run_seed, i, c)``.
    """
    circuits = []
    rng = shot_rng(run_seed, 0, 0)
    for idx_len, m in enumerate(lengths):
        for c in range(per_length):
            rekey(rng, run_seed, idx_len, c)
            seq = [int(e) for e in rng.integers(0, CLIFFORD_COUNT, size=m)]
            acc = 0
            for e in seq:
                acc = compose(e, acc)  # later elements multiply from the left
            circuits.append(RbCircuit(m, (*seq, inverse(acc))))
    return circuits


def _sequence_schedule(elements: tuple[int, ...], calib: CalibrationDataset):
    ops = [g for e in elements for g in native_ops(e, 0)]
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


# Decay grid that locates the best basin before the bounded search refines p:
# geometric in -ln p, so every length's p**m is resolved to about 10%.
_P_GRID = np.concatenate(([0.0], np.exp(-np.geomspace(10.0, 1e-4, 128)), [1.0]))


def _over(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def _project(u: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of u, the least-squares A u + B ~ y with A, B in [-1, 1].

    Returns (sse, A, B).  The problem is a convex quadratic in (A, B), so the
    free solve is the answer when it lands in the box; otherwise the answer
    lies on an edge, where the other coefficient is its clamped 1-D solve.
    Every candidate is clamped into the box, so the cheapest one is the answer.
    """
    ybar, ubar = y.mean(), u.mean(1)
    du = u - ubar[:, None]
    suu, uu = np.einsum("ij,ij->i", du, du), np.einsum("ij,ij->i", u, u)
    uy, usum = u @ y, u.sum(1)
    one = np.ones_like(ubar)
    a_free = _over(du @ (y - ybar), suu)
    a = np.stack([a_free, -one, one, _over(uy + usum, uu), _over(uy - usum, uu)], 1)
    b = np.stack([ybar - a_free * ubar, ybar + ubar, ybar - ubar, -one, one], 1)
    a, b = np.clip(a, -1.0, 1.0), np.clip(b, -1.0, 1.0)
    r = a[:, :, None] * u[:, None, :] + b[:, :, None] - y
    sse = np.einsum("ikj,ikj->ik", r, r)
    k, rows = sse.argmin(1), np.arange(len(u))
    return sse[rows, k], a[rows, k], b[rows, k]


def check_lengths(lengths: tuple[int, ...]) -> None:
    """Raise ``ValueError`` unless three distinct lengths fix the three fit parameters."""
    if len(set(lengths)) < 3:
        raise ValueError(f"need at least 3 distinct lengths to fit A p^m + B, got {list(lengths)}")


def fit_decay(lengths: list[int], survivals: list[float]) -> DecayFit:
    """Least-squares A p^m + B through per-length means, A, B in [-1, 1].

    Variable projection: for each p, A and B are a linear solve, so only p is
    searched, first on a grid and then by a bounded search between the best
    point's neighbours.  A flat curve has no decay information and a fit would
    chase noise there, so it short-circuits to p = 1.
    """
    xs = np.asarray(lengths, dtype=float)
    ys = np.asarray(survivals, dtype=float)
    if np.all(ys == ys[0]):
        return DecayFit(0.0, float(ys[0]), 1.0)
    i = int(_project(_P_GRID[:, None] ** xs, ys)[0].argmin())
    lo, hi = _P_GRID[max(i - 1, 0)], _P_GRID[min(i + 1, len(_P_GRID) - 1)]
    p = bounded_min(
        lambda p: float(_project(p ** xs[None, :], ys)[0][0]), float(lo), float(hi), xatol=1e-12
    )
    _, a, b = _project(p ** xs[None, :], ys)
    return DecayFit(float(a[0]), float(b[0]), p)


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
    depolarizing: float = RB_DEPOLARIZING,
    run_seed: int = 0,
    lengths: tuple[int, ...] = RB_LENGTHS,
    per_length: int = RB_CIRCUITS_PER_LENGTH,
    shots: int = RB_SHOTS,
) -> RbReport:
    check_lengths(lengths)
    if calib is None:
        calib = CalibrationDataset.default(1)
    plan = random_circuits(run_seed, lengths, per_length)
    counts: list[dict[int, int]] = []

    def host(fetch) -> None:
        for circ in plan:
            counts.append(fetch(CircuitBlock(circ.elements)).counts[0])

    costs, n_iterations, _ = run_loop(
        mode,
        host,
        cost_model=cost_model,
        build=lambda: clifford_pool(calib, shots),
        rebuild=lambda b: [
            bake(compile_partial(_sequence_schedule(b.circuit, calib), shots, n_qubits=1), [])
        ],
        run=lambda k, **kw: execute(k, run_seed=run_seed, depolarizing=depolarizing, **kw),
        transport="memory",
    )
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
        costs=costs,
        n_iterations=n_iterations,
    )
