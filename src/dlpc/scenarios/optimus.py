"""Calibration-graph maintenance woven through a long variational run.

A five-qubit, single-angle variational problem runs for a fixed SPSA budget
while the device's calibration state is tracked as a sparse acyclic graph.
After every energy evaluation one node is probed (a short check experiment);
with a probability set by the drift rate the probe fails, and the failing
node is recalibrated together with every ancestor whose own check fails.
Each such calibration event stales the compiled circuit kernel: the baseline
was recompiling per evaluation anyway, while the streaming pipeline must
rebuild its resident kernel, once per event.

Probes and calibration experiments are themselves device programs.  The
baseline compiles one sweep kernel per probe and per calibration experiment;
the streaming pipeline precompiles one probe kernel and one calibration
kernel up front and retargets them through parameter slots.

Probe targets, failure draws, and ancestor checks are shared across modes
and drift rates (common random numbers), so failure sets at a lower drift
rate are a subset of those at a higher rate for the same sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ..devcomp import CostModel, RunCosts, bake, check_mode, compile_partial
from ..ir import Hamiltonian, PauliTerm, Circuit, SlotRef, op
from ..pulse import CalibrationDataset
from ..qpu import execute
from ..drivers.accounting import loop_costs
from ..drivers.calibration import build_sweep_partial
from ..drivers.vqe import VqeProblem, section_schedules

__all__ = [
    "OPTIMUS_DRIFT_RATES",
    "OPTIMUS_SPSA_STEPS",
    "OPTIMUS_SHOTS",
    "OPTIMUS_GRAPH_NODES",
    "OptimusGraph",
    "SampleEvents",
    "DriftAggregate",
    "OptimusReport",
    "bond_angle_problem",
    "simulate_sample_events",
    "account_sample",
    "run_optimus",
]

OPTIMUS_DRIFT_RATES = (0.0, 0.005, 0.01, 0.02, 0.05)
OPTIMUS_SPSA_STEPS = 100
OPTIMUS_SHOTS = 1000
OPTIMUS_SAMPLES = 100
OPTIMUS_GRAPH_NODES = 12
PROBE_COST_FRACTION = 0.1
_EDGE_PROB = 0.25  # chance that a node depends on each earlier node
# The streaming pipeline's probe kernel and calibration kernel, compiled once.
_STANDING_SWEEP_KERNELS = 2


def bond_angle_problem(shots: int = OPTIMUS_SHOTS) -> VqeProblem:
    """Five qubits, one bond angle: shared rotation plus an entangling chain."""
    ham = Hamiltonian(5, [PauliTerm(1.0, "ZZZZZ")])
    ops = [op("RY", q, SlotRef(0)) for q in range(5)]
    ops += [op("XX", (q, q + 1), math.pi / 4) for q in range(4)]
    ansatz = Circuit(5, ops)
    return VqeProblem(
        ham, ansatz, x0=(0.5,), shots=shots, max_evals=2 * OPTIMUS_SPSA_STEPS + 1
    )


@dataclass(frozen=True, slots=True)
class OptimusGraph:
    """Sparse random DAG of calibration nodes; edges point at prerequisites."""

    parents: tuple[tuple[int, ...], ...]
    ancestors_of: tuple[tuple[int, ...], ...]
    sensitivity: tuple[float, ...]
    t_experiment_s: tuple[float, ...]
    experiments_per_cal: tuple[int, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.parents)

    @classmethod
    def random(cls, n_nodes: int = OPTIMUS_GRAPH_NODES, seed: int = 0) -> OptimusGraph:
        rng = np.random.Generator(np.random.Philox(key=[seed, 0xD46]))
        parents: list[tuple[int, ...]] = []
        ancestors: list[tuple[int, ...]] = []
        for j in range(n_nodes):
            mine = tuple(i for i in range(j) if rng.random() < _EDGE_PROB)
            parents.append(mine)
            seen: set[int] = set()
            frontier = list(mine)
            while frontier:
                a = frontier.pop()
                if a not in seen:
                    seen.add(a)
                    frontier.extend(parents[a])
            ancestors.append(tuple(sorted(seen)))
        return cls(
            parents=tuple(parents),
            ancestors_of=tuple(ancestors),
            sensitivity=tuple(rng.uniform(0.5, 1.5, n_nodes)),
            t_experiment_s=tuple(rng.uniform(1.0, 4.0, n_nodes)),
            experiments_per_cal=tuple(int(v) for v in rng.integers(10, 16, n_nodes)),
        )

    def fail_prob(self, node: int, drift_rate: float) -> float:
        return min(1.0, drift_rate * self.sensitivity[node])


@dataclass(frozen=True, slots=True)
class SampleEvents:
    """Mode-independent event trace of one sample at one drift rate."""

    n_evals: int
    probed: tuple[int, ...]  # node per evaluation
    calibrations: tuple[tuple[int, tuple[int, ...]], ...]  # (eval idx, nodes)

    @property
    def n_cal_events(self) -> int:
        return len(self.calibrations)

    @property
    def calibrated_nodes(self) -> tuple[int, ...]:
        return tuple(n for _, nodes in self.calibrations for n in nodes)


def simulate_sample_events(
    graph: OptimusGraph, drift_rate: float, *, n_evals: int, seed: int, sample: int
) -> SampleEvents:
    """Probe-and-repair trace; draws are keyed so drift only widens failures."""
    rng_t = np.random.Generator(np.random.Philox(key=[seed, 4 * sample]))
    rng_f = np.random.Generator(np.random.Philox(key=[seed, 4 * sample + 1]))
    rng_a = np.random.Generator(np.random.Philox(key=[seed, 4 * sample + 2]))
    targets = rng_t.integers(0, graph.n_nodes, n_evals)
    u_fail = rng_f.random(n_evals)
    u_anc = rng_a.random((n_evals, graph.n_nodes))

    calibrations = []
    for k in range(n_evals):
        node = int(targets[k])
        if u_fail[k] < graph.fail_prob(node, drift_rate):
            out_of_spec = tuple(
                a
                for a in graph.ancestors_of[node]
                if u_anc[k, a] < graph.fail_prob(a, drift_rate)
            )
            calibrations.append((k, (*out_of_spec, node)))
    return SampleEvents(
        n_evals=n_evals, probed=tuple(int(t) for t in targets), calibrations=tuple(calibrations)
    )


@dataclass(frozen=True, slots=True)
class _KernelPrices:
    circuit_full: RunCosts
    circuit_partial: RunCosts
    sweep_full: RunCosts
    sweep_partial: RunCosts
    busy_eval_s: float


def _prices(problem: VqeProblem, calib: CalibrationDataset, model: CostModel) -> _KernelPrices:
    schedules = section_schedules(problem, calib)
    partial = compile_partial(schedules, problem.shots, n_qubits=problem.ansatz.n_qubits)
    full = bake(partial, problem.x0)
    sweep_partial = build_sweep_partial(prep_us=calib.prep_us, detect_us=calib.detect_us)
    sweep_full = bake(sweep_partial, (0.0,) * sweep_partial.n_slots)
    trace = execute(full, cost_only=True)
    return _KernelPrices(
        circuit_full=model.cost_of(full),
        circuit_partial=model.cost_of(partial),
        sweep_full=model.cost_of(sweep_full),
        sweep_partial=model.cost_of(sweep_partial),
        busy_eval_s=trace.busy_us * 1e-6,
    )


def _cal_seconds(events: SampleEvents, graph: OptimusGraph) -> float:
    return sum(
        graph.experiments_per_cal[n] * graph.t_experiment_s[n]
        for n in events.calibrated_nodes
    )


def account_sample(
    events: SampleEvents, graph: OptimusGraph, mode: str, prices: _KernelPrices
) -> RunCosts:
    """Roll one event trace into the mode's ledger.

    Probes and calibration experiments run on the device, so their time is
    device time in both modes.
    """
    check_mode(mode)
    probe_s = sum(PROBE_COST_FRACTION * graph.t_experiment_s[n] for n in events.probed)
    cal_s = _cal_seconds(events, graph)
    n_sweeps = len(events.probed) + sum(
        graph.experiments_per_cal[n] for n in events.calibrated_nodes
    )

    if mode == "baseline":
        circuit, sweep = [prices.circuit_full], [prices.sweep_full]
    else:
        # the resident kernel is rebuilt as part of each calibration wrap-up,
        # so the next evaluation always starts hot
        circuit = [prices.circuit_partial] * (1 + events.n_cal_events)
        sweep = [prices.sweep_partial] * _STANDING_SWEEP_KERNELS
    return (
        loop_costs(mode, circuit, events.n_evals)
        + loop_costs(mode, sweep, n_sweeps)
        + RunCosts(device_s=events.n_evals * prices.busy_eval_s + probe_s + cal_s)
    )


@dataclass(frozen=True, slots=True)
class DriftAggregate:
    drift_rate: float
    mode: str
    mean_cal_s: float
    stderr_cal_s: float
    mean_compile_count: float
    stderr_compile_count: float
    mean_compile_fraction: float
    stderr_compile_fraction: float
    mean_total_s: float
    costs: RunCosts  # sum of the drift rate's sample ledgers

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "costs"}


@dataclass(slots=True)
class OptimusReport:
    drift_rates: tuple[float, ...]
    n_samples: int
    n_evals: int
    seed: int
    aggregates: list[DriftAggregate]
    cal_events: np.ndarray  # (n_drifts, n_samples)
    cal_s: np.ndarray
    baseline_compiles: np.ndarray
    dlpc_circuit_compiles: np.ndarray

    def aggregate(self, drift_rate: float, mode: str) -> DriftAggregate:
        for agg in self.aggregates:
            if agg.drift_rate == drift_rate and agg.mode == mode:
                return agg
        raise KeyError((drift_rate, mode))


def _stderr(values: np.ndarray) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(len(values)))


def run_optimus(
    *,
    cost_model: CostModel,
    calib: CalibrationDataset | None = None,
    drift_rates: tuple[float, ...] = OPTIMUS_DRIFT_RATES,
    n_samples: int = OPTIMUS_SAMPLES,
    n_nodes: int = OPTIMUS_GRAPH_NODES,
    spsa_steps: int = OPTIMUS_SPSA_STEPS,
    shots: int = OPTIMUS_SHOTS,
    seed: int = 0,
) -> OptimusReport:
    """Monte Carlo over graphs and probe draws, both modes on shared events."""
    problem = bond_angle_problem(shots)
    calib = calib if calib is not None else CalibrationDataset.default(5)
    prices = _prices(problem, calib, cost_model)
    n_evals = 2 * spsa_steps + 1

    n_d = len(drift_rates)
    cal_events = np.zeros((n_d, n_samples), dtype=int)
    cal_s = np.zeros((n_d, n_samples))
    base_compiles = np.zeros((n_d, n_samples), dtype=int)
    dlpc_circuit = np.zeros((n_d, n_samples), dtype=int)
    aggregates: list[DriftAggregate] = []

    for di, rate in enumerate(drift_rates):
        ledgers: dict[str, list[RunCosts]] = {"baseline": [], "dlpc": []}
        for s in range(n_samples):
            graph = OptimusGraph.random(n_nodes, seed=seed * 100003 + s)
            events = simulate_sample_events(
                graph, rate, n_evals=n_evals, seed=seed, sample=s
            )
            cal_events[di, s] = events.n_cal_events
            cal_s[di, s] = _cal_seconds(events, graph)
            for mode, samples in ledgers.items():
                samples.append(account_sample(events, graph, mode, prices))
            base_compiles[di, s] = ledgers["baseline"][-1].n_compiles
            dlpc_circuit[di, s] = ledgers["dlpc"][-1].n_compiles - _STANDING_SWEEP_KERNELS
        for mode, samples in ledgers.items():
            count = np.array([c.n_compiles for c in samples])
            frac = np.array([c.compile_fraction for c in samples])
            aggregates.append(
                DriftAggregate(
                    drift_rate=rate,
                    mode=mode,
                    mean_cal_s=float(cal_s[di].mean()),
                    stderr_cal_s=_stderr(cal_s[di]),
                    mean_compile_count=float(count.mean()),
                    stderr_compile_count=_stderr(count),
                    mean_compile_fraction=float(frac.mean()),
                    stderr_compile_fraction=_stderr(frac),
                    mean_total_s=float(np.mean([c.total_s for c in samples])),
                    costs=sum(samples, RunCosts()),
                )
            )

    return OptimusReport(
        drift_rates=tuple(drift_rates),
        n_samples=n_samples,
        n_evals=n_evals,
        seed=seed,
        aggregates=aggregates,
        cal_events=cal_events,
        cal_s=cal_s,
        baseline_compiles=base_compiles,
        dlpc_circuit_compiles=dlpc_circuit,
    )
