"""Machine-space sweep: how the compile-share ratio moves with gate speed.

A fixed four-qubit variational template (one shared angle, entangling chain,
100 iterations at 400 shots each) is priced on a grid of hypothetical
machines spanning one-qubit and two-qubit gate times.  Kernel structure and
therefore compile cost do not depend on gate speed, so both kernels are
built once; each grid point only rescales device time.  Device time charges
gate pulses alone: readout windows differ across platforms as much as gates
do, and folding one platform's readout into every point would drown the
scaling the sweep is meant to isolate.

The reported quantity is the ratio of the streaming pipeline's compile-time
fraction to the baseline's.  Slower gates stretch device time, which dilutes
the baseline's much larger compile bill faster than the streaming one, so
the ratio falls as gates slow down and the labeled trapped-ion point sits
below the superconducting one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..devcomp import CostModel, RunCosts, bake, compile_partial
from ..pulse import CalibrationDataset
from ..drivers.accounting import loop_costs
from ..drivers.vqe import VqeProblem, section_schedules
from ..ir import Circuit, Hamiltonian, PauliTerm, SlotRef, op

__all__ = [
    "CONTOUR_ITERATIONS",
    "CONTOUR_SHOTS_PER_ITERATION",
    "T1Q_RANGE_US",
    "T2Q_RANGE_US",
    "GRID_POINTS",
    "MachinePoint",
    "LABELED_MACHINES",
    "ContourReport",
    "contour_problem",
    "sweep_machines",
]

CONTOUR_ITERATIONS = 100
CONTOUR_SHOTS_PER_ITERATION = 400
T1Q_RANGE_US = (0.01, 10.0)
T2Q_RANGE_US = (0.1, 300.0)
GRID_POINTS = 13


@dataclass(frozen=True, slots=True)
class MachinePoint:
    name: str
    t_1q_us: float
    t_2q_us: float


LABELED_MACHINES = (
    MachinePoint("TI", 5.0, 150.0),
    MachinePoint("NA", 0.5, 1.0),
    MachinePoint("SC", 0.03, 0.3),
)


def contour_problem() -> VqeProblem:
    """Four qubits, one shared angle, three-link entangling chain."""
    ham = Hamiltonian(4, [PauliTerm(1.0, "ZZZZ")])
    ops = [op("RY", q, SlotRef(0)) for q in range(4)]
    ops += [op("XX", (q, q + 1), np.pi / 4) for q in range(3)]
    return VqeProblem(
        ham,
        Circuit(4, ops),
        x0=(0.5,),
        shots=CONTOUR_SHOTS_PER_ITERATION,
        max_evals=CONTOUR_ITERATIONS,
    )


@dataclass(slots=True)
class ContourReport:
    t_1q_us: tuple[float, ...]
    t_2q_us: tuple[float, ...]
    ratio: np.ndarray  # shape (len(t_2q), len(t_1q)), row-major over t_2q
    baseline_fraction: np.ndarray
    dlpc_fraction: np.ndarray
    machines: dict[str, dict[str, float]]
    machine_costs: dict[str, dict[str, RunCosts]]  # name -> mode -> ledger

    def to_json_dict(self) -> dict:
        return {
            "t_1q_us": list(self.t_1q_us),
            "t_2q_us": list(self.t_2q_us),
            "ratio": self.ratio.tolist(),
            "machines": self.machines,
        }


def _ratio(costs: dict[str, RunCosts]) -> float:
    f_base = costs["baseline"].compile_fraction
    f_dlpc = costs["dlpc"].compile_fraction
    if f_base == 0.0 and f_dlpc == 0.0:
        return 1.0  # nothing compiles in either pipeline: equal share
    return f_dlpc / f_base


def sweep_machines(
    *,
    cost_model: CostModel,
    t_1q_us: tuple[float, ...] | None = None,
    t_2q_us: tuple[float, ...] | None = None,
    iterations: int = CONTOUR_ITERATIONS,
) -> ContourReport:
    """Price the template across the gate-time grid plus the labeled points."""
    grid_1q = (
        tuple(np.geomspace(*T1Q_RANGE_US, GRID_POINTS)) if t_1q_us is None else t_1q_us
    )
    grid_2q = (
        tuple(np.geomspace(*T2Q_RANGE_US, GRID_POINTS)) if t_2q_us is None else t_2q_us
    )
    problem = contour_problem()
    calib = CalibrationDataset.default(problem.ansatz.n_qubits)
    schedules = section_schedules(problem, calib)
    partial = compile_partial(schedules, problem.shots, n_qubits=problem.ansatz.n_qubits)
    full = bake(partial, problem.x0)
    loops = {
        mode: loop_costs(mode, [cost_model.cost_of(kernel)], iterations)
        for mode, kernel in (("baseline", full), ("dlpc", partial))
    }

    n_1q = sum(1 for g in problem.ansatz.ops if g.kind in ("R", "RY", "RX"))
    n_2q = sum(1 for g in problem.ansatz.ops if g.kind == "XX")

    def ledgers(t1: float, t2: float) -> dict[str, RunCosts]:
        per_shot_us = n_1q * t1 + n_2q * t2
        device = RunCosts(device_s=iterations * problem.shots * per_shot_us * 1e-6)
        return {mode: loop + device for mode, loop in loops.items()}

    ratio = np.empty((len(grid_2q), len(grid_1q)))
    f_base_m = np.empty_like(ratio)
    f_dlpc_m = np.empty_like(ratio)
    for i, t2 in enumerate(grid_2q):
        for j, t1 in enumerate(grid_1q):
            costs = ledgers(t1, t2)
            f_base_m[i, j] = costs["baseline"].compile_fraction
            f_dlpc_m[i, j] = costs["dlpc"].compile_fraction
            ratio[i, j] = _ratio(costs)

    machines = {}
    machine_costs = {}
    for m in LABELED_MACHINES:
        costs = machine_costs[m.name] = ledgers(m.t_1q_us, m.t_2q_us)
        machines[m.name] = {
            "t_1q_us": m.t_1q_us,
            "t_2q_us": m.t_2q_us,
            "baseline_fraction": costs["baseline"].compile_fraction,
            "dlpc_fraction": costs["dlpc"].compile_fraction,
            "ratio": _ratio(costs),
        }

    return ContourReport(
        t_1q_us=tuple(float(t) for t in grid_1q),
        t_2q_us=tuple(float(t) for t in grid_2q),
        ratio=ratio,
        baseline_fraction=f_base_m,
        dlpc_fraction=f_dlpc_m,
        machines=machines,
        machine_costs=machine_costs,
    )
