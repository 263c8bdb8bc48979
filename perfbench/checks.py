"""Output checks against references that skip the layers being measured.

Every check returns a list of failure messages; an empty list means the
outputs are right.  The energy oracle is the gate-level ``ir.statevector``:
it never touches transpile, pulse lowering, kernel codegen or the kernel VM,
and the Pauli expectations are computed here from the amplitudes rather than
through ``ir.term_expectation``.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from dlpc.drivers.rb import p_oracle
from dlpc.drivers.vqe import VqeProblem, measurement_sections
from dlpc.ir import Hamiltonian, statevector

ENERGY_SIGMAS = 6.0
RB_DEPOLARIZING = 0.01
# Fitted p over 12 seeds at 40 circuits per length and 100 shots scattered
# about p_oracle with a standard deviation near 0.0014; 0.01 is about 7 of them.
RB_P_TOLERANCE = 0.01


class EnergyOracle:
    """Exact Pauli expectations and energy of one Hamiltonian, from amplitudes.

    With qubit q on bit q of the amplitude index,
    P|i> = i^(#Y) (-1)^popcount(i & zy) |i ^ xy>, where xy marks the X and Y
    positions of P and zy its Z and Y positions.  The tables hold, per term,
    the partner index i ^ xy and the factor i^(#Y) (-1)^popcount(i & zy).
    """

    def __init__(self, hamiltonian: Hamiltonian) -> None:
        idx = np.arange(2**hamiltonian.n_qubits)
        partners, factors = [], []
        for term in hamiltonian.terms:
            xy = sum(1 << q for q, c in enumerate(term.paulis) if c in "XY")
            factor = np.full(idx.size, 1j ** term.paulis.count("Y"))
            for q, c in enumerate(term.paulis):
                if c in "ZY":
                    factor *= 1 - 2 * ((idx >> q) & 1)
            partners.append(idx ^ xy)
            factors.append(factor)
        self.partners = np.array(partners)
        self.factors = np.array(factors)
        self.coefficients = np.array([t.coefficient for t in hamiltonian.terms])

    def expectations(self, state: np.ndarray) -> np.ndarray:
        """<psi|P_i|psi> for every term i."""
        return np.real(np.sum(np.conj(state[self.partners]) * self.factors * state, axis=1))

    def energy(self, state: np.ndarray, shots: int) -> tuple[float, float]:
        """Exact energy and the shot-noise scale sum |c_i| sqrt((1 - <P_i>^2) / shots)."""
        p = self.expectations(state)
        sigma = np.abs(self.coefficients) @ np.sqrt(np.maximum(0.0, 1.0 - p * p) / shots)
        return float(self.coefficients @ p), float(sigma)


def exact_energies(problem: VqeProblem, trajectory) -> list[tuple[float, float]]:
    """(exact energy, shot-noise scale) at each evaluation's parameters."""
    oracle = EnergyOracle(problem.hamiltonian)
    return [
        oracle.energy(statevector(problem.ansatz, list(x)), problem.shots) for x, _ in trajectory
    ]


def check_energies(problem: VqeProblem, trajectory) -> list[str]:
    """Every evaluation's energy lies within ENERGY_SIGMAS of the exact energy."""
    failures = []
    for k, ((_, energy), (exact, sigma)) in enumerate(
        zip(trajectory, exact_energies(problem, trajectory))
    ):
        if not abs(energy - exact) <= ENERGY_SIGMAS * sigma:
            failures.append(
                f"evaluation {k}: energy {energy:.6f} vs exact {exact:.6f}, "
                f"{ENERGY_SIGMAS:g} sigma = {ENERGY_SIGMAS * sigma:.6f}"
            )
    return failures


def check_section_counts(problem: VqeProblem, counts_by_eval: Sequence[dict]) -> list[str]:
    """Every measurement section of every evaluation holds exactly ``shots`` counts."""
    sections = measurement_sections(problem.hamiltonian)
    failures = []
    for k, counts_by_term in enumerate(counts_by_eval):
        for s, (basis, term_ids) in enumerate(sections):
            total = sum(counts_by_term[term_ids[0]].values())
            if total != problem.shots:
                failures.append(
                    f"evaluation {k} section {s} ({basis}): {total} counts, expected {problem.shots}"
                )
    return failures


def check_rb(p: float, n_compiles: int, n_circuits: int) -> list[str]:
    """Fitted decay near the oracle, and one compile per circuit."""
    failures = []
    ref = p_oracle(RB_DEPOLARIZING)
    if not abs(p - ref) <= RB_P_TOLERANCE:
        failures.append(f"fitted p {p:.6f} vs oracle {ref:.6f}, tolerance {RB_P_TOLERANCE}")
    if n_compiles != n_circuits:
        failures.append(f"{n_compiles} compiles for {n_circuits} circuits")
    return failures


def digest(values) -> str:
    """Bit-exact digest of a sequence of floats."""
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()[:16]
