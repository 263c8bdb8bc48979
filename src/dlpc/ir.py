"""Gate-level IR: slot-parameterized circuits, Pauli-sum Hamiltonians, exact references.

Contents:
- ``SlotRef`` / ``Literal``: gate parameters, either bound now or left as runtime slots
- ``GateOp`` / ``Circuit``: the input representation accepted by the transpiler
- ``PauliTerm`` / ``Hamiltonian``: observables measured one term per circuit variant
- ``expectation_from_counts``: estimator combining per-term counts
- ``exact_ground_energy`` / ``statevector`` / ``unitary``: dense references used as oracles

Conventions, fixed for everything downstream:
- Pauli strings are qubit-indexed left to right: character ``i`` refers to qubit ``i``.
- Measuring X means conjugating by RY(-pi/2) before a Z readout; Y means RX(pi/2).
- Counts map term index -> {outcome key: count}.  An outcome key is an integer
  covering the full register, with qubit q's readout on bit q, so a key is
  also the outcome's state-vector index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "IrError",
    "MissingMeasurement",
    "EmptyCounts",
    "OracleTooLarge",
    "SlotRef",
    "Literal",
    "ParamValue",
    "GateOp",
    "Circuit",
    "PauliTerm",
    "Hamiltonian",
    "expectation_from_counts",
    "term_expectation",
    "exact_ground_energy",
    "gate_matrix",
    "statevector",
    "unitary",
]

ORACLE_QUBIT_LIMIT = 10

# Gate kinds accepted on input.  R carries (theta, phi); XX carries the coupling
# angle chi; CNOT takes no parameter and is decomposed by the transpiler.
GATE_ARITY = {
    "RX": (1, 1),  # (n_qubits, n_params)
    "RY": (1, 1),
    "RZ": (1, 1),
    "R": (1, 2),
    "XX": (2, 1),
    "CNOT": (2, 0),
    "MEASURE": (0, 0),  # qubit list empty: measures the full register
}

BASES = ("Z", "X", "Y")


class IrError(ValueError):
    """Malformed circuit, Hamiltonian, or counts."""


class MissingMeasurement(IrError):
    """A term's counts were requested but no counts entry exists for it."""


class EmptyCounts(IrError):
    """A counts dictionary with zero total shots."""


class OracleTooLarge(IrError):
    """Dense reference computation requested above the qubit limit."""


@dataclass(frozen=True, slots=True)
class SlotRef:
    """A parameter left unbound at compile time, filled per iteration at runtime."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise IrError(f"slot index must be >= 0, got {self.index}")


@dataclass(frozen=True, slots=True)
class Literal:
    value: float


ParamValue = SlotRef | Literal


def _as_param(x: ParamValue | float | int) -> ParamValue:
    if isinstance(x, (SlotRef, Literal)):
        return x
    return Literal(float(x))


@dataclass(frozen=True, slots=True)
class GateOp:
    kind: str
    qubits: tuple[int, ...]
    params: tuple[ParamValue, ...] = ()
    basis: str = "Z"  # MEASURE only

    def __post_init__(self) -> None:
        if self.kind not in GATE_ARITY:
            raise IrError(f"unknown gate kind {self.kind!r}")
        nq, np_ = GATE_ARITY[self.kind]
        if self.kind != "MEASURE" and len(self.qubits) != nq:
            raise IrError(f"{self.kind} expects {nq} qubit(s), got {self.qubits}")
        if len(self.params) != np_:
            raise IrError(f"{self.kind} expects {np_} param(s), got {len(self.params)}")
        if self.kind == "MEASURE" and self.basis not in BASES:
            raise IrError(f"measurement basis must be one of {BASES}, got {self.basis!r}")


def op(kind: str, qubits: int | tuple[int, ...], *params: ParamValue | float, basis: str = "Z") -> GateOp:
    """Convenience constructor: ``op("RY", 0, SlotRef(0))``."""
    q = (qubits,) if isinstance(qubits, int) else tuple(qubits)
    return GateOp(kind, q, tuple(_as_param(p) for p in params), basis=basis)


@dataclass(slots=True)
class Circuit:
    n_qubits: int
    ops: list[GateOp] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise IrError("circuit needs at least one qubit")
        for g in self.ops:
            for q in g.qubits:
                if not 0 <= q < self.n_qubits:
                    raise IrError(f"{g.kind} on qubit {q} outside register of {self.n_qubits}")
            if g.kind == "XX" and g.qubits[0] == g.qubits[1]:
                raise IrError("XX needs two distinct qubits")
            if g.kind == "CNOT" and g.qubits[0] == g.qubits[1]:
                raise IrError("CNOT needs two distinct qubits")

    @property
    def n_slots(self) -> int:
        """1 + highest slot index referenced; 0 when fully bound."""
        top = -1
        for g in self.ops:
            for p in g.params:
                if isinstance(p, SlotRef):
                    top = max(top, p.index)
        return top + 1

    def bound(self, slot_values: list[float]) -> Circuit:
        """Substitute every SlotRef with its value."""
        if len(slot_values) < self.n_slots:
            raise IrError(f"need {self.n_slots} slot values, got {len(slot_values)}")
        ops = []
        for g in self.ops:
            ps = tuple(Literal(float(slot_values[p.index])) if isinstance(p, SlotRef) else p for p in g.params)
            ops.append(GateOp(g.kind, g.qubits, ps, basis=g.basis))
        return Circuit(self.n_qubits, ops)


@dataclass(frozen=True, slots=True)
class PauliTerm:
    coefficient: float
    paulis: str  # one of IXYZ per qubit, character i = qubit i

    def __post_init__(self) -> None:
        if not self.paulis or any(c not in "IXYZ" for c in self.paulis):
            raise IrError(f"bad Pauli string {self.paulis!r}")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.paulis) if c != "I")


@dataclass(slots=True)
class Hamiltonian:
    n_qubits: int
    terms: list[PauliTerm]

    def __post_init__(self) -> None:
        if not self.terms:
            raise IrError("Hamiltonian needs at least one term")
        for t in self.terms:
            if len(t.paulis) != self.n_qubits:
                raise IrError(f"term {t.paulis!r} length != {self.n_qubits} qubits")

    @property
    def coefficient_norm(self) -> float:
        return sum(abs(t.coefficient) for t in self.terms)


def term_expectation(term: PauliTerm, counts: dict[int, int]) -> float:
    """<P> from Z-readout counts taken after the term's basis rotations.

    The eigenvalue of an outcome is (-1) to the parity of its bits on the
    term's support, so <P> = (even - odd) / total = (2 * even - total) / total.
    """
    total = sum(counts.values())
    if total <= 0:
        raise EmptyCounts(f"no shots recorded for term {term.paulis!r}")
    n = len(term.paulis)
    if min(counts) < 0 or max(counts) >> n:
        raise IrError(f"outcome key outside the {n}-qubit register of {term.paulis!r}")
    mask = sum(1 << q for q in term.support)
    even = sum(c for key, c in counts.items() if not (key & mask).bit_count() & 1)
    return (2 * even - total) / total


def expectation_from_counts(ham: Hamiltonian, counts_by_term: dict[int, dict[int, int]]) -> float:
    """Energy estimate: sum of c_i * <P_i>, one counts entry per term."""
    energy = 0.0
    for i, term in enumerate(ham.terms):
        if i not in counts_by_term:
            raise MissingMeasurement(f"no counts for term {i} ({term.paulis})")
        energy += term.coefficient * term_expectation(term, counts_by_term[i])
    return energy


_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_EYE4 = np.eye(4, dtype=complex)
_XX = np.kron(_PAULI_MATS["X"], _PAULI_MATS["X"])


def _term_matrix(term: PauliTerm) -> np.ndarray:
    # Statevector index encodes qubit q as bit (i >> q) & 1, so qubit 0 is the
    # last kron factor.
    m = np.array([[1.0 + 0j]])
    for c in reversed(term.paulis):
        m = np.kron(m, _PAULI_MATS[c])
    return m


def exact_ground_energy(ham: Hamiltonian) -> float:
    """Minimum eigenvalue by dense diagonalization. Oracle only; <= 10 qubits."""
    if ham.n_qubits > ORACLE_QUBIT_LIMIT:
        raise OracleTooLarge(f"{ham.n_qubits} qubits exceeds oracle limit {ORACLE_QUBIT_LIMIT}")
    dim = 2**ham.n_qubits
    h = np.zeros((dim, dim), dtype=complex)
    for t in ham.terms:
        h += t.coefficient * _term_matrix(t)
    return float(np.linalg.eigvalsh(h)[0])


def gate_matrix(kind: str, params: tuple[float, ...]) -> np.ndarray:
    """Dense unitary for a fully bound gate."""
    if kind == "R":
        theta, phi = params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array(
            [[c, -1j * np.exp(-1j * phi) * s], [-1j * np.exp(1j * phi) * s, c]], dtype=complex
        )
    if kind == "RX":
        return gate_matrix("R", (params[0], 0.0))
    if kind == "RY":
        return gate_matrix("R", (params[0], math.pi / 2))
    if kind == "RZ":
        (theta,) = params
        return np.array([[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]], dtype=complex)
    if kind == "XX":
        (chi,) = params
        return math.cos(chi) * _EYE4 - 1j * math.sin(chi) * _XX
    if kind == "CNOT":
        return np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
    raise IrError(f"no dense matrix for {kind!r}")


def _apply_gate(state: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Apply a k-qubit gate to the given qubits of a state vector (or unitary columns).

    Qubit q lives on tensor axis n-1-q; extra trailing axes (unitary columns) ride along.
    The gate's most significant index bit corresponds to qubits[0].

    A one-qubit gate goes through a (2^(n-q-1), 2, rest) view of the state.  It
    hands ``np.dot`` the operand ``tensordot`` would build, a C-contiguous
    (2, 2^(n-1) * columns) copy with qubit q's axis first and the others in
    order, so the amplitudes come out bit for bit the same, only without
    tensordot's axis bookkeeping.
    """
    if len(qubits) == 1:
        high = 2 ** (n - 1 - qubits[0])
        operand = state.reshape(high, 2, -1).transpose(1, 0, 2).reshape(2, -1)
        out = np.dot(mat, np.ascontiguousarray(operand))
        return out.reshape(2, high, -1).transpose(1, 0, 2).reshape(state.shape)
    k = len(qubits)
    tensor = state.reshape([2] * n + list(state.shape[1:]))
    axes = [n - 1 - q for q in qubits]
    gate = mat.reshape([2] * (2 * k))
    tensor = np.tensordot(gate, tensor, axes=(list(range(k, 2 * k)), axes))
    tensor = np.moveaxis(tensor, list(range(k)), axes)
    return tensor.reshape(state.shape)


def statevector(circuit: Circuit, slot_values: list[float] | None = None) -> np.ndarray:
    """Final state from |0...0>, ignoring MEASURE ops. Oracle only; <= 10 qubits."""
    if circuit.n_qubits > ORACLE_QUBIT_LIMIT:
        raise OracleTooLarge(f"{circuit.n_qubits} qubits exceeds oracle limit {ORACLE_QUBIT_LIMIT}")
    c = circuit.bound(slot_values) if slot_values is not None else circuit
    if c.n_slots:
        raise IrError("statevector needs a fully bound circuit")
    state = np.zeros(2**c.n_qubits, dtype=complex)
    state[0] = 1.0
    for g in c.ops:
        if g.kind == "MEASURE":
            continue
        vals = tuple(p.value for p in g.params)  # type: ignore[union-attr]
        state = _apply_gate(state, gate_matrix(g.kind, vals), g.qubits, c.n_qubits)
    return state


def unitary(circuit: Circuit, slot_values: list[float] | None = None) -> np.ndarray:
    """Dense unitary of the whole circuit, MEASURE ops ignored. Oracle only."""
    if circuit.n_qubits > ORACLE_QUBIT_LIMIT:
        raise OracleTooLarge(f"{circuit.n_qubits} qubits exceeds oracle limit {ORACLE_QUBIT_LIMIT}")
    c = circuit.bound(slot_values) if slot_values is not None else circuit
    if c.n_slots:
        raise IrError("unitary needs a fully bound circuit")
    dim = 2**c.n_qubits
    u = np.eye(dim, dtype=complex)
    for g in c.ops:
        if g.kind == "MEASURE":
            continue
        vals = tuple(p.value for p in g.params)  # type: ignore[union-attr]
        u = _apply_gate(u, gate_matrix(g.kind, vals), g.qubits, c.n_qubits)
    return u

