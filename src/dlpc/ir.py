"""Gate-level IR: slot-parameterized circuits, Pauli-sum Hamiltonians, exact references.

Contents:
- ``SlotRef``: a gate parameter left as a runtime slot; a bound one is a ``float``
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

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "IrError",
    "MissingMeasurement",
    "EmptyCounts",
    "OracleTooLarge",
    "SlotRef",
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


ParamValue = SlotRef | float


def _as_param(x: ParamValue | int) -> ParamValue:
    return x if isinstance(x, SlotRef) else float(x)


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
            ps = tuple(float(slot_values[p.index]) if isinstance(p, SlotRef) else p for p in g.params)
            ops.append(GateOp(g.kind, g.qubits, ps, basis=g.basis))
        return Circuit(self.n_qubits, ops)


@dataclass(frozen=True, slots=True)
class PauliTerm:
    coefficient: float
    paulis: str  # one of IXYZ per qubit, character i = qubit i
    # bit q set where qubit q carries a non-identity Pauli; derived from paulis
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.paulis or any(c not in "IXYZ" for c in self.paulis):
            raise IrError(f"bad Pauli string {self.paulis!r}")
        mask = sum(1 << i for i, c in enumerate(self.paulis) if c != "I")
        object.__setattr__(self, "mask", mask)


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


class _ParityTable(dict):
    """Outcome key -> packed parities, filled on first lookup.

    Field t, ``width`` bits wide from bit ``t * width``, is 1 where the key
    is odd on ``masks[t]``.  A key is checked against the ``n``-qubit
    register when it is first looked up, so every key stored is in range.
    """

    __slots__ = ("masks", "width", "n")

    def __init__(self, masks: tuple[int, ...], width: int, n: int) -> None:
        super().__init__()
        self.masks = masks
        self.width = width
        self.n = n

    def __missing__(self, key: int) -> int:
        if key < 0 or key >> self.n:
            raise IrError(f"outcome key {key} outside the {self.n}-qubit register")
        packed = 0
        for t, mask in enumerate(self.masks):
            packed |= ((key & mask).bit_count() & 1) << (t * self.width)
        self[key] = packed
        return packed


@functools.lru_cache(maxsize=256)
def _parity_table(masks: tuple[int, ...], width: int, n: int) -> _ParityTable:
    return _ParityTable(masks, width, n)


def _section_expectations(
    masks: list[int], counts: dict[int, int], n: int, name: str
) -> list[float]:
    """<P> of the terms with these masks from one section's counts, in one pass.

    Each count is added, times its key's packed parities, to one integer
    whose field t counts the outcomes odd on ``masks[t]``.  A field is
    ``total.bit_length()`` bits wide and never exceeds ``total``, so no carry
    crosses into the next field; a negative count would borrow from its
    neighbour, so it is rejected.  ``name`` is the Pauli string errors name.
    """
    total = sum(counts.values())
    if total <= 0:
        raise EmptyCounts(f"no shots recorded for term {name!r}")
    if min(counts.values()) < 0:
        raise IrError(f"negative count in the counts of {name!r}")
    width = total.bit_length()
    table = _parity_table(tuple(masks), width, n)
    packed = sum(map(operator.mul, counts.values(), map(table.__getitem__, counts)))
    field_mask = (1 << width) - 1
    out = []
    for _ in masks:
        out.append((total - 2 * (packed & field_mask)) / total)
        packed >>= width
    return out


def term_expectation(term: PauliTerm, counts: dict[int, int]) -> float:
    """<P> from Z-readout counts taken after the term's basis rotations.

    The eigenvalue of an outcome is (-1) to the parity of its bits on the
    term's support, so <P> = (even - odd) / total = (total - 2 * odd) / total.
    """
    return _section_expectations([term.mask], counts, len(term.paulis), term.paulis)[0]


def expectation_from_counts(ham: Hamiltonian, counts_by_term: dict[int, dict[int, int]]) -> float:
    """Energy estimate: sum of c_i * <P_i>, one counts entry per term.

    Terms are grouped by the counts dict they read (the same object, as one
    measurement section hands to every term it measures), and each group
    takes one pass over its keys: ``sum(count * table[key])`` packs the odd
    outcomes of every term in the group into one integer, one field per
    term (see ``_section_expectations``).  The table from key to packed
    parities is cached per (masks, field width) and filled as keys appear.
    The energy is then summed in term order, c_i * <P_i> one term at a time.
    """
    terms = ham.terms
    sections: dict[int, tuple[dict[int, int], list[int], list[int]]] = {}
    for i, term in enumerate(terms):
        if i not in counts_by_term:
            raise MissingMeasurement(f"no counts for term {i} ({term.paulis})")
        counts = counts_by_term[i]
        section = sections.get(id(counts))
        if section is None:
            sections[id(counts)] = (counts, [i], [term.mask])
        else:
            section[1].append(i)
            section[2].append(term.mask)
    values = [0.0] * len(terms)
    for counts, ids, masks in sections.values():
        name = terms[ids[0]].paulis
        for i, value in zip(ids, _section_expectations(masks, counts, ham.n_qubits, name)):
            values[i] = value
    energy = 0.0
    for term, value in zip(terms, values):
        energy += term.coefficient * value
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


@functools.lru_cache(maxsize=None)
def _gate_plan(qubits: tuple[int, ...], n: int) -> tuple:
    """``(gather, scatter, in_order)`` for ``_apply_gate``; see there."""
    axes = [n - 1 - q for q in qubits]
    order = axes + [a for a in range(n) if a not in axes]
    gather = np.arange(2**n).reshape((2,) * n).transpose(order).reshape(2 ** len(qubits), -1)
    scatter = gather.argsort(axis=None)  # the inverse permutation, flattened
    gather.flags.writeable = scatter.flags.writeable = False  # shared by every caller
    return gather, scatter, bool((scatter == np.arange(2**n)).all())


def _apply_gate(state: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Apply a k-qubit gate to the given qubits of a state vector (or unitary columns).

    Qubit q is bit q of a state row; unitary columns ride along on axis 1.
    The gate's most significant index bit corresponds to qubits[0].

    Each ``(qubits, n)`` is planned once.  ``gather`` lays the state rows out
    as ``(2^k, 2^(n-k))``, target bits first in ``qubits`` order, then the
    other bits in order: the operand, layout included, that NumPy's tensor-dot
    contraction builds, so amplitudes are bit for bit those of the reference
    contraction in the tests.  Indexing with ``gather`` copies it out,
    ``np.dot`` contracts it, and indexing with ``scatter``, the inverse
    permutation, puts the product back in a fresh array, as every path
    returns.  A plan is ``in_order`` when ``gather`` is ``range(2^n)`` (a gate
    on the top qubit, as in any 1-qubit register, or on the top two as
    ``(hi, lo)``): ``state.reshape(2^k, -1)`` then is that operand, so both
    copies are skipped with the same bits; on a whole-register vector so is
    the reshape, as NumPy's gemv gives it the column's bits.
    """
    gather, scatter, in_order = _gate_plan(qubits, n)
    if in_order:
        if state.shape == (len(mat),):
            return np.dot(mat, state)
        return np.dot(mat, state.reshape(len(mat), -1)).reshape(state.shape)
    if state.ndim == 1:
        return np.dot(mat, state[gather]).ravel()[scatter]
    return np.dot(mat, state[gather].reshape(len(mat), -1)).reshape(state.shape)[scatter]


def _evolve(circuit: Circuit, slot_values: list[float] | None, columns: bool) -> np.ndarray:
    """|0...0>, or with ``columns`` the identity, through every gate; MEASURE ops ignored."""
    if circuit.n_qubits > ORACLE_QUBIT_LIMIT:
        raise OracleTooLarge(f"{circuit.n_qubits} qubits exceeds oracle limit {ORACLE_QUBIT_LIMIT}")
    c = circuit.bound(slot_values) if slot_values is not None else circuit
    if c.n_slots:
        raise IrError(f"{'unitary' if columns else 'statevector'} needs a fully bound circuit")
    dim = 2**c.n_qubits
    state = np.eye(dim, dtype=complex) if columns else np.eye(1, dim, dtype=complex)[0]
    for g in c.ops:
        if g.kind != "MEASURE":
            state = _apply_gate(state, gate_matrix(g.kind, g.params), g.qubits, c.n_qubits)
    return state


def statevector(circuit: Circuit, slot_values: list[float] | None = None) -> np.ndarray:
    """Final state from |0...0>, ignoring MEASURE ops. Oracle only; <= 10 qubits."""
    return _evolve(circuit, slot_values, columns=False)


def unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the whole circuit, MEASURE ops ignored. Oracle only."""
    return _evolve(circuit, None, columns=True)
