import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import max_phase_aligned_deviation, random_circuit
from dlpc.ir import (
    Circuit,
    EmptyCounts,
    GateOp,
    Hamiltonian,
    IrError,
    MissingMeasurement,
    OracleTooLarge,
    PauliTerm,
    SlotRef,
    _apply_gate,
    _gate_plan,
    exact_ground_energy,
    expectation_from_counts,
    gate_matrix,
    op,
    statevector,
    term_expectation,
    unitary,
)


def test_ground_energy_oracle_values():
    h = Hamiltonian(2, [PauliTerm(1.0, "ZZ"), PauliTerm(0.5, "XI")])
    assert exact_ground_energy(h) == pytest.approx(-1.118033988749895, abs=1e-12)
    s3 = 1 / math.sqrt(3)
    h1 = Hamiltonian(1, [PauliTerm(s3, "X"), PauliTerm(s3, "Y"), PauliTerm(s3, "Z")])
    assert exact_ground_energy(h1) == pytest.approx(-1.0, abs=1e-12)


def test_term_expectation_uses_left_to_right_qubit_indexing():
    # character i of the Pauli string is qubit i, which is bit i of the outcome key
    assert term_expectation(PauliTerm(1.0, "ZI"), {0: 3, 1: 1}) == pytest.approx(0.5)
    assert term_expectation(PauliTerm(1.0, "IZ"), {2: 2, 0: 2}) == pytest.approx(0.0)
    assert term_expectation(PauliTerm(1.0, "ZZ"), {3: 5}) == pytest.approx(1.0)


def test_expectation_from_counts_combines_terms():
    h = Hamiltonian(1, [PauliTerm(2.0, "Z"), PauliTerm(-1.0, "X")])
    counts = {0: {0: 10}, 1: {1: 10}}
    assert expectation_from_counts(h, counts) == pytest.approx(2.0 + 1.0)
    with pytest.raises(MissingMeasurement):
        expectation_from_counts(h, {0: {0: 1}})
    with pytest.raises(EmptyCounts):
        term_expectation(PauliTerm(1.0, "Z"), {})


def test_term_expectation_rejects_keys_outside_the_register():
    with pytest.raises(IrError, match="outside"):
        term_expectation(PauliTerm(1.0, "ZI"), {0: 3, 4: 1})
    with pytest.raises(IrError, match="outside"):
        term_expectation(PauliTerm(1.0, "Z"), {2: 1})
    with pytest.raises(IrError, match="outside"):
        term_expectation(PauliTerm(1.0, "Z"), {-1: 1})
    assert term_expectation(PauliTerm(1.0, "IZ"), {3: 1}) == -1.0


def _reference_term(term, counts):
    """Plain scan: each key's parity on the term's support."""
    support = [q for q, c in enumerate(term.paulis) if c != "I"]
    total = sum(counts.values())
    even = sum(c for key, c in counts.items() if sum((key >> q) & 1 for q in support) % 2 == 0)
    return (2 * even - total) / total


def _reference_energy(ham, counts_by_term):
    """One term at a time, in term order."""
    energy = 0.0
    for i, term in enumerate(ham.terms):
        energy += term.coefficient * _reference_term(term, counts_by_term[i])
    return energy


@st.composite
def _energy_problems(draw):
    """A Hamiltonian over 1..8 qubits and its counts; terms share dicts, or read equal copies."""
    n = draw(st.integers(1, 8))
    term = st.builds(
        PauliTerm,
        st.floats(-10.0, 10.0, allow_nan=False),
        st.text("IXYZ", min_size=n, max_size=n),
    )
    terms = draw(st.lists(term, min_size=1, max_size=12))
    section = st.dictionaries(
        st.integers(0, 2**n - 1), st.integers(0, 2**40), min_size=1, max_size=40
    ).filter(lambda d: sum(d.values()) > 0)
    sections = draw(st.lists(section, min_size=1, max_size=4))
    counts_by_term = {}
    for i in range(len(terms)):
        counts = sections[draw(st.integers(0, len(sections) - 1))]
        counts_by_term[i] = dict(counts) if draw(st.booleans()) else counts
    return Hamiltonian(n, terms), counts_by_term


@settings(max_examples=200, deadline=None)
@given(_energy_problems())
def test_expectation_from_counts_equals_the_per_term_scan(problem):
    ham, counts_by_term = problem
    assert expectation_from_counts(ham, counts_by_term) == _reference_energy(ham, counts_by_term)
    for i, term in enumerate(ham.terms):
        assert term_expectation(term, counts_by_term[i]) == _reference_term(term, counts_by_term[i])


def test_expectation_from_counts_errors_on_shared_sections():
    h = Hamiltonian(2, [PauliTerm(1.0, "ZI"), PauliTerm(0.5, "IZ"), PauliTerm(0.3, "XX")])
    shared = {0: 4, 3: 2}
    with pytest.raises(MissingMeasurement):
        expectation_from_counts(h, {0: shared, 1: shared})
    with pytest.raises(EmptyCounts):
        expectation_from_counts(h, {0: shared, 1: shared, 2: {}})
    with pytest.raises(EmptyCounts):
        expectation_from_counts(h, {0: {1: 0}, 1: {1: 0}, 2: shared})
    outside = {0: 4, 4: 1}
    with pytest.raises(IrError, match="outside"):
        expectation_from_counts(h, {0: outside, 1: outside, 2: shared})


def test_negative_count_is_rejected():
    # packed per-term fields would borrow from each other
    h = Hamiltonian(1, [PauliTerm(1.0, "Z"), PauliTerm(1.0, "Z")])
    bad = {0: 3, 1: -1}
    with pytest.raises(IrError, match="negative"):
        expectation_from_counts(h, {0: bad, 1: bad})
    with pytest.raises(IrError, match="negative"):
        term_expectation(PauliTerm(1.0, "Z"), bad)


def _apply_gate_tensordot(state, mat, qubits, n):
    """Reference contraction through ``np.tensordot``; ``_apply_gate`` must match it bit for bit."""
    k = len(qubits)
    tensor = state.reshape([2] * n + list(state.shape[1:]))
    axes = [n - 1 - q for q in qubits]
    gate = mat.reshape([2] * (2 * k))
    tensor = np.tensordot(gate, tensor, axes=(list(range(k, 2 * k)), axes))
    tensor = np.moveaxis(tensor, list(range(k)), axes)
    return tensor.reshape(state.shape)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_gate_view_matches_tensordot_bit_for_bit(n, columns, seed):
    """Every arity and qubit order, adjacent or not, on vectors and unitary columns."""
    rng = np.random.default_rng(seed)

    def rand(dim):
        return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))

    gates = [((q,), rand(2)) for q in range(n)]
    xx = gate_matrix("XX", (rng.uniform(-math.pi, math.pi),))
    pair_mats = (xx, gate_matrix("CNOT", ()), rand(4))
    gates += [((a, b), m) for a in range(n) for b in range(n) if a != b for m in pair_mats]
    # both paths of _apply_gate: plans that skip the transposes and plans that take them
    assert {_gate_plan(q, n)[-1] for q, _ in gates} == ({True, False} if n > 1 else {True})
    for shape in ((2**n,), (2**n, columns)):
        state = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for qubits, mat in gates:
            got = _apply_gate(state, mat, qubits, n)
            want = _apply_gate_tensordot(state, mat, qubits, n)
            assert np.array_equal(got, want), (qubits, shape)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_gate_plan_permutes_rows_and_every_path_returns_a_fresh_array(n, columns, seed):
    """Every 1- and 2-qubit placement: ``scatter`` undoes ``gather``, and no result aliases its input."""
    rng = np.random.default_rng(seed)
    rows = np.arange(2**n)
    placements = [(q,) for q in range(n)] + [(a, b) for a in range(n) for b in range(n) if a != b]
    paths = set()
    for qubits in placements:
        gather, scatter, in_order = _gate_plan(qubits, n)
        k = len(qubits)
        assert gather.shape == (2**k, 2 ** (n - k))
        assert not (gather.flags.writeable or scatter.flags.writeable)  # cached for every caller
        assert np.array_equal(np.sort(gather, axis=None), rows)
        assert np.array_equal(gather.ravel()[scatter], rows)
        assert np.array_equal(scatter[gather.ravel()], rows)
        assert in_order == np.array_equal(gather.ravel(), rows)
        paths.add(in_order)
        mat = rng.standard_normal((2**k, 2**k)) + 1j * rng.standard_normal((2**k, 2**k))
        for shape in ((2**n,), (2**n, columns)):
            state = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            out = _apply_gate(state, mat, qubits, n)
            assert out.shape == state.shape
            assert not np.shares_memory(out, state), (qubits, shape)
    assert paths == ({True, False} if n > 1 else {True})


@given(st.floats(-20.0, 20.0))
def test_xx_matrix_matches_kron_formula(chi):
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    want = math.cos(chi) * np.eye(4, dtype=complex) - 1j * math.sin(chi) * np.kron(x, x)
    assert np.array_equal(gate_matrix("XX", (chi,)), want)


def test_statevector_gate_identities():
    flip = statevector(Circuit(1, [op("RY", 0, math.pi)]))
    assert np.allclose(flip, [0, 1], atol=1e-12)
    bell_like = statevector(Circuit(2, [op("XX", (0, 1), math.pi / 4)]))
    want = np.array([1 / math.sqrt(2), 0, 0, -1j / math.sqrt(2)])
    assert np.allclose(bell_like, want, atol=1e-12)
    # register convention: qubit 0 is the least significant statevector bit
    flipped_control = statevector(Circuit(2, [op("RX", 0, math.pi), op("CNOT", (0, 1))]))
    assert np.argmax(np.abs(flipped_control)) == 3


def test_r_gate_matrix_convention():
    ry = gate_matrix("R", (math.pi / 2, math.pi / 2))
    c = math.cos(math.pi / 4)
    assert np.allclose(ry, [[c, -c], [c, c]], atol=1e-12)
    rz = gate_matrix("RZ", (math.pi,))
    assert np.allclose(rz, np.diag([-1j, 1j]), atol=1e-12)


def test_unitary_matches_statevector():
    rng = np.random.default_rng(3)
    c = random_circuit(rng, 3, depth=20)
    u = unitary(c)
    sv = statevector(c)
    assert max_phase_aligned_deviation(u[:, 0], sv) < 1e-12


def test_norm_preserved_over_long_circuits():
    rng = np.random.default_rng(9)
    c = random_circuit(rng, 3, depth=1000)
    assert abs(np.linalg.norm(statevector(c)) - 1.0) <= 1e-10


def test_slots_and_binding():
    c = Circuit(1, [op("RY", 0, SlotRef(1)), op("RZ", 0, 0.5)])
    assert c.n_slots == 2
    b = c.bound([0.0, math.pi])
    assert b.n_slots == 0
    assert b.ops[0].params[0] == math.pi
    with pytest.raises(IrError):
        c.bound([0.0])
    with pytest.raises(IrError):
        statevector(c)


def test_validation_rejects_malformed_input():
    with pytest.raises(IrError):
        GateOp("HADAMARD", (0,))
    with pytest.raises(IrError):
        Circuit(2, [op("XX", (1, 1), 0.5)])
    with pytest.raises(IrError):
        Circuit(1, [op("RY", 3, 0.1)])
    with pytest.raises(IrError):
        op("MEASURE", (), basis="W")
    with pytest.raises(IrError):
        SlotRef(-1)
    with pytest.raises(IrError):
        PauliTerm(1.0, "ZQ")
    with pytest.raises(IrError):
        Hamiltonian(2, [PauliTerm(1.0, "Z")])


def test_oracles_enforce_qubit_limit():
    with pytest.raises(OracleTooLarge):
        statevector(Circuit(11, [op("RY", 0, 0.1)]))
    with pytest.raises(OracleTooLarge):
        exact_ground_energy(Hamiltonian(11, [PauliTerm(1.0, "Z" * 11)]))
