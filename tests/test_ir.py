import math

import numpy as np
import pytest

from conftest import max_phase_aligned_deviation, random_circuit
from dlpc.ir import (
    Circuit,
    EmptyCounts,
    GateOp,
    Hamiltonian,
    IrError,
    Literal,
    MissingMeasurement,
    OracleTooLarge,
    PauliTerm,
    SlotRef,
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
    # character i of the bitstring is qubit i
    assert term_expectation(PauliTerm(1.0, "ZI"), {"00": 3, "10": 1}) == pytest.approx(0.5)
    assert term_expectation(PauliTerm(1.0, "IZ"), {"01": 2, "00": 2}) == pytest.approx(0.0)
    assert term_expectation(PauliTerm(1.0, "ZZ"), {"11": 5}) == pytest.approx(1.0)


def test_expectation_from_counts_combines_terms():
    h = Hamiltonian(1, [PauliTerm(2.0, "Z"), PauliTerm(-1.0, "X")])
    counts = {0: {"0": 10}, 1: {"1": 10}}
    assert expectation_from_counts(h, counts) == pytest.approx(2.0 + 1.0)
    with pytest.raises(MissingMeasurement):
        expectation_from_counts(h, {0: {"0": 1}})
    with pytest.raises(EmptyCounts):
        term_expectation(PauliTerm(1.0, "Z"), {})


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
    assert b.ops[0].params[0] == Literal(math.pi)
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
