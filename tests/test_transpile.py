import math

import numpy as np

from conftest import max_phase_aligned_deviation, random_circuit
from dlpc.ir import Circuit, Literal, SlotRef, op, statevector, unitary
from dlpc.transpile import transpile

CNOT_DENSE = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
)  # register convention: qubit 0 (the control) is the least significant index bit


def slot_indices(circuit_ops):
    return {p.index for g in circuit_ops for p in g.params if isinstance(p, SlotRef)}


def test_cnot_decomposes_to_one_xx_and_four_rotations():
    mc = transpile(Circuit(2, [op("CNOT", (0, 1))]))
    kinds = [g.kind for g in mc.native_ops]
    assert kinds.count("XX") == 1
    assert len(mc.native_ops) == 5
    u = unitary(mc.as_circuit())
    assert max_phase_aligned_deviation(u.reshape(-1), CNOT_DENSE.reshape(-1)) < 1e-12


def test_rx_ry_become_r_with_fixed_phase():
    mc = transpile(Circuit(1, [op("RX", 0, 1.3), op("RY", 0, 0.7)]))
    assert [g.kind for g in mc.native_ops] == ["R", "R"]
    assert mc.native_ops[0].params[1] == Literal(0.0)
    assert mc.native_ops[1].params[1] == Literal(math.pi / 2)


def test_negative_literal_angles_wrap_into_range():
    mc = transpile(Circuit(1, [op("R", 0, -math.pi / 2, 0.0)]))
    (g,) = mc.native_ops
    assert g.params[0] == Literal(3 * math.pi / 2)
    got = statevector(mc.as_circuit())
    want = statevector(Circuit(1, [op("R", 0, -math.pi / 2, 0.0)]))
    assert max_phase_aligned_deviation(got, want) < 1e-12


def test_slots_pass_through_unfolded():
    mc = transpile(Circuit(1, [op("RY", 0, SlotRef(0)), op("RZ", 0, SlotRef(2))]))
    assert mc.native_ops[0].kind == "R"
    assert mc.native_ops[0].params[0] == SlotRef(0)
    assert mc.native_ops[0].params[1] == Literal(math.pi / 2)
    assert slot_indices(mc.native_ops) == {0, 2}


def test_random_circuits_unitary_equivalent():
    # Acceptance property: 500 random circuits on <= 4 qubits, deviation <= 1e-9.
    rng = np.random.default_rng(20260817)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 5))
        c = random_circuit(rng, n, depth=int(rng.integers(1, 13)))
        mc = transpile(c)
        dev = max_phase_aligned_deviation(statevector(mc.as_circuit()), statevector(c))
        worst = max(worst, dev)
    assert worst <= 1e-9


def test_deterministic_serialization_across_runs_and_seeds():
    c = Circuit(3, [op("CNOT", (0, 2)), op("RY", 1, SlotRef(0)), op("MEASURE", ())])
    first = transpile(c)
    second = transpile(c)
    assert first.native_ops == second.native_ops
    assert first.n_qubits == second.n_qubits == 3


def test_empty_circuit_maps_to_empty_sequence():
    mc = transpile(Circuit(1, []))
    assert mc.native_ops == []


def test_basis_x_measure_prepends_rotations():
    mc = transpile(Circuit(2, [op("MEASURE", (), basis="X")]))
    kinds = [g.kind for g in mc.native_ops]
    assert kinds == ["R", "R", "MEASURE"]
    assert mc.native_ops[-1].basis == "Z"
    # the rotation maps |+> to |0>, so X eigenstates read out deterministically
    plus = Circuit(1, [op("RY", 0, math.pi / 2), op("MEASURE", (), basis="X")])
    state = statevector(transpile(plus).as_circuit())
    assert abs(abs(state[0]) - 1.0) < 1e-12


def test_basis_y_measure_prepends_rotations():
    plus_i = Circuit(1, [op("RX", 0, -math.pi / 2), op("MEASURE", (), basis="Y")])
    state = statevector(transpile(plus_i).as_circuit())
    assert abs(abs(state[0]) - 1.0) < 1e-12
