import math

import numpy as np
import pytest

from conftest import max_phase_aligned_deviation, random_circuit
from dlpc import transpile as transpile_module
from dlpc.ir import GATE_ARITY, Circuit, GateOp, SlotRef, op, statevector, unitary
from dlpc.transpile import transpile

CNOT_DENSE = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
)  # register convention: qubit 0 (the control) is the least significant index bit


def slot_indices(circuit_ops):
    return {p.index for g in circuit_ops for p in g.params if isinstance(p, SlotRef)}


NATIVE_KINDS = {"R", "RZ", "XX", "MEASURE"}


@pytest.mark.parametrize("kind", sorted(GATE_ARITY))
def test_every_input_kind_lowers_to_native_ops(kind):
    n_qubits, n_params = GATE_ARITY[kind]
    g = op(kind, tuple(range(n_qubits)), *[0.3 + 0.4 * k for k in range(n_params)])
    c = Circuit(2, [g])
    mc = transpile(c)
    assert {h.kind for h in mc.native_ops} <= NATIVE_KINDS
    deviation = max_phase_aligned_deviation(
        unitary(mc.as_circuit()).reshape(-1), unitary(c).reshape(-1)
    )
    assert deviation < 1e-12


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
    assert mc.native_ops[0].params[1] == 0.0
    assert mc.native_ops[1].params[1] == math.pi / 2


def test_negative_literal_angles_wrap_into_range():
    mc = transpile(Circuit(1, [op("R", 0, -math.pi / 2, 0.0)]))
    (g,) = mc.native_ops
    assert g.params[0] == 3 * math.pi / 2
    got = statevector(mc.as_circuit())
    want = statevector(Circuit(1, [op("R", 0, -math.pi / 2, 0.0)]))
    assert max_phase_aligned_deviation(got, want) < 1e-12


def test_wrapped_literal_ops_pass_through_and_the_rest_are_rebuilt():
    kept = [op("R", 0, 0.0, math.pi), op("RZ", 1, 2 * math.pi - 1e-9), op("XX", (0, 1), 0.25)]
    rebuilt = [
        op("R", 0, 2 * math.pi + 0.5, 0.0),
        op("R", 0, 1.0, -0.5),
        op("RZ", 1, -0.0),
        op("XX", (0, 1), -math.pi / 4),
        op("RZ", 0, SlotRef(1)),
        op("R", 0, SlotRef(0), 0.5),
    ]

    def bits(params):  # float.hex tells -0.0 from 0.0
        return [p if isinstance(p, SlotRef) else p.hex() for p in params]

    mc = transpile(Circuit(2, kept + rebuilt))
    assert all(got is g for got, g in zip(mc.native_ops, kept))
    for got, g in zip(mc.native_ops[len(kept):], rebuilt):
        assert got is not g and (got.kind, got.qubits) == (g.kind, g.qubits)
        wrapped = [p if isinstance(p, SlotRef) else p % (2 * math.pi) for p in g.params]
        assert bits(got.params) == bits(wrapped)
    assert mc.native_ops[len(kept) + 2].params[0].hex() == "0x0.0p+0"


def test_each_distinct_op_is_lowered_once_per_call(monkeypatch):
    cnot, r, rz = op("CNOT", (0, 1)), op("R", 0, -0.5, 0.0), op("RZ", 1, SlotRef(0))
    twin = op("R", 0, -0.5, 0.0)  # equal to r, but another object
    ops = [cnot, r, rz, cnot, r, twin, cnot, op("MEASURE", (), basis="X")]
    calls = []
    lower_one = transpile_module._lower_one

    def counting(g):
        calls.append(g)
        return lower_one(g)

    monkeypatch.setattr(transpile_module, "_lower_one", counting)
    mc = transpile(Circuit(2, ops))
    assert [id(g) for g in calls] == [id(cnot), id(r), id(rz), id(twin)]
    # repeats share one lowering, which equals what lowering each copy gives
    assert mc.native_ops[:5] == mc.native_ops[7:12] == mc.native_ops[14:19]
    assert all(a is b for a, b in zip(mc.native_ops[:5], mc.native_ops[7:12]))
    monkeypatch.undo()
    copies = [GateOp(g.kind, g.qubits, g.params, g.basis) for g in ops]
    assert transpile(Circuit(2, copies)).native_ops == mc.native_ops


def test_slots_pass_through_unfolded():
    mc = transpile(Circuit(1, [op("RY", 0, SlotRef(0)), op("RZ", 0, SlotRef(2))]))
    assert mc.native_ops[0].kind == "R"
    assert mc.native_ops[0].params[0] == SlotRef(0)
    assert mc.native_ops[0].params[1] == math.pi / 2
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
