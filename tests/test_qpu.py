"""Kernel VM: simulated clock, sampling, drift physics, RPC-driven iteration."""

from __future__ import annotations

import math

import pytest
from conftest import objective_worker, run_within

from dlpc.cliffords import compose, inverse, native_ops
from dlpc.devcomp import (
    Instr,
    KernelBinary,
    KernelMode,
    Opcode,
    SlotArityError,
    compile_full,
    compile_partial,
)
from dlpc.drivers.rb import clifford_pool
from dlpc.ir import Circuit, SlotRef, op
from dlpc.pulse import DEFAULT_RABI, CalibrationDataset, lower_to_pulses
from dlpc.qpu import TooManyQubits, UninitializedSlot, VmError, execute
from dlpc.rpc import CircuitBlock, Params, ProtocolError, Results, Sentinel, run_session
from dlpc.transpile import transpile


@pytest.fixture
def calib() -> CalibrationDataset:
    return CalibrationDataset.default(2)


def _schedule(circuit: Circuit, calib: CalibrationDataset):
    return lower_to_pulses(transpile(circuit), calib)


def _stream(binary, objective, **execute_kwargs):
    """Execute a streamed kernel against objective; returns its trace."""
    trace, _ = run_within(
        10,
        lambda: run_session(
            lambda handle: execute(binary, endpoint=handle, **execute_kwargs),
            objective_worker(objective),
        ),
    )
    return trace


def test_clock_additivity_example(calib):
    # prep 100 us + pi/2 pulse 5 us + detect 200 us = 305 us per shot
    c = Circuit(1, [op("RY", 0, math.pi / 2), op("MEASURE", ())])
    k = compile_full(_schedule(c, calib), [], shots=300)
    trace = execute(k, run_seed=1)
    assert trace.busy_us == pytest.approx(300 * 305.0)
    assert trace.rpc_us == 0.0
    assert trace.n_iterations == 1


def test_sampling_is_deterministic_per_key(calib):
    c = Circuit(1, [op("RY", 0, 1.1), op("MEASURE", ())])
    k = compile_full(_schedule(c, calib), [], shots=500)
    a = execute(k, run_seed=42, iteration=3).results[0]
    b = execute(k, run_seed=42, iteration=3).results[0]
    assert a == b
    c2 = execute(k, run_seed=42, iteration=4).results[0]
    assert a.counts != c2.counts


def test_full_kernel_counts_match_statevector(calib):
    theta = 2 * math.asin(math.sqrt(0.25))  # P(1) = 0.25 exactly
    c = Circuit(1, [op("RY", 0, theta), op("MEASURE", ())])
    k = compile_full(_schedule(c, calib), [], shots=200_000)
    (counts,) = execute(k, run_seed=9).results[0].counts
    p1 = counts.get(1, 0) / 200_000
    assert p1 == pytest.approx(0.25, abs=0.005)


def test_depolarizing_mixes_toward_uniform(calib):
    c = Circuit(1, [op("RX", 0, math.pi), op("MEASURE", ())])
    k = compile_full(_schedule(c, calib), [], shots=50_000)
    rho = 0.03
    (counts,) = execute(k, run_seed=5, depolarizing=rho).results[0].counts
    f = 1 - 4 * rho / 3
    expected_p1 = (1 + f) / 2
    assert counts[1] / 50_000 == pytest.approx(expected_p1, abs=0.005)


def test_drift_changes_applied_angle(calib):
    # A pi pulse compiled against the calibrated drive strength misses when
    # the device has drifted: literal durations carry time, not angle.
    c = Circuit(1, [op("RX", 0, math.pi), op("MEASURE", ())])
    k = compile_full(_schedule(c, calib), [], shots=20_000)
    exact = execute(k, run_seed=3).results[0].counts[0]
    assert exact == {1: 20_000}
    drifted = execute(k, run_seed=3, rabi_truth=1.05 * DEFAULT_RABI).results[0].counts[0]
    assert 0 < drifted.get(0, 0) < 1000
    expected = math.cos(1.05 * math.pi / 2) ** 2
    assert drifted[0] / 20_000 == pytest.approx(expected, abs=0.005)


def test_two_qubit_pair_pulse(calib):
    c = Circuit(2, [op("XX", (0, 1), math.pi / 4), op("MEASURE", ())])
    k = compile_full(_schedule(c, calib), [], shots=40_000)
    trace = execute(k, run_seed=11)
    (counts,) = trace.results[0].counts
    assert set(counts) == {0b00, 0b11}
    assert counts[0b11] / 40_000 == pytest.approx(0.5, abs=0.01)
    # pair pulse holds for its full fixed duration
    assert trace.busy_us == pytest.approx(40_000 * (100.0 + 150.0 + 200.0))


def test_partial_kernel_iterates_until_sentinel(calib):
    c = Circuit(1, [op("RY", 0, SlotRef(0)), op("MEASURE", ())])
    k = compile_partial(_schedule(c, calib), shots=300)
    xs = [0.4, 1.0, 2.2]

    def objective(r: Results):
        nxt = r.iteration + 1
        return Params((xs[nxt],)) if nxt < len(xs) else Sentinel()

    trace = _stream(k, objective, initial_slots=[xs[0]], run_seed=7)
    assert trace.n_iterations == len(xs)
    assert [r.iteration for r in trace.results] == [0, 1, 2]
    assert trace.rpc_us == pytest.approx(len(xs) * 2000.0)


def test_mode_equivalence_exact(calib):
    """Same seeds, same parameters: both pipelines produce identical counts."""
    xs = [0.3, 1.7, 2.9, 0.05]
    seed = 20260817
    template = Circuit(1, [op("RY", 0, SlotRef(0)), op("MEASURE", ())])

    baseline = []
    for k_iter, x in enumerate(xs):
        kern = compile_full(_schedule(template, calib), [x], shots=300)
        baseline.append(execute(kern, run_seed=seed, iteration=k_iter).results[0])

    partial = compile_partial(_schedule(template, calib), shots=300)

    def objective(r: Results):
        nxt = r.iteration + 1
        return Params((xs[nxt],)) if nxt < len(xs) else Sentinel()

    trace = _stream(partial, objective, initial_slots=[xs[0]], run_seed=seed)

    assert len(trace.results) == len(baseline)
    for got, want in zip(trace.results, baseline):
        assert got == want


def test_pool_mode_equivalence_exact(calib):
    """Streamed gate-pool circuits match per-circuit full compiles shot-for-shot."""
    seed = 99
    rng_circuits = [[5, 17, 3], [1, 1, 2, 20], [0], [23, 10]]
    circuits = []
    for seq in rng_circuits:
        total = 0
        for g in seq:
            total = compose(g, total)
        circuits.append(seq + [inverse(total)])

    pool = clifford_pool(calib, 100)

    def objective(r: Results):
        nxt = r.iteration + 1
        if nxt < len(circuits):
            return CircuitBlock((tuple(circuits[nxt]),))
        return Sentinel()

    trace = _stream(pool, objective, initial_circuits=[circuits[0]], run_seed=seed)

    for i, seq in enumerate(circuits):
        ops = [g for idx in seq for g in native_ops(idx, 0)]
        full_circ = Circuit(1, ops + [op("MEASURE", ())])
        kern = compile_full(_schedule(full_circ, calib), [], shots=100, n_qubits=1)
        want = execute(kern, run_seed=seed, iteration=i).results[0]
        assert trace.results[i] == want
    # every streamed sequence ends on the identity: survival is certain
    for r in trace.results:
        assert r.counts[0] == {0: 100}


def test_uninitialized_slot_raises():
    k = KernelBinary(
        KernelMode.PARTIAL, 1, 1,
        (Instr(Opcode.SET_AMP, (0, SlotRef(0))), Instr(Opcode.HALT, ())),
    )
    with pytest.raises(UninitializedSlot):
        execute(k)


def test_launch_slot_arity_checked(calib):
    c = Circuit(1, [op("RY", 0, SlotRef(0)), op("MEASURE", ())])
    k = compile_partial(_schedule(c, calib), shots=10)
    with pytest.raises(SlotArityError):
        execute(k, initial_slots=[0.1, 0.2])


def test_select_without_circuit_raises():
    k = KernelBinary(
        KernelMode.PARTIAL, 1, 0,
        (Instr(Opcode.SELECT, (0,)), Instr(Opcode.HALT, ())),
    )
    with pytest.raises(VmError):
        execute(k)


def test_qubit_limit_enforced_and_stub_mode_allows(calib):
    instrs = (
        Instr(Opcode.PREP, (100.0,)),
        Instr(Opcode.DETECT, (255, 200.0)),
        Instr(Opcode.HALT, ()),
    )
    k = KernelBinary(KernelMode.FULL, 14, 0, instrs)
    with pytest.raises(TooManyQubits):
        execute(k)
    trace = execute(k, cost_only=True)
    assert trace.results[0].counts[0] == {0: 1}
    assert trace.busy_us == pytest.approx(300.0)


def test_cost_only_preserves_clock(calib):
    c = Circuit(1, [op("RY", 0, math.pi / 2), op("MEASURE", ())])
    k = compile_full(_schedule(c, calib), [], shots=300)
    full = execute(k, run_seed=1)
    stub = execute(k, run_seed=1, cost_only=True)
    assert full.n_iterations == stub.n_iterations == 1
    assert sum(full.results[0].counts[0].values()) == 300
    assert stub.busy_us == full.busy_us
    assert stub.results[0].counts[0] == {0: 300}


def test_wrong_reply_type_raises_protocol_error(calib):
    c = Circuit(1, [op("RY", 0, SlotRef(0)), op("MEASURE", ())])
    k = compile_partial(_schedule(c, calib), shots=10)

    with pytest.raises(ProtocolError):
        _stream(k, lambda r: CircuitBlock(((0,),)), initial_slots=[0.5])
