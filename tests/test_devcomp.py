"""Kernel compilation: layouts, serialization, invariants, cost model."""

from __future__ import annotations

import math

import pytest

from dlpc.devcomp import (
    ALL_CHANNELS,
    CompileError,
    CompileLog,
    CostModel,
    Instr,
    KernelBinary,
    KernelMode,
    Opcode,
    RunCosts,
    SlotArityError,
    compile_full,
    compile_partial,
    compile_pool,
)
from dlpc.drivers.calibration import run_calibration
from dlpc.drivers.rb import clifford_pool, run_rb
from dlpc.drivers.vqe import VqeProblem, run_vqe, two_param_problem
from dlpc.ir import Circuit, Hamiltonian, PauliTerm, SlotRef, op
from dlpc.pulse import (
    DEFAULT_RABI,
    CalibrationDataset,
    LiteralUs,
    PulseSchedule,
    SlotOverOmega,
    lower_to_pulses,
)
from dlpc.rpc import TAG_CIRCUIT_BLOCK, TAG_PARAMS, TAG_RESULTS
from dlpc.transpile import transpile


@pytest.fixture
def calib() -> CalibrationDataset:
    return CalibrationDataset.default(2)


def _vqe_schedule(calib: CalibrationDataset) -> PulseSchedule:
    c = Circuit(1, [op("RY", 0, SlotRef(0)), op("MEASURE", ())])
    return lower_to_pulses(transpile(c), calib)


def test_full_kernel_layout_and_baked_rotation(calib):
    c = Circuit(1, [op("RY", 0, 1.2), op("MEASURE", ())])
    k = compile_full(lower_to_pulses(transpile(c), calib), [], shots=300)
    assert k.mode is KernelMode.FULL
    assert k.n_slots == 0
    ops = [i.op for i in k.instructions]
    assert ops == [
        Opcode.SET_FREQ,
        Opcode.LOOP_SHOTS,
        Opcode.PREP,
        Opcode.SET_PHASE,
        Opcode.SET_AMP,
        Opcode.PLAY,
        Opcode.DETECT,
        Opcode.HALT,
    ]
    loop = k.instructions[1]
    assert loop.args == (300, 5)
    (play,) = [i for i in k.instructions if i.op is Opcode.PLAY]
    (dur,) = play.args
    assert isinstance(dur, LiteralUs)
    assert dur.value == pytest.approx(1.2 / DEFAULT_RABI * 1e6)
    assert dur.value == pytest.approx(3.8197, abs=1e-4)


def test_full_kernel_bakes_slot_values(calib):
    sched = _vqe_schedule(calib)
    k = compile_full(sched, [1.2], shots=300)
    ref = compile_full(lower_to_pulses(transpile(Circuit(1, [op("RY", 0, 1.2), op("MEASURE", ())])), calib), [], shots=300)
    assert k.instructions == ref.instructions
    assert k.content_hash == ref.content_hash


def test_slot_arity_checked(calib):
    sched = _vqe_schedule(calib)
    with pytest.raises(SlotArityError):
        compile_full(sched, [], shots=300)
    with pytest.raises(SlotArityError):
        compile_full(sched, [0.1, 0.2], shots=300)


def test_partial_kernel_keeps_slots_and_appends_rpc_tail(calib):
    sched = _vqe_schedule(calib)
    k = compile_partial(sched, shots=300)
    assert k.mode is KernelMode.PARTIAL
    assert k.n_slots == 1
    tail = k.instructions[-3:]
    assert tail[0] == Instr(Opcode.RPC_ASYNC, (TAG_RESULTS,))
    assert tail[1].op is Opcode.RPC_SYNC
    assert tail[1].args == (TAG_PARAMS, 1)  # resume at the LOOP_SHOTS after the header
    assert tail[2].op is Opcode.HALT
    assert k.instructions[tail[1].args[1]].op is Opcode.LOOP_SHOTS
    plays = [i for i in k.instructions if i.op is Opcode.PLAY]
    assert any(isinstance(p.args[0], SlotOverOmega) for p in plays)


def test_partial_same_structure_different_slots_not_recompiled_shape(calib):
    # Two parameter points, one structure: the partial kernel is byte-identical.
    a = compile_partial(_vqe_schedule(calib), shots=300)
    b = compile_partial(_vqe_schedule(calib), shots=300)
    assert a.content_hash == b.content_hash


def test_multi_section_kernel_counts_sections(calib):
    scheds = [_vqe_schedule(calib) for _ in range(3)]
    k = compile_partial(scheds, shots=100)
    loops = [i for i in k.instructions if i.op is Opcode.LOOP_SHOTS]
    assert len(loops) == 3
    assert [i.op for i in k.instructions[-3:]] == [
        Opcode.RPC_ASYNC,
        Opcode.RPC_SYNC,
        Opcode.HALT,
    ]


def test_full_kernel_rejects_rpc_and_slots():
    with pytest.raises(CompileError):
        KernelBinary(
            KernelMode.FULL, 1, 0,
            (Instr(Opcode.RPC_ASYNC, (TAG_RESULTS,)), Instr(Opcode.HALT, ())),
        )
    with pytest.raises(CompileError):
        KernelBinary(
            KernelMode.FULL, 1, 0,
            (Instr(Opcode.SET_AMP, (0, SlotRef(0))), Instr(Opcode.HALT, ())),
        )


def test_binary_roundtrip_and_hash_stability(calib):
    k = compile_partial(_vqe_schedule(calib), shots=300)
    again = compile_partial(_vqe_schedule(calib), shots=300)
    assert again.serialized == k.serialized
    assert again.content_hash == k.content_hash
    assert k.size_bytes == len(k.serialized)
    assert k.serialized[:8] == b"DLPCQBIN"


def test_pair_channels_follow_single_qubit_block(calib):
    c = Circuit(2, [op("XX", (0, 1), math.pi / 4), op("MEASURE", ())])
    k = compile_full(lower_to_pulses(transpile(c), calib), [], shots=10)
    assert k.pair_channels == ((0, 1),)
    pair_channel = k.n_qubits + 0
    assert any(
        i.op is Opcode.SET_AMP and i.args[0] == pair_channel for i in k.instructions
    )


def test_clifford_pool_kernel_shape(calib):
    pool = clifford_pool(calib, 100)
    assert pool.mode is KernelMode.PARTIAL
    assert len(pool.blocks) == 24
    assert pool.n_instr == 86
    scaffold = [i.op for i in pool.instructions[:8]]
    assert scaffold == [
        Opcode.SET_FREQ,
        Opcode.LOOP_SHOTS,
        Opcode.PREP,
        Opcode.SELECT,
        Opcode.DETECT,
        Opcode.RPC_ASYNC,
        Opcode.RPC_SYNC,
        Opcode.HALT,
    ]
    sync = pool.instructions[6]
    assert sync.args == (TAG_CIRCUIT_BLOCK, 1)
    # identity block is empty; every block window stays inside the stream
    assert pool.blocks[0][1] == 0
    for start, length in pool.blocks:
        assert 8 <= start and start + length <= pool.n_instr


def test_pool_blocks_count_toward_compile_cost(calib):
    pool = clifford_pool(calib, 100)
    model = CostModel(compile_a=0.354, compile_b=0.006)
    assert model.compile_time(pool.n_instr) == pytest.approx(0.87, abs=1e-9)


def test_pool_rejects_readout_blocks(calib):
    c = Circuit(1, [op("RY", 0, 0.5), op("MEASURE", ())])
    sched = lower_to_pulses(transpile(c), calib)
    with pytest.raises(CompileError):
        compile_pool([sched], 100, prep_us=100.0, detect_us=200.0)


def test_cost_model_examples(calib):
    m = CostModel(compile_a=0.5, compile_b=0.001)
    assert m.compile_time(300) == pytest.approx(0.8)
    assert m.upload_time(10**6) == pytest.approx(0.15)
    assert m.schedule_s == pytest.approx(0.1)
    k = compile_full(_vqe_schedule(calib), [0.3], shots=10)
    cost = m.cost_of(k)
    assert cost.total_s == pytest.approx(cost.compile_s + cost.upload_s + 0.1)


def test_kernel_price_is_a_one_compile_ledger(calib):
    m = CostModel()
    k = compile_partial(_vqe_schedule(calib), shots=10)
    cost = m.cost_of(k)
    assert cost == RunCosts(
        1, m.compile_time(k.n_instr), m.upload_time(k.size_bytes), m.schedule_s
    )
    assert cost.device_s == cost.rpc_s == 0.0


def test_ledgers_add_fieldwise_and_scale_by_repetition():
    a = RunCosts(1, 0.5, 0.25, 0.125, 2.0, 0.0)
    b = RunCosts(rpc_s=0.375, device_s=1.0)
    assert a + b == RunCosts(1, 0.5, 0.25, 0.125, 3.0, 0.375)
    assert 3 * a == RunCosts(3, 1.5, 0.75, 0.375, 6.0, 0.0)
    assert 0 * a == RunCosts()
    assert sum([a, a, b], RunCosts()) == 2 * a + b
    assert (a + b).total_s == 0.5 + 0.25 + 0.125 + 3.0 + 0.375


def test_compile_log_accounting(calib):
    model = CostModel()
    log = CompileLog()
    k1 = compile_full(_vqe_schedule(calib), [0.1], shots=300)
    k2 = compile_partial(_vqe_schedule(calib), shots=300)
    log.record(k1, model, "compile_full", "iter-0")
    log.record(k2, model, "compile_partial", "setup")
    assert log.n_compiles == 2
    assert log.total_compile_s == pytest.approx(
        model.compile_time(k1.n_instr) + model.compile_time(k2.n_instr)
    )
    assert [(e.kind, e.label) for e in log.events] == [
        ("compile_full", "iter-0"),
        ("compile_partial", "setup"),
    ]
    assert [e.size_bytes for e in log.events] == [k1.size_bytes, k2.size_bytes]


def test_amplitude_sweep_kernel_size():
    # Generic retargetable sweep: frequency in slot 0, one amplitude slot per
    # segment, fixed 2.5 us segments.  Two slots below stay the documented knob
    # for the 1.2 s compile anchor.
    segments = 67
    instrs = [Instr(Opcode.SET_FREQ, (0, SlotRef(0)))]
    body: list[Instr] = [Instr(Opcode.PREP, (100.0,))]
    for k in range(segments):
        body.append(Instr(Opcode.SET_AMP, (0, SlotRef(1 + k))))
        body.append(Instr(Opcode.PLAY, (LiteralUs(2.5),)))
    body.append(Instr(Opcode.DETECT, (ALL_CHANNELS, 200.0)))
    instrs.append(Instr(Opcode.LOOP_SHOTS, (50, len(body))))
    instrs.extend(body)
    instrs.append(Instr(Opcode.RPC_ASYNC, (TAG_RESULTS,)))
    instrs.append(Instr(Opcode.RPC_SYNC, (TAG_PARAMS, 1)))
    instrs.append(Instr(Opcode.HALT, ()))
    k = KernelBinary(KernelMode.PARTIAL, 1, 1 + segments, tuple(instrs))
    assert k.n_instr == 141
    model = CostModel(compile_a=0.354, compile_b=0.006)
    assert model.compile_time(k.n_instr) == pytest.approx(1.20, abs=1e-9)
    assert k.size_bytes == len(k.serialized)


def test_loop_body_window_validated():
    with pytest.raises(CompileError):
        KernelBinary(
            KernelMode.FULL, 1, 0,
            (Instr(Opcode.LOOP_SHOTS, (10, 5)), Instr(Opcode.HALT, ())),
        )


def test_resume_target_validated():
    with pytest.raises(CompileError):
        KernelBinary(
            KernelMode.PARTIAL, 1, 0,
            (Instr(Opcode.RPC_SYNC, (TAG_PARAMS, 9)), Instr(Opcode.HALT, ())),
        )


@pytest.mark.parametrize(
    "op, args, bad",
    [
        (Opcode.SET_AMP, (256, 0.5), "chan"),
        (Opcode.SET_AMP, (0, "0.5"), "real"),
        (Opcode.PLAY, (2.5,), "dur"),
        (Opcode.PREP, ("100",), "f64"),
        (Opcode.RPC_ASYNC, (256,), "u8"),
        (Opcode.LOOP_SHOTS, (2**32, 1), "u32"),
    ],
)
def test_out_of_range_operand_rejected(op, args, bad):
    with pytest.raises(CompileError, match=f"bad {bad} operand"):
        Instr(op, args)


def test_size_bytes_counts_the_serialized_bytes_of_every_driver_kernel(monkeypatch):
    built: list[tuple[str, KernelBinary]] = []
    record = CompileLog.record

    def capture(self, binary, model, kind, label=""):
        built.append((kind, binary))
        return record(self, binary, model, kind, label)

    monkeypatch.setattr(CompileLog, "record", capture)
    model = CostModel()
    pair = VqeProblem(
        Hamiltonian(2, [PauliTerm(1.0, "ZZ"), PauliTerm(0.5, "XI")]),
        Circuit(2, [op("RY", 0, SlotRef(0)), op("XX", (0, 1), 0.7), op("RZ", 1, SlotRef(1))]),
        x0=(0.4, 0.2),
        shots=20,
        max_evals=4,
    )
    for problem in (two_param_problem(), pair):
        for mode in ("baseline", "dlpc"):
            run_vqe(problem, mode, cost_model=model)
    for mode in ("baseline", "dlpc"):
        run_rb(mode, cost_model=model, lengths=(2, 8), per_length=1, shots=10)
        run_calibration(CalibrationDataset.default(2), mode, cost_model=model)
    built.append(("pool", clifford_pool(CalibrationDataset.default(1), 100)))
    assert {kind for kind, _ in built} == {"full", "partial", "pool"}
    assert any(b.pair_channels for _, b in built) and any(b.blocks for _, b in built)
    for kind, binary in built:
        assert binary.size_bytes == len(binary.serialized), kind
