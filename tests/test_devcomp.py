"""Kernel compilation: layouts, serialization, invariants, cost model."""

from __future__ import annotations

import copy
import math

import pytest
from conftest import assert_baked
from hypothesis import given, settings
from hypothesis import strategies as st

from dlpc.cliffords import native_ops
from dlpc.devcomp import (
    ALL_CHANNELS,
    SCHEDULE_S,
    CompileError,
    CompileLog,
    CostModel,
    Instr,
    KernelBinary,
    Opcode,
    RunCosts,
    SlotArityError,
    bake,
    compile_partial,
    compile_pool,
    partial_kernel,
)
from dlpc.drivers.calibration import (
    build_sweep_partial,
    experiment_plan,
    run_calibration,
    sweep_slots,
)
from dlpc.drivers.rb import (
    RB_LENGTHS,
    RB_SHOTS,
    _sequence_schedule,
    clifford_pool,
    random_circuits,
    run_rb,
)
from dlpc.drivers.vqe import VqeProblem, run_vqe, section_schedules, two_param_problem
from dlpc.ir import Circuit, GateOp, Hamiltonian, PauliTerm, SlotRef, op
from dlpc.pulse import (
    DEFAULT_RABI,
    CalibrationDataset,
    InvalidCalibration,
    LiteralUs,
    PulseOp,
    PulseSchedule,
    QubitCalibration,
    SlotOverOmega,
    UncalibratedQubit,
    lower_to_pulses,
)
from dlpc.qpu import execute
from dlpc.rpc import TAG_CIRCUIT_BLOCK, TAG_PARAMS, TAG_RESULTS, Params
from dlpc.transpile import MappedCircuit, transpile


@pytest.fixture
def calib() -> CalibrationDataset:
    return CalibrationDataset.default(2)


def _vqe_schedule(calib: CalibrationDataset) -> PulseSchedule:
    c = Circuit(1, [op("RY", 0, SlotRef(0)), op("MEASURE", ())])
    return lower_to_pulses(transpile(c), calib)


def _slotted_sections(calib: CalibrationDataset) -> list[PulseSchedule]:
    """Two 2-qubit sections with slot angles (SlotRef) and slot durations (SlotOverOmega)."""
    ansatz = [
        op("RY", 0, SlotRef(0)),
        op("XX", (0, 1), 0.7),
        op("RZ", 1, SlotRef(2)),
        op("RX", 1, SlotRef(1)),
        op("R", 0, SlotRef(3), 0.3),
    ]
    return [
        lower_to_pulses(transpile(Circuit(2, [*ansatz, op("MEASURE", (), basis=b)])), calib)
        for b in ("Z", "X")
    ]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=4, max_size=4))
def test_full_kernel_is_the_partial_kernel_baked(slot_values):
    scheds = _slotted_sections(CalibrationDataset.default(2))
    partial = compile_partial(scheds, shots=7, n_qubits=2)
    assert partial.n_slots == 4
    kinds = {type(a) for i in partial.instructions for a in i.args}
    assert {SlotRef, SlotOverOmega} <= kinds
    full = bake(compile_partial(scheds, shots=7, n_qubits=2), slot_values)
    assert_baked(full, partial, slot_values)


def test_bake_takes_only_a_slot_streaming_partial_kernel(calib):
    partial = compile_partial(_vqe_schedule(calib), shots=10, n_qubits=1)
    with pytest.raises(SlotArityError, match="^kernel has 1 slots, got 2 values$"):
        bake(partial, [0.1, 0.2])
    with pytest.raises(SlotArityError, match="^kernel has 1 slots, got 0 values$"):
        bake(partial, [])
    for kernel in (clifford_pool(calib, 10), bake(partial, [0.1])):
        with pytest.raises(CompileError, match="^only a kernel that ends in a parameter fetch"):
            bake(kernel, [])


def test_full_kernel_layout_and_baked_rotation(calib):
    c = Circuit(1, [op("RY", 0, 1.2), op("MEASURE", ())])
    k = bake(compile_partial(lower_to_pulses(transpile(c), calib), shots=300, n_qubits=1), [])
    assert not k.streams
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
    k = bake(compile_partial(sched, shots=300, n_qubits=1), [1.2])
    literal = lower_to_pulses(transpile(Circuit(1, [op("RY", 0, 1.2), op("MEASURE", ())])), calib)
    ref = bake(compile_partial(literal, shots=300, n_qubits=1), [])
    assert k.instructions == ref.instructions
    assert k.content_hash == ref.content_hash


def test_slot_arity_checked(calib):
    sched = _vqe_schedule(calib)
    with pytest.raises(SlotArityError):
        bake(compile_partial(sched, shots=300, n_qubits=1), [])
    with pytest.raises(SlotArityError):
        bake(compile_partial(sched, shots=300, n_qubits=1), [0.1, 0.2])


def test_partial_kernel_keeps_slots_and_appends_rpc_tail(calib):
    sched = _vqe_schedule(calib)
    k = compile_partial(sched, shots=300, n_qubits=1)
    assert k.streams
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
    a = compile_partial(_vqe_schedule(calib), shots=300, n_qubits=1)
    b = compile_partial(_vqe_schedule(calib), shots=300, n_qubits=1)
    assert a.content_hash == b.content_hash


def test_multi_section_kernel_counts_sections(calib):
    scheds = [_vqe_schedule(calib) for _ in range(3)]
    k = compile_partial(scheds, shots=100, n_qubits=1)
    loops = [i for i in k.instructions if i.op is Opcode.LOOP_SHOTS]
    assert len(loops) == 3
    assert [i.op for i in k.instructions[-3:]] == [
        Opcode.RPC_ASYNC,
        Opcode.RPC_SYNC,
        Opcode.HALT,
    ]


@pytest.mark.parametrize(
    "tail, blocks, streams",
    [
        ((), (), False),
        ((Instr(Opcode.RPC_ASYNC, (TAG_RESULTS,)),), (), True),
        ((Instr(Opcode.RPC_SYNC, (TAG_PARAMS, 0)),), (), True),
        ((Instr(Opcode.SELECT, (0,)),), ((3, 0),), False),  # SELECT needs a gate pool
    ],
    ids=["none", "RPC_ASYNC", "RPC_SYNC", "SELECT"],
)
def test_a_kernel_streams_iff_it_holds_an_rpc_instruction(tail, blocks, streams):
    k = KernelBinary(1, (Instr(Opcode.PREP, (1.0,)), *tail, Instr(Opcode.HALT, ())), blocks=blocks)
    assert k.streams is streams
    assert k.serialized[10] == streams  # the header's mode byte


def _kernels_of_each_kind() -> dict[str, KernelBinary]:
    problem = two_param_problem()
    nq = problem.ansatz.n_qubits
    vqe = compile_partial(
        section_schedules(problem, CalibrationDataset.default(nq)), problem.shots, n_qubits=nq
    )
    calib = CalibrationDataset.default(1)
    (circuit, *_) = random_circuits(7, (2, 4, 8), 1)
    sweep = build_sweep_partial(prep_us=1000.0, detect_us=2000.0)
    return {
        "vqe partial": vqe,
        "vqe full": bake(vqe, problem.x0),
        "clifford pool": clifford_pool(calib, RB_SHOTS),
        "rb circuit": bake(
            compile_partial(_sequence_schedule(circuit.elements, calib), RB_SHOTS, n_qubits=1), []
        ),
        "sweep partial": sweep,
        "sweep full": bake(sweep, (0.0,) * sweep.n_slots),
    }


# kind -> (content_hash, header mode byte, header slot count).  No CLI output
# holds a kernel's bytes, so these pins are what would catch a wrong header.
PINNED_KERNELS = {
    "vqe partial": ("e617030dd7cfe07a", 1, 2),
    "vqe full": ("d309275d4a0aea1b", 0, 0),
    "clifford pool": ("fa177b858a6db8a6", 1, 0),
    "rb circuit": ("4c64e31eed6fc1bc", 0, 0),
    "sweep partial": ("fbf5713754415403", 1, 68),
    "sweep full": ("9ca4195ff1ddd871", 0, 0),
}


def test_kernel_bytes_of_each_kind_are_pinned():
    got = {
        name: (k.content_hash, k.serialized[10], int.from_bytes(k.serialized[12:16], "little"))
        for name, k in _kernels_of_each_kind().items()
    }
    assert got == PINNED_KERNELS


def test_binary_roundtrip_and_hash_stability(calib):
    k = compile_partial(_vqe_schedule(calib), shots=300, n_qubits=1)
    again = compile_partial(_vqe_schedule(calib), shots=300, n_qubits=1)
    assert again.serialized == k.serialized
    assert again.content_hash == k.content_hash
    assert k.size_bytes == len(k.serialized)
    assert k.serialized[:8] == b"DLPCQBIN"


def test_pair_channels_follow_single_qubit_block(calib):
    c = Circuit(2, [op("XX", (0, 1), math.pi / 4), op("MEASURE", ())])
    k = bake(compile_partial(lower_to_pulses(transpile(c), calib), shots=10, n_qubits=2), [])
    assert k.pair_channels == ((0, 1),)
    pair_channel = k.n_qubits + 0
    assert any(
        i.op is Opcode.SET_AMP and i.args[0] == pair_channel for i in k.instructions
    )


def test_pair_channels_number_distinct_items_in_first_use_order():
    def pair(i, j, amp):
        return PulseOp((i, j), 12.6e6, 0.0, amp, LiteralUs(150.0))

    p12, p01, p02 = pair(1, 2, 0.125), pair(0, 1, 0.25), pair(0, 2, 0.5)
    scheds = [
        PulseSchedule([p12, p01, p12, p01, p12]),
        PulseSchedule([p02, p01, p12, p02]),
    ]
    k = compile_partial(scheds, shots=10, n_qubits=3)
    assert k.pair_channels == ((1, 2), (0, 1), (0, 2))
    copies = [PulseSchedule([copy.copy(i) for i in s.items]) for s in scheds]
    assert compile_partial(copies, shots=10, n_qubits=3).content_hash == k.content_hash


def test_clifford_pool_kernel_shape(calib):
    pool = clifford_pool(calib, 100)
    assert pool.streams
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
        compile_pool([sched], 100, prep_us=100.0, detect_us=200.0, n_qubits=1)


@pytest.mark.parametrize("ansatz", [[op("RY", 0, SlotRef(0))], [op("RZ", 0, SlotRef(0))]])
def test_pool_rejects_slot_blocks(calib, ansatz):
    sched = lower_to_pulses(transpile(Circuit(1, ansatz)), calib)
    with pytest.raises(CompileError, match="^pool blocks must be fully literal$"):
        compile_pool([sched], 100, prep_us=100.0, detect_us=200.0, n_qubits=1)


def _apart(ops: list[GateOp]) -> list[GateOp]:
    """The same ops, every occurrence its own object: nothing to share."""
    return [copy.copy(g) for g in ops]


@pytest.mark.parametrize("length", RB_LENGTHS)
def test_rb_kernel_bytes_do_not_depend_on_shared_ops(calib, length):
    for circ in random_circuits(5, (length,), per_length=3):
        ops = [*(g for e in circ.elements for g in native_ops(e, 0)), op("MEASURE", ())]
        shared = _sequence_schedule(circ.elements, calib)
        apart = lower_to_pulses(transpile(Circuit(1, _apart(ops))), calib)
        # one item object per distinct op object, plus Prep
        assert len({id(i) for i in shared.items}) == len({id(g) for g in ops}) + 1
        assert len({id(i) for i in apart.items}) == len(apart.items)
        assert shared.items == apart.items
        kernels = [bake(compile_partial(s, RB_SHOTS, n_qubits=1), []) for s in (shared, apart)]
        assert kernels[0].serialized == kernels[1].serialized


def test_streamed_kernel_bytes_do_not_depend_on_shared_slot_ops():
    layer = [
        GateOp("R", (0,), (SlotRef(0), 0.25)),
        GateOp("R", (1,), (SlotRef(1), 0.0)),
        GateOp("RZ", (1,), (SlotRef(2),)),
        GateOp("XX", (0, 1), (math.pi / 4,)),
    ]
    ops = [*layer * 3, GateOp("MEASURE", ())]
    calib = CalibrationDataset.default(2)
    kernels = []
    for native in (ops, _apart(ops)):
        sched = lower_to_pulses(MappedCircuit(2, native), calib)
        partial = compile_partial(sched, 50, n_qubits=2)
        kernels.append((partial, bake(partial, [0.5, 1.0, 2.0])))
    (partial, full), (partial_apart, full_apart) = kernels
    assert partial.serialized == partial_apart.serialized
    assert full.serialized == full_apart.serialized
    # every occurrence keeps its slot operand: three per layer
    slot_operands = [
        a for i in partial.instructions for a in i.args if isinstance(a, (SlotRef, SlotOverOmega))
    ]
    assert len(slot_operands) == 9 and partial.n_slots == 3


def test_equal_ops_that_encode_differently_are_not_shared(calib):
    # 0.0 == -0.0, so a table keyed by equality would emit the first for both
    ops = [GateOp("RZ", (0,), (0.0,)), GateOp("RZ", (0,), (-0.0,))]
    k = compile_partial(lower_to_pulses(MappedCircuit(1, ops), calib), 1, n_qubits=1)
    angles = [i.args[1] for i in k.instructions if i.op is Opcode.FRAME_ROT]
    assert [math.copysign(1.0, a) for a in angles] == [1.0, -1.0]


def test_uncalibrated_qubit_on_a_repeated_op_raises():
    mc = MappedCircuit(2, [GateOp("R", (1,), (1.0, 0.0))] * 4)
    assert len(lower_to_pulses(mc, CalibrationDataset.default(2)).items) == 4
    one_qubit = CalibrationDataset(qubits={0: QubitCalibration(12.6e6, DEFAULT_RABI)})
    with pytest.raises(UncalibratedQubit, match="^no calibration for qubit 1$"):
        lower_to_pulses(mc, one_qubit)


def test_recalibration_between_compiles_changes_play_durations(calib):
    (circ,) = random_circuits(2, (32,), per_length=1)

    def plays() -> list[float]:
        schedule = _sequence_schedule(circ.elements, calib)
        k = bake(compile_partial(schedule, RB_SHOTS, n_qubits=1), [])
        return [i.args[0].value for i in k.instructions if i.op is Opcode.PLAY]

    before = plays()
    calib.recalibrate_qubit(0, rabi=2 * calib.qubit(0).rabi)
    after = plays()
    assert before and after == pytest.approx([d / 2 for d in before], rel=1e-12)


def test_cost_model_examples(calib):
    m = CostModel(compile_a=0.5, compile_b=0.001)
    assert m.compile_time(300) == pytest.approx(0.8)
    assert m.upload_time(10**6) == pytest.approx(0.15)
    assert SCHEDULE_S == pytest.approx(0.1)
    k = bake(compile_partial(_vqe_schedule(calib), shots=10, n_qubits=1), [0.3])
    cost = m.cost_of(k)
    assert cost.total_s == pytest.approx(cost.compile_s + cost.upload_s + 0.1)


def test_kernel_price_is_a_one_compile_ledger(calib):
    m = CostModel()
    k = compile_partial(_vqe_schedule(calib), shots=10, n_qubits=1)
    cost = m.cost_of(k)
    assert cost == RunCosts(
        1, m.compile_time(k.n_instr), m.upload_time(k.size_bytes), SCHEDULE_S
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
    k1 = bake(compile_partial(_vqe_schedule(calib), shots=300, n_qubits=1), [0.1])
    k2 = compile_partial(_vqe_schedule(calib), shots=300, n_qubits=1)
    assert log.record(k1, model) is k1
    assert log.record(k2, model) is k2
    assert log.costs == model.cost_of(k1) + model.cost_of(k2)
    assert log.costs.n_compiles == 2
    assert log.costs.compile_s == pytest.approx(
        model.compile_time(k1.n_instr) + model.compile_time(k2.n_instr)
    )
    assert log.costs.upload_s == pytest.approx(
        model.upload_time(k1.size_bytes) + model.upload_time(k2.size_bytes)
    )
    assert log.costs.device_s == log.costs.rpc_s == 0.0


def test_amplitude_sweep_kernel_size():
    # Generic retargetable sweep: frequency in slot 0, one amplitude slot per
    # segment, fixed 2.5 us segments.  Two slots below stay the documented knob
    # for the 1.2 s compile anchor.
    k = build_sweep_partial(prep_us=100.0, detect_us=200.0)
    assert k.n_instr == 141
    model = CostModel(compile_a=0.354, compile_b=0.006)
    assert model.compile_time(k.n_instr) == pytest.approx(1.20, abs=1e-9)
    assert k.size_bytes == len(k.serialized)


def _freshly_checked(k: KernelBinary) -> KernelBinary:
    return KernelBinary(k.n_qubits, k.instructions, k.pair_channels, k.blocks)


def _rb_full(length: int) -> KernelBinary:
    (circuit,) = random_circuits(3, (length,), 1)
    schedule = _sequence_schedule(circuit.elements, CalibrationDataset.default(1))
    return bake(compile_partial(schedule, RB_SHOTS, n_qubits=1), [])


def _vqe_full() -> KernelBinary:
    problem = two_param_problem()
    scheds = section_schedules(problem, CalibrationDataset.default(1))
    return bake(compile_partial(scheds, problem.shots, n_qubits=1), problem.x0)


def _sweep_full() -> KernelBinary:
    calib = CalibrationDataset.default(2)
    sweep = build_sweep_partial(prep_us=calib.prep_us, detect_us=calib.detect_us)
    return bake(sweep, sweep_slots(experiment_plan(calib)[-1], calib))


BAKED = {
    **{f"rb {m}": (lambda m=m: _rb_full(m)) for m in RB_LENGTHS},
    "vqe": _vqe_full,
    "calibration": _sweep_full,
    "slotted sections": lambda: bake(
        compile_partial(_slotted_sections(CalibrationDataset.default(2)), shots=7, n_qubits=2),
        [0.3, -1.2, 2.5, 7.0],
    ),
    # the baked kinds whose bytes PINNED_KERNELS pins
    **{kind: (lambda kind=kind: _kernels_of_each_kind()[kind])
       for kind in ("vqe full", "rb circuit", "sweep full")},
}


@pytest.mark.parametrize("name", BAKED)
def test_a_baked_kernel_is_the_kernel_a_full_check_builds(name):
    # bake builds its result without the pass, so no rule may be one a baked kernel breaks
    baked = BAKED[name]()
    fresh = _freshly_checked(baked)
    assert baked == fresh
    for attr in ("n_slots", "streams", "n_detects", "content_hash", "size_bytes"):
        assert getattr(baked, attr) == getattr(fresh, attr), attr


def _partial_around(body: tuple[Instr, ...]) -> KernelBinary:
    """``body`` after a PREP, then the parameter-fetch tail; a kernel ``bake`` takes."""
    return partial_kernel(
        [Instr(Opcode.PREP, (1.0,))], list(body), n_qubits=1, pair_channels=(), blocks=()
    )


@pytest.mark.parametrize(
    "body, partial_error, error",
    [
        # the loop covers the DETECT and the two RPC instructions bake would cut off,
        # so the partial kernel is refused when it is built, before any bake
        ((Instr(Opcode.LOOP_SHOTS, (1, 3)), Instr(Opcode.DETECT, (ALL_CHANNELS, 1.0))),
         "^pc 3: RPC_ASYNC not allowed inside a shot loop$", "^pc 1: loop body extends past end of kernel$"),
        # resumes at the partial kernel's RPC_SYNC, which bake cuts off
        ((Instr(Opcode.RPC_SYNC, (TAG_PARAMS, 3)),), None, "^pc 1: resume target 3 out of range$"),
    ],
    ids=["loop over the tail", "resume past the end"],
)
def test_bake_rechecks_what_cutting_the_tail_breaks(body, partial_error, error):
    with pytest.raises(CompileError, match=error):
        KernelBinary(1, (Instr(Opcode.PREP, (1.0,)), *body, Instr(Opcode.HALT, ())))
    if partial_error is not None:
        with pytest.raises(CompileError, match=partial_error):
            _partial_around(body)
        return
    with pytest.raises(CompileError, match=error):
        bake(_partial_around(body), [])


def test_a_baked_kernel_streams_when_its_body_holds_an_rpc():
    baked = bake(_partial_around((Instr(Opcode.RPC_SYNC, (TAG_PARAMS, 0)),)), [])
    assert baked.streams and _freshly_checked(baked).streams


def test_loop_body_window_validated():
    with pytest.raises(CompileError):
        KernelBinary(
            1,
            (Instr(Opcode.LOOP_SHOTS, (10, 5)), Instr(Opcode.HALT, ())),
        )


def test_each_pair_channel_names_two_distinct_qubits_of_the_register():
    # Unchecked, a bad pair would fail only in ``execute``, on numpy's bare axes error.
    instrs = (Instr(Opcode.PREP, (1.0,)), Instr(Opcode.HALT, ()))
    for i, j in ((0, 5), (0, 0), (-1, 1)):
        with pytest.raises(CompileError, match=rf"^pair 1: \({i}, {j}\) is not two distinct qubits of 2$"):
            KernelBinary(2, instrs, ((0, 1), (i, j)))
    assert KernelBinary(2, instrs, ((0, 1), (1, 0))).pair_channels == ((0, 1), (1, 0))


def test_resume_target_validated():
    with pytest.raises(CompileError):
        KernelBinary(
            1,
            (Instr(Opcode.RPC_SYNC, (TAG_PARAMS, 9)), Instr(Opcode.HALT, ())),
        )


def _retagged(k: KernelBinary, op: Opcode, tag: int) -> tuple[int, tuple[Instr, ...]]:
    """The pc of ``k``'s one ``op`` instruction, and ``k``'s instructions with its tag set."""
    instrs = list(k.instructions)
    pc = next(pc for pc, i in enumerate(instrs) if i.op is op)
    instrs[pc] = Instr(op, (tag, *instrs[pc].args[1:]))
    return pc, tuple(instrs)


@pytest.mark.parametrize(
    "pool, op, tag, expected",
    [
        (True, Opcode.RPC_SYNC, TAG_PARAMS, TAG_CIRCUIT_BLOCK),
        (False, Opcode.RPC_SYNC, TAG_RESULTS, TAG_PARAMS),
        (False, Opcode.RPC_SYNC, TAG_CIRCUIT_BLOCK, TAG_PARAMS),
        (True, Opcode.RPC_ASYNC, TAG_CIRCUIT_BLOCK, TAG_RESULTS),
        (False, Opcode.RPC_ASYNC, TAG_PARAMS, TAG_RESULTS),
    ],
    ids=[
        "pool fetching parameters",
        "fetching results",
        "fetching circuits without a pool",
        "posting a circuit block",
        "posting parameters",
    ],
)
def test_an_rpc_tag_names_what_its_kernel_posts_or_fetches(calib, pool, op, tag, expected):
    # each kernel passed the check before RPC tags were checked; the first two
    # then ran wrongly: the pool kernel replayed its launch circuit on every
    # PARAMS reply, and the results fetch misreported its PARAMS reply
    if pool:
        k = clifford_pool(calib, 10)
    else:
        k = compile_partial(_vqe_schedule(calib), shots=10, n_qubits=1)
    pc, instrs = _retagged(k, op, tag)
    with pytest.raises(CompileError, match=f"^pc {pc}: {op.name} tag {tag}, expected {expected}$"):
        KernelBinary(k.n_qubits, instrs, k.pair_channels, k.blocks)


@pytest.mark.parametrize(
    "ins",
    [
        Instr(Opcode.SET_FREQ, (0, SlotRef(3))),
        Instr(Opcode.SET_PHASE, (0, SlotRef(3))),
        Instr(Opcode.SET_AMP, (0, SlotRef(3))),
        Instr(Opcode.FRAME_ROT, (0, SlotRef(3))),
        Instr(Opcode.PLAY, (SlotOverOmega(3, DEFAULT_RABI),)),
    ],
    ids=lambda ins: ins.op.name,
)
@pytest.mark.parametrize("n_slots", [0, 1, 3])
def test_slot_outside_the_kernel_rejected(ins, n_slots):
    # n_slots is one more than the highest slot operand, so a launch that
    # leaves slot 3 out is the wrong length
    k = KernelBinary(1, (Instr(Opcode.PREP, (1.0,)), ins, Instr(Opcode.HALT, ())))
    assert k.n_slots == 4
    assert int.from_bytes(k.serialized[12:16], "little") == 4
    with pytest.raises(SlotArityError, match=f"^kernel has 4 slots, got {n_slots} values$"):
        execute(k, launch=Params((0.0,) * n_slots), cost_only=True)


def test_negative_slot_duration_rejected():
    # SlotOverOmega takes any int; the VM would read slot -1 from the end of the slot file.
    play = Instr(Opcode.PLAY, (SlotOverOmega(-1, DEFAULT_RABI),))
    with pytest.raises(CompileError, match=r"^pc 0: slot -1 is not an int in \[0, 2\*\*32 - 1\)$"):
        KernelBinary(1, (play, Instr(Opcode.HALT, ())))


_HALT = Instr(Opcode.HALT, ())
_SELECT_LOOP = (Instr(Opcode.LOOP_SHOTS, (1, 1)), Instr(Opcode.SELECT, (0,)), _HALT)


@pytest.mark.parametrize(
    "args, match",
    [
        ((1, (*_SELECT_LOOP, Instr(Opcode.PREP, (1.0,))), (), ((-1, 1),)),
         r"^block 0: \(-1, 1\) is not a window from pc 3$"),
        ((1, (_HALT,), (), ((-2, 3),)), r"^block 0: \(-2, 3\) is not a window from pc 1$"),
        ((1, (*_SELECT_LOOP, Instr(Opcode.PREP, (1.0,))), (), ((3, 1), (4, -1))),
         r"^block 1: \(4, -1\) is not a window from pc 4$"),
        ((256, (_HALT,)), "^256 qubits and 256 channels do not fit the header$"),
        ((-1, (_HALT,)), "^-1 qubits and -1 channels do not fit the header$"),
        ((254, (_HALT,), ((0, 1), (1, 2))), "^254 qubits and 256 channels do not fit the header$"),
        ((1.0, (_HALT,)), "^1.0 qubits do not fit the header$"),
        ((2, (_HALT,), ((0, 1.0),)), r"^pair 0: \(0, 1.0\) is not two distinct qubits of 2$"),
        ((1, (*_SELECT_LOOP, Instr(Opcode.PREP, (1.0,))), (), ((3.0, 1),)),
         r"^block 0: \(3.0, 1\) is not a window from pc 3$"),
        ((1, (*_SELECT_LOOP, Instr(Opcode.PREP, (1.0,))), (), ((3, 1.0),)),
         r"^block 0: \(3, 1.0\) is not a window from pc 3$"),
        ((1, (Instr(Opcode.PREP, (1.0,)), Instr(Opcode.DETECT, (ALL_CHANNELS, 1.0)))),
         "^kernel has no HALT outside a shot loop$"),
        ((1, (_HALT, Instr(Opcode.PREP, (1.0,)))), "^gate blocks end at pc 1, the kernel at 2$"),
        ((1, (Instr(Opcode.RPC_SYNC, (TAG_CIRCUIT_BLOCK, 2)), _HALT, Instr(Opcode.PREP, (1.0,))), (), ((2, 1),)),
         "^pc 0: resume target 2 out of range$"),
        ((1, (Instr(Opcode.SELECT, (0,)), _HALT)), "^pc 0: SELECT in a kernel with no gate pool$"),
        ((1, (*_SELECT_LOOP, Instr(Opcode.SET_PHASE, (0, SlotRef(0)))), (), ((3, 1),)),
         "^pool blocks must be fully literal$"),
        ((1, (Instr(Opcode.SET_PHASE, (0, SlotRef(1.5))), _HALT)),
         r"^pc 0: slot 1.5 is not an int in \[0, 2\*\*32 - 1\)$"),
        ((1, (Instr(Opcode.SET_PHASE, (0, SlotRef(2**32 - 1))), _HALT)),
         r"^pc 0: slot 4294967295 is not an int in \[0, 2\*\*32 - 1\)$"),
        ((1, (Instr(Opcode.PLAY, (SlotOverOmega(2.5, DEFAULT_RABI),)), _HALT)),
         r"^pc 0: slot 2.5 is not an int in \[0, 2\*\*32 - 1\)$"),
    ],
    ids=[
        "negative window start", "window before the kernel", "negative window length",
        "256 qubits", "-1 qubits", "256 channels", "float qubits", "float pair qubit",
        "float window start", "float window length", "no HALT", "a pc past HALT in no block",
        "resume past HALT", "SELECT with no pool", "slot in a pool kernel", "fractional slot",
        "slot count past u32", "fractional duration slot",
    ],
)
def test_a_kernel_the_header_or_the_vm_cannot_hold_fails_when_built(args, match):
    with pytest.raises(CompileError, match=match):
        KernelBinary(*args)


def test_the_widest_header_and_highest_slot_build_and_serialize():
    for k in (
        KernelBinary(255, (_HALT,)),
        KernelBinary(253, (_HALT,), ((0, 1), (1, 2))),
        KernelBinary(1, (Instr(Opcode.SET_PHASE, (0, SlotRef(2**32 - 2))), _HALT)),
    ):
        assert len(k.serialized) == k.size_bytes
    assert k.n_slots == 2**32 - 1


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


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: Instr(Opcode.SET_AMP, (0, math.nan)), CompileError, "^bad real .* nan$"),
        (lambda: Instr(Opcode.SET_AMP, (0, math.inf)), CompileError, "^bad real .* inf$"),
        (lambda: Instr(Opcode.FRAME_ROT, (0, -math.inf)), CompileError, "^bad real .* -inf$"),
        (lambda: Instr(Opcode.PREP, (math.nan,)), CompileError, "^bad f64 .* nan$"),
        (lambda: Instr(Opcode.PREP, (math.inf,)), CompileError, "^bad f64 .* inf$"),
        (lambda: Instr(Opcode.DETECT, (255, -5.0)), CompileError, "^bad f64 .* -5.0$"),
        (lambda: Instr(Opcode.PLAY, (SlotOverOmega(0, 0.0),)), CompileError, "^bad dur "),
        (lambda: Instr(Opcode.PLAY, (SlotOverOmega(0, -1.0),)), CompileError, "^bad dur "),
        (lambda: Instr(Opcode.PLAY, (SlotOverOmega(0, math.nan),)), CompileError, "^bad dur "),
        (lambda: Instr(Opcode.PLAY, (SlotOverOmega(0, math.inf),)), CompileError, "^bad dur "),
        (lambda: LiteralUs(math.inf), InvalidCalibration, "^duration must be finite and >= 0"),
        (
            lambda: KernelBinary(1, (Instr(Opcode.DETECT, (0, 200.0)), Instr(Opcode.HALT, ()))),
            CompileError,
            "^pc 0: detect channel 0, expected 255$",
        ),
    ],
    ids=[
        "nan amp", "infinite amp", "infinite frame angle", "nan prep", "infinite prep",
        "negative detect", "zero rabi snapshot", "negative rabi snapshot", "nan rabi snapshot",
        "infinite rabi snapshot", "infinite literal duration", "one-channel detect",
    ],
)
def test_an_operand_the_vm_cannot_run_fails_when_the_kernel_is_built(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_size_bytes_counts_the_serialized_bytes_of_every_driver_kernel(monkeypatch):
    built: list[tuple[str, KernelBinary]] = []
    record = CompileLog.record

    def capture(self, binary, model):
        kind = "pool" if binary.blocks else "partial" if binary.streams else "full"
        built.append((kind, binary))
        return record(self, binary, model)

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
        run_rb(mode, cost_model=model, lengths=(2, 4, 8), per_length=1, shots=10)
        run_calibration(CalibrationDataset.default(2), mode, cost_model=model)
    built.append(("pool", clifford_pool(CalibrationDataset.default(1), 100)))
    assert {kind for kind, _ in built} == {"full", "partial", "pool"}
    assert any(b.pair_channels for _, b in built) and any(b.blocks for _, b in built)
    for kind, binary in built:
        assert binary.size_bytes == len(binary.serialized), kind
