import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dlpc.devcomp import Instr, KernelBinary, Opcode, compile_partial
from dlpc.ir import Circuit, SlotRef, op
from dlpc.pulse import (
    DEFAULT_RABI,
    CalibrationDataset,
    Detect,
    FramePhase,
    InvalidCalibration,
    LiteralUs,
    Prep,
    PulseError,
    PulseOp,
    QubitCalibration,
    SlotOverOmega,
    UncalibratedQubit,
    duration_of,
    lower_to_pulses,
)
from dlpc.qpu import execute
from dlpc.rpc import Params
from dlpc.transpile import transpile


def lowered(circ: Circuit, calib: CalibrationDataset | None = None):
    calib = calib or CalibrationDataset.default(circ.n_qubits)
    return lower_to_pulses(transpile(circ), calib)


def literal_duration_us(sched) -> float:
    """Literal pulse durations plus state preparation and readout."""
    total = 0.0
    for it in sched.items:
        if isinstance(it, PulseOp):
            assert isinstance(it.duration, LiteralUs)
            total += it.duration.value
        elif isinstance(it, (Prep, Detect)):
            total += it.duration_us
    return total


def test_duration_examples():
    rabi = 2 * math.pi * 50e3
    assert duration_of(math.pi, rabi) == pytest.approx(10.0, abs=1e-9)
    assert duration_of(math.pi / 2, rabi) == pytest.approx(5.0, abs=1e-9)
    assert duration_of(0.0, rabi) == 0.0
    # negative angles wrap into [0, 2pi) before the division
    assert duration_of(-math.pi / 2, rabi) == pytest.approx(15.0, abs=1e-9)
    with pytest.raises(InvalidCalibration):
        duration_of(1.0, 0.0)


def test_literal_rotation_bakes_duration():
    sched = lowered(Circuit(1, [op("R", 0, math.pi, 0.0)]))
    (p,) = sched.pulse_ops
    assert isinstance(p.duration, LiteralUs)
    assert p.duration.value == pytest.approx(10.0, abs=1e-9)
    assert p.amp == 1.0
    assert literal_duration_us(sched) == pytest.approx(10.0, abs=1e-9)


def test_slot_rotation_defers_duration():
    sched = lowered(Circuit(1, [op("RY", 0, SlotRef(0))]))
    (p,) = sched.pulse_ops
    assert p.duration == SlotOverOmega(0, DEFAULT_RABI)
    assert compile_partial(sched, 1, n_qubits=1).n_slots == 1
    assert duration_of(math.pi, p.duration.rabi_snapshot) == pytest.approx(10.0, abs=1e-9)


@given(st.floats(-20, 20))
def test_runtime_slot_duration_matches_duration_of(theta):
    # One slot-timed pulse: the VM's kernel clock advances by exactly its duration.
    play = Instr(Opcode.PLAY, (SlotOverOmega(0, DEFAULT_RABI),))
    k = KernelBinary(1, (play, Instr(Opcode.HALT, ())))
    trace = execute(k, launch=Params((theta,)), cost_only=True)
    assert trace.busy_us == duration_of(theta, DEFAULT_RABI)


def test_rz_only_circuit_has_no_pulses_and_zero_duration():
    sched = lowered(Circuit(1, [op("RZ", 0, 0.3), op("RZ", 0, 1.1)]))
    assert sched.pulse_ops == []
    assert literal_duration_us(sched) == 0.0
    assert all(isinstance(it, FramePhase) for it in sched.items)


def test_measured_circuit_is_bracketed_by_prep_and_detect():
    calib = CalibrationDataset.default(1)
    sched = lowered(Circuit(1, [op("RY", 0, math.pi / 2), op("MEASURE", ())]), calib)
    assert isinstance(sched.items[0], Prep)
    assert isinstance(sched.items[-1], Detect)
    assert literal_duration_us(sched) == pytest.approx(100.0 + 5.0 + 200.0, abs=1e-9)


def test_pair_pulse_has_fixed_window_and_amp_encodes_angle():
    sched = lowered(Circuit(2, [op("XX", (1, 0), math.pi / 4)]))
    (p,) = sched.pulse_ops
    assert p.channel == (0, 1)
    assert p.duration == LiteralUs(150.0)
    assert p.amp == pytest.approx((math.pi / 4) / (2 * math.pi))
    with pytest.raises(PulseError):
        lowered(Circuit(2, [op("XX", (0, 1), SlotRef(0))]))


def test_phase_offsets_fold_into_pulse_phase():
    calib = CalibrationDataset(qubits={0: QubitCalibration(12.6e6, DEFAULT_RABI, phase=0.3)})
    sched = lower_to_pulses(transpile(Circuit(1, [op("R", 0, 1.0, 1.2)])), calib)
    assert sched.pulse_ops[0].phase == pytest.approx(1.5)
    assert sched.pulse_ops[0].freq == 12.6e6


def test_uncalibrated_references_are_rejected():
    calib = CalibrationDataset(qubits={0: QubitCalibration(12.6e6, DEFAULT_RABI)})
    with pytest.raises(UncalibratedQubit):
        lower_to_pulses(transpile(Circuit(2, [op("RY", 1, 0.5)])), calib)
    with pytest.raises(UncalibratedQubit):
        calib.pair_params(0, 1)


def test_recalibration_bumps_version():
    calib = CalibrationDataset.default(2)
    v0 = calib.version
    calib.recalibrate_qubit(0, rabi=DEFAULT_RABI * 1.01)
    calib.recalibrate_pair(1, 0, (0.9, 0.0, 0.0, 0.0, 0.0))
    assert calib.version == v0 + 2
    assert calib.pair_params(0, 1)[0] == 0.9
    with pytest.raises(InvalidCalibration):
        calib.recalibrate_qubit(0, rabi=-1.0)
    with pytest.raises(InvalidCalibration):
        calib.recalibrate_pair(0, 1, (1.0,))


def test_amp_validation():
    with pytest.raises(InvalidCalibration):
        PulseOp(0, 1e6, 0.0, 1.5, LiteralUs(1.0))
    # slot-valued amplitude passes through for runtime scans
    p = PulseOp(0, 1e6, 0.0, SlotRef(2), LiteralUs(1.0))
    assert p.amp == SlotRef(2)


NAN = float("nan")
# Each physical-domain check must reject NaN, which fails every comparison.
NAN_VALUES = {
    "omega": lambda: QubitCalibration(omega=NAN, rabi=DEFAULT_RABI),
    "rabi": lambda: QubitCalibration(omega=12.6e6, rabi=NAN),
    "recalibrated-rabi": lambda: CalibrationDataset.default(1).recalibrate_qubit(0, rabi=NAN),
    "duration": lambda: LiteralUs(NAN),
    "freq": lambda: PulseOp(0, NAN, 0.0, 1.0, LiteralUs(1.0)),
    "amp": lambda: PulseOp(0, 1e6, 0.0, NAN, LiteralUs(1.0)),
    "duration_of-rabi": lambda: duration_of(1.0, NAN),
    "lowered-angle": lambda: lowered(Circuit(1, [op("R", 0, NAN, 0.0)])),
}


@pytest.mark.parametrize("build", NAN_VALUES.values(), ids=NAN_VALUES.keys())
def test_nan_is_outside_the_physical_domain(build):
    with pytest.raises(InvalidCalibration):
        build()
