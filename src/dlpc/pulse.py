"""Pulse lowering: split hardware invariants from runtime gate parameters.

A MappedCircuit lowers to a flat pulse schedule against one calibration
snapshot.  The hardware invariants (qubit frequency omega, Rabi frequency Omega,
static phase offset) are baked into each PulseOp; the runtime variable theta
only ever appears inside a duration expression, because a resonant pulse of
duration t rotates by theta = Omega * t.  A literal duration therefore does not
record the intended angle at all: if Omega drifts after compilation, the applied
rotation drifts with it, which is the whole point of recalibration.

Pair pulses run for a fixed window and encode the entangling angle chi in the
normalized amplitude (chi = amp * 2pi); their five calibration reals are carried
opaquely for the calibration routines.

Prep and Detect markers are emitted only for circuits that measure: a bare gate
fragment (for example a resolved Clifford block) lowers to pulses alone, and
kernel builders add the experiment scaffolding themselves.

One call lowers each distinct op object once and appends that item for every
repeat (an RB sequence repeats a few cached Clifford ops).  This is exact: an
item depends only on its op and the calibration, and neither changes during a
call.  The table is keyed by ``id`` of ops the circuit holds, not by equality
(``0.0 == -0.0``, yet they encode differently), and it dies with the call:
nothing carries over between circuits, and a recalibration takes effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .ir import GateOp, SlotRef
from .transpile import TWO_PI, MappedCircuit

__all__ = [
    "PulseError",
    "UncalibratedQubit",
    "InvalidCalibration",
    "QubitCalibration",
    "CalibrationDataset",
    "LiteralUs",
    "SlotOverOmega",
    "DurationExpr",
    "PulseOp",
    "FramePhase",
    "Prep",
    "Detect",
    "ScheduleItem",
    "PulseSchedule",
    "duration_of",
    "lower_to_pulses",
]

DEFAULT_RABI = TWO_PI * 50e3  # rad/s; makes a pi/2 pulse exactly 5 us
PAIR_PULSE_US = 150.0
DEFAULT_PREP_US = 100.0
DEFAULT_DETECT_US = 200.0


class PulseError(ValueError):
    """Lowering failure or malformed calibration data."""


class UncalibratedQubit(PulseError):
    """Schedule references a qubit or pair missing from the dataset."""


class InvalidCalibration(PulseError):
    """Calibration values outside their physical domain."""


@dataclass(frozen=True, slots=True)
class QubitCalibration:
    omega: float  # qubit frequency, Hz
    rabi: float  # Rabi frequency, rad/s
    phase: float = 0.0  # static phase offset folded into every pulse

    def __post_init__(self) -> None:
        if not self.rabi > 0:  # written so that NaN fails too
            raise InvalidCalibration(f"rabi must be > 0, got {self.rabi}")
        if not self.omega > 0:
            raise InvalidCalibration(f"omega must be > 0, got {self.omega}")


@dataclass(slots=True)
class CalibrationDataset:
    """Device calibration; ``version`` increases on every update."""

    qubits: dict[int, QubitCalibration]
    pairs: dict[tuple[int, int], tuple[float, ...]] = field(default_factory=dict)
    version: int = 1
    prep_us: float = DEFAULT_PREP_US
    detect_us: float = DEFAULT_DETECT_US

    @classmethod
    def default(cls, n_qubits: int) -> CalibrationDataset:
        qubits = {
            q: QubitCalibration(omega=12.6e6 + 1e3 * q, rabi=DEFAULT_RABI) for q in range(n_qubits)
        }
        pairs = {
            (i, j): (1.0, 0.0, 0.0, 0.0, 0.0)
            for i in range(n_qubits)
            for j in range(i + 1, n_qubits)
        }
        return cls(qubits=qubits, pairs=pairs)

    def qubit(self, q: int) -> QubitCalibration:
        try:
            return self.qubits[q]
        except KeyError:
            raise UncalibratedQubit(f"no calibration for qubit {q}") from None

    def pair_params(self, i: int, j: int) -> tuple[float, ...]:
        for key in ((i, j), (j, i)):
            if key in self.pairs:
                return self.pairs[key]
        raise UncalibratedQubit(f"no calibration for pair {i}-{j}")

    def recalibrate_qubit(
        self, q: int, *, omega: float | None = None, rabi: float | None = None
    ) -> None:
        cur = self.qubit(q)
        self.qubits[q] = QubitCalibration(
            omega=cur.omega if omega is None else omega,
            rabi=cur.rabi if rabi is None else rabi,
            phase=cur.phase,
        )
        self.version += 1

    def recalibrate_pair(self, i: int, j: int, params: tuple[float, ...]) -> None:
        if len(params) != 5:
            raise InvalidCalibration(f"pair params must be 5 reals, got {len(params)}")
        self.pair_params(i, j)  # existence check keeps keys canonical
        key = (i, j) if (i, j) in self.pairs else (j, i)
        self.pairs[key] = tuple(float(x) for x in params)
        self.version += 1


@dataclass(frozen=True, slots=True)
class LiteralUs:
    value: float

    def __post_init__(self) -> None:
        if not 0 <= self.value < math.inf:
            raise InvalidCalibration(f"duration must be finite and >= 0, got {self.value}")


@dataclass(frozen=True, slots=True)
class SlotOverOmega:
    """Duration computed at runtime as slot_value / rabi_snapshot."""

    slot: int
    rabi_snapshot: float


DurationExpr = LiteralUs | SlotOverOmega


def duration_of(theta: float, rabi: float) -> float:
    """Pulse duration in microseconds; negative angles wrap into [0, 2pi)."""
    if not rabi > 0:
        raise InvalidCalibration(f"rabi must be > 0, got {rabi}")
    return (theta % TWO_PI) / rabi * 1e6


@dataclass(frozen=True, slots=True)
class PulseOp:
    channel: int | tuple[int, int]
    freq: float
    phase: float
    amp: float | SlotRef  # normalized drive amplitude in [0, 1]
    duration: DurationExpr

    def __post_init__(self) -> None:
        if not self.freq > 0:
            raise InvalidCalibration(f"pulse frequency must be > 0, got {self.freq}")
        if isinstance(self.amp, float) and not 0.0 <= self.amp <= 1.0:
            raise InvalidCalibration(f"amp must lie in [0, 1], got {self.amp}")


@dataclass(frozen=True, slots=True)
class FramePhase:
    """Virtual-Z bookkeeping marker: zero duration, no pulse emitted."""

    channel: int
    angle: float | SlotRef


@dataclass(frozen=True, slots=True)
class Prep:
    duration_us: float


@dataclass(frozen=True, slots=True)
class Detect:
    duration_us: float


ScheduleItem = PulseOp | FramePhase | Prep | Detect


@dataclass(slots=True)
class PulseSchedule:
    items: list[ScheduleItem]

    @property
    def pulse_ops(self) -> list[PulseOp]:
        return [it for it in self.items if isinstance(it, PulseOp)]


def lower_to_pulses(mc: MappedCircuit, calib: CalibrationDataset) -> PulseSchedule:
    """One PulseOp per physical gate, markers for virtual phases and readout.

    R(theta, phi) on q: freq = omega(q), phase = phase(q) + phi, amp = 1, and the
    duration carries theta (literal angles become literal microseconds, slots
    become SlotOverOmega against the current Rabi snapshot).  RZ becomes a
    FramePhase marker.  XX(chi) becomes one pair pulse of 150 us with
    amp = chi / 2pi.  A measuring circuit is bracketed by Prep and Detect.  Each
    source slot occurrence, repeats included, must land in one schedule position.
    """
    items: list[ScheduleItem] = []
    lowered: dict[int, list] = {}  # id(op) -> [op, its item, occurrences]
    for g in mc.native_ops:
        entry = lowered.get(id(g))
        if entry is None:
            entry = lowered[id(g)] = [g, _lower_op(g, calib), 0]
        items.append(entry[1])
        entry[2] += 1
    source: dict[int, int] = {}
    landed: dict[int, int] = {}
    for g, item, n in lowered.values():
        for p in g.params:
            if isinstance(p, SlotRef):
                source[p.index] = source.get(p.index, 0) + n
        angle = getattr(item, "angle", None)
        for a in (item.duration, item.amp) if isinstance(item, PulseOp) else (angle,):
            if isinstance(a, SlotRef):
                landed[a.index] = landed.get(a.index, 0) + n
            elif isinstance(a, SlotOverOmega):
                landed[a.slot] = landed.get(a.slot, 0) + n
    if source != landed:
        raise PulseError(f"slot occurrences diverged during lowering: {source} != {landed}")
    if any(isinstance(item, Detect) for _, item, _ in lowered.values()):
        items.insert(0, Prep(calib.prep_us))
    return PulseSchedule(items)


def _lower_op(g: GateOp, calib: CalibrationDataset) -> ScheduleItem:
    if g.kind == "R":
        qc = calib.qubit(g.qubits[0])
        theta, phi = g.params
        if isinstance(phi, SlotRef):
            raise PulseError("pulse phase offsets are compile-time only")
        if isinstance(theta, SlotRef):
            duration: DurationExpr = SlotOverOmega(theta.index, qc.rabi)
        else:
            duration = LiteralUs(duration_of(theta, qc.rabi))
        return PulseOp(g.qubits[0], qc.omega, qc.phase + phi, 1.0, duration)
    if g.kind == "RZ":
        (angle,) = g.params
        return FramePhase(g.qubits[0], angle)
    if g.kind == "XX":
        i, j = g.qubits
        calib.pair_params(i, j)
        qc_i, qc_j = calib.qubit(i), calib.qubit(j)
        (chi,) = g.params
        if isinstance(chi, SlotRef):
            raise PulseError("runtime-parameterized entangler angle is not supported")
        freq, amp = min(qc_i.omega, qc_j.omega), (chi % TWO_PI) / TWO_PI
        return PulseOp((min(i, j), max(i, j)), freq, 0.0, amp, LiteralUs(PAIR_PULSE_US))
    if g.kind == "MEASURE":
        return Detect(calib.detect_us)
    raise PulseError(f"cannot lower non-native op {g.kind!r}")
