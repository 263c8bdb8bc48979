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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .ir import Literal, SlotRef
from .transpile import MappedCircuit

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

TWO_PI = 2.0 * math.pi

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
        if self.rabi <= 0:
            raise InvalidCalibration(f"rabi must be > 0, got {self.rabi}")
        if self.omega <= 0:
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
        self,
        q: int,
        *,
        omega: float | None = None,
        rabi: float | None = None,
        phase: float | None = None,
    ) -> None:
        cur = self.qubit(q)
        self.qubits[q] = QubitCalibration(
            omega=cur.omega if omega is None else omega,
            rabi=cur.rabi if rabi is None else rabi,
            phase=cur.phase if phase is None else phase,
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
        if self.value < 0:
            raise InvalidCalibration(f"duration must be >= 0, got {self.value}")


@dataclass(frozen=True, slots=True)
class SlotOverOmega:
    """Duration computed at runtime as slot_value / rabi_snapshot."""

    slot: int
    rabi_snapshot: float


DurationExpr = LiteralUs | SlotOverOmega


def duration_of(theta: float, rabi: float) -> float:
    """Pulse duration in microseconds; negative angles wrap into [0, 2pi)."""
    if rabi <= 0:
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
        if self.freq <= 0:
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
    n_slots: int

    @property
    def pulse_ops(self) -> list[PulseOp]:
        return [it for it in self.items if isinstance(it, PulseOp)]


def _angle_value(p: Literal | SlotRef) -> float | SlotRef:
    return p if isinstance(p, SlotRef) else p.value


def lower_to_pulses(mc: MappedCircuit, calib: CalibrationDataset) -> PulseSchedule:
    """One PulseOp per physical gate, markers for virtual phases and readout.

    R(theta, phi) on q: freq = omega(q), phase = phase(q) + phi, amp = 1, and the
    duration carries theta (literal angles become literal microseconds, slots
    become SlotOverOmega against the current Rabi snapshot).  RZ becomes a
    FramePhase marker.  XX(chi) becomes one pair pulse of 150 us with
    amp = chi / 2pi.  A measuring circuit is bracketed by Prep and Detect.
    """
    items: list[ScheduleItem] = []
    measured = any(g.kind == "MEASURE" for g in mc.native_ops)
    if measured:
        items.append(Prep(calib.prep_us))
    for g in mc.native_ops:
        if g.kind == "R":
            qc = calib.qubit(g.qubits[0])
            theta, phi = g.params
            if isinstance(phi, SlotRef):
                raise PulseError("pulse phase offsets are compile-time only")
            duration: DurationExpr
            if isinstance(theta, SlotRef):
                duration = SlotOverOmega(theta.index, qc.rabi)
            else:
                duration = LiteralUs(duration_of(theta.value, qc.rabi))
            items.append(
                PulseOp(g.qubits[0], qc.omega, qc.phase + phi.value, 1.0, duration)
            )
        elif g.kind == "RZ":
            items.append(FramePhase(g.qubits[0], _angle_value(g.params[0])))
        elif g.kind == "XX":
            i, j = g.qubits
            calib.pair_params(i, j)
            qc_i, qc_j = calib.qubit(i), calib.qubit(j)
            (chi,) = g.params
            if isinstance(chi, SlotRef):
                raise PulseError("runtime-parameterized entangler angle is not supported")
            pair = (min(i, j), max(i, j))
            items.append(
                PulseOp(
                    pair,
                    min(qc_i.omega, qc_j.omega),
                    0.0,
                    (chi.value % TWO_PI) / TWO_PI,
                    LiteralUs(PAIR_PULSE_US),
                )
            )
        elif g.kind == "MEASURE":
            items.append(Detect(calib.detect_us))
        else:
            raise PulseError(f"cannot lower non-native op {g.kind!r}")
    return PulseSchedule(items=items, n_slots=_check_slots(mc, items))


def _check_slots(mc: MappedCircuit, items: list[ScheduleItem]) -> int:
    """Every source slot occurrence must land in exactly one schedule position."""
    source: dict[int, int] = {}
    for g in mc.native_ops:
        for p in g.params:
            if isinstance(p, SlotRef):
                source[p.index] = source.get(p.index, 0) + 1
    landed: dict[int, int] = {}
    for it in items:
        refs: list[int] = []
        if isinstance(it, PulseOp):
            if isinstance(it.duration, SlotOverOmega):
                refs.append(it.duration.slot)
            if isinstance(it.amp, SlotRef):
                refs.append(it.amp.index)
        elif isinstance(it, FramePhase) and isinstance(it.angle, SlotRef):
            refs.append(it.angle.index)
        for s in refs:
            landed[s] = landed.get(s, 0) + 1
    if source != landed:
        raise PulseError(f"slot occurrences diverged during lowering: {source} != {landed}")
    return 1 + max(source, default=-1)
