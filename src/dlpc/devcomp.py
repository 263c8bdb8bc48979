"""Device-level compiler: pulse schedules to kernel binaries, plus the cost model.

A kernel binary is the unit the control stack compiles, uploads, and schedules.
Full kernels bake every parameter into the instruction stream, so a parameter
change forces a recompile.  Partial kernels keep parameters in slot registers
and end in an RPC tail (asynchronous results upload, synchronous parameter
fetch), so one compile serves an arbitrary number of iterations.  Pool kernels
are the partial variant for circuit-shaped parameters: pre-lowered gate blocks
live after HALT and a SELECT instruction replays whichever block sequence the
host streamed in.

Instruction operands: channels are u8 literals (255 addresses every channel in
DETECT), scalar operands are either f64 literals or u32 slot indices resolved
at runtime, and durations are either literal microseconds or a slot angle
divided by a drive-strength snapshot taken at compile time.  Compile cost is
affine in the instruction count, including pool blocks.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property
from hashlib import blake2b
from typing import Sequence

from .ir import SlotRef
from .pulse import (
    Detect,
    FramePhase,
    LiteralUs,
    Prep,
    PulseOp,
    PulseSchedule,
    SlotOverOmega,
    duration_of,
)
from .rpc import TAG_CIRCUIT_BLOCK, TAG_PARAMS, TAG_RESULTS

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "ALL_CHANNELS",
    "CompileError",
    "SlotArityError",
    "Opcode",
    "KernelMode",
    "Instr",
    "KernelBinary",
    "compile_full",
    "compile_partial",
    "compile_pool",
    "CostModel",
    "RunCosts",
    "CompileEvent",
    "CompileLog",
]

MAGIC = b"DLPCQBIN"
FORMAT_VERSION = 1
ALL_CHANNELS = 255

DEFAULT_COMPILE_A = 0.35
# Slope that spaces the stock 86-instruction gate pool and the 141-instruction
# amplitude-sweep kernel 0.33 s apart; the cost-model fit refines the intercept.
DEFAULT_COMPILE_B = 6.0e-3


class CompileError(ValueError):
    """Schedule cannot be lowered to a kernel binary."""


class SlotArityError(CompileError):
    """Bound parameter vector does not match the kernel's slot count."""


class Opcode(IntEnum):
    SET_FREQ = 1
    SET_PHASE = 2
    SET_AMP = 3
    PLAY = 4
    PREP = 6
    DETECT = 7
    LOOP_SHOTS = 8
    RPC_SYNC = 9
    RPC_ASYNC = 10
    SELECT = 11
    HALT = 12
    FRAME_ROT = 13


class KernelMode(IntEnum):
    FULL = 0
    PARTIAL = 1


# Operand layout per opcode.  chan: u8.  real: tag byte, then f64 literal or
# u32 slot.  dur: tag byte, then f64 microseconds or u32 slot + f64 drive
# strength snapshot.  u8/u32/f64 are bare.
_SCHEMES: dict[Opcode, tuple[str, ...]] = {
    Opcode.SET_FREQ: ("chan", "real"),
    Opcode.SET_PHASE: ("chan", "real"),
    Opcode.SET_AMP: ("chan", "real"),
    Opcode.PLAY: ("dur",),
    Opcode.PREP: ("f64",),
    Opcode.DETECT: ("chan", "f64"),
    Opcode.LOOP_SHOTS: ("u32", "u32"),
    Opcode.RPC_SYNC: ("u8", "u32"),
    Opcode.RPC_ASYNC: ("u8",),
    Opcode.SELECT: ("u8",),
    Opcode.HALT: (),
    Opcode.FRAME_ROT: ("chan", "real"),
}

# Operand kind -> predicate every operand of that kind must satisfy.
_OPERAND_OK = {
    "chan": lambda a: isinstance(a, int) and 0 <= a <= 255,
    "real": lambda a: isinstance(a, (float, int, SlotRef)),
    "dur": lambda a: isinstance(a, (LiteralUs, SlotOverOmega)),
    "f64": lambda a: isinstance(a, (float, int)),
    "u8": lambda a: isinstance(a, int) and 0 <= a <= 255,
    "u32": lambda a: isinstance(a, int) and 0 <= a < 2**32,
}

_TAG_LITERAL = 0
_TAG_SLOT = 1

# Encoded bytes per operand kind as (slot operand, literal operand), in the
# formats _encode_instr packs; only "real" and "dur" differ by operand.
_OPERAND_BYTES = {
    "chan": (1, 1),
    "u8": (1, 1),
    "u32": (4, 4),
    "f64": (8, 8),
    "real": (struct.calcsize("<BI"), struct.calcsize("<Bd")),
    "dur": (struct.calcsize("<BId"), struct.calcsize("<Bd")),
}
_HEADER_BYTES = len(MAGIC) + struct.calcsize("<HBBIBII")


@dataclass(frozen=True, slots=True)
class Instr:
    op: Opcode
    args: tuple = ()

    def __post_init__(self) -> None:
        scheme = _SCHEMES[self.op]
        if len(self.args) != len(scheme):
            raise CompileError(
                f"{self.op.name} takes {len(scheme)} operands, got {len(self.args)}"
            )
        for kind, arg in zip(scheme, self.args):
            if not _OPERAND_OK[kind](arg):
                raise CompileError(f"bad {kind} operand for {self.op.name}: {arg!r}")


def _encode_instr(i: Instr) -> bytes:
    out = [struct.pack("<B", i.op)]
    for kind, arg in zip(_SCHEMES[i.op], i.args):
        if kind == "chan" or kind == "u8":
            out.append(struct.pack("<B", arg))
        elif kind == "u32":
            out.append(struct.pack("<I", arg))
        elif kind == "f64":
            out.append(struct.pack("<d", float(arg)))
        elif kind == "real":
            if isinstance(arg, SlotRef):
                out.append(struct.pack("<BI", _TAG_SLOT, arg.index))
            else:
                out.append(struct.pack("<Bd", _TAG_LITERAL, float(arg)))
        else:  # dur
            if isinstance(arg, SlotOverOmega):
                out.append(struct.pack("<BId", _TAG_SLOT, arg.slot, arg.rabi_snapshot))
            else:
                out.append(struct.pack("<Bd", _TAG_LITERAL, arg.value))
    return b"".join(out)


def _instr_bytes(i: Instr) -> int:
    """Length of ``_encode_instr(i)``, without encoding it."""
    size = 1
    for kind, arg in zip(_SCHEMES[i.op], i.args):
        slot, literal = _OPERAND_BYTES[kind]
        size += slot if isinstance(arg, (SlotRef, SlotOverOmega)) else literal
    return size


@dataclass(frozen=True)
class KernelBinary:
    """Compiled kernel: header plus instruction stream.

    pair_channels maps two-qubit drive lines to channel indices: pair k drives
    qubit pair pair_channels[k] on channel n_qubits + k.  blocks is the gate
    pool table, (start, length) instruction windows referenced by SELECT.
    """

    mode: KernelMode
    n_qubits: int
    n_slots: int
    instructions: tuple[Instr, ...]
    pair_channels: tuple[tuple[int, int], ...] = ()
    blocks: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        n = len(self.instructions)
        n_channels = self.n_qubits + len(self.pair_channels)
        for pc, ins in enumerate(self.instructions):
            if ins.op in (Opcode.SET_FREQ, Opcode.SET_PHASE, Opcode.SET_AMP, Opcode.FRAME_ROT):
                if ins.args[0] >= n_channels:
                    raise CompileError(f"pc {pc}: channel {ins.args[0]} out of range")
            elif ins.op is Opcode.DETECT:
                if ins.args[0] != ALL_CHANNELS and ins.args[0] >= self.n_qubits:
                    raise CompileError(f"pc {pc}: detect channel {ins.args[0]} out of range")
            elif ins.op is Opcode.LOOP_SHOTS:
                shots, body = ins.args
                if shots < 1:
                    raise CompileError(f"pc {pc}: loop needs at least one shot")
                if pc + 1 + body > n:
                    raise CompileError(f"pc {pc}: loop body extends past end of kernel")
            elif ins.op is Opcode.RPC_SYNC:
                if ins.args[1] >= n:
                    raise CompileError(f"pc {pc}: resume target {ins.args[1]} out of range")
        for start, length in self.blocks:
            if start + length > n:
                raise CompileError("block table window extends past end of kernel")
        if self.mode is KernelMode.FULL:
            if self.n_slots:
                raise CompileError("full kernels carry no slot registers")
            for pc, ins in enumerate(self.instructions):
                if ins.op in (Opcode.RPC_SYNC, Opcode.RPC_ASYNC, Opcode.SELECT):
                    raise CompileError(f"pc {pc}: {ins.op.name} not allowed in a full kernel")
                for arg in ins.args:
                    if isinstance(arg, (SlotRef, SlotOverOmega)):
                        raise CompileError(f"pc {pc}: unresolved slot operand in full kernel")

    @property
    def n_instr(self) -> int:
        return len(self.instructions)

    @cached_property
    def serialized(self) -> bytes:
        parts = [
            MAGIC,
            struct.pack(
                "<HBBI", FORMAT_VERSION, self.mode, self.n_qubits, self.n_slots
            ),
            struct.pack("<B", len(self.pair_channels)),
        ]
        for i, j in self.pair_channels:
            parts.append(struct.pack("<BB", i, j))
        parts.append(struct.pack("<I", len(self.blocks)))
        for start, length in self.blocks:
            parts.append(struct.pack("<II", start, length))
        parts.append(struct.pack("<I", len(self.instructions)))
        parts.extend(_encode_instr(i) for i in self.instructions)
        return b"".join(parts)

    @cached_property
    def size_bytes(self) -> int:
        """``len(serialized)``, counted from the operand layout instead of encoded."""
        return (
            _HEADER_BYTES
            + 2 * len(self.pair_channels)
            + 8 * len(self.blocks)
            + sum(_instr_bytes(i) for i in self.instructions)
        )

    @cached_property
    def content_hash(self) -> str:
        return blake2b(self.serialized, digest_size=8).hexdigest()


class _Emitter:
    """Channel numbering and body emission for a fixed set of schedules.

    Pair channels are numbered after the single-qubit block, in first-use
    order across the schedule list, so channel indices are stable before any
    instruction is built.
    """

    def __init__(self, schedules: Sequence[PulseSchedule], n_qubits: int | None) -> None:
        pairs: list[tuple[int, int]] = []
        max_qubit = -1
        for s in schedules:
            for item in s.items:
                ch = getattr(item, "channel", None)
                if isinstance(ch, tuple):
                    if ch not in pairs:
                        pairs.append(ch)
                    max_qubit = max(max_qubit, ch[0], ch[1])
                elif isinstance(ch, int):
                    max_qubit = max(max_qubit, ch)
        if n_qubits is None:
            n_qubits = max_qubit + 1
        elif max_qubit >= n_qubits:
            raise CompileError(f"qubit {max_qubit} outside declared {n_qubits} qubits")
        self.n_qubits = n_qubits
        self.pairs = pairs
        self.header_freqs: dict[int, float] = {}

    def channel_of(self, ch: int | tuple[int, int]) -> int:
        if isinstance(ch, tuple):
            return self.n_qubits + self.pairs.index(ch)
        return ch

    def body(self, sched: PulseSchedule, subst) -> list[Instr]:
        out: list[Instr] = []
        for item in sched.items:
            if isinstance(item, PulseOp):
                ch = self.channel_of(item.channel)
                self.header_freqs.setdefault(ch, item.freq)
                out.append(Instr(Opcode.SET_PHASE, (ch, subst(item.phase))))
                out.append(Instr(Opcode.SET_AMP, (ch, subst(item.amp))))
                out.append(Instr(Opcode.PLAY, (subst(item.duration),)))
            elif isinstance(item, FramePhase):
                out.append(Instr(Opcode.FRAME_ROT, (self.channel_of(item.channel), subst(item.angle))))
            elif isinstance(item, Prep):
                out.append(Instr(Opcode.PREP, (item.duration_us,)))
            elif isinstance(item, Detect):
                out.append(Instr(Opcode.DETECT, (ALL_CHANNELS, item.duration_us)))
            else:
                raise CompileError(f"cannot lower schedule item {type(item).__name__}")
        return out

    def header(self) -> list[Instr]:
        return [
            Instr(Opcode.SET_FREQ, (ch, freq))
            for ch, freq in self.header_freqs.items()
        ]


def _normalize(schedules: PulseSchedule | Sequence[PulseSchedule]) -> list[PulseSchedule]:
    if isinstance(schedules, PulseSchedule):
        return [schedules]
    out = list(schedules)
    if not out:
        raise CompileError("no schedules to compile")
    return out


def _make_subst(slot_values: Sequence[float] | None):
    if slot_values is None:
        return lambda v: v

    def subst(v):
        if isinstance(v, SlotRef):
            return float(slot_values[v.index])
        if isinstance(v, SlotOverOmega):
            return LiteralUs(duration_of(slot_values[v.slot], v.rabi_snapshot))
        return v

    return subst


def compile_full(
    schedules: PulseSchedule | Sequence[PulseSchedule],
    slot_values: Sequence[float],
    shots: int,
    *,
    n_qubits: int | None = None,
) -> KernelBinary:
    """Bake parameter values into the stream and emit a one-shot-through kernel."""
    scheds = _normalize(schedules)
    arity = max(s.n_slots for s in scheds)
    if len(slot_values) != arity:
        raise SlotArityError(f"kernel has {arity} slots, got {len(slot_values)} values")
    em = _Emitter(scheds, n_qubits)
    subst = _make_subst(slot_values)
    bodies = [em.body(s, subst) for s in scheds]
    instrs = em.header()
    for body in bodies:
        instrs.append(Instr(Opcode.LOOP_SHOTS, (shots, len(body))))
        instrs.extend(body)
    instrs.append(Instr(Opcode.HALT, ()))
    return KernelBinary(
        KernelMode.FULL, em.n_qubits, 0, tuple(instrs), tuple(em.pairs), ()
    )


def compile_partial(
    schedules: PulseSchedule | Sequence[PulseSchedule],
    shots: int,
    *,
    n_qubits: int | None = None,
) -> KernelBinary:
    """Keep slots live and append the results-upload / parameter-fetch tail."""
    scheds = _normalize(schedules)
    n_slots = max(s.n_slots for s in scheds)
    em = _Emitter(scheds, n_qubits)
    subst = _make_subst(None)
    bodies = [em.body(s, subst) for s in scheds]
    header = em.header()
    instrs = list(header)
    resume = len(header)
    for body in bodies:
        instrs.append(Instr(Opcode.LOOP_SHOTS, (shots, len(body))))
        instrs.extend(body)
    instrs.append(Instr(Opcode.RPC_ASYNC, (TAG_RESULTS,)))
    instrs.append(Instr(Opcode.RPC_SYNC, (TAG_PARAMS, resume)))
    instrs.append(Instr(Opcode.HALT, ()))
    return KernelBinary(
        KernelMode.PARTIAL, em.n_qubits, n_slots, tuple(instrs), tuple(em.pairs), ()
    )


def compile_pool(
    block_schedules: Sequence[PulseSchedule],
    shots: int,
    *,
    prep_us: float,
    detect_us: float,
    n_qubits: int | None = None,
) -> KernelBinary:
    """Pre-lower a gate pool; the host streams block index sequences at runtime.

    Each schedule becomes one SELECT-able block after HALT.  Blocks count toward
    the instruction total, which is what makes the one-off compile expensive and
    every subsequent circuit free.
    """
    if not block_schedules:
        raise CompileError("gate pool is empty")
    em = _Emitter(block_schedules, n_qubits)
    subst = _make_subst(None)
    block_bodies = []
    for s in block_schedules:
        if s.n_slots:
            raise CompileError("pool blocks must be fully literal")
        if any(isinstance(i, (Prep, Detect)) for i in s.items):
            raise CompileError("pool blocks cannot contain state preparation or readout")
        block_bodies.append(em.body(s, subst))

    instrs = em.header()
    resume = len(instrs)
    instrs.append(Instr(Opcode.LOOP_SHOTS, (shots, 3)))
    instrs.append(Instr(Opcode.PREP, (prep_us,)))
    instrs.append(Instr(Opcode.SELECT, (0,)))
    instrs.append(Instr(Opcode.DETECT, (ALL_CHANNELS, detect_us)))
    instrs.append(Instr(Opcode.RPC_ASYNC, (TAG_RESULTS,)))
    instrs.append(Instr(Opcode.RPC_SYNC, (TAG_CIRCUIT_BLOCK, resume)))
    instrs.append(Instr(Opcode.HALT, ()))
    blocks = []
    for body in block_bodies:
        blocks.append((len(instrs), len(body)))
        instrs.extend(body)
    return KernelBinary(
        KernelMode.PARTIAL,
        em.n_qubits,
        0,
        tuple(instrs),
        tuple(em.pairs),
        tuple(blocks),
    )


@dataclass(frozen=True, slots=True)
class RunCosts:
    """Itemized simulated time of a run; a kernel's price is a one-compile run.

    Ledgers add field-wise (``a + b``) and scale by repetition
    (``n * costs``), so any run's bill is a sum of kernel prices plus its
    device and RPC time.
    """

    n_compiles: int = 0
    compile_s: float = 0.0
    upload_s: float = 0.0
    schedule_s: float = 0.0
    device_s: float = 0.0
    rpc_s: float = 0.0

    def __add__(self, other: RunCosts) -> RunCosts:
        return RunCosts(
            self.n_compiles + other.n_compiles,
            self.compile_s + other.compile_s,
            self.upload_s + other.upload_s,
            self.schedule_s + other.schedule_s,
            self.device_s + other.device_s,
            self.rpc_s + other.rpc_s,
        )

    def __rmul__(self, n: int) -> RunCosts:
        return RunCosts(
            n * self.n_compiles,
            n * self.compile_s,
            n * self.upload_s,
            n * self.schedule_s,
            n * self.device_s,
            n * self.rpc_s,
        )

    @property
    def overhead_s(self) -> float:
        """Everything the device spends not running shots."""
        return self.compile_s + self.upload_s + self.schedule_s + self.rpc_s

    @property
    def total_s(self) -> float:
        return self.device_s + self.overhead_s

    @property
    def device_fraction(self) -> float:
        return self.device_s / self.total_s

    @property
    def compile_fraction(self) -> float:
        return self.compile_s / self.total_s

    def to_json_dict(self) -> dict:
        return {
            "n_compiles": self.n_compiles,
            "compile_s": self.compile_s,
            "upload_s": self.upload_s,
            "schedule_s": self.schedule_s,
            "device_s": self.device_s,
            "rpc_s": self.rpc_s,
            "overhead_s": self.overhead_s,
            "total_s": self.total_s,
            "device_fraction": self.device_fraction,
            "compile_fraction": self.compile_fraction,
        }


@dataclass(frozen=True, slots=True)
class CostModel:
    """Affine timing model for the compile-upload-schedule pipeline."""

    compile_a: float = DEFAULT_COMPILE_A
    compile_b: float = DEFAULT_COMPILE_B
    upload_base_s: float = 0.05
    upload_per_byte_s: float = 1e-7
    schedule_s: float = 0.1
    rpc_roundtrip_s: float = 0.002

    def compile_time(self, n_instr: int) -> float:
        return self.compile_a + self.compile_b * n_instr

    def upload_time(self, size_bytes: int) -> float:
        return self.upload_base_s + self.upload_per_byte_s * size_bytes

    def cost_of(self, binary: KernelBinary) -> RunCosts:
        """Price of compiling, uploading and scheduling ``binary`` once."""
        return RunCosts(
            1,
            self.compile_time(binary.n_instr),
            self.upload_time(binary.size_bytes),
            self.schedule_s,
        )


@dataclass(frozen=True, slots=True)
class CompileEvent:
    kind: str
    label: str
    n_instr: int
    size_bytes: int
    compile_s: float
    upload_s: float
    schedule_s: float


@dataclass(slots=True)
class CompileLog:
    """Per-run accounting of every compile-upload-schedule event."""

    events: list[CompileEvent] = field(default_factory=list)

    def record(
        self, binary: KernelBinary, model: CostModel, kind: str, label: str = ""
    ) -> CompileEvent:
        c = model.cost_of(binary)
        ev = CompileEvent(
            kind, label, binary.n_instr, binary.size_bytes,
            c.compile_s, c.upload_s, c.schedule_s,
        )
        self.events.append(ev)
        return ev

    @property
    def n_compiles(self) -> int:
        return len(self.events)

    @property
    def total_compile_s(self) -> float:
        return sum(e.compile_s for e in self.events)
