"""Device-level compiler: pulse schedules to kernel binaries, plus the cost model.

A kernel binary is the unit the control stack compiles, uploads, and schedules.
Partial kernels keep parameters in slot registers and end in an RPC tail
(asynchronous results upload, synchronous parameter fetch), so one compile
serves an arbitrary number of iterations.  A full kernel is the same shot
loops with every slot baked into a literal (``bake``) and a plain HALT for a
tail, so a parameter change forces a recompile.  Pool kernels are the partial
variant for circuit-shaped parameters: pre-lowered gate blocks live after HALT
and a SELECT instruction replays whichever block sequence the host streamed
in.

Instruction operands: channels are u8 literals (255 addresses every channel in
DETECT), scalar operands are either f64 literals or u32 slot indices resolved
at runtime, and durations are either literal microseconds or a slot angle
divided by a drive-strength snapshot taken at compile time.  Compile cost is
affine in the instruction count, including pool blocks.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
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
    "bake",
    "CostModel",
    "RunCosts",
    "CompileLog",
    "MODES",
    "check_mode",
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

# Hoisted out of the per-instruction loops below: an ``Opcode.X`` member
# lookup costs about 125 ns, a global read about 15 ns.
_DETECT = Opcode.DETECT
_LOOP_SHOTS = Opcode.LOOP_SHOTS
_RPC_SYNC = Opcode.RPC_SYNC
_SET_PHASE = Opcode.SET_PHASE
_SET_AMP = Opcode.SET_AMP
_PLAY = Opcode.PLAY
_FRAME_ROT = Opcode.FRAME_ROT
_PREP = Opcode.PREP
# Opcodes whose first operand is a channel, and those a full kernel may not hold.
_CHANNEL_OPS = frozenset({Opcode.SET_FREQ, Opcode.SET_PHASE, Opcode.SET_AMP, Opcode.FRAME_ROT})
_STREAMING_OPS = frozenset({Opcode.RPC_SYNC, Opcode.RPC_ASYNC, Opcode.SELECT})

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
            if ins.op in _CHANNEL_OPS:
                if ins.args[0] >= n_channels:
                    raise CompileError(f"pc {pc}: channel {ins.args[0]} out of range")
            elif ins.op is _DETECT:
                if ins.args[0] != ALL_CHANNELS and ins.args[0] >= self.n_qubits:
                    raise CompileError(f"pc {pc}: detect channel {ins.args[0]} out of range")
            elif ins.op is _LOOP_SHOTS:
                shots, body = ins.args
                if shots < 1:
                    raise CompileError(f"pc {pc}: loop needs at least one shot")
                if pc + 1 + body > n:
                    raise CompileError(f"pc {pc}: loop body extends past end of kernel")
            elif ins.op is _RPC_SYNC:
                if ins.args[1] >= n:
                    raise CompileError(f"pc {pc}: resume target {ins.args[1]} out of range")
        for start, length in self.blocks:
            if start + length > n:
                raise CompileError("block table window extends past end of kernel")
        if self.mode is KernelMode.FULL:
            if self.n_slots:
                raise CompileError("full kernels carry no slot registers")
            for pc, ins in enumerate(self.instructions):
                if ins.op in _STREAMING_OPS:
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

    def body(self, sched: PulseSchedule) -> list[Instr]:
        out: list[Instr] = []
        for item in sched.items:
            if isinstance(item, PulseOp):
                ch = self.channel_of(item.channel)
                self.header_freqs.setdefault(ch, item.freq)
                out.append(Instr(_SET_PHASE, (ch, item.phase)))
                out.append(Instr(_SET_AMP, (ch, item.amp)))
                out.append(Instr(_PLAY, (item.duration,)))
            elif isinstance(item, FramePhase):
                out.append(Instr(_FRAME_ROT, (self.channel_of(item.channel), item.angle)))
            elif isinstance(item, Prep):
                out.append(Instr(_PREP, (item.duration_us,)))
            elif isinstance(item, Detect):
                out.append(Instr(_DETECT, (ALL_CHANNELS, item.duration_us)))
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


def bake(instrs: Sequence[Instr], slot_values: Sequence[float]) -> list[Instr]:
    """``instrs`` with every slot operand replaced by its literal value."""

    def literal(arg):
        if isinstance(arg, SlotRef):
            return float(slot_values[arg.index])
        if isinstance(arg, SlotOverOmega):
            return LiteralUs(duration_of(slot_values[arg.slot], arg.rabi_snapshot))
        return arg

    return [Instr(i.op, tuple(literal(a) for a in i.args)) for i in instrs]


def _emit(
    scheds: list[PulseSchedule], shots: int, n_qubits: int | None
) -> tuple[_Emitter, list[Instr], list[Instr]]:
    """The emitter, the SET_FREQ header and one shot loop per schedule, slots live."""
    em = _Emitter(scheds, n_qubits)
    loops: list[Instr] = []
    for s in scheds:
        body = em.body(s)
        loops.append(Instr(Opcode.LOOP_SHOTS, (shots, len(body))))
        loops.extend(body)
    return em, em.header(), loops


def compile_full(
    schedules: PulseSchedule | Sequence[PulseSchedule],
    slot_values: Sequence[float],
    shots: int,
    *,
    n_qubits: int | None = None,
) -> KernelBinary:
    """The partial kernel's loops, baked with ``slot_values``, run once through."""
    scheds = _normalize(schedules)
    arity = max(s.n_slots for s in scheds)
    if len(slot_values) != arity:
        raise SlotArityError(f"kernel has {arity} slots, got {len(slot_values)} values")
    em, header, loops = _emit(scheds, shots, n_qubits)
    if arity:  # a slot-free kernel, such as every RB circuit, has nothing to bake
        loops = bake(loops, slot_values)
    instrs = (*header, *loops, Instr(Opcode.HALT, ()))
    return KernelBinary(KernelMode.FULL, em.n_qubits, 0, instrs, tuple(em.pairs), ())


def compile_partial(
    schedules: PulseSchedule | Sequence[PulseSchedule],
    shots: int,
    *,
    n_qubits: int | None = None,
) -> KernelBinary:
    """Keep slots live and append the results-upload / parameter-fetch tail."""
    scheds = _normalize(schedules)
    n_slots = max(s.n_slots for s in scheds)
    em, header, loops = _emit(scheds, shots, n_qubits)
    instrs = (
        *header,
        *loops,
        Instr(Opcode.RPC_ASYNC, (TAG_RESULTS,)),
        Instr(Opcode.RPC_SYNC, (TAG_PARAMS, len(header))),
        Instr(Opcode.HALT, ()),
    )
    return KernelBinary(
        KernelMode.PARTIAL, em.n_qubits, n_slots, instrs, tuple(em.pairs), ()
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
    block_bodies = []
    for s in block_schedules:
        if s.n_slots:
            raise CompileError("pool blocks must be fully literal")
        if any(isinstance(i, (Prep, Detect)) for i in s.items):
            raise CompileError("pool blocks cannot contain state preparation or readout")
        block_bodies.append(em.body(s))

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


MODES = ("baseline", "dlpc")


def check_mode(mode: str) -> None:
    """Raise ``ValueError`` unless ``mode`` names a pipeline in ``MODES``."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


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
        return RunCosts(*(getattr(self, f) + getattr(other, f) for f in _LEDGER_FIELDS))

    def __rmul__(self, n: int) -> RunCosts:
        return RunCosts(*(n * getattr(self, f) for f in _LEDGER_FIELDS))

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
        return {f: getattr(self, f) for f in _LEDGER_FIELDS} | {
            "overhead_s": self.overhead_s,
            "total_s": self.total_s,
            "device_fraction": self.device_fraction,
            "compile_fraction": self.compile_fraction,
        }


_LEDGER_FIELDS = tuple(f.name for f in fields(RunCosts))


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


@dataclass(slots=True)
class CompileLog:
    """A run's compile ledger: the summed price of every kernel it built."""

    costs: RunCosts = RunCosts()

    def record(self, binary: KernelBinary, model: CostModel) -> KernelBinary:
        """Add the price of compiling ``binary`` to the ledger; return ``binary``."""
        self.costs += model.cost_of(binary)
        return binary
