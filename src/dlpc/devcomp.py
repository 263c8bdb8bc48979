"""Device-level compiler: pulse schedules to kernel binaries, plus the cost model.

A kernel binary is the unit the control stack compiles, uploads, and schedules.
Every kernel is assembled here.  ``partial_kernel`` builds the streamed form:
a SET_FREQ header, the shot loops with parameters left in slot registers, and
an RPC tail (asynchronous results upload, synchronous fetch that resumes at the
first loop), so one compile serves an arbitrary number of iterations.  Pool
kernels are the streamed form for circuit-shaped parameters: pre-lowered gate
blocks live after HALT and a SELECT instruction replays whichever block
sequence the host streamed in.  A full kernel is a slot-streaming partial
kernel passed through ``bake``: the same header and loops with every slot made
a literal, and a plain HALT for a tail, so a parameter change forces a
recompile.  ``bake`` re-checks only RPC tags and resume targets.

A kernel's slot count is one more than the highest slot operand it reads, and
it streams (header mode byte 1) exactly when it holds an RPC instruction; any
other kernel posts its one set of results at HALT.  ``KernelBinary`` checks a
kernel's structure once, when it is built, so the VM only executes; a broken
rule raises ``CompileError``, naming the pc of the instruction that breaks it:
- the header holds it: 0 to 255 channels, and int slot indices below 2**32 - 1;
- a channel operand names a kernel channel, FRAME_ROT's a qubit and DETECT's 255;
- a shot loop runs at least one shot;
- a shot-loop body or gate block ends inside the kernel and holds no
  LOOP_SHOTS, RPC or HALT, and a gate block no SELECT, so it never recurses;
- the gate blocks tile the pcs after the first HALT outside a shot loop, in table order;
- SELECT needs a gate pool, and a pool kernel reads no slot;
- RPC_ASYNC posts results, RPC_SYNC fetches blocks with a gate pool, parameters
  otherwise, and resumes at or before that HALT.
So every kernel that builds serializes, and runs to HALT given the launch it needs.

Instruction operands: channels are u8 literals, scalars are finite f64
literals or u32 slot indices resolved at runtime, and durations are finite
literal microseconds, never negative, or a slot angle over a finite, positive
drive-strength snapshot taken at compile time.  One table, ``_OPERANDS``, gives
each operand kind its check and its packed formats; the instruction check, the
encoder and the byte counts all read it.  Compile cost is affine in the
instruction count, including pool blocks.

An emitter builds each distinct schedule item's instructions once and extends a
body with that tuple on every repeat.  This is exact, as the instructions depend
only on the item and the channel numbering fixed before any is built; items are
keyed by ``id``, not equality, in a table that lives for one compile call.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, fields
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
    "Instr",
    "KernelBinary",
    "partial_kernel",
    "compile_partial",
    "compile_pool",
    "bake",
    "CostModel",
    "UPLOAD_BASE_S",
    "UPLOAD_PER_BYTE_S",
    "SCHEDULE_S",
    "RPC_ROUNDTRIP_S",
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
# The unfitted prices: an upload, scheduling a kernel, one RPC round trip.
UPLOAD_BASE_S = 0.05
UPLOAD_PER_BYTE_S = 1e-7
SCHEDULE_S = 0.1
RPC_ROUNDTRIP_S = 0.002


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


# Every opcode once more as a module global, for the instruction loops here
# and in ``qpu``: a global read costs about 15 ns, an ``Opcode.X`` lookup 125.
SET_FREQ = Opcode.SET_FREQ
SET_PHASE = Opcode.SET_PHASE
SET_AMP = Opcode.SET_AMP
PLAY = Opcode.PLAY
PREP = Opcode.PREP
DETECT = Opcode.DETECT
LOOP_SHOTS = Opcode.LOOP_SHOTS
RPC_SYNC = Opcode.RPC_SYNC
RPC_ASYNC = Opcode.RPC_ASYNC
SELECT = Opcode.SELECT
HALT = Opcode.HALT
FRAME_ROT = Opcode.FRAME_ROT

# Operand kinds per opcode.
_SCHEMES: dict[Opcode, tuple[str, ...]] = {
    SET_FREQ: ("chan", "real"),
    SET_PHASE: ("chan", "real"),
    SET_AMP: ("chan", "real"),
    PLAY: ("dur",),
    PREP: ("f64",),
    DETECT: ("chan", "f64"),
    LOOP_SHOTS: ("u32", "u32"),
    RPC_SYNC: ("u8", "u32"),
    RPC_ASYNC: ("u8",),
    SELECT: ("u8",),
    HALT: (),
    FRAME_ROT: ("chan", "real"),
}

# Operand kind -> (check, literal struct format, slot struct format).  Bare
# kinds have no slot form.  "real" and "dur" lead with a tag byte, then an f64
# literal, or a u32 slot (plus, for "dur", an f64 drive-strength snapshot).
_OPERANDS = {
    "chan": (lambda a: isinstance(a, int) and 0 <= a <= 255, "B", None),
    "u8": (lambda a: isinstance(a, int) and 0 <= a <= 255, "B", None),
    "u32": (lambda a: isinstance(a, int) and 0 <= a < 2**32, "I", None),
    "f64": (lambda a: isinstance(a, (float, int)) and 0 <= a < math.inf, "d", None),
    "real": (lambda a: isinstance(a, SlotRef) or isinstance(a, (float, int)) and math.isfinite(a),
             "Bd", "BI"),
    "dur": (lambda a: isinstance(a, LiteralUs)
            or isinstance(a, SlotOverOmega) and 0 < a.rabi_snapshot < math.inf, "Bd", "BId"),
}
# (kind, check) per operand of each opcode: ``Instr`` makes one lookup.
_CHECKS = {op: tuple((k, _OPERANDS[k][0]) for k in scheme) for op, scheme in _SCHEMES.items()}
# Encoded bytes per opcode when no operand is a slot, as in every full kernel.
_LITERAL_BYTES = {
    op: struct.calcsize("<B" + "".join(_OPERANDS[kind][1] for kind in scheme))
    for op, scheme in _SCHEMES.items()
}
_HEADER_BYTES = len(MAGIC) + struct.calcsize("<HBBIBII")

_TAG_LITERAL = 0
_TAG_SLOT = 1

# Opcodes whose first operand is a channel and second a real.
_CHANNEL_OPS = frozenset({SET_FREQ, SET_PHASE, SET_AMP, FRAME_ROT})
_RPC_OPS = frozenset({RPC_SYNC, RPC_ASYNC})
_FLOW_OPS = _RPC_OPS | {LOOP_SHOTS, HALT}  # never in a shot loop or a gate block
_SLOT_OPERANDS = (SlotRef, SlotOverOmega)


@dataclass(frozen=True, slots=True)
class Instr:
    op: Opcode
    args: tuple = ()

    def __post_init__(self) -> None:
        checks = _CHECKS[self.op]
        if len(self.args) != len(checks):
            raise CompileError(
                f"{self.op.name} takes {len(checks)} operands, got {len(self.args)}"
            )
        for (kind, check), arg in zip(checks, self.args):
            if not check(arg):
                raise CompileError(f"bad {kind} operand for {self.op.name}: {arg!r}")


def _check_rpc(pc: int, ins: Instr, n: int, pool: bool) -> None:
    """Check an RPC's tag and an RPC_SYNC's resume target, below ``n``; ``pool``: it fetches blocks."""
    op, args = ins.op, ins.args
    tag = TAG_RESULTS if op is RPC_ASYNC else TAG_CIRCUIT_BLOCK if pool else TAG_PARAMS
    if args[0] != tag:
        raise CompileError(f"pc {pc}: {op.name} tag {args[0]}, expected {tag}")
    if op is RPC_SYNC and args[1] >= n:
        raise CompileError(f"pc {pc}: resume target {args[1]} out of range")


def _packing(i: Instr) -> tuple[str, list]:
    """The struct format and values ``i`` encodes to."""
    fmt, values = "<B", [i.op]
    for kind, arg in zip(_SCHEMES[i.op], i.args):
        _, literal, slot = _OPERANDS[kind]
        if isinstance(arg, SlotRef):
            fmt += slot
            values += (_TAG_SLOT, arg.index)
        elif isinstance(arg, SlotOverOmega):
            fmt += slot
            values += (_TAG_SLOT, arg.slot, arg.rabi_snapshot)
        else:
            fmt += literal
            value = arg.value if isinstance(arg, LiteralUs) else arg
            values += (value,) if slot is None else (_TAG_LITERAL, value)
    return fmt, values


@dataclass(frozen=True)
class KernelBinary:
    """Compiled kernel: header plus instruction stream.

    pair_channels maps two-qubit drive lines to channel indices: pair k drives
    qubit pair pair_channels[k], two distinct qubits of the register, on
    channel n_qubits + k.  blocks is the gate pool table, (start, length)
    instruction windows referenced by SELECT.
    n_slots, streams and n_detects come from the one pass that checks the instructions.
    """

    n_qubits: int
    instructions: tuple[Instr, ...]
    pair_channels: tuple[tuple[int, int], ...] = ()
    blocks: tuple[tuple[int, int], ...] = ()
    n_slots: int = field(init=False, compare=False)
    streams: bool = field(init=False, compare=False)
    n_detects: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.instructions)
        n_slots = n_detects = 0
        loop_end = 0  # the pc past the body of the last shot loop
        halt = -1  # the pc of the first HALT outside a shot loop
        rpcs = []
        if not isinstance(self.n_qubits, int):
            raise CompileError(f"{self.n_qubits!r} qubits do not fit the header")
        n_channels = self.n_qubits + len(self.pair_channels)
        if self.n_qubits < 0 or n_channels > ALL_CHANNELS:
            raise CompileError(f"{self.n_qubits} qubits and {n_channels} channels do not fit the header")
        for pc, ins in enumerate(self.instructions):
            op, args = ins.op, ins.args
            if op in _CHANNEL_OPS:
                if args[0] >= n_channels:
                    raise CompileError(f"pc {pc}: channel {args[0]} out of range")
                if op is FRAME_ROT and args[0] >= self.n_qubits:
                    raise CompileError(f"pc {pc}: frame rotation on a pair channel")
                operand = args[1]
            elif op is PLAY:
                operand = args[0]
            else:
                if op is DETECT:
                    n_detects += 1
                    if args[0] != ALL_CHANNELS:
                        raise CompileError(f"pc {pc}: detect channel {args[0]}, expected 255")
                elif op in _FLOW_OPS:
                    if pc < loop_end:
                        raise CompileError(f"pc {pc}: {op.name} not allowed inside a shot loop")
                    if op is LOOP_SHOTS:
                        if args[0] < 1:
                            raise CompileError(f"pc {pc}: loop needs at least one shot")
                        loop_end = pc + 1 + args[1]
                        if loop_end > n:
                            raise CompileError(f"pc {pc}: loop body extends past end of kernel")
                    elif op is not HALT:
                        rpcs.append((pc, ins))
                    elif halt < 0:
                        halt = pc
                elif op is SELECT and not self.blocks:
                    raise CompileError(f"pc {pc}: SELECT in a kernel with no gate pool")
                continue
            if not isinstance(operand, _SLOT_OPERANDS):
                continue
            slot = operand.index if isinstance(operand, SlotRef) else operand.slot
            if not (isinstance(slot, int) and 0 <= slot < 2**32 - 1):
                raise CompileError(f"pc {pc}: slot {slot!r} is not an int in [0, 2**32 - 1)")
            if slot >= n_slots:
                n_slots = slot + 1
        if halt < 0:
            raise CompileError("kernel has no HALT outside a shot loop")
        for k, (i, j) in enumerate(self.pair_channels):
            if i == j or not all(isinstance(q, int) and 0 <= q < self.n_qubits for q in (i, j)):
                raise CompileError(f"pair {k}: ({i}, {j}) is not two distinct qubits of {self.n_qubits}")
        end = halt + 1  # each window starts where the last ended
        for k, (start, length) in enumerate(self.blocks):
            if not (isinstance(start, int) and isinstance(length, int)) or start != end or length < 0:
                raise CompileError(f"block {k}: ({start}, {length}) is not a window from pc {end}")
            end += length
        if end != n:
            raise CompileError(f"gate blocks end at pc {end}, the kernel at {n}")
        for pc in range(halt + 1, n):
            op = self.instructions[pc].op
            if op in _FLOW_OPS or op is SELECT:
                raise CompileError(f"pc {pc}: {op.name} not allowed in a gate block")
        if n_slots and self.blocks:
            raise CompileError("pool blocks must be fully literal")
        for pc, ins in rpcs:
            _check_rpc(pc, ins, halt + 1, bool(self.blocks))
        vars(self).update(n_slots=n_slots, streams=bool(rpcs), n_detects=n_detects)

    @property
    def n_instr(self) -> int:
        return len(self.instructions)

    @cached_property
    def serialized(self) -> bytes:
        parts = [
            MAGIC,
            struct.pack(
                "<HBBI", FORMAT_VERSION, self.streams, self.n_qubits, self.n_slots
            ),
            struct.pack("<B", len(self.pair_channels)),
        ]
        for i, j in self.pair_channels:
            parts.append(struct.pack("<BB", i, j))
        parts.append(struct.pack("<I", len(self.blocks)))
        for start, length in self.blocks:
            parts.append(struct.pack("<II", start, length))
        parts.append(struct.pack("<I", len(self.instructions)))
        for i in self.instructions:
            fmt, values = _packing(i)
            parts.append(struct.pack(fmt, *values))
        return b"".join(parts)

    @cached_property
    def size_bytes(self) -> int:
        """``len(serialized)``, counted from the packed formats instead of encoded."""
        if not self.n_slots:  # every operand is a literal
            body = sum(_LITERAL_BYTES[i.op] for i in self.instructions)
        else:
            body = sum(struct.calcsize(_packing(i)[0]) for i in self.instructions)
        return _HEADER_BYTES + 2 * len(self.pair_channels) + 8 * len(self.blocks) + body

    @cached_property
    def content_hash(self) -> str:
        return blake2b(self.serialized, digest_size=8).hexdigest()

    def check_slot_values(self, values: Sequence[float]) -> None:
        """Raise ``CompileError`` unless ``values`` fill the slots with finite numbers."""
        if len(values) != self.n_slots:
            raise SlotArityError(f"kernel has {self.n_slots} slots, got {len(values)} values")
        for slot, value in enumerate(values):
            if not math.isfinite(value):
                raise CompileError(f"slot {slot} value {value} is not finite")


def partial_kernel(
    header: Sequence[Instr],
    loops: Sequence[Instr],
    *,
    n_qubits: int,
    pair_channels: tuple[tuple[int, int], ...],
    blocks: Sequence[Sequence[Instr]],
) -> KernelBinary:
    """``header`` and ``loops``, the RPC tail, then each pool block after HALT.

    The tail uploads results and fetches the next parameters, or the next
    block sequence when there is a pool, and resumes at the first loop: each
    round replays the loops but not the header.
    """
    fetch = TAG_CIRCUIT_BLOCK if blocks else TAG_PARAMS
    instrs = [
        *header,
        *loops,
        Instr(RPC_ASYNC, (TAG_RESULTS,)),
        Instr(RPC_SYNC, (fetch, len(header))),
        Instr(HALT, ()),
    ]
    table = []
    for body in blocks:
        table.append((len(instrs), len(body)))
        instrs.extend(body)
    return KernelBinary(n_qubits, tuple(instrs), pair_channels, tuple(table))


def bake(kernel: KernelBinary, slot_values: Sequence[float]) -> KernelBinary:
    """The full kernel of a slot-streaming partial kernel.

    That is ``kernel``'s header and loops with every slot operand made its
    literal value from ``slot_values``, then HALT in place of the RPC tail.
    """
    body, tail = kernel.instructions[:-3], kernel.instructions[-3:]
    if [i.op for i in tail] != [RPC_ASYNC, RPC_SYNC, HALT] or (
        tail[1].args[0] != TAG_PARAMS
    ):
        raise CompileError("only a kernel that ends in a parameter fetch can be baked")
    kernel.check_slot_values(slot_values)

    def literal(arg):
        if isinstance(arg, SlotRef):
            return float(slot_values[arg.index])
        if isinstance(arg, SlotOverOmega):
            return LiteralUs(duration_of(slot_values[arg.slot], arg.rabi_snapshot))
        return arg

    if kernel.n_slots:  # a slot-free kernel, such as every RB circuit, is only sliced
        body = tuple(Instr(i.op, tuple(map(literal, i.args))) for i in body)
    rpcs = [(pc, i) for pc, i in enumerate(body) if i.op in _RPC_OPS]
    for pc, i in rpcs:  # no loop holds the cut tail, but a resume target may point past it
        _check_rpc(pc, i, len(body) + 1, False)
    full = object.__new__(KernelBinary)  # operands and channels passed ``kernel``'s check
    vars(full).update(n_qubits=kernel.n_qubits, instructions=(*body, tail[2]), blocks=(), n_slots=0,
                      pair_channels=kernel.pair_channels, streams=bool(rpcs), n_detects=kernel.n_detects)
    return full


class _Emitter:
    """Channel numbering and body emission for a fixed set of schedules.

    Pair channels are numbered after the single-qubit block, in first-use
    order across the schedule list, so channel indices are stable before any
    instruction is built.  ``emitted`` holds each item's instructions by ``id``.
    """

    def __init__(self, schedules: Sequence[PulseSchedule], n_qubits: int) -> None:
        pairs: list[tuple[int, int]] = []
        max_qubit = -1
        # each distinct item once, in first-use order, so the pair order is kept
        for item in {id(i): i for s in schedules for i in s.items}.values():
            ch = getattr(item, "channel", None)
            if isinstance(ch, tuple):
                if ch not in pairs:
                    pairs.append(ch)
                max_qubit = max(max_qubit, ch[0], ch[1])
            elif isinstance(ch, int):
                max_qubit = max(max_qubit, ch)
        if max_qubit >= n_qubits:
            raise CompileError(f"qubit {max_qubit} outside declared {n_qubits} qubits")
        self.n_qubits = n_qubits
        self.pairs = pairs
        self.header_freqs: dict[int, float] = {}
        self.emitted: dict[int, tuple[Instr, ...]] = {}

    def channel_of(self, ch: int | tuple[int, int]) -> int:
        if isinstance(ch, tuple):
            return self.n_qubits + self.pairs.index(ch)
        return ch

    def body(self, sched: PulseSchedule) -> list[Instr]:
        out: list[Instr] = []
        for item in sched.items:
            instrs = self.emitted.get(id(item))
            if instrs is None:
                instrs = self.emitted[id(item)] = self._emit(item)
            out.extend(instrs)
        return out

    def _emit(self, item) -> tuple[Instr, ...]:
        if isinstance(item, PulseOp):
            ch = self.channel_of(item.channel)
            self.header_freqs.setdefault(ch, item.freq)
            phase, amp = Instr(SET_PHASE, (ch, item.phase)), Instr(SET_AMP, (ch, item.amp))
            return phase, amp, Instr(PLAY, (item.duration,))
        if isinstance(item, FramePhase):
            return (Instr(FRAME_ROT, (self.channel_of(item.channel), item.angle)),)
        if isinstance(item, Prep):
            return (Instr(PREP, (item.duration_us,)),)
        if isinstance(item, Detect):
            return (Instr(DETECT, (ALL_CHANNELS, item.duration_us)),)
        raise CompileError(f"cannot lower schedule item {type(item).__name__}")

    def kernel(self, loops: list[Instr], blocks: list[list[Instr]]) -> KernelBinary:
        """The partial kernel: a SET_FREQ per channel driven so far, ``loops``, ``blocks``."""
        header = [Instr(SET_FREQ, item) for item in self.header_freqs.items()]
        return partial_kernel(
            header, loops, n_qubits=self.n_qubits, pair_channels=tuple(self.pairs), blocks=blocks
        )


def compile_partial(
    schedules: PulseSchedule | Sequence[PulseSchedule],
    shots: int,
    *,
    n_qubits: int,
) -> KernelBinary:
    """One shot loop per schedule, slots live, then the parameter-fetch tail."""
    scheds = [schedules] if isinstance(schedules, PulseSchedule) else list(schedules)
    if not scheds:
        raise CompileError("no schedules to compile")
    em = _Emitter(scheds, n_qubits)
    loops: list[Instr] = []
    for s in scheds:
        body = em.body(s)
        loops.append(Instr(LOOP_SHOTS, (shots, len(body))))
        loops.extend(body)
    return em.kernel(loops, [])


def compile_pool(
    block_schedules: Sequence[PulseSchedule],
    shots: int,
    *,
    prep_us: float,
    detect_us: float,
    n_qubits: int,
) -> KernelBinary:
    """Pre-lower a gate pool; the host streams block index sequences at runtime.

    Each schedule becomes one SELECT-able block after HALT.  Blocks count toward
    the instruction total, which is what makes the one-off compile expensive and
    every subsequent circuit free.
    """
    if not block_schedules:
        raise CompileError("gate pool is empty")
    em = _Emitter(block_schedules, n_qubits)
    blocks = []
    for s in block_schedules:
        if any(isinstance(i, (Prep, Detect)) for i in s.items):
            raise CompileError("pool blocks cannot contain state preparation or readout")
        blocks.append(em.body(s))
    loop = [
        Instr(LOOP_SHOTS, (shots, 3)),
        Instr(PREP, (prep_us,)),
        Instr(SELECT, (0,)),
        Instr(DETECT, (ALL_CHANNELS, detect_us)),
    ]
    return em.kernel(loop, blocks)


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
    """Affine timing model for the compile-upload-schedule pipeline.

    Only the compile line is fitted; upload, scheduling and RPC are priced by
    the module constants ``UPLOAD_*``, ``SCHEDULE_S`` and ``RPC_ROUNDTRIP_S``.
    """

    compile_a: float = DEFAULT_COMPILE_A
    compile_b: float = DEFAULT_COMPILE_B

    def compile_time(self, n_instr: int) -> float:
        return self.compile_a + self.compile_b * n_instr

    def upload_time(self, size_bytes: int) -> float:
        return UPLOAD_BASE_S + UPLOAD_PER_BYTE_S * size_bytes

    def cost_of(self, binary: KernelBinary) -> RunCosts:
        """Price of compiling, uploading and scheduling ``binary`` once."""
        return RunCosts(
            1,
            self.compile_time(binary.n_instr),
            self.upload_time(binary.size_bytes),
            SCHEDULE_S,
        )


@dataclass(slots=True)
class CompileLog:
    """A run's compile ledger: the summed price of every kernel it built."""

    costs: RunCosts = RunCosts()

    def record(self, binary: KernelBinary, model: CostModel) -> KernelBinary:
        """Add the price of compiling ``binary`` to the ledger; return ``binary``."""
        self.costs += model.cost_of(binary)
        return binary
