"""Kernel virtual machine: executes kernel binaries against a simulated device.

Timing is simulated, not wall-clock: every pulse, preparation, and readout
advances the kernel clock by its programmed duration, a shot loop
multiplies the body duration by the shot count, and a synchronous parameter
fetch adds one RPC round trip.  Nothing else costs kernel time.

Physics lives in the durations.  A drive pulse applies R(theta, phi) with
theta = amp * Omega_true * duration: literal durations were computed against
the calibrated drive strength, so if the device has drifted the applied angle
is off by Omega_true / Omega_calibrated, exactly the error a stale compile
produces on hardware.  Pair pulses apply XX(chi) with chi = amp * 2*pi over
their fixed duration.  Frequency programming is bookkeeping only (pulses are
assumed resonant), and frame rotations apply an exact, error-free RZ.

Per-pulse depolarizing noise folds into one coherent fraction per shot,
f = 1 - 4*rho/3 per pulse, so readout samples from
c * |psi|^2 + (1 - c) / 2^n.  That keeps shot loops vectorized: the body runs
once, then the outcome distribution is sampled shot-count times from a
counter-based stream keyed by (run seed, iteration, section), which is what
makes the two pipeline modes statistically identical run-for-run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .devcomp import (
    ALL_CHANNELS,
    Instr,
    KernelBinary,
    KernelMode,
    Opcode,
    SlotArityError,
)
from .ir import SlotRef, _apply_gate, gate_matrix
from .pulse import DEFAULT_RABI, LiteralUs, SlotOverOmega, duration_of
from .rpc import (
    TAG_CIRCUIT_BLOCK,
    TAG_PARAMS,
    CircuitBlock,
    KernelHandle,
    Params,
    ProtocolError,
    Results,
    Sentinel,
    key_to_bits,  # noqa: F401 - unused here, but perfbench's tracer wraps qpu.key_to_bits
)

__all__ = [
    "VM_QUBIT_LIMIT",
    "VmError",
    "UninitializedSlot",
    "TooManyQubits",
    "ExecutionTrace",
    "execute",
]

VM_QUBIT_LIMIT = 12

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF


class VmError(RuntimeError):
    """Kernel execution failure."""


class UninitializedSlot(VmError):
    """A slot register was read before any value was written to it."""


class TooManyQubits(VmError):
    """Register too wide for state-vector simulation; use cost-only mode."""


def shot_rng(run_seed: int, iteration: int, section: int) -> np.random.Generator:
    """Counter-based stream for one readout: identical keys, identical shots."""
    key = np.array(
        [run_seed & _MASK64, ((iteration & _MASK32) << 32) | (section & _MASK32)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(slots=True)
class ExecutionTrace:
    """Simulated-time accounting and results for one kernel execution."""

    n_qubits: int
    n_iterations: int = 0
    busy_us: float = 0.0
    rpc_us: float = 0.0
    results: list[Results] = field(default_factory=list)


class _Vm:
    def __init__(
        self,
        binary: KernelBinary,
        *,
        endpoint: KernelHandle | None,
        run_seed: int,
        iteration: int,
        initial_slots: Sequence[float] | None,
        initial_circuits: Sequence[Sequence[int]] | None,
        rabi_truth: Mapping[int, float] | float | None,
        depolarizing: float,
        rpc_roundtrip_us: float,
        cost_only: bool,
        first_section: int,
    ) -> None:
        self.binary = binary
        self.endpoint = endpoint
        self.run_seed = run_seed
        self.iteration = iteration
        self.rpc_roundtrip_us = rpc_roundtrip_us
        self.cost_only = cost_only
        n = binary.n_qubits
        if n > VM_QUBIT_LIMIT and not cost_only:
            raise TooManyQubits(f"{n} qubits exceeds the {VM_QUBIT_LIMIT}-qubit register")

        self.slots = [0.0] * binary.n_slots
        self.slot_set = [False] * binary.n_slots
        if initial_slots is not None:
            if len(initial_slots) != binary.n_slots:
                raise SlotArityError(
                    f"kernel has {binary.n_slots} slots, got {len(initial_slots)} values"
                )
            self.slots = [float(v) for v in initial_slots]
            self.slot_set = [True] * binary.n_slots

        if binary.mode is KernelMode.PARTIAL and endpoint is None and any(
            i.op in (Opcode.RPC_SYNC, Opcode.RPC_ASYNC) for i in binary.instructions
        ):
            raise VmError("partial kernel requires a host endpoint")

        self.circuit_queue: deque[tuple[int, ...]] = deque()
        self.current_circuit: tuple[int, ...] | None = None
        if initial_circuits:
            for circ in initial_circuits:
                self._enqueue_circuit(circ)
            self.current_circuit = self.circuit_queue.popleft()

        n_channels = n + len(binary.pair_channels)
        self.freq = [0.0] * n_channels
        self.phase = [0.0] * n_channels
        self.amp = [0.0] * n_channels
        self.armed = 0
        if isinstance(rabi_truth, Mapping):
            self.rabi = [float(rabi_truth.get(q, DEFAULT_RABI)) for q in range(n)]
        else:
            self.rabi = [float(rabi_truth if rabi_truth is not None else DEFAULT_RABI)] * n
        self.pulse_survival = max(0.0, 1.0 - 4.0 * depolarizing / 3.0)

        self.state = None if cost_only else self._ground(n)
        self.coherent = 1.0
        # One section per DETECT: outcome key -> count, qubit q on bit q of the
        # key; a one-channel DETECT reads its channel onto bit 0.
        self.sections: list[dict[int, int]] = []
        self.first_section = int(first_section)
        self.section_idx = self.first_section
        self.loop_shots = 1
        self.trace = ExecutionTrace(n_qubits=n)

    @staticmethod
    def _ground(n: int) -> np.ndarray:
        state = np.zeros(2**n, dtype=complex)
        state[0] = 1.0
        return state

    def _enqueue_circuit(self, circ: Sequence[int]) -> None:
        for idx in circ:
            if not 0 <= idx < len(self.binary.blocks):
                raise VmError(f"circuit references block {idx} of {len(self.binary.blocks)}")
        self.circuit_queue.append(tuple(int(i) for i in circ))

    def _slot(self, index: int) -> float:
        if not self.slot_set[index]:
            raise UninitializedSlot(f"slot {index} read before first write")
        return self.slots[index]

    def _real(self, v) -> float:
        return self._slot(v.index) if isinstance(v, SlotRef) else float(v)

    def _duration_us(self, d) -> float:
        if isinstance(d, SlotOverOmega):
            return duration_of(self._slot(d.slot), d.rabi_snapshot)
        assert isinstance(d, LiteralUs)
        return d.value

    def _apply(self, kind: str, qubits: tuple[int, ...], params: tuple[float, ...]) -> None:
        if self.state is not None:
            self.state = _apply_gate(
                self.state, gate_matrix(kind, params), qubits, self.binary.n_qubits
            )

    def _play(self, dur_us: float) -> None:
        ch = self.armed
        n = self.binary.n_qubits
        if ch < n:
            theta = self.amp[ch] * self.rabi[ch] * dur_us * 1e-6
            self._apply("R", (ch,), (theta, self.phase[ch]))
        else:
            pair = self.binary.pair_channels[ch - n]
            chi = self.amp[ch] * 2.0 * np.pi
            self._apply("XX", pair, (chi,))
        self.coherent *= self.pulse_survival

    def _detect(self, channel: int, shots: int) -> None:
        n = self.binary.n_qubits
        if self.cost_only:
            self.sections.append({0: shots})
        else:
            probs = np.abs(self.state) ** 2
            if channel != ALL_CHANNELS:
                mask = (np.arange(2**n) >> channel) & 1
                probs = np.array([probs[mask == 0].sum(), probs[mask == 1].sum()])
            probs = self.coherent * probs + (1.0 - self.coherent) / len(probs)
            cdf = np.cumsum(probs)
            cdf[-1] = 1.0
            rng = shot_rng(self.run_seed, self.iteration, self.section_idx)
            draws = np.searchsorted(cdf, rng.random(shots), side="right")
            hist = np.bincount(draws, minlength=len(probs))
            seen = np.flatnonzero(hist)
            self.sections.append(dict(zip(seen.tolist(), hist[seen].tolist())))
        self.section_idx += 1

    def _exec_window(self, start: int, end: int, shots: int, depth: int = 0) -> float:
        """Run a straight-line window once; returns its per-shot duration."""
        if depth > 2:
            raise VmError("block recursion too deep")
        us = 0.0
        pc = start
        while pc < end:
            ins = self.binary.instructions[pc]
            op = ins.op
            if op is Opcode.SET_FREQ:
                self.freq[ins.args[0]] = self._real(ins.args[1])
                self.armed = ins.args[0]
            elif op is Opcode.SET_PHASE:
                self.phase[ins.args[0]] = self._real(ins.args[1])
                self.armed = ins.args[0]
            elif op is Opcode.SET_AMP:
                self.amp[ins.args[0]] = self._real(ins.args[1])
                self.armed = ins.args[0]
            elif op is Opcode.PLAY:
                dur = self._duration_us(ins.args[0])
                self._play(dur)
                us += dur
            elif op is Opcode.PREP:
                if self.state is not None:
                    self.state = self._ground(self.binary.n_qubits)
                self.coherent = 1.0
                us += ins.args[0]
            elif op is Opcode.DETECT:
                self._detect(ins.args[0], shots)
                us += ins.args[1]
            elif op is Opcode.FRAME_ROT:
                ch = ins.args[0]
                if ch >= self.binary.n_qubits:
                    raise VmError("frame rotation on a pair channel")
                self._apply("RZ", (ch,), (self._real(ins.args[1]),))
            elif op is Opcode.SELECT:
                if self.current_circuit is None:
                    raise VmError("select with no circuit loaded")
                for idx in self.current_circuit:
                    bstart, blen = self.binary.blocks[idx]
                    us += self._exec_window(bstart, bstart + blen, shots, depth + 1)
            else:
                raise VmError(f"{op.name} not allowed inside a shot loop")
            pc += 1
        return us

    def run(self) -> ExecutionTrace:
        instrs = self.binary.instructions
        pc = 0
        while pc < len(instrs):
            ins = instrs[pc]
            op = ins.op
            if op is Opcode.LOOP_SHOTS:
                shots, body_len = ins.args
                body_us = self._exec_window(pc + 1, pc + 1 + body_len, shots)
                self.trace.busy_us += shots * body_us
                pc += 1 + body_len
            elif op is Opcode.RPC_ASYNC:
                self._post_results()
                pc += 1
            elif op is Opcode.RPC_SYNC:
                pc = self._sync(ins, pc)
            elif op is Opcode.HALT:
                break
            else:
                self.trace.busy_us += self._exec_window(pc, pc + 1, 1)
                pc += 1
        else:
            raise VmError("kernel ran off the end without HALT")
        if self.binary.mode is KernelMode.FULL:
            self._post_results()
        return self.trace

    def _post_results(self) -> None:
        msg = Results(self.iteration, self.binary.n_qubits, tuple(self.sections))
        self.trace.results.append(msg)
        if self.endpoint is not None:
            self.endpoint.post_results(msg)
        self.trace.n_iterations += 1
        self.iteration += 1
        self.sections = []
        self.section_idx = self.first_section

    def _sync(self, ins: Instr, pc: int) -> int:
        expected_tag, resume = ins.args
        self.trace.rpc_us += self.rpc_roundtrip_us
        reply = self.endpoint.await_reply()
        if isinstance(reply, Sentinel):
            return pc + 1
        if isinstance(reply, Params):
            if expected_tag != TAG_PARAMS:
                raise ProtocolError("kernel expected a circuit block, got parameters")
            if len(reply.values) != self.binary.n_slots:
                raise SlotArityError(
                    f"kernel has {self.binary.n_slots} slots, got {len(reply.values)} values"
                )
            self.slots = list(reply.values)
            self.slot_set = [True] * self.binary.n_slots
            return resume
        if isinstance(reply, CircuitBlock):
            if expected_tag != TAG_CIRCUIT_BLOCK:
                raise ProtocolError("kernel expected parameters, got a circuit block")
            for circ in reply.circuits:
                self._enqueue_circuit(circ)
            if not self.circuit_queue:
                raise VmError("empty circuit block")
            self.current_circuit = self.circuit_queue.popleft()
            return resume
        raise ProtocolError(f"kernel cannot handle {type(reply).__name__}")


def execute(
    binary: KernelBinary,
    *,
    endpoint: KernelHandle | None = None,
    run_seed: int = 0,
    iteration: int = 0,
    initial_slots: Sequence[float] | None = None,
    initial_circuits: Sequence[Sequence[int]] | None = None,
    rabi_truth: Mapping[int, float] | float | None = None,
    depolarizing: float = 0.0,
    rpc_roundtrip_us: float = 2000.0,
    cost_only: bool = False,
    first_section: int = 0,
) -> ExecutionTrace:
    """Run one kernel to HALT; partial kernels iterate until SENTINEL.

    The kernel executes with whatever launch-time parameters it was given
    (initial_slots, initial_circuits) and only then reaches its synchronous
    fetch, so the first iteration is never blocked on the host.

    first_section offsets the sampling-stream key of the kernel's sections,
    so a single-section kernel run standalone can reproduce section j of a
    multi-section kernel bit for bit.

    The endpoint stays open; ``rpc.run_session`` closes it however the run ends.
    """
    return _Vm(
        binary,
        endpoint=endpoint,
        run_seed=run_seed,
        iteration=iteration,
        initial_slots=initial_slots,
        initial_circuits=initial_circuits,
        rabi_truth=rabi_truth,
        depolarizing=depolarizing,
        rpc_roundtrip_us=rpc_roundtrip_us,
        cost_only=cost_only,
        first_section=first_section,
    ).run()
