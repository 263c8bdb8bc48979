"""Kernel virtual machine: executes kernel binaries against a simulated device.

Timing is simulated, not wall-clock: every pulse, preparation, and readout
advances the kernel clock by its programmed duration, a shot loop
multiplies the body duration by the shot count, and a synchronous parameter
fetch adds one RPC round trip, ``devcomp.RPC_ROUNDTRIP_S``.  Nothing else
costs kernel time.  A kernel streams exactly when it holds an RPC instruction:
it then needs a host endpoint and runs until the host sends SENTINEL, and any
other kernel posts one set of results, at HALT.

Physics lives in the durations.  The device drives every qubit at
``DEFAULT_RABI``, and a drive pulse applies R(theta, phi) with
theta = amp * DEFAULT_RABI * duration.  A literal duration was computed against
the drive strength of the calibration its kernel was compiled with, so a kernel
compiled against a stale calibration applies an angle off by
DEFAULT_RABI / Omega_calibrated, exactly the error a stale compile produces on
hardware.  Pair pulses apply XX(chi) with chi = amp * 2*pi over their fixed
duration.  SET_FREQ only arms its channel (pulses are assumed resonant), and
frame rotations apply an exact, error-free RZ.

Each PLAY or FRAME_ROT looks up its resolved (kind, params) in one table of
matrices with two generations: ``shared`` holds this iteration's keys and
``previous`` the iteration before's.  A PARAMS reply makes ``shared`` the new
``previous``, and a miss in ``shared`` moves its key over from ``previous``
before it builds a matrix.  So a literal pulse builds its matrix once per
kernel lifetime and a slot-driven gate at most once per iteration, whichever
pc asks, and the table never holds more than two iterations' keys; a pool
kernel never receives PARAMS and keeps one table for the whole run.  (Equal by
``==``: a reused matrix differs from a fresh one at most in the sign of a
zero, which no probability sees.)

Sections of one iteration often repeat an ansatz and differ only in their
final basis rotations, so the VM also keeps a trie of the states reached
since PREP.  Each child is keyed by its resolved (kind, params, qubits) step
and holds the state after it; PREP moves the cursor back to the root, and a
step found there takes the stored state with no matrix lookup and no
contraction.  The state after a step depends only on the steps since PREP,
and ``ir._apply_gate``, the VM's one contraction (a gather, ``np.dot`` and a
scatter), always returns a fresh array that nothing writes to later, so a
replayed state is the one recomputing would give (again up to the sign of
a zero).  The per-pulse depolarizing factor and the clock are charged on
every step, replayed or not.  The trie is emptied once per iteration, when
the results are posted, so it never holds more nodes than the gates that
iteration ran; emptying it on PARAMS instead would let it grow for the
whole run of a circuit-streaming kernel, which never receives PARAMS.  A
kernel with a single DETECT reads one section per iteration and never
replays a prefix, so it builds no trie.

The dispatch loop is the VM's own largest cost, so it compares opcodes
against ``devcomp``'s module globals (``PLAY`` and kin), binds registers and
``_apply`` to locals once per window, and resolves slot operands inline.  It
checks and raises nothing: ``KernelBinary`` checks each kernel and ``__init__``
its launch, so every window runs and ``run`` always reaches HALT.
A pulse angle is computed in one fixed order, ``amp * rabi * duration * 1e-6``
(``amp * 2.0 * pi`` for a pair pulse); reordering the factors would move
angles, and so draws, in their last bits.

Per-pulse depolarizing noise folds into one coherent fraction per shot,
f = 1 - 4*rho/3 per pulse, so readout samples from
c * |psi|^2 + (1 - c) / 2^n; a noise-free run, c = 1.0, skips the mix, since
1.0 * p + 0.0 is p for every p >= +0.  That keeps shot loops vectorized: the
body runs once, then each section takes one uniform draw per shot from a
counter-based stream keyed by (run seed, iteration, section), which is what
makes the two pipeline modes statistically identical run-for-run.
``shot_rng`` defines that stream.  The VM builds it once, at its first
DETECT, and re-keys the same Philox generator for every later section: a
zero counter, an empty buffer and the section's key are exactly the state
``shot_rng`` builds, so the draws are the same bits without a new
generator and its entropy-seeded ``SeedSequence`` per section.

A draw u reads outcome k when cdf[k-1] <= u < cdf[k], the last CDF entry
forced to 1.0.  Rather than place each draw by a binary search, the VM sorts
the draws in place and counts them against the CDF: with below[k] the number
of draws under cdf[k], outcome k gets below[k] - below[k-1].  That is one
search per outcome instead of one per shot, and no histogram pass.  The
counts are the placed ones integer for integer: a cumulative sum of
non-negative floats never decreases and the forced 1.0 exceeds every draw in
[0, 1), so "cdf[k] <= u" is monotone in k for every draw, even where rounding
lifts the second-to-last sum above 1.0.  The placed outcome of u is then the
number of k with cdf[k] <= u, which is what the differences count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .devcomp import (
    DETECT,
    FRAME_ROT,
    HALT,
    LOOP_SHOTS,
    PLAY,
    PREP,
    RPC_ASYNC,
    RPC_ROUNDTRIP_S,
    RPC_SYNC,
    SET_AMP,
    SET_FREQ,
    SET_PHASE,
    Instr,
    KernelBinary,
)
from .ir import SlotRef, _apply_gate, gate_matrix
from .pulse import DEFAULT_RABI, SlotOverOmega, duration_of
from .rpc import (
    CircuitBlock,
    KernelHandle,
    Params,
    ProtocolError,
    Results,
    RpcMessage,
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
    """A kernel that reads slots or selects gate blocks was started with no launch."""


class TooManyQubits(VmError):
    """Register too wide for state-vector simulation; use cost-only mode."""


def _stream_key(run_seed: int, iteration: int, section: int) -> tuple[int, int]:
    return run_seed & _MASK64, ((iteration & _MASK32) << 32) | (section & _MASK32)


def shot_rng(run_seed: int, iteration: int, section: int) -> np.random.Generator:
    """Counter-based stream for one readout: identical keys, identical shots."""
    key = np.array(_stream_key(run_seed, iteration, section), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def rekey(rng: np.random.Generator, run_seed: int, iteration: int, section: int) -> None:
    """Put a ``shot_rng`` generator in the state ``shot_rng`` builds for this key."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": _stream_key(run_seed, iteration, section)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


@dataclass(slots=True)
class ExecutionTrace:
    """Simulated time of one kernel execution, and its results if no endpoint took them."""

    n_iterations: int = 0
    busy_us: float = 0.0
    rpc_us: float = 0.0
    results: list[Results] = field(default_factory=list)


class _Vm:
    def __init__(
        self,
        binary: KernelBinary,
        *,
        endpoint: KernelHandle | None = None,
        run_seed: int = 0,
        iteration: int = 0,
        launch: Params | CircuitBlock | None = None,
        depolarizing: float = 0.0,
        cost_only: bool = False,
        first_section: int = 0,
    ) -> None:
        self.binary = binary
        self.endpoint = endpoint
        self.run_seed = run_seed
        self.iteration = iteration
        self.cost_only = cost_only
        n = binary.n_qubits
        if n > VM_QUBIT_LIMIT and not cost_only:
            raise TooManyQubits(f"{n} qubits exceeds the {VM_QUBIT_LIMIT}-qubit register")

        self.slots: list[float] = []  # every slot is written at once, by PARAMS
        # (kind, params) -> matrix: this iteration's keys, and the iteration before's
        self.shared: dict[tuple[str, tuple[float, ...]], np.ndarray] = {}
        self.previous: dict[tuple[str, tuple[float, ...]], np.ndarray] = {}
        # A kernel with a gate pool fetches circuit blocks, any other kernel
        # parameters: KernelBinary holds every RPC_SYNC tag to that.
        self.fetched = CircuitBlock if binary.blocks else Params
        if launch is not None:
            self._load(launch)
        elif binary.n_slots or binary.blocks:
            need = f"reads {binary.n_slots} slots" if binary.n_slots else "selects gate blocks"
            raise UninitializedSlot(f"iteration {iteration}: kernel {need}, launch gives none")

        if binary.streams and endpoint is None:
            raise VmError("partial kernel requires a host endpoint")

        n_channels = n + len(binary.pair_channels)
        self.phase = [0.0] * n_channels
        self.amp = [0.0] * n_channels
        self.armed = 0
        if not 0.0 <= depolarizing <= 1.0:
            raise ValueError(f"depolarizing must be a probability in [0, 1], got {depolarizing}")
        self.pulse_survival = max(0.0, 1.0 - 4.0 * depolarizing / 3.0)

        self.state = None if cost_only else self._ground(n)
        # (kind, params, qubits) -> (state, children) from the ground state PREP
        # makes; node holds the children of the current state
        self.root: dict | None = {} if binary.n_detects > 1 and not cost_only else None
        self.node = self.root
        self.rng: np.random.Generator | None = None
        self.coherent = 1.0
        # One section per DETECT: outcome key -> count, qubit q on bit q of the key.
        self.sections: list[dict[int, int]] = []
        self.first_section = int(first_section)
        self.section_idx = self.first_section
        self.trace = ExecutionTrace()

    @staticmethod
    def _ground(n: int) -> np.ndarray:
        state = np.zeros(2**n, dtype=complex)
        state[0] = 1.0
        return state

    def _apply(self, kind: str, qubits: tuple[int, ...], params: tuple[float, ...]) -> None:
        if self.state is None:
            return
        node = self.node
        if node is not None:
            step = (kind, params, qubits)
            hit = node.get(step)
            if hit is not None:
                self.state, self.node = hit
                return
        key = (kind, params)
        mat = self.shared.get(key)
        if mat is None:
            mat = self.previous.pop(key, None)
            if mat is None:
                mat = gate_matrix(kind, params)
            self.shared[key] = mat
        self.state = _apply_gate(self.state, mat, qubits, self.binary.n_qubits)
        if node is not None:
            self.node = {}
            node[step] = self.state, self.node

    def _detect(self, shots: int) -> None:
        if self.cost_only:
            self.sections.append({0: shots})
        else:
            probs = np.abs(self.state) ** 2
            if self.coherent != 1.0:  # else the mix is a no-op
                probs = self.coherent * probs + (1.0 - self.coherent) / len(probs)
            cdf = probs.cumsum()
            cdf[-1] = 1.0
            if self.rng is None:
                self.rng = shot_rng(self.run_seed, self.iteration, self.section_idx)
            else:
                rekey(self.rng, self.run_seed, self.iteration, self.section_idx)
            draws = self.rng.random(shots)
            draws.sort()
            hist = draws.searchsorted(cdf)  # hist[k]: draws under cdf[k] ...
            hist[1:] -= hist[:-1]  # ... less those under cdf[k-1]; numpy buffers the overlap
            (seen,) = hist.nonzero()
            self.sections.append(dict(zip(seen.tolist(), hist[seen].tolist())))
        self.section_idx += 1

    def _exec_window(self, start: int, end: int, shots: int) -> float:
        """Run a straight-line window once; returns its per-shot duration."""
        instrs = self.binary.instructions
        n = self.binary.n_qubits
        phase, amp, slots = self.phase, self.amp, self.slots
        rabi = DEFAULT_RABI
        apply = self._apply
        survival = self.pulse_survival
        us = 0.0
        for pc in range(start, end):
            ins = instrs[pc]
            op = ins.op
            if op is PLAY:
                dur = ins.args[0]
                if isinstance(dur, SlotOverOmega):
                    dur = duration_of(slots[dur.slot], dur.rabi_snapshot)
                else:
                    dur = dur.value
                ch = self.armed
                if ch < n:
                    apply("R", (ch,), (amp[ch] * rabi * dur * 1e-6, phase[ch]))
                else:
                    apply("XX", self.binary.pair_channels[ch - n], (amp[ch] * 2.0 * np.pi,))
                self.coherent *= survival
                us += dur
            elif op is SET_PHASE or op is SET_AMP or op is SET_FREQ or op is FRAME_ROT:
                ch, value = ins.args
                if isinstance(value, SlotRef):
                    value = slots[value.index]
                else:
                    value = float(value)
                if op is SET_PHASE:
                    phase[ch] = value
                elif op is SET_AMP:
                    amp[ch] = value
                elif op is FRAME_ROT:
                    apply("RZ", (ch,), (value,))
                    continue  # a frame rotation arms no channel
                self.armed = ch
            elif op is PREP:
                if self.state is not None:
                    self.state = self._ground(n)
                self.node = self.root
                self.coherent = 1.0
                us += ins.args[0]
            elif op is DETECT:
                self._detect(shots)
                us += ins.args[1]
            else:  # SELECT: no other opcode may stand in a shot loop or a gate block
                for idx in self.current_circuit:
                    bstart, blen = self.binary.blocks[idx]
                    us += self._exec_window(bstart, bstart + blen, shots)
        return us

    def run(self) -> ExecutionTrace:
        instrs = self.binary.instructions
        pc = 0
        while True:  # KernelBinary holds every path to a HALT
            ins = instrs[pc]
            op = ins.op
            if op is LOOP_SHOTS:
                shots, body_len = ins.args
                body_us = self._exec_window(pc + 1, pc + 1 + body_len, shots)
                self.trace.busy_us += shots * body_us
                pc += 1 + body_len
            elif op is RPC_ASYNC:
                self._post_results()
                pc += 1
            elif op is RPC_SYNC:
                pc = self._sync(ins, pc)
            elif op is HALT:
                break
            else:
                self.trace.busy_us += self._exec_window(pc, pc + 1, 1)
                pc += 1
        if not self.binary.streams:
            self._post_results()
        return self.trace

    def _post_results(self) -> None:
        msg = Results(self.iteration, self.binary.n_qubits, tuple(self.sections))
        if self.endpoint is None:
            self.trace.results.append(msg)
        else:
            self.endpoint.post_results(msg)
        self.trace.n_iterations += 1
        self.iteration += 1
        self.sections = []
        self.section_idx = self.first_section
        if self.root is not None:
            self.root = {}

    def _sync(self, ins: Instr, pc: int) -> int:
        self.trace.rpc_us += RPC_ROUNDTRIP_S * 1e6
        reply = self.endpoint.await_reply()
        if isinstance(reply, Sentinel):
            return pc + 1
        self._load(reply)
        return ins.args[1]  # the resume pc

    def _load(self, directive: RpcMessage) -> None:
        """Load a launch or a reply: new slot values, or the circuit SELECT replays."""
        if not isinstance(directive, self.fetched):
            raise ProtocolError(
                f"iteration {self.iteration}: kernel fetches {self.fetched.__name__}, "
                f"got {type(directive).__name__}"
            )
        if self.fetched is Params:
            self.binary.check_slot_values(directive.values)
            self.slots = [float(v) for v in directive.values]
            self.previous, self.shared = self.shared, {}
        else:
            n_blocks = len(self.binary.blocks)
            for idx in directive.circuit:
                if not 0 <= idx < n_blocks:
                    raise VmError(
                        f"iteration {self.iteration}: circuit references block {idx} of {n_blocks}"
                    )
            self.current_circuit = tuple(int(i) for i in directive.circuit)


def execute(binary: KernelBinary, **options) -> ExecutionTrace:
    """Run one kernel to HALT; a streaming kernel iterates until SENTINEL.

    The options are keywords, each defaulting to none, zero or False.
    ``endpoint`` is the ``rpc.KernelHandle`` a streaming kernel talks through;
    it stays open, and ``rpc.run_session`` closes it however the run ends.
    ``run_seed`` and ``iteration`` key the first iteration's sampling stream.
    ``launch`` is iteration 0's directive, the one a session's first fetch
    names: the slot values, or the circuit for a gate-pool kernel, and a kernel
    that needs one raises ``UninitializedSlot`` without it.  The VM loads it
    exactly as it loads a reply to its synchronous fetch, with the same checks
    and errors, and only then runs, so the first iteration is never blocked on
    the host.  A per-pulse ``depolarizing`` probability outside [0, 1], or
    NaN, raises ``ValueError``.
    ``cost_only`` keeps the clock and reads every shot as outcome 0.
    ``first_section`` offsets the sampling-stream key of the kernel's sections,
    so a single-section kernel run standalone can reproduce section j of a
    multi-section kernel bit for bit.
    """
    return _Vm(binary, **options).run()
