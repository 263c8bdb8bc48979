"""Shared generators and oracles for the test suite."""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from dlpc import qpu, rpc
from dlpc.devcomp import KernelBinary, Opcode
from dlpc.ir import Circuit, GateOp, SlotRef, op
from dlpc.pulse import LiteralUs, SlotOverOmega, duration_of
from dlpc.rpc import Sentinel

SESSION_THREADS = ("kernel-vm", "host-worker")

GATE_KINDS = ("RX", "RY", "RZ", "R", "XX", "CNOT")


def random_circuit(rng: np.random.Generator, n_qubits: int, depth: int) -> Circuit:
    """Random fully-literal circuit over the transpiler's input dictionary."""
    ops: list[GateOp] = []
    for _ in range(depth):
        kind = GATE_KINDS[rng.integers(len(GATE_KINDS))]
        if kind in ("XX", "CNOT"):
            if n_qubits < 2:
                kind = "RX"
            else:
                a, b = rng.choice(n_qubits, size=2, replace=False)
                if kind == "XX":
                    ops.append(op("XX", (int(a), int(b)), rng.uniform(-2 * math.pi, 2 * math.pi)))
                else:
                    ops.append(op("CNOT", (int(a), int(b))))
                continue
        q = int(rng.integers(n_qubits))
        if kind == "R":
            ops.append(op("R", q, rng.uniform(-2 * math.pi, 2 * math.pi), rng.uniform(0, 2 * math.pi)))
        else:
            ops.append(op(kind, q, rng.uniform(-2 * math.pi, 2 * math.pi)))
    return Circuit(n_qubits, ops)


def max_phase_aligned_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Elementwise max |a - e^{i t} b| after aligning global phase."""
    k = int(np.argmax(np.abs(b)))
    if abs(b[k]) < 1e-12:
        return float(np.max(np.abs(a - b)))
    phase = a[k] / b[k]
    phase /= abs(phase) if abs(phase) > 0 else 1.0
    return float(np.max(np.abs(a - phase * b)))


@pytest.fixture(autouse=True)
def no_session_thread_outlives_its_test():
    yield
    alive = [t.name for t in threading.enumerate() if t.name in SESSION_THREADS]
    assert not alive, f"session threads still alive after the test: {alive}"


@pytest.fixture
def bitstrings_forbidden(monkeypatch):
    """Make every outcome-key/bitstring conversion raise for the test's duration."""

    def forbidden(*args):
        raise AssertionError("an outcome was converted to or from a bitstring")

    monkeypatch.setattr(rpc, "key_to_bits", forbidden)
    monkeypatch.setattr(rpc, "bits_to_key", forbidden)
    monkeypatch.setattr(qpu, "key_to_bits", forbidden)


def run_within(seconds: float, fn):
    """Call fn() on a daemon thread; fail if it is still running after seconds."""
    out: dict = {}

    def target() -> None:
        try:
            out["value"] = fn()
        except BaseException as e:  # noqa: BLE001 - re-raised below
            out["error"] = e

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(seconds)
    assert not t.is_alive(), f"still running after {seconds}s"
    if "error" in out:
        raise out["error"]
    return out["value"]


def assert_baked(full: KernelBinary, partial: KernelBinary, slot_values) -> None:
    """``full`` is ``partial`` baked with slot_values, by bake's contract.

    This is the baseline kernel the paper describes: the streamed kernel with
    its parameters fixed at compile time and HALT in place of its RPC tail.
    """
    assert (full.streams, full.n_slots) == (False, 0)
    assert (full.n_qubits, full.pair_channels) == (partial.n_qubits, partial.pair_channels)
    ops = [i.op for i in partial.instructions]
    assert ops[-3:] == [Opcode.RPC_ASYNC, Opcode.RPC_SYNC, Opcode.HALT]
    assert [i.op for i in full.instructions] == [*ops[:-3], Opcode.HALT]
    assert not any(
        isinstance(a, (SlotRef, SlotOverOmega)) for i in full.instructions for a in i.args
    )
    for slotted, baked in zip(partial.instructions, full.instructions[:-1]):
        for a, b in zip(slotted.args, baked.args, strict=True):
            if isinstance(a, SlotRef):
                assert type(b) is float and b == float(slot_values[a.index])
            elif isinstance(a, SlotOverOmega):
                assert b == LiteralUs(duration_of(slot_values[a.slot], a.rabi_snapshot))
            else:
                assert b == a


def objective_worker(objective):
    """Session host loop that answers each Results with objective(results)."""

    def host(fetch) -> None:
        reply = None  # the first fetch launches the kernel with None: each kernel names its own
        while not isinstance(reply, Sentinel):
            reply = objective(fetch(reply))

    return host
