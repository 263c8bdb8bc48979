"""Shared generators and oracles for the test suite."""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from dlpc import qpu, rpc
from dlpc.ir import Circuit, GateOp, op
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


def objective_worker(objective):
    """Session worker that answers each Results with objective(results)."""

    def worker(results, params) -> None:
        while True:
            reply = objective(results.take())
            params.put(reply)
            if isinstance(reply, Sentinel):
                return

    return worker
