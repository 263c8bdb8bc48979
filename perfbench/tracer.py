"""Spans around calls into each layer, recorded from outside the package.

``Tracer.installed()`` replaces public functions at the module attributes
their callers look them up through, and a few methods on their classes, with
wrappers that record one span per call: name, start, end, parent span,
thread and iteration index.  Spans live in flat arrays until the run ends,
when ``write`` saves them.  A span's self time is its duration minus that of
its direct children, which nest inside it on the same thread.
"""

from __future__ import annotations

import functools
import threading
from array import array
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

import numpy as np

from dlpc import devcomp, ir, qpu, rpc
from dlpc.drivers import rb as rb_driver
from dlpc.drivers import vqe as vqe_driver

from workloads import patched

HANDOFF_THREADS = ("host-main", "host-worker", "kernel-vm")


def _compiled(args, binary):
    return {"devcomp.instrs": binary.n_instr}


def _priced(args, event):
    return {"devcomp.bytes": event.size_bytes}


def _transpiled(args, mapped):
    return {"transpile.ops_out": len(mapped.native_ops)}


def _lowered(args, schedule):
    return {"pulse.items_out": len(schedule.items)}


def _encoded(args, frame):
    return {"rpc.wire_bytes": len(frame)}


def _expectation_inputs(args, energy):
    sections = {id(c): len(c) for c in args[1].values()}
    return {"ir.sections": len(sections), "ir.outcomes": sum(sections.values())}


# (owner, attribute, span name, amounts taken from the call's arguments and result)
_DRIVER_TARGETS = (
    ("compile_full", "devcomp.compile", _compiled),
    ("compile_partial", "devcomp.compile", _compiled),
    ("compile_pool", "devcomp.compile", _compiled),
    ("execute", "qpu.execute", None),
    ("transpile", "transpile", _transpiled),
    ("lower_to_pulses", "pulse.lower", _lowered),
    ("nelder_mead", "optimizers.nelder_mead", None),
    ("expectation_from_counts", "ir.expectation", _expectation_inputs),
)
TARGETS = tuple(
    (module, attr, span, measure)
    for module in (vqe_driver, rb_driver)
    for attr, span, measure in _DRIVER_TARGETS
    if hasattr(module, attr)
) + (
    (qpu, "key_to_bits", "qpu.key_to_bits", None),
    (qpu, "gate_matrix", "qpu.gate_matrix", None),
    (rpc, "encode", "rpc.encode", _encoded),
    (rpc, "decode", "rpc.decode", None),
    (rpc, "bits_to_key", "rpc.bits_to_key", None),
    (ir, "term_expectation", "ir.term_expectation", None),
    (rpc.RendezvousCell, "put", "rpc.cell.put", None),
    (rpc.RendezvousCell, "take", "rpc.cell.take", None),
    (rpc.KernelHandle, "await_reply", "qpu.await_reply", None),
    (devcomp.CompileLog, "record", "devcomp.price", _priced),
)


class Tracer:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.span_names: list[str] = []
        self.thread_names: list[str] = []
        self.name = array("H")
        self.thread = array("H")
        self.parent = array("q")
        self.iteration = array("q")
        self.start = array("q")
        self.end = array("q")
        self.amounts: dict[str, float] = defaultdict(float)
        self.iteration_source: Callable[[], int] = lambda: 0

    def __len__(self) -> int:
        return len(self.start)

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            name = threading.current_thread().name
            with self._lock:
                if name not in self.thread_names:
                    self.thread_names.append(name)
            local.tid = self.thread_names.index(name)
            local.stack = []
        return local

    def wrap(self, span: str, fn, measure=None):
        if span not in self.span_names:
            self.span_names.append(span)
        name_id = self.span_names.index(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = self._thread_state()
            stack = local.stack
            with self._lock:
                idx = len(self.start)
                self.name.append(name_id)
                self.thread.append(local.tid)
                self.parent.append(stack[-1] if stack else -1)
                self.iteration.append(self.iteration_source())
                self.end.append(0)
                self.start.append(perf_counter_ns())
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                stack.pop()
            if measure is not None:
                amounts = measure(args, result)
                with self._lock:
                    for key, value in amounts.items():
                        self.amounts[key] += value
            return result

        return traced

    @contextmanager
    def installed(self):
        with ExitStack() as stack:
            for owner, attr, span, measure in TARGETS:
                stack.enter_context(
                    patched(owner, attr, lambda fn, s=span, m=measure: self.wrap(s, fn, m))
                )
            yield self

    def _column(self, col: str, lo: int = 0, hi: int | None = None) -> np.ndarray:
        # Slicing copies under the interpreter lock, so no buffer stays
        # exported while a leaked thread might still append.
        dtype = {"H": np.uint16, "q": np.int64}[getattr(self, col).typecode]
        return np.frombuffer(getattr(self, col)[lo:hi], dtype=dtype)

    def layer_times(self, lo: int, hi: int) -> dict[tuple[str, str], tuple[int, int, int]]:
        """(span, thread) -> (calls, total ns, self ns) over spans [lo, hi)."""
        parent = self._column("parent", lo, hi)
        dur = self._column("end", lo, hi) - self._column("start", lo, hi)
        children = np.zeros(hi - lo, dtype=np.int64)
        nested = parent >= lo
        np.add.at(children, parent[nested] - lo, dur[nested])
        n_threads = len(self.thread_names)
        key = self._column("name", lo, hi).astype(np.int64) * n_threads + self._column(
            "thread", lo, hi
        )
        size = len(self.span_names) * n_threads
        calls = np.bincount(key, minlength=size)
        total = np.bincount(key, weights=dur, minlength=size)
        own = np.bincount(key, weights=dur - children, minlength=size)
        return {
            (self.span_names[k // n_threads], self.thread_names[k % n_threads]): (
                int(calls[k]),
                int(total[k]),
                int(own[k]),
            )
            for k in np.flatnonzero(calls)
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            span_names=np.array(self.span_names),
            thread_names=np.array(self.thread_names),
            **{
                col: self._column(col)
                for col in ("name", "thread", "parent", "iteration", "start", "end")
            },
        )


def layer_metrics(times: dict, amounts: dict, iters: int) -> dict[str, float]:
    """Per-layer metrics for one traced driver call."""

    def total(span: str, field: int, thread: str | None = None) -> int:
        return sum(v[field] for (s, t), v in times.items() if s == span and thread in (None, t))

    def calls(span):
        return total(span, 0)

    def busy_ms(span):
        return total(span, 1) / 1e6

    def self_ms(span):
        return total(span, 2) / 1e6

    handoffs = calls("rpc.cell.put")
    compiles = calls("devcomp.compile")
    sections = amounts.get("ir.sections", 0)
    return {
        "rpc.handoffs": handoffs,
        "rpc.handoffs_per_iter": handoffs / iters,
        **{
            f"rpc.cell_ms.{t}": (total("rpc.cell.put", 1, t) + total("rpc.cell.take", 1, t)) / 1e6
            for t in HANDOFF_THREADS
        },
        "rpc.encode.calls": calls("rpc.encode"),
        "rpc.encode.busy_ms": busy_ms("rpc.encode"),
        "rpc.decode.calls": calls("rpc.decode"),
        "rpc.decode.busy_ms": busy_ms("rpc.decode"),
        "rpc.wire_bytes": amounts.get("rpc.wire_bytes", 0),
        "rpc.bits_to_key.calls": calls("rpc.bits_to_key"),
        "qpu.execute.calls": calls("qpu.execute"),
        "qpu.execute.self_ms": self_ms("qpu.execute"),
        "qpu.gate_matrix.calls": calls("qpu.gate_matrix"),
        "qpu.key_to_bits.calls": calls("qpu.key_to_bits"),
        "qpu.key_to_bits.busy_ms": busy_ms("qpu.key_to_bits"),
        "qpu.wait_ms": busy_ms("qpu.await_reply"),
        "ir.expectation.calls": calls("ir.expectation"),
        "ir.expectation.busy_ms": busy_ms("ir.expectation"),
        "ir.term_expectation.calls": calls("ir.term_expectation"),
        "ir.outcomes_per_section": amounts.get("ir.outcomes", 0) / sections if sections else 0,
        "transpile.calls": calls("transpile"),
        "transpile.busy_ms": busy_ms("transpile"),
        "transpile.ops_out": amounts.get("transpile.ops_out", 0),
        "pulse.lower.calls": calls("pulse.lower"),
        "pulse.lower.busy_ms": busy_ms("pulse.lower"),
        "pulse.items_out": amounts.get("pulse.items_out", 0),
        "devcomp.compile.calls": compiles,
        "devcomp.compile.busy_ms": busy_ms("devcomp.compile"),
        "devcomp.instrs": amounts.get("devcomp.instrs", 0),
        "devcomp.price.busy_ms": busy_ms("devcomp.price"),
        "devcomp.bytes": amounts.get("devcomp.bytes", 0),
        "devcomp.compiles_per_iter": compiles / iters,
        "drivers.iters": iters,
        "optimizers.step_self_ms": self_ms("optimizers.nelder_mead"),
    }
