"""Metric names, units and the predictions each per-layer metric carries.

``BENCHMARK.json`` lists the same names and units (the self-tests hold the two
in step); this file adds what that file has no room for: for each per-layer
metric, the end-to-end metric it should move, the workload it should move
it on, and the workloads where no change is predicted.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL = ("stream-small", "stream-wide", "recompile-rb")
STREAMS = ("stream-small", "stream-wide")


@dataclass(frozen=True, slots=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


@dataclass(frozen=True, slots=True)
class PerLayer:
    name: str
    unit: str
    better: str
    moves: tuple[str, ...]  # end-to-end metrics a change here should move
    on: tuple[str, ...]  # workloads where it should move them
    steady_on: tuple[str, ...]  # workloads where no change is predicted


# Times are host time: wall time divided by the host slowness the reference
# computation gauges around each call (see ``reference``).  On a shared
# 2-vCPU virtual machine whose speed drifts 20-50% over tens of seconds, that
# cut the run-to-run spread (quartile distance over median, ten seeds) of the
# rate and median interval from 0.1-0.27 in wall time to 0.03-0.07, and of
# set-up time from 0.15-0.24 to 0.04-0.09.  The tail (see
# ``harness.timed_run``) spread 0.04-0.22, so it keeps the widest bound after
# set-up time.
END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("iters_per_s", "1/s", "higher", 0.24),
    EndToEnd("iter_p50_us", "us", "lower", 0.24),
    EndToEnd("iter_tail_us", "us", "lower", 0.24),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1),
)


def _layer(names_units, moves, on, steady_on, better="lower"):
    return tuple(PerLayer(n, u, better, moves, on, steady_on) for n, u in names_units)


_HANDOFF = _layer(
    [
        ("rpc.handoffs", "count"),
        ("rpc.handoffs_per_iter", "count/iter"),
        ("rpc.cell_ms.host-main", "ms"),
        ("rpc.cell_ms.host-worker", "ms"),
        ("rpc.cell_ms.kernel-vm", "ms"),
    ],
    ("iter_p50_us", "iters_per_s"),
    ("stream-small",),
    ("recompile-rb",),
)
_WIRE = _layer(
    [
        ("rpc.encode.calls", "count"),
        ("rpc.encode.busy_ms", "ms"),
        ("rpc.decode.calls", "count"),
        ("rpc.decode.busy_ms", "ms"),
        ("rpc.wire_bytes", "B"),
        ("rpc.bits_to_key.calls", "count"),
    ],
    ("iters_per_s",),
    ("stream-wide",),
    ("stream-small", "recompile-rb"),
)
_QPU = _layer(
    [
        ("qpu.execute.calls", "count"),
        ("qpu.execute.self_ms", "ms"),
        ("qpu.gate_matrix.calls", "count"),
        ("qpu.key_to_bits.calls", "count"),
        ("qpu.key_to_bits.busy_ms", "ms"),
        ("qpu.wait_ms", "ms"),
    ],
    ("iters_per_s", "peak_rss_mb"),
    ("stream-wide", "recompile-rb"),
    ("stream-small",),
)
_IR = _layer(
    [
        ("ir.expectation.calls", "count"),
        ("ir.expectation.busy_ms", "ms"),
        ("ir.term_expectation.calls", "count"),
        ("ir.outcomes_per_section", "count"),
    ],
    ("iters_per_s",),
    ("stream-wide",),
    ("stream-small", "recompile-rb"),
)
_TRANSPILE = _layer(
    [("transpile.calls", "count"), ("transpile.busy_ms", "ms"), ("transpile.ops_out", "count")],
    ("iters_per_s", "iter_p50_us"),
    ("recompile-rb",),
    STREAMS,
)
_PULSE = _layer(
    [("pulse.lower.calls", "count"), ("pulse.lower.busy_ms", "ms"), ("pulse.items_out", "count")],
    ("iters_per_s", "iter_p50_us"),
    ("recompile-rb",),
    STREAMS,
)
_DEVCOMP = _layer(
    [
        ("devcomp.compile.calls", "count"),
        ("devcomp.compile.busy_ms", "ms"),
        ("devcomp.instrs", "count"),
        ("devcomp.price.busy_ms", "ms"),
        ("devcomp.bytes", "B"),
        ("devcomp.compiles_per_iter", "count/iter"),
    ],
    ("iters_per_s", "iter_p50_us"),
    ("recompile-rb",),
    STREAMS,
)
_DRIVERS = _layer(
    [("drivers.iters", "count")], ("iters_per_s",), ("stream-small",), ("stream-wide",), "higher"
) + _layer(
    [("optimizers.step_self_ms", "ms")], ("iters_per_s",), ("stream-small",), ("stream-wide",)
)
# The simulated clock is deterministic: a change here is a modelling change,
# never a host speed-up, so it predicts no end-to-end movement anywhere.
_SIM = _layer(
    [
        ("sim.n_compiles", "count"),
        ("sim.compile_s", "s"),
        ("sim.upload_s", "s"),
        ("sim.schedule_s", "s"),
        ("sim.device_s", "s"),
        ("sim.rpc_s", "s"),
        ("sim.total_s", "s"),
    ],
    (),
    (),
    ALL,
)
_TRACING = _layer(
    [("trace.overhead_frac", "frac"), ("trace.threads_leaked", "count")], (), (), ()
)

PER_LAYER = (
    _HANDOFF + _WIRE + _QPU + _IR + _TRANSPILE + _PULSE + _DEVCOMP + _DRIVERS + _SIM + _TRACING
)
