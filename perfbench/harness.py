"""One benchmark run of one workload: set-up probes, guarded driver calls, metrics.

A timed run (tracing off) gives the end-to-end metrics.  Its times are host
time, gauged against the reference computation (see ``reference``): each
driver call and each set-up probe is divided by how much slower than nominal
the host ran the reference just before and just after it.  The wall-clock
figures go to the run details.  A traced run makes untraced calls, then the
same calls under the tracer, and gives the per-layer metrics and the tracing
overhead.
Both check every call's outputs, and every call of a run must reproduce the
first call's outputs bit for bit.
"""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter, perf_counter_ns

import numpy as np
import scipy

import checkout
import metrics
from reference import host_slowness, reference_s
from tracer import Tracer, layer_metrics
from workloads import CallOutput, IterationClock, Workload

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 30.0
# A hung driver call ends as a failed call after this long.
CALL_TIMEOUT_S = 60.0
# No call starts after this much wall time, so a run ends well within 180 s.
WALL_LIMIT_S = 100.0
VM_THREADS = ("kernel-vm", "host-worker")
# Each call's tail is read at the highest percentile with this many of its
# intervals beyond it.
TAIL_BEYOND = 10
OUT_DIR = checkout.ROOT / ".perfbench-out"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"


@dataclass(slots=True)
class CallRecord:
    driver_s: float
    attempted: int
    failed: int
    intervals_ns: list[int] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    output: CallOutput | None = None  # None when the call raised or hung
    leaked: int = 0
    layers: dict[str, float] | None = None
    slowness: float = 1.0  # host_slowness() around the call

    @property
    def host_s(self) -> float:
        return self.driver_s / self.slowness


def probe_setup(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its workload inputs being ready."""
    t0 = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(PROBE), name, str(seed)],
        stdout=subprocess.PIPE,
        cwd=checkout.ROOT,
        text=True,
    ) as proc:
        timer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
        finally:
            timer.cancel()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {name} failed with exit code {proc.returncode}")
    return elapsed


def determinism_failures(ref: CallOutput | None, out: CallOutput) -> list[str]:
    if ref is None:
        return []
    failures = [] if out.digest == ref.digest else [f"output digest {out.digest} != {ref.digest}"]
    failures += [
        f"sim.{k} {out.sim[k]!r} != {v!r}" for k, v in ref.sim.items() if out.sim[k] != v
    ]
    return failures


def guarded_call(session, ref: CallOutput | None, tracer: Tracer | None = None) -> CallRecord:
    """One driver call on its own thread, with a timeout, then its output checks."""
    clock = IterationClock()
    box: dict = {}

    def target() -> None:
        start = perf_counter_ns()
        try:
            box["raw"] = session.run(clock)
        except Exception as exc:  # reported as a failed call
            box["error"] = exc
        box["ns"] = perf_counter_ns() - start

    if tracer is not None:
        tracer.iteration_source = lambda: len(clock.stamps)
        lo, before = len(tracer), dict(tracer.amounts)
    thread = threading.Thread(target=target, name="host-main", daemon=True)
    thread.start()
    thread.join(CALL_TIMEOUT_S)
    leaked = sum(1 for t in threading.enumerate() if t.name in VM_THREADS)
    failed = CallRecord(
        driver_s=box.get("ns", CALL_TIMEOUT_S * 1e9) / 1e9,
        attempted=session.budget,
        failed=session.budget,
        leaked=leaked,
    )
    if thread.is_alive() or "raw" not in box:
        reason = "timed out" if thread.is_alive() else f"raised {box.get('error')!r}"
        failed.failures.append(f"driver call {reason}")
        return failed
    try:
        out = session.check(box["raw"])
    except Exception as exc:  # outputs too malformed to check
        failed.failures.append(f"output check raised {exc!r}")
        return failed
    failures = out.failures + determinism_failures(ref, out)
    if len(clock.stamps) != out.iterations:
        failures.append(f"{len(clock.stamps)} clock reads for {out.iterations} iterations")
    record = CallRecord(
        driver_s=box["ns"] / 1e9,
        attempted=out.iterations,
        failed=out.iterations if failures else 0,
        # The first completion has no earlier one; its wait is the call's set-up.
        intervals_ns=np.diff(clock.stamps).tolist(),
        failures=failures,
        output=out,
        leaked=leaked,
    )
    if tracer is not None and out.iterations:
        amounts = {k: v - before.get(k, 0) for k, v in tracer.amounts.items()}
        record.layers = layer_metrics(tracer.layer_times(lo, len(tracer)), amounts, out.iterations)
    return record


def run_calls(session, seconds: float, ref, deadline: float, tracer=None) -> list[CallRecord]:
    """Whole driver calls until their summed driver time reaches ``seconds``.

    The reference computation runs between calls, so each call's host
    slowness comes from the timings just before and just after it.
    """
    records: list[CallRecord] = []
    spent = 0.0
    before = reference_s()
    while spent < seconds and perf_counter() < deadline:
        records.append(guarded_call(session, ref, tracer))
        after = reference_s()
        records[-1].slowness = host_slowness(before, after)
        before = after
        spent += records[-1].driver_s
        if records[-1].output is None:
            break  # a hung or crashed call leaves threads behind; stop here
    return records


def pin_to_one_cpu() -> None:
    """Keep this process, and the set-up probes it starts, on one CPU.

    The stack's threads hand control to each other strictly in turn under one
    interpreter lock, so they never run in parallel.  Spread over CPUs, each
    handoff waits for another CPU to wake, and on a shared virtual machine
    that wait swings with other tenants' load.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def tail_percentile(intervals: int) -> float:
    """The highest percentile with ``TAIL_BEYOND`` of ``intervals`` beyond it, at least the median."""
    return max(50.0, 100.0 * (1.0 - TAIL_BEYOND / intervals))


def noise_record() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def _completed(records: list[CallRecord]) -> list[CallRecord]:
    done = [r for r in records if r.output is not None]
    if not done:
        raise RuntimeError("no driver call completed: " + "; ".join(records[0].failures))
    return done


def _result(records: list[CallRecord], values: dict[str, float], defs) -> dict:
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    units = {d.name: d.unit for d in defs}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def _details(workload, seed, records, noise_before) -> dict:
    failures = [f for r in records for f in r.failures]
    return {
        "workload": workload.name,
        "seed": seed,
        "calls": len(records),
        "fail_frac": sum(r.failed for r in records) / max(1, sum(r.attempted for r in records)),
        "threads_leaked": sum(r.leaked for r in records),
        "failures": failures[:20],
        "noise": {**noise_before, "loadavg_after": list(os.getloadavg())},
        "driver_s": [r.driver_s for r in records],
    }


def timed_run(
    workload: Workload, seed: int, seconds: float, *, setup_probes: int = SETUP_PROBES
) -> tuple[dict, dict]:
    """End-to-end metrics with tracing off; returns (result line, details)."""
    deadline = perf_counter() + WALL_LIMIT_S
    noise = noise_record()
    gauge = [reference_s()]
    setup_raw, setup = [], []
    for _ in range(setup_probes):
        setup_raw.append(probe_setup(workload.name, seed))
        gauge.append(reference_s())
        setup.append(setup_raw[-1] / host_slowness(gauge[-2], gauge[-1]))
    session = workload.prepare(seed)
    warm = guarded_call(session, None)  # lets lazy set-up finish; reference outputs
    ref = _completed([warm])[0].output
    records = [warm] + run_calls(session, seconds, ref, deadline)
    done = _completed(records[1:] or records)
    wall = np.concatenate([np.array(r.intervals_ns, dtype=np.float64) for r in done])
    host = np.concatenate([np.array(r.intervals_ns, dtype=np.float64) / r.slowness for r in done])
    # The tail is each call's own tail, the median over calls.  Pooled over
    # the run, a percentile this high is set by the run's few worst calls:
    # in wall time, those the host ran slowest; in host time, those whose
    # reference timings missed a change of host speed during the call.  Over
    # ten seeds the pooled p99 spread up to 0.34 of its median.
    per_call = min(len(r.intervals_ns) for r in done)
    pct = tail_percentile(per_call)
    tail = median(float(np.percentile(r.intervals_ns, pct)) / r.slowness for r in done)
    values = {
        "setup_s": median(setup),
        "iters_per_s": median(r.output.iterations / r.host_s for r in done),
        "iter_p50_us": float(np.median(host)) / 1e3,
        "iter_tail_us": tail / 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = _details(workload, seed, records, noise)
    details.update(
        setup_samples_s=setup,
        setup_samples_raw_s=setup_raw,
        slowness=[r.slowness for r in done],
        raw={
            "setup_s": median(setup_raw),
            "iters_per_s": median(r.output.iterations / r.driver_s for r in done),
            "iter_p50_us": float(np.median(wall)) / 1e3,
            "iter_tail_us": median(float(np.percentile(r.intervals_ns, pct)) for r in done) / 1e3,
        },
        tail={
            "percentile": pct,
            "intervals_per_call": per_call,
            "beyond_per_call": round(per_call * (1.0 - pct / 100.0)),
            "calls": len(done),
        },
    )
    return _result(records, values, metrics.END_TO_END), details


def traced_run(
    workload: Workload, seed: int, seconds: float, *, out_dir: Path = OUT_DIR
) -> tuple[dict, dict]:
    """Per-layer metrics: half the time untraced, half traced; returns (result line, details)."""
    deadline = perf_counter() + WALL_LIMIT_S
    noise = noise_record()
    session = workload.prepare(seed)
    warm = guarded_call(session, None)
    ref = _completed([warm])[0].output
    plain = run_calls(session, seconds / 2, ref, deadline)
    tracer = Tracer()
    with tracer.installed():
        traced = run_calls(session, seconds / 2, ref, deadline, tracer)
    spans_path = out_dir / f"spans-{workload.name}-seed{seed}.npz"
    tracer.write(spans_path)
    records = [warm] + plain + traced
    layers = [r.layers for r in _completed(traced) if r.layers is not None]
    values = {k: median(layer[k] for layer in layers) for k in layers[0]}
    values.update({f"sim.{k}": v for k, v in ref.sim.items()})
    values["trace.overhead_frac"] = (
        median(r.host_s for r in _completed(traced))
        / median(r.host_s for r in _completed(plain))
        - 1.0
    )
    values["trace.threads_leaked"] = sum(r.leaked for r in records)
    details = _details(workload, seed, records, noise)
    details.update(spans=str(spans_path), spans_recorded=len(tracer))
    return _result(records, values, metrics.PER_LAYER), details
