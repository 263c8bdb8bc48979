"""Deterministic work counts: calls into the domain layers, pinned per workload.

A host-time claim needs paired timing runs on a machine whose speed drifts,
and a change that claims no gain is never timed.  A call count is exact and
cheap, so this test pins, for small warm runs, how often each layer does its
unit of work: kernel and instruction checks, gate matrices and products,
transpile and pulse lowerings, readouts, and wire frames encoded and decoded.  A count changes only in a
change that names it and says why, as for the digests.

Calls are counted across all threads by a profile hook that matches code
objects, so a call is counted however its caller reached the function.  The
first run in a process fills module caches (``cliffords.native_ops``,
``ir._gate_plan``), so each workload runs once before it is counted.  The
calibration driver updates its dataset in place, so that workload builds a
fresh one on every run.

``python tests/test_work.py`` prints the current counts in the layout of
``work_counts.json``.
"""

from __future__ import annotations

import json
import sys
import threading
from collections import Counter
from dataclasses import replace
from pathlib import Path

from dlpc import devcomp, ir, pulse, qpu, rpc, transpile
from dlpc.devcomp import CostModel
from dlpc.drivers.calibration import run_calibration
from dlpc.drivers.rb import run_rb
from dlpc.pulse import CalibrationDataset
from dlpc.drivers.vqe import run_vqe, two_param_problem

PINNED = Path(__file__).with_name("work_counts.json")

COUNTED = {
    fn.__code__: name
    for name, fn in {
        "devcomp.KernelBinary.__post_init__": devcomp.KernelBinary.__post_init__,
        "devcomp.Instr.__post_init__": devcomp.Instr.__post_init__,
        "ir._apply_gate": ir._apply_gate,
        "ir.gate_matrix": ir.gate_matrix,
        "transpile._lower_one": transpile._lower_one,
        "pulse._lower_op": pulse._lower_op,
        "qpu._Vm._detect": qpu._Vm._detect,
        "rpc.encode": rpc.encode,
        "rpc.decode": rpc.decode,
    }.items()
}

WORKLOADS = {
    "rb-baseline": lambda: run_rb("baseline", cost_model=CostModel(), run_seed=1, per_length=5),
    "vqe-dlpc-memory": lambda: run_vqe(
        replace(two_param_problem(), max_evals=200), "dlpc", cost_model=CostModel(), run_seed=1
    ),
    "vqe-dlpc-socket": lambda: run_vqe(
        replace(two_param_problem(), max_evals=50),
        "dlpc",
        cost_model=CostModel(),
        run_seed=1,
        transport="socket",
    ),
    "rb-dlpc-memory": lambda: run_rb("dlpc", cost_model=CostModel(), run_seed=1, per_length=5),
    "calibration-baseline": lambda: run_calibration(
        CalibrationDataset.default(2), "baseline", cost_model=CostModel(), run_seed=1
    ),
}


def count_calls(workload) -> dict[str, int]:
    """Calls to each ``COUNTED`` function while ``workload`` runs, on any thread."""
    calls: list[str] = []  # list.append is atomic, so threads cannot lose a call

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in COUNTED:
            calls.append(COUNTED[frame.f_code])

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        workload()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return {name: Counter(calls)[name] for name in COUNTED.values()}


def warm_counts() -> dict[str, dict[str, int]]:
    counts = {}
    for name, workload in WORKLOADS.items():
        workload()
        counts[name] = count_calls(workload)
    return counts


def test_work_counts_are_pinned():
    assert warm_counts() == json.loads(PINNED.read_text())


def test_counting_sees_calls_on_every_thread():
    worker = threading.Thread(target=ir.gate_matrix, args=("RZ", (0.5,)))

    def two_threads():
        ir.gate_matrix("RZ", (0.25,))
        worker.start()
        worker.join()

    assert count_calls(two_threads)["ir.gate_matrix"] == 2


if __name__ == "__main__":
    print(json.dumps(warm_counts(), indent=2))
