"""Self-tests for the benchmark.  Run from the checkout root:

    python3 -m pytest perfbench -q

Tiny-budget smoke runs of every workload check that each metric is emitted
with its unit; planted faults check that each output check rejects them.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

import checkout

assert checkout.use_checkout_sources(), "no dlpc sources in this checkout"

import checks  # noqa: E402
import harness  # noqa: E402
import metrics  # noqa: E402
from dlpc.drivers.rb import p_oracle  # noqa: E402
from dlpc.ir import Hamiltonian, PauliTerm  # noqa: E402
from workloads import WORKLOADS, IterationClock  # noqa: E402

SEED = 3
TINY_BUDGET = {"stream-small": 30, "stream-wide": 20, "recompile-rb": 4}


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], budget=TINY_BUDGET[name])


def test_benchmark_json_matches_definitions():
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert spec["end_to_end"] == [dataclasses.asdict(m) for m in metrics.END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_timed_smoke_emits_every_end_to_end_metric(name):
    result, details = harness.timed_run(tiny(name), SEED, 0.001, setup_probes=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, details["failures"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m.name: m.unit for m in metrics.END_TO_END
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())
    tail = details["tail"]
    assert tail["percentile"] == harness.tail_percentile(tail["intervals_per_call"])
    # Host time is wall time divided by the host slowness gauged around each call.
    assert set(details["raw"]) == {"setup_s", "iters_per_s", "iter_p50_us", "iter_tail_us"}
    assert len(details["slowness"]) == details["calls"] - 1 and min(details["slowness"]) > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_smoke_emits_every_per_layer_metric(name, tmp_path):
    workload = tiny(name)
    result, details = harness.traced_run(workload, SEED, 0.001, out_dir=tmp_path)
    assert result["correct"], details["failures"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m.name: m.unit for m in metrics.PER_LAYER
    }
    assert values["trace.threads_leaked"] == 0
    assert (tmp_path / f"spans-{name}-seed{SEED}.npz").is_file()
    # Handoffs per iteration follow from the transport: four rendezvous
    # cells in memory, two host buffers over a socket, none when recompiling.
    expected = {"stream-small": 4.0, "stream-wide": 2.0, "recompile-rb": 0.0}[name]
    assert values["rpc.handoffs_per_iter"] == expected
    if name == "recompile-rb":
        assert values["sim.n_compiles"] == values["drivers.iters"] == 7 * workload.budget
        assert values["devcomp.compiles_per_iter"] == 1.0
        assert values["transpile.calls"] == values["pulse.lower.calls"] == values["drivers.iters"]
    else:
        assert values["sim.n_compiles"] == values["qpu.execute.calls"] == 1
        assert values["ir.expectation.calls"] == values["drivers.iters"]
        assert values["optimizers.step_self_ms"] > 0


@pytest.fixture(scope="module")
def small_call():
    session = tiny("stream-small").prepare(SEED)
    report, counts_by_eval = session.run(IterationClock())
    return session, report, counts_by_eval


def test_checks_pass_on_real_outputs(small_call):
    session, report, counts_by_eval = small_call
    assert session.check((report, counts_by_eval)).failures == []


def test_energy_check_rejects_offset_of_ten_sigma(small_call):
    session, report, counts_by_eval = small_call
    problem = session.problem
    planted = tuple(
        (x, exact + 10 * sigma)
        for (x, _), (exact, sigma) in zip(
            report.trajectory, checks.exact_energies(problem, report.trajectory)
        )
    )
    failures = checks.check_energies(problem, planted)
    assert len(failures) == len(planted)


def test_counts_check_rejects_a_section_one_shot_short(small_call):
    session, _, counts_by_eval = small_call
    planted = copy.deepcopy(counts_by_eval)
    section = planted[5][0]
    section[next(k for k, n in section.items() if n)] -= 1
    failures = checks.check_section_counts(session.problem, planted)
    assert len(failures) == 1 and "99 counts" in failures[0]


def test_determinism_check_rejects_a_changed_sim_value(small_call):
    session, report, counts_by_eval = small_call
    out = session.check((report, counts_by_eval))
    assert harness.determinism_failures(out, out) == []
    changed = dataclasses.replace(out, sim={**out.sim, "rpc_s": out.sim["rpc_s"] + 1e-9})
    assert harness.determinism_failures(out, changed) == [
        f"sim.rpc_s {changed.sim['rpc_s']!r} != {out.sim['rpc_s']!r}"
    ]


def test_rb_check_rejects_wrong_decay_and_compile_count():
    ref = p_oracle(checks.RB_DEPOLARIZING)
    assert checks.check_rb(ref, 280, 280) == []
    assert len(checks.check_rb(ref - 2 * checks.RB_P_TOLERANCE, 280, 280)) == 1
    assert len(checks.check_rb(ref, 279, 280)) == 1


def test_energy_oracle_matches_dense_operators():
    mats = {
        "I": np.eye(2),
        "X": np.array([[0, 1], [1, 0]]),
        "Y": np.array([[0, -1j], [1j, 0]]),
        "Z": np.diag([1, -1]),
    }
    rng = np.random.default_rng(0)
    for n in (1, 2, 4):
        state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state /= np.linalg.norm(state)
        paulis = ["".join(rng.choice(list("IXYZ"), n)) for _ in range(10)]
        ham = Hamiltonian(n, [PauliTerm(1.0, p) for p in paulis])
        expected = []
        for p in paulis:
            dense = np.array([[1.0]])
            for c in reversed(p):  # qubit 0 is the last factor
                dense = np.kron(dense, mats[c])
            expected.append(np.real(np.vdot(state, dense @ state)))
        got = checks.EnergyOracle(ham).expectations(state)
        np.testing.assert_allclose(got, expected, atol=1e-12)


def test_hung_call_ends_as_a_failed_call(monkeypatch):
    release = threading.Event()

    class Hung:
        budget = 7

        def run(self, clock):
            release.wait()

    monkeypatch.setattr(harness, "CALL_TIMEOUT_S", 0.1)
    try:
        record = harness.guarded_call(Hung(), None)
    finally:
        release.set()
    assert record.output is None and record.attempted == record.failed == 7
    assert record.failures == ["driver call timed out"]


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in (checkout.ROOT / "perfbench").glob("*.py"):
        shutil.copy(f, bench)
    shutil.copy(checkout.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2 and out.stdout == ""
