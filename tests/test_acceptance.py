"""End-to-end acceptance run: headline ratios, scaling shapes, and the
model-independent correctness core.

Every numbered check prints one ACCEPTANCE verdict line straight to the
terminal (bypassing capture) with the measured values and its wall-clock
budget, then asserts at the stated tolerance.  The cost-model fitting oracle
runs first through the actual fit-costmodel subcommand.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import max_phase_aligned_deviation, random_circuit
from dlpc.cli import main as cli_main
from dlpc.devcomp import CostModel
from dlpc.drivers.accounting import speedup
from dlpc.drivers.calibration import run_calibration
from dlpc.drivers.rb import p_oracle, run_rb
from dlpc.drivers.vqe import (
    VqeProblem,
    measurement_sections,
    one_param_problem,
    run_vqe,
    two_param_problem,
)
from dlpc.fitting import calibrated_dataset, fit_cost_model
from dlpc.ir import Circuit, Hamiltonian, PauliTerm, SlotRef, op, statevector, unitary
from dlpc.pulse import CalibrationDataset
from dlpc.rpc import CircuitBlock, Params, Results, Sentinel, decode, encode
from dlpc.scenarios.cloud import (
    DISTRIBUTIONS,
    SIZE_CLASSES,
    CloudWorkload,
    simulate_cloud,
)
from dlpc.scenarios.optimus import run_optimus
from dlpc.transpile import transpile

SHOT_SWEEP = (50, 100, 300, 1000, 5000)
N_RUNS = 10


_REPORTER = None


@pytest.fixture(scope="module", autouse=True)
def _terminal(request):
    # pytest captures fd 1 even for passing tests; the terminal reporter is
    # the one stream that always reaches the user
    global _REPORTER
    _REPORTER = request.config.pluginmanager.get_plugin("terminalreporter")


def _line(text: str) -> None:
    if _REPORTER is None:
        print(text)
    else:
        _REPORTER.ensure_newline()
        _REPORTER.write_line(text)


def _verdict(tag: str, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    state = "PASS" if ok and elapsed < budget else "FAIL"
    _line(f"ACCEPTANCE {tag}: {state} - {detail} [{elapsed:.1f}s / budget {budget:.0f}s]")


def _strictly_decreasing(xs) -> bool:
    return all(a > b for a, b in zip(xs, xs[1:]))


def _strictly_increasing(xs) -> bool:
    return all(a < b for a, b in zip(xs, xs[1:]))


# ---------------------------------------------------------- fitting oracle

@pytest.fixture(scope="module")
def fit(tmp_path_factory):
    out = tmp_path_factory.mktemp("fit")
    assert cli_main(["fit-costmodel", "--deterministic", "--out", str(out)]) == 0
    written = json.loads((out / "costmodel.json").read_text())
    result = fit_cost_model()
    assert written["cost_model"]["compile_a"] == result.cost_model.compile_a
    assert written["cost_model"]["compile_b"] == result.cost_model.compile_b
    rep = {k: round(v, 4) for k, v in result.reproduced.items()}
    _line(
        f"ACCEPTANCE fit: a={result.cost_model.compile_a:.4f} "
        f"b={result.cost_model.compile_b:.4f} prep={result.prep_us:.2f}us "
        f"detect={result.detect_us:.2f}us reproduced={rep}"
    )
    return result


@pytest.fixture(scope="module")
def headline(fit):
    """Ten paired runs per problem, each at its own shot count (1 x 300 for
    one-param, 3 x 200 for two-param); criteria 1 and 2 share them."""
    t0 = time.perf_counter()
    out: dict[str, dict[str, float]] = {}
    for name, make in (("one_param", one_param_problem), ("two_param", two_param_problem)):
        ratios, base_frac, dlpc_frac = [], [], []
        for seed in range(N_RUNS):
            problem = make()
            nq = problem.ansatz.n_qubits
            base = run_vqe(
                problem, "baseline", cost_model=fit.cost_model,
                calib=calibrated_dataset(nq, fit), run_seed=seed,
            )
            dlpc = run_vqe(
                problem, "dlpc", cost_model=fit.cost_model,
                calib=calibrated_dataset(nq, fit), run_seed=seed,
            )
            ratios.append(speedup(base.costs, dlpc.costs))
            base_frac.append(100.0 * base.costs.device_fraction)
            dlpc_frac.append(100.0 * dlpc.costs.device_fraction)
        out[name] = {
            "speedup": float(np.mean(ratios)),
            "base_pct": float(np.mean(base_frac)),
            "dlpc_pct": float(np.mean(dlpc_frac)),
        }
    out["elapsed"] = time.perf_counter() - t0
    return out


# -------------------------------------------------- 1. end-to-end speedup

def test_criterion_1a_speedup_one_param(headline):
    got = headline["one_param"]["speedup"]
    ok = abs(got - 2.2) <= 0.3
    _verdict("1a", ok, f"1-param speedup {got:.3f} vs 2.2 +/- 0.3",
             headline["elapsed"], 10.0)
    assert ok and headline["elapsed"] < 10.0


def test_criterion_1b_speedup_two_param(headline):
    got = headline["two_param"]["speedup"]
    ok = abs(got - 2.7) <= 0.4
    _verdict("1b", ok, f"2-param speedup {got:.3f} vs 2.7 +/- 0.4",
             headline["elapsed"], 10.0)
    assert ok and headline["elapsed"] < 10.0


# ----------------------------------------------- 2. kernel-time fractions

def test_criterion_2a_fractions_one_param(headline):
    dlpc, base = headline["one_param"]["dlpc_pct"], headline["one_param"]["base_pct"]
    ok = abs(dlpc - 94.4) <= 2.0 and abs(base - 46.8) <= 2.0
    _verdict(
        "2a", ok,
        f"1-param kernel fractions dlpc {dlpc:.2f}% vs 94.4 +/- 2, "
        f"baseline {base:.2f}% vs 46.8 +/- 2",
        headline["elapsed"], 10.0,
    )
    assert ok and headline["elapsed"] < 10.0


def test_criterion_2b_fractions_two_param(headline):
    dlpc, base = headline["two_param"]["dlpc_pct"], headline["two_param"]["base_pct"]
    ok = abs(dlpc - 96.1) <= 3.0 and abs(base - 57.9) <= 3.0
    _verdict(
        "2b", ok,
        f"2-param kernel fractions dlpc {dlpc:.2f}% vs 96.1 +/- 3, "
        f"baseline {base:.2f}% vs 57.9 +/- 3",
        headline["elapsed"], 10.0,
    )
    assert ok and headline["elapsed"] < 10.0


# --------------------------------------------- 3. diminishing advantage

def test_criterion_3_diminishing_advantage(fit):
    t0 = time.perf_counter()
    fractions, ratios = [], []
    for shots in SHOT_SWEEP:
        problem = replace(one_param_problem(), shots=shots)
        base = run_vqe(
            problem, "baseline", cost_model=fit.cost_model,
            calib=calibrated_dataset(1, fit), run_seed=0,
        )
        dlpc = run_vqe(
            problem, "dlpc", cost_model=fit.cost_model,
            calib=calibrated_dataset(1, fit), run_seed=0,
        )
        fractions.append(base.costs.compile_fraction)
        ratios.append(speedup(base.costs, dlpc.costs))
    elapsed = time.perf_counter() - t0
    ok = _strictly_decreasing(fractions) and _strictly_decreasing(ratios)
    _verdict(
        "3", ok,
        f"over shots {SHOT_SWEEP}: compile fraction "
        f"{[round(f, 3) for f in fractions]}, speedup {[round(r, 2) for r in ratios]}, "
        "both strictly decreasing",
        elapsed, 30.0,
    )
    assert ok and elapsed < 30.0


# ------------------------------------------------- 4. calibration scaling

def test_criterion_4_calibration_scaling(fit):
    t0 = time.perf_counter()
    sizes = range(2, 11)
    dlpc_compile, base_compile, base_fraction = [], [], []
    for n in sizes:
        base = run_calibration(
            calibrated_dataset(n, fit), "baseline", cost_model=fit.cost_model, run_seed=0
        )
        dlpc = run_calibration(
            calibrated_dataset(n, fit), "dlpc", cost_model=fit.cost_model, run_seed=0
        )
        dlpc_compile.append(dlpc.costs.compile_s)
        base_compile.append(base.costs.compile_s)
        base_fraction.append(base.costs.compile_fraction)
    elapsed = time.perf_counter() - t0

    mean = float(np.mean(dlpc_compile))
    cv = float(np.std(dlpc_compile) / mean)
    coeffs = np.polyfit(list(sizes), base_compile, 2)
    residual = base_compile - np.polyval(coeffs, list(sizes))
    r2 = 1.0 - float(np.sum(residual**2)) / float(
        np.sum((base_compile - np.mean(base_compile)) ** 2)
    )
    ok = cv < 0.05 and abs(mean - 1.2) <= 0.06 and r2 > 0.95 and min(base_fraction) > 0.80
    _verdict(
        "4", ok,
        f"N=2..10: dlpc compile {mean:.3f}s (CV {cv:.4f}), baseline quadratic "
        f"R^2 {r2:.4f}, baseline fraction min {min(base_fraction):.3f}",
        elapsed, 60.0,
    )
    assert ok and elapsed < 60.0


# --------------------------------------------------------- 5. RB scaling

def test_criterion_5_rb_scaling(fit):
    t0 = time.perf_counter()
    base = run_rb(
        "baseline", cost_model=fit.cost_model, calib=calibrated_dataset(1, fit),
        depolarizing=0.01, run_seed=0,
    )
    dlpc = run_rb(
        "dlpc", cost_model=fit.cost_model, calib=calibrated_dataset(1, fit),
        depolarizing=0.01, run_seed=0,
    )
    elapsed = time.perf_counter() - t0

    oracle = p_oracle(0.01)
    p_err = abs(dlpc.fit.p - oracle)
    ok = (
        abs(dlpc.costs.compile_s - 0.87) <= 0.05
        and base.costs.compile_fraction > 0.75
        and p_err <= 0.005
    )
    _verdict(
        "5", ok,
        f"dlpc compile {dlpc.costs.compile_s:.3f}s vs ~0.87, baseline fraction "
        f"{base.costs.compile_fraction:.3f} > 0.75, p {dlpc.fit.p:.5f} vs oracle "
        f"{oracle:.5f} (|diff| {p_err:.5f} <= 0.005)",
        elapsed, 120.0,
    )
    assert ok and elapsed < 120.0


# ------------------------------------------------------- 6. cloud queue

def test_criterion_6_cloud_day(fit):
    t0 = time.perf_counter()
    base_hours, small_minutes, orderings = [], [], []
    for dist in DISTRIBUTIONS:
        per_size = {}
        for size in SIZE_CLASSES:
            workload = CloudWorkload(distribution=dist, size_class=size, seed=0)
            base = simulate_cloud(
                workload, "baseline", cost_model=fit.cost_model,
                prep_us=fit.prep_us, detect_us=fit.detect_us,
            )
            dlpc = simulate_cloud(
                workload, "dlpc", cost_model=fit.cost_model,
                prep_us=fit.prep_us, detect_us=fit.detect_us,
            )
            base_hours.append(base.costs.compile_s / 3600.0)
            per_size[size] = dlpc.costs.compile_s
            if size == "SMALL":
                small_minutes.append(dlpc.costs.compile_s / 60.0)
        orderings.append(per_size["SMALL"] > per_size["MEDIUM"] > per_size["LARGE"])
    elapsed = time.perf_counter() - t0

    small_avg = float(np.mean(small_minutes))
    ok = (
        all(abs(h - 2.7) <= 0.27 for h in base_hours)
        and abs(small_avg - 40.7) <= 0.25 * 40.7
        and all(orderings)
    )
    _verdict(
        "6", ok,
        f"baseline cumulative {base_hours[0]:.2f}h vs 2.7 +/- 10%, dlpc SMALL avg "
        f"{small_avg:.1f}min vs 40.7 +/- 25%, SMALL>MEDIUM>LARGE in all "
        f"{len(orderings)} distributions",
        elapsed, 120.0,
    )
    assert ok and elapsed < 120.0


# --------------------------------------------------- 7. drift and repair

def test_criterion_7_optimus_drift(fit):
    t0 = time.perf_counter()
    report = run_optimus(
        cost_model=fit.cost_model, calib=calibrated_dataset(5, fit),
        n_samples=100, seed=0,
    )
    elapsed = time.perf_counter() - t0

    rates = report.drift_rates
    fraction_ok = all(
        report.aggregate(r, "dlpc").mean_compile_fraction
        < report.aggregate(r, "baseline").mean_compile_fraction
        for r in rates
    )
    cal_means = [report.aggregate(r, "dlpc").mean_cal_s for r in rates]
    compile_means = [report.aggregate(r, "baseline").mean_compile_count for r in rates]
    exact_law = bool(np.all(report.dlpc_circuit_compiles == 1 + report.cal_events))
    ok = (
        fraction_ok
        and _strictly_increasing(cal_means)
        and _strictly_increasing(compile_means)
        and exact_law
        and report.n_samples >= 100
    )
    _verdict(
        "7", ok,
        f"{report.n_samples} samples x {len(rates)} drift rates: dlpc fraction below "
        f"baseline everywhere {fraction_ok}, cal time {[round(c, 1) for c in cal_means]} "
        f"and baseline compiles {[round(c, 1) for c in compile_means]} strictly "
        f"increasing, circuit compiles == 1 + cal events {exact_law}",
        elapsed, 300.0,
    )
    assert ok and elapsed < 300.0


# ------------------------------------------- 8. model-independent core

CRIT8_ELAPSED: dict[str, float] = {}


def test_criterion_8a_mode_trajectory_equivalence():
    t0 = time.perf_counter()
    ok = True
    for make, seed in ((one_param_problem, 11), (two_param_problem, 12)):
        problem = make()
        calib = CalibrationDataset.default(problem.ansatz.n_qubits)
        base = run_vqe(problem, "baseline", cost_model=CostModel(), calib=calib, run_seed=seed)
        dlpc = run_vqe(problem, "dlpc", cost_model=CostModel(), calib=calib, run_seed=seed)
        ok = ok and base.trajectory == dlpc.trajectory and base.result == dlpc.result
    CRIT8_ELAPSED["8a"] = elapsed = time.perf_counter() - t0
    _verdict("8a", ok, "mode trajectories exactly equal for both problems", elapsed, 300.0)
    assert ok


def test_criterion_8b_compile_count_laws():
    t0 = time.perf_counter()
    model = CostModel()
    checks = []
    for make in (one_param_problem, two_param_problem):
        problem = replace(make(), shots=50)
        sections = len(measurement_sections(problem.hamiltonian))
        calib = CalibrationDataset.default(problem.ansatz.n_qubits)
        base = run_vqe(problem, "baseline", cost_model=model, calib=calib)
        dlpc = run_vqe(problem, "dlpc", cost_model=model, calib=calib)
        checks.append(base.costs.n_compiles == base.result.n_evals * sections)
        checks.append(dlpc.costs.n_compiles == 1)
    base_rb = run_rb("baseline", cost_model=model, lengths=(2, 4), per_length=2, shots=10)
    dlpc_rb = run_rb("dlpc", cost_model=model, lengths=(2, 4), per_length=2, shots=10)
    checks.append(base_rb.costs.n_compiles == 4)
    checks.append(dlpc_rb.costs.n_compiles == 1)
    base_cal = run_calibration(CalibrationDataset.default(2), "baseline", cost_model=model)
    dlpc_cal = run_calibration(CalibrationDataset.default(2), "dlpc", cost_model=model)
    checks.append(base_cal.costs.n_compiles == base_cal.n_experiments)
    checks.append(dlpc_cal.costs.n_compiles == 1)
    CRIT8_ELAPSED["8b"] = elapsed = time.perf_counter() - t0
    ok = all(checks)
    _verdict("8b", ok, f"exact compile-count laws, {len(checks)} checks", elapsed, 300.0)
    assert ok


def _random_message(rng: np.random.Generator):
    kind = int(rng.integers(4))
    if kind == 0:
        return Sentinel()
    if kind == 1:
        k = int(rng.integers(0, 9))
        values = []
        for _ in range(k):
            u = rng.random()
            if u < 0.1:
                values.append(0.0)
            elif u < 0.2:
                values.append(float(rng.uniform(-1e12, 1e12)))
            else:
                values.append(float(rng.standard_normal()))
        return Params(tuple(values))
    if kind == 2:
        blocks = tuple(
            tuple(int(w) for w in rng.integers(0, 2**32, size=int(rng.integers(0, 7))))
            for _ in range(int(rng.integers(0, 5)))
        )
        return CircuitBlock(blocks)
    n = int(rng.integers(1, 7))
    counts = []
    for _ in range(int(rng.integers(0, 4))):
        size = int(rng.integers(0, 9))
        keys = rng.integers(0, 2**n, size=size)
        vals = rng.integers(0, 2**32, size=size)
        counts.append({int(k): int(v) for k, v in zip(keys, vals)})
    return Results(int(rng.integers(0, 2**32)), n, tuple(counts))


def test_criterion_8c_wire_format_fuzz():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0xF0112)
    n_messages = 10**5
    for _ in range(n_messages):
        message = _random_message(rng)
        assert decode(encode(message)) == message
    CRIT8_ELAPSED["8c"] = elapsed = time.perf_counter() - t0
    _verdict("8c", True, f"wire-format roundtrip on {n_messages} fuzzed messages",
             elapsed, 300.0)


def _random_objective(rng: np.random.Generator) -> VqeProblem:
    nq = int(rng.integers(1, 3))
    n_slots = int(rng.integers(1, 3))
    ops = [op("RY", int(rng.integers(nq)), SlotRef(s)) for s in range(n_slots)]
    for _ in range(int(rng.integers(0, 3))):
        ops.append(op("RX", int(rng.integers(nq)), float(rng.uniform(-3, 3))))
    if nq == 2 and rng.random() < 0.5:
        ops.append(op("XX", (0, 1), math.pi / 4))
    terms = []
    for _ in range(int(rng.integers(1, 3))):
        basis = "XYZ"[int(rng.integers(3))]
        mask = rng.random(nq) < 0.7
        if not mask.any():
            mask[int(rng.integers(nq))] = True
        terms.append(PauliTerm(float(rng.uniform(0.2, 1.0)),
                               "".join(basis if m else "I" for m in mask)))
    x0 = tuple(float(v) for v in rng.uniform(-1, 1, n_slots))
    return VqeProblem(
        Hamiltonian(nq, terms), Circuit(nq, ops), x0,
        shots=int(rng.integers(5, 30)), max_evals=int(rng.integers(2, 7)),
    )


def test_criterion_8d_deadlock_freedom():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0xDEAD10C)
    model = CostModel()
    n_objectives = 1000
    for k in range(n_objectives):
        problem = _random_objective(rng)
        done: dict[str, object] = {}

        def run(problem=problem, seed=int(rng.integers(2**31)), done=done):
            done["report"] = run_vqe(
                problem, "dlpc", cost_model=model,
                calib=CalibrationDataset.default(problem.ansatz.n_qubits),
                run_seed=seed,
            )

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(10.0)
        assert not worker.is_alive(), f"objective {k} still blocked after 10s"
        report = done["report"]
        assert report.serve is not None and report.serve.worker_error is None
    CRIT8_ELAPSED["8d"] = elapsed = time.perf_counter() - t0
    _verdict("8d", True,
             f"{n_objectives} randomized objectives completed, none hit the 10s timeout",
             elapsed, 300.0)


def test_criterion_8e_statevector_norm_drift():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0x1104)
    worst = 0.0
    for _ in range(5):
        circuit = random_circuit(rng, 4, depth=1000)
        worst = max(worst, abs(float(np.linalg.norm(statevector(circuit))) - 1.0))
    CRIT8_ELAPSED["8e"] = elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10
    _verdict("8e", ok, f"norm drift {worst:.2e} <= 1e-10 over 1000-gate circuits",
             elapsed, 300.0)
    assert ok


def test_criterion_8f_transpiler_unitary_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0x7341)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 5))
        circuit = random_circuit(rng, n, depth=int(rng.integers(1, 13)))
        lowered = transpile(circuit).as_circuit()
        dev = max_phase_aligned_deviation(
            unitary(lowered).ravel(), unitary(circuit).ravel()
        )
        worst = max(worst, dev)
    CRIT8_ELAPSED["8f"] = elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9
    _verdict("8f", ok, f"500 random <=4q circuits, worst unitary deviation {worst:.2e}",
             elapsed, 300.0)
    assert ok


def test_criterion_8g_cloud_dominance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0xC10D)
    model = CostModel()
    for _ in range(100):
        workload = CloudWorkload(
            distribution=DISTRIBUTIONS[int(rng.integers(3))],
            size_class=SIZE_CLASSES[int(rng.integers(3))],
            n_jobs=int(rng.integers(1, 601)),
            shots_per_job=int(rng.integers(50, 4001)),
            seed=int(rng.integers(1000)),
        )
        base = simulate_cloud(workload, "baseline", cost_model=model,
                              prep_us=1000.0, detect_us=2000.0)
        dlpc = simulate_cloud(workload, "dlpc", cost_model=model,
                              prep_us=1000.0, detect_us=2000.0)
        assert dlpc.costs.compile_s <= base.costs.compile_s + 1e-9
        assert base.jobs_completed == dlpc.jobs_completed == workload.n_jobs
    CRIT8_ELAPSED["8g"] = elapsed = time.perf_counter() - t0
    _verdict("8g", True, "dlpc compile total never exceeds baseline on 100 random workloads",
             elapsed, 300.0)


def test_criterion_8h_total_runtime():
    total = sum(CRIT8_ELAPSED.values())
    ok = total < 300.0 and len(CRIT8_ELAPSED) == 7
    _verdict("8", ok, f"property suite total across {len(CRIT8_ELAPSED)} parts",
             total, 300.0)
    assert ok
