"""Calibration-graph scenario: DAG structure, failure coupling, compile laws."""

from __future__ import annotations

import numpy as np
import pytest

from dlpc.drivers.accounting import loop_costs
from dlpc.drivers.vqe import measurement_sections
from dlpc.fitting import fit_cost_model
from dlpc.scenarios.optimus import (
    OPTIMUS_DRIFT_RATES,
    OptimusGraph,
    account_sample,
    bond_angle_problem,
    run_optimus,
    simulate_sample_events,
)


@pytest.fixture(scope="module")
def model():
    return fit_cost_model().cost_model


@pytest.fixture(scope="module")
def report(model):
    return run_optimus(cost_model=model, n_samples=25, seed=0)


def test_graph_is_acyclic_and_sparse():
    g = OptimusGraph.random(n_nodes=15, seed=3)
    assert g.n_nodes == 15
    for j, parents in enumerate(g.parents):
        assert all(p < j for p in parents)
    assert sum(len(p) for p in g.parents) < 15 * 14 / 2


def test_graph_ancestors_are_transitive():
    g = OptimusGraph.random(n_nodes=10, seed=1)
    for j in range(g.n_nodes):
        closure = set(g.parents[j])
        for p in g.parents[j]:
            closure.update(g.ancestors_of[p])
        assert set(g.ancestors_of[j]) == closure


def test_graph_attribute_ranges():
    g = OptimusGraph.random(seed=9)
    assert all(0.5 <= s <= 1.5 for s in g.sensitivity)
    assert all(1.0 <= t <= 4.0 for t in g.t_experiment_s)
    assert all(10 <= e <= 15 for e in g.experiments_per_cal)


def test_fail_prob_monotone_and_capped():
    g = OptimusGraph.random(seed=2)
    for node in range(g.n_nodes):
        assert g.fail_prob(node, 0.0) == 0.0
        probs = [g.fail_prob(node, r) for r in (0.01, 0.1, 1.0, 10.0)]
        assert all(a <= b for a, b in zip(probs, probs[1:]))
        assert probs[-1] == 1.0


def test_bond_angle_problem_shape():
    p = bond_angle_problem()
    assert p.ansatz.n_qubits == 5
    assert p.n_params == 1
    assert len(measurement_sections(p.hamiltonian)) == 1


def test_zero_drift_never_calibrates():
    g = OptimusGraph.random(seed=5)
    ev = simulate_sample_events(g, 0.0, n_evals=201, seed=0, sample=0)
    assert ev.n_cal_events == 0
    assert len(ev.probed) == 201


def test_failures_nest_as_drift_grows():
    for s in range(4):
        g = OptimusGraph.random(seed=s)
        prev: set[int] = set()
        for rate in OPTIMUS_DRIFT_RATES:
            ev = simulate_sample_events(g, rate, n_evals=201, seed=0, sample=s)
            evals = {k for k, _ in ev.calibrations}
            assert prev <= evals
            prev = evals


def test_failed_node_is_always_last_in_its_repair(model):
    g = OptimusGraph.random(seed=11)
    ev = simulate_sample_events(g, 0.2, n_evals=201, seed=0, sample=1)
    assert ev.n_cal_events > 0
    for k, nodes in ev.calibrations:
        assert nodes[-1] == ev.probed[k]
        assert set(nodes[:-1]) <= set(g.ancestors_of[ev.probed[k]])


def test_zero_drift_compile_counting_law(report):
    n = report.n_evals
    assert np.all(report.cal_events[0] == 0)
    assert np.all(report.baseline_compiles[0] == 2 * n)
    assert np.all(report.dlpc_circuit_compiles[0] == 1)


def test_dlpc_circuit_compiles_track_calibration_events(report):
    assert np.all(report.dlpc_circuit_compiles == 1 + report.cal_events)
    assert report.cal_events[-1].sum() > 0


def test_aggregate_ledger_sums_the_samples(report):
    for di, rate in enumerate(report.drift_rates):
        base = report.aggregate(rate, "baseline").costs
        dlpc = report.aggregate(rate, "dlpc").costs
        assert base.n_compiles == report.baseline_compiles[di].sum()
        assert dlpc.n_compiles == (report.dlpc_circuit_compiles[di] + 2).sum()
        assert base.device_s == pytest.approx(dlpc.device_s)
        assert base.rpc_s == 0.0 < dlpc.rpc_s


def test_calibration_time_and_compiles_increase_with_drift(report):
    cal = report.cal_s.mean(axis=1)
    compiles = report.baseline_compiles.mean(axis=1)
    assert np.all(np.diff(cal) > 0)
    assert np.all(np.diff(compiles) > 0)


def test_dlpc_compile_fraction_below_baseline(report):
    for rate in report.drift_rates:
        b = report.aggregate(rate, "baseline")
        d = report.aggregate(rate, "dlpc")
        assert d.mean_compile_fraction < b.mean_compile_fraction


def test_report_is_deterministic(model):
    a = run_optimus(cost_model=model, n_samples=5, seed=3)
    b = run_optimus(cost_model=model, n_samples=5, seed=3)
    assert np.array_equal(a.cal_s, b.cal_s)
    assert np.array_equal(a.baseline_compiles, b.baseline_compiles)
    assert a.aggregates == b.aggregates


def test_accounting_rejects_unknown_mode(model):
    g = OptimusGraph.random(seed=0)
    ev = simulate_sample_events(g, 0.0, n_evals=3, seed=0, sample=0)
    with pytest.raises(ValueError, match="mode"):
        account_sample(ev, g, "turbo", None)
    with pytest.raises(ValueError, match="mode"):
        loop_costs("turbo", [], 1)


def test_sample_totals_close(model):
    from dlpc.scenarios.optimus import _prices
    from dlpc.pulse import CalibrationDataset

    problem = bond_angle_problem()
    prices = _prices(problem, CalibrationDataset.default(5), model)
    g = OptimusGraph.random(seed=4)
    ev = simulate_sample_events(g, 0.05, n_evals=201, seed=0, sample=2)
    for mode in ("baseline", "dlpc"):
        t = account_sample(ev, g, mode, prices)
        assert t.total_s == pytest.approx(
            t.device_s + t.compile_s + t.upload_s + t.schedule_s + t.rpc_s
        )
        assert t.compile_s < t.overhead_s
        assert 0.0 < t.compile_fraction < 1.0
