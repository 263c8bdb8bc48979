"""Randomized benchmarking: sequence closure, decay fits, and cost laws."""

from __future__ import annotations

import numpy as np
import pytest

from dlpc.cliffords import CLIFFORD_COUNT, compose, n_pulses
from dlpc.devcomp import CostModel
from dlpc.drivers.rb import (
    fit_decay,
    p_oracle,
    random_circuits,
    run_rb,
    survival,
)

MODEL = CostModel(compile_a=0.354, compile_b=6.0e-3)


def test_random_circuits_close_to_identity():
    for circ in random_circuits(5, lengths=(2, 8), per_length=4):
        acc = 0
        for e in circ.elements:
            acc = compose(e, acc)
        assert acc == 0
        assert len(circ.elements) == circ.length + 1


def test_random_circuits_replay_exactly():
    assert random_circuits(7) == random_circuits(7)
    a = random_circuits(7, lengths=(4,), per_length=2)
    b = random_circuits(8, lengths=(4,), per_length=2)
    assert a != b


def test_pulse_census_behind_the_decay_oracle():
    census = sorted(n_pulses(i) for i in range(CLIFFORD_COUNT))
    assert census.count(0) == 4 and census.count(1) == 20
    assert p_oracle(0.0) == 1.0
    f = 1.0 - 4.0 * 0.03 / 3.0
    assert p_oracle(0.03) == pytest.approx((4 + 20 * f) / 24)


def test_fit_decay_recovers_exact_curve():
    lengths = [2, 4, 8, 16, 32, 64, 128]
    p = 0.97
    ys = [0.5 * p**m + 0.5 for m in lengths]
    fit = fit_decay(lengths, ys)
    assert fit.p == pytest.approx(p, abs=1e-6)
    assert fit.amplitude == pytest.approx(0.5, abs=1e-6)
    assert fit.offset == pytest.approx(0.5, abs=1e-6)


def test_fit_decay_flat_curve_short_circuits():
    fit = fit_decay([2, 4, 8], [1.0, 1.0, 1.0])
    assert (fit.amplitude, fit.offset, fit.p) == (0.0, 1.0, 1.0)


def test_noiseless_run_survives_everywhere():
    report = run_rb(
        "baseline", cost_model=MODEL, depolarizing=0.0, run_seed=1,
        lengths=(2, 4), per_length=2, shots=40,
    )
    assert report.survivals == (1.0, 1.0, 1.0, 1.0)
    assert report.fit.p == 1.0


def test_baseline_compiles_per_sequence():
    report = run_rb(
        "baseline", cost_model=MODEL, run_seed=2, lengths=(2, 4), per_length=3, shots=20,
    )
    assert report.costs.n_compiles == 6
    assert report.n_iterations == 6
    assert report.costs.rpc_s == 0.0
    assert all(0.0 <= s <= 1.0 for s in report.survivals)


def test_pool_compiles_once_at_fixed_cost():
    report = run_rb(
        "dlpc", cost_model=MODEL, run_seed=2, lengths=(2, 4), per_length=3, shots=20,
    )
    assert report.costs.n_compiles == 1
    # 86 pool instructions regardless of how many sequences stream through.
    assert report.costs.compile_s == pytest.approx(0.354 + 86 * 6.0e-3)
    assert report.n_iterations == 6
    assert report.costs.rpc_s == pytest.approx(6 * MODEL.rpc_roundtrip_s)


def test_modes_sample_identical_counts():
    kw = dict(cost_model=MODEL, depolarizing=0.02, run_seed=9,
              lengths=(2, 4, 8), per_length=3, shots=60)
    base = run_rb("baseline", **kw)
    dlpc = run_rb("dlpc", **kw)
    assert base.survivals == dlpc.survivals
    assert base.fit == dlpc.fit
    assert base.mean_by_length == dlpc.mean_by_length


def test_full_run_recovers_the_decay_oracle():
    report = run_rb("dlpc", cost_model=MODEL, depolarizing=0.01, run_seed=0)
    expected = p_oracle(0.01)
    assert report.fit.p == pytest.approx(expected, abs=0.01)
    assert 0.0 < report.fit.amplitude <= 1.0
    survivals_128 = report.mean_by_length[128]
    assert survivals_128 < report.mean_by_length[2]


def test_survival_counts_ground_fraction():
    assert survival({0: 75, 1: 25}) == 0.75
    assert survival({1: 10}) == 0.0


@pytest.mark.parametrize("mode", ["baseline", "dlpc"])
def test_runs_carry_integer_outcome_keys(bitstrings_forbidden, mode):
    report = run_rb(mode, cost_model=MODEL, run_seed=2, lengths=(2, 8), per_length=2, shots=50)
    assert len(report.survivals) == 4
