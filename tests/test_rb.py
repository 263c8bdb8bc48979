"""Randomized benchmarking: sequence closure, decay fits, and cost laws."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from dlpc.cliffords import CLIFFORD_COUNT, compose, n_pulses
from dlpc.devcomp import RPC_ROUNDTRIP_S, CostModel
from dlpc.drivers import rb
from dlpc.drivers.rb import (
    RB_LENGTHS,
    check_lengths,
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


@pytest.mark.parametrize("mode", ["baseline", "dlpc"])
@pytest.mark.parametrize("lengths", [(2, 16), (2, 16, 2), (8,)])
def test_fewer_than_three_distinct_lengths_raise_before_any_compile(monkeypatch, mode, lengths):
    def no_compile(*args, **kwargs):
        raise AssertionError("compiled a kernel")

    monkeypatch.setattr(rb, "compile_partial", no_compile)
    monkeypatch.setattr(rb, "clifford_pool", no_compile)
    with pytest.raises(ValueError, match="at least 3 distinct lengths"):
        run_rb(mode, cost_model=MODEL, lengths=lengths, per_length=3, shots=50)
    check_lengths((2, 16, 2, 4))  # three distinct lengths, however often repeated


def test_fit_decay_flat_curve_short_circuits():
    fit = fit_decay([2, 4, 8], [1.0, 1.0, 1.0])
    assert (fit.amplitude, fit.offset, fit.p) == (0.0, 1.0, 1.0)


def _sse(xs, ys, a, b, p):
    r = a * p**xs + b - ys
    return float(r @ r)


def _curve_fit(xs, ys):
    """The bounded trust-region fit this driver used before variable projection."""
    optimize = pytest.importorskip("scipy.optimize")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", optimize.OptimizeWarning)
        (a, b, p), _ = optimize.curve_fit(
            lambda m, a, b, p: a * p**m + b,
            xs,
            ys,
            p0=(0.5, 0.5, 0.95),
            bounds=((-1.0, -1.0, 0.0), (1.0, 1.0, 1.0)),
            maxfev=10000,
        )
    return p, _sse(xs, ys, a, b, p)


def _assert_matches_curve_fit(xs, ys):
    fit = fit_decay(list(xs), list(ys))
    p_ref, sse_ref = _curve_fit(xs, ys)
    assert abs(fit.p - p_ref) <= 1e-4
    assert _sse(xs, ys, fit.amplitude, fit.offset, fit.p) <= sse_ref + 1e-7
    return fit


def test_fit_decay_matches_curve_fit_on_noisy_curves():
    # RB-like means: 1,000 shots per length, decaying from 1 towards 1 - A.
    rng = np.random.default_rng(20230821)
    xs = np.asarray(RB_LENGTHS, dtype=float)
    for _ in range(200):
        p, a = rng.uniform(0.9, 0.999), rng.uniform(0.3, 0.5)
        ys = rng.binomial(1000, a * p**xs + 1.0 - a) / 1000
        _assert_matches_curve_fit(xs, ys)


@pytest.mark.parametrize(
    "ys",
    [[0.989, 0.909, 0.835, 0.922, 0.876, 0.867, 0.766],
     [0.919, 0.832, 0.846, 0.893, 0.843, 0.806, 0.72]],
)
def test_fit_decay_grid_finds_the_basin_a_bounded_search_alone_misses(ys):
    # A bounded search over all of [0, 1] stops in a local minimum at p = 0.59
    # and 0.35 on these noisy curves; curve_fit, from p = 0.95, finds p = 0.9987.
    _assert_matches_curve_fit(np.asarray(RB_LENGTHS, dtype=float), np.asarray(ys))


@pytest.mark.parametrize(
    "a, b, p, bound",
    [(1.3, -0.2, 0.9, "amplitude"), (-1.4, 1.1, 0.95, "amplitude"),
     (-0.3, 1.05, 0.9, "offset"), (0.4, -1.05, 0.9, "offset")],
)
def test_fit_decay_box_holds_on_an_edge(a, b, p, bound):
    # The free solve lies outside [-1, 1]^2, so one of the edge solves wins.
    xs = np.asarray(RB_LENGTHS, dtype=float)
    fit = _assert_matches_curve_fit(xs, a * p**xs + b)
    pinned, free = (fit.amplitude, fit.offset)
    if bound == "offset":
        pinned, free = free, pinned
    assert abs(pinned) == 1.0
    assert abs(free) < 1.0


def test_noiseless_run_survives_everywhere():
    report = run_rb(
        "baseline", cost_model=MODEL, depolarizing=0.0, run_seed=1,
        lengths=(2, 4, 8), per_length=2, shots=40,
    )
    assert report.survivals == (1.0,) * 6
    assert report.fit.p == 1.0


def test_baseline_compiles_per_sequence():
    report = run_rb(
        "baseline", cost_model=MODEL, run_seed=2, lengths=(2, 4, 8), per_length=3, shots=20,
    )
    assert report.costs.n_compiles == 9
    assert report.n_iterations == 9
    assert report.costs.rpc_s == 0.0
    assert all(0.0 <= s <= 1.0 for s in report.survivals)


def test_baseline_rebuilds_every_circuit(monkeypatch):
    # No cache may skip per-circuit work: each circuit is transpiled, lowered,
    # compiled and executed once.
    calls = dict.fromkeys(("transpile", "lower_to_pulses", "compile_partial", "execute"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(rb, name, counted(name, getattr(rb, name)))
    report = run_rb(
        "baseline", cost_model=MODEL, run_seed=2, lengths=(2, 4, 8), per_length=3, shots=20,
    )
    assert len(report.survivals) == 9
    assert calls == dict.fromkeys(calls, 9)


def test_pool_compiles_once_at_fixed_cost():
    report = run_rb(
        "dlpc", cost_model=MODEL, run_seed=2, lengths=(2, 4, 8), per_length=3, shots=20,
    )
    assert report.costs.n_compiles == 1
    # 86 pool instructions regardless of how many sequences stream through.
    assert report.costs.compile_s == pytest.approx(0.354 + 86 * 6.0e-3)
    assert report.n_iterations == 9
    assert report.costs.rpc_s == pytest.approx(9 * RPC_ROUNDTRIP_S)


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
    report = run_rb(mode, cost_model=MODEL, run_seed=2, lengths=(2, 4, 8), per_length=2, shots=50)
    assert len(report.survivals) == 6


@pytest.mark.parametrize("seed", [-1, 0, 1, 7])
def test_random_circuits_draw_what_a_fresh_generator_per_circuit_draws(seed):
    lengths, per_length = (2, 4, 8), 3
    want = []
    for i, m in enumerate(lengths):
        for c in range(per_length):
            rng = np.random.Generator(np.random.Philox(key=[seed, (i << 32) | c]))
            want.append(tuple(int(e) for e in rng.integers(0, CLIFFORD_COUNT, size=m)))
    assert [circ.elements[:-1] for circ in random_circuits(seed, lengths, per_length)] == want
