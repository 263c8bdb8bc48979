"""Cloud queue emulation: arrivals, compile accounting, dominance."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlpc.fitting import fit_cost_model
from dlpc.scenarios.cloud import (
    CLOUD_JOBS,
    DISTRIBUTIONS,
    HORIZON_S,
    SIZE_CLASSES,
    SIZE_GATES,
    CloudWorkload,
    simulate_cloud,
    standing_kernel_cost,
)


@pytest.fixture(scope="module")
def fitted():
    fit = fit_cost_model()
    return {
        "cost_model": fit.cost_model,
        "prep_us": fit.prep_us,
        "detect_us": fit.detect_us,
    }


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_arrivals_sorted_and_inside_horizon(dist):
    w = CloudWorkload(dist, "SMALL", n_jobs=3000, seed=1)
    t = w.arrivals()
    assert len(t) == 3000
    assert np.all(np.diff(t) >= 0)
    assert t[0] >= 0.0 and t[-1] < HORIZON_S


def test_arrivals_are_reproducible():
    a = CloudWorkload("BURST", "MEDIUM", seed=7).arrivals()
    b = CloudWorkload("BURST", "MEDIUM", seed=7).arrivals()
    assert np.array_equal(a, b)


def test_job_gates_track_the_size_class():
    for size in SIZE_CLASSES:
        w = CloudWorkload("UNIFORM", size, n_jobs=500, seed=0)
        g = w.job_gates()
        assert g.shape == (500, 2)
        assert np.all(g >= 1)
        nominal = np.array(SIZE_GATES[size])
        assert np.allclose(g.mean(axis=0), nominal, rtol=0.05)


def test_workload_validation():
    with pytest.raises(ValueError):
        CloudWorkload("WEEKLY", "SMALL")
    with pytest.raises(ValueError):
        CloudWorkload("UNIFORM", "TINY")
    with pytest.raises(ValueError):
        CloudWorkload("UNIFORM", "SMALL", n_jobs=0)


def test_single_job_compiles_once_in_both_modes(fitted):
    w = CloudWorkload("UNIFORM", "SMALL", n_jobs=1, seed=0)
    base = simulate_cloud(w, "baseline", **fitted)
    dlpc = simulate_cloud(w, "dlpc", **fitted)
    assert base.costs.n_compiles == 1
    assert dlpc.costs.n_compiles == 1
    assert base.costs.compile_s == dlpc.costs.compile_s


def test_baseline_compiles_every_job(fitted):
    w = CloudWorkload("BIMODAL", "MEDIUM", n_jobs=400, seed=3)
    base = simulate_cloud(w, "baseline", **fitted)
    kernel = standing_kernel_cost(fitted["cost_model"])
    assert base.costs.n_compiles == 400
    assert base.costs.compile_s == pytest.approx(400 * kernel.compile_s)
    assert base.jobs_completed == 400


def test_every_rebuild_pays_upload_and_schedule(fitted):
    w = CloudWorkload("BURST", "SMALL", n_jobs=600, seed=4)
    kernel = standing_kernel_cost(fitted["cost_model"])
    for mode in ("baseline", "dlpc"):
        costs = simulate_cloud(w, mode, **fitted).costs
        assert costs.upload_s == pytest.approx(costs.n_compiles * kernel.upload_s)
        assert costs.schedule_s == pytest.approx(costs.n_compiles * kernel.schedule_s)
        assert costs.rpc_s == 0.0


def test_sparse_arrivals_drain_after_every_job(fitted):
    # 20 jobs over a day leave the server idle between all of them
    w = CloudWorkload("UNIFORM", "SMALL", n_jobs=20, seed=5)
    base = simulate_cloud(w, "baseline", **fitted)
    dlpc = simulate_cloud(w, "dlpc", **fitted)
    assert dlpc.costs.n_compiles == base.costs.n_compiles == 20
    assert dlpc.costs.compile_s == base.costs.compile_s


def test_saturated_queue_compiles_less(fitted):
    w = CloudWorkload("BURST", "LARGE", n_jobs=3000, shots_per_job=4000, seed=2)
    base = simulate_cloud(w, "baseline", **fitted)
    dlpc = simulate_cloud(w, "dlpc", **fitted)
    assert dlpc.costs.n_compiles < base.costs.n_compiles // 10


def test_size_ordering_at_the_reference_workload(fitted):
    for dist in DISTRIBUTIONS:
        totals = []
        for size in SIZE_CLASSES:
            w = CloudWorkload(dist, size, n_jobs=CLOUD_JOBS // 4, seed=0)
            totals.append(simulate_cloud(w, "dlpc", **fitted).costs.compile_s)
        assert totals[0] > totals[1] > totals[2], dist


@settings(max_examples=25, deadline=None)
@given(
    dist=st.sampled_from(DISTRIBUTIONS),
    size=st.sampled_from(SIZE_CLASSES),
    n_jobs=st.integers(1, 600),
    shots=st.integers(50, 4000),
    seed=st.integers(0, 2**31 - 1),
)
def test_dlpc_never_compiles_more_than_baseline(dist, size, n_jobs, shots, seed):
    fit = fit_cost_model()
    w = CloudWorkload(dist, size, n_jobs=n_jobs, shots_per_job=shots, seed=seed)
    base = simulate_cloud(
        w, "baseline", cost_model=fit.cost_model, prep_us=fit.prep_us, detect_us=fit.detect_us
    )
    dlpc = simulate_cloud(
        w, "dlpc", cost_model=fit.cost_model, prep_us=fit.prep_us, detect_us=fit.detect_us
    )
    assert dlpc.costs.compile_s <= base.costs.compile_s + 1e-9
    assert base.jobs_completed == dlpc.jobs_completed == n_jobs


def test_bad_mode_is_rejected(fitted):
    w = CloudWorkload("UNIFORM", "SMALL", n_jobs=2)
    with pytest.raises(ValueError, match="mode"):
        simulate_cloud(w, "hybrid", **fitted)
