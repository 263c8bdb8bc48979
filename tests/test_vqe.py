"""Optimizer loops and the variational driver in both pipeline modes."""

from __future__ import annotations

import gc
import warnings

import numpy as np
import pytest
from conftest import run_within

from dlpc.devcomp import CostModel
from dlpc.drivers.optimizers import nelder_mead
from dlpc.drivers.vqe import (
    VqeProblem,
    measurement_sections,
    one_param_problem,
    run_vqe,
    section_schedules,
    two_param_problem,
)
from dlpc.ir import Circuit, Hamiltonian, IrError, PauliTerm, SlotRef, op
from dlpc.pulse import CalibrationDataset
from dlpc.qpu import VM_QUBIT_LIMIT, TooManyQubits

MODEL = CostModel(compile_a=0.35, compile_b=6.0e-3)


def _calib(n: int = 1) -> CalibrationDataset:
    calib = CalibrationDataset.default(n)
    calib.prep_us = 500.0
    calib.detect_us = 1000.0
    return calib


def test_nelder_mead_converges_on_smooth_objective():
    opt = nelder_mead(lambda x: float((x[0] - 2.0) ** 2), [0.0], max_evals=200)
    assert abs(opt.x[0] - 2.0) < 1e-3
    assert opt.n_evals < 200  # tolerance, not budget, ended this search


def test_nelder_mead_budget_ends_noisy_search():
    rng = np.random.default_rng(7)

    def noisy(x):
        return float((x[0] - 2.0) ** 2 + 0.05 * rng.standard_normal())

    opt = nelder_mead(noisy, [0.0], max_evals=25)
    # The simplex never meets 1e-7 tolerances against shot-scale noise, so the
    # budget is what stops it; scipy may finish the step in progress.
    assert 25 <= opt.n_evals <= 29


def test_measurement_sections_group_by_basis_in_fixed_order():
    one = one_param_problem()
    assert measurement_sections(one.hamiltonian) == (("Z", (0,)),)
    two = two_param_problem()
    # Terms arrive X, Y, Z but sections run in Z, X, Y order.
    assert measurement_sections(two.hamiltonian) == (("Z", (2,)), ("X", (0,)), ("Y", (1,)))


def test_measurement_sections_reject_mixed_basis_terms():
    ham = Hamiltonian(2, [PauliTerm(1.0, "XZ")])
    with pytest.raises(IrError, match="mixes"):
        measurement_sections(ham)


def test_problem_rejects_measured_ansatz_and_bad_x0():
    ham = Hamiltonian(1, [PauliTerm(1.0, "Z")])
    measured = Circuit(1, [op("RY", 0, SlotRef(0)), op("MEASURE", ())])
    with pytest.raises(IrError, match="measure"):
        VqeProblem(ham, measured, x0=(0.1,), shots=10, max_evals=5)
    bare = Circuit(1, [op("RY", 0, SlotRef(0))])
    with pytest.raises(IrError, match="slots"):
        VqeProblem(ham, bare, x0=(0.1, 0.2), shots=10, max_evals=5)


def test_section_schedules_one_per_basis():
    two = two_param_problem()
    scheds = section_schedules(two, _calib())
    assert len(scheds) == 3
    assert all(s.n_slots == 2 for s in scheds)


def test_baseline_recompiles_every_evaluation():
    report = run_vqe(one_param_problem(), "baseline", cost_model=MODEL, calib=_calib())
    n = report.result.n_evals
    assert report.n_iterations == n
    assert len(report.trajectory) == n
    assert report.costs.n_compiles == n  # one section -> one kernel per eval
    assert report.costs.rpc_s == 0.0
    # Optimizing <Z> under RY from 0.5 rad must beat the starting energy.
    assert report.result.fun < report.trajectory[0][1]


def test_streaming_compiles_once():
    report = run_vqe(one_param_problem(), "dlpc", cost_model=MODEL, calib=_calib())
    n = report.result.n_evals
    assert report.costs.n_compiles == 1
    assert report.n_iterations == n
    assert report.costs.rpc_s == pytest.approx(n * MODEL.rpc_roundtrip_s)
    assert report.serve is not None and report.serve.worker_error is None


def test_modes_trace_identical_trajectories_one_param():
    base = run_vqe(one_param_problem(), "baseline", cost_model=MODEL, calib=_calib(), run_seed=3)
    dlpc = run_vqe(one_param_problem(), "dlpc", cost_model=MODEL, calib=_calib(), run_seed=3)
    assert base.trajectory == dlpc.trajectory
    assert base.result == dlpc.result


def test_modes_trace_identical_trajectories_two_param():
    base = run_vqe(two_param_problem(), "baseline", cost_model=MODEL, calib=_calib(), run_seed=5)
    dlpc = run_vqe(two_param_problem(), "dlpc", cost_model=MODEL, calib=_calib(), run_seed=5)
    assert base.trajectory == dlpc.trajectory
    n = base.result.n_evals
    assert base.costs.n_compiles == 3 * n  # one kernel per basis section
    assert dlpc.costs.n_compiles == 1


def test_socket_transport_matches_memory():
    mem = run_vqe(one_param_problem(), "dlpc", cost_model=MODEL, calib=_calib(), run_seed=9)
    sock = run_vqe(
        one_param_problem(),
        "dlpc",
        cost_model=MODEL,
        calib=_calib(),
        run_seed=9,
        transport="socket",
    )
    assert mem.trajectory == sock.trajectory
    assert mem.costs == sock.costs


@pytest.mark.parametrize("transport", ["memory", "socket"])
def test_streamed_run_carries_integer_outcome_keys(bitstrings_forbidden, transport):
    report = run_vqe(
        two_param_problem(), "dlpc", cost_model=MODEL, calib=_calib(), transport=transport
    )
    assert report.n_iterations == report.result.n_evals


def test_socket_session_closes_both_sockets():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        run_vqe(one_param_problem(), "dlpc", cost_model=MODEL, calib=_calib(), transport="socket")
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.mark.parametrize("transport", ["memory", "socket"])
def test_streamed_run_too_wide_for_the_vm_raises_instead_of_hanging(transport):
    nq = VM_QUBIT_LIMIT + 1
    problem = VqeProblem(
        Hamiltonian(nq, [PauliTerm(1.0, "Z" * nq)]),
        Circuit(nq, [op("RY", 0, SlotRef(0))]),
        (0.5,),
        shots=10,
        max_evals=3,
    )
    with pytest.raises(TooManyQubits):
        run_within(
            10, lambda: run_vqe(problem, "dlpc", cost_model=MODEL, transport=transport)
        )


def test_cost_totals_are_itemized_sums():
    report = run_vqe(one_param_problem(), "dlpc", cost_model=MODEL, calib=_calib())
    c = report.costs
    assert c.total_s == pytest.approx(
        c.compile_s + c.upload_s + c.schedule_s + c.rpc_s + c.device_s
    )
    assert 0.0 < c.device_fraction < 1.0
    d = report.to_json_dict()
    assert d["mode"] == "dlpc"
    assert len(d["trajectory"]) == report.result.n_evals


def test_run_vqe_rejects_unknown_mode_and_transport():
    with pytest.raises(ValueError, match="mode"):
        run_vqe(one_param_problem(), "hybrid", cost_model=MODEL)
    with pytest.raises(ValueError, match="transport"):
        run_vqe(one_param_problem(), "dlpc", cost_model=MODEL, transport="pigeon")
