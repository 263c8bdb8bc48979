"""Differential check of the paper's central claim: modes and transports change cost, never results.

One derandomized hypothesis test draws a seed, a noise level and a small
problem for each driver (VQE, RB, calibration), runs the baseline and the
streamed (DLPC) pipeline on it, and for VQE also the streamed pipeline over
a socket.  The outputs must be equal with ``==``; the ledgers may differ
only where the pipelines do different work.

``device_s`` is equal to the bit: a baseline run adds its kernels' device
times in the order a streamed kernel adds its loops' times, from the same
durations.  ``rpc_s`` is compared to a relative 1e-12, since the VM adds one
round trip in microseconds per fetch and the ledger converts the sum.

A second test holds ``accounting.loop_costs``, the pricing law the scenarios
and the cost fit use, to what ``run_vqe`` and ``run_calibration`` bill: the
drivers add each kernel's price as they build it, the law multiplies.

A non-finite slot value must fail the same way in both pipelines: the
baseline's ``bake`` and the streamed kernel's launch and replies reject it,
naming the slot, before any shot runs on it.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlpc.devcomp import (
    MODES,
    RPC_ROUNDTRIP_S,
    CompileError,
    CostModel,
    bake,
    compile_partial,
)
from dlpc.drivers import vqe as vqe_driver
from dlpc.drivers.accounting import loop_costs
from dlpc.drivers.calibration import build_sweep_partial, run_calibration
from dlpc.drivers.rb import run_rb
from dlpc.drivers.vqe import (
    VqeProblem,
    measurement_sections,
    one_param_problem,
    run_vqe,
    section_schedules,
    two_param_problem,
)
from dlpc.ir import Circuit, Hamiltonian, PauliTerm, SlotRef, op
from dlpc.pulse import CalibrationDataset
from dlpc.qpu import execute
from dlpc.rpc import Params, run_session
from dlpc.scenarios.contour import contour_problem

MODEL = CostModel()

_ANGLES = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def _gate(draw, nq: int, n_slots: int):
    """One ansatz gate: a rotation whose angle is a slot or a literal, or an entangler."""
    kinds = ["RX", "RY", "RZ", "R"] + (["XX", "CNOT"] if nq > 1 else [])
    kind = draw(st.sampled_from(kinds))
    if kind in ("XX", "CNOT"):
        a, b = draw(st.permutations(range(nq)))[:2]
        return op(kind, (a, b), draw(_ANGLES)) if kind == "XX" else op(kind, (a, b))
    q = draw(st.integers(0, nq - 1))
    theta = draw(st.one_of(st.builds(SlotRef, st.integers(0, n_slots - 1)), _ANGLES))
    return op(kind, q, theta, draw(_ANGLES)) if kind == "R" else op(kind, q, theta)


@st.composite
def vqe_problems(draw) -> VqeProblem:
    nq = draw(st.integers(1, 3))
    n_slots = draw(st.integers(1, 3))
    # Every slot drives one rotation, so x0 covers exactly the slots the ansatz reads.
    ops = [op(draw(st.sampled_from(["RX", "RY", "RZ"])), draw(st.integers(0, nq - 1)), SlotRef(s))
           for s in range(n_slots)]
    ops += draw(st.lists(_gate(nq, n_slots), max_size=4))
    ops = draw(st.permutations(ops))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        basis = draw(st.sampled_from("XYZ"))
        mask = draw(st.lists(st.booleans(), min_size=nq, max_size=nq).filter(any))
        paulis = "".join(basis if m else "I" for m in mask)
        terms.append(PauliTerm(draw(st.floats(-1.0, 1.0, allow_nan=False)), paulis))
    x0 = tuple(draw(st.lists(_ANGLES, min_size=n_slots, max_size=n_slots)))
    return VqeProblem(
        Hamiltonian(nq, terms), Circuit(nq, ops), x0,
        shots=draw(st.integers(1, 40)), max_evals=draw(st.integers(1, 6)),
    )


def _check_vqe(data, seed: int, depolarizing: float) -> None:
    problem = data.draw(vqe_problems(), label="problem")
    calib = CalibrationDataset.default(problem.ansatz.n_qubits)
    kw = dict(cost_model=MODEL, calib=calib, run_seed=seed, depolarizing=depolarizing)
    base = run_vqe(problem, "baseline", **kw)
    dlpc = run_vqe(problem, "dlpc", **kw)
    sock = run_vqe(problem, "dlpc", transport="socket", **kw)
    assert base.trajectory == dlpc.trajectory and base.result == dlpc.result
    assert base.n_iterations == dlpc.n_iterations == len(dlpc.trajectory)
    assert (sock.trajectory, sock.result, sock.n_iterations) == (
        dlpc.trajectory, dlpc.result, dlpc.n_iterations
    )
    assert sock.costs == dlpc.costs
    sections = len(measurement_sections(problem.hamiltonian))
    assert base.costs.n_compiles == base.result.n_evals * sections
    _check_costs(base.costs, dlpc.costs, dlpc.n_iterations)


def _check_rb(data, seed: int, depolarizing: float) -> None:
    lengths = tuple(
        data.draw(
            st.lists(st.integers(1, 12), min_size=3, max_size=5).filter(lambda v: len(set(v)) >= 3),
            label="lengths",
        )
    )
    kw = dict(
        cost_model=MODEL, depolarizing=depolarizing, run_seed=seed, lengths=lengths,
        per_length=data.draw(st.integers(1, 2), label="per_length"),
        shots=data.draw(st.integers(1, 40), label="shots"),
    )
    base = run_rb("baseline", **kw)
    dlpc = run_rb("dlpc", **kw)
    assert (base.lengths, base.survivals, base.mean_by_length, base.fit) == (
        dlpc.lengths, dlpc.survivals, dlpc.mean_by_length, dlpc.fit
    )
    assert base.n_iterations == dlpc.n_iterations == len(dlpc.lengths)
    assert base.costs.n_compiles == len(base.lengths)
    _check_costs(base.costs, dlpc.costs, dlpc.n_iterations)


def _check_calibration(data, seed: int, depolarizing: float) -> None:
    nq = data.draw(st.integers(1, 2), label="calibration qubits")
    base_calib, dlpc_calib = CalibrationDataset.default(nq), CalibrationDataset.default(nq)
    base = run_calibration(base_calib, "baseline", cost_model=MODEL, run_seed=seed)
    dlpc = run_calibration(dlpc_calib, "dlpc", cost_model=MODEL, run_seed=seed)
    assert base.fitted == dlpc.fitted
    assert base_calib.version == dlpc_calib.version
    assert base.costs.n_compiles == base.n_experiments == dlpc.n_experiments
    _check_costs(base.costs, dlpc.costs, dlpc.n_experiments)


def _check_costs(base, dlpc, round_trips: int) -> None:
    """The 8b compile law of the streamed run, and the ledger terms both modes share."""
    assert dlpc.n_compiles == 1
    assert dlpc.device_s == base.device_s
    assert base.rpc_s == 0.0
    assert dlpc.rpc_s == pytest.approx(round_trips * RPC_ROUNDTRIP_S, rel=1e-12, abs=0.0)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    depolarizing=st.sampled_from([0.0, 0.02]),
    data=st.data(),
)
def test_modes_and_transports_change_cost_never_results(seed, depolarizing, data):
    for check in (_check_vqe, _check_rb, _check_calibration):
        check(data, seed, depolarizing)


def _vqe_bill(problem: VqeProblem, mode: str):
    report = run_vqe(problem, mode, cost_model=MODEL)
    nq = problem.ansatz.n_qubits
    scheds = section_schedules(problem, CalibrationDataset.default(nq))
    if mode == "baseline":
        kernels = [bake(compile_partial(s, problem.shots, n_qubits=nq), problem.x0) for s in scheds]
    else:
        kernels = [compile_partial(scheds, problem.shots, n_qubits=nq)]
    return report.costs, kernels, report.n_iterations


def _calibration_bill(mode: str):
    calib = CalibrationDataset.default(2)
    sweep = build_sweep_partial(prep_us=calib.prep_us, detect_us=calib.detect_us)
    kernel = bake(sweep, (0.0,) * sweep.n_slots) if mode == "baseline" else sweep
    report = run_calibration(calib, mode, cost_model=MODEL)
    return report.costs, [kernel], report.n_experiments


BILLS = {
    "one-param": lambda mode: _vqe_bill(one_param_problem(), mode),
    "two-param": lambda mode: _vqe_bill(two_param_problem(), mode),
    "contour": lambda mode: _vqe_bill(replace(contour_problem(), max_evals=30), mode),
    "calibration": _calibration_bill,
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("bill", sorted(BILLS))
def test_loop_costs_is_what_the_drivers_bill(bill, mode):
    costs, kernels, iterations = BILLS[bill](mode)
    law = loop_costs(mode, [MODEL.cost_of(k) for k in kernels], iterations)
    assert costs.n_compiles == law.n_compiles
    for field in ("compile_s", "upload_s", "schedule_s", "rpc_s"):
        assert getattr(costs, field) == pytest.approx(getattr(law, field), rel=1e-12, abs=0.0), field


NON_FINITE = pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)


@pytest.mark.parametrize("mode", MODES)
@NON_FINITE
@pytest.mark.parametrize("slot", [0, 1], ids=["RY slot", "RZ slot"])
def test_a_non_finite_slot_value_raises_in_both_modes(slot, value, mode, monkeypatch):
    """The baseline rejects it in ``bake``, the streamed kernel when it loads the launch."""
    energies = []
    monkeypatch.setattr(vqe_driver, "expectation_from_counts", lambda *a: energies.append(a))
    x0 = tuple(value if k == slot else 0.5 for k in range(2))
    problem = replace(two_param_problem(), x0=x0, shots=50, max_evals=1)
    with pytest.raises(CompileError, match=f"^slot {slot} value {value} is not finite$"):
        run_vqe(problem, mode, cost_model=MODEL)
    assert energies == []  # no section's counts reached the host


@NON_FINITE
@pytest.mark.parametrize("slot", [0, 1], ids=["RY slot", "RZ slot"])
def test_a_non_finite_reply_raises_before_the_kernel_runs_it(slot, value):
    problem = two_param_problem()
    kernel = compile_partial(
        section_schedules(problem, CalibrationDataset.default(1)), 50, n_qubits=1
    )
    results = []

    def host(fetch) -> None:
        results.append(fetch(Params(problem.x0)))
        results.append(fetch(Params(tuple(value if k == slot else 0.5 for k in range(2)))))

    with pytest.raises(CompileError, match=f"^slot {slot} value {value} is not finite$"):
        run_session(
            lambda handle, launch: execute(kernel, endpoint=handle, launch=launch), host
        )
    assert [r.iteration for r in results] == [0]
