"""Calibration-day sweeps: kernel shape, cost laws, and mode agreement."""

from __future__ import annotations

import pytest
from conftest import assert_baked
from hypothesis import given, settings
from hypothesis import strategies as st

from dlpc.devcomp import RPC_ROUNDTRIP_S, CompileLog, CostModel, Opcode, bake
from dlpc.drivers import accounting, calibration
from dlpc.drivers.calibration import (
    SEGMENTS,
    build_sweep_partial,
    experiment_plan,
    n_experiments,
    run_calibration,
    sweep_slots,
)
from dlpc.pulse import CalibrationDataset
from dlpc.rpc import ProtocolError

MODEL = CostModel(compile_a=0.354, compile_b=6.0e-3)


def _calib(n: int) -> CalibrationDataset:
    calib = CalibrationDataset.default(n)
    calib.prep_us = 500.0
    calib.detect_us = 1000.0
    return calib


def test_plan_covers_every_knob():
    assert n_experiments(1) == 2
    assert n_experiments(3) == 21
    plan = experiment_plan(_calib(3))
    assert len(plan) == 21
    assert [e.name for e in plan[:3]] == ["q0/freq", "q0/amp", "q1/freq"]
    assert plan[-1].name == "q1-q2/pair4"


def test_sweep_kernel_shapes():
    partial = build_sweep_partial(prep_us=500.0, detect_us=1000.0)
    assert partial.streams
    assert len(partial.instructions) == 2 * SEGMENTS + 7
    assert partial.n_slots == SEGMENTS + 1
    full = bake(partial, sweep_slots(experiment_plan(_calib(1))[0], _calib(1)))
    assert not full.streams
    assert len(full.instructions) == 2 * SEGMENTS + 5
    assert full.n_slots == 0
    # Resuming the partial kernel replays the scan loop, not the header.
    sync = next(i for i in partial.instructions if i.op is Opcode.RPC_SYNC)
    assert sync.args[1] == 1


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-1e8, 1e8, allow_nan=False), min_size=1 + SEGMENTS, max_size=1 + SEGMENTS))
def test_full_sweep_is_the_partial_sweep_baked(slot_values):
    partial = build_sweep_partial(prep_us=500.0, detect_us=1000.0)
    full = bake(partial, tuple(slot_values))
    assert_baked(full, partial, slot_values)


def test_every_planned_sweep_is_the_partial_sweep_baked():
    calib = _calib(3)
    partial = build_sweep_partial(prep_us=calib.prep_us, detect_us=calib.detect_us)
    for exp in experiment_plan(calib):
        slots = sweep_slots(exp, calib)
        full = bake(partial, slots)
        assert_baked(full, partial, slots)


def test_sweep_compile_costs_at_fitted_model():
    partial = build_sweep_partial(prep_us=500.0, detect_us=1000.0)
    full = bake(partial, (1e7, *[0.5] * SEGMENTS))
    assert MODEL.compile_time(len(partial.instructions)) == pytest.approx(1.2)
    assert MODEL.compile_time(len(full.instructions)) == pytest.approx(1.188)


def test_full_sweep_rejects_wrong_arity():
    with pytest.raises(ValueError, match=f"^kernel has {1 + SEGMENTS} slots, got 2 values$"):
        bake(build_sweep_partial(prep_us=500.0, detect_us=1000.0), (1e7, 0.5))


def test_baseline_compiles_per_experiment():
    calib = _calib(2)
    report = run_calibration(calib, "baseline", cost_model=MODEL, run_seed=4)
    assert report.n_experiments == n_experiments(2) == 9
    assert report.costs.n_compiles == 9
    assert report.version_advance == 9
    assert report.costs.rpc_s == 0.0
    # Shot clock: 50 shots x (prep + 67 segments x 2.5 us + detect) per sweep.
    per_exp_s = 50 * (500.0 + SEGMENTS * 2.5 + 1000.0) * 1e-6
    assert report.costs.device_s == pytest.approx(9 * per_exp_s)


def test_baseline_bakes_what_a_per_experiment_build_bakes(monkeypatch):
    """One sweep kernel built per run gives the binaries and costs of one built per experiment."""

    def run(rebuild: bool):
        built = []
        record = CompileLog.record

        def capture(self, binary, model):
            built.append(binary)
            return record(self, binary, model)

        monkeypatch.setattr(CompileLog, "record", capture)
        if rebuild:  # as _calib sets them
            monkeypatch.setattr(
                calibration,
                "bake",
                lambda _kernel, values: bake(
                    build_sweep_partial(prep_us=500.0, detect_us=1000.0), values
                ),
            )
        report = run_calibration(_calib(2), "baseline", cost_model=MODEL, run_seed=4)
        monkeypatch.undo()
        return [b.content_hash for b in built], report

    hashes, report = run(rebuild=False)
    rebuilt_hashes, rebuilt = run(rebuild=True)
    assert len(hashes) == n_experiments(2)
    assert hashes == rebuilt_hashes
    assert report.costs == rebuilt.costs
    assert report.to_json_dict() == rebuilt.to_json_dict()


def test_streaming_compiles_once_for_the_whole_day():
    calib = _calib(2)
    report = run_calibration(calib, "dlpc", cost_model=MODEL, run_seed=4)
    assert report.costs.n_compiles == 1
    assert report.costs.compile_s == pytest.approx(1.2)
    assert report.version_advance == 9
    assert report.costs.rpc_s == pytest.approx(9 * RPC_ROUNDTRIP_S)


def test_streaming_compile_time_independent_of_device_size():
    times = []
    for n in (1, 2, 4):
        report = run_calibration(_calib(n), "dlpc", cost_model=MODEL)
        times.append(report.costs.compile_s)
        assert report.kernel_instructions == 2 * SEGMENTS + 7
    assert times[0] == times[1] == times[2]


def test_modes_fit_identical_values():
    a, b = _calib(2), _calib(2)
    base = run_calibration(a, "baseline", cost_model=MODEL, run_seed=11)
    dlpc = run_calibration(b, "dlpc", cost_model=MODEL, run_seed=11)
    assert base.fitted == dlpc.fitted
    assert a.qubits == b.qubits
    assert a.pairs == b.pairs
    assert a.version == b.version


def test_fits_track_the_hidden_truth():
    calib = _calib(1)
    before = calib.qubit(0).omega
    report = run_calibration(calib, "baseline", cost_model=MODEL, run_seed=3)
    after = calib.qubit(0).omega
    # Fit moved the value but stayed inside the 5 percent scan window.
    assert after != before
    assert abs(after - before) <= 0.05 * before
    assert set(report.fitted) == {"q0/freq", "q0/amp"}



def _previous_results(fetch):
    """``fetch`` answering each call from the second on with the reply before."""
    replies = []

    def stale(directive):
        replies.append(fetch(directive))
        return replies[-2] if len(replies) > 1 else replies[-1]

    return stale


@pytest.mark.parametrize("mode", ["baseline", "dlpc"])
def test_a_repeated_reply_raises_protocol_error(monkeypatch, mode):
    if mode == "baseline":  # the baseline's fetch returns the iteration execute posts
        real_execute, stale = calibration.execute, _previous_results(lambda r: r)

        def execute(*args, **kwargs):
            trace = real_execute(*args, **kwargs)
            trace.results[0] = stale(trace.results[0])
            return trace

        monkeypatch.setattr(calibration, "execute", execute)
    else:
        real_session = accounting.run_session
        monkeypatch.setattr(
            accounting,
            "run_session",
            lambda kernel, host, *, transport: real_session(
                kernel, lambda fetch: host(_previous_results(fetch)), transport=transport
            ),
        )
    with pytest.raises(ProtocolError, match=r"^experiment 1 \(q0/amp\): got iteration 0 ") as info:
        run_calibration(_calib(1), mode, cost_model=MODEL, run_seed=2)
    at = ", iteration 1" if mode == "baseline" else ""  # the fetch that returned the stale reply
    assert info.value.__notes__ == [f"in the {mode} pipeline{at}"]
