"""Kernel VM: simulated clock, sampling, drift physics, RPC-driven iteration."""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import objective_worker, run_within
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dlpc import qpu
from dlpc.cliffords import compose, inverse, native_ops
from dlpc.devcomp import (
    ALL_CHANNELS,
    CompileError,
    Instr,
    KernelBinary,
    Opcode,
    SlotArityError,
    bake,
    compile_partial,
)
from dlpc.drivers.rb import clifford_pool
from dlpc.ir import Circuit, SlotRef, op
from dlpc.pulse import (
    DEFAULT_RABI,
    CalibrationDataset,
    LiteralUs,
    SlotOverOmega,
    lower_to_pulses,
)
from dlpc.qpu import TooManyQubits, UninitializedSlot, VmError, execute
from dlpc.rpc import (
    TAG_CIRCUIT_BLOCK,
    TAG_PARAMS,
    TAG_RESULTS,
    CircuitBlock,
    Params,
    ProtocolError,
    Results,
    Sentinel,
    run_session,
)
from dlpc.transpile import transpile


@pytest.fixture
def calib() -> CalibrationDataset:
    return CalibrationDataset.default(2)


def _schedule(circuit: Circuit, calib: CalibrationDataset):
    return lower_to_pulses(transpile(circuit), calib)


def _stream(binary, objective, **execute_kwargs):
    """Execute a streamed kernel against objective.

    Returns its trace, holding the results the host received: a streamed
    trace keeps none itself.
    """
    received = []

    def recorded(results):
        received.append(results)
        return objective(results)

    trace = run_within(
        10,
        lambda: run_session(
            lambda handle, _: execute(binary, endpoint=handle, **execute_kwargs),
            objective_worker(recorded),
        ),
    )
    return dataclasses.replace(trace, results=received)


def test_clock_additivity_example(calib):
    # prep 100 us + pi/2 pulse 5 us + detect 200 us = 305 us per shot
    c = Circuit(1, [op("RY", 0, math.pi / 2), op("MEASURE", ())])
    k = bake(compile_partial(_schedule(c, calib), shots=300, n_qubits=1), [])
    trace = execute(k, run_seed=1)
    assert trace.busy_us == pytest.approx(300 * 305.0)
    assert trace.rpc_us == 0.0
    assert trace.n_iterations == 1


def test_sampling_is_deterministic_per_key(calib):
    c = Circuit(1, [op("RY", 0, 1.1), op("MEASURE", ())])
    k = bake(compile_partial(_schedule(c, calib), shots=500, n_qubits=1), [])
    a = execute(k, run_seed=42, iteration=3).results[0]
    b = execute(k, run_seed=42, iteration=3).results[0]
    assert a == b
    c2 = execute(k, run_seed=42, iteration=4).results[0]
    assert a.counts != c2.counts


def test_full_kernel_counts_match_statevector(calib):
    theta = 2 * math.asin(math.sqrt(0.25))  # P(1) = 0.25 exactly
    c = Circuit(1, [op("RY", 0, theta), op("MEASURE", ())])
    k = bake(compile_partial(_schedule(c, calib), shots=200_000, n_qubits=1), [])
    (counts,) = execute(k, run_seed=9).results[0].counts
    p1 = counts.get(1, 0) / 200_000
    assert p1 == pytest.approx(0.25, abs=0.005)


def test_depolarizing_mixes_toward_uniform(calib):
    c = Circuit(1, [op("RX", 0, math.pi), op("MEASURE", ())])
    k = bake(compile_partial(_schedule(c, calib), shots=50_000, n_qubits=1), [])
    rho = 0.03
    (counts,) = execute(k, run_seed=5, depolarizing=rho).results[0].counts
    f = 1 - 4 * rho / 3
    expected_p1 = (1 + f) / 2
    assert counts[1] / 50_000 == pytest.approx(expected_p1, abs=0.005)


def test_drift_changes_applied_angle(calib):
    # The device drives at DEFAULT_RABI, so a pi pulse compiled against a stale
    # calibration misses: literal durations carry time, not angle.
    c = Circuit(1, [op("RX", 0, math.pi), op("MEASURE", ())])
    k = bake(compile_partial(_schedule(c, calib), shots=20_000, n_qubits=1), [])
    exact = execute(k, run_seed=3).results[0].counts[0]
    assert exact == {1: 20_000}
    calib.recalibrate_qubit(0, rabi=DEFAULT_RABI / 1.05)  # the device drifted 5% faster since
    stale = bake(compile_partial(_schedule(c, calib), shots=20_000, n_qubits=1), [])
    drifted = execute(stale, run_seed=3).results[0].counts[0]
    assert 0 < drifted.get(0, 0) < 1000
    expected = math.cos(1.05 * math.pi / 2) ** 2
    assert drifted[0] / 20_000 == pytest.approx(expected, abs=0.005)


def test_two_qubit_pair_pulse(calib):
    c = Circuit(2, [op("XX", (0, 1), math.pi / 4), op("MEASURE", ())])
    k = bake(compile_partial(_schedule(c, calib), shots=40_000, n_qubits=2), [])
    trace = execute(k, run_seed=11)
    (counts,) = trace.results[0].counts
    assert set(counts) == {0b00, 0b11}
    assert counts[0b11] / 40_000 == pytest.approx(0.5, abs=0.01)
    # pair pulse holds for its full fixed duration
    assert trace.busy_us == pytest.approx(40_000 * (100.0 + 150.0 + 200.0))


def test_partial_kernel_iterates_until_sentinel(calib):
    c = Circuit(1, [op("RY", 0, SlotRef(0)), op("MEASURE", ())])
    k = compile_partial(_schedule(c, calib), shots=300, n_qubits=1)
    xs = [0.4, 1.0, 2.2]

    def objective(r: Results):
        nxt = r.iteration + 1
        return Params((xs[nxt],)) if nxt < len(xs) else Sentinel()

    trace = _stream(k, objective, launch=Params((xs[0],)), run_seed=7)
    assert trace.n_iterations == len(xs)
    assert [r.iteration for r in trace.results] == [0, 1, 2]
    assert trace.rpc_us == pytest.approx(len(xs) * 2000.0)


def test_mode_equivalence_exact(calib):
    """Same seeds, same parameters: both pipelines produce identical counts."""
    xs = [0.3, 1.7, 2.9, 0.05]
    seed = 20260817
    template = Circuit(1, [op("RY", 0, SlotRef(0)), op("MEASURE", ())])

    baseline = []
    for k_iter, x in enumerate(xs):
        kern = bake(compile_partial(_schedule(template, calib), shots=300, n_qubits=1), [x])
        baseline.append(execute(kern, run_seed=seed, iteration=k_iter).results[0])

    partial = compile_partial(_schedule(template, calib), shots=300, n_qubits=1)

    def objective(r: Results):
        nxt = r.iteration + 1
        return Params((xs[nxt],)) if nxt < len(xs) else Sentinel()

    trace = _stream(partial, objective, launch=Params((xs[0],)), run_seed=seed)

    assert len(trace.results) == len(baseline)
    for got, want in zip(trace.results, baseline):
        assert got == want


def _mixed_template() -> Circuit:
    """Literal R and XX pulses beside slot-driven R pulses and a slot frame rotation."""
    return Circuit(
        2,
        [
            op("RX", 1, 0.7),
            op("RY", 0, SlotRef(0)),
            op("XX", (0, 1), math.pi / 4),
            op("RZ", 1, SlotRef(1)),
            op("RX", 0, SlotRef(1)),
            op("MEASURE", ()),
        ],
    )


def _replay(xs):
    def objective(r: Results):
        nxt = r.iteration + 1
        return Params(xs[nxt]) if nxt < len(xs) else Sentinel()

    return objective


def test_streamed_slots_never_reuse_a_stale_matrix(calib):
    """Slots change every iteration, one at a time, and return to earlier values."""
    xs = [(0.3, 1.1), (0.3, 2.0), (1.9, 2.0), (0.3, 1.1), (2.6, 0.4)]
    seed = 5
    sched = _schedule(_mixed_template(), calib)
    kernel = compile_partial(sched, shots=2000, n_qubits=2)
    trace = _stream(kernel, _replay(xs), launch=Params(xs[0]), run_seed=seed)
    assert len(trace.results) == len(xs)
    for k, x in enumerate(xs):
        full = bake(compile_partial(sched, shots=2000, n_qubits=2), list(x))
        fresh = execute(full, run_seed=seed, iteration=k)
        assert trace.results[k] == fresh.results[0], f"iteration {k} with slots {x}"


def test_literal_pulses_build_their_matrix_once_per_kernel(calib, monkeypatch):
    built: list[tuple] = []
    real = qpu.gate_matrix

    def counting(kind, params):
        built.append((kind, params))
        return real(kind, params)

    monkeypatch.setattr(qpu, "gate_matrix", counting)
    xs = [(0.3, 1.1), (0.8, 1.5), (1.9, 2.0), (2.2, 0.1), (2.6, 0.4)]
    kernel = compile_partial(_schedule(_mixed_template(), calib), shots=100, n_qubits=2)
    _stream(kernel, _replay(xs), launch=Params(xs[0]), run_seed=1)
    # two literal pulses (RX(0.7) and XX) once each, three slot-driven gates per iteration
    assert len(built) == 2 + 3 * len(xs)
    assert max(Counter(built).values()) == 1
    assert [kind for kind, _ in built].count("XX") == 1


def test_sections_sharing_an_ansatz_build_each_slot_matrix_once_per_iteration(
    calib, monkeypatch
):
    built: list[tuple] = []
    real = qpu.gate_matrix

    def counting(kind, params):
        built.append((kind, params))
        return real(kind, params)

    monkeypatch.setattr(qpu, "gate_matrix", counting)
    xs = [(0.3, 1.1), (0.8, 1.5), (1.9, 2.0), (2.2, 0.1), (2.6, 0.4)]
    sched = _schedule(_mixed_template(), calib)
    kernel = compile_partial([sched, sched], shots=100, n_qubits=2)
    trace = _stream(kernel, _replay(xs), launch=Params(xs[0]), run_seed=3)
    # the second section builds no matrix the first built: two literal
    # pulses once per kernel, three slot-driven gates once per iteration
    assert len(built) == 2 + 3 * len(xs)
    assert max(Counter(built).values()) == 1
    monkeypatch.undo()
    for k, x in enumerate(xs):
        fresh = bake(compile_partial(sched, shots=100, n_qubits=2), list(x))
        for j in range(2):
            want = execute(fresh, run_seed=3, iteration=k, first_section=j).results[0]
            assert trace.results[k].counts[j] == want.counts[0], (k, j)


def test_a_params_reply_keeps_the_last_iterations_matrices(calib, monkeypatch):
    """A slot value that moves to another slot reuses the matrix built for it."""
    built: list[tuple] = []
    real = qpu.gate_matrix

    def counting(kind, params):
        built.append((kind, params))
        return real(kind, params)

    monkeypatch.setattr(qpu, "gate_matrix", counting)
    x, y, z = 0.3, 1.1, 2.0
    circuit = Circuit(1, [op("RY", 0, SlotRef(0)), op("RY", 0, SlotRef(1)), op("MEASURE", ())])
    sched = _schedule(circuit, calib)
    kernel = compile_partial(sched, shots=200, n_qubits=1)
    trace = _stream(kernel, _replay([(x, y), (y, z)]), launch=Params((x, y)), run_seed=4)
    # R(x) and R(y), then R(z): slot 0's R(y) is the matrix slot 1 built an iteration before
    assert len(built) == 3
    assert max(Counter(built).values()) == 1
    monkeypatch.undo()
    for k, values in enumerate([(x, y), (y, z)]):
        fresh = execute(bake(kernel, list(values)), run_seed=4, iteration=k).results[0]
        assert trace.results[k] == fresh, (k, values)


def _watch_vm(monkeypatch) -> list[tuple[np.ndarray, bool, int]]:
    """Per DETECT: a copy of the state, whether the VM keeps a trie, contractions so far."""
    contractions: list[None] = []
    seen: list[tuple[np.ndarray, bool, int]] = []
    real_apply, real_detect = qpu._apply_gate, qpu._Vm._detect

    def contracting(*args):
        contractions.append(None)
        return real_apply(*args)

    def detecting(self, shots):
        seen.append((self.state.copy(), self.root is not None, len(contractions)))
        real_detect(self, shots)

    monkeypatch.setattr(qpu, "_apply_gate", contracting)
    monkeypatch.setattr(qpu._Vm, "_detect", detecting)
    return seen


def _bases(calib, template: Circuit) -> list:
    """One schedule per readout basis, each repeating template's gates."""
    return [
        _schedule(Circuit(2, [*template.ops[:-1], op("MEASURE", (), basis=b)]), calib)
        for b in ("Z", "X", "Y")
    ]


def _assert_sections_match_full_compiles(trace, seen, scheds, xs, seed, shots, depolarizing=0.0):
    """Counts and amplitudes of every streamed section equal a one-section full compile."""
    streamed = list(seen)
    for k, x in enumerate(xs):
        for j, sched in enumerate(scheds):
            fresh = bake(compile_partial(sched, shots=shots, n_qubits=2), list(x))
            want = execute(
                fresh, run_seed=seed, iteration=k, first_section=j, depolarizing=depolarizing
            )
            assert trace.results[k].counts[j] == want.results[0].counts[0], (k, j)
            assert np.array_equal(streamed[len(scheds) * k + j][0], seen[-1][0]), (k, j)
            assert not seen[-1][1]


@pytest.mark.parametrize("depolarizing", [0.0, 0.02])
def test_trie_never_replays_a_stale_state(calib, monkeypatch, depolarizing):
    """One slot changes at a time, and slots return to earlier values."""
    xs = [(0.3, 1.1), (0.3, 2.0), (1.9, 2.0), (0.3, 1.1), (0.3, 1.1), (2.6, 0.4)]
    scheds = _bases(calib, _mixed_template())
    seen = _watch_vm(monkeypatch)
    trace = _stream(
        compile_partial(scheds, shots=500, n_qubits=2), _replay(xs),
        launch=Params(xs[0]), run_seed=8, depolarizing=depolarizing,
    )
    assert len(seen) == len(scheds) * len(xs) and all(trie for _, trie, _ in seen)
    _assert_sections_match_full_compiles(trace, seen, scheds, xs, 8, 500, depolarizing)


def test_prefix_diverging_midway_recomputes_from_that_gate(calib, monkeypatch):
    prefix = [op("RX", 1, 0.7), op("RY", 0, SlotRef(0)), op("XX", (0, 1), math.pi / 4)]
    a = [*prefix, op("RZ", 1, SlotRef(1)), op("RX", 0, SlotRef(1))]
    b = [*prefix, op("RX", 0, SlotRef(1)), op("RZ", 1, SlotRef(1))]  # same state, other path
    scheds = [_schedule(Circuit(2, [*ops, op("MEASURE", ())]), calib) for ops in (a, b, a)]
    xs = [(0.3, 1.1), (0.8, 1.5), (1.9, 2.0)]
    seen = _watch_vm(monkeypatch)
    trace = _stream(
        compile_partial(scheds, shots=200, n_qubits=2),
        _replay(xs),
        launch=Params(xs[0]),
        run_seed=2,
    )
    done = [0] + [contracted for _, _, contracted in seen]
    # a runs all five gates, b only the two after the shared prefix, a again none
    assert [after - before for before, after in zip(done, done[1:])] == [5, 2, 0] * len(xs)
    _assert_sections_match_full_compiles(trace, seen, scheds, xs, 2, 200)


def _reading_twice(pool: KernelBinary) -> KernelBinary:
    """The pool kernel with its shot loop's PREP, SELECT and DETECT run twice."""
    instrs = list(pool.instructions)
    loop = next(pc for pc, ins in enumerate(instrs) if ins.op is Opcode.LOOP_SHOTS)
    shots, body_len = instrs[loop].args
    body = instrs[loop + 1 : loop + 1 + body_len]
    instrs[loop : loop + 1 + body_len] = [
        Instr(Opcode.LOOP_SHOTS, (shots, 2 * body_len)), *body, *body
    ]
    blocks = tuple((start + body_len, length) for start, length in pool.blocks)
    return KernelBinary(pool.n_qubits, tuple(instrs), pool.pair_channels, blocks)


def _trie_nodes(children: dict) -> int:
    return sum(1 + _trie_nodes(grandchildren) for _, grandchildren in children.values())


def test_trie_holds_one_iterations_states_on_a_streamed_rb_kernel(calib, monkeypatch):
    """A circuit-streaming kernel never receives PARAMS; its trie still empties per iteration."""
    rng = np.random.default_rng(4)
    circuits = [tuple(rng.integers(0, 24, size=rng.integers(1, 9)).tolist()) for _ in range(40)]
    gates: list[int] = [0]
    per_iteration: list[tuple[int, int]] = []
    real_apply, real_post = qpu._Vm._apply, qpu._Vm._post_results

    def applying(self, *args):
        gates[-1] += 1
        real_apply(self, *args)

    def posting(self):
        per_iteration.append((_trie_nodes(self.root), gates[-1]))
        gates.append(0)
        real_post(self)

    monkeypatch.setattr(qpu._Vm, "_apply", applying)
    monkeypatch.setattr(qpu._Vm, "_post_results", posting)

    def objective(r: Results):
        nxt = r.iteration + 1
        return CircuitBlock(circuits[nxt]) if nxt < len(circuits) else Sentinel()

    kernel = _reading_twice(clifford_pool(calib, 50))
    trace = _stream(kernel, objective, launch=CircuitBlock(circuits[0]), run_seed=6)
    assert len(per_iteration) == len(circuits)
    # the first section adds one node per gate; the second replays every one
    assert all(2 * nodes == ran for nodes, ran in per_iteration)
    assert sum(nodes for nodes, _ in per_iteration) > 100
    monkeypatch.undo()
    for i, seq in enumerate(circuits):
        ops = [g for idx in seq for g in native_ops(idx, 0)]
        sched = _schedule(Circuit(1, [*ops, op("MEASURE", ())]), calib)
        full = bake(compile_partial(sched, shots=50, n_qubits=1), [])
        for j in range(2):
            want = execute(full, run_seed=6, iteration=i, first_section=j).results[0]
            assert trace.results[i].counts[j] == want.counts[0], (i, j)


def test_one_detect_kernels_build_no_trie(calib, monkeypatch):
    seen = _watch_vm(monkeypatch)
    sched = _schedule(_mixed_template(), calib)
    execute(bake(compile_partial(sched, shots=10, n_qubits=2), [0.3, 1.1]))
    _stream(
        compile_partial(sched, shots=10, n_qubits=2),
        _replay([(0.3, 1.1), (0.5, 0.2)]),
        launch=Params((0.3, 1.1)),
    )
    _stream(clifford_pool(calib, 10), lambda r: Sentinel(), launch=CircuitBlock((5, 17)))
    execute(bake(compile_partial([sched, sched], shots=10, n_qubits=2), [0.3, 1.1]))
    assert [trie for _, trie, _ in seen] == [False] * 4 + [True] * 2


@pytest.mark.parametrize(
    "key",
    [(0, 0, 0), (7, 3, 2),(2**64 + 7, 3, 2), (5, 2**32 + 9, 1), (2**70 + 1, 2**40 + 2, 2**33 + 5)],
)
def test_rekeyed_generator_draws_what_shot_rng_draws(key):
    rng = qpu.shot_rng(11, 12, 13)
    rng.random(5)
    rng.integers(0, 2**32, size=3, dtype=np.uint32)  # leaves half a 64-bit word buffered
    qpu.rekey(rng, *key)
    fresh = qpu.shot_rng(*key)
    assert np.array_equal(rng.random(1000), fresh.random(1000))
    assert np.array_equal(
        rng.integers(0, 2**32, size=7, dtype=np.uint32),
        fresh.integers(0, 2**32, size=7, dtype=np.uint32),
    )


def test_stream_key_masks_seed_and_iteration():
    a = qpu.shot_rng(2**64 + 7, 2**32 + 3, 2).random(100)
    assert np.array_equal(a, qpu.shot_rng(7, 3, 2).random(100))


def test_streamed_kernel_builds_one_sampling_generator(calib, monkeypatch):
    calls = []
    real = qpu.shot_rng

    def counting(*key):
        calls.append(key)
        return real(*key)

    monkeypatch.setattr(qpu, "shot_rng", counting)
    xs = [(0.3, 1.1), (0.8, 1.5), (1.9, 2.0), (2.2, 0.1)]
    scheds = [
        _schedule(Circuit(2, [*_mixed_template().ops[:-1], op("MEASURE", (), basis=b)]), calib)
        for b in ("Z", "X", "Y")
    ]
    kernel = compile_partial(scheds, shots=200, n_qubits=2)
    trace = _stream(kernel, _replay(xs), launch=Params(xs[0]), run_seed=17)
    assert calls == [(17, 0, 0)]
    monkeypatch.undo()
    for k, x in enumerate(xs):
        for j, sched in enumerate(scheds):
            fresh = bake(compile_partial(sched, shots=200, n_qubits=2), list(x))
            want = execute(fresh, run_seed=17, iteration=k, first_section=j).results[0]
            assert trace.results[k].counts[j] == want.counts[0], (k, j)


def _placed_counts(state, coherent, shots, key, rng=None) -> dict[int, int]:
    """Reference readout: place each draw in the CDF by binary search, then histogram."""
    probs = np.abs(state) ** 2
    probs = coherent * probs + (1.0 - coherent) / len(probs)
    cdf = probs.cumsum()
    cdf[-1] = 1.0
    draws = cdf.searchsorted((rng or qpu.shot_rng(*key)).random(shots), side="right")
    hist = np.bincount(draws, minlength=len(probs))
    (seen,) = hist.nonzero()
    return dict(zip(seen.tolist(), hist[seen].tolist()))


def _counted(state, coherent, shots, key, rng=None) -> dict[int, int]:
    """What ``_Vm._detect`` reads from ``state`` for one section keyed ``key``."""
    n = int(math.log2(len(state)))
    run_seed, iteration, section = key
    vm = qpu._Vm(
        KernelBinary(n, (Instr(Opcode.HALT, ()),)),
        endpoint=None, run_seed=run_seed, iteration=iteration, launch=None,
        depolarizing=0.0, cost_only=False, first_section=section,
    )
    vm.state, vm.coherent, vm.rng = state, coherent, rng
    vm._detect(shots)
    return vm.sections[0]


@st.composite
def _readouts(draw):
    n = draw(st.integers(1, 5))
    magnitude = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
    amps = np.array(draw(st.lists(magnitude, min_size=2**n, max_size=2**n)), dtype=complex)
    assume(amps.any())
    phases = np.array(draw(st.lists(st.floats(0.0, 6.3), min_size=2**n, max_size=2**n)))
    state = amps * np.exp(1j * phases) / np.linalg.norm(amps)
    coherent = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
    shots = draw(st.sampled_from([1, 2, 200, 1000]))
    key = tuple(draw(st.integers(0, 2**40)) for _ in range(3))
    return state, coherent, shots, key


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_readouts())
def test_counting_draws_gives_the_counts_placing_them_gives(readout):
    assert _counted(*readout) == _placed_counts(*readout)


@pytest.mark.parametrize("shots", [1, 2, 200, 1000])
def test_counts_agree_where_the_cdf_tail_rounds_above_one(shots):
    state = np.array([1.0, 1.0, 1.0, 0.0], dtype=complex) / math.sqrt(3.0)
    assert (np.abs(state) ** 2).cumsum()[-2] > 1.0
    for key in [(0, 0, 0), (3, 1, 2), (17, 5, 1)]:
        readout = (state, 1.0, shots, key)
        assert _counted(*readout) == _placed_counts(*readout)


class _FixedDraws:
    """Stands in for the sampling generator: rekeying it does nothing, it draws ``draws``."""

    def __init__(self, draws):
        self.draws = draws
        self.bit_generator = SimpleNamespace()

    def random(self, shots):
        return np.array(self.draws[:shots])


def test_a_draw_on_a_cdf_entry_counts_where_placing_puts_it():
    state = np.full(4, 0.5, dtype=complex)  # cdf 0.25, 0.5, 0.75, 1.0, all exact
    draws = [0.5, 0.0, 0.25, 0.75, 0.5, 0.1]
    readout = (state, 1.0, len(draws), (0, 0, 0), _FixedDraws(draws))
    assert _counted(*readout) == _placed_counts(*readout) == {0: 2, 1: 1, 2: 2, 3: 1}


def test_eight_qubit_streamed_sections_count_as_placing_gives(monkeypatch):
    """Hundreds of outcomes per 1,000-shot section; tier-1's digests stop at 3 qubits."""
    n = 8
    calib = CalibrationDataset.default(n)
    ops = [op("RY", q, SlotRef(q)) for q in range(n)]
    ops += [op("XX", (q, q + 1), math.pi / 4) for q in range(n - 1)]
    ops += [op("RY", q, SlotRef(n + q)) for q in range(n)]
    scheds = [
        _schedule(Circuit(n, [*ops, op("MEASURE", (), basis=b)]), calib) for b in ("Z", "X", "Y")
    ]
    rng = np.random.default_rng(4)
    xs = [tuple(math.pi / 4 + rng.uniform(-0.3, 0.3, 2 * n)) for _ in range(3)]
    want = []
    detect = qpu._Vm._detect

    def checked(vm, shots):
        key = (vm.run_seed, vm.iteration, vm.section_idx)
        want.append(_placed_counts(vm.state, vm.coherent, shots, key))
        detect(vm, shots)

    monkeypatch.setattr(qpu._Vm, "_detect", checked)
    kernel = compile_partial(scheds, shots=1000, n_qubits=8)
    trace = _stream(kernel, _replay(xs), launch=Params(xs[0]), run_seed=23, depolarizing=1e-3)
    got = [section for r in trace.results for section in r.counts]
    assert len(got) == 9 and min(len(s) for s in got) > 50
    assert got == want


def test_pool_mode_equivalence_exact(calib):
    """Streamed gate-pool circuits match per-circuit full compiles shot-for-shot."""
    seed = 99
    rng_circuits = [[5, 17, 3], [1, 1, 2, 20], [0], [23, 10]]
    circuits = []
    for seq in rng_circuits:
        total = 0
        for g in seq:
            total = compose(g, total)
        circuits.append(seq + [inverse(total)])

    pool = clifford_pool(calib, 100)

    def objective(r: Results):
        nxt = r.iteration + 1
        if nxt < len(circuits):
            return CircuitBlock(tuple(circuits[nxt]))
        return Sentinel()

    trace = _stream(pool, objective, launch=CircuitBlock(tuple(circuits[0])), run_seed=seed)

    for i, seq in enumerate(circuits):
        ops = [g for idx in seq for g in native_ops(idx, 0)]
        full_circ = Circuit(1, ops + [op("MEASURE", ())])
        kern = bake(compile_partial(_schedule(full_circ, calib), shots=100, n_qubits=1), [])
        want = execute(kern, run_seed=seed, iteration=i).results[0]
        assert trace.results[i] == want
    # every streamed sequence ends on the identity: survival is certain
    for r in trace.results:
        assert r.counts[0] == {0: 100}


def test_each_reply_runs_its_own_circuit_and_nothing_else(calib):
    """Launch (0,), then replies (3,) and (4,): three iterations, each its own circuit."""
    circuits = [(0,), (3,), (4,)]
    replies = iter([CircuitBlock(c) for c in circuits[1:]])
    trace = _stream(
        clifford_pool(calib, 200),
        lambda r: next(replies, Sentinel()),
        launch=CircuitBlock(circuits[0]),
        run_seed=5,
    )
    wants = []
    for i, seq in enumerate(circuits):
        ops = [g for idx in seq for g in native_ops(idx, 0)]
        sched = _schedule(Circuit(1, [*ops, op("MEASURE", ())]), calib)
        full = bake(compile_partial(sched, shots=200, n_qubits=1), [])
        wants.append(execute(full, run_seed=5, iteration=i).results[0])
    assert trace.results == wants
    assert wants[2].counts != wants[1].counts  # a replayed earlier circuit would show


def test_a_streamed_empty_circuit_reads_every_shot_as_outcome_0(calib):
    replies = iter([CircuitBlock(())])
    trace = _stream(
        clifford_pool(calib, 50),
        lambda r: next(replies, Sentinel()),
        launch=CircuitBlock(()),
        run_seed=3,
        depolarizing=0.5,  # no pulse, so no noise
    )
    assert [r.counts for r in trace.results] == [({0: 50},)] * 2
    assert trace.busy_us == pytest.approx(2 * 50 * (calib.prep_us + calib.detect_us))


@pytest.mark.parametrize(
    "ins",
    [
        Instr(Opcode.SET_FREQ, (0, SlotRef(0))),
        Instr(Opcode.SET_PHASE, (0, SlotRef(0))),
        Instr(Opcode.SET_AMP, (0, SlotRef(0))),
        Instr(Opcode.FRAME_ROT, (0, SlotRef(0))),
        Instr(Opcode.PLAY, (SlotOverOmega(0, DEFAULT_RABI),)),
    ],
    ids=["SET_FREQ", "SET_PHASE", "SET_AMP", "FRAME_ROT", "PLAY"],
)
def test_uninitialized_slot_raises(ins):
    # a kernel that reads a slot is refused before its first instruction runs
    k = KernelBinary(1, (Instr(Opcode.SET_PHASE, (0, 0.5)), ins, Instr(Opcode.HALT, ())))
    with pytest.raises(UninitializedSlot, match="^iteration 3: kernel reads 1 slots, launch gives none$"):
        execute(k, iteration=3)
    assert execute(k, iteration=3, launch=Params((0.25,))).n_iterations == 1


def test_frame_rotation_on_a_pair_channel_raises():
    # the kernel is refused when it is built, before it is priced or run
    with pytest.raises(CompileError, match="^pc 0: frame rotation on a pair channel$"):
        KernelBinary(2, (Instr(Opcode.FRAME_ROT, (2, 0.5)), Instr(Opcode.HALT, ())), ((0, 1),))
    k = KernelBinary(2, (Instr(Opcode.SET_PHASE, (2, 0.5)), Instr(Opcode.HALT, ())), ((0, 1),))
    assert execute(k).n_iterations == 1  # any other channel op may name a pair channel


def test_play_drives_the_armed_channel_at_amp_rabi_duration(monkeypatch):
    amp, rabi, dur = 0.669, DEFAULT_RABI, 15.7956
    # values where other groupings of the product round differently
    assert amp * rabi * dur * 1e-6 not in (
        amp * (rabi * dur * 1e-6), (amp * rabi) * (dur * 1e-6), (amp * dur) * rabi * 1e-6,
        amp * (rabi * (dur * 1e-6)),
    )
    applied = []
    apply = qpu._Vm._apply

    def record(vm, kind, qubits, params):
        applied.append((kind, qubits, params))
        apply(vm, kind, qubits, params)

    monkeypatch.setattr(qpu._Vm, "_apply", record)
    k = KernelBinary(
        2,
        (
            Instr(Opcode.SET_PHASE, (0, 0.25)),
            Instr(Opcode.SET_AMP, (0, amp)),
            Instr(Opcode.FRAME_ROT, (1, 0.5)),  # arms no channel
            Instr(Opcode.PLAY, (LiteralUs(dur),)),
            Instr(Opcode.HALT, ()),
        ),
    )
    execute(k)
    assert applied == [("RZ", (1,), (0.5,)), ("R", (0,), (amp * rabi * dur * 1e-6, 0.25))]


@pytest.mark.parametrize(
    "ins",
    [
        Instr(Opcode.LOOP_SHOTS, (1, 0)),
        Instr(Opcode.RPC_SYNC, (TAG_PARAMS, 0)),
        Instr(Opcode.RPC_ASYNC, (TAG_RESULTS,)),
        Instr(Opcode.HALT, ()),
    ],
    ids=lambda ins: ins.op.name,
)
def test_control_flow_inside_a_shot_loop_raises(ins):
    with pytest.raises(CompileError, match=f"^pc 1: {ins.op.name} not allowed inside a shot loop$"):
        KernelBinary(1, (Instr(Opcode.LOOP_SHOTS, (1, 1)), ins, Instr(Opcode.HALT, ())))
    # the first pc past the body is outside the loop; a HALT there is the kernel's one HALT
    tail = () if ins.op is Opcode.HALT else (Instr(Opcode.HALT, ()),)
    KernelBinary(1, (Instr(Opcode.LOOP_SHOTS, (1, 0)), ins, *tail))


def test_select_with_no_circuit_loaded_names_its_pc():
    loop = (Instr(Opcode.LOOP_SHOTS, (1, 2)), Instr(Opcode.PREP, (1.0,)), Instr(Opcode.SELECT, (0,)))
    # with no gate pool there is never a circuit to select: the kernel is refused when built
    with pytest.raises(CompileError, match="^pc 2: SELECT in a kernel with no gate pool$"):
        KernelBinary(1, (*loop, Instr(Opcode.HALT, ())))
    # with one, a run that loads no circuit is refused before it starts
    k = KernelBinary(1, (*loop, Instr(Opcode.HALT, ())), blocks=((4, 0),))
    with pytest.raises(UninitializedSlot, match="^iteration 7: kernel selects gate blocks, launch gives none$"):
        execute(k, iteration=7)


def test_block_recursion_names_the_select_that_goes_too_deep():
    # block 0 would select the current circuit, which is block 0 again
    loop = (Instr(Opcode.LOOP_SHOTS, (1, 1)), Instr(Opcode.SELECT, (0,)), Instr(Opcode.HALT, ()))
    with pytest.raises(CompileError, match="^pc 3: SELECT not allowed in a gate block$"):
        KernelBinary(1, (*loop, Instr(Opcode.SELECT, (0,))), blocks=((3, 1),))


@pytest.mark.parametrize(
    "ins",
    [
        Instr(Opcode.LOOP_SHOTS, (1, 0)),
        Instr(Opcode.RPC_SYNC, (TAG_CIRCUIT_BLOCK, 0)),
        Instr(Opcode.RPC_ASYNC, (TAG_RESULTS,)),
        Instr(Opcode.HALT, ()),
    ],
    ids=lambda ins: ins.op.name,
)
def test_a_gate_block_holds_no_control_flow(ins):
    loop = (Instr(Opcode.LOOP_SHOTS, (1, 1)), Instr(Opcode.SELECT, (0,)), Instr(Opcode.HALT, ()))
    with pytest.raises(CompileError, match=f"^pc 4: {ins.op.name} not allowed in a gate block$"):
        KernelBinary(1, (*loop, Instr(Opcode.PREP, (1.0,)), ins), blocks=((3, 2),))
    # outside the window ins is no gate-block error: past the last block, the
    # blocks leave its pc untiled, and before the HALT it is top-level code
    with pytest.raises(CompileError, match="^gate blocks end at pc 4, the kernel at 5$"):
        KernelBinary(1, (*loop, Instr(Opcode.PREP, (1.0,)), ins), blocks=((3, 1),))
    if ins.op is not Opcode.HALT:  # a HALT before the pool is the kernel's own
        KernelBinary(1, (*loop[:2], ins, *loop[2:], Instr(Opcode.PREP, (1.0,))), blocks=((4, 1),))


# A slot index is 0 or 1 four times in five, else none the header can count:
# negative (``SlotRef`` itself refuses that), not an int, or too big for a u32 count.
_REAL = st.one_of(
    st.sampled_from([0.0, -0.5, 1.25]), st.builds(SlotRef, st.sampled_from([0, 1] * 4 + [1.5, 2**32 - 1]))
)
_DURATION = st.one_of(
    st.builds(LiteralUs, st.sampled_from([0.0, 2.5])),
    st.builds(SlotOverOmega, st.sampled_from([0, 1] * 6 + [-1, 2.5, 2**32 - 1]), st.just(DEFAULT_RABI)),
)
_TAG = st.sampled_from([TAG_PARAMS, TAG_RESULTS, TAG_CIRCUIT_BLOCK])


def _instruction(n_channels: int):
    """Any opcode with operands ``Instr`` accepts; one channel in four is one past the kernel's.

    Opcodes a shot-loop body may hold are drawn six times as often as the rest,
    and of those the ones that may read a slot twice as often as the others.
    """
    chan = st.sampled_from([*range(n_channels)] * 3 + [n_channels])
    slotted = st.one_of(
        st.builds(lambda op, ch, v: Instr(op, (ch, v)),
                  st.sampled_from([Opcode.SET_FREQ, Opcode.SET_PHASE, Opcode.SET_AMP, Opcode.FRAME_ROT]),
                  chan, _REAL),
        st.builds(lambda d: Instr(Opcode.PLAY, (d,)), _DURATION),
    )
    body = st.one_of(
        slotted,
        slotted,
        st.just(Instr(Opcode.PREP, (1.0,))),
        st.builds(lambda ch: Instr(Opcode.DETECT, (ch, 1.0)), st.sampled_from([ALL_CHANNELS] * 3 + [0])),
        st.just(Instr(Opcode.SELECT, (0,))),
    )
    flow = st.one_of(
        st.builds(lambda k, m: Instr(Opcode.LOOP_SHOTS, (k, m)),
                  st.sampled_from([1, 2, 3] * 2 + [0]), st.integers(0, 4)),
        st.builds(lambda t, pc: Instr(Opcode.RPC_SYNC, (t, pc)), _TAG, st.integers(0, 8)),
        st.builds(lambda t: Instr(Opcode.RPC_ASYNC, (t,)), _TAG),
        st.just(Instr(Opcode.HALT, ())),
    )
    return st.one_of(body, body, body, flow, body, body, body)


# built once: building the strategies on every draw would make the test half again as slow
_INSTRUCTIONS = {n_channels: _instruction(n_channels) for n_channels in (0, 1, 2, 3)}


@st.composite
def _kernels(draw):
    """``KernelBinary`` arguments that may break any rule, and block indices a pool launch may select.

    Half the registers are 1 or 2 qubits, half anything from -1 to 256; channel
    operands name channels 0 to 3 at most.  A kernel is one to six instructions,
    a HALT in four of five kernels, then in half the kernels nothing else and
    no block table; otherwise up to three more instructions, split into two
    windows, the form a pool's table takes, or one time in six any windows.
    One time in three the register, a pair qubit, or a window's start or length
    is the equal float, which the header's integer fields cannot hold.
    """
    n = draw(st.one_of(st.integers(1, 2), st.integers(-1, 256)))
    pairs = draw(st.sampled_from([(), ((0, 1),)])) if n >= 2 else ()
    instruction = _INSTRUCTIONS[max(0, min(n + len(pairs), 3))]
    top = draw(st.lists(instruction, min_size=1, max_size=6))
    top += draw(st.sampled_from([[Instr(Opcode.HALT, ())]] * 4 + [[]]))
    form = draw(st.sampled_from(["no pool"] * 3 + ["pool"] * 2 + ["any windows"]))
    instrs = tuple(top + ([] if form == "no pool" else draw(st.lists(instruction, max_size=3))))
    if form == "pool":
        cut = draw(st.integers(len(top), len(instrs)))
        blocks = ((len(top), cut - len(top)), (cut, len(instrs) - cut))
    else:
        windows = st.tuples(st.integers(-2, len(instrs)), st.integers(-1, 3))
        blocks = () if form == "no pool" else tuple(draw(st.lists(windows, min_size=1, max_size=2)))
    circuit = draw(st.lists(st.integers(0, max(len(blocks) - 1, 0)), max_size=2))
    floated = draw(st.sampled_from(["none"] * 8 + ["register", "pair", "start", "length"]))
    if floated == "register":
        n = float(n)
    elif floated == "pair" and pairs:
        pairs = ((0, 1.0),)
    elif floated == "start" and blocks:
        blocks = ((float(blocks[0][0]), blocks[0][1]), *blocks[1:])
    elif floated == "length" and blocks:
        blocks = ((blocks[0][0], float(blocks[0][1])), *blocks[1:])
    return (n, instrs, pairs, blocks), CircuitBlock(tuple(circuit))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_kernels())
def test_a_kernel_that_builds_runs_into_run_errors_only(case):
    """Every kernel that builds serializes, and runs to HALT given the launch it needs."""
    args, circuit = case
    try:
        k = KernelBinary(*args)
    except CompileError:
        return
    assert len(k.serialized) == k.size_bytes
    launch = circuit if k.blocks else Params((0.4, 2.0)[: k.n_slots]) if k.n_slots else None
    if launch is not None:  # refused before it starts, exactly when it needs a launch
        with pytest.raises(UninitializedSlot, match="^iteration 0: kernel .*, launch gives none$"):
            execute(k, cost_only=True)
    cost_only = k.n_qubits > qpu.VM_QUBIT_LIMIT
    if k.streams:
        with pytest.raises(VmError, match="^partial kernel requires a host endpoint$"):
            execute(k, launch=launch, cost_only=cost_only)
    else:
        assert execute(k, launch=launch, run_seed=1, cost_only=cost_only).n_iterations == 1


def test_launch_slot_arity_checked(calib):
    c = Circuit(1, [op("RY", 0, SlotRef(0)), op("MEASURE", ())])
    k = compile_partial(_schedule(c, calib), shots=10, n_qubits=1)
    with pytest.raises(SlotArityError):
        execute(k, launch=Params((0.1, 0.2)))


def _raised(fn) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    "pool, good, bad",
    [
        (False, Params((0.5,)), Params((0.1, 0.2))),  # wrong slot count
        (True, CircuitBlock((0,)), CircuitBlock((0, 24))),  # block outside the pool
        (True, CircuitBlock((0,)), CircuitBlock((-1, 0))),  # block below the pool
        (False, Params((0.5,)), CircuitBlock((0,))),  # a kind the kernel does not fetch
        (True, CircuitBlock((0,)), Params(())),
    ],
)
def test_bad_launch_fails_like_the_same_reply(calib, pool, good, bad):
    if pool:
        k = clifford_pool(calib, 10)
    else:
        c = Circuit(1, [op("RY", 0, SlotRef(0)), op("MEASURE", ())])
        k = compile_partial(_schedule(c, calib), shots=10, n_qubits=1)
    as_reply = _raised(
        lambda: _stream(k, lambda r: bad if r.iteration == 0 else Sentinel(), launch=good)
    )
    kind, message = _raised(lambda: execute(k, launch=bad))
    # the VM names the iteration it loads for, and a reply is loaded for the one
    # after the iteration it answers; the slot count check names no iteration
    assert message.startswith("iteration 0: ") is (kind is not SlotArityError)
    assert as_reply == (kind, message.replace("iteration 0: ", "iteration 1: "))


@pytest.mark.parametrize(
    "transport, error, match",
    [
        # in memory the directive reaches the VM, which checks it against the pool
        ("memory", VmError, "^iteration 1: circuit references block -1 of 24$"),
        # over the socket it must be encoded first, and a u32 cannot hold -1
        ("socket", ProtocolError, r"^cannot encode CircuitBlock: circuit\[0\] = -1$"),
    ],
    ids=["memory", "socket"],
)
def test_a_reply_outside_the_wire_fails_in_each_transports_error(calib, transport, error, match):
    pool = clifford_pool(calib, 10)
    host = objective_worker(lambda r: CircuitBlock((-1,)) if r.iteration == 0 else Sentinel())
    with pytest.raises(error, match=match):
        run_within(
            10,
            lambda: run_session(
                lambda handle, _: execute(pool, endpoint=handle, launch=CircuitBlock((0,))),
                host,
                transport=transport,
            ),
        )


def test_kernel_without_rpc_posts_one_result_at_halt():
    # it needs no endpoint, whatever slots it reads
    play = Instr(Opcode.PLAY, (SlotOverOmega(0, DEFAULT_RABI),))
    detect = Instr(Opcode.DETECT, (255, 200.0))
    k = KernelBinary(1, (Instr(Opcode.LOOP_SHOTS, (5, 2)), play, detect, Instr(Opcode.HALT, ())))
    assert (k.streams, k.n_slots) == (False, 1)
    trace = execute(k, launch=Params((1.0,)), run_seed=3)
    assert trace.n_iterations == 1
    assert [r.iteration for r in trace.results] == [0]
    assert sum(trace.results[0].counts[0].values()) == 5


def test_streaming_kernel_needs_an_endpoint_after_its_launch_loads(calib):
    c = Circuit(1, [op("RY", 0, SlotRef(0)), op("MEASURE", ())])
    k = compile_partial(_schedule(c, calib), shots=10, n_qubits=1)
    with pytest.raises(SlotArityError):
        execute(k, launch=Params((0.1, 0.2)))
    with pytest.raises(VmError, match="^partial kernel requires a host endpoint$"):
        execute(k, launch=Params((0.1,)))


@pytest.mark.parametrize("rho", [-0.01, 1.0 + 1e-12, float("nan"), float("inf")])
def test_depolarizing_outside_a_probability_raises(rho):
    k = KernelBinary(1, (Instr(Opcode.PREP, (1.0,)), Instr(Opcode.HALT, ())))
    with pytest.raises(ValueError, match="^depolarizing must be a probability in"):
        execute(k, depolarizing=rho)
    assert execute(k, depolarizing=1.0).n_iterations == 1


def test_select_without_circuit_raises():
    # a top-level SELECT replays its circuit once
    k = KernelBinary(
        1,
        (Instr(Opcode.SELECT, (0,)), Instr(Opcode.HALT, ()), Instr(Opcode.PREP, (1.0,))),
        blocks=((2, 1),),
    )
    with pytest.raises(UninitializedSlot, match="^iteration 0: kernel selects gate blocks, launch gives none$"):
        execute(k)
    assert execute(k, launch=CircuitBlock((0, 0))).busy_us == 2.0


def test_qubit_limit_enforced_and_stub_mode_allows(calib):
    instrs = (
        Instr(Opcode.PREP, (100.0,)),
        Instr(Opcode.DETECT, (255, 200.0)),
        Instr(Opcode.HALT, ()),
    )
    k = KernelBinary(14, instrs)
    with pytest.raises(TooManyQubits):
        execute(k)
    trace = execute(k, cost_only=True)
    assert trace.results[0].counts[0] == {0: 1}
    assert trace.busy_us == pytest.approx(300.0)


def test_cost_only_preserves_clock(calib):
    c = Circuit(1, [op("RY", 0, math.pi / 2), op("MEASURE", ())])
    k = bake(compile_partial(_schedule(c, calib), shots=300, n_qubits=1), [])
    full = execute(k, run_seed=1)
    stub = execute(k, run_seed=1, cost_only=True)
    assert full.n_iterations == stub.n_iterations == 1
    assert sum(full.results[0].counts[0].values()) == 300
    assert stub.busy_us == full.busy_us
    assert stub.results[0].counts[0] == {0: 300}


def test_wrong_reply_type_raises_protocol_error(calib):
    c = Circuit(1, [op("RY", 0, SlotRef(0)), op("MEASURE", ())])
    k = compile_partial(_schedule(c, calib), shots=10, n_qubits=1)

    with pytest.raises(ProtocolError):
        _stream(k, lambda r: CircuitBlock((0,)), launch=Params((0.5,)))


@pytest.mark.parametrize("transport", ["memory", "socket"])
def test_a_results_reply_fails_where_the_kernel_loads_it(calib, transport):
    c = Circuit(1, [op("RY", 0, SlotRef(0)), op("MEASURE", ())])
    k = compile_partial(_schedule(c, calib), shots=10, n_qubits=1)
    echo = objective_worker(lambda r: r)  # replies with the Results it was sent
    with pytest.raises(ProtocolError, match="^iteration 1: kernel fetches Params, got Results$"):
        run_within(
            10,
            lambda: run_session(
                lambda handle, _: execute(k, endpoint=handle, launch=Params((0.5,))),
                echo,
                transport=transport,
            ),
        )


@pytest.mark.parametrize("transport", ["memory", "socket"])
def test_a_host_that_never_fetches_leaves_a_pool_kernel_without_a_launch(calib, transport):
    pool = clifford_pool(calib, 10)
    with pytest.raises(UninitializedSlot, match="^iteration 0: kernel selects gate blocks, launch gives none$"):
        run_within(
            10,
            lambda: run_session(
                lambda handle, launch: execute(pool, endpoint=handle, launch=launch),
                lambda fetch: None,
                transport=transport,
            ),
        )


def test_a_streamed_run_leaves_its_results_with_the_host(calib):
    c = Circuit(1, [op("RY", 0, SlotRef(0)), op("MEASURE", ())])
    k = compile_partial(_schedule(c, calib), shots=10, n_qubits=1)
    received = []

    def host(fetch) -> None:
        for x in (0.1, 0.2, 0.3):
            received.append(fetch(Params((x,))))

    trace = run_within(
        10,
        lambda: run_session(
            lambda handle, launch: execute(k, endpoint=handle, launch=launch), host
        ),
    )
    assert trace.results == []
    assert trace.n_iterations == len(received) == 3
    assert [r.iteration for r in received] == [0, 1, 2]
