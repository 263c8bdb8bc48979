"""Wire format, rendezvous buffers, and the streamed-run session."""

from __future__ import annotations

import itertools
import socket
import struct
import threading

import pytest
from conftest import SESSION_THREADS, objective_worker, run_within
from hypothesis import given, settings
from hypothesis import strategies as st

from dlpc import rpc
from dlpc.rpc import (
    MAX_FRAME_BYTES,
    ChannelClosed,
    CircuitBlock,
    FrameError,
    Params,
    ProtocolError,
    RendezvousCell,
    Results,
    RpcError,
    Sentinel,
    _SocketTransport,
    bits_to_key,
    decode,
    encode,
    key_to_bits,
    run_session,
)


def test_sentinel_frame_bytes():
    assert encode(Sentinel()) == bytes.fromhex("01 00 00 00 02")


def test_params_frame_bytes():
    expected = bytes.fromhex("0D 00 00 00 01 01 00 00 00 00 00 00 00 00 00 F8 3F")
    assert encode(Params((1.5,))) == expected
    assert decode(expected) == Params((1.5,))


def test_results_roundtrip_with_sections():
    m = Results(7, 2, ({0: 180, 3: 120}, {1: 300}))
    assert decode(encode(m)) == m


def test_results_key_convention():
    # Character q of the bitstring is qubit q, which is bit q of the key.
    assert bits_to_key("10") == 1
    assert bits_to_key("01") == 2
    assert key_to_bits(1, 2) == "10"
    assert key_to_bits(6, 3) == "011"


def test_circuit_block_roundtrip():
    m = CircuitBlock(((0, 5, 23), (), (7,)))
    assert decode(encode(m)) == m


def test_truncated_frames_rejected():
    frame = encode(Params((1.0, 2.0)))
    for cut in range(4, len(frame)):
        with pytest.raises(FrameError):
            decode(frame[:cut])
    with pytest.raises(FrameError):
        decode(frame + b"\x00")


def test_unknown_tag_rejected():
    with pytest.raises(ProtocolError):
        decode(bytes.fromhex("01 00 00 00 09"))


_messages = st.one_of(
    st.just(Sentinel()),
    st.builds(
        Params,
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8).map(tuple),
    ),
    st.builds(
        CircuitBlock,
        st.lists(
            st.lists(st.integers(0, 2**32 - 1), max_size=6).map(tuple), max_size=4
        ).map(tuple),
    ),
    st.integers(1, 6).flatmap(
        lambda n: st.builds(
            Results,
            st.integers(0, 2**32 - 1),
            st.just(n),
            st.lists(
                st.dictionaries(
                    st.integers(0, 2**n - 1),
                    st.integers(0, 2**32 - 1),
                    max_size=4,
                ),
                max_size=3,
            ).map(tuple),
        )
    ),
)


@settings(max_examples=300)
@given(_messages)
def test_encode_decode_roundtrip(m):
    frame = encode(m)
    (declared,) = (int.from_bytes(frame[:4], "little"),)
    assert declared == len(frame) - 4
    assert decode(frame) == m


def _results_frame(n_qubits: int, section: list[tuple[int, int]]) -> bytes:
    """One Results frame with a single section of raw (key, count) entries."""
    payload = struct.pack("<IBI", 0, n_qubits, 1) + struct.pack("<I", len(section))
    payload += b"".join(struct.pack("<II", key, n) for key, n in section)
    return struct.pack("<I", len(payload) + 1) + bytes([0]) + payload


def test_results_key_out_of_range_rejected():
    # Key 5 is 101 in binary: it would truncate onto key 1 at two qubits.
    with pytest.raises(ProtocolError, match="out of range"):
        decode(_results_frame(2, [(1, 10), (5, 3)]))
    assert decode(_results_frame(2, [(1, 10), (3, 3)])).counts == ({1: 10, 3: 3},)


def test_results_duplicate_key_rejected():
    with pytest.raises(ProtocolError, match="duplicate"):
        decode(_results_frame(2, [(1, 10), (1, 3)]))


@settings(max_examples=300)
@given(_messages, st.data())
def test_malformed_frames_raise_only_rpc_errors(m, data):
    frame = bytearray(encode(m))
    if data.draw(st.booleans(), label="truncate"):
        with pytest.raises(FrameError):
            decode(bytes(frame[: data.draw(st.integers(0, len(frame) - 1), label="cut")]))
    else:
        bit = data.draw(st.integers(0, 8 * len(frame) - 1), label="bit")
        frame[bit // 8] ^= 1 << (bit % 8)
        try:
            decode(bytes(frame))
        except RpcError:
            pass  # any other exception type fails the test


def test_socket_frame_length_capped_before_payload_read():
    widest = Results(0, 12, tuple({k: 1 for k in range(4096)} for _ in range(3)))
    assert 100 * len(encode(widest)) < MAX_FRAME_BYTES
    host, kernel = socket.socketpair()
    with host, kernel:
        host.settimeout(5)  # a payload read would time out, not raise FrameError
        kernel.sendall(struct.pack("<I", MAX_FRAME_BYTES + 1))
        with pytest.raises(FrameError, match="exceeds"):
            _SocketTransport(host).recv()


@pytest.mark.parametrize("cut", ["two prefix bytes", "half the payload"])
def test_socket_frame_stalled_midway_raises_frame_error(monkeypatch, cut):
    monkeypatch.setattr(rpc, "FRAME_TIMEOUT_S", 0.2)
    frame = encode(Results(0, 2, ({0: 3, 3: 5},)))
    sent = frame[:2] if cut == "two prefix bytes" else frame[: 4 + (len(frame) - 4) // 2]
    host, kernel = socket.socketpair()
    with host, kernel:
        kernel.sendall(sent)  # and then nothing: the peer is alive but stalled
        with pytest.raises(FrameError, match="incomplete"):
            run_within(5, _SocketTransport(host).recv)


def test_socket_waits_unbounded_for_a_first_byte(monkeypatch):
    monkeypatch.setattr(rpc, "FRAME_TIMEOUT_S", 0.2)
    frame = encode(Params((0.5,)))
    host, kernel = socket.socketpair()
    with host, kernel:
        timer = threading.Timer(0.5, kernel.sendall, (frame,))
        timer.start()
        try:
            assert run_within(5, _SocketTransport(host).recv) == Params((0.5,))
        finally:
            timer.join()


def _scripted_kernel(handle, iterations: int, log: list) -> None:
    """Stand-in for the VM's RPC tail: post results, block for the reply."""
    for i in range(iterations + 1):
        handle.post_results(Results(i, 1, ({0: 1},)))
        reply = handle.await_reply()
        log.append(reply)
        if isinstance(reply, Sentinel):
            break


def _run_session(objective, transport: str = "memory"):
    log: list = []
    _, report = run_within(
        10,
        lambda: run_session(
            lambda handle: _scripted_kernel(handle, 100, log),
            objective_worker(objective),
            transport=transport,
        ),
    )
    return report, log


def test_immediate_sentinel_means_one_iteration():
    report, log = _run_session(lambda r: Sentinel())
    assert report.iterations == 1
    assert log == [Sentinel()]


def test_k_params_then_sentinel_means_k_plus_one_iterations():
    k = 5
    seen = []

    def objective(r: Results):
        seen.append(r.iteration)
        return Params((float(len(seen)),)) if len(seen) <= k else Sentinel()

    report, log = _run_session(objective)
    assert report.iterations == k + 1
    assert report.results_received == report.replies_sent == k + 1
    assert log[:-1] == [Params((float(i),)) for i in range(1, k + 1)]
    assert isinstance(log[-1], Sentinel)


def test_worker_exception_still_terminates_kernel():
    def objective(r: Results):
        raise RuntimeError("optimizer blew up")

    log: list = []
    with pytest.raises(RuntimeError, match="blew up"):
        run_within(
            10,
            lambda: run_session(
                lambda handle: _scripted_kernel(handle, 100, log), objective_worker(objective)
            ),
        )
    assert log == [Sentinel()]


def test_socket_transport_matches_in_process():
    def objective(r: Results):
        return Params((r.iteration + 0.5,)) if r.iteration < 3 else Sentinel()

    _, log_mem = _run_session(objective)
    report, log_sock = _run_session(objective, transport="socket")
    assert log_sock == log_mem
    assert report.iterations == 4


@pytest.mark.parametrize("transport", ["memory", "socket"])
def test_kernel_failing_before_first_post_ends_session(transport):
    def kernel(handle):
        raise RuntimeError("kernel failed to start")

    with pytest.raises(RuntimeError, match="failed to start"):
        run_within(
            10,
            lambda: run_session(
                kernel, objective_worker(lambda r: Sentinel()), transport=transport
            ),
        )
    assert not [t for t in threading.enumerate() if t.name in SESSION_THREADS]


def test_closed_cell_unblocks_waiters():
    cell = RendezvousCell()
    errors = []

    def blocked_take():
        try:
            cell.take()
        except ChannelClosed as e:
            errors.append(e)

    t = threading.Thread(target=blocked_take)
    t.start()
    cell.close()
    t.join(timeout=5)
    assert not t.is_alive()
    assert len(errors) == 1
    with pytest.raises(ChannelClosed):
        cell.put(Sentinel())
    cell.close()  # idempotent


def _protocol_traces(iterations: int):
    """Abstract op sequences for the three contexts at capacity one.

    Cells: 0 kernel-to-host, 1 host-to-kernel, 2 results buffer, 3 parameter
    buffer.  Exhaustively explores every interleaving of the blocking put/take
    primitives and checks that no reachable state is stuck.
    """
    kernel = [("put", 0), ("take", 1)] * iterations
    main = [("take", 0), ("put", 2), ("take", 3), ("put", 1)] * iterations
    worker = [("take", 2), ("put", 3)] * iterations
    return (kernel, main, worker)


@pytest.mark.parametrize("iterations", [1, 2, 3])
def test_rendezvous_interleavings_deadlock_free(iterations):
    procs = _protocol_traces(iterations)
    start = ((0, 0, 0), (False, False, False, False))
    seen = {start}
    frontier = [start]
    finished = False
    while frontier:
        (pcs, cells) = frontier.pop()
        if all(pc == len(p) for pc, p in zip(pcs, procs)):
            finished = True
            continue
        moves = []
        for i, (pc, prog) in enumerate(zip(pcs, procs)):
            if pc == len(prog):
                continue
            kind, cell = prog[pc]
            if (kind == "put") == (not cells[cell]):
                new_cells = list(cells)
                new_cells[cell] = kind == "put"
                new_pcs = list(pcs)
                new_pcs[i] = pc + 1
                moves.append((tuple(new_pcs), tuple(new_cells)))
        assert moves, f"deadlock at pcs={pcs} cells={cells}"
        for state in moves:
            if state not in seen:
                seen.add(state)
                frontier.append(state)
    assert finished


def test_exactly_once_accounting():
    for k in (1, 4, 9):
        calls = itertools.count(1)

        def objective(r: Results, k=k):
            return Sentinel() if next(calls) > k else Params((0.0,))

        report, log = _run_session(objective)
        assert report.results_received == report.replies_sent == len(log) == k + 1
