"""Wire format, rendezvous buffers, and the streamed-run session."""

from __future__ import annotations

import os
import socket
import struct
import sys
import threading
import time

import numpy as np
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
    # one circuit: a u32 count, then a u32 pool index each
    frame = bytes.fromhex("0D 00 00 00 03 02 00 00 00 05 00 00 00 17 00 00 00")
    assert encode(CircuitBlock((5, 23))) == frame
    assert decode(frame) == CircuitBlock((5, 23))
    assert encode(CircuitBlock(())) == bytes.fromhex("05 00 00 00 03 00 00 00 00")
    assert decode(encode(CircuitBlock(()))) == CircuitBlock(())


@pytest.mark.parametrize(
    "message, field",
    [
        (CircuitBlock((-1,)), r"CircuitBlock: circuit\[0\] = -1"),
        (CircuitBlock((3, 2**32)), r"CircuitBlock: circuit\[1\] = 4294967296"),
        (Results(0, 2, ({1: 4, -1: 3},)), r"Results: counts\[0\] key = -1"),
        (Results(0, 2, ({}, {1: -5})), r"Results: counts\[1\]\[1\] = -5"),
        (Results(-1, 2, ()), r"Results: iteration = -1"),
        (Results(0, 256, ()), r"Results: n_qubits = 256"),
        (Params((0.5, "x")), r"Params: values\[1\] = 'x'"),
        (Results(0, 2, ({1: 4, 2.0: 3},)), r"Results: counts\[0\] key = 2.0"),
        (Results(0, 2, ({2**32: 1},)), r"Results: counts\[0\] key = 4294967296"),
        (Results(0, 2, ({1: 2**32},)), r"Results: counts\[0\]\[1\] = 4294967296"),
    ],
    ids=["negative-index", "wide-index", "negative-key", "negative-count", "iteration", "n_qubits",
         "non-float", "float-key", "wide-key", "wide-count"],
)
def test_encode_names_the_field_the_wire_cannot_hold(message, field):
    with pytest.raises(ProtocolError, match=f"^cannot encode {field}$"):
        encode(message)


def test_numpy_integer_keys_encode_as_ints():
    section = {np.int64(k): np.int64(9 - k) for k in (3, 0, 2)}
    assert encode(Results(0, 2, (section,))) == encode(Results(0, 2, ({0: 9, 2: 7, 3: 6},)))


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
    st.builds(CircuitBlock, st.lists(st.integers(0, 2**32 - 1), max_size=6).map(tuple)),
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


def _results_frame(
    n_qubits: int, *sections: list[tuple[int, int]], iteration: int = 0, entry: str = "<II"
) -> bytes:
    """One Results frame of raw (key, count) entries, each packed on its own by ``entry``."""
    payload = struct.pack("<IBI", iteration, n_qubits, len(sections))
    for section in sections:
        payload += struct.pack("<I", len(section))
        payload += b"".join(struct.pack(entry, key, n) for key, n in section)
    return struct.pack("<I", len(payload) + 1) + bytes([0]) + payload


@settings(max_examples=200)
@given(
    st.integers(0, 12).flatmap(
        lambda n: st.builds(
            Results,
            st.integers(0, 2**32 - 1),
            st.just(n),
            st.lists(
                # each dict is filled in the order its keys are drawn, not sorted
                st.dictionaries(st.integers(0, 2**n - 1), st.integers(0, 2**32 - 1), max_size=40),
                max_size=4,
            ).map(tuple),
        )
    )
)
def test_results_frame_is_the_per_entry_reference(m):
    sections = [sorted(section.items()) for section in m.counts]
    frame = _results_frame(m.n_qubits, *sections, iteration=m.iteration)
    assert encode(m) == frame
    assert decode(frame) == m


def test_byte_order_flag_swaps_each_run_and_reads_it_back(monkeypatch):
    m = Results(3, 4, ({5: 7, 1: 2**32 - 2}, {}, {15: 1}))
    sections = [sorted(section.items()) for section in m.counts]
    assert encode(m) == _results_frame(4, *sections, iteration=3)
    # The flag turned over swaps each run's words, and only them: the header
    # and entry counts stay little-endian.  On a host of either byte order,
    # the runs then come out big-endian.
    monkeypatch.setattr(rpc, "_BIG_ENDIAN", not rpc._BIG_ENDIAN)
    assert encode(m) == _results_frame(4, *sections, iteration=3, entry=">II")
    assert decode(encode(m)) == m


def test_results_key_out_of_range_rejected():
    # Key 5 is 101 in binary: it would truncate onto key 1 at two qubits.
    with pytest.raises(ProtocolError, match="out of range"):
        decode(_results_frame(2, [(1, 10), (5, 3)]))
    assert decode(_results_frame(2, [(1, 10), (3, 3)])).counts == ({1: 10, 3: 3},)


@settings(max_examples=300)
@given(
    st.integers(0, 40).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(
                st.one_of(
                    st.integers(0, 2**32 - 1),
                    st.integers(0, min(2**n, 2**32) - 1),
                    # keys either side of the register's top
                    st.integers(-3, 2).map(lambda d: min(max(2**n + d, 0), 2**32 - 1)),
                ),
                max_size=12,
            ),
        )
    )
)
def test_decode_rejects_exactly_the_keys_at_or_above_two_to_the_n(case):
    n_qubits, keys = case
    frame = _results_frame(n_qubits, [(key, 1) for key in keys])
    if any(key >= 2**n_qubits for key in keys):
        message = f"^outcome key {max(keys)} out of range for {n_qubits} qubits$"
        with pytest.raises(ProtocolError, match=message):
            decode(frame)
    else:
        assert decode(frame).counts == ({key: 1 for key in keys},)


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


def test_socket_keeps_bytes_past_a_frame_for_the_next_recv():
    first, second = encode(Params((0.5,))), encode(Results(1, 2, ({3: 4},)))
    host, kernel = socket.socketpair()
    with host, kernel:
        kernel.sendall(first + second)
        end = _SocketTransport(host)
        assert run_within(5, end.recv) == Params((0.5,))
        kernel.close()  # the second frame is already in the reader's buffer
        assert run_within(5, end.recv) == Results(1, 2, ({3: 4},))
        with pytest.raises(ChannelClosed, match="peer closed"):
            run_within(5, end.recv)


def test_socket_frame_sent_one_byte_at_a_time_decodes():
    frame = encode(Results(2, 3, ({0: 1, 5: 9}, {7: 2})))
    host, kernel = socket.socketpair()

    def trickle():
        for i in range(len(frame)):
            kernel.sendall(frame[i : i + 1])
            time.sleep(0.002)

    with host, kernel:
        sender = threading.Thread(target=trickle)
        sender.start()
        try:
            assert run_within(5, _SocketTransport(host).recv) == decode(frame)
        finally:
            sender.join()


def test_socket_frame_length_capped_with_payload_in_the_same_segment():
    host, kernel = socket.socketpair()
    with host, kernel:
        host.settimeout(5)  # a payload read would time out, not raise FrameError
        kernel.sendall(struct.pack("<IB", MAX_FRAME_BYTES + 1, 0) + bytes(64))
        with pytest.raises(FrameError, match="exceeds"):
            _SocketTransport(host).recv()


def _scripted_kernel(handle, iterations: int, log: list) -> int:
    """Stand-in for the VM's RPC tail: post results, block for the reply.

    Returns the number of iterations run, one per results frame posted.
    """
    for i in range(iterations + 1):
        handle.post_results(Results(i, 1, ({0: 1},)))
        reply = handle.await_reply()
        log.append(reply)
        if isinstance(reply, Sentinel):
            break
    return i + 1


def _run_session(objective, transport: str = "memory"):
    """Run the scripted kernel against objective; its iteration count and replies."""
    log: list = []
    iterations = run_within(
        10,
        lambda: run_session(
            lambda handle, _: _scripted_kernel(handle, 100, log),
            objective_worker(objective),
            transport=transport,
        ),
    )
    return iterations, log


def test_immediate_sentinel_means_one_iteration():
    iterations, log = _run_session(lambda r: Sentinel())
    assert iterations == 1
    assert log == [Sentinel()]


def test_k_params_then_sentinel_means_k_plus_one_iterations():
    k = 5
    seen = []

    def objective(r: Results):
        seen.append(r.iteration)
        return Params((float(len(seen)),)) if len(seen) <= k else Sentinel()

    iterations, log = _run_session(objective)
    assert iterations == k + 1
    assert len(seen) == len(log) == k + 1
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
                lambda handle, _: _scripted_kernel(handle, 100, log), objective_worker(objective)
            ),
        )
    assert log == [Sentinel()]


def test_socket_transport_matches_in_process():
    def objective(r: Results):
        return Params((r.iteration + 0.5,)) if r.iteration < 3 else Sentinel()

    _, log_mem = _run_session(objective)
    iterations, log_sock = _run_session(objective, transport="socket")
    assert log_sock == log_mem
    assert iterations == 4


@pytest.mark.parametrize("transport", ["memory", "socket"])
def test_kernel_failing_before_first_post_ends_session(transport):
    def kernel(handle, launch):
        raise RuntimeError("kernel failed to start")

    with pytest.raises(RuntimeError, match="failed to start"):
        run_within(
            10,
            lambda: run_session(
                kernel, objective_worker(lambda r: Sentinel()), transport=transport
            ),
        )
    assert not [t for t in threading.enumerate() if t.name in SESSION_THREADS]


@pytest.mark.parametrize("transport", ["memory", "socket"])
def test_host_failing_before_its_first_fetch_ends_session(transport):
    def host(fetch):
        raise RuntimeError("host failed before fetching")

    log: list = []
    with pytest.raises(RuntimeError, match="before fetching"):
        run_within(
            10,
            lambda: run_session(
                lambda handle, _: _scripted_kernel(handle, 100, log), host, transport=transport
            ),
        )
    assert log == []
    assert not [t for t in threading.enumerate() if t.name in SESSION_THREADS]


@pytest.mark.parametrize("transport", ["memory", "socket"])
def test_the_first_fetch_launches_the_kernel_with_its_directive(transport):
    launches: list = []
    log: list = []

    def kernel(handle, launch):
        launches.append(launch)
        return _scripted_kernel(handle, 100, log)

    def host(fetch):
        for x in (0.1, 0.2, 0.3):
            fetch(Params((x,)))

    iterations = run_within(10, lambda: run_session(kernel, host, transport=transport))
    assert iterations == 3
    assert launches == [Params((0.1,))]
    assert log == [Params((0.2,)), Params((0.3,)), Sentinel()]  # the launch never crosses


@pytest.mark.parametrize("transport", ["memory", "socket"])
def test_a_channel_error_the_host_raises_before_its_first_fetch_is_its_own(transport):
    def host(fetch):
        raise ChannelClosed("the host's own channel")

    log: list = []
    with pytest.raises(ChannelClosed, match="^the host's own channel$"):
        run_within(
            10,
            lambda: run_session(
                lambda handle, _: _scripted_kernel(handle, 100, log), host, transport=transport
            ),
        )
    assert log == []


@pytest.mark.parametrize("transport", ["memory", "socket"])
def test_host_returning_without_a_fetch_runs_only_the_launch(transport):
    log: list = []
    iterations = run_within(
        10,
        lambda: run_session(
            lambda handle, _: _scripted_kernel(handle, 100, log),
            lambda fetch: None,
            transport=transport,
        ),
    )
    assert iterations == 1
    assert log == [Sentinel()]
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


def test_second_put_waits_until_a_take_frees_the_cell():
    cell = RendezvousCell()
    cell.put(Params((1.0,)))
    returned = threading.Event()

    def second_put():
        cell.put(Params((2.0,)))
        returned.set()

    t = threading.Thread(target=second_put)
    t.start()
    assert not returned.wait(0.3)  # the cell is still full, so the put still waits
    assert cell.take() == Params((1.0,))
    assert returned.wait(5)
    t.join(timeout=5)
    assert not t.is_alive()
    cell.close()
    assert cell.take() == Params((2.0,))  # an item put before close is still delivered
    with pytest.raises(ChannelClosed):
        cell.take()


def _blocked(call) -> tuple[threading.Thread, list]:
    """Start ``call`` on a thread; the list gets the ``ChannelClosed`` it raises."""
    errors: list = []

    def target():
        try:
            call()
        except ChannelClosed as e:
            errors.append(e)

    t = threading.Thread(target=target)
    t.start()
    return t, errors


def test_closed_cell_unblocks_a_waiting_put():
    cell = RendezvousCell()
    cell.put(Params((1.0,)))
    t, errors = _blocked(lambda: cell.put(Params((2.0,))))
    assert not errors and t.is_alive()
    cell.close()
    t.join(timeout=5)
    assert not t.is_alive() and len(errors) == 1
    assert cell.take() == Params((1.0,))
    with pytest.raises(ChannelClosed):
        cell.take()


@pytest.mark.parametrize("waiters", ["a put and a take", "two takes"])
def test_close_from_a_third_thread_wakes_every_waiter(waiters):
    full, empty = RendezvousCell(), RendezvousCell()
    full.put(Sentinel())
    calls = [lambda: full.put(Sentinel()), empty.take]
    if waiters == "two takes":
        calls = [empty.take, empty.take]
    blocked = [_blocked(call) for call in calls]
    time.sleep(0.1)  # both are waiting
    assert all(t.is_alive() for t, _ in blocked)
    closer = threading.Thread(target=lambda: (full.close(), empty.close()))
    closer.start()
    closer.join(timeout=5)
    for t, errors in blocked:
        t.join(timeout=5)
        assert not t.is_alive() and len(errors) == 1


def test_many_putters_and_takers_pass_each_item_exactly_once():
    cell, per_thread, taken = RendezvousCell(), 200, []

    def putter(p):
        for i in range(per_thread):
            cell.put(Params((float(p), float(i))))

    def taker():
        for _ in range(per_thread):
            taken.append(cell.take().values)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=taker) for _ in range(4)]
        threads += [threading.Thread(target=putter, args=(p,)) for p in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        cell.close()
    assert sorted(taken) == [(float(p), float(i)) for p in range(4) for i in range(per_thread)]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("transport, sessions", [("memory", 200), ("socket", 50)])
def test_sessions_leave_no_file_descriptor_open(transport, sessions):
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(sessions):
        _run_session(lambda r: Sentinel(), transport)
    assert len(os.listdir("/proc/self/fd")) == before


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


@pytest.mark.parametrize("transport", ["memory", "socket"])
def test_exactly_once_accounting(transport):
    """Each end counts k + 1 messages: the worker's results and the kernel's replies."""
    for k in (1, 4, 9):
        seen: list[int] = []

        def objective(r: Results, k=k):
            seen.append(r.iteration)
            return Sentinel() if len(seen) > k else Params((0.0,))

        iterations, log = _run_session(objective, transport)
        assert seen == list(range(k + 1))
        assert len(log) == iterations == k + 1
        assert log.count(Sentinel()) == 1 and isinstance(log[-1], Sentinel)
