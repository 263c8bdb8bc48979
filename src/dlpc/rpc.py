"""Host-kernel boundary: framed binary messages and the streamed-run session.

Wire format: every frame is a u32 little-endian length (counting the tag byte),
a u8 type tag, then the payload.  Reals are 8-byte little-endian IEEE-754;
counts and indices are u32 little-endian.  SENTINEL is the five bytes
``01 00 00 00 02``.  A RESULTS frame is a u32 iteration, a u8 qubit count and a
u32 section count; each section is a u32 entry count, then one u32 run of
interleaved (key, count) pairs, keys ascending, little-endian on every host.
A CIRCUIT_BLOCK carries one circuit, the next iteration's: a u32 count, then
that many u32 gate-pool indices.

``run_session`` is the one way to run a streamed kernel.  A driver writes its
host loop once, as ``host(fetch)``: ``fetch(directive)`` returns the next
iteration's Results.  The first fetch launches the kernel with its directive
(a host that returns without one launches it with ``None``); every later fetch
sends its directive first (PARAMS or CIRCUIT_BLOCK).  When ``host`` returns,
the session sends SENTINEL.  ``drivers.accounting.run_loop`` is its one
caller, and runs the baseline's ``fetch`` too.

The session connects the kernel's handle to the host over a transport
("memory": a pair of rendezvous cells; "socket": loopback TCP, bound,
connected and accepted before any thread starts) and runs three execution
contexts: the kernel on the ``kernel-vm`` thread, which the first fetch
starts, the host loop on the ``host-worker`` thread, and the forwarding loop
on the calling thread.  The loop puts each result into the results buffer,
takes the host's reply (PARAMS, CIRCUIT_BLOCK, or SENTINEL) from the parameter
buffer, and relays it to the kernel.  Both buffers are capacity-1 rendezvous
cells, so the control flow is strictly alternating and every message is
delivered exactly once.  Every wait is one untimed blocking system call that
CPython makes without the interpreter lock: a cell waits in ``os.read`` on a
pipe and is woken by ``os.write``, and a socket end waits in one ``recv`` per
frame.

The session ends once a SENTINEL has been relayed or the kernel has ended.
The kernel's handle is closed however the kernel ends, or by the session if
the host raises before its first fetch and so launches nothing, so the loop
never waits on a silent channel; a later host crash ends in a SENTINEL, so the
kernel always terminates.  Every endpoint is closed and every started thread
joined before the session returns or raises.  It returns only the kernel's
result (the VM's ``ExecutionTrace`` counts the iterations); the kernel's error
is raised first, then the host's.

The kernel never sends an explicit request frame for its synchronous fetch: the
alternation means the next host-to-kernel frame is always the response.
"""

from __future__ import annotations

import os
import socket
import struct
import sys
import threading
import time
import weakref
from array import array
from dataclasses import dataclass
from typing import Callable, Protocol, TypeVar

__all__ = [
    "TAG_RESULTS",
    "TAG_PARAMS",
    "TAG_SENTINEL",
    "TAG_CIRCUIT_BLOCK",
    "MAX_FRAME_BYTES",
    "FRAME_TIMEOUT_S",
    "RpcError",
    "FrameError",
    "ProtocolError",
    "ChannelClosed",
    "Results",
    "Params",
    "Sentinel",
    "CircuitBlock",
    "RpcMessage",
    "encode",
    "decode",
    "bits_to_key",
    "key_to_bits",
    "RendezvousCell",
    "KernelHandle",
    "run_session",
]

TAG_RESULTS = 0
TAG_PARAMS = 1
TAG_SENTINEL = 2
TAG_CIRCUIT_BLOCK = 3

_BIG_ENDIAN = sys.byteorder == "big"  # a big-endian host swaps each u32 run for the wire
assert array("I").itemsize == 4, "a results section is one run of u32 words"

# Largest length a socket peer may declare for one frame.  The biggest frame a
# driver sends, a 12-qubit Results with three 4096-key sections, is about 98 KB.
MAX_FRAME_BYTES = 1 << 24

# Once the first byte of a socket frame has arrived, the rest of the frame must
# arrive within this many seconds.  The wait for a first byte is unbounded: the
# peer may be computing, and a dead peer closes the stream.
FRAME_TIMEOUT_S = 10.0

_CLOSING = b"\1"  # a closed cell's byte in both of its pipes
_RECV_BYTES = 1 << 13  # a socket read's least size; a stream-wide Results frame is 3.6 KB
_KEY_BYTE = (3, 2, 1, 0) if _BIG_ENDIAN else (0, 1, 2, 3)  # where a u32's byte b lies, b = 0 lowest
_BELOW = [bytes(range(1 << bits)) for bits in range(8)]  # _BELOW[b]: the byte values under 2**b

T = TypeVar("T")


class RpcError(Exception):
    """Protocol-level failure."""


class FrameError(RpcError):
    """Truncated or length-inconsistent frame."""


class ProtocolError(RpcError):
    """Structurally valid frame with an unknown tag or malformed payload."""


class ChannelClosed(RpcError):
    """Operation on a closed buffer or transport."""


def bits_to_key(bits: str) -> int:
    """Bitstring to integer; character q is qubit q, the q-th bit of the key."""
    key = 0
    for q, c in enumerate(bits):
        if c == "1":
            key |= 1 << q
    return key


def key_to_bits(key: int, n_qubits: int) -> str:
    return "".join("1" if (key >> q) & 1 else "0" for q in range(n_qubits))


@dataclass(frozen=True, slots=True)
class Results:
    """Outcome counts for one kernel iteration, one section per measured basis.

    Each section maps an outcome key to its count; bit q of the key is qubit
    q's readout (``bits_to_key`` and ``key_to_bits`` convert to and from
    bitstrings).  On the wire a section is one u32 run of (key, count) pairs,
    keys ascending, little-endian on every host.
    """

    iteration: int
    n_qubits: int
    counts: tuple[dict[int, int], ...]


@dataclass(frozen=True, slots=True)
class Params:
    values: tuple[float, ...]


@dataclass(frozen=True, slots=True)
class Sentinel:
    pass


@dataclass(frozen=True, slots=True)
class CircuitBlock:
    """One circuit for a gate-pool kernel: the pool indices SELECT replays, in order.

    An empty circuit is the identity sequence.
    """

    circuit: tuple[int, ...]


RpcMessage = Results | Params | Sentinel | CircuitBlock


def encode(m: RpcMessage) -> bytes:
    """One frame; a field its wire format cannot hold raises ``ProtocolError``."""
    try:
        if isinstance(m, Results):
            parts = [struct.pack("<IBI", m.iteration, m.n_qubits, len(m.counts))]
            for section in m.counts:
                keys = sorted(section)
                run = array("I", bytes(8 * len(keys)))
                run[0::2], run[1::2] = array("I", keys), array("I", map(section.__getitem__, keys))
                parts += (struct.pack("<I", len(keys)), _swapped(run).tobytes())
            payload, tag = b"".join(parts), TAG_RESULTS
        elif isinstance(m, Params):
            payload = struct.pack("<I", len(m.values)) + struct.pack(f"<{len(m.values)}d", *m.values)
            tag = TAG_PARAMS
        elif isinstance(m, Sentinel):
            payload, tag = b"", TAG_SENTINEL
        elif isinstance(m, CircuitBlock):
            payload = struct.pack(f"<I{len(m.circuit)}I", len(m.circuit), *m.circuit)
            tag = TAG_CIRCUIT_BLOCK
        else:
            raise ProtocolError(f"cannot encode {type(m).__name__}")
    except (struct.error, OverflowError, TypeError) as e:
        raise ProtocolError(f"cannot encode {type(m).__name__}: {_misfit(m)}") from e
    return struct.pack("<I", len(payload) + 1) + bytes([tag]) + payload


def _misfit(m: Results | Params | CircuitBlock) -> str:
    """The first field of ``m`` that its wire format cannot hold, with its value."""
    if isinstance(m, Results):
        fields = [("iteration", "<I", m.iteration), ("n_qubits", "<B", m.n_qubits)]
        for s, section in enumerate(m.counts):
            for k, c in section.items():
                fields += [(f"counts[{s}] key", "<I", k), (f"counts[{s}][{k!r}]", "<I", c)]
    elif isinstance(m, Params):
        fields = [(f"values[{i}]", "<d", v) for i, v in enumerate(m.values)]
    else:
        fields = [(f"circuit[{i}]", "<I", v) for i, v in enumerate(m.circuit)]
    for name, fmt, value in fields:
        try:
            struct.pack(fmt, value)
        except struct.error:
            return f"{name} = {value!r}"
    return "a field out of range"


def _swapped(run: array) -> array:
    """``run`` turned in place between host order and the wire's little-endian order."""
    return run.byteswap() or run if _BIG_ENDIAN else run


class _Reader:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, fmt: str) -> tuple:
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.data):
            raise FrameError("truncated frame payload")
        out = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += size
        return out

    def done(self) -> None:
        if self.pos != len(self.data):
            raise FrameError(f"{len(self.data) - self.pos} trailing bytes in frame")


def decode(frame: bytes) -> RpcMessage:
    """Inverse of encode; expects one complete frame including the length prefix."""
    if len(frame) < 5:
        raise FrameError(f"frame too short: {len(frame)} bytes")
    (length,) = struct.unpack_from("<I", frame, 0)
    if length != len(frame) - 4:
        raise FrameError(f"declared length {length} != actual {len(frame) - 4}")
    tag = frame[4]
    r = _Reader(frame[5:])
    if tag == TAG_RESULTS:
        iteration, n_qubits, n_sections = r.take("<IBI")
        sections = []
        for _ in range(n_sections):
            (n_entries,) = r.take("<I")
            (raw,) = r.take(f"<{8 * n_entries}s")
            run = _swapped(array("I", raw))
            words = run.tobytes()  # byte b of entry i's key is words[8 * i + _KEY_BYTE[b]]
            if any(words[_KEY_BYTE[b]::8].translate(None, _BELOW[max(n_qubits - 8 * b, 0)])
                   for b in range(n_qubits // 8, 4)):  # a key bit at or above n_qubits is set
                raise ProtocolError(f"outcome key {max(run[0::2])} out of range for {n_qubits} qubits")
            it = iter(run)
            section = dict(zip(it, it))
            if len(section) != n_entries:
                raise ProtocolError("duplicate outcome key in a results section")
            sections.append(section)
        r.done()
        return Results(iteration, n_qubits, tuple(sections))
    if tag == TAG_PARAMS:
        (count,) = r.take("<I")
        values = r.take(f"<{count}d")
        r.done()
        return Params(values)
    if tag == TAG_SENTINEL:
        r.done()
        return Sentinel()
    if tag == TAG_CIRCUIT_BLOCK:
        (n,) = r.take("<I")
        circuit = r.take(f"<{n}I")
        r.done()
        return CircuitBlock(circuit)
    raise ProtocolError(f"unknown message tag {tag}")


class RendezvousCell:
    """Capacity-1 blocking cell; close() unblocks every waiter with ChannelClosed.

    Two pipes carry the hand-off: ``_ready`` holds a byte while the cell is
    full, ``_space`` one while it is empty.  A wait is one untimed ``os.read``
    and a wake one ``os.write``, both made without the interpreter lock, so
    the woken thread runs at once.  ``close`` writes ``_CLOSING`` to both
    pipes; a waiter that reads it writes it back for the next, and a take
    returns an item put before it.  The pipes close when the cell is
    collected, so never while a thread waits on them and their fd may be reused.
    """

    def __init__(self) -> None:
        self._item: RpcMessage | None = None
        self._closed = False
        self._ready, self._space = os.pipe(), os.pipe()
        os.write(self._space[1], b"\0")
        for fd in (*self._ready, *self._space):
            weakref.finalize(self, os.close, fd)

    def put(self, item: RpcMessage) -> None:
        if self._closed:
            raise ChannelClosed("cell is closed")
        self._wait(self._space)
        self._item = item
        os.write(self._ready[1], b"\0")

    def take(self) -> RpcMessage:
        self._wait(self._ready)
        item, self._item = self._item, None
        os.write(self._space[1], b"\0")
        return item

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            os.write(self._ready[1], _CLOSING)
            os.write(self._space[1], _CLOSING)

    @staticmethod
    def _wait(pipe: tuple[int, int]) -> None:
        if os.read(pipe[0], 1) == _CLOSING:
            os.write(pipe[1], _CLOSING)
            raise ChannelClosed("cell is closed")


class _Transport(Protocol):
    def send(self, m: RpcMessage) -> None: ...

    def recv(self) -> RpcMessage: ...

    def close(self) -> None: ...


class _CellTransport:
    """One direction-pair of rendezvous cells, shared by both in-process ends."""

    def __init__(self, tx: RendezvousCell, rx: RendezvousCell) -> None:
        self._tx = tx
        self._rx = rx

    def send(self, m: RpcMessage) -> None:
        self._tx.put(m)

    def recv(self) -> RpcMessage:
        return self._rx.take()

    def close(self) -> None:
        self._tx.close()
        self._rx.close()


class _SocketTransport:
    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._send_lock = threading.Lock()
        self._buf = bytearray()  # bytes received past the last frame returned

    def send(self, m: RpcMessage) -> None:
        with self._send_lock:
            try:
                self._sock.sendall(encode(m))
            except OSError as e:
                raise ChannelClosed(f"socket error: {e}") from e

    def recv(self) -> RpcMessage:
        """The next frame: one ``recv`` when it arrives whole, with a deadline once it is split."""
        buf, deadline, end = self._buf, None, 4
        try:
            while True:
                if len(buf) >= 4:
                    end = 4 + int.from_bytes(buf[:4], "little")
                    if end - 4 > MAX_FRAME_BYTES:
                        raise FrameError(f"declared length {end - 4} exceeds {MAX_FRAME_BYTES}")
                    if len(buf) >= end:
                        frame = bytes(buf[:end])
                        del buf[:end]
                        return decode(frame)
                if buf:  # a split frame: the rest is due FRAME_TIMEOUT_S after its first byte
                    deadline = deadline or time.monotonic() + FRAME_TIMEOUT_S
                    if (remaining := deadline - time.monotonic()) <= 0.0:
                        raise TimeoutError
                    self._sock.settimeout(remaining)
                chunk = self._sock.recv(max(end - len(buf), _RECV_BYTES))
                if not chunk:
                    raise ChannelClosed("peer closed the stream")
                buf += chunk
        except TimeoutError as e:
            raise FrameError(f"frame incomplete {FRAME_TIMEOUT_S}s after its first byte") from e
        except OSError as e:
            raise ChannelClosed(f"socket error: {e}") from e
        finally:
            if deadline is not None:
                self._sock.settimeout(None)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class KernelHandle:
    """The VM's side of the channel: post results, await the next directive."""

    def __init__(self, transport: _Transport) -> None:
        self._transport = transport

    def post_results(self, m: Results) -> None:
        self._transport.send(m)

    def await_reply(self) -> RpcMessage:
        return self._transport.recv()

    def close(self) -> None:
        self._transport.close()


def _transport_pair(transport: str) -> tuple[_Transport, KernelHandle]:
    """The host's transport and the kernel's handle, already connected."""
    if transport == "memory":
        kernel_to_host, host_to_kernel = RendezvousCell(), RendezvousCell()
        return (
            _CellTransport(host_to_kernel, kernel_to_host),
            KernelHandle(_CellTransport(kernel_to_host, host_to_kernel)),
        )
    if transport == "socket":
        with socket.create_server(("127.0.0.1", 0)) as listener:
            kernel_sock = socket.create_connection(listener.getsockname())
            host_sock, _ = listener.accept()
        return _SocketTransport(host_sock), KernelHandle(_SocketTransport(kernel_sock))
    raise ValueError(f"transport must be 'memory' or 'socket', got {transport!r}")


def run_session(
    kernel: Callable[[KernelHandle, Params | CircuitBlock | None], T],
    host: Callable[[Callable[[Params | CircuitBlock], Results]], None],
    *,
    transport: str = "memory",
) -> T:
    """Stream one kernel run; returns what ``kernel`` returned.

    The first fetch of ``host(fetch)`` launches ``kernel(handle, launch)`` with
    its directive; every later fetch sends its directive first.  Raises the
    kernel's error if the kernel failed, else the host's; a directive the
    socket cannot encode raises ``ProtocolError`` (in memory the kernel rejects it).
    """
    host_end, handle = _transport_pair(transport)
    results_buffer, parameter_buffer = RendezvousCell(), RendezvousCell()
    out: dict = {}
    launched: list[threading.Thread] = []  # the kernel-vm thread, once the host launches it

    def launch(directive: Params | CircuitBlock | None) -> None:
        t = threading.Thread(target=kernel_main, args=(directive,), name="kernel-vm", daemon=True)
        t.start()
        launched.append(t)

    def fetch(directive: Params | CircuitBlock) -> Results:
        if launched:
            parameter_buffer.put(directive)
        else:
            launch(directive)
        return results_buffer.take()

    def kernel_main(directive: Params | CircuitBlock | None) -> None:
        try:
            out["result"] = kernel(handle, directive)
        except BaseException as e:  # noqa: BLE001 - raised from the calling thread
            out["kernel_error"] = e
        finally:
            handle.close()

    def host_main() -> None:
        try:
            host(fetch)
            if not launched:
                launch(None)
        except BaseException as e:  # noqa: BLE001 - must never strand the kernel
            if not (launched and isinstance(e, ChannelClosed)):  # not a session torn down under it
                out["host_error"] = e
        finally:
            if not launched:
                handle.close()  # no kernel runs to close it, so the forwarding loop ends
        try:
            parameter_buffer.put(Sentinel())
        except ChannelClosed:
            pass

    host_worker = threading.Thread(target=host_main, name="host-worker", daemon=True)
    host_worker.start()
    try:
        while True:
            results_buffer.put(host_end.recv())
            reply = parameter_buffer.take()
            host_end.send(reply)
            if isinstance(reply, Sentinel):
                break
    except ChannelClosed:
        pass  # the kernel has ended, or none was launched; its result or an error says how
    finally:
        results_buffer.close()
        parameter_buffer.close()
        host_end.close()
        host_worker.join()  # only the host starts the kernel, so after this none can start
        for t in launched:
            t.join()
    for error in ("kernel_error", "host_error"):
        if error in out:
            raise out[error]
    return out["result"]
