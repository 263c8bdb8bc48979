"""Host-kernel boundary: framed binary messages and the streamed-run session.

Wire format: every frame is a u32 little-endian length (counting the tag byte),
a u8 type tag, then the payload.  Reals are 8-byte little-endian IEEE-754;
counts and indices are u32 little-endian.  SENTINEL is the five bytes
``01 00 00 00 02``.

``run_session`` is the one way to run a streamed kernel.  It connects the
kernel's handle to the host over a transport ("memory": a pair of rendezvous
cells; "socket": loopback TCP, bound, connected and accepted before any thread
starts) and runs three execution contexts: the kernel on the ``kernel-vm``
thread, the worker (the optimizer) on the ``host-worker`` thread, and the
forwarding loop on the calling thread.  The loop puts each kernel result into
the results buffer, takes the worker's reply (PARAMS, CIRCUIT_BLOCK, or
SENTINEL) from the parameter buffer, and relays it to the kernel.  Both buffers
are capacity-1 rendezvous cells, so the control flow is strictly alternating
and every message is delivered exactly once.

The session ends once a SENTINEL has been relayed or the kernel has ended.
The kernel's handle is closed however the kernel ends, so the loop never waits
on a silent channel, and a worker crash is relayed as a SENTINEL, so the kernel
always terminates.  Every endpoint is closed and every thread joined before
the session returns or raises; the kernel's error is raised first, then the
worker's.

The kernel never sends an explicit request frame for its synchronous fetch: the
alternation means the next host-to-kernel frame is always the response.
"""

from __future__ import annotations

import queue
import socket
import struct
import threading
import time
from dataclasses import dataclass, field
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
    "ServeReport",
    "run_session",
]

TAG_RESULTS = 0
TAG_PARAMS = 1
TAG_SENTINEL = 2
TAG_CIRCUIT_BLOCK = 3

_POLL_S = 0.05

# Largest length a socket peer may declare for one frame.  The biggest frame a
# driver sends, a 12-qubit Results with three 4096-key sections, is about 98 KB.
MAX_FRAME_BYTES = 1 << 24

# Once the first byte of a socket frame has arrived, the rest of the frame must
# arrive within this many seconds.  The wait for a first byte is unbounded: the
# peer may be computing, and a dead peer closes the stream.
FRAME_TIMEOUT_S = 10.0

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
    bitstrings).
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
    """One or more circuits, each a sequence of gate-pool indices."""

    circuits: tuple[tuple[int, ...], ...]


RpcMessage = Results | Params | Sentinel | CircuitBlock


def encode(m: RpcMessage) -> bytes:
    if isinstance(m, Results):
        parts = [struct.pack("<IBI", m.iteration, m.n_qubits, len(m.counts))]
        for section in m.counts:
            flat = [v for entry in sorted(section.items()) for v in entry]
            parts.append(struct.pack(f"<I{len(flat)}I", len(section), *flat))
        payload, tag = b"".join(parts), TAG_RESULTS
    elif isinstance(m, Params):
        payload = struct.pack("<I", len(m.values)) + struct.pack(f"<{len(m.values)}d", *m.values)
        tag = TAG_PARAMS
    elif isinstance(m, Sentinel):
        payload, tag = b"", TAG_SENTINEL
    elif isinstance(m, CircuitBlock):
        parts = [struct.pack("<I", len(m.circuits))]
        for circ in m.circuits:
            parts.append(struct.pack("<I", len(circ)) + struct.pack(f"<{len(circ)}I", *circ))
        payload, tag = b"".join(parts), TAG_CIRCUIT_BLOCK
    else:
        raise ProtocolError(f"cannot encode {type(m).__name__}")
    return struct.pack("<I", len(payload) + 1) + bytes([tag]) + payload


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
            flat = r.take(f"<{2 * n_entries}I")
            section = dict(zip(flat[0::2], flat[1::2]))
            top = max(section, default=0)
            if top >> n_qubits:
                raise ProtocolError(f"outcome key {top} out of range for {n_qubits} qubits")
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
        (n_circuits,) = r.take("<I")
        circuits = []
        for _ in range(n_circuits):
            (n,) = r.take("<I")
            circuits.append(r.take(f"<{n}I"))
        r.done()
        return CircuitBlock(tuple(circuits))
    raise ProtocolError(f"unknown message tag {tag}")


class RendezvousCell:
    """Capacity-1 blocking cell; close() unblocks every waiter with ChannelClosed."""

    def __init__(self) -> None:
        self._q: queue.Queue = queue.Queue(maxsize=1)
        self._closed = threading.Event()

    def put(self, item: RpcMessage) -> None:
        while True:
            if self._closed.is_set():
                raise ChannelClosed("cell is closed")
            try:
                self._q.put(item, timeout=_POLL_S)
                return
            except queue.Full:
                continue

    def take(self) -> RpcMessage:
        while True:
            try:
                return self._q.get(timeout=_POLL_S)
            except queue.Empty:
                if self._closed.is_set():
                    raise ChannelClosed("cell is closed") from None

    def close(self) -> None:
        self._closed.set()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()


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


def _recv_exactly(sock: socket.socket, n: int, deadline: float | None = None) -> bytes:
    """Read n bytes; with a deadline (monotonic clock), a stall raises FrameError."""
    buf = bytearray()
    while len(buf) < n:
        try:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    raise TimeoutError
                sock.settimeout(remaining)
            chunk = sock.recv(n - len(buf))
        except TimeoutError as e:
            raise FrameError(
                f"frame incomplete {FRAME_TIMEOUT_S}s after its first byte"
            ) from e
        except OSError as e:
            raise ChannelClosed(f"socket error: {e}") from e
        if not chunk:
            raise ChannelClosed("peer closed the stream")
        buf += chunk
    return bytes(buf)


class _SocketTransport:
    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._send_lock = threading.Lock()

    def send(self, m: RpcMessage) -> None:
        with self._send_lock:
            try:
                self._sock.sendall(encode(m))
            except OSError as e:
                raise ChannelClosed(f"socket error: {e}") from e

    def recv(self) -> RpcMessage:
        first = _recv_exactly(self._sock, 1)
        deadline = time.monotonic() + FRAME_TIMEOUT_S
        try:
            prefix = first + _recv_exactly(self._sock, 3, deadline)
            (length,) = struct.unpack("<I", prefix)
            if length > MAX_FRAME_BYTES:
                raise FrameError(f"declared length {length} exceeds {MAX_FRAME_BYTES}")
            payload = _recv_exactly(self._sock, length, deadline)
        finally:
            self._sock.settimeout(None)
        return decode(prefix + payload)

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
        reply = self._transport.recv()
        if not isinstance(reply, (Params, Sentinel, CircuitBlock)):
            raise ProtocolError(f"kernel received {type(reply).__name__}")
        return reply

    def close(self) -> None:
        self._transport.close()


@dataclass(slots=True)
class ServeReport:
    iterations: int = 0
    results_received: int = 0
    replies_sent: int = 0
    worker_error: BaseException | None = None


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
    kernel: Callable[[KernelHandle], T],
    worker: Callable[[RendezvousCell, RendezvousCell], None],
    *,
    transport: str = "memory",
) -> tuple[T, ServeReport]:
    """Stream one kernel run; returns the kernel's result and the loop's report.

    ``kernel(handle)`` posts results and awaits replies through the handle.
    ``worker(results_buffer, parameter_buffer)`` takes results and puts
    PARAMS, CIRCUIT_BLOCK, or SENTINEL.  Raises the kernel's error if the
    kernel failed, else the worker's.
    """
    host, handle = _transport_pair(transport)
    results_buffer, parameter_buffer = RendezvousCell(), RendezvousCell()
    report = ServeReport()
    kernel_out: dict = {}

    def kernel_main() -> None:
        try:
            kernel_out["result"] = kernel(handle)
        except BaseException as e:  # noqa: BLE001 - raised from the calling thread
            kernel_out["error"] = e
        finally:
            handle.close()

    def worker_main() -> None:
        try:
            worker(results_buffer, parameter_buffer)
        except ChannelClosed:
            pass  # session torn down under the worker; nothing to report
        except BaseException as e:  # noqa: BLE001 - must never strand the kernel
            report.worker_error = e
            try:
                parameter_buffer.put(Sentinel())
            except ChannelClosed:
                pass

    threads = [
        threading.Thread(target=kernel_main, name="kernel-vm", daemon=True),
        threading.Thread(target=worker_main, name="host-worker", daemon=True),
    ]
    for t in threads:
        t.start()
    try:
        while True:
            msg = host.recv()
            report.results_received += 1
            results_buffer.put(msg)
            reply = parameter_buffer.take()
            host.send(reply)
            report.replies_sent += 1
            if isinstance(reply, Sentinel):
                break
    except ChannelClosed:
        pass  # the kernel has ended; its result or error says how
    finally:
        results_buffer.close()
        parameter_buffer.close()
        host.close()
        for t in threads:
            t.join()
    report.iterations = report.results_received
    if "error" in kernel_out:
        raise kernel_out["error"]
    if report.worker_error is not None:
        raise report.worker_error
    return kernel_out["result"], report
