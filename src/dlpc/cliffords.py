"""The 24 single-qubit Cliffords, each realized as at most one physical pulse.

Every element factors (up to global phase) as RZ(frame) . R(beta, phi): the
pulse is applied first, then a zero-duration virtual frame rotation.  Four
elements need no pulse at all (I, Z, and the two S gates); of the rest, 16 use
a pi/2 pulse and 4 use a pi pulse.  Indices into ``_AXIS_ANGLES`` are the
canonical element ids used by sequence generators and compiled gate blocks.

Group arithmetic (compose / inverse) is done on precomputed integer tables so
long random sequences never accumulate float error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .ir import GateOp, IrError, op

__all__ = [
    "CLIFFORD_COUNT",
    "PulseFrame",
    "matrix",
    "find_index",
    "compose",
    "inverse",
    "zyz",
    "decomposition",
    "native_ops",
    "n_pulses",
]

CLIFFORD_COUNT = 24

_S3 = 1.0 / math.sqrt(3.0)

# (axis, angle) over the Bloch sphere: identity; pi about the Pauli axes;
# +-pi/2 about the Pauli axes; pi about the six face diagonals; +-2pi/3 about
# the four body diagonals.  1 + 3 + 6 + 6 + 8 = 24.
_AXIS_ANGLES: list[tuple[tuple[float, float, float], float]] = [
    ((0.0, 0.0, 1.0), 0.0),
    ((1.0, 0.0, 0.0), math.pi),
    ((0.0, 1.0, 0.0), math.pi),
    ((0.0, 0.0, 1.0), math.pi),
    ((1.0, 0.0, 0.0), math.pi / 2),
    ((1.0, 0.0, 0.0), -math.pi / 2),
    ((0.0, 1.0, 0.0), math.pi / 2),
    ((0.0, 1.0, 0.0), -math.pi / 2),
    ((0.0, 0.0, 1.0), math.pi / 2),
    ((0.0, 0.0, 1.0), -math.pi / 2),
    ((1.0, 1.0, 0.0), math.pi),
    ((1.0, -1.0, 0.0), math.pi),
    ((1.0, 0.0, 1.0), math.pi),
    ((1.0, 0.0, -1.0), math.pi),
    ((0.0, 1.0, 1.0), math.pi),
    ((0.0, 1.0, -1.0), math.pi),
    ((_S3, _S3, _S3), 2 * math.pi / 3),
    ((_S3, _S3, _S3), -2 * math.pi / 3),
    ((_S3, _S3, -_S3), 2 * math.pi / 3),
    ((_S3, _S3, -_S3), -2 * math.pi / 3),
    ((_S3, -_S3, _S3), 2 * math.pi / 3),
    ((_S3, -_S3, _S3), -2 * math.pi / 3),
    ((-_S3, _S3, _S3), 2 * math.pi / 3),
    ((-_S3, _S3, _S3), -2 * math.pi / 3),
]

_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _axis_rotation(axis: tuple[float, float, float], angle: float) -> np.ndarray:
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    gen = sum(c * p for c, p in zip(n, _PAULIS))
    return math.cos(angle / 2) * np.eye(2, dtype=complex) - 1j * math.sin(angle / 2) * gen


@cache
def _matrices() -> tuple[np.ndarray, ...]:
    return tuple(_axis_rotation(ax, ang) for ax, ang in _AXIS_ANGLES)


def matrix(i: int) -> np.ndarray:
    return _matrices()[i].copy()


def _same_up_to_phase(a: np.ndarray, b: np.ndarray) -> bool:
    return abs(abs(np.trace(a.conj().T @ b)) - 2.0) < 1e-9


def find_index(u: np.ndarray) -> int:
    for i, m in enumerate(_matrices()):
        if _same_up_to_phase(u, m):
            return i
    raise IrError("matrix is not a single-qubit Clifford")


@cache
def _compose_table() -> tuple[tuple[int, ...], ...]:
    mats = _matrices()
    return tuple(
        tuple(find_index(mats[a] @ mats[b]) for b in range(CLIFFORD_COUNT))
        for a in range(CLIFFORD_COUNT)
    )


@cache
def _inverse_table() -> tuple[int, ...]:
    table = _compose_table()
    inv = [-1] * CLIFFORD_COUNT
    for i in range(CLIFFORD_COUNT):
        for j in range(CLIFFORD_COUNT):
            if table[j][i] == 0:
                inv[i] = j
                break
    return tuple(inv)


def compose(a: int, b: int) -> int:
    """Index of the element acting as: first b, then a."""
    return _compose_table()[a][b]


def inverse(i: int) -> int:
    return _inverse_table()[i]


def zyz(u: np.ndarray) -> tuple[float, float, float]:
    """Euler angles with u ~ RZ(alpha) RY(beta) RZ(gamma), beta in [0, pi]."""
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    v = u / np.sqrt(det)
    beta = 2.0 * math.atan2(abs(v[1, 0]), abs(v[0, 0]))
    if abs(v[1, 0]) < 1e-12:
        return 2.0 * float(np.angle(v[1, 1])), 0.0, 0.0
    if abs(v[0, 0]) < 1e-12:
        return 2.0 * float(np.angle(v[1, 0])), math.pi, 0.0
    alpha = float(np.angle(v[1, 1]) + np.angle(v[1, 0]))
    gamma = float(np.angle(v[1, 1]) - np.angle(v[1, 0]))
    return alpha, beta, gamma


@dataclass(frozen=True, slots=True)
class PulseFrame:
    """One-pulse realization: apply R(beta, phi), then advance the frame."""

    beta: float  # pulse rotation angle; 0 means no pulse
    phi: float  # pulse phase, 0 when there is no pulse
    frame: float  # trailing virtual-Z angle, may be 0


def _snap(x: float) -> float:
    """Fold into [0, 2pi) and snap to the pi/4 grid when numerically on it."""
    x %= 2 * math.pi
    step = math.pi / 4
    k = round(x / step)
    if abs(x - k * step) < 1e-9:
        x = (k % 8) * step
    return x


@cache
def decomposition(i: int) -> PulseFrame:
    alpha, beta, gamma = zyz(_matrices()[i])
    if abs(beta) < 1e-12:
        return PulseFrame(0.0, 0.0, _snap(alpha + gamma))
    return PulseFrame(_snap(beta), _snap(math.pi / 2 - gamma), _snap(alpha + gamma))


@cache
def native_ops(i: int, qubit: int) -> tuple[GateOp, ...]:
    """Gate ops realizing element ``i``: at most one R, then at most one RZ, built once."""
    pf = decomposition(i)
    ops: list[GateOp] = []
    if pf.beta != 0.0:
        ops.append(op("R", qubit, pf.beta, pf.phi))
    if pf.frame != 0.0:
        ops.append(op("RZ", qubit, pf.frame))
    return tuple(ops)


def n_pulses(i: int) -> int:
    return 0 if decomposition(i).beta == 0.0 else 1
