"""Lowering to the device gate set: R(theta, phi), virtual RZ, and XX(chi).

The device is all-to-all (trapped-ion style), so no qubit mapping is needed.

Decompositions (application order, all exact up to global phase):
    RX(t)     -> R(t, 0)
    RY(t)     -> R(t, pi/2)
    CNOT(c,t) -> R(pi/2, 3pi/2)_c  XX(pi/4)  R(pi/2, pi/2)_c  R(pi/2, 0)_t  RZ(pi/2)_c
    MEASURE basis X -> R(pi/2, 3pi/2) on every qubit, then a Z readout
    MEASURE basis Y -> R(pi/2, 0) on every qubit, then a Z readout

Literal angles are wrapped into [0, 2pi); slot-valued angles pass through
untouched and are normalized at runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ir import Circuit, GateOp, IrError, Literal, ParamValue, SlotRef, op

__all__ = [
    "UnsupportedGate",
    "MappedCircuit",
    "transpile",
]

TWO_PI = 2.0 * math.pi


class UnsupportedGate(IrError):
    """Gate kind the target gate set cannot express."""


@dataclass(slots=True)
class MappedCircuit:
    n_qubits: int
    native_ops: list[GateOp]

    def as_circuit(self) -> Circuit:
        return Circuit(self.n_qubits, list(self.native_ops))


def _wrap(p: ParamValue) -> ParamValue:
    if isinstance(p, SlotRef):
        return p
    return Literal(p.value % TWO_PI)


def _lower_one(g: GateOp) -> list[GateOp]:
    if g.kind == "MEASURE":
        return [g]
    if g.kind in ("R", "RZ", "XX"):
        return [GateOp(g.kind, g.qubits, tuple(_wrap(p) for p in g.params))]
    if g.kind == "RX":
        return _lower_one(GateOp("R", g.qubits, (g.params[0], Literal(0.0))))
    if g.kind == "RY":
        return _lower_one(GateOp("R", g.qubits, (g.params[0], Literal(math.pi / 2))))
    if g.kind == "CNOT":
        c, t = g.qubits
        return [
            op("R", c, math.pi / 2, 3 * math.pi / 2),
            op("XX", (c, t), math.pi / 4),
            op("R", c, math.pi / 2, math.pi / 2),
            op("R", t, math.pi / 2, 0.0),
            op("RZ", c, math.pi / 2),
        ]
    raise UnsupportedGate(f"no lowering rule for {g.kind!r}")


_BASIS_ROTATION = {"X": (math.pi / 2, 3 * math.pi / 2), "Y": (math.pi / 2, 0.0)}


def _lower_measure(g: GateOp, n_qubits: int) -> list[GateOp]:
    if g.basis == "Z":
        return [g]
    theta, phi = _BASIS_ROTATION[g.basis]
    rotated = [op("R", q, theta, phi) for q in range(n_qubits)]
    return rotated + [GateOp("MEASURE", ())]


def transpile(c: Circuit) -> MappedCircuit:
    """Lower ``c`` to native ops; the all-to-all device needs no qubit mapping.

    Slots are preserved, never folded into literals.  Deterministic: the same
    circuit always produces the same op sequence.
    """
    if c.n_qubits > 255:
        raise IrError(f"register of {c.n_qubits} qubits exceeds the u8 encoding")
    native: list[GateOp] = []
    for g in c.ops:
        if g.kind == "MEASURE":
            native.extend(_lower_measure(g, c.n_qubits))
        else:
            native.extend(_lower_one(g))
    return MappedCircuit(n_qubits=c.n_qubits, native_ops=native)
