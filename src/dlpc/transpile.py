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

from .ir import Circuit, GateOp, IrError, ParamValue, SlotRef, op

__all__ = [
    "MappedCircuit",
    "transpile",
]

TWO_PI = 2.0 * math.pi


@dataclass(slots=True)
class MappedCircuit:
    n_qubits: int
    native_ops: list[GateOp]

    def as_circuit(self) -> Circuit:
        return Circuit(self.n_qubits, list(self.native_ops))


def _is_wrapped(p: ParamValue) -> bool:
    """``p`` is a float literal its wrap into [0, 2pi) keeps bit for bit; -0.0 wraps to 0.0."""
    return type(p) is float and p % TWO_PI == p and math.copysign(1.0, p) > 0


def _lower_one(g: GateOp) -> list[GateOp]:
    """Lower one unitary gate; ``ir.GateOp`` admits only kinds handled here.

    A native gate whose literals are already wrapped comes back as itself.
    """
    if g.kind in ("R", "RZ", "XX"):
        if g.basis == "Z" and all(map(_is_wrapped, g.params)):
            return [g]
        wrapped = (p if isinstance(p, SlotRef) else p % TWO_PI for p in g.params)
        return [GateOp(g.kind, g.qubits, tuple(wrapped))]
    if g.kind == "RX":
        return _lower_one(GateOp("R", g.qubits, (g.params[0], 0.0)))
    if g.kind == "RY":
        return _lower_one(GateOp("R", g.qubits, (g.params[0], math.pi / 2)))
    c, t = g.qubits  # CNOT
    return [
        op("R", c, math.pi / 2, 3 * math.pi / 2),
        op("XX", (c, t), math.pi / 4),
        op("R", c, math.pi / 2, math.pi / 2),
        op("R", t, math.pi / 2, 0.0),
        op("RZ", c, math.pi / 2),
    ]


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
    lowered: dict[int, list[GateOp]] = {}  # id(op) -> its lowering, shared by every repeat
    for g in c.ops:
        ops = lowered.get(id(g))
        if ops is None:
            measure = g.kind == "MEASURE"
            ops = lowered[id(g)] = _lower_measure(g, c.n_qubits) if measure else _lower_one(g)
        native.extend(ops)
    return MappedCircuit(n_qubits=c.n_qubits, native_ops=native)
