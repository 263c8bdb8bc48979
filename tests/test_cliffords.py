import math

import numpy as np
import pytest

from dlpc import cliffords as cl
from dlpc.ir import Circuit, IrError, op, unitary


def overlap(a: np.ndarray, b: np.ndarray) -> float:
    return abs(np.trace(a.conj().T @ b))


def test_table_is_a_group_of_24():
    mats = [cl.matrix(i) for i in range(cl.CLIFFORD_COUNT)]
    for i in range(24):
        for j in range(i + 1, 24):
            assert overlap(mats[i], mats[j]) < 2 - 1e-6, (i, j)
    # closure: every pairwise product is again in the table
    for a in range(24):
        for b in range(24):
            k = cl.compose(a, b)
            assert overlap(mats[a] @ mats[b], mats[k]) > 2 - 1e-9
    assert all(cl.compose(0, i) == i == cl.compose(i, 0) for i in range(24))
    assert all(cl.compose(cl.inverse(i), i) == 0 for i in range(24))


def test_native_ops_reconstruct_every_element():
    for i in range(24):
        ops = cl.native_ops(i, 0)
        u = unitary(Circuit(1, ops)) if ops else np.eye(2, dtype=complex)
        assert overlap(u, cl.matrix(i)) > 2 - 1e-9, i


def test_native_ops_are_built_once_and_equal_a_fresh_build():
    for qubit in range(3):
        for i in range(24):
            pf = cl.decomposition(i)
            fresh = [op("R", qubit, pf.beta, pf.phi)] if pf.beta != 0.0 else []
            fresh += [op("RZ", qubit, pf.frame)] if pf.frame != 0.0 else []
            ops = cl.native_ops(i, qubit)
            assert list(ops) == fresh, (i, qubit)
            assert cl.native_ops(i, qubit) is ops
    ops = cl.native_ops(4, 0)
    before = list(ops)
    with pytest.raises(AttributeError):
        ops.append(op("RZ", 0, 1.0))  # type: ignore[attr-defined]
    with pytest.raises(TypeError):
        ops[0] = op("RZ", 0, 1.0)  # type: ignore[index]
    assert list(cl.native_ops(4, 0)) == before


def test_pulse_census():
    betas = [cl.decomposition(i).beta for i in range(24)]
    assert sum(1 for b in betas if b == 0.0) == 4
    assert sum(1 for b in betas if abs(b - math.pi / 2) < 1e-12) == 16
    assert sum(1 for b in betas if abs(b - math.pi) < 1e-12) == 4
    assert sum(cl.n_pulses(i) for i in range(24)) == 20


def test_frame_only_elements_are_the_z_subgroup():
    frame_only = [i for i in range(24) if cl.n_pulses(i) == 0]
    z = np.diag([1, -1]).astype(complex)
    s = np.diag([1, 1j]).astype(complex)
    found = {cl.find_index(m) for m in (np.eye(2, dtype=complex), z, s, s.conj().T)}
    assert set(frame_only) == found


def test_group_arithmetic_tracks_matrix_products():
    rng = np.random.default_rng(11)
    for _ in range(50):
        seq = rng.integers(24, size=int(rng.integers(1, 40)))
        acc_idx = 0
        acc_mat = np.eye(2, dtype=complex)
        for s in seq:
            acc_idx = cl.compose(int(s), acc_idx)
            acc_mat = cl.matrix(int(s)) @ acc_mat
        assert overlap(acc_mat, cl.matrix(acc_idx)) > 2 - 1e-7
        inv = cl.inverse(acc_idx)
        assert cl.compose(inv, acc_idx) == 0


def test_zyz_reconstructs_random_unitaries():
    rng = np.random.default_rng(5)
    for _ in range(200):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        alpha, beta, gamma = cl.zyz(q)
        rz = lambda t: np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)])
        ry = np.array(
            [[math.cos(beta / 2), -math.sin(beta / 2)], [math.sin(beta / 2), math.cos(beta / 2)]],
            dtype=complex,
        )
        assert overlap(rz(alpha) @ ry @ rz(gamma), q) > 2 - 1e-9
        assert 0.0 <= beta <= math.pi + 1e-12


def test_find_index_rejects_non_clifford():
    with pytest.raises(IrError):
        cl.find_index(np.array([[math.cos(0.2), -math.sin(0.2)], [math.sin(0.2), math.cos(0.2)]], dtype=complex))
