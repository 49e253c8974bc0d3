"""State-vector backend: unitaries at positions, appending, measurement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlam.qstate as Q
import qlam.syntax as S

H = S.STANDARD_GATES["H"].as_array()
CNOT = S.STANDARD_GATES["CNOT"].as_array()


def from_bits(bits) -> Q.QState:
    """Computational basis state |b1 b2 ... bn>."""
    amps = np.zeros(2 ** len(bits), dtype=complex)
    amps[int("".join(map(str, bits)), 2)] = 1.0
    return Q.QState(amps)


def norm(q: Q.QState) -> float:
    return float(np.linalg.norm(q.amps))


def test_hadamard_on_zero():
    q = Q.apply_unitary(from_bits([0]), H, [1])
    assert np.allclose(q.amps, [2 ** -0.5, 2 ** -0.5])


def test_cnot_flips_target():
    q = Q.apply_unitary(from_bits([1, 0]), CNOT, [1, 2])
    assert np.allclose(q.amps, from_bits([1, 1]).amps)


def test_identity_gate():
    q = Q.QState(np.array([0.6, 0.8j]))
    assert np.allclose(Q.apply_unitary(q, np.eye(2), [1]).amps, q.amps)


def test_position_errors():
    q = from_bits([0, 0])
    with pytest.raises(ValueError):
        Q.apply_unitary(q, H, [3])
    with pytest.raises(ValueError):
        Q.apply_unitary(q, CNOT, [1, 1])


def test_append_qubit():
    assert np.allclose(Q.append_qubit(Q.EMPTY, 0).amps, [1, 0])
    assert np.allclose(Q.append_qubit(from_bits([0]), 1).amps,
                       from_bits([0, 1]).amps)
    plus = Q.QState(np.array([1, 1]) / np.sqrt(2))
    got = Q.append_qubit(plus, 0)
    assert np.allclose(got.amps, np.kron(plus.amps, [1, 0]))


def test_measure_single_qubit():
    a, b = 0.6, 0.8j
    (o0, p0, s0), (o1, p1, s1) = Q.measure(Q.QState(np.array([a, b])), 1)
    assert (o0, o1) == (0, 1)
    assert p0 == pytest.approx(abs(a) ** 2)
    assert p1 == pytest.approx(abs(b) ** 2)
    assert s0.num_qubits == 0 and s1.num_qubits == 0


def test_measure_definite():
    # outcome 0 is impossible, so only outcome 1 is returned
    ((outcome, p, state),) = Q.measure(from_bits([1]), 1)
    assert outcome == 1 and p == 1.0
    assert state.num_qubits == 0


def test_measure_bell_pair():
    bell = Q.QState(np.array([1, 0, 0, 1]) / np.sqrt(2))
    (_, p0, s0), (_, p1, s1) = Q.measure(bell, 1)
    assert p0 == pytest.approx(0.5) and p1 == pytest.approx(0.5)
    assert np.allclose(s0.amps, [1, 0])
    assert np.allclose(s1.amps, [0, 1])


def _dense_application(amps, u, positions, n):
    """Oracle: build the full 2^n unitary by explicit index permutation."""
    k = len(positions)
    axes = [p - 1 for p in positions]
    rest = [i for i in range(n) if i not in axes]
    perm = axes + rest
    pm = np.zeros((2 ** n, 2 ** n))
    for idx in range(2 ** n):
        bits = [(idx >> (n - 1 - i)) & 1 for i in range(n)]
        src = [bits[p] for p in perm]
        j = 0
        for bit in src:
            j = j * 2 + bit
        pm[j, idx] = 1.0
    big = pm.T @ np.kron(u, np.eye(2 ** (n - k))) @ pm
    return big @ amps


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(2, 4), st.booleans())
def test_apply_unitary_matches_dense_oracle(seed, n, use_cnot):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    amps /= np.linalg.norm(amps)
    if use_cnot:
        positions = list(rng.permutation(n)[:2] + 1)
        u = CNOT
    else:
        positions = [int(rng.integers(1, n + 1))]
        u = H
    got = Q.apply_unitary(Q.QState(amps), u, positions)
    want = _dense_application(amps, u, positions, n)
    assert np.max(np.abs(got.amps - want)) < 1e-12
    assert norm(got) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(1, 4))
def test_measure_probabilities_sum(seed, n):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    amps /= np.linalg.norm(amps)
    pos = int(rng.integers(1, n + 1))
    branches = Q.measure(Q.QState(amps), pos)
    # a Gaussian state puts mass on both outcomes
    assert [b for b, _, _ in branches] == [0, 1]
    assert sum(p for _, p, _ in branches) == pytest.approx(1.0, abs=1e-9)
    for _, p, state in branches:
        if p > 1e-12:
            assert norm(state) == pytest.approx(1.0, abs=1e-9)
