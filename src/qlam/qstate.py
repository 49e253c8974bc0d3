"""Pure-state simulation of the quantum memory.

States are vectors over n qubits with 1-based positions, stored in
big-endian order: qubit 1 indexes the most significant bit of the
amplitude array.  Appending a qubit places it at position n+1; measuring
removes the measured qubit and shifts higher positions down, matching the
abstract machine's relabelling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QState:
    amps: np.ndarray  # shape (2**n,), complex

    def __post_init__(self):
        arr = np.asarray(self.amps, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(self, "amps", arr)
        if arr.ndim != 1 or 2 ** self.num_qubits != arr.shape[0]:
            raise ValueError(f"state length {arr.shape} is not a power of 2")

    @property
    def num_qubits(self) -> int:
        return self.amps.shape[0].bit_length() - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


EMPTY = QState(np.ones(1, dtype=complex))


def from_bits(bits) -> QState:
    """Computational basis state |b1 b2 ... bn>."""
    n = len(bits)
    idx = 0
    for b in bits:
        idx = idx * 2 + int(b)
    amps = np.zeros(2**n, dtype=complex)
    amps[idx] = 1.0
    return QState(amps)


def append_qubit(q: QState, bit: int) -> QState:
    e = np.zeros(2, dtype=complex)
    e[int(bit)] = 1.0
    return QState(np.kron(q.amps, e))


def apply_unitary(q: QState, u: np.ndarray, positions) -> QState:
    """Apply a k-qubit unitary at the given (distinct, 1-based) positions.

    Position order matters: positions[j] is wired to the j-th tensor factor
    of ``u``.
    """
    n = q.num_qubits
    k = len(positions)
    if len(set(positions)) != k:
        raise ValueError(f"duplicate positions {positions}")
    if any(not 1 <= p <= n for p in positions):
        raise ValueError(f"positions {positions} out of range for {n} qubits")
    u = np.asarray(u, dtype=complex)
    if u.shape != (2**k, 2**k):
        raise ValueError(f"unitary shape {u.shape} does not match {k} positions")
    axes = [p - 1 for p in positions]
    tensor = q.amps.reshape((2,) * n)
    ut = u.reshape((2,) * (2 * k))
    # contract u's input axes (k..2k-1) against the selected state axes
    out = np.tensordot(ut, tensor, axes=(list(range(k, 2 * k)), axes))
    # tensordot puts u's output axes first; route them back into place
    out = np.moveaxis(out, list(range(k)), axes)
    return QState(out.reshape(-1))


@dataclass(frozen=True)
class MeasBranch:
    prob: float
    state: QState
    valid: bool  # False marks a zero-probability residue


def measure(q: QState, position: int):
    """Measure one qubit; returns the (outcome 0, outcome 1) branches.

    The measured qubit is removed from the state; qubits above it shift
    down one position.  A branch of probability 0 carries an arbitrary
    normalized state and is flagged invalid.
    """
    n = q.num_qubits
    if not 1 <= position <= n:
        raise ValueError(f"position {position} out of range for {n} qubits")
    tensor = q.amps.reshape((2,) * n)
    branches = []
    for outcome in (0, 1):
        sub = np.take(tensor, outcome, axis=position - 1).reshape(-1)
        p = float(np.vdot(sub, sub).real)
        if p > 0.0:
            branches.append(MeasBranch(p, QState(sub / np.sqrt(p)), True))
        else:
            dead = np.zeros(2 ** (n - 1), dtype=complex)
            dead[0] = 1.0
            branches.append(MeasBranch(0.0, QState(dead), False))
    return tuple(branches)
