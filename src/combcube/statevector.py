"""Plain tensor-product simulator used to cross-check the comb engine.

Amplitudes are indexed exactly like blade words: bit k-1 of the array
index holds the k-th bit label, so ``amps[0b101]`` is the amplitude of
the labels (1, 0, 1).  Everything real, nothing clever.

This module deliberately re-derives gate action from 2x2 matrices
applied to strided pair views of the amplitudes: the target bit becomes
an axis of length 2 whose two slots hold each pair (a0, a1), and a
control bit becomes another such axis fixed at 1.  It shares the Gate
and Circuit descriptions with :mod:`combcube.gates` but none of the
application code, so agreement between the two engines is evidence,
not tautology.
"""

from __future__ import annotations

import numpy as np

from .algebra import _INV_SQRT2, Multivector, _all_finite, _is_int
from .gates import Gate, teleport_network

_MATRICES = {
    "X": ((0.0, 1.0), (1.0, 0.0)),
    "Z": ((1.0, 0.0), (0.0, -1.0)),
    "H": ((_INV_SQRT2, _INV_SQRT2), (_INV_SQRT2, -_INV_SQRT2)),
}


def _check_dim(dim) -> int:
    if not _is_int(dim) or not 1 <= dim <= 16:
        raise ValueError(f"dimension must be in [1, 16], got {dim!r}")
    return int(dim)


class StateVector:
    """Immutable real amplitude vector over n bits, 1 <= n <= 16."""

    __slots__ = ("_dim", "_amps")

    def __init__(self, amps, dim: int | None = None):
        arr = np.array(amps, dtype=np.float64)
        if arr.ndim != 1:  # a copy, so no writeable base is left under it
            arr = arr.flatten()
        if dim is None:
            if arr.size == 0 or arr.size & (arr.size - 1):
                raise ValueError(f"amplitude count must be a power of two, got {arr.size}")
            dim = arr.size.bit_length() - 1
        dim = _check_dim(dim)
        if arr.size != (1 << dim):
            raise ValueError(f"expected {1 << dim} amplitudes, got {arr.size}")
        if not _all_finite(arr):
            raise ValueError("amplitudes must be finite")
        arr.setflags(write=False)
        self._dim = dim
        self._amps = arr

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def amps(self) -> np.ndarray:
        return self._amps

    @classmethod
    def basis(cls, index: int, dim: int) -> "StateVector":
        dim = _check_dim(dim)
        if not _is_int(index):
            raise ValueError(f"basis index must be an integer, got {index!r}")
        if not 0 <= index < (1 << dim):
            raise ValueError(f"basis index out of range: {index}")
        arr = np.zeros(1 << dim)
        arr[index] = 1.0
        return cls(arr, dim)

    def __repr__(self) -> str:
        return f"StateVector(dim={self._dim})"


def _pair_views(amps: np.ndarray, gate: Gate) -> tuple[np.ndarray, np.ndarray]:
    """Views (a0, a1) of the amplitude pairs ``gate`` mixes.

    a0 holds the amplitudes with the target bit 0, a1 their partners
    with it set; for a controlled gate, only those with the control bit
    set.  Writing to a view writes to ``amps``.
    """
    t = gate.target - 1
    if gate.control is None:
        v = amps.reshape(-1, 2, 1 << t)
        return v[:, 0], v[:, 1]
    c = gate.control - 1
    lo, hi = min(t, c), max(t, c)
    v = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    if t == hi:
        return v[:, 0, :, 1], v[:, 1, :, 1]
    return v[:, 1, :, 0], v[:, 1, :, 1]


def _apply(gates, sv: StateVector) -> StateVector:
    """Check every gate against ``sv``, then apply them first to last."""
    if not isinstance(sv, StateVector):
        raise TypeError("expected a StateVector")
    for gate in gates:
        if not isinstance(gate, Gate):
            raise TypeError("expected a Gate")
        if not 1 <= gate.target <= sv.dim:
            raise ValueError(f"target bit {gate.target} out of range for {sv.dim} bits")
        if gate.control is not None and not 1 <= gate.control <= sv.dim:
            raise ValueError(f"control bit {gate.control} out of range for {sv.dim} bits")
    amps = sv.amps.copy()
    for gate in gates:
        (m00, m01), (m10, m11) = _MATRICES[gate.kind[-1]]
        a0, a1 = _pair_views(amps, gate)
        n0 = m00 * a0 + m01 * a1  # taken before a1 is overwritten
        a1[...] = m10 * a0 + m11 * a1
        a0[...] = n0
    return StateVector(amps, sv.dim)


def sv_apply_gate(sv: StateVector, gate: Gate) -> StateVector:
    """Apply one gate to the target-bit amplitude pairs."""
    return _apply((gate,), sv)


def sv_apply_circuit(circuit, sv: StateVector) -> StateVector:
    """Apply the gates first to last; every gate is checked before any runs."""
    return _apply(tuple(circuit), sv)


def sv_teleport(alpha: float, beta: float) -> StateVector:
    """Reference teleportation: same network, tensor-product arithmetic.

    The start state is (alpha, beta) on bit 1 tensored with the
    two-bit entangled pair on bits 2 and 3; the result parks the
    payload on bit 3, amplitudes (alpha, beta) at indices 0 and 0b100.
    """
    amps = np.zeros(8)
    amps[0b000] = float(alpha) * _INV_SQRT2
    amps[0b001] = float(beta) * _INV_SQRT2
    amps[0b110] = float(alpha) * _INV_SQRT2
    amps[0b111] = float(beta) * _INV_SQRT2
    return sv_apply_circuit(teleport_network(), StateVector(amps, 3))


def equivalence_check(
    mv: Multivector, sv: StateVector, tol: float = 1e-12
) -> tuple[bool, float]:
    """Compare comb coefficients against amplitudes index by index.

    Returns (ok, max_abs_deviation).  The two containers use the same
    index convention, so this is a straight elementwise comparison.
    """
    if not isinstance(mv, Multivector) or not isinstance(sv, StateVector):
        raise TypeError("expected (Multivector, StateVector)")
    if mv.dim != sv.dim:
        raise ValueError(f"dimension mismatch: {mv.dim} vs {sv.dim}")
    deviation = float(np.max(np.abs(mv.coeffs - sv.amps)))
    return deviation <= tol, deviation
