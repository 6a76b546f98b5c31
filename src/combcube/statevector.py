"""Plain tensor-product simulator used to cross-check the comb engine.

Amplitudes are indexed exactly like blade words: bit k-1 of the array
index holds the k-th bit label, so ``amps[0b101]`` is the amplitude of
the labels (1, 0, 1).  Everything real, nothing clever.

This module deliberately re-derives gate action from 2x2 matrices
applied with stride loops over amplitude pairs.  It shares the Gate
and Circuit descriptions with :mod:`combcube.gates` but none of the
application code, so agreement between the two engines is evidence,
not tautology.
"""

from __future__ import annotations

import numpy as np

from .algebra import _INV_SQRT2, Multivector
from .gates import Gate, teleport_network

_MATRICES = {
    "X": ((0.0, 1.0), (1.0, 0.0)),
    "Z": ((1.0, 0.0), (0.0, -1.0)),
    "H": ((_INV_SQRT2, _INV_SQRT2), (_INV_SQRT2, -_INV_SQRT2)),
}


class StateVector:
    """Immutable real amplitude vector over n bits, 1 <= n <= 16."""

    __slots__ = ("_dim", "_amps")

    def __init__(self, amps, dim: int | None = None):
        arr = np.array(amps, dtype=np.float64).reshape(-1)
        if dim is None:
            n = int(arr.size).bit_length() - 1
            if arr.size != (1 << n):
                raise ValueError(f"amplitude count must be a power of two, got {arr.size}")
            dim = n
        if not isinstance(dim, int) or not 1 <= dim <= 16:
            raise ValueError(f"dimension must be in [1, 16], got {dim!r}")
        if arr.size != (1 << dim):
            raise ValueError(f"expected {1 << dim} amplitudes, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("amplitudes must be finite")
        arr.flags.writeable = False
        self._dim = int(dim)
        self._amps = arr

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def amps(self) -> np.ndarray:
        return self._amps

    @classmethod
    def basis(cls, index: int, dim: int) -> "StateVector":
        if not isinstance(dim, int) or not 1 <= dim <= 16:
            raise ValueError(f"dimension must be in [1, 16], got {dim!r}")
        if not 0 <= index < (1 << dim):
            raise ValueError(f"basis index out of range: {index}")
        arr = np.zeros(1 << dim)
        arr[index] = 1.0
        return cls(arr, dim)

    def __repr__(self) -> str:
        return f"StateVector(dim={self._dim})"


def sv_apply_gate(sv: StateVector, gate: Gate) -> StateVector:
    """Apply one gate by looping over target-bit amplitude pairs."""
    if not isinstance(sv, StateVector):
        raise TypeError("expected a StateVector")
    if not isinstance(gate, Gate):
        raise TypeError("expected a Gate")
    if not 1 <= gate.target <= sv.dim:
        raise ValueError(f"target bit {gate.target} out of range for {sv.dim} bits")
    tbit = 1 << (gate.target - 1)
    cbit = 0
    if gate.control is not None:
        if not 1 <= gate.control <= sv.dim:
            raise ValueError(f"control bit {gate.control} out of range for {sv.dim} bits")
        cbit = 1 << (gate.control - 1)
    m = _MATRICES[gate.kind[-1]]
    amps = sv.amps
    new = amps.copy()
    for i in range(amps.size):
        if i & tbit:
            continue
        if cbit and not i & cbit:
            continue
        j = i | tbit
        a0, a1 = amps[i], amps[j]
        new[i] = m[0][0] * a0 + m[0][1] * a1
        new[j] = m[1][0] * a0 + m[1][1] * a1
    return StateVector(new, sv.dim)


def sv_apply_circuit(circuit, sv: StateVector) -> StateVector:
    out = sv
    for gate in circuit:
        out = sv_apply_gate(out, gate)
    return out


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
