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

from .algebra import (_INV_SQRT2, Multivector, _as_float, _check_dim, _check_int, _check_real,
                      _frozen, _quiet_float_errors, _real_vector)
from .gates import Gate, _gates_of, teleport_network

_MATRICES = {
    "X": ((0.0, 1.0), (1.0, 0.0)),
    "Z": ((1.0, 0.0), (0.0, -1.0)),
    "H": ((_INV_SQRT2, _INV_SQRT2), (_INV_SQRT2, -_INV_SQRT2)),
}


class StateVector:
    """Immutable real amplitude vector over n bits, 1 <= n <= MAX_DIM.

    The amplitudes are read-only, owned and finite.  ``StateVector(amps)``
    copies and checks outside input; the simulator's own results come
    from ``_of``.
    """

    __slots__ = ("_dim", "_amps")

    def __init__(self, amps, dim: int | None = None):
        self._amps, self._dim = _real_vector(amps, dim, "amplitudes")

    @classmethod
    def _of(cls, arr: np.ndarray, dim: int) -> "StateVector":
        """Wrap a fresh package array as ``Multivector._of`` does."""
        sv = cls.__new__(cls)
        sv._amps, sv._dim = _frozen(arr, "amplitudes"), dim
        return sv

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def amps(self) -> np.ndarray:
        return self._amps

    @classmethod
    def basis(cls, index: int, dim: int) -> "StateVector":
        dim = _check_dim(dim)
        _check_int(index, "basis index")
        if not 0 <= index < (1 << dim):
            raise ValueError(f"basis index out of range: {index}")
        arr = np.zeros(1 << dim)
        arr[index] = 1.0
        return cls._of(arr, dim)

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
    with _quiet_float_errors():
        for gate in gates:
            (m00, m01), (m10, m11) = _MATRICES[gate.kind[-1]]
            a0, a1 = _pair_views(amps, gate)
            n0 = m00 * a0 + m01 * a1  # taken before a1 is overwritten
            a1[...] = m10 * a0 + m11 * a1
            a0[...] = n0
    return StateVector._of(amps, sv.dim)


def sv_apply_gate(sv: StateVector, gate: Gate) -> StateVector:
    """Apply one gate to the target-bit amplitude pairs."""
    return _apply((gate,), sv)


def sv_apply_circuit(circuit, sv: StateVector) -> StateVector:
    """Apply the gates first to last; every gate is checked before any runs."""
    return _apply(tuple(_gates_of(circuit)), sv)


def sv_teleport(alpha: float, beta: float) -> StateVector:
    """Reference teleportation: same network, tensor-product arithmetic.

    The start state is (alpha, beta) on bit 1 tensored with the
    two-bit entangled pair on bits 2 and 3; the result parks the
    payload on bit 3, amplitudes (alpha, beta) at indices 0 and 0b100.
    """
    amps = np.zeros(8)
    amps[0b000] = amps[0b110] = _as_float(alpha, "alpha") * _INV_SQRT2
    amps[0b001] = amps[0b111] = _as_float(beta, "beta") * _INV_SQRT2
    return sv_apply_circuit(teleport_network(), StateVector._of(amps, 3))


def equivalence_check(
    mv: Multivector, sv: StateVector, tol: float = 1e-12
) -> tuple[bool, float]:
    """Compare comb coefficients against amplitudes index by index.

    Returns (ok, max_abs_deviation).  The two containers use the same
    index convention, so this is a straight elementwise comparison; ``tol``
    is a finite real number, zero or more.
    """
    if not isinstance(mv, Multivector) or not isinstance(sv, StateVector):
        raise TypeError("expected (Multivector, StateVector)")
    if mv.dim != sv.dim:
        raise ValueError(f"dimension mismatch: {mv.dim} vs {sv.dim}")
    tol = _check_real(tol, "tol")
    if tol < 0:
        raise ValueError(f"tol must not be negative, got {tol!r}")
    with _quiet_float_errors():  # a difference past the float range reads as inf
        deviation = float(np.max(np.abs(mv.coeffs - sv.amps)))
    return deviation <= tol, deviation
