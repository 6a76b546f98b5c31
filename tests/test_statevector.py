"""Cross-checks between the comb engine and the tensor-product simulator.

The simulator shares only the Gate and Circuit descriptions with the
comb engine; its gate application is re-derived from 2x2 matrices.
Agreement on every basis state and on random circuits is the core
correctness evidence for both.
"""

import math

import numpy as np
import pytest

from combcube.algebra import Multivector
from combcube.gates import Gate, apply_circuit, apply_gate, teleport
from combcube.statevector import (
    StateVector,
    equivalence_check,
    sv_apply_circuit,
    sv_apply_gate,
    sv_teleport,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _gate_pool():
    single = [Gate(kind, k) for kind in ("X", "Z", "H") for k in (1, 2, 3)]
    controlled = [
        Gate(kind, t, c)
        for kind in ("CX", "CZ")
        for t in (1, 2, 3)
        for c in (1, 2, 3)
        if t != c
    ]
    return single + controlled


def test_empty_amplitudes_name_the_count():
    with pytest.raises(ValueError, match="power of two, got 0"):
        StateVector([])


def test_statevector_construction():
    sv = StateVector([1, 0, 0, 0])
    assert sv.dim == 2
    assert StateVector(np.zeros(8), 3).dim == 3
    with pytest.raises(ValueError):
        StateVector([1, 0, 0])
    with pytest.raises(ValueError):
        StateVector(np.zeros(8), 2)
    with pytest.raises(ValueError):
        StateVector([np.inf, 0])
    with pytest.raises(ValueError):
        StateVector.basis(8, 3)
    with pytest.raises(ValueError):
        StateVector.basis(0, 0)


def test_statevector_amps_are_read_only():
    sv = StateVector.basis(0, 3)
    with pytest.raises(ValueError):
        sv.amps[0] = 2.0


def test_basis_gate_actions():
    x1 = sv_apply_gate(StateVector.basis(0, 3), Gate("X", 1))
    np.testing.assert_array_equal(x1.amps, StateVector.basis(1, 3).amps)
    z1 = sv_apply_gate(StateVector.basis(1, 3), Gate("Z", 1))
    np.testing.assert_array_equal(z1.amps, -StateVector.basis(1, 3).amps)
    h1 = sv_apply_gate(StateVector.basis(0, 3), Gate("H", 1))
    assert h1.amps[0] == INV_SQRT2 and h1.amps[1] == INV_SQRT2
    assert np.all(h1.amps[2:] == 0)
    cx = sv_apply_gate(StateVector.basis(0b001, 3), Gate("CX", 2, 1))
    np.testing.assert_array_equal(cx.amps, StateVector.basis(0b011, 3).amps)
    cz = sv_apply_gate(StateVector.basis(0b101, 3), Gate("CZ", 3, 1))
    np.testing.assert_array_equal(cz.amps, -StateVector.basis(0b101, 3).amps)


def test_gate_validation():
    sv = StateVector.basis(0, 3)
    with pytest.raises(ValueError):
        sv_apply_gate(sv, Gate("X", 4))
    with pytest.raises(ValueError):
        sv_apply_gate(sv, Gate("CX", 2, 7))
    with pytest.raises(TypeError):
        sv_apply_gate(np.zeros(8), Gate("X", 1))


def test_sv_teleport_basis_payloads():
    out = sv_teleport(1.0, 0.0)
    np.testing.assert_allclose(out.amps, StateVector.basis(0, 3).amps, atol=1e-12)
    out = sv_teleport(0.0, 1.0)
    np.testing.assert_allclose(out.amps, StateVector.basis(0b100, 3).amps, atol=1e-12)


def test_sv_teleport_generic_payload():
    out = sv_teleport(0.6, 0.8)
    expected = np.zeros(8)
    expected[0b000] = 0.6
    expected[0b100] = 0.8
    assert np.max(np.abs(out.amps - expected)) <= 1e-12


def test_engines_agree_on_every_basis_state_per_gate():
    # exact agreement: both engines do the same float operations on
    # basis inputs, so the tolerance here is zero
    for gate in _gate_pool():
        for word in range(8):
            mv = apply_gate(Multivector.blade(word, 3), gate)
            sv = sv_apply_gate(StateVector.basis(word, 3), gate)
            ok, deviation = equivalence_check(mv, sv, tol=0.0)
            assert ok, f"{gate.label()} on word {word}: deviation {deviation}"


def test_engines_agree_on_random_circuits():
    rng = np.random.default_rng(2024)
    pool = _gate_pool()
    for _ in range(20):
        circuit = [pool[rng.integers(len(pool))] for _ in range(20)]
        start = rng.uniform(-1.0, 1.0, 8)
        mv = apply_circuit(circuit, Multivector(start, 3))
        sv = sv_apply_circuit(circuit, StateVector(start, 3))
        ok, deviation = equivalence_check(mv, sv)
        assert ok, f"random circuit deviated by {deviation}"


def test_teleport_agrees_with_simulator():
    rng = np.random.default_rng(7)
    for _ in range(25):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        alpha, beta = math.cos(phi), math.sin(phi)
        ok, deviation = equivalence_check(
            teleport(alpha, beta), sv_teleport(alpha, beta)
        )
        assert ok, f"teleport deviated by {deviation}"


def test_equivalence_check_reports_deviation():
    mv = Multivector.scalar(1.0, 3)
    close = np.zeros(8)
    close[0] = 1.0 + 1e-6
    ok, deviation = equivalence_check(mv, StateVector(close, 3))
    assert not ok
    assert deviation == pytest.approx(1e-6)
    with pytest.raises(ValueError):
        equivalence_check(Multivector.zero(2), StateVector.basis(0, 3))
    with pytest.raises(TypeError):
        equivalence_check(mv, np.zeros(8))
