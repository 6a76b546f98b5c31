"""Cross-checks between the comb engine and the tensor-product simulator.

The simulator shares only the Gate and Circuit descriptions with the
comb engine; its gate application is re-derived from 2x2 matrices.
Agreement on every basis state and on random circuits is the core
correctness evidence for both.
"""

import math
import warnings

import numpy as np
import pytest

from combcube.algebra import MAX_DIM, Multivector
from combcube.gates import GATE_KINDS, Gate, apply_circuit, apply_gate, teleport
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


@pytest.mark.parametrize("dim", [3.0, "3", True])
def test_a_dimension_that_is_not_an_integer_is_named(dim):
    for call in (lambda: StateVector([0.5] * 8, dim), lambda: StateVector.basis(0, dim)):
        with pytest.raises(ValueError, match="^dimension must be an integer, got "):
            call()


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


def test_statevector_owns_its_amplitudes():
    want = np.arange(8.0)
    for given in (want, want.tolist(), [[0, 1, 2, 3], [4, 5, 6, 7]], want.reshape(2, 4)):
        amps = StateVector(given, 3).amps
        assert amps.base is None and amps.flags.owndata
        assert not amps.flags.writeable
        assert amps.tobytes() == want.tobytes()
    assert StateVector(np.zeros(8), 3).amps.base is None


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


# -- the former per-pair loop, kept as the bitwise reference ------------------

_LOOP_MATRICES = {
    "X": ((0.0, 1.0), (1.0, 0.0)),
    "Z": ((1.0, 0.0), (0.0, -1.0)),
    "H": ((INV_SQRT2, INV_SQRT2), (INV_SQRT2, -INV_SQRT2)),
}


def _loop_gate(amps: np.ndarray, gate: Gate) -> np.ndarray:
    """One gate by a Python loop over target-bit amplitude pairs."""
    tbit = 1 << (gate.target - 1)
    cbit = 0 if gate.control is None else 1 << (gate.control - 1)
    m = _LOOP_MATRICES[gate.kind[-1]]
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
    return new


def _extreme_amps(rng, dim: int) -> np.ndarray:
    """Both signs, magnitudes 1e-300 to 1e300, a fifth of them +0.0 or -0.0."""
    n = 1 << dim
    amps = rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
    zeros = rng.random(n) < 0.2
    amps[zeros] = rng.choice((0.0, -0.0), int(zeros.sum()))
    return amps


def _gates_at(dim: int) -> list[Gate]:
    """Every kind on the low, high and a middle bit; controls above and below."""
    bits = sorted({1, 2, (dim + 1) // 2, dim - 1, dim} & set(range(1, dim + 1)))
    gates = [Gate(kind, t) for kind in ("X", "Z", "H") for t in bits]
    gates += [Gate(kind, t, c) for kind in ("CX", "CZ")
              for t in bits for c in bits if c != t]
    return gates


@pytest.mark.parametrize("dim", range(1, 11))
def test_gates_match_the_pair_loop_bit_for_bit(dim):
    rng = np.random.default_rng(100 + dim)
    amps = _extreme_amps(rng, dim)
    gates = _gates_at(dim)
    assert {g.kind for g in gates} == set(GATE_KINDS if dim > 1 else ("X", "Z", "H"))
    if dim > 1:
        assert any(g.control > g.target for g in gates if g.control)
        assert any(g.control < g.target for g in gates if g.control)
    for gate in gates:
        got = sv_apply_gate(StateVector(amps, dim), gate).amps
        assert got.tobytes() == _loop_gate(amps, gate).tobytes(), gate.label()


@pytest.mark.parametrize("dim", range(1, 11))
def test_circuits_match_the_pair_loop_bit_for_bit(dim):
    rng = np.random.default_rng(200 + dim)
    pool = _gates_at(dim)
    for _ in range(3):
        circuit = [pool[rng.integers(len(pool))] for _ in range(20)]
        amps = _extreme_amps(rng, dim)
        want = amps
        for gate in circuit:
            want = _loop_gate(want, gate)
        got = sv_apply_circuit(circuit, StateVector(amps, dim)).amps
        assert got.tobytes() == want.tobytes()


def test_intermediate_overflow_is_rejected():
    # H H is the identity, but the first H overflows to inf on the way
    sv = StateVector([1.5e308, 1.5e308])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            sv_apply_circuit([Gate("H", 1), Gate("H", 1)], sv)


def test_circuit_is_checked_before_any_gate_runs():
    sv = StateVector([1.5e308, 1.5e308, 0.0, 0.0])
    with pytest.raises(ValueError, match="target bit 3 out of range for 2 bits"):
        sv_apply_circuit([Gate("H", 1), Gate("X", 3)], sv)
    with pytest.raises(ValueError, match="control bit 5 out of range for 2 bits"):
        sv_apply_circuit([Gate("H", 1), Gate("CZ", 1, 5)], sv)
    with pytest.raises(TypeError, match="expected a Gate"):
        sv_apply_circuit([Gate("H", 1), ("X", 1)], sv)
    with pytest.raises(TypeError, match="expected a StateVector"):
        sv_apply_circuit([], np.zeros(8))


def test_engines_agree_on_a_max_dim_circuit():
    rng = np.random.default_rng(16)
    circuit = []
    for _ in range(20):
        kind = GATE_KINDS[rng.integers(len(GATE_KINDS))]
        target, control = (int(b) for b in rng.choice(np.arange(1, MAX_DIM + 1), 2, replace=False))
        circuit.append(Gate(kind, target, control if kind in ("CX", "CZ") else None))
    start = rng.uniform(-1.0, 1.0, 1 << MAX_DIM)
    mv = apply_circuit(circuit, Multivector(start, MAX_DIM))
    sv = sv_apply_circuit(circuit, StateVector(start, MAX_DIM))
    ok, deviation = equivalence_check(mv, sv)
    assert ok, f"Cl({MAX_DIM}) circuit deviated by {deviation}"


def test_numpy_integer_dimension_is_stored_as_int():
    sv = StateVector(np.zeros(8), np.int64(3))
    assert sv.dim == 3 and type(sv.dim) is int
    basis = StateVector.basis(np.int64(5), np.int32(3))
    assert type(basis.dim) is int and basis.amps[5] == 1.0


@pytest.mark.parametrize("dim", [True, 3.0, "3"])
def test_non_integer_dimension_is_rejected(dim):
    with pytest.raises(ValueError, match="dimension"):
        StateVector(np.zeros(8), dim)
    with pytest.raises(ValueError, match="dimension"):
        StateVector.basis(0, dim)


@pytest.mark.parametrize("index", [True, 1.5, "1"])
def test_non_integer_basis_index_is_rejected(index):
    with pytest.raises(ValueError, match="index"):
        StateVector.basis(index, 3)


def test_repr_names_the_dimension():
    assert repr(StateVector.basis(0, 3)) == "StateVector(dim=3)"


@pytest.mark.parametrize("amps", [[1j] * 8, [[1.0, 2.0], [3.0]], ["a"] * 8])
def test_amplitudes_that_are_not_an_array_of_reals_are_named(amps):
    with pytest.raises(ValueError, match="^amplitudes must be an array of real numbers$"):
        StateVector(amps)


def test_a_deviation_past_the_float_range_is_inf_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = equivalence_check(Multivector.scalar(1e308, 3),
                                StateVector([-1e308] + [0.0] * 7, 3))
    assert got == (False, math.inf)
