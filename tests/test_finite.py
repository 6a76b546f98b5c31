"""The shared finiteness check and the immutable arrays it guards.

Every array the package keeps as immutable data (Multivector
coefficients, StateVector amplitudes, a lattice's coefficient block)
and every array it writes out (cube corners) is
checked by ``algebra._all_finite`` and then frozen.  The helper must
agree with ``np.isfinite(a).all()`` wherever one bad value sits, and
the callers must keep their messages, their check order and their
owned, read-only data.
"""

import json
import math

import numpy as np
import pytest

from combcube.algebra import Multivector, _all_finite, geometric_product, grade_projection
from combcube.coding import LatticeMultivector, bell_carrier, encode, lattice_from_json
from combcube.gates import (Circuit, Gate, apply_circuit, apply_circuit_lattice, apply_gate,
                            teleport, teleport_network)
from combcube.render import lattice_scene
from combcube.statevector import StateVector, sv_apply_circuit, sv_apply_gate, sv_teleport

BAD = (math.nan, math.inf, -math.inf)
# finite values at the edges of float64: signed zeros, the smallest
# subnormal and the largest finite magnitudes
EDGE = (0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308)


def _positions(size: int):
    """Every position of small arrays; both ends and a stride of big ones."""
    if size <= 1024:
        return range(size)
    return [*range(32), *range(32, size - 32, 1021), *range(size - 32, size)]


def _agrees_at_every_position(good: np.ndarray) -> None:
    assert _all_finite(good) and np.isfinite(good).all()
    flat = good.reshape(-1)
    assert np.shares_memory(flat, good)  # writing ``flat`` writes ``good``
    for pos in _positions(flat.size):
        kept = flat[pos]
        for bad in BAD:
            flat[pos] = bad
            got, want = bool(_all_finite(good)), bool(np.isfinite(good).all())
            assert got == want and not got, (pos, bad)
        flat[pos] = kept
    assert _all_finite(good)


@pytest.mark.parametrize("size", sorted({*range(1, 17), *(1 << dim for dim in range(1, 17))}))
def test_all_finite_agrees_with_isfinite_all_on_1d_arrays(size):
    # lengths 1-16 and every Cl(1)..Cl(16) coefficient count
    good = np.resize(np.array(EDGE), size)
    _agrees_at_every_position(good)
    _agrees_at_every_position(good[::-1])  # a strided view


def test_all_finite_agrees_on_a_block_and_a_corner_array():
    rng = np.random.default_rng(0)
    _agrees_at_every_position(rng.normal(size=(7, 8)))  # a lattice block
    _agrees_at_every_position(rng.normal(size=(3, 8, 2)) * 100)  # projected corners
    assert _all_finite(np.zeros((0, 8)))  # an empty lattice


def test_callers_keep_their_messages():
    bad = np.zeros(8)
    bad[5] = math.inf
    with pytest.raises(ValueError, match="^coefficients must be finite$"):
        Multivector(bad, 3)
    with pytest.raises(ValueError, match="^amplitudes must be finite$"):
        StateVector(bad, 3)
    with pytest.raises(ValueError, match="^coefficients must be finite$"):
        lattice_from_json('{"0,0": {"000": 1}, "1": {"111": NaN}}')
    big = LatticeMultivector({(0,): Multivector([1e308, 1e308, 0, 0, 0, 0, 0, 0], 3)})
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="^coefficients must be finite$"):
        apply_circuit_lattice([Gate("H", 1)], big)
    lat = LatticeMultivector({(0,): Multivector.zero(3)})
    with pytest.raises(ValueError, match="^cube corners must be finite after placement and deformation$"):
        lattice_scene(lat, deformation=lambda p: (p[0], p[1], -math.inf))


def test_callers_check_the_count_before_finiteness():
    with pytest.raises(ValueError, match="^expected 8 coefficients for Cl\\(3\\), got 4$"):
        Multivector([math.nan] * 4, 3)
    with pytest.raises(ValueError, match="^expected 8 amplitudes, got 4$"):
        StateVector([math.nan] * 4, 3)


def _assert_owned_and_frozen(arr: np.ndarray) -> None:
    assert arr.base is None and arr.flags.owndata
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[(0,) * arr.ndim] = math.nan


def _package_results():
    """(name, result, operand arrays) for every result the package wraps
    from an array it made, without a second read as outside input."""
    a = Multivector([1.0, -2.0, 0.5, 0.0, -0.0, 3.0, 1e-300, -4.0], 3)
    b = Multivector.blade(0b110, 3, -1.5)
    a6, b6 = Multivector(np.arange(64.0), 6), Multivector(np.arange(64.0)[::-1], 6)
    lat = LatticeMultivector({(0,): a, (1, 2): b})
    sv = StateVector(np.linspace(-1.0, 1.0, 8), 3)
    yield "a * b", geometric_product(a, b), (a.coeffs, b.coeffs)
    yield "Cl(6) a * b", geometric_product(a6, b6), (a6.coeffs, b6.coeffs)
    yield "a + b", a + b, (a.coeffs, b.coeffs)
    yield "a - b", a - b, (a.coeffs, b.coeffs)
    yield "-a", -a, (a.coeffs,)
    yield "a * 2", a * 2, (a.coeffs,)
    yield "2 * a", 2 * a, (a.coeffs,)
    yield "a / 2", a / 2, (a.coeffs,)
    yield "grade 1 of a", grade_projection(a, 1), (a.coeffs,)
    yield "blade", Multivector.blade(0b101, np.int64(3), 2.0), ()
    yield "zero", Multivector.zero(3), ()
    yield "encode", encode({"101": 1.0}, np.int64(3)), ()
    yield "apply_gate H1", apply_gate(a, Gate("H", 1)), (a.coeffs,)
    yield "apply_gate X2", apply_gate(a, Gate("X", 2)), (a.coeffs,)
    # no step runs, so the core hands back a copy of the operand
    yield "apply_circuit of no gates", apply_circuit(Circuit(()), a), (a.coeffs,)
    yield "teleport", teleport(0.6, 0.8), (bell_carrier().coeffs,)
    for cell, mv in lat.items():
        yield f"lattice item {cell}", mv, (lat._block,)
    yield "sv_apply_gate H1", sv_apply_gate(sv, Gate("H", 1)), (sv.amps,)
    yield "sv_apply_circuit of no gates", sv_apply_circuit((), sv), (sv.amps,)
    yield "sv_teleport", sv_teleport(0.6, 0.8), ()
    yield "basis", StateVector.basis(5, np.int64(3)), ()


def test_checked_arrays_own_their_data_and_are_read_only():
    # Multivector and StateVector input of every shape is covered in
    # test_algebra.py and test_statevector.py
    for name, result, operands in _package_results():
        arr = result.coeffs if isinstance(result, Multivector) else result.amps
        _assert_owned_and_frozen(arr)
        assert not any(np.shares_memory(arr, op) for op in operands), name
        assert type(result.dim) is int, name
    text = json.dumps({"1,0": {"000": 1.0}, "0": {"100": -2.0}})
    for lat in (lattice_from_json(text), LatticeMultivector({(2,): Multivector.scalar(1.0, 3)})):
        _assert_owned_and_frozen(lat._block)
        held, one = lat.cell_indices()[0], Multivector.scalar(3.0, 3)
        for name, made in (("the network", apply_circuit_lattice(teleport_network(), lat)),
                           ("no gates", apply_circuit_lattice(Circuit(()), lat)),
                           ("set at a held place", lat.set(held, one)),
                           ("set at a new place", lat.set((7, 7), one))):
            _assert_owned_and_frozen(made._block)
            assert not np.shares_memory(made._block, lat._block), name


_BIG = Multivector([1e308] * 8, 3)
_OVERFLOWS = {
    "mv * 10**400": lambda: Multivector.blade(1, 3, 2.0) * 10**400,
    "10**400 * mv": lambda: 10**400 * Multivector.blade(1, 3, 2.0),
    "mv / 0": lambda: Multivector.blade(1, 3, 2.0) / 0,
    "mv / -0.0 on zeros": lambda: Multivector.zero(3) / -0.0,
    "1e300 * 1e300": lambda: Multivector([1e300] * 8, 3) * 1e300,
    "big + big": lambda: _BIG + _BIG,
    "big - (-big)": lambda: _BIG - (-_BIG),
    "Cl(6) product past the float range": lambda: geometric_product(
        Multivector([1e200] * 64, 6), Multivector([1e200] * 64, 6)),
}


@pytest.mark.parametrize("name", sorted(_OVERFLOWS))
def test_operators_report_an_overflow_as_non_finite_coefficients(name):
    # called bare: a numpy warning here is an error under the test config
    with pytest.raises(ValueError, match="^coefficients must be finite$"):
        _OVERFLOWS[name]()


def test_operators_keep_their_values_and_the_callers_float_state():
    mv = Multivector([1.0, -2.0, 0.5, 0.0, -0.0, 3.0, 1e-300, -4.0], 3)
    assert (mv + mv).coeffs.tobytes() == (mv.coeffs + mv.coeffs).tobytes()
    assert (mv - mv).coeffs.tobytes() == (mv.coeffs - mv.coeffs).tobytes()
    assert (mv * 3).coeffs.tobytes() == (mv.coeffs * 3.0).tobytes()
    assert (mv / 7).coeffs.tobytes() == (mv.coeffs / 7.0).tobytes()
    before = np.geterr()
    with pytest.raises(ValueError):
        _BIG + _BIG
    assert np.geterr() == before


_GATE_OVERFLOWS = {
    "apply_gate H1": (lambda: apply_gate(_BIG, Gate("H", 1)), "coefficients"),
    "apply_circuit H1": (lambda: apply_circuit([Gate("H", 1)], _BIG), "coefficients"),
    "apply_circuit_lattice H1": (
        lambda: apply_circuit_lattice([Gate("H", 1)], LatticeMultivector({(0,): _BIG})),
        "coefficients"),
    "sv_apply_gate H1": (
        lambda: sv_apply_gate(StateVector([1.7976931348623157e308] * 8, 3), Gate("H", 1)),
        "amplitudes"),
}


@pytest.mark.parametrize("name", sorted(_GATE_OVERFLOWS))
def test_gate_engines_report_an_overflow_as_non_finite_values(name):
    # called bare: a numpy warning here is an error under the test config
    call, what = _GATE_OVERFLOWS[name]
    before = np.geterr()
    with pytest.raises(ValueError, match=f"^{what} must be finite$"):
        call()
    assert np.geterr() == before
