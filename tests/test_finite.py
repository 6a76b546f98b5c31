"""The shared finiteness check and the immutable arrays it guards.

Every array the package keeps as immutable data (Multivector
coefficients, StateVector amplitudes, a lattice's coefficient block)
and every array it writes out (scene points and cube corners) is
checked by ``algebra._all_finite`` and then frozen.  The helper must
agree with ``np.isfinite(a).all()`` wherever one bad value sits, and
the callers must keep their messages, their check order and their
owned, read-only data.
"""

import json
import math

import numpy as np
import pytest

from combcube.algebra import Multivector, _all_finite
from combcube.coding import LatticeMultivector, lattice_from_json
from combcube.colorwheel import hue_to_rgb
from combcube.gates import Gate, apply_circuit_lattice, teleport, teleport_network
from combcube.render import Disc, Scene, lattice_scene
from combcube.statevector import StateVector

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
    with pytest.raises(ValueError, match="^scene points must be finite$"):
        Scene(hue_to_rgb(0.75), [Disc((0.0, math.nan), 5.0, hue_to_rgb(0.5), "corner")])
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


def test_checked_arrays_own_their_data_and_are_read_only():
    # Multivector and StateVector input of every shape is covered in
    # test_algebra.py and test_statevector.py
    _assert_owned_and_frozen(teleport(0.6, 0.8).coeffs)
    text = json.dumps({"1,0": {"000": 1.0}, "0": {"100": -2.0}})
    for lat in (lattice_from_json(text), LatticeMultivector({(2,): Multivector.scalar(1.0, 3)})):
        _assert_owned_and_frozen(lat._block)
        _assert_owned_and_frozen(apply_circuit_lattice(teleport_network(), lat)._block)
