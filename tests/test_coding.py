"""Comb coding, Bell-type states, lattices, and the JSON formats."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combcube.algebra import Multivector, geometric_product
from combcube.coding import (
    LatticeMultivector,
    bell_basis,
    bell_carrier,
    bits_to_key,
    comb,
    comb_bits,
    decode,
    encode,
    lattice_from_json,
    lattice_get,
    lattice_set,
    lattice_to_json,
    multivector_from_json,
    multivector_to_json,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)

# the running example table used across the render tests as well
EXAMPLE_TABLE = {
    "000": -0.07, "100": 0.32, "010": -3.08, "001": 1.06,
    "110": -0.85, "101": 0.27, "011": -0.86, "111": 4.07,
}
# same numbers in blade-word order (word bit k-1 holds label A_k)
EXAMPLE_COEFFS = [-0.07, 0.32, -3.08, -0.85, 1.06, 0.27, -0.86, 4.07]


def test_comb_examples():
    assert comb((0, 0, 0)) == 0b000
    assert comb((1, 0, 0)) == 0b001
    assert comb((0, 1, 0)) == 0b010
    assert comb((0, 0, 1)) == 0b100
    assert comb((1, 1, 1)) == 0b111
    assert comb("100") == 0b001
    assert comb("011") == 0b110


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_comb_is_a_bijection(dim):
    seen = set()
    for word in range(1 << dim):
        bits = comb_bits(word, dim)
        assert comb(bits) == word
        seen.add(bits)
    assert len(seen) == 1 << dim


def test_comb_rejects_bad_bits():
    with pytest.raises(ValueError):
        comb((0, 2, 0))
    with pytest.raises(ValueError):
        comb("10x")
    with pytest.raises(ValueError):
        comb(())
    with pytest.raises(ValueError):
        comb_bits(8, 3)


def test_encode_examples():
    mv = encode({(0, 0, 0): 2.0, (1, 0, 0): -1.0}, 3)
    assert mv.coeffs[0b000] == 2.0
    assert mv.coeffs[0b001] == -1.0
    assert np.count_nonzero(mv.coeffs) == 2
    assert encode({}, 3) == Multivector.zero(3)


def test_encode_example_table_order():
    mv = encode(EXAMPLE_TABLE, 3)
    np.testing.assert_array_equal(mv.coeffs, EXAMPLE_COEFFS)


def test_encode_validation():
    with pytest.raises(ValueError):
        encode({"00": 1.0}, 3)
    with pytest.raises(ValueError):
        encode({"000": "big"}, 3)
    with pytest.raises(ValueError):
        encode({"100": 1.0, (1, 0, 0): 2.0}, 3)


def test_decode_is_total():
    mv = Multivector([0.5, 0, 0, 0, 0.25, 0, 0, 0], 3)
    table = decode(mv)
    assert len(table) == 8
    assert table[(0, 0, 0)] == 0.5
    assert table[(0, 0, 1)] == 0.25
    assert table[(1, 1, 1)] == 0.0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=8, max_size=8))
def test_encode_decode_roundtrip(xs):
    mv = Multivector(xs, 3)
    assert encode(decode(mv), 3) == mv


def test_bell_carrier_coefficients():
    b = bell_carrier()
    assert b.coeffs[0b000] == INV_SQRT2
    assert b.coeffs[0b110] == INV_SQRT2
    assert np.count_nonzero(b.coeffs) == 2
    assert abs(b.norm() - 1.0) <= 1e-12


def test_bell_carrier_square_is_the_bivector():
    # (1 + b2b3)^2 / 2 = b2b3 since (b2b3)^2 = -1; the scalar parts cancel
    sq = geometric_product(bell_carrier(), bell_carrier())
    expected = np.zeros(8)
    expected[0b110] = 1.0
    np.testing.assert_allclose(sq.coeffs, expected, atol=1e-12)
    assert abs(sq.coeffs[0b000]) <= 1e-12


def test_bell_basis_shape_and_order():
    basis = bell_basis()
    assert len(basis) == 4
    first = basis[0]
    assert first.coeffs[0b000] == INV_SQRT2
    assert first.coeffs[0b011] == INV_SQRT2
    minus = basis[1]
    assert minus.coeffs[0b011] == -INV_SQRT2
    vec_plus, vec_minus = basis[2], basis[3]
    assert vec_plus.coeffs[0b001] == INV_SQRT2 and vec_plus.coeffs[0b010] == INV_SQRT2
    assert vec_minus.coeffs[0b010] == -INV_SQRT2


def test_bell_basis_is_orthonormal():
    basis = bell_basis()
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            dot = float(np.dot(u.coeffs, v.coeffs))
            if i == j:
                assert abs(dot - 1.0) <= 1e-12
            else:
                assert abs(dot) <= 1e-15


def test_lattice_set_get_roundtrip():
    lat = LatticeMultivector()
    mv = encode(EXAMPLE_TABLE, 3)
    lat2 = lattice_set(lat, (0, 1, 2), mv)
    assert lattice_get(lat2, (0, 1, 2)) == mv
    assert len(lat2) == 1
    # the original is untouched and absent cells read as zero
    assert len(lat) == 0
    assert lattice_get(lat, (0, 1, 2)) == Multivector.zero(3)
    assert lattice_get(lat2, (5,)) == Multivector.zero(3)


def test_lattice_accepts_short_indices():
    mv = Multivector.scalar(1.0, 3)
    lat = LatticeMultivector({(-2,): mv, (0, 3): mv})
    assert (-2,) in lat
    assert lat.get((0, 3)) == mv


def test_lattice_rejects_bad_cells_and_values():
    mv = Multivector.scalar(1.0, 3)
    with pytest.raises(ValueError):
        LatticeMultivector({(1, 2, 3, 4): mv})
    with pytest.raises(ValueError):
        LatticeMultivector({(0,): Multivector.zero(2)})
    with pytest.raises(TypeError):
        LatticeMultivector({(0,): 1.0})


def test_lattice_rejects_cells_that_coincide_after_padding():
    mv = Multivector.scalar(1.0, 3)
    with pytest.raises(ValueError, match=r"cells \(0, 0\) and \(0, 0, 0\)"):
        LatticeMultivector({(0, 0): mv, (0, 0, 0): mv})
    with pytest.raises(ValueError, match=r"cells \(2,\) and \(2, 0\)"):
        LatticeMultivector({2: mv, (2, 0): mv})
    with pytest.raises(ValueError, match="same cell"):
        LatticeMultivector({(1, 0): mv}).set((1, 0, 0), mv)
    with pytest.raises(ValueError, match=r"cells \(0, 0\) and \(0, 0, 0\)"):
        lattice_from_json('{"0,0": {"000": 1}, "0,0,0": {"000": 2}}')
    # distinct cells of different lengths are fine
    assert len(LatticeMultivector({(0, 0): mv, (0, 0, 1): mv, (1,): mv})) == 3


def test_lattice_set_order_does_not_matter():
    a = encode({"000": 1.0}, 3)
    b = encode({"111": -2.0}, 3)
    one = lattice_set(lattice_set(LatticeMultivector(), (0, 0), a), (1, 1), b)
    other = lattice_set(lattice_set(LatticeMultivector(), (1, 1), b), (0, 0), a)
    assert one == other


def test_multivector_json_roundtrip_exact():
    mv = encode(EXAMPLE_TABLE, 3)
    text = multivector_to_json(mv)
    assert multivector_from_json(text) == mv
    # canonical key order and 17-digit numbers in the text
    obj = json.loads(text)
    assert list(obj) == sorted(obj)
    assert "0.32000000000000001" in text


def test_multivector_json_handles_awkward_floats():
    mv = Multivector([0.1, -1e-300, 1e300, 0, 0, 0, 0, 12345.6789], 3)
    assert multivector_from_json(multivector_to_json(mv)) == mv


def test_multivector_json_validation():
    with pytest.raises(ValueError):
        multivector_from_json("[1, 2]")
    with pytest.raises(ValueError):
        multivector_from_json('{"00": 1, "000": 2}')
    with pytest.raises(ValueError):
        multivector_from_json("{}")
    assert multivector_from_json("{}", dim=3) == Multivector.zero(3)


def test_lattice_json_roundtrip():
    mv1 = encode(EXAMPLE_TABLE, 3)
    mv2 = encode({"010": 0.25}, 3)
    lat = LatticeMultivector({(0, 0): mv1, (3, -1): mv2, (7,): mv2})
    text = lattice_to_json(lat)
    assert lattice_from_json(text) == lat
    obj = json.loads(text)
    assert set(obj) == {"0,0", "3,-1", "7"}
    assert lattice_from_json("{}") == LatticeMultivector()


def test_lattice_json_validation():
    with pytest.raises(ValueError):
        lattice_from_json('{"a,b": {}}')
    with pytest.raises(ValueError):
        lattice_from_json('{"1,2": [1]}')
    with pytest.raises(ValueError):
        lattice_from_json('{"1,2,3,4": {}}')


def test_multivector_json_rejects_duplicate_keys():
    with pytest.raises(ValueError, match="duplicate"):
        multivector_from_json('{"000": 1, "000": 5}')


def test_lattice_json_rejects_duplicate_cells():
    with pytest.raises(ValueError, match="duplicate"):
        lattice_from_json('{"0,0": {"000": 1}, "0,0": {"000": 2}}')
    with pytest.raises(ValueError, match="duplicate"):
        lattice_from_json('{"0,0": {"000": 1, "000": 2}}')
    with pytest.raises(ValueError, match="repeats cell"):
        lattice_from_json('{"0,0": {"000": 1}, "0, 0": {"000": 2}}')
