"""Comb coding, Bell-type states, lattices, and the JSON formats."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combcube.algebra import Multivector, geometric_product
from combcube.coding import (
    MAX_CELL_INDEX,
    LatticeMultivector,
    bell_basis,
    bell_carrier,
    comb,
    comb_bits,
    encode,
    key_to_cell,
    lattice_from_json,
    lattice_to_json,
    multivector_from_json,
    multivector_to_json,
)
from combcube.gates import Circuit, Gate, apply_circuit, apply_circuit_lattice, teleport_network
from combcube.render import cube_scene, grid_placement, lattice_scene

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


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=8, max_size=8))
def test_encode_decode_roundtrip(xs):
    mv = Multivector(xs, 3)
    # keyed by bit tuples, so encode takes its sequence-key path
    table = {comb_bits(word, 3): float(mv.coeffs[word]) for word in range(8)}
    assert encode(table, 3) == mv


def test_bell_carrier_coefficients():
    b = bell_carrier()
    assert b.coeffs[0b000] == INV_SQRT2
    assert b.coeffs[0b110] == INV_SQRT2
    assert np.count_nonzero(b.coeffs) == 2
    assert abs(b.norm() - 1.0) <= 1e-12


def test_bell_carrier_is_one_read_only_constant():
    b = bell_carrier()
    assert b is bell_carrier()
    with pytest.raises(ValueError):
        b.coeffs[0b000] = 0.0
    assert b == (Multivector.scalar(1.0, 3) + Multivector.blade(0b110, 3)) / math.sqrt(2.0)


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
    lat2 = lat.set((0, 1, 2), mv)
    assert lat2.items() == (((0, 1, 2), mv),)
    assert len(lat2) == 1
    # the original is untouched
    assert len(lat) == 0 and lat.items() == ()


def test_lattice_accepts_short_indices():
    mv = Multivector.scalar(1.0, 3)
    lat = LatticeMultivector({(-2,): mv, (0, 3): mv})
    assert dict(lat.items()) == {(-2,): mv, (0, 3): mv}


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
    replaced = LatticeMultivector({(1, 0): mv}).set((1, 0, 0), 2 * mv)
    assert replaced == LatticeMultivector({(1, 0): 2 * mv})
    with pytest.raises(ValueError, match=r"cells \(0, 0\) and \(0, 0, 0\)"):
        lattice_from_json('{"0,0": {"000": 1}, "0,0,0": {"000": 2}}')
    # distinct cells of different lengths are fine
    assert len(LatticeMultivector({(0, 0): mv, (0, 0, 1): mv, (1,): mv})) == 3


def test_lattice_lookups_pad_like_stored_cells():
    # set finds a held place under any spelling and keeps the stored one
    mv = Multivector.scalar(1.0, 3)
    lat = LatticeMultivector({(0, 0): mv, (2,): 2 * mv, (1, 1, 1): 3 * mv})
    for stored, spellings in (((0, 0), ((0, 0), (0, 0, 0), (0,), 0)),
                              ((2,), ((2,), (2, 0), (2, 0, 0), 2)),
                              ((1, 1, 1), ((1, 1, 1),))):
        for cell in spellings:
            out = lat.set(cell, 5 * mv)
            assert out.cell_indices() == lat.cell_indices()
            assert dict(out.items())[stored] == 5 * mv
    for cell in ((1, 1), (0, 0, 1), (2, 1), (1,)):
        out = lat.set(cell, 5 * mv)
        assert len(out) == 4 and dict(out.items())[cell] == 5 * mv


def test_lattice_set_order_does_not_matter():
    a = encode({"000": 1.0}, 3)
    b = encode({"111": -2.0}, 3)
    one = LatticeMultivector().set((0, 0), a).set((1, 1), b)
    other = LatticeMultivector().set((1, 1), b).set((0, 0), a)
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
    with pytest.raises(ValueError, match="^cannot infer dimension from an empty table$"):
        multivector_from_json("{}")


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
    with pytest.raises(ValueError, match="^cell key '-0,00' repeats cell '0,0'$"):
        lattice_from_json('{"0,0": {"000": 1}, "-0,00": {"000": 2}}')


def test_lattice_cell_indices_are_bounded():
    mv = Multivector.scalar(1.0, 3)
    edge = (MAX_CELL_INDEX, -MAX_CELL_INDEX, 0)
    assert LatticeMultivector({edge: mv}).cell_indices() == (edge,)
    assert key_to_cell(f"{MAX_CELL_INDEX},{-MAX_CELL_INDEX}") == edge[:2]
    for cell in ((MAX_CELL_INDEX + 1,), (0, -MAX_CELL_INDEX - 1), (1, 2, 10**20)):
        with pytest.raises(ValueError, match=re.escape(f"cell index {cell} out of range")):
            LatticeMultivector({cell: mv})
        with pytest.raises(ValueError, match=re.escape(f"cell index {cell} out of range")):
            lattice_from_json(json.dumps({",".join(map(str, cell)): {"000": 1.0}}))


def test_json_integer_beyond_the_float_range_is_a_value_error():
    huge = "1" + "0" * 400
    with pytest.raises(ValueError, match="'100' must be finite"):
        multivector_from_json('{"000": 1, "100": ' + huge + "}")
    with pytest.raises(ValueError, match="'000' must be finite"):
        lattice_from_json('{"0,0": {"000": -' + huge + "}}")
    with pytest.raises(ValueError, match="coefficients must be finite"):
        lattice_from_json('{"0,0": {"000": 1}, "1": {"111": Infinity}}')


_KEYS = ("000", "100", "010", "001", "110", "101", "011", "111")
_EXTREME = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324])
_COEFF = st.one_of(_EXTREME, st.floats(allow_nan=False, allow_infinity=False))
_CELL = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(tuple)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(_CELL, st.dictionaries(st.sampled_from(_KEYS), _COEFF)), max_size=8))
def test_lattice_block_matches_per_cell_encode(entries):
    places = {}
    for cell, table in entries:  # one cell per drawn place, the first
        places.setdefault(cell + (0,) * (3 - len(cell)), (cell, table))
    tables = dict(places.values())
    lat = lattice_from_json(json.dumps({",".join(map(str, c)): t for c, t in tables.items()}))
    cells = sorted(tables)
    want = np.array([encode(tables[cell], 3).coeffs for cell in cells]).reshape(-1, 8)
    assert lat.cell_indices() == tuple(cells)
    assert lat._block.tobytes() == want.tobytes()
    built = LatticeMultivector({cell: encode(table, 3) for cell, table in tables.items()})
    assert built._block.tobytes() == want.tobytes()
    assert lat == built
    back = lattice_from_json(lattice_to_json(lat))
    assert back == lat and back._block.tobytes() == lat._block.tobytes()


def test_json_writers_keep_the_sign_of_zero():
    mv = Multivector([-0.0, 0.0, -0.0, 1.0, -1e-300, 0.0, -0.0, -2.5], 3)
    text = multivector_to_json(mv)
    assert '"000": -0.0,' in text and '"100": 0,' in text
    assert multivector_from_json(text).coeffs.tobytes() == mv.coeffs.tobytes()
    lat = LatticeMultivector({(0, 0): mv, (1,): -mv, (2, -1, 3): Multivector.zero(3)})
    back = lattice_from_json(lattice_to_json(lat))
    assert back.cell_indices() == lat.cell_indices()
    assert back._block.tobytes() == lat._block.tobytes()


def _spellings(place):
    """Every way to name the grid place (i, j, k): 1 to 3 indices, or an int."""
    out = [place]
    if place[2] == 0:
        out.append(place[:2])
        if place[1] == 0:
            out += [place[:1], place[0]]
    return out


def _sorted_block(ref):
    """Sorted cells, and the bytes of their rows, of a place -> (cell, row) dict."""
    pairs = sorted(ref.values())
    return tuple(c for c, _ in pairs), np.array([r for _, r in pairs]).reshape(-1, 8).tobytes()


# bounded, so that no gate overflows a coefficient
_ROW = st.lists(st.one_of(_EXTREME, st.floats(-1e300, 1e300)), min_size=8, max_size=8)
_CIRCUIT = st.sampled_from([
    Circuit(()),
    teleport_network(),
    Circuit((Gate("X", 2), Gate("CZ", 3, 1))),
])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(_CELL, _ROW), max_size=6), _CELL, _ROW, _CIRCUIT)
def test_lattice_lookups_match_a_dict_keyed_by_padded_cell(entries, probe, row, circuit):
    ref = {}  # grid place -> (stored cell, row); the first spelling of a place is kept
    for cell, coeffs in entries:
        ref.setdefault(cell + (0,) * (3 - len(cell)), (cell, coeffs))
    lat = LatticeMultivector({cell: Multivector(coeffs, 3) for cell, coeffs in ref.values()})
    assert (lat.cell_indices(), lat._block.tobytes()) == _sorted_block(ref)
    out = apply_circuit_lattice(circuit, lat)
    assert out.cell_indices() == lat.cell_indices()
    read, read_out = dict(lat.items()), dict(out.items())
    for cell, coeffs in ref.values():
        want = Multivector(coeffs, 3)
        assert read[cell].coeffs.tobytes() == want.coeffs.tobytes()
        assert read_out[cell].coeffs.tobytes() == apply_circuit(circuit, want).coeffs.tobytes()
    for place in [*ref, probe + (0,) * (3 - len(probe))]:
        held = place in ref
        for spelling in _spellings(place):
            # set replaces a held place under its stored cell, or adds this spelling
            stored = ref[place][0] if held else tuple(np.atleast_1d(spelling).tolist())
            updated = lat.set(spelling, Multivector(row, 3))
            assert (updated.cell_indices(), updated._block.tobytes()) == _sorted_block(
                {**ref, place: (stored, row)})
    assert (lat.cell_indices(), lat._block.tobytes()) == _sorted_block(ref)


# -- reader parity --------------------------------------------------------------
# The reader recognises plain-int cells and float-valued canonical tables by
# exact type before the full checks; these pin the full checks' exception
# type and exact message on the inputs that leave the common case.

_HUGE = "1" + "0" * 400


def _raises_exactly(message, fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    assert type(info.value) is ValueError
    assert str(info.value) == message


@pytest.mark.parametrize("text, message", [
    ('{"0,0": {"000": true}}', "coefficient for '000' must be a real number"),
    ('{"0,0": {"010": "1.5"}}', "coefficient for '010' must be a real number"),
    ('{"0,0": {"100": 0.5, "001": ' + _HUGE + "}}", "coefficient for '001' must be finite"),
    ('{"0,0": {"000": NaN}}', "coefficients must be finite"),
    ('{"0,0": {"0000": 1.0}}', "expected 3 bits, got 4 in '0000'"),
    ('{"1,2,3,4": {"000": 1.0}}', "cell index must hold 1 to 3 integers, got (1, 2, 3, 4)"),
    ('{"2147483648": {"000": 1.0}}',
     "cell index (2147483648,) out of range: each index must lie in [-2147483647, 2147483647]"),
    # a cell key is ASCII integers joined by commas, though int() reads these
    *((f'{{"{key}": {{"000": 1.0}}}}', f"cell key must be comma-separated integers, got {key!r}")
      for key in ("+1,2", "1_0,2", " 1,2", "１,2")),
    # the first bad cell in file order is the one reported
    ('{"0,0": {"000": true}, "x": {"000": 1.0}}', "coefficient for '000' must be a real number"),
    ('{"x": {"000": 1.0}, "0,0": {"000": true}}',
     "cell key must be comma-separated integers, got 'x'"),
    ('{"0,0": {"000": 1.0}, "1": {"111": false}, "0": {"000": 1.0}}',
     "coefficient for '111' must be a real number"),
])
def test_lattice_reader_messages_are_pinned(text, message):
    _raises_exactly(message, lattice_from_json, text)


@pytest.mark.parametrize("table, message", [
    ({"000": True}, "coefficient for '000' must be a real number"),
    ({"010": "1.5"}, "coefficient for '010' must be a real number"),
    ({"001": 10**400}, "coefficient for '001' must be finite"),
    ({"000": math.nan}, "coefficients must be finite"),
    ({"100": 1.0, (1, 0, 0): 2.0}, "duplicate comb key '100'"),
    ({(1, 0, 0): 2.0, "100": 1.0}, "duplicate comb key '100'"),
    ({"10": 1.0}, "expected 3 bits, got 2 in '10'"),
    ({(1, 0): 1.0}, "expected 3 bits, got 2 in (1, 0)"),
])
def test_encode_messages_are_pinned(table, message):
    _raises_exactly(message, encode, table, 3)


@pytest.mark.parametrize("key, cell", [
    ("10", (10,)), ("2", (2,)), ("3", (3,)), ("-0", (0,)), ("1,2", (1, 2)),
    ("007,-12", (7, -12)),
])
def test_key_to_cell_reads_each_index_as_int_does(key, cell):
    assert key_to_cell(key) == cell


@pytest.mark.parametrize("key, message", [
    ("1,2,3,4", "cell index must hold 1 to 3 integers, got (1, 2, 3, 4)"),
    ("2147483648",
     "cell index (2147483648,) out of range: each index must lie in [-2147483647, 2147483647]"),
    ("", "cell key must be a non-empty string, got ''"),
    ("1,,2", "cell key must be comma-separated integers, got '1,,2'"),
    ("1.5", "cell key must be comma-separated integers, got '1.5'"),
    ("1_0", "cell key must be comma-separated integers, got '1_0'"),
    (" 2", "cell key must be comma-separated integers, got ' 2'"),
    ("+3", "cell key must be comma-separated integers, got '+3'"),
    ("1, 2", "cell key must be comma-separated integers, got '1, 2'"),
    ("+1,2", "cell key must be comma-separated integers, got '+1,2'"),
    ("1_0,2", "cell key must be comma-separated integers, got '1_0,2'"),
    (" 1,2", "cell key must be comma-separated integers, got ' 1,2'"),
    ("１,2", "cell key must be comma-separated integers, got '１,2'"),
    ("1,2 ", "cell key must be comma-separated integers, got '1,2 '"),
    ("1,", "cell key must be comma-separated integers, got '1,'"),
    ("-", "cell key must be comma-separated integers, got '-'"),
    ("--1", "cell key must be comma-separated integers, got '--1'"),
    (5, "cell key must be a non-empty string, got 5"),
])
def test_key_to_cell_messages_are_pinned(key, message):
    _raises_exactly(message, key_to_cell, key)


def test_key_to_cell_refuses_a_part_past_the_int_digit_limit():
    # the pattern passes it, but int() refuses more than 4,300 digits
    with pytest.raises(ValueError, match="^cell key must be comma-separated integers, got '1111"):
        key_to_cell("1" * 5000)


def test_a_bare_integer_cell_is_range_checked():
    mv = Multivector.scalar(1.0, 3)
    for cell in (MAX_CELL_INDEX + 1, -MAX_CELL_INDEX - 1, np.int64(2**40)):
        _raises_exactly(
            f"cell index ({int(cell)},) out of range: each index must lie in "
            f"[-{MAX_CELL_INDEX}, {MAX_CELL_INDEX}]", LatticeMultivector, {cell: mv})
    assert LatticeMultivector({-MAX_CELL_INDEX: mv}).cell_indices() == ((-MAX_CELL_INDEX,),)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from(_KEYS), _COEFF))
def test_float_tables_read_as_the_full_checks_read_them(table):
    # bit-tuple keys, and ints for the integral values an int holds exactly
    # (not -0.0), take the full checks
    spelled = {tuple(map(int, key)): int(v) if v and v.is_integer() and abs(v) < 2**53 else v
               for key, v in table.items()}
    want = encode(spelled, 3).coeffs.tobytes()
    assert encode(table, 3).coeffs.tobytes() == want
    lat = lattice_from_json(json.dumps({"0,1": table, "2": {}}))
    assert lat.cell_indices() == ((0, 1), (2,))
    assert lat._block[0].tobytes() == want
    assert not lat._block[1].any()


@pytest.mark.parametrize("read, text, key", [
    # the first key to repeat is named, not the first key seen
    (multivector_from_json, '{"001": 1, "000": 1, "000": 2, "001": 3}', "000"),
    (lattice_from_json, '{"1,0": {}, "0,0": {}, "0,0": {}, "1,0": {}}', "0,0"),
    (lattice_from_json, '{"0,0": {"000": 1}, "1,0": {"110": 1, "010": 2, "010": 3, "110": 4}}',
     "010"),
], ids=["table", "outer", "nested"])
def test_a_repeated_json_key_is_named(read, text, key):
    with pytest.raises(ValueError, match=f"^duplicate JSON key '{key}'$"):
        read(text)


def test_lattice_cells_of_other_integer_types_read_as_plain_int_tuples():
    mv = Multivector.scalar(1.0, 3)
    lat = LatticeMultivector({(1, 2): mv})
    for spelling in ([1, 2], (np.int64(1), 2)):
        assert lat.set(spelling, 2 * mv) == LatticeMultivector({(1, 2): 2 * mv})
    for cells in (LatticeMultivector({(np.int64(1), 2): mv}).cell_indices(),
                  LatticeMultivector().set((np.int64(1), 2), mv).cell_indices()):
        assert cells == ((1, 2),) and [type(p) for p in cells[0]] == [int, int]


@pytest.mark.parametrize("cell, message", [
    ("12", "cell index must hold 1 to 3 integers, got '12'"),
    (1.5, "cell index must be an integer or a tuple, got 1.5"),
])
def test_lattice_cells_that_are_not_integers_are_named(cell, message):
    mv = Multivector.scalar(1.0, 3)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        LatticeMultivector({(1, 2): mv}).set(cell, mv)


# -- wrong types and mismatched tables ---------------------------------------


def test_a_key_that_is_neither_text_nor_a_sequence_is_named():
    with pytest.raises(ValueError,
                       match="^bit-string key must be a string or sequence, got 5$"):
        comb(5)


@pytest.mark.parametrize("call, what", [
    (lambda: multivector_to_json("x"), "a Multivector"),
    (lambda: lattice_to_json("x"), "a LatticeMultivector"),
])
def test_writers_reject_the_wrong_type(call, what):
    with pytest.raises(TypeError, match=f"^expected {what}$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: encode([("000", 1.0)], 3), "table must be a mapping, got list"),
    (lambda: encode(5, 3), "table must be a mapping, got int"),
    (lambda: LatticeMultivector([1, 2]), "cells must be a mapping, got list"),
    # the scene arguments of the wrong type are named the same way
    (lambda: cube_scene(Multivector.zero(3), "redundant"), "style must be a CubeStyle, got str"),
    (lambda: lattice_scene(LatticeMultivector(), {}), "style must be a CubeStyle, got dict"),
    (lambda: lattice_scene(LatticeMultivector({(0, 0): Multivector.zero(3)}), placement=[(0, 0)]),
     "placement must be a mapping, got list"),
    (lambda: lattice_scene(LatticeMultivector({(0, 0): Multivector.zero(3)}), deformation=5),
     "deformation must be callable, got int"),
    (lambda: grid_placement(None), "cells must be an iterable of cell indices, got NoneType"),
    (lambda: grid_placement(5), "cells must be an iterable of cell indices, got int"),
])
def test_a_table_or_cells_that_is_not_a_mapping_is_named(call, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        call()


# -- the readers on arbitrary input -------------------------------------------

# ASCII integers joined by commas, as a lattice file spells a cell
_CELL_KEY = re.compile(r"-?[0-9]+(,-?[0-9]+){0,2}")
_KEY_TEXT = st.one_of(
    st.text(max_size=12),
    st.text(alphabet="-+0123456789, _\u0661", max_size=16),  # near misses
    st.lists(st.integers(-2 * MAX_CELL_INDEX, 2 * MAX_CELL_INDEX).map(str),
             min_size=1, max_size=4).map(",".join),
)


@settings(max_examples=200, deadline=None)
@given(_KEY_TEXT)
def test_a_cell_key_is_read_exactly_when_it_spells_integers_in_range(key):
    text = json.dumps({key: {}})
    parts = key.split(",")
    if _CELL_KEY.fullmatch(key) and all(abs(int(p)) <= MAX_CELL_INDEX for p in parts):
        assert lattice_from_json(text).cell_indices() == (tuple(int(p) for p in parts),)
    else:
        with pytest.raises(ValueError):
            lattice_from_json(text)


_JSON_KEYS = st.one_of(st.text(max_size=4), st.sampled_from(["000", "1", "01", "0,0", "-1,2,3"]))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers(-10**400, 10**400) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_JSON_KEYS, inner, max_size=3),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES)
def test_a_json_value_is_read_or_refused_with_a_value_error(value):
    text = json.dumps(value)  # nan and +-inf as NaN and Infinity
    for read in (multivector_from_json, lattice_from_json):
        try:
            read(text)
        except ValueError:
            pass


def test_readers_reject_a_table_of_another_dimension_and_a_lattice_that_is_a_list():
    with pytest.raises(ValueError, match="^expected 3 bits, got 2 in '00'$"):
        lattice_from_json('{"0": {"00": 1}}')
    with pytest.raises(ValueError, match="^lattice file must be a JSON object$"):
        lattice_from_json("[]")


def test_lattice_equality_with_another_type_and_repr():
    lat = LatticeMultivector({(0, 0): Multivector.zero(3), (1, 0): Multivector.zero(3)})
    assert lat.__eq__(1) is NotImplemented
    assert (lat == 1) is False
    assert repr(lat) == "LatticeMultivector(2 cells)"
