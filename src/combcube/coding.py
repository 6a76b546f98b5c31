"""Binary comb coding of multivectors, Bell-type carriers, and lattices.

A length-n bit string (A_1, ..., A_n) labels the blade
b_1^A_1 ... b_n^A_n: generator k is present exactly when A_k = 1.
With blade words as defined in :mod:`combcube.algebra` this makes
A_k equal to bit k-1 of the word, so the coding is a relabeling, not
a computation.  Coefficient tables keyed by bit strings are therefore
interchangeable with coefficient arrays, and text keys "A1A2...An"
are the canonical spelling in files.

The module also provides the entangled carrier (1 + b2 b3)/sqrt(2)
used by the teleportation network, the four-element Bell-style basis
on bits 1 and 2, and a sparse immutable lattice of dim-3 multivectors
keyed by integer cell indices.
"""

from __future__ import annotations

import json
import numbers
from typing import Mapping

import numpy as np

from .algebra import _INV_SQRT2, Multivector, _check_dim, _is_int

_LATTICE_DIM = 3


def _as_bits(key, dim: int | None = None) -> tuple[int, ...]:
    """Normalize a bit-string key: "101", (1, 0, 1) and [1, 0, 1] all work."""
    if isinstance(key, str):
        if not key or any(ch not in "01" for ch in key):
            raise ValueError(f"bit-string key must match [01]+, got {key!r}")
        bits = tuple(int(ch) for ch in key)
    else:
        try:
            bits = tuple(key)
        except TypeError:
            raise ValueError(f"bit-string key must be a string or sequence, got {key!r}")
        if not bits or any(not _is_int(b) or b not in (0, 1) for b in bits):
            raise ValueError(f"bit values must be 0 or 1, got {key!r}")
        bits = tuple(int(b) for b in bits)
    if dim is not None and len(bits) != dim:
        raise ValueError(f"expected {dim} bits, got {len(bits)} in {key!r}")
    return bits


def comb(bits) -> int:
    """Blade word of the comb labeled by (A_1, ..., A_n): A_k -> bit k-1."""
    bits = _as_bits(bits)
    word = 0
    for k, b in enumerate(bits):
        word |= b << k
    return word


def comb_bits(word: int, dim: int) -> tuple[int, ...]:
    """Inverse of :func:`comb`: extract (A_1, ..., A_dim) from a blade word."""
    _check_dim(dim)
    if not 0 <= word < (1 << dim):
        raise ValueError(f"blade word out of range for dimension {dim}: {word}")
    return tuple((word >> k) & 1 for k in range(dim))


def bits_to_key(bits) -> str:
    """Canonical text key "A1A2...An" for a bit string."""
    return "".join(str(b) for b in _as_bits(bits))


def encode(table: Mapping, dim: int) -> Multivector:
    """Build the multivector whose comb coefficients are given by ``table``.

    Keys may be bit strings ("011") or bit tuples; missing combs are
    zero.  A key of the wrong length, or two spellings of the same
    comb, is an error.
    """
    _check_dim(dim)
    coeffs = np.zeros(1 << dim)
    seen = set()
    for key, value in table.items():
        bits = _as_bits(key, dim)
        if bits in seen:
            raise ValueError(f"duplicate comb key {bits_to_key(bits)!r}")
        seen.add(bits)
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            raise ValueError(f"coefficient for {bits_to_key(bits)!r} must be a real number")
        coeffs[comb(bits)] = float(value)
    return Multivector(coeffs, dim)


def decode(mv: Multivector) -> dict[tuple[int, ...], float]:
    """Total coefficient table of a multivector, keyed by bit tuples."""
    if not isinstance(mv, Multivector):
        raise TypeError("expected a Multivector")
    return {
        comb_bits(word, mv.dim): float(mv.coeffs[word])
        for word in range(1 << mv.dim)
    }


def bell_carrier() -> Multivector:
    """The entangled carrier (1 + b2 b3)/sqrt(2) on bits 2 and 3."""
    coeffs = np.zeros(8)
    coeffs[0b000] = _INV_SQRT2
    coeffs[0b110] = _INV_SQRT2
    return Multivector(coeffs, 3)


def bell_basis() -> tuple[Multivector, ...]:
    """Orthonormal Bell-style quadruple on bits 1 and 2, inside Cl(3).

    Order: (1 + b1 b2)/sqrt(2), (1 - b1 b2)/sqrt(2),
    (b1 + b2)/sqrt(2), (b1 - b2)/sqrt(2).
    """
    out = []
    for i, j, sgn in ((0b000, 0b011, 1.0), (0b000, 0b011, -1.0),
                      (0b001, 0b010, 1.0), (0b001, 0b010, -1.0)):
        coeffs = np.zeros(8)
        coeffs[i] = _INV_SQRT2
        coeffs[j] = sgn * _INV_SQRT2
        out.append(Multivector(coeffs, 3))
    return tuple(out)


def _as_cell(cell) -> tuple[int, ...]:
    if _is_int(cell):
        return (int(cell),)
    try:
        parts = tuple(cell)
    except TypeError:
        raise ValueError(f"cell index must be an integer or a tuple, got {cell!r}")
    if not 1 <= len(parts) <= 3 or not all(_is_int(p) for p in parts):
        raise ValueError(f"cell index must hold 1 to 3 integers, got {cell!r}")
    return tuple(int(p) for p in parts)


class LatticeMultivector:
    """Immutable sparse map from cell index to a dim-3 multivector.

    Cells not present read as the zero multivector; updates return a
    new lattice and leave the original untouched.  Two cells that are
    equal after zero-padding to three indices, such as (0, 0) and
    (0, 0, 0), would be drawn at one place, so they are an error.
    """

    __slots__ = ("_cells",)

    def __init__(self, cells: Mapping | None = None):
        stored: dict[tuple[int, ...], Multivector] = {}
        padded: dict[tuple[int, ...], tuple[int, ...]] = {}
        if cells is not None:
            for cell, mv in cells.items():
                key = _as_cell(cell)
                other = padded.setdefault(key + (0,) * (3 - len(key)), key)
                if other is not key:
                    raise ValueError(f"cells {other} and {key} are the same cell")
                if not isinstance(mv, Multivector):
                    raise TypeError(f"cell {key} value must be a Multivector")
                if mv.dim != _LATTICE_DIM:
                    raise ValueError(
                        f"cell {key} must hold a dim-{_LATTICE_DIM} multivector, got dim {mv.dim}"
                    )
                stored[key] = mv
        self._cells = stored

    def cell_indices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self._cells))

    def items(self) -> tuple[tuple[tuple[int, ...], Multivector], ...]:
        return tuple(sorted(self._cells.items()))

    def get(self, cell) -> Multivector:
        return self._cells.get(_as_cell(cell), Multivector.zero(_LATTICE_DIM))

    def set(self, cell, mv: Multivector) -> "LatticeMultivector":
        updated = dict(self._cells)
        updated[_as_cell(cell)] = mv
        return LatticeMultivector(updated)

    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, cell) -> bool:
        return _as_cell(cell) in self._cells

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatticeMultivector):
            return NotImplemented
        return self.items() == other.items()

    __hash__ = None

    def __repr__(self) -> str:
        return f"LatticeMultivector({len(self._cells)} cells)"


def lattice_set(lat: LatticeMultivector, cell, mv: Multivector) -> LatticeMultivector:
    return lat.set(cell, mv)


def lattice_get(lat: LatticeMultivector, cell) -> Multivector:
    return lat.get(cell)


# -- file formats -----------------------------------------------------------
# Coefficient tables are JSON objects {"A1A2...An": number}; lattice files
# are JSON objects {"i,j,k": table}.  Numbers are written with 17
# significant digits so that every float64 survives a round trip.


def _unique_keys(pairs) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate JSON key {key!r}")
        obj[key] = value
    return obj


def _load_json(text: str):
    """json.loads, but a key repeated within one object is a ValueError."""
    return json.loads(text, object_pairs_hook=_unique_keys)


def _fmt_number(v: float) -> str:
    return format(float(v), ".17g")


def multivector_to_json(mv: Multivector) -> str:
    items = sorted((bits_to_key(bits), value) for bits, value in decode(mv).items())
    lines = [f'  "{key}": {_fmt_number(value)}' for key, value in items]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def multivector_from_json(text: str, dim: int | None = None) -> Multivector:
    obj = _load_json(text)
    if not isinstance(obj, dict):
        raise ValueError("coefficient table must be a JSON object")
    if not obj:
        if dim is None:
            raise ValueError("cannot infer dimension from an empty table")
        return Multivector.zero(dim)
    lengths = {len(k) if isinstance(k, str) else -1 for k in obj}
    if len(lengths) != 1 or -1 in lengths:
        raise ValueError("table keys must be bit strings of one common length")
    inferred = lengths.pop()
    if dim is not None and dim != inferred:
        raise ValueError(f"table is dimension {inferred}, expected {dim}")
    return encode(obj, inferred)


def cell_to_key(cell) -> str:
    return ",".join(str(p) for p in _as_cell(cell))


def key_to_cell(key: str) -> tuple[int, ...]:
    if not isinstance(key, str) or not key:
        raise ValueError(f"cell key must be a non-empty string, got {key!r}")
    try:
        parts = tuple(int(p) for p in key.split(","))
    except ValueError:
        raise ValueError(f"cell key must be comma-separated integers, got {key!r}")
    return _as_cell(parts)


def lattice_to_json(lat: LatticeMultivector) -> str:
    if not isinstance(lat, LatticeMultivector):
        raise TypeError("expected a LatticeMultivector")
    if len(lat) == 0:
        return "{}\n"
    blocks = []
    for cell, mv in lat.items():
        table = multivector_to_json(mv).strip()
        indented = "\n".join("  " + line for line in table.splitlines())
        blocks.append(f'  "{cell_to_key(cell)}": {indented.lstrip()}')
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def lattice_from_json(text: str) -> LatticeMultivector:
    obj = _load_json(text)
    if not isinstance(obj, dict):
        raise ValueError("lattice file must be a JSON object")
    cells = {}
    for key, table in obj.items():
        cell = key_to_cell(key)
        if cell in cells:
            raise ValueError(f"cell key {key!r} repeats cell {cell_to_key(cell)!r}")
        if not isinstance(table, dict):
            raise ValueError(f"cell {key!r} must map to a coefficient table")
        cells[cell] = encode(table, _LATTICE_DIM)
    return LatticeMultivector(cells)
