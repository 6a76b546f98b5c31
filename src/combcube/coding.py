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
keyed by integer cell indices.  A lattice is stored as its sorted cell
indices and one read-only (ncells, 8) coefficient block, row i holding
cell i; the JSON codecs, the gates and the renderer work on the block,
and Multivectors are built only when ``items`` is read.  A cell of 1
to 3 indices sits at the grid place (i, j, k) it pads to with zeros.
Every lattice comes from one builder, which rejects two cells at one
place.  ``set`` pads the cell it is given and scans the held cells for
that place, so on a held place it replaces that row under the stored
spelling.

The lattice reader checks each cell key and table in file order.  The
common case is recognised by exact type first: a key that parses to
plain ints needs only its length and range checked, and a table whose
keys are all canonical and whose values are all floats is copied
without the per-value checks.  Anything else takes the full checks of
:func:`encode`, so every message is the same either way.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from typing import Mapping

import numpy as np

from .algebra import _INV_SQRT2, Multivector, _check_dim, _check_int, _frozen, _is_int, _is_real

_LATTICE_DIM = 3

# Largest |index| in a lattice cell: cell indices fit a signed 32-bit
# integer, and grid offsets and corner coordinates stay exact floats.
MAX_CELL_INDEX = 2**31 - 1


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
    _check_int(word, "blade word")
    if not 0 <= word < (1 << dim):
        raise ValueError(f"blade word out of range for dimension {dim}: {word}")
    word = int(word)
    return tuple((word >> k) & 1 for k in range(dim))


@lru_cache(maxsize=None)
def _key_words(dim: int) -> dict[str, int]:
    """Canonical key -> blade word for every comb of Cl(dim), in key order.

    Read as a binary number, the key "A1...An" is the blade word with its
    bits reversed, so counting that number up lists the keys sorted.
    Shared by every caller, so it must not be mutated.
    """
    keys = (format(r, f"0{dim}b") for r in range(1 << dim))
    return {key: int(key[::-1], 2) for key in keys}


def encode(table: Mapping, dim: int) -> Multivector:
    """Build the multivector whose comb coefficients are given by ``table``.

    Keys may be bit strings ("011") or bit tuples; missing combs are
    zero.  A key of the wrong length, or two spellings of the same
    comb, is an error.
    """
    dim = _check_dim(dim)
    if not isinstance(table, Mapping):
        raise TypeError(f"table must be a mapping, got {type(table).__name__}")
    coeffs = [0.0] * (1 << dim)
    _fill(coeffs, 0, table, dim)
    return Multivector._of(np.array(coeffs), dim)


def _fill(out: list, start: int, table: Mapping, dim: int) -> None:
    """Write ``table``'s coefficients into ``out[start:start + 2**dim]``.

    The checks and messages of :func:`encode`, which is this on a zero
    list; the slice must hold zeros on entry.  Non-finite values are
    left for the caller to reject.
    """
    words = _key_words(dim)
    if (type(table) is dict and all([type(v) is float for v in table.values()])
            and words.keys() >= table.keys()):
        # The common case, checked by exact type: a dict's canonical text
        # keys name distinct combs, and a float needs no conversion.
        for key, value in table.items():
            out[start + words[key]] = value
        return
    seen = set()
    for key, value in table.items():
        word = words.get(key) if isinstance(key, str) else None
        if word is None:
            word = comb(_as_bits(key, dim))
        if word in seen:
            raise ValueError(f"duplicate comb key {format(word, f'0{dim}b')[::-1]!r}")
        seen.add(word)
        if not _is_real(value):
            raise ValueError(
                f"coefficient for {format(word, f'0{dim}b')[::-1]!r} must be a real number")
        try:
            out[start + word] = float(value)
        except OverflowError:  # an integer beyond the float range
            raise ValueError(
                f"coefficient for {format(word, f'0{dim}b')[::-1]!r} must be finite")


_BELL_CARRIER = Multivector.blade(0b000, 3, _INV_SQRT2) + Multivector.blade(0b110, 3, _INV_SQRT2)


def bell_carrier() -> Multivector:
    """The entangled carrier (1 + b2 b3)/sqrt(2) on bits 2 and 3.

    The carrier is a constant: every call returns the same shared,
    immutable Multivector, built at import with read-only coefficients.
    """
    return _BELL_CARRIER


def bell_basis() -> tuple[Multivector, ...]:
    """Orthonormal Bell-style quadruple on bits 1 and 2, inside Cl(3).

    Order: (1 + b1 b2)/sqrt(2), (1 - b1 b2)/sqrt(2),
    (b1 + b2)/sqrt(2), (b1 - b2)/sqrt(2).
    """
    return tuple(Multivector.blade(i, 3, _INV_SQRT2) + Multivector.blade(j, 3, sgn * _INV_SQRT2)
                 for i, j, sgn in ((0b000, 0b011, 1.0), (0b000, 0b011, -1.0),
                                   (0b001, 0b010, 1.0), (0b001, 0b010, -1.0)))


def _as_cell(cell) -> tuple[int, ...]:
    """A checked cell index: 1 to 3 integers, each within +-MAX_CELL_INDEX.

    A tuple of 1 to 3 plain ints in range, what ``key_to_cell`` and most
    callers pass, is recognised by exact type and returned as given;
    anything else takes the full checks.
    """
    if (type(cell) is tuple and 0 < len(cell) <= 3
            and all([type(p) is int and -MAX_CELL_INDEX <= p <= MAX_CELL_INDEX for p in cell])):
        return cell
    if _is_int(cell):
        parts = (int(cell),)
    else:
        try:
            parts = tuple(cell)
        except TypeError:
            raise ValueError(f"cell index must be an integer or a tuple, got {cell!r}")
        if not all(_is_int(p) for p in parts):
            raise ValueError(f"cell index must hold 1 to 3 integers, got {cell!r}")
        parts = tuple(int(p) for p in parts)
    if not 1 <= len(parts) <= 3:
        raise ValueError(f"cell index must hold 1 to 3 integers, got {cell!r}")
    if max(map(abs, parts)) > MAX_CELL_INDEX:
        raise ValueError(
            f"cell index {parts} out of range: each index must lie in "
            f"[-{MAX_CELL_INDEX}, {MAX_CELL_INDEX}]")
    return parts


def _padded(cell: tuple[int, ...]) -> tuple[int, int, int]:
    """The grid place (i, j, k) of a checked cell: missing indices are 0."""
    return cell + (0,) * (3 - len(cell))


def _cell_coeffs(cell: tuple[int, ...], mv) -> np.ndarray:
    if not isinstance(mv, Multivector):
        raise TypeError(f"cell {cell} value must be a Multivector")
    if mv.dim != _LATTICE_DIM:
        raise ValueError(
            f"cell {cell} must hold a dim-{_LATTICE_DIM} multivector, got dim {mv.dim}")
    return mv.coeffs


class LatticeMultivector:
    """Immutable sparse map from cell index to a dim-3 multivector.

    Cells are read through ``items`` and ``cell_indices``, in sorted
    order; updates return a new lattice and leave the original
    untouched.  Two cells that are equal after zero-padding to three
    indices, such as (0, 0) and (0, 0, 0), would be drawn at one place,
    so they are an error, and ``set`` pads the same way: on a lattice
    holding (0, 0), ``set`` at (0, 0, 0) replaces it and keeps the
    spelling (0, 0).  Each index lies within +-MAX_CELL_INDEX.
    """

    __slots__ = ("_cells", "_block")

    def __init__(self, cells: Mapping | None = None):
        if cells is not None and not isinstance(cells, Mapping):
            raise TypeError(f"cells must be a mapping, got {type(cells).__name__}")
        keys, rows = [], []
        for cell, mv in cells.items() if cells is not None else ():
            keys.append(_as_cell(cell))
            rows.append(_cell_coeffs(keys[-1], mv))
        self._build(keys, np.array(rows).reshape(-1, 1 << _LATTICE_DIM))

    def _build(self, cells: list, block: np.ndarray) -> "LatticeMultivector":
        """Every lattice's one builder; returns ``self``.

        ``cells`` are checked indices in input order and ``block`` their
        (n, 8) rows.  The rows follow the sorted cells into a new block,
        checked finite and frozen by ``_frozen``; then two cells at one
        grid place are an error naming both, in input order.
        """
        order = sorted(range(len(cells)), key=cells.__getitem__)
        block = _frozen(block[order], "coefficients")
        rows: dict[tuple[int, int, int], int] = {}  # place -> its first row
        for row, cell in enumerate(cells):
            first = rows.setdefault(_padded(cell), row)
            if first != row:
                raise ValueError(f"cells {cells[first]} and {cells[row]} are the same cell")
        self._cells, self._block = tuple([cells[i] for i in order]), block
        return self

    def _with_block(self, block: np.ndarray) -> "LatticeMultivector":
        """These cells over ``block``, new rows in the same order that
        nothing else holds, checked finite and frozen by ``_frozen``."""
        lat = LatticeMultivector.__new__(LatticeMultivector)
        lat._cells, lat._block = self._cells, _frozen(block, "coefficients")
        return lat

    def cell_indices(self) -> tuple[tuple[int, ...], ...]:
        return self._cells

    def items(self) -> tuple[tuple[tuple[int, ...], Multivector], ...]:
        return tuple(
            (cell, Multivector._of(row.copy(), _LATTICE_DIM))
            for cell, row in zip(self._cells, self._block)
        )

    def set(self, cell, mv: Multivector) -> "LatticeMultivector":
        cell = _as_cell(cell)
        coeffs = _cell_coeffs(cell, mv)
        place = _padded(cell)
        row = next((r for r, held in enumerate(self._cells) if _padded(held) == place), None)
        if row is None:
            return LatticeMultivector.__new__(LatticeMultivector)._build(
                [*self._cells, cell], np.vstack([self._block, coeffs]))
        block = self._block.copy()
        block[row] = coeffs
        return self._with_block(block)

    def __len__(self) -> int:
        return len(self._cells)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatticeMultivector):
            return NotImplemented
        return self._cells == other._cells and bool(np.array_equal(self._block, other._block))

    __hash__ = None

    def __repr__(self) -> str:
        return f"LatticeMultivector({len(self._cells)} cells)"


# -- file formats -----------------------------------------------------------
# Coefficient tables are JSON objects {"A1A2...An": number}; lattice files
# are JSON objects {"i,j,k": table}.  Numbers are written with 17
# significant digits, and -0.0 as "-0.0" (JSON reads "-0" as the integer
# 0), so that every float64 survives a round trip.


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):  # some key repeats: name the first that does
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate JSON key {key!r}")
            seen.add(key)
    return obj


def _load_json(text: str):
    """json.loads, but a key repeated within one object, or nesting too
    deep for the parser, is a ValueError."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("JSON input nests too deeply") from None


def _fmt_number(v: float) -> str:
    return format(float(v), ".17g")


def _json_number(v: float) -> str:
    text = _fmt_number(v)
    return "-0.0" if text == "-0" else text


def multivector_to_json(mv: Multivector) -> str:
    if not isinstance(mv, Multivector):
        raise TypeError("expected a Multivector")
    coeffs = mv.coeffs.tolist()
    lines = [f'  "{key}": {_json_number(coeffs[word])}' for key, word in _key_words(mv.dim).items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def multivector_from_json(text: str) -> Multivector:
    obj = _load_json(text)
    if not isinstance(obj, dict):
        raise ValueError("coefficient table must be a JSON object")
    if not obj:
        raise ValueError("cannot infer dimension from an empty table")
    lengths = {len(k) if isinstance(k, str) else -1 for k in obj}
    if len(lengths) != 1 or -1 in lengths:
        raise ValueError("table keys must be bit strings of one common length")
    return encode(obj, lengths.pop())


# ASCII integers joined by commas: no "+", space, "_" or non-ASCII digit,
# all of which int() would take
_CELL_KEY = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")


def key_to_cell(key: str) -> tuple[int, ...]:
    if not isinstance(key, str) or not key:
        raise ValueError(f"cell key must be a non-empty string, got {key!r}")
    try:  # int() also refuses a part past its digit limit
        if _CELL_KEY.fullmatch(key) is None:
            raise ValueError
        parts = tuple(map(int, key.split(",")))
    except ValueError:
        raise ValueError(f"cell key must be comma-separated integers, got {key!r}") from None
    return _as_cell(parts)


def lattice_to_json(lat: LatticeMultivector) -> str:
    """The lattice file; each distinct coefficient is formatted once, found
    by its 64-bit pattern, so -0.0 keeps its own text."""
    if not isinstance(lat, LatticeMultivector):
        raise TypeError("expected a LatticeMultivector")
    if len(lat) == 0:
        return "{}\n"
    words = _key_words(_LATTICE_DIM)
    template = '  "%s": {\n' + ",\n".join(f'    "{key}": %s' for key in words) + "\n  }"
    ordered = lat._block[:, list(words.values())]
    patterns = ordered.view(np.int64)
    values = dict(zip(patterns.ravel().tolist(), ordered.ravel().tolist()))
    texts = {bits: _json_number(value) for bits, value in values.items()}
    blocks = [template % (",".join(map(str, cell)), *map(texts.__getitem__, row))
              for cell, row in zip(lat.cell_indices(), patterns.tolist())]
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def lattice_from_json(text: str) -> LatticeMultivector:
    """Read a lattice file straight into its coefficient block.

    Each cell key is checked once and each table as :func:`encode`
    checks it; then, as for every lattice, the whole block is checked
    finite once and no two cells may be equal after zero-padding.
    """
    obj = _load_json(text)
    if not isinstance(obj, dict):
        raise ValueError("lattice file must be a JSON object")
    size = 1 << _LATTICE_DIM
    coeffs = [0.0] * (size * len(obj))
    rows: dict[tuple[int, ...], int] = {}  # cell -> its row in file order
    for key, table in obj.items():
        cell = key_to_cell(key)
        if cell in rows:
            raise ValueError(f"cell key {key!r} repeats cell {','.join(map(str, cell))!r}")
        if not isinstance(table, dict):
            raise ValueError(f"cell {key!r} must map to a coefficient table")
        _fill(coeffs, size * len(rows), table, _LATTICE_DIM)
        rows[cell] = len(rows)
    return LatticeMultivector.__new__(LatticeMultivector)._build(
        list(rows), np.array(coeffs).reshape(-1, size))
