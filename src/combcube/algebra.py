"""Dense real Euclidean Clifford algebra Cl(n).

A multivector is a flat array of 2**n coefficients, one per basis
blade.  Blades are indexed by n-bit words: bit k-1 of the word records
whether the orthonormal generator b_k is present, so b_1 is word
0b001, b_1 b_2 is word 0b011 and the scalar blade is word 0.  Every
module in this package states coefficients in this one convention.

Generators square to +1 and anticommute, so the product of two blades
lands on the XOR of their words; the sign is (-1)**T where T counts
the transpositions needed to sort the merged generator sequence.  A
slow symbolic reordering oracle in the test suite pins this rule down
independently.  In closed form, blade i times blade j has sign
(-1)**popcount(j & P(i)), where bit k of P(i) is the parity of
popcount(i >> (k+1)); see the bitmap blades of Dorst, Fontijne & Mann,
Geometric Algebra for Computer Science (2007), ch. 19.

Every module checks its input with the rules kept here: integers
(``_is_int``, ``_check_int``), reals (``_is_real``, ``_as_float``,
``_check_real``), outside arrays (``_real_array``) and array finiteness
(``_all_finite``).  A Multivector or StateVector is built one of two
ways.  The public constructors read outside input: they copy it and
apply every rule above.  ``Multivector._of`` and ``StateVector._of``
wrap an array the package has just made and nothing else holds: they
check finiteness and freeze it (``_frozen``, the constructors' last
step), with no copy and no second read.
"""

from __future__ import annotations

import math
import numbers
import sys
from functools import lru_cache
from itertools import chain

import numpy as np

MAX_DIM = 16

# Products up to this dimension take every blade pair from a cached table;
# larger ones take nonzero rows x nonzero columns, a few whole rows per step.
# The second path alone is bit-identical but slower at dim 3 (2-CPU Xeon,
# best of 7): geometric_product(payload, bell_carrier()) 8-11 -> 19-24 us.
_ALL_PAIRS_MAX_DIM = 5
# Most pairs per step, unless one row has more.  Each step's index, sign
# and product arrays are then 8192 * 8 bytes = 64 KiB, under glibc's
# default 128 KiB mmap threshold, so they come from the heap and are not
# mapped and unmapped on every step; np.add.at adds in the same order.
_CHUNK_PAIRS = 1 << 13

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_FLOAT64 = np.dtype(np.float64)
_BOOLS = frozenset((bool, np.bool_))


def _is_int(k) -> bool:
    """The package's integer rule: any numbers.Integral except bool.

    Plain ints are tested first: the abstract-class check costs about a
    microsecond, and every Multivector and gate checks an integer.
    """
    return type(k) is int or (isinstance(k, numbers.Integral) and not isinstance(k, bool))


def _check_int(value, name: str) -> None:
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _is_real(v) -> bool:
    """The package's real-number rule: any numbers.Real except bool.  Plain
    floats and ints skip the abstract-class check (about half a microsecond)."""
    return type(v) in (float, int) or (isinstance(v, numbers.Real) and not isinstance(v, bool))


def _as_float(value, name: str) -> float:
    """A real ``value`` as a float (an int past the float range is +-inf), else a ValueError."""
    if type(value) not in (float, int) and not _is_real(value):  # plain numbers skip a call
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _check_real(value, name: str) -> float:
    """A real ``value`` as a finite float, else a ValueError naming ``name``."""
    x = value if type(value) is float else _as_float(value, name)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def _quiet_float_errors():
    """No numpy warning for an overflow that the finiteness check then reports."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _check_dim(dim) -> int:
    _check_int(dim, "dimension")
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"dimension must be in [1, {MAX_DIM}], got {dim}")
    return int(dim)


def _all_finite(arr: np.ndarray) -> np.bool_:
    """Whether every entry of ``arr`` is finite: the package's one check.

    Counting the finite entries skips the Python layer of ``ndarray.all``,
    half the cost on a few entries, and never warns on inf or nan.
    """
    return np.count_nonzero(np.isfinite(arr)) == arr.size


def _real_array(values, field: str) -> np.ndarray:
    """``values`` as a float64 array by the real-number rule, else a ValueError
    naming ``field``.  numpy infers the dtype (a cast to float would drop an
    imaginary part or parse text), and the float and integer kinds pass; so
    does an object array of reals.  A list or tuple must hold no bool, which
    numpy reads among numbers as 0 or 1."""
    try:
        arr = np.array(values)
        if type(values) in (list, tuple):
            items = values
            if arr.ndim > 1:  # nested rows, flattened lazily; a loop costs 0.2 us
                for _ in range(arr.ndim - 1):
                    items = chain.from_iterable(items)
            if not _BOOLS.isdisjoint(map(type, items)):
                raise TypeError
        if arr.dtype is not _FLOAT64:
            kind = arr.dtype.kind
            if kind not in "fiu" and not (kind == "O" and all(map(_is_real, arr.flat))):
                raise TypeError
            arr = arr.astype(np.float64)
    except OverflowError:  # an int past the float range
        raise ValueError(f"{field} must be finite") from None
    except (TypeError, ValueError):  # the kinds above, ragged rows
        raise ValueError(f"{field} must be an array of real numbers") from None
    return arr


def _real_vector(values, dim, field: str, where: str = "") -> tuple[np.ndarray, int]:
    """Multivector coefficients or StateVector amplitudes, named by the plural
    ``field``, as a read-only flat array of 2**dim finite entries and ``dim``
    (from the count when None); a count error adds ``where``, formatted with dim."""
    arr = _real_array(values, field)
    if arr.ndim != 1:  # a copy, so no writeable base is left under it
        arr = arr.flatten()
    if dim is None:
        if arr.size == 0 or arr.size & (arr.size - 1):
            raise ValueError(f"{field[:-1]} count must be a power of two, got {arr.size}")
        dim = arr.size.bit_length() - 1
    dim = _check_dim(dim)
    if arr.size != (1 << dim):
        raise ValueError(f"expected {1 << dim} {field}{where.format(dim)}, got {arr.size}")
    return _frozen(arr, field), dim


def _frozen(arr: np.ndarray, field: str) -> np.ndarray:
    """``arr`` made read-only if every entry is finite, else a ValueError
    "<field> must be finite".  ``arr`` must own its data, or a writeable
    base would be left under the frozen view."""
    if not _all_finite(arr):
        raise ValueError(f"{field} must be finite")
    arr.setflags(write=False)
    return arr


def blade_product(m1: int, m2: int, dim: int) -> tuple[int, int]:
    """Multiply two basis blades given as bit words.

    Returns ``(word, sign)`` with ``word = m1 ^ m2`` and the sign
    (-1)**popcount(m2 & P(m1)) read from the product's word tables: the
    exponent counts, for each generator of ``m2``, the generators of
    ``m1`` strictly above it, one anticommuting swap each.  Repeated
    generators annihilate with a +1 square.
    """
    _check_dim(dim)
    _check_int(m1, "blade word")
    _check_int(m2, "blade word")
    m1, m2 = int(m1), int(m2)
    size = 1 << dim
    if not (0 <= m1 < size and 0 <= m2 < size):
        raise ValueError(f"blade word out of range for Cl({dim}): {m1}, {m2}")
    _, parity_sign, masks = _word_tables(dim)
    return m1 ^ m2, int(parity_sign[masks[m1] & m2])


class Multivector:
    """Immutable element of Cl(dim) with dense float64 coefficients.

    ``coeffs[m]`` is the coefficient of the blade with word ``m``; the
    backing array is read-only, owned and finite.  ``Multivector(coeffs)``
    copies and checks outside input; package results come from ``_of``.
    """

    __slots__ = ("_dim", "_coeffs")

    def __init__(self, coeffs, dim: int | None = None):
        self._coeffs, self._dim = _real_vector(coeffs, dim, "coefficients", " for Cl({})")

    @classmethod
    def _of(cls, arr: np.ndarray, dim: int) -> "Multivector":
        """A Multivector over ``arr``, a flat float64 array of 2**dim entries
        that the package has just allocated and nothing else holds, and
        ``dim``, a checked int: finite and frozen as ``__init__``'s copy is,
        but neither copied nor read again as outside input."""
        mv = cls.__new__(cls)
        mv._coeffs, mv._dim = _frozen(arr, "coefficients"), dim
        return mv

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    @classmethod
    def zero(cls, dim: int) -> "Multivector":
        return cls.blade(0, dim, 0.0)

    @classmethod
    def scalar(cls, value: float, dim: int) -> "Multivector":
        return cls.blade(0, dim, value)

    @classmethod
    def blade(cls, word: int, dim: int, coeff: float = 1.0) -> "Multivector":
        dim = _check_dim(dim)
        _check_int(word, "blade word")
        if not 0 <= word < (1 << dim):
            raise ValueError(f"blade word out of range for Cl({dim}): {word}")
        arr = np.zeros(1 << dim)
        arr[word] = _as_float(coeff, "coefficient")
        return cls._of(arr, dim)

    @classmethod
    def basis_vector(cls, k: int, dim: int) -> "Multivector":
        """The generator b_k, 1-based."""
        _check_dim(dim)
        _check_int(k, "generator index")
        if not 1 <= k <= dim:
            raise ValueError(f"generator index must be in [1, {dim}], got {k}")
        return cls.blade(1 << (k - 1), dim)

    def norm(self) -> float:
        """Euclidean length of the coefficients: the square root of their dot
        product, or ``math.hypot`` when that product leaves the normal floats."""
        c = self._coeffs
        with _quiet_float_errors():
            square = float(np.dot(c, c))
        if square == math.inf or (square < sys.float_info.min and c.any()):
            return math.hypot(*c.tolist())
        return math.sqrt(square)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self._dim == other._dim and bool(np.array_equal(self._coeffs, other._coeffs))

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        dim = _check_same_dim(self, other)
        with _quiet_float_errors():
            return Multivector._of(self._coeffs + other._coeffs, dim)

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        dim = _check_same_dim(self, other)
        with _quiet_float_errors():
            return Multivector._of(self._coeffs - other._coeffs, dim)

    def __neg__(self):
        return Multivector._of(-self._coeffs, self._dim)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        return self.__rmul__(other)

    def __rmul__(self, other):
        if not _is_real(other):
            return NotImplemented
        with _quiet_float_errors():
            return Multivector._of(self._coeffs * _as_float(other, "scalar"), self._dim)

    def __truediv__(self, other):
        if not _is_real(other):
            return NotImplemented
        with _quiet_float_errors():
            return Multivector._of(self._coeffs / _as_float(other, "scalar"), self._dim)

    def __repr__(self) -> str:
        terms = []
        for word in np.nonzero(self._coeffs)[0]:
            c = self._coeffs[word]
            label = _blade_label(int(word))
            terms.append(f"{c:g}" if label == "1" else f"{c:g} {label}")
        expr = " + ".join(terms).replace("+ -", "- ") if terms else "0"
        return f"Multivector(dim={self._dim}: {expr})"


def _blade_label(word: int) -> str:
    if word == 0:
        return "1"
    indices = [k + 1 for k in range(MAX_DIM) if (word >> k) & 1]
    if indices[-1] <= 9:
        return "b" + "".join(str(k) for k in indices)
    return "b[" + ",".join(str(k) for k in indices) + "]"


def _check_same_dim(a: Multivector, b: Multivector) -> int:
    if not isinstance(a, Multivector) or not isinstance(b, Multivector):
        raise TypeError("expected Multivector operands")
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return a.dim


@lru_cache(maxsize=None)
def _word_tables(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per word w: its grade, (-1)**grade, and P(w) of the module docstring."""
    words = np.arange(1 << dim)
    grades = sum((words >> k) & 1 for k in range(dim))
    masks = np.zeros_like(words)
    for shift in range(1, dim):
        masks ^= words >> shift
    tables = (grades, (-1.0) ** grades, masks)
    for table in tables:
        table.setflags(write=False)
    return tables


def _pairs(rows: np.ndarray, cols: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Target words and signs of the blade products rows x cols, i-major."""
    _, parity_sign, masks = _word_tables(dim)
    return (rows[:, None] ^ cols).ravel(), parity_sign[masks[rows][:, None] & cols].ravel()


@lru_cache(maxsize=None)
def _all_pairs(dim: int) -> tuple[np.ndarray, np.ndarray]:
    words = np.arange(1 << dim)
    idx, sign = _pairs(words, words, dim)
    idx.setflags(write=False)
    sign.setflags(write=False)
    return idx, sign


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Bilinear extension of the blade product to whole multivectors.

    Terms are added in i-major, j-minor order of the blade pairs.  Above
    Cl(5) the cost is nnz(a)*nnz(b) pairs, summed in bounded memory; a
    dense Cl(16) product is 4**16 pairs and takes tens of seconds, so
    MAX_DIM = 16 is practical for sparse operands.
    """
    dim = _check_same_dim(a, b)
    ca, cb = a.coeffs, b.coeffs
    if dim <= _ALL_PAIRS_MAX_DIM:
        idx, sign = _all_pairs(dim)
        return Multivector._of(np.bincount(idx, sign * (ca[:, None] * cb).ravel(), 1 << dim), dim)
    out = np.zeros(1 << dim)
    rows, cols = np.flatnonzero(ca), np.flatnonzero(cb)
    step = max(1, _CHUNK_PAIRS // max(1, cols.size))
    with _quiet_float_errors():  # an overflow reaches the check in _of as inf or nan
        for start in range(0, rows.size, step):
            i = rows[start : start + step]
            idx, sign = _pairs(i, cols, dim)
            np.add.at(out, idx, sign * (ca[i][:, None] * cb[cols]).ravel())
    return Multivector._of(out, dim)


def grade_projection(a: Multivector, g: int) -> Multivector:
    """Keep only the coefficients of blades with exactly g generators."""
    if not isinstance(a, Multivector):
        raise TypeError("expected a Multivector")
    _check_int(g, "grade")
    if not 0 <= g <= a.dim:
        raise ValueError(f"grade must be in [0, {a.dim}], got {g}")
    mask = _word_tables(a.dim)[0] == g
    return Multivector._of(np.where(mask, a.coeffs, 0.0), a.dim)
