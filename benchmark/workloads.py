"""The benchmark's three closed-loop workloads and their output checks.

A workload is an input stream, a request and a check.  The stream draws
every input from a seeded numpy Generator and never calls combcube.  The
request is the timed call sequence; it reaches combcube only through
the attributes of the package object it is handed, so a tracer can wrap
them.  The check compares the outputs with references written here,
independently of combcube, and raises CheckFailed on the first mismatch.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np


class CheckFailed(Exception):
    """An output differs from its reference."""


class Workload(NamedTuple):
    name: str
    inputs: Callable[[np.random.Generator], Iterator]
    request: Callable
    check: Callable


# -- independent references ---------------------------------------------------

# Blade word shown by each class of cube element: corners the scalar, edges
# along x/y/z the generators b1/b2/b3, walls the bivectors of their plane,
# the interior body the pseudoscalar.
ELEMENT_WORDS = {
    "corner": 0b000,
    "edge-x": 0b001,
    "edge-y": 0b010,
    "edge-z": 0b100,
    "wall-xy": 0b011,
    "wall-xz": 0b101,
    "wall-yz": 0b110,
    "interior": 0b111,
}
# Elements drawn per cube in redundant mode: 8 corners, 12 edges, 6 walls, 1 body.
CUBE_CLASSES = Counter({
    "corner": 8, "edge-x": 4, "edge-y": 4, "edge-z": 4,
    "wall-xy": 2, "wall-xz": 2, "wall-yz": 2, "interior": 1,
})


def ref_hex(x: float) -> str:
    """#RRGGBB display colour of a real value.

    The hue nu solves x (1 - sin 2 pi nu) = cos 2 pi nu on [0, 1); its
    closed form is nu = 1/4 - arccot(x)/pi with arccot on (0, pi).  The
    hue becomes a fully saturated colour through the six-sector ramp,
    and each channel becomes a byte scaled by 255 and rounded half up.
    """
    nu = 0.25 - math.atan2(1.0, x) / math.pi
    if nu < 0.0:
        nu += 1.0
    if nu >= 1.0:
        nu = 0.0
    h6 = 6.0 * nu
    ramp = 1.0 - abs(h6 % 2.0 - 1.0)
    rgb = ((1.0, ramp, 0.0), (ramp, 1.0, 0.0), (0.0, 1.0, ramp),
           (0.0, ramp, 1.0), (ramp, 0.0, 1.0), (1.0, 0.0, ramp))[min(5, int(h6))]
    return "#" + "".join(f"{int(min(1.0, max(0.0, c)) * 255.0 + 0.5):02X}" for c in rgb)


def _parity(words: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each non-negative word below 2**32."""
    x = words.copy()
    for shift in (16, 8, 4, 2, 1):
        x ^= x >> shift
    return x & 1


def ref_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Geometric product of two Cl(n) coefficient arrays, over nonzero pairs.

    Blade i times blade j lands on word i ^ j with sign
    (-1)**popcount(j & P(i)), where bit k of P(i) is the parity of
    popcount(i >> (k + 1)): each generator of j is passed by the
    generators of i above it.
    """
    dim = a.size.bit_length() - 1
    i = np.flatnonzero(a)
    j = np.flatnonzero(b)
    p = np.zeros_like(i)
    for k in range(dim):
        p |= _parity(i >> (k + 1)) << k
    sign = 1.0 - 2.0 * _parity(j[None, :] & p[:, None])
    out = np.zeros_like(a)
    np.add.at(out, i[:, None] ^ j[None, :], sign * np.outer(a[i], b[j]))
    return out


def _require_close(got, want, tol: float, what: str) -> None:
    dev = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    if not dev <= tol:
        raise CheckFailed(f"{what}: deviation {dev:.3e} exceeds {tol:.3e}")


def _payloads(rng: np.random.Generator, n: int) -> np.ndarray:
    """n (alpha, beta) rows: magnitudes log-uniform over 1e-3 to 1e3, both
    signs, each entry exactly zero with probability 1/10."""
    values = 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 2))
    values *= rng.choice((-1.0, 1.0), size=(n, 2))
    values[rng.random((n, 2)) < 0.1] = 0.0
    return values


def _teleported(alpha: float, beta: float) -> np.ndarray:
    """alpha + beta b3 as Cl(3) coefficients."""
    want = np.zeros(8)
    want[0b000] = alpha
    want[0b100] = beta
    return want


# -- teleport -------------------------------------------------------------------


def _teleport_inputs(rng):
    while True:
        for alpha, beta in _payloads(rng, 256).tolist():
            yield alpha, beta


def _teleport_request(cc, payload):
    return cc.teleport(*payload)


def _teleport_check(payload, out) -> None:
    alpha, beta = payload
    _require_close(out.coeffs, _teleported(alpha, beta),
                   1e-12 * max(1.0, abs(alpha), abs(beta)), "teleport output")


# -- lattice-frame --------------------------------------------------------------

LATTICE_SIDE = 12
_MARGIN = 20.0
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_KEYS = tuple("".join(str((w >> k) & 1) for k in range(3)) for w in range(8))


class LatticeInput(NamedTuple):
    text: str
    payloads: dict  # cell -> (alpha, beta)


def _lattice_inputs(rng):
    cells = [(i, j) for i in range(LATTICE_SIDE) for j in range(LATTICE_SIDE)]
    while True:
        payloads = dict(zip(cells, map(tuple, _payloads(rng, len(cells)).tolist())))
        entries = []
        for (i, j), (alpha, beta) in payloads.items():
            # payload times carrier, (alpha + beta b1)(1 + b2 b3)/sqrt(2),
            # written out: alpha, beta b1, alpha b2b3, beta b1b2b3
            coeffs = [0.0] * 8
            coeffs[0b000] = coeffs[0b110] = alpha * _INV_SQRT2
            coeffs[0b001] = coeffs[0b111] = beta * _INV_SQRT2
            table = ", ".join(f'"{_KEYS[w]}": {coeffs[w]!r}' for w in range(8))
            entries.append(f'"{i},{j}": {{{table}}}')
        yield LatticeInput("{" + ", ".join(entries) + "}", payloads)


def _lattice_frame(svg_path: Path) -> Workload:
    def request(cc, inp):
        lat = cc.lattice_from_json(inp.text)
        out = cc.apply_circuit_lattice(cc.teleport_network(), lat)
        text = cc.lattice_to_json(out)
        scene = cc.lattice_scene(out, cc.CubeStyle(mode="redundant"),
                                 cc.grid_placement(out.cell_indices()), cc.sine_warp())
        x0, y0, x1, y1 = cc.scene_bbox(scene)
        svg = cc.emit_svg(scene, math.ceil(x1 - x0 + 2 * _MARGIN),
                          math.ceil(y1 - y0 + 2 * _MARGIN))
        svg_path.write_text(svg)
        return out, text, svg

    def check(inp, outputs) -> None:
        out, text, svg = outputs
        coeffs = {cell: mv.coeffs for cell, mv in out.items()}
        if set(coeffs) != set(inp.payloads):
            raise CheckFailed("output lattice has other cells than the input")
        for cell, (alpha, beta) in inp.payloads.items():
            _require_close(coeffs[cell], _teleported(alpha, beta),
                           1e-12 * max(1.0, abs(alpha), abs(beta)), f"cell {cell}")
        _check_lattice_json(text, coeffs)
        _check_svg(svg, coeffs)
        if svg_path.stat().st_size != len(svg.encode()):
            raise CheckFailed("written SVG file differs in size from the emitted text")

    return Workload("lattice-frame", _lattice_inputs, request, check)


def _check_lattice_json(text: str, coeffs: dict) -> None:
    parsed = json.loads(text)
    if len(parsed) != len(coeffs):
        raise CheckFailed("lattice JSON has the wrong number of cells")
    for key, table in parsed.items():
        cell = tuple(int(p) for p in key.split(","))
        if cell not in coeffs or sorted(table) != sorted(_KEYS):
            raise CheckFailed(f"lattice JSON cell {key!r} is malformed")
        for bits, value in table.items():
            word = sum(int(ch) << k for k, ch in enumerate(bits))
            if value != coeffs[cell][word]:
                raise CheckFailed(f"lattice JSON cell {key!r} key {bits!r} does not read back")


_PRIMITIVE = re.compile(r'<(?:polygon|line|circle) class="([a-z-]+)".* (?:fill|stroke)="(#[0-9A-F]{6})"')


def _check_svg(svg: str, coeffs: dict) -> None:
    if re.search(r"(?i)\b(nan|inf)", svg):
        raise CheckFailed("SVG holds a non-finite number")
    lines = svg.splitlines()
    prims = lines[3:-1]
    per_cube = sum(CUBE_CLASSES.values())
    if len(prims) != per_cube * len(coeffs):
        raise CheckFailed(f"SVG has {len(prims)} primitives, expected {per_cube} per cell")
    # painter order on a grid: far rows (larger j) first, then cell index order
    order = sorted(coeffs, key=lambda cell: (-cell[1], cell))
    for n, cell in enumerate(order):
        hexes = {}
        classes = Counter()
        for line in prims[n * per_cube:(n + 1) * per_cube]:
            match = _PRIMITIVE.match(line)
            if match is None:
                raise CheckFailed(f"unreadable SVG primitive {line[:60]!r}")
            cls, colour = match.groups()
            classes[cls] += 1
            word = ELEMENT_WORDS.get(cls)
            if word is None:
                raise CheckFailed(f"unknown element class {cls!r}")
            if word not in hexes:
                hexes[word] = ref_hex(float(coeffs[cell][word]))
            if colour != hexes[word]:
                raise CheckFailed(f"cell {cell} {cls} drawn {colour}, expected {hexes[word]}")
        if classes != CUBE_CLASSES:
            raise CheckFailed(f"cell {cell} draws {dict(classes)}")


# -- wide-crosscheck ------------------------------------------------------------

WIDE_DIM = 10
WIDE_NNZ = (8, 256)
WIDE_GATES = 20
_GRID = 8
_KINDS = ("X", "Z", "H", "CX", "CZ")


class WideInput(NamedTuple):
    a: np.ndarray
    b: np.ndarray
    gates: tuple  # (kind, target, control) triples


def _sparse(rng, nnz: int) -> np.ndarray:
    coeffs = np.zeros(1 << WIDE_DIM)
    coeffs[rng.choice(coeffs.size, nnz, replace=False)] = rng.normal(size=nnz)
    return coeffs


def _wide_inputs(rng):
    lo, hi = (math.log(n) for n in WIDE_NNZ)
    while True:
        # The two nonzero counts are log-uniform and independent, drawn
        # stratified: each block of 64 requests takes one pair of quantiles
        # from every cell of an 8x8 grid, in random order.  Product cost
        # follows the counts, so every seed gets the same spread of sizes.
        cells = np.stack(np.divmod(rng.permutation(_GRID * _GRID), _GRID), axis=1)
        for qa, qb in (cells + rng.random(cells.shape)) / _GRID:
            gates = []
            for _ in range(WIDE_GATES):
                kind = _KINDS[rng.integers(len(_KINDS))]
                target = int(rng.integers(1, WIDE_DIM + 1))
                control = None
                if kind in ("CX", "CZ"):
                    control = int(rng.integers(1, WIDE_DIM))  # any bit but the target
                    if control >= target:
                        control += 1
                gates.append((kind, target, control))
            yield WideInput(_sparse(rng, round(math.exp(lo + qa * (hi - lo)))),
                            _sparse(rng, round(math.exp(lo + qb * (hi - lo)))),
                            tuple(gates))


def _wide_request(cc, inp):
    product = cc.geometric_product(cc.Multivector(inp.a, WIDE_DIM),
                                   cc.Multivector(inp.b, WIDE_DIM))
    circuit = cc.Circuit(tuple(cc.Gate(*g) for g in inp.gates))
    fast = cc.apply_circuit(circuit, product)
    oracle = cc.sv_apply_circuit(circuit, cc.StateVector(product.coeffs, WIDE_DIM))
    agree, _ = cc.equivalence_check(fast, oracle, 1e-12 * max(1.0, product.norm()))
    return product, fast, oracle, agree


def _wide_check(inp, outputs) -> None:
    product, fast, oracle, agree = outputs
    want = ref_product(inp.a, inp.b)
    _require_close(product.coeffs, want, 1e-12 * max(1.0, float(np.linalg.norm(want))),
                   "geometric product against the reference")
    _require_close(fast.coeffs, oracle.amps,
                   1e-12 * max(1.0, float(np.linalg.norm(product.coeffs))),
                   "gate engine against the statevector oracle")
    if not agree:
        raise CheckFailed("equivalence_check reported disagreement")


def build(out_dir: Path) -> dict[str, Workload]:
    """The workloads by name; lattice-frame writes its SVG into ``out_dir``."""
    return {w.name: w for w in (
        Workload("teleport", _teleport_inputs, _teleport_request, _teleport_check),
        _lattice_frame(out_dir / "lattice-frame.svg"),
        Workload("wide-crosscheck", _wide_inputs, _wide_request, _wide_check),
    )}
