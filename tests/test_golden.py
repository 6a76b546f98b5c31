"""Byte-for-byte comparison against committed golden outputs.

The goldens in tests/golden were written before the geometric product
and the gate engine were rewritten; any change in rounding, term order
or formatting shows here.  The ``product associativity`` line of the
verify golden is the most sensitive to product rounding.  Each product
golden is one .npy array of shape (3, 2**dim): the two operands and
their product.  The circuit golden is an array of shape (2, 2**10): a
seeded Cl(10) state and a seeded 20-gate circuit applied to it.  The
lattice goldens are the teleport network applied to a seeded 8x8
lattice, written as lattice JSON, and the warped ``lattice-render`` SVG
of that same seeded lattice.

To rewrite the goldens at a commit whose outputs are trusted, run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest

from combcube.algebra import Multivector, geometric_product
from combcube.cli import run
from combcube.coding import LatticeMultivector, lattice_to_json
from combcube.gates import (
    GATE_KINDS,
    Circuit,
    Gate,
    apply_circuit,
    apply_circuit_lattice,
    teleport_network,
)

GOLDEN = Path(__file__).resolve().parent / "golden"

# argv of each CLI golden, by file name
CLI_CASES = {
    "teleport_alpha0.6_beta0.8.txt": ["teleport", "--alpha", "0.6", "--beta", "0.8"],
    "verify_seed42_trials1000.txt": ["verify", "--seed", "42", "--trials", "1000"],
}

# (seed, dim, nnz(a), nnz(b)) of each product golden, by file name
PRODUCT_CASES = {
    "product_dim8_dense.npy": (8, 8, 256, 256),
    "product_dim10.npy": (10, 10, 400, 300),
    "product_dim12.npy": (12, 12, 1200, 1000),
}


CIRCUIT_GOLDEN = "circuit_dim10_20gates.npy"
LATTICE_JSON_GOLDEN = "lattice_8x8_teleported.json"
LATTICE_SVG_GOLDEN = "lattice_8x8_warped.svg"


def _product(a, b):
    dim = a.size.bit_length() - 1
    return geometric_product(Multivector(a, dim), Multivector(b, dim)).coeffs


def _seeded_circuit(seed: int, dim: int, length: int) -> Circuit:
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(length):
        kind = GATE_KINDS[int(rng.integers(len(GATE_KINDS)))]
        target, control = (int(b) for b in rng.choice(dim, 2, replace=False) + 1)
        gates.append(Gate(kind, target, control if kind in ("CX", "CZ") else None))
    return Circuit(tuple(gates))


def _circuit_case() -> np.ndarray:
    state = np.random.default_rng(20).normal(size=1 << 10)
    out = apply_circuit(_seeded_circuit(20, 10, 20), Multivector(state, 10)).coeffs
    return np.stack([state, out])


def _seeded_lattice() -> LatticeMultivector:
    rng = np.random.default_rng(64)
    return LatticeMultivector(
        {(i, j): Multivector(rng.uniform(-2.0, 2.0, 8), 3) for i in range(8) for j in range(8)}
    )


def _lattice_json() -> str:
    return lattice_to_json(apply_circuit_lattice(teleport_network(), _seeded_lattice()))


def _lattice_svg(tmp: Path) -> str:
    src, out = tmp / "lattice.json", tmp / "lattice.svg"
    src.write_text(lattice_to_json(_seeded_lattice()))
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["lattice-render", str(src), "--output", str(out),
                    "--deformation", "sine-warp"]) == 0
    return out.read_text()


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_stdout_matches_golden(name, capsys):
    assert run(CLI_CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", sorted(PRODUCT_CASES))
def test_product_matches_golden(name):
    a, b, want = np.load(GOLDEN / name)
    assert _product(a, b).tobytes() == want.tobytes()


def test_circuit_matches_golden():
    want = np.load(GOLDEN / CIRCUIT_GOLDEN)
    assert _circuit_case().tobytes() == want.tobytes()


def test_lattice_json_matches_golden():
    assert _lattice_json() == (GOLDEN / LATTICE_JSON_GOLDEN).read_text()


def test_lattice_svg_matches_golden(tmp_path):
    assert _lattice_svg(tmp_path) == (GOLDEN / LATTICE_SVG_GOLDEN).read_text()


def _write_goldens() -> None:
    for name, argv in CLI_CASES.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(argv) == 0
        (GOLDEN / name).write_text(out.getvalue())
    for name, (seed, dim, nnz_a, nnz_b) in PRODUCT_CASES.items():
        rng = np.random.default_rng(seed)
        a, b = (np.zeros(1 << dim) for _ in range(2))
        for coeffs, nnz in ((a, nnz_a), (b, nnz_b)):
            coeffs[rng.choice(coeffs.size, nnz, replace=False)] = rng.normal(size=nnz)
        np.save(GOLDEN / name, np.stack([a, b, _product(a, b)]))
    np.save(GOLDEN / CIRCUIT_GOLDEN, _circuit_case())
    (GOLDEN / LATTICE_JSON_GOLDEN).write_text(_lattice_json())
    with tempfile.TemporaryDirectory() as tmp:
        (GOLDEN / LATTICE_SVG_GOLDEN).write_text(_lattice_svg(Path(tmp)))


if __name__ == "__main__":
    _write_goldens()
