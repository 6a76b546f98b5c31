"""Byte-for-byte comparison against committed golden outputs.

The goldens in tests/golden were written before the geometric product
was rewritten; any change in rounding, term order or formatting shows
here.  The ``product associativity`` line of the verify golden is the
most sensitive to product rounding.  Each product golden is one .npy
array of shape (3, 2**dim): the two operands and their product.

To rewrite the goldens at a commit whose outputs are trusted, run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root.
"""

import contextlib
import io
from pathlib import Path

import numpy as np
import pytest

from combcube.algebra import Multivector, geometric_product
from combcube.cli import run

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


def _product(a, b):
    dim = a.size.bit_length() - 1
    return geometric_product(Multivector(a, dim), Multivector(b, dim)).coeffs


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_stdout_matches_golden(name, capsys):
    assert run(CLI_CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", sorted(PRODUCT_CASES))
def test_product_matches_golden(name):
    a, b, want = np.load(GOLDEN / name)
    assert _product(a, b).tobytes() == want.tobytes()


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


if __name__ == "__main__":
    _write_goldens()
