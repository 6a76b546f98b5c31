"""Byte-for-byte comparison against committed golden outputs.

The goldens in tests/golden were written before the geometric product,
the gate engine and the renderer were rewritten; any change in
rounding, term order or formatting shows here.  The ``product associativity`` line of the
verify golden is the most sensitive to product rounding.  Each product
golden is one .npy array of shape (3, 2**dim): the two operands and
their product.  The circuit golden is an array of shape (2, 2**10): a
seeded Cl(10) state and a seeded 20-gate circuit applied to it.  The
lattice goldens are the teleport network applied to a seeded 8x8
lattice, written as lattice JSON, and three ``lattice-render`` SVGs of
that same seeded lattice (warped, flat, and flat in representative
mode).  The ``render`` goldens draw the README example table in both
modes and once with every geometry flag off its default.  A seeded
32x32 lattice gives outputs of about 3 MB in all, so only their sha256
digests are committed: its teleported lattice JSON and its warped
``lattice-render`` SVG in both modes.  The warped ``lattice-render`` SVG
of a seeded 128x128 lattice (about 50 MB) has a digest too; CI checks
it, as a test it would take seconds.

To rewrite the goldens at a commit whose outputs are trusted, run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root.
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest

from combcube import render
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
    # subnormal payload: its printed digits show any reordered float operation
    "teleport_alpha-5e-324_beta1e-310.txt": ["teleport", "--alpha=-5e-324", "--beta=1e-310"],
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

# the README example table, input of every ``render`` golden
README_TABLE = (
    '{"000": -0.07, "100": 0.32, "010": -3.08, "001": 1.06, '
    '"110": -0.85, "101": 0.27, "011": -0.86, "111": 4.07}'
)

# (subcommand, extra argv) of each SVG golden, by file name; ``render``
# reads README_TABLE and ``lattice-render`` the seeded 8x8 lattice
SVG_CASES = {
    LATTICE_SVG_GOLDEN: ("lattice-render", ["--deformation", "sine-warp"]),
    "lattice_8x8_flat.svg": ("lattice-render", []),
    "lattice_8x8_representative.svg": ("lattice-render", ["--mode", "representative"]),
    "readme_table_redundant.svg": ("render", []),
    "readme_table_representative.svg": ("render", ["--mode", "representative"]),
    "readme_table_styled.svg": ("render", [
        "--angle", "40", "--foreshortening", "0.7", "--edge", "60",
        "--stroke-width", "1.5", "--corner-radius", "2.5",
    ]),
}


# sha256 digests of the 32x32 outputs, one "digest  name" line each
DIGEST_GOLDEN = "lattice_32x32.sha256"
# extra ``lattice-render`` argv of each 32x32 SVG digest, by name
DIGEST_SVG_CASES = {
    "lattice_32x32_warped.svg": ["--deformation", "sine-warp"],
    "lattice_32x32_warped_representative.svg": [
        "--deformation", "sine-warp", "--mode", "representative"],
}
DIGEST_JSON = "lattice_32x32_teleported.json"
# the digest of the warped 128x128 render, checked in CI
DIGEST_128 = "lattice_128x128_warped.sha256"


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


def _seeded_lattice(side: int = 8, seed: int = 64) -> LatticeMultivector:
    rng = np.random.default_rng(seed)
    return LatticeMultivector(
        {(i, j): Multivector(rng.uniform(-2.0, 2.0, 8), 3)
         for i in range(side) for j in range(side)}
    )


def _lattice_json(lat: LatticeMultivector | None = None) -> str:
    lat = _seeded_lattice() if lat is None else lat
    return lattice_to_json(apply_circuit_lattice(teleport_network(), lat))


def _run_to_svg(command: str, text: str, extra, tmp: Path) -> str:
    src, out = tmp / "input.json", tmp / "output.svg"
    src.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run([command, str(src), "--output", str(out), *extra]) == 0
    return out.read_text()


def _svg(name: str, tmp: Path) -> str:
    command, extra = SVG_CASES[name]
    text = README_TABLE if command == "render" else lattice_to_json(_seeded_lattice())
    return _run_to_svg(command, text, extra, tmp)


def _digests(tmp: Path) -> str:
    """The DIGEST_GOLDEN text for the seeded 32x32 lattice."""
    lat = _seeded_lattice(32, 32)
    outputs = {DIGEST_JSON: _lattice_json(lat)}
    text = lattice_to_json(lat)
    for name, extra in DIGEST_SVG_CASES.items():
        outputs[name] = _run_to_svg("lattice-render", text, extra, tmp)
    return "".join(f"{hashlib.sha256(out.encode()).hexdigest()}  {name}\n"
                   for name, out in sorted(outputs.items()))


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
    assert _svg(LATTICE_SVG_GOLDEN, tmp_path) == (GOLDEN / LATTICE_SVG_GOLDEN).read_text()


@pytest.mark.parametrize("name", sorted(set(SVG_CASES) - {LATTICE_SVG_GOLDEN}))
def test_svg_matches_golden(name, tmp_path):
    assert _svg(name, tmp_path) == (GOLDEN / name).read_text()


def test_interleaved_styles_keep_their_golden_bytes(tmp_path):
    # emit_svg keeps one row template per distinct table: three styles in
    # turn, then the first again from the cache, each give their golden
    names = ["readme_table_redundant.svg", "readme_table_representative.svg",
             "readme_table_styled.svg", "readme_table_redundant.svg"]
    render._row_template.cache_clear()
    for name in names:
        assert _svg(name, tmp_path) == (GOLDEN / name).read_text()
    info = render._row_template.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 3, 3)


def test_32x32_outputs_match_digests(tmp_path):
    assert _digests(tmp_path) == (GOLDEN / DIGEST_GOLDEN).read_text()


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
        for name in SVG_CASES:
            (GOLDEN / name).write_text(_svg(name, Path(tmp)))
        (GOLDEN / DIGEST_GOLDEN).write_text(_digests(Path(tmp)))
        svg = _run_to_svg("lattice-render", lattice_to_json(_seeded_lattice(128, 128)),
                          ["--deformation", "sine-warp"], Path(tmp))
        name = DIGEST_128.removesuffix(".sha256") + ".svg"
        (GOLDEN / DIGEST_128).write_text(f"{hashlib.sha256(svg.encode()).hexdigest()}  {name}\n")


if __name__ == "__main__":
    _write_goldens()
