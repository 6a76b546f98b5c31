"""The design rules of aim 2, one code path per concept, as tests.

Each row of RULES reads like a grep: a line of a scanned file breaks the
rule when the pattern matches it and ``allowed`` does not match its
``path:lineno:line`` hit.  Each rule is checked on the tree and on its
breach line, so that it cannot go blind unseen.  A new "one X" rule is a
row of RULES with its breach line.  No rule scans this module.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ("src/combcube/*.py",)
EVERYWHERE = (*SRC, "tests/*.py", "README.md")
# the test that a deleted name is not exported may name it
NOT_EXPORTED = re.escape("& set(combcube.__all__)")

# name: (forbidden pattern, files scanned, hits allowed, a line that breaks it)
RULES = {
    "real-number": (r"numbers\.Real|math\.isfinite", SRC, r"^src/combcube/algebra\.py:",
                    "if not math.isfinite(value):"),
    "cell": (r"cell index must|MAX_CELL_INDEX", SRC, r"^src/combcube/(coding|__init__)\.py:",
             "if abs(i) > MAX_CELL_INDEX:"),
    "scene-builder": (r"scene points must|css_class must|isinstance\(el,", SRC, None,
                      "if isinstance(el, Element):"),
    "real-array": (r"\.astype\(|dtype\.kind", SRC, r"^src/combcube/algebra\.py:",
                   "colors = values.astype(float)"),
    "float-error": (r"np\.errstate", SRC, r"^src/combcube/algebra\.py:",
                    "with np.errstate(over='ignore'):"),
    "outside-input": (r"return (Multivector|StateVector|cls)\(", SRC, None,
                      "return StateVector(amps)"),
    "gate-description": (r"apply_(x|z|h|cx|cz)\b|\b_op\(", EVERYWHERE, None,
                         "mv = apply_x(mv, 1)"),
    "product": (r"\b(inner_product|outer_product|decode|cell_to_key|bits_to_key)\b", EVERYWHERE,
                NOT_EXPORTED, "key = bits_to_key(comb_bits(word, dim))"),
    "element-record": (r"\b(Polygon|Segment|Disc|_KINDS|_TAGS|_signs)\b", EVERYWHERE,
                       NOT_EXPORTED, "signs = _signs(dim)"),
    "frozen-block-coding": (r"_all_finite|\.setflags\(", ("src/combcube/coding.py",), None,
                            "block.setflags(write=False)"),
    "frozen-block-gates": (r"_all_finite", ("src/combcube/gates.py",), None,
                           "if not _all_finite(out):"),
    "place-warp-paint": (r"\b(wall_opacity|interior_opacity|_index)\b|\bsine_warp\([^)]",
                         EVERYWHERE, None, "warp = sine_warp(0.5)"),
    "lattice-lookups": (r"def (get|__contains__)\(", ("src/combcube/coding.py",), None,
                        "    def get(self, place):"),
    "oracle-constant": (r"_INV_SQRT2", ("src/combcube/statevector.py",), None,
                        "from .algebra import (_INV_SQRT2, Multivector, _as_float, _check_dim, "
                        "_check_int, _check_real,"),
}

MOST_ARGS = {"grid_placement": 1, "sine_warp": 0}  # arguments each may take


def _texts(globs) -> dict[str, str]:
    """Text of each file the globs name, by path from the root, this module apart."""
    paths = {p for glob in globs for p in ROOT.glob(glob)} - {Path(__file__).resolve()}
    return {p.relative_to(ROOT).as_posix(): p.read_text() for p in sorted(paths)}


README_BLOCKS = {f"README.md python block {i}": block for i, block in enumerate(
    re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S), 1)}


def _hits(pattern, allowed, texts) -> list[str]:
    hits = (f"{path}:{n}:{line}" for path, text in texts.items()
            for n, line in enumerate(text.split("\n"), 1) if re.search(pattern, line))
    return [hit for hit in hits if allowed is None or not re.search(allowed, hit)]


def _overcalls(texts) -> list[str]:
    """Where grid_placement or sine_warp is passed more arguments than it takes."""
    calls = ((where, node) for where, text in texts.items() for node in ast.walk(ast.parse(text))
             if isinstance(node, ast.Call))
    return [f"{where}:{call.lineno}" for where, call in calls if len(call.args) + len(call.keywords)
            > MOST_ARGS.get(getattr(call.func, "id", getattr(call.func, "attr", None)), 99)]


@pytest.mark.parametrize("name", RULES)
def test_rule_holds_and_flags_its_breach(name):
    pattern, globs, allowed, breach = RULES[name]
    texts = _texts(globs)
    assert _hits(pattern, allowed, texts) == []
    hits = _hits(pattern, allowed, {path: f"{text}\n{breach}" for path, text in texts.items()})
    assert hits and all(hit.endswith(f":{breach}") for hit in hits)


def test_grid_placement_takes_only_its_cells_and_sine_warp_nothing():
    assert README_BLOCKS, "README.md has no python block"
    assert _overcalls({**_texts((*SRC, "tests/*.py")), **README_BLOCKS}) == []
    assert _overcalls({"breach": "sine_warp(1)\ngrid_placement(c, 2)"}) == ["breach:1", "breach:2"]


def test_gates_run_under_one_float_error_policy():
    # every gate runs in gates._run, which enters the policy once
    lines = (ROOT / "src/combcube/gates.py").read_text().split("\n")
    assert sum("_quiet_float_errors()" in line for line in lines) == 1


@pytest.mark.parametrize("where", README_BLOCKS)
def test_readme_example_runs(where):
    exec(compile(README_BLOCKS[where], where, "exec"), {})
