"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q benchmark/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

cc = run.import_combcube()


@pytest.fixture
def wls(tmp_path):
    return workloads.build(tmp_path)


def _loop(wl, seconds=0.0, tracer=None, seed=7):
    loop = run.Loop(wl, cc)
    untraced, traced = loop.run(wl.inputs(np.random.default_rng(seed)), seconds, tracer)
    return loop, untraced, traced


def test_self_times_on_a_synthetic_span_tree():
    S = tracing.Span
    spans = [
        S(0, 0.0, 10.0, -1),  # root, children 1 and 3
        S(1, 1.0, 4.0, 0),    # child, grandchild 2
        S(2, 2.0, 3.0, 1),
        S(3, 5.0, 9.0, 0),
        S(4, 11.0, 12.0, -1),  # a second top-level span
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]


def _flip_largest(coeffs):
    out = np.array(coeffs)
    k = int(np.argmax(np.abs(out)))
    out[k] = -out[k] if out[k] else 1.0
    return out


@pytest.mark.parametrize("name, attr", [
    ("teleport", "teleport"),
    ("lattice-frame", "apply_circuit_lattice"),
    ("wide-crosscheck", "geometric_product"),
])
def test_a_corrupted_result_counts_as_a_failed_request(wls, monkeypatch, name, attr):
    original = getattr(cc, attr)

    def corrupted(*args):
        out = original(*args)
        if isinstance(out, cc.LatticeMultivector):
            cell, mv = out.items()[0]
            return out.set(cell, cc.Multivector(_flip_largest(mv.coeffs), mv.dim))
        return cc.Multivector(_flip_largest(out.coeffs), out.dim)

    monkeypatch.setattr(cc, attr, corrupted)
    loop, untraced, _ = _loop(wls[name])
    assert loop.attempted == len(untraced) >= 2
    assert loop.failed == loop.attempted  # every request failed, and the loop went on


def test_a_raising_request_counts_as_a_failed_request(wls, monkeypatch):
    def broken(alpha, beta):
        raise ValueError("broken")

    monkeypatch.setattr(cc, "teleport", broken)
    loop, _, _ = _loop(wls["teleport"])
    assert loop.failed == loop.attempted >= 2


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_current_code_passes_every_check(wls, name):
    loop, _, _ = _loop(wls[name])
    assert loop.failed == 0


def _traced(wl):
    tracer = tracing.Tracer(cc)
    loop, untraced, traced = _loop(wl, tracer=tracer)
    assert loop.failed == 0 and traced
    return tracer.metrics(untraced)


def test_bypass_counts_hold_exactly(wls):
    frame = _traced(wls["lattice-frame"])
    assert frame["algebra.calls"] == frame["statevector.calls"] == 0
    assert frame["gates.lattice_cells"] == frame["gates.apply_circuit.calls"] \
        == workloads.LATTICE_SIDE ** 2
    assert frame["gates.apply_gate.calls"] == 6 * workloads.LATTICE_SIDE ** 2
    assert frame["render.primitives"] == 27 * workloads.LATTICE_SIDE ** 2
    assert frame["colorwheel.rgb_to_hex.calls"] == frame["render.primitives"] + 1

    tele = _traced(wls["teleport"])
    for layer in ("render", "colorwheel", "statevector"):
        assert tele[f"{layer}.calls"] == 0
    # teleport builds its carrier through coding.bell_carrier and nothing else
    assert tele["coding.calls"] == 1
    assert tele["coding.json_bytes_read"] == tele["coding.json_bytes_written"] == 0
    assert tele["gates.apply_gate.calls"] == 6
    assert tele["algebra.geometric_product.calls"] == 1

    wide = _traced(wls["wide-crosscheck"])
    for layer in ("coding", "render", "colorwheel"):
        assert wide[f"{layer}.calls"] == 0
    assert wide["statevector.sv_apply_gate.calls"] == workloads.WIDE_GATES
    assert wide["gates.apply_gate.calls"] == workloads.WIDE_GATES
    # the pair loop's blade_product calls stay inside algebra
    assert wide["algebra.calls"] == wide["algebra.geometric_product.calls"] == 1


def test_tracer_restores_the_package(wls):
    before = (cc.gates.geometric_product, cc.render.nu_of_x, cc.Multivector.__init__)
    _traced(wls["teleport"])
    assert (cc.gates.geometric_product, cc.render.nu_of_x, cc.Multivector.__init__) == before


def test_no_wrapper_runs_inside_a_layer():
    inner = (cc.algebra.blade_product, cc.gates.apply_gate, cc.statevector.sv_apply_gate)
    tracer = tracing.Tracer(cc)
    tracer.install()
    try:
        assert (cc.algebra.blade_product, cc.gates.apply_gate,
                cc.statevector.sv_apply_gate) == inner
        assert cc.gates.geometric_product is not cc.algebra.geometric_product
    finally:
        tracer.uninstall()


def test_cross_layer_calls_get_the_defining_layers_span():
    tracer = tracing.Tracer(cc)
    tracer.install()
    tracer.begin()
    try:
        cc.teleport(0.6, 0.8)
    finally:
        tracer.uninstall()
    tracer.end(0, 1.0)
    metrics = tracer.metrics([1.0])
    assert metrics["algebra.geometric_product.calls"] == 1
    assert metrics["coding.calls"] == 1  # coding.bell_carrier, called from gates
    assert metrics["algebra.multivectors_built"] > 0
    assert {tracer.names[span.name] for _, spans in tracer.kept for span in spans} == {
        "gates.teleport", "coding.bell_carrier", "algebra.geometric_product"}


def test_reference_colour_matches_the_colour_map():
    for x in np.concatenate([np.linspace(-50, 50, 2001), [0.0, 1.0, -1.0, 1e300, -1e-300]]):
        x = float(x)
        assert workloads.ref_hex(x) == cc.rgb_to_hex(cc.hue_to_rgb(cc.nu_of_x(x)))


def _sorted_sign(i, j, dim):
    """Sign of blade i times blade j by bubble-sorting the generator list."""
    gens = [k for k in range(dim) if i >> k & 1] + [k for k in range(dim) if j >> k & 1]
    swaps = 0
    for end in range(len(gens) - 1, 0, -1):
        for p in range(end):
            if gens[p] > gens[p + 1]:
                gens[p], gens[p + 1] = gens[p + 1], gens[p]
                swaps += 1
    return -1.0 if swaps % 2 else 1.0


def test_reference_product_matches_blade_reordering():
    dim = 4
    for i in range(1 << dim):
        for j in range(1 << dim):
            a = np.zeros(1 << dim)
            b = np.zeros(1 << dim)
            a[i] = b[j] = 1.0
            want = np.zeros(1 << dim)
            want[i ^ j] = _sorted_sign(i, j, dim)
            assert np.array_equal(workloads.ref_product(a, b), want)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


def test_without_the_program_the_benchmark_fails(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "teleport",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "combcube" in proc.stderr
