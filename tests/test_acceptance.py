"""Acceptance gate: one check per shipped guarantee, one line per result.

Run ``pytest -v -s tests/test_acceptance.py`` to see the lines; each
test prints ``[PASS]`` or ``[FAIL]`` with the measured deviation before
asserting, so a red run still reports every criterion it reached.
"""

import collections
import math
import time
import types
import xml.etree.ElementTree as ET

import numpy as np

import combcube
from combcube.algebra import Multivector, geometric_product
from combcube.coding import LatticeMultivector, bell_carrier, comb, encode
from combcube.colorwheel import hue_to_rgb, nu_of_x, rgb_to_hex, x_of_nu
from combcube.gates import (
    Gate,
    apply_circuit,
    apply_circuit_lattice,
    apply_gate,
    teleport,
    teleport_network,
)
from combcube.render import (
    ELEMENT_WORDS,
    cube_scene,
    emit_svg,
    lattice_scene,
    sine_warp,
)
from combcube.statevector import (
    StateVector,
    equivalence_check,
    sv_apply_circuit,
    sv_apply_gate,
)

EXAMPLE_TABLE = {
    "000": -0.07, "100": 0.32, "010": -3.08, "001": 1.06,
    "110": -0.85, "101": 0.27, "011": -0.86, "111": 4.07,
}

_NS = "{http://www.w3.org/2000/svg}"


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}{suffix}"
    print(line)
    assert ok, line


def _gate_pool():
    single = [Gate(kind, k) for kind in ("X", "Z", "H") for k in (1, 2, 3)]
    return single + [Gate("CX", 2, 1), Gate("CX", 3, 2), Gate("CZ", 3, 1)]


def test_criterion_1_teleportation():
    teleport(1.0, 0.0)  # warm caches before timing
    rng = np.random.default_rng(12345)
    dev = 0.0
    expected = np.zeros(8)
    start = time.perf_counter()
    for _ in range(1000):
        phi = rng.uniform(0.0, math.tau)
        alpha, beta = math.cos(phi), math.sin(phi)
        out = teleport(alpha, beta)
        expected[:] = 0.0
        expected[comb("000")] = alpha
        expected[comb("001")] = beta
        dev = max(dev, float(np.max(np.abs(out.coeffs - expected))))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "1000 random unit payloads teleport onto bit 3 within 1e-12",
        dev <= 1e-12 and elapsed < 1.0,
        f"max dev {dev:.3e}, {elapsed:.2f}s",
    )


def test_criterion_2_cross_engine_agreement():
    basis_dev = 0.0
    start = time.perf_counter()
    for gate in _gate_pool():
        for word in range(8):
            mv = apply_gate(Multivector.blade(word, 3), gate)
            sv = sv_apply_gate(StateVector.basis(word, 3), gate)
            basis_dev = max(basis_dev, equivalence_check(mv, sv)[1])
    rng = np.random.default_rng(777)
    pool = _gate_pool()
    circuit_dev = 0.0
    for _ in range(100):
        circuit = [pool[rng.integers(len(pool))] for _ in range(20)]
        coeffs = rng.uniform(-1.0, 1.0, 8)
        mv = apply_circuit(circuit, Multivector(coeffs, 3))
        sv = sv_apply_circuit(circuit, StateVector(coeffs, 3))
        circuit_dev = max(circuit_dev, equivalence_check(mv, sv)[1])
    elapsed = time.perf_counter() - start
    _report(
        2,
        "comb engine matches the tensor-product simulator",
        basis_dev == 0.0 and circuit_dev <= 1e-12 and elapsed < 5.0,
        f"basis dev {basis_dev:.1e}, circuit dev {circuit_dev:.3e}, {elapsed:.2f}s",
    )


def test_criterion_3_published_gate_table():
    lines = []
    for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
        lines.append((Gate("CX", 2, 1), comb((1, a, b)), comb((1, 1 - a, b)), 1.0))
        lines.append((Gate("CX", 3, 2), comb((a, 1, b)), comb((a, 1, 1 - b)), 1.0))
        lines.append((Gate("CZ", 3, 1), comb((1, a, b)), comb((1, a, b)), -1.0 if b else 1.0))
        lines.append((Gate("X", 1), comb((a, b, 0)), comb((1 - a, b, 0)), 1.0))
        lines.append((Gate("X", 1), comb((a, b, 1)), comb((1 - a, b, 1)), 1.0))
        lines.append((Gate("X", 2), comb((a, 0, b)), comb((a, 1, b)), 1.0))
        lines.append((Gate("X", 2), comb((a, 1, b)), comb((a, 0, b)), 1.0))
        lines.append((Gate("Z", 1), comb((1, a, b)), comb((1, a, b)), -1.0))
        lines.append((Gate("Z", 2), comb((a, 1, b)), comb((a, 1, b)), -1.0))
    ok = True
    for gate, src, dst, sign in lines:
        out = apply_gate(Multivector.blade(src, 3), gate)
        expected = np.zeros(8)
        expected[dst] = sign
        ok = ok and bool(np.array_equal(out.coeffs, expected))
    _report(
        3,
        "every published gate-table action on basis combs holds exactly",
        ok,
        f"{len(lines)} instantiated lines",
    )


def test_criterion_4_generator_relations():
    exact = True
    for k in range(1, 4):
        bk = Multivector.basis_vector(k, 3)
        exact = exact and (bk * bk) == Multivector.scalar(1.0, 3)
        for l in range(k + 1, 4):
            bl = Multivector.basis_vector(l, 3)
            exact = exact and np.all((bk * bl + bl * bk).coeffs == 0.0)
    rng = np.random.default_rng(4242)
    assoc_dev = 0.0
    for _ in range(100):
        a, b, c = (Multivector(rng.uniform(-10.0, 10.0, 8), 3) for _ in range(3))
        assoc_dev = max(
            assoc_dev, float(np.max(np.abs(((a * b) * c - a * (b * c)).coeffs)))
        )
    _report(
        4,
        "generator relations exact, product associative within 1e-10",
        exact and assoc_dev <= 1e-10,
        f"assoc dev {assoc_dev:.3e}",
    )


def test_criterion_5_color_map():
    residual = 0.0
    for x in np.linspace(-1000.0, 1000.0, 100001):
        theta = math.tau * nu_of_x(float(x))
        residual = max(residual, abs(x * (1.0 - math.sin(theta)) - math.cos(theta)))
    anchors = nu_of_x(0.0) == 0.75
    s = 1.0 / math.sqrt(2.0)
    pair = {round(nu_of_x(s), 3), round(nu_of_x(-s), 3)} == {0.946, 0.554}
    roundtrip = 0.0
    for k in range(-6, 7):
        for x in (10.0 ** k, -(10.0 ** k)):
            roundtrip = max(roundtrip, abs(x_of_nu(nu_of_x(x)) - x) / abs(x))
    _report(
        5,
        "hue equation residual, anchors, and decade roundtrips hold",
        residual <= 1e-12 and anchors and pair and roundtrip <= 1e-9,
        f"residual {residual:.3e}, roundtrip {roundtrip:.3e}",
    )


def test_criterion_6_svg_colors():
    mv = encode(EXAMPLE_TABLE, 3)
    expected = {
        cls: rgb_to_hex(hue_to_rgb(nu_of_x(float(mv.coeffs[word]))))
        for cls, word in ELEMENT_WORDS.items()
    }
    frozen = {
        "corner": "#5D00FF", "edge-x": "#FF00E8", "edge-y": "#00FF19",
        "edge-z": "#FF0E00", "wall-xy": "#00D8FF", "wall-xz": "#FF00FE",
        "wall-yz": "#00DAFF", "interior": "#F5FF00",
    }
    svg = emit_svg(cube_scene(mv), 640, 480)
    ok = expected == frozen
    seen = set()
    for child in ET.fromstring(svg):
        cls = child.get("class")
        if cls == "background":
            continue
        color = child.get("fill") or child.get("stroke")
        ok = ok and color == expected[cls]
        seen.add(cls)
    ok = ok and seen == set(ELEMENT_WORDS)
    _report(
        6,
        "rendered colors equal the coefficient color pipeline bit for bit",
        ok,
        f"{len(ELEMENT_WORDS)} element classes",
    )


def test_criterion_7_involutions_and_norms():
    rng = np.random.default_rng(909)
    pool = _gate_pool()
    dev = 0.0
    for _ in range(100):
        state = Multivector(rng.uniform(-1.0, 1.0, 8), 3)
        for gate in pool:
            once = apply_gate(state, gate)
            twice = apply_gate(once, gate)
            dev = max(dev, float(np.max(np.abs(twice.coeffs - state.coeffs))))
            dev = max(dev, abs(once.norm() - state.norm()))
    _report(
        7,
        "every gate is an involution and preserves the coefficient norm",
        dev <= 1e-12,
        f"max dev {dev:.3e}",
    )


def test_criterion_8_lattice_teleportation():
    rng = np.random.default_rng(1618)
    payloads = {}
    product_cells = {}
    carrier = bell_carrier()
    for i in range(4):
        for j in range(4):
            phi = rng.uniform(0.0, math.tau)
            alpha, beta = math.cos(phi), math.sin(phi)
            payloads[(i, j)] = (alpha, beta)
            payload = np.zeros(8)
            payload[comb("000")] = alpha
            payload[comb("100")] = beta
            product_cells[(i, j)] = geometric_product(
                Multivector(payload, 3), carrier
            )
    lat = LatticeMultivector(product_cells)
    out = apply_circuit_lattice(teleport_network(), lat)

    cellwise_ok = out.cell_indices() == lat.cell_indices()
    dev = 0.0
    read = dict(out.items())
    for cell, (alpha, beta) in payloads.items():
        got = read[cell]
        cellwise_ok = cellwise_ok and got == teleport(alpha, beta)
        expected = np.zeros(8)
        expected[comb("000")] = alpha
        expected[comb("001")] = beta
        dev = max(dev, float(np.max(np.abs(got.coeffs - expected))))

    def census(text):
        return collections.Counter(
            (c.tag.removeprefix(_NS), c.get("class"), c.get("fill") or c.get("stroke"))
            for c in ET.fromstring(text)
        )

    flat = emit_svg(lattice_scene(out), 1200, 900)
    warped = emit_svg(lattice_scene(out, deformation=sine_warp()), 1200, 900)
    colors_ok = census(flat) == census(warped) and flat != warped
    _report(
        8,
        "4x4 lattice teleports cell by cell; warp moves geometry, not colors",
        cellwise_ok and dev <= 1e-12 and colors_ok,
        f"max dev {dev:.3e}, 16 cells",
    )


def test_public_surface_is_the_imported_names():
    namespace = {}
    exec("from combcube import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(combcube.__all__)
    assert len(set(combcube.__all__)) == len(combcube.__all__)
    assert not any(isinstance(getattr(combcube, name), types.ModuleType)
                   for name in combcube.__all__)
    assert not {"lattice_get", "lattice_set", "ModuleType", "isclose",
                "circuit_to_json", "circuit_from_json"} & set(combcube.__all__)
    assert not {"inner_product", "outer_product", "decode"} & set(combcube.__all__)
    assert not {"Polygon", "Segment", "Disc"} & set(combcube.__all__)
    assert "Element" in combcube.__all__
