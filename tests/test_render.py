"""Cube scenes and SVG emission, checked by parsing the output back.

The central invariant: every drawn element's color equals the color
pipeline applied to the coefficient its class displays, surviving the
trip through 8-bit hex quantization bit for bit.
"""

import collections
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import FrozenInstanceError

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combcube import render
from combcube.algebra import Multivector
from combcube.coding import LatticeMultivector, bell_carrier, encode
from combcube.colorwheel import hue_to_rgb, nu_of_x, rgb_to_hex
from combcube.gates import teleport
from combcube.render import (
    _ELEMENT_TABLES,
    ELEMENT_WORDS,
    CubeStyle,
    Element,
    Scene,
    cube_scene,
    emit_svg,
    grid_placement,
    lattice_scene,
    scene_bbox,
    sine_warp,
)

EXAMPLE_TABLE = {
    "000": -0.07, "100": 0.32, "010": -3.08, "001": 1.06,
    "110": -0.85, "101": 0.27, "011": -0.86, "111": 4.07,
}

ZERO_HEX = "#8000FF"  # hue 3/4, the color of a zero coefficient

_NS = "{http://www.w3.org/2000/svg}"


def _parse(svg_text):
    """(tag, class, color, attrib) per drawn element, in document order."""
    root = ET.fromstring(svg_text)
    out = []
    for child in root:
        tag = child.tag.removeprefix(_NS)
        color = child.get("fill") or child.get("stroke")
        out.append((tag, child.get("class"), color, child.attrib))
    return out


def _class_hex(mv):
    return {
        cls: rgb_to_hex(hue_to_rgb(nu_of_x(float(mv.coeffs[word]))))
        for cls, word in ELEMENT_WORDS.items()
    }


def _example_mv():
    return encode(EXAMPLE_TABLE, 3)


def test_redundant_census():
    svg = emit_svg(cube_scene(_example_mv()), 640, 480)
    census = collections.Counter((tag, cls) for tag, cls, _, _ in _parse(svg))
    assert census == {
        ("rect", "background"): 1,
        ("polygon", "wall-xy"): 2,
        ("polygon", "wall-xz"): 2,
        ("polygon", "wall-yz"): 2,
        ("polygon", "interior"): 1,
        ("line", "edge-x"): 4,
        ("line", "edge-y"): 4,
        ("line", "edge-z"): 4,
        ("circle", "corner"): 8,
    }


def test_representative_census():
    style = CubeStyle(mode="representative")
    svg = emit_svg(cube_scene(_example_mv(), style), 640, 480)
    census = collections.Counter((tag, cls) for tag, cls, _, _ in _parse(svg))
    assert census == {
        ("rect", "background"): 1,
        ("polygon", "wall-xy"): 1,
        ("polygon", "wall-xz"): 1,
        ("polygon", "wall-yz"): 1,
        ("polygon", "interior"): 1,
        ("line", "edge-x"): 1,
        ("line", "edge-y"): 1,
        ("line", "edge-z"): 1,
        ("circle", "corner"): 1,
    }


@pytest.mark.parametrize("mode", ["redundant", "representative"])
def test_parse_back_colors_match_pipeline(mode):
    mv = _example_mv()
    expected = _class_hex(mv)
    svg = emit_svg(cube_scene(mv, CubeStyle(mode=mode)), 640, 480)
    seen = set()
    for tag, cls, color, _ in _parse(svg):
        if cls == "background":
            assert color == ZERO_HEX
            continue
        assert color == expected[cls], f"{cls} drew {color}, wanted {expected[cls]}"
        seen.add(cls)
    assert seen == set(ELEMENT_WORDS)


def test_frozen_example_hexes():
    # display colors of the example table, one per element class
    expected = {
        "corner": "#5D00FF", "edge-x": "#FF00E8", "edge-y": "#00FF19",
        "edge-z": "#FF0E00", "wall-xy": "#00D8FF", "wall-xz": "#FF00FE",
        "wall-yz": "#00DAFF", "interior": "#F5FF00",
    }
    assert _class_hex(_example_mv()) == expected
    assert len(set(expected.values())) == 8


def test_opacity_and_stroke_attributes():
    svg = emit_svg(cube_scene(_example_mv()), 640, 480)
    for tag, cls, _, attrib in _parse(svg):
        if tag == "polygon" and cls.startswith("wall-"):
            assert attrib["fill-opacity"] == "0.8"
        elif cls == "interior":
            assert attrib["fill-opacity"] == "0.35"
        elif tag == "line":
            assert attrib["stroke-width"] == "3"
            assert attrib["stroke-linecap"] == "round"
        elif tag == "circle":
            assert attrib["r"] == "5"


def test_emission_is_deterministic():
    first = emit_svg(cube_scene(_example_mv()), 640, 480)
    second = emit_svg(cube_scene(_example_mv()), 640, 480)
    assert first == second
    assert "-0.00" not in first
    assert first.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<svg ')
    assert first.endswith("</svg>\n")


def _empty_scene():
    return lattice_scene(LatticeMultivector({}))


def test_empty_scene_is_background_only():
    svg = emit_svg(_empty_scene(), 200, 100)
    parsed = _parse(svg)
    assert len(parsed) == 1
    tag, cls, color, attrib = parsed[0]
    assert (tag, cls, color) == ("rect", "background", ZERO_HEX)
    assert attrib["width"] == "200" and attrib["height"] == "100"
    assert scene_bbox(_empty_scene()) is None


def test_scalar_cube_colors():
    mv = Multivector.scalar(1.0, 3)
    for tag, cls, color, _ in _parse(emit_svg(cube_scene(mv), 400, 400)):
        if cls == "corner":
            assert color == "#FF0000"
        else:
            assert color == ZERO_HEX


def test_bell_carrier_render():
    # scalar and b2 b3 share 1/sqrt(2): corners match the yz walls
    colors = _class_hex(bell_carrier())
    assert colors["corner"] == "#FF0053"
    assert colors["wall-yz"] == "#FF0053"
    for cls in ("edge-x", "edge-y", "edge-z", "wall-xy", "wall-xz", "interior"):
        assert colors[cls] == ZERO_HEX


def test_teleport_output_render():
    mv = teleport(0.6, 0.8)
    expected = _class_hex(mv)
    svg = emit_svg(cube_scene(mv), 640, 480)
    for _, cls, color, _ in _parse(svg):
        if cls != "background":
            assert color == expected[cls]
    assert expected["corner"] != ZERO_HEX
    assert expected["edge-z"] != ZERO_HEX
    for cls in ("edge-x", "edge-y", "wall-xy", "wall-xz", "wall-yz", "interior"):
        assert expected[cls] == ZERO_HEX


def test_single_cell_lattice_matches_cube():
    mv = _example_mv()
    lat = LatticeMultivector({(0, 0): mv})
    assert lattice_scene(lat) == cube_scene(mv)


def test_lattice_census_scales_with_cells():
    lat = LatticeMultivector({
        (0, 0): _example_mv(),
        (1, 0): bell_carrier(),
        (0, 1): Multivector.scalar(1.0, 3),
    })
    parsed = _parse(emit_svg(lattice_scene(lat), 900, 700))
    assert len(parsed) == 1 + 3 * 27


def test_painter_order_far_cells_first():
    near = Multivector.scalar(0.5, 3)
    far = Multivector.scalar(1.0, 3)
    lat = LatticeMultivector({(0, 0): near, (0, 1): far})
    svg = emit_svg(lattice_scene(lat), 800, 600)
    circle_colors = [c for tag, _, c, _ in _parse(svg) if tag == "circle"]
    assert len(circle_colors) == 16
    far_hex = _class_hex(far)["corner"]
    near_hex = _class_hex(near)["corner"]
    assert circle_colors[:8] == [far_hex] * 8
    assert circle_colors[8:] == [near_hex] * 8


def test_sine_warp_moves_geometry_not_colors():
    lat = LatticeMultivector({
        (i, j): encode({"000": 0.2 * i - 0.3 * j, "111": 1.0 + i + j}, 3)
        for i in range(2)
        for j in range(2)
    })
    flat = emit_svg(lattice_scene(lat), 800, 600)
    warped = emit_svg(lattice_scene(lat, deformation=sine_warp()), 800, 600)
    assert flat != warped
    count = collections.Counter
    flat_colors = count((t, cls, c) for t, cls, c, _ in _parse(flat))
    warped_colors = count((t, cls, c) for t, cls, c, _ in _parse(warped))
    assert flat_colors == warped_colors


def test_grid_placement():
    cells = [(0,), (2,), (1, 3)]
    assert grid_placement(cells) == {
        (0,): (0.0, 0.0, 0.0),
        (2,): (2.0, 0.0, 0.0),
        (1, 3): (1.0, 3.0, 0.0),
    }


def test_grid_placement_gives_each_cell_a_triple_of_floats():
    # a triple of exact floats is what lattice_scene takes without converting
    for cell in (7, (-3,), (np.int64(-3), 2), (1, -2, 2**31 - 1)):
        (offset,) = grid_placement([cell]).values()
        assert type(offset) is tuple and [type(p) for p in offset] == [float] * 3


@pytest.mark.parametrize("cell", [(1, 2, 3, 4), ()])
def test_grid_placement_names_a_cell_of_the_wrong_length(cell):
    message = f"^cell index must hold 1 to 3 integers, got {re.escape(repr(cell))}$"
    with pytest.raises(ValueError, match=message):
        grid_placement([(0, 0), cell])


def test_grid_placement_takes_a_bare_integer_cell_as_a_lattice_does():
    assert grid_placement([5, np.int64(-2)]) == {(5,): (5.0, 0.0, 0.0), (-2,): (-2.0, 0.0, 0.0)}
    assert LatticeMultivector({5: Multivector.zero(3)}).cell_indices() == ((5,),)
    for cell in (1.5, None, True):
        message = f"^cell index must be an integer or a tuple, got {re.escape(repr(cell))}$"
        with pytest.raises(ValueError, match=message):
            grid_placement([(0,), cell])


@pytest.mark.parametrize("cell", ["ab", (None, 1), (0, "1", 2), ("a",), (1j,)])
def test_grid_placement_names_a_cell_of_non_numbers(cell):
    message = f"^cell index must hold 1 to 3 integers, got {re.escape(repr(cell))}$"
    with pytest.raises(ValueError, match=message):
        grid_placement([(0,), cell])


def test_lattice_placement_validation():
    lat = LatticeMultivector({(0, 0): Multivector.zero(3)})
    with pytest.raises(ValueError):
        lattice_scene(lat, placement={})
    with pytest.raises(ValueError):
        lattice_scene(lat, placement={(0, 0): (1.0,)})
    # 2-component offsets are fine and land in the x-y plane
    scene = lattice_scene(lat, placement={(0, 0): (0.0, 0.0)})
    assert scene == cube_scene(Multivector.zero(3))


def test_non_finite_corners_are_rejected():
    lat = LatticeMultivector({(0,): Multivector.zero(3), (1,): Multivector.zero(3)})
    with pytest.raises(ValueError, match="corners must be finite"):
        lattice_scene(lat, deformation=lambda p: (p[0], p[1], math.nan if p[0] > 1 else p[2]))
    with pytest.raises(ValueError, match="corners must be finite"):
        lattice_scene(lat, placement={(0,): (math.inf, 0.0), (1,): (1.0, 0.0)})


def test_deformation_must_return_points():
    lat = LatticeMultivector({(0,): Multivector.zero(3)})
    with pytest.raises(ValueError):
        lattice_scene(lat, deformation=lambda p: (p[0], p[1]))


def test_a_deformation_may_return_any_3_sequence():
    lat = LatticeMultivector({cell: _example_mv() for cell in [(0, 0), (2, 1), (1, 3, 1)]})
    warp = sine_warp()
    want = lattice_scene(lat, deformation=warp)
    for wrap in (list, np.array):
        got = lattice_scene(lat, deformation=lambda p: wrap(warp(p)))
        assert got._corners.tobytes() == want._corners.tobytes()
        assert got == want


@pytest.mark.parametrize("deformation", [
    lambda p: (p[0], p[1]),
    lambda p: (p[0], p[1], p[2], 1.0),
    lambda p: (p[0], None, p[2]),
    lambda p: (p[0], p[1], None if p[0] > 1 else p[2]),  # the second cube only
    lambda p: (p[0], "north", p[2]),
    lambda p: (p[0], p[1], 10**400),
    lambda p: [p],
    lambda p: (p[0], p[1], 1j),
    lambda p: (p[0], p[1], (p[2],)) if p[0] > 1 else p,
])
def test_a_deformation_that_returns_no_3_point_is_named(deformation):
    lat = LatticeMultivector({(0,): _example_mv(), (1,): _example_mv()})
    with pytest.raises(ValueError, match="^deformation must return a 3-point$"):
        lattice_scene(lat, deformation=deformation)


@pytest.mark.parametrize("mode", ["redundant", "representative"])
def test_deformation_sees_each_cube_corner_once(mode):
    cells = [(0, 0), (3, 0), (1, 2), (2, 1, 4)]
    lat = LatticeMultivector({cell: _example_mv() for cell in cells})
    style = CubeStyle(mode=mode)
    seen = []

    def record(p):
        seen.append(p)
        return p

    scene = lattice_scene(lat, style, deformation=record)
    assert scene == lattice_scene(lat, style)
    # cubes are drawn far row first; each one deforms its 8 corners, once each
    painted = sorted(cells, key=lambda c: (-c[1], c))
    assert len(seen) == 8 * len(cells)
    for n, cell in enumerate(painted):
        i, j, k = cell + (0,) * (3 - len(cell))
        corners = {(i + x, j + y, k + z) for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)}
        assert sorted(seen[8 * n:8 * n + 8]) == sorted(corners)
    with pytest.raises(ValueError, match="3-point"):
        lattice_scene(lat, style, deformation=lambda p: (p[0], p[1]))


# four adjacent cells: 32 corners at 3 x 3 x 2 = 18 distinct points
_SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]


def _corners_in_paint_order(cells):
    """Every cube corner as a world point: cubes far row first, then in
    index order, and each cube's corners in number order x + 2y + 4z."""
    return [(i + float(c & 1), j + float(c >> 1 & 1), float(c >> 2))
            for i, j in sorted(cells, key=lambda cell: (-cell[1], cell)) for c in range(8)]


@pytest.mark.parametrize("mode", ["redundant", "representative"])
def test_deformation_sees_each_shared_corner_once_in_paint_order(mode):
    lat = LatticeMultivector({cell: _example_mv() for cell in _SQUARE})
    style = CubeStyle(mode=mode)
    seen = []

    def lift(p):
        x, y, z = p
        return (x, y, z + 0.25 * x * y)

    def record(p):
        seen.append(p)
        return lift(p)

    scene = lattice_scene(lat, style, deformation=record)
    assert seen == list(dict.fromkeys(_corners_in_paint_order(_SQUARE)))
    assert len(seen) == 18
    # every corner at a shared point takes that point's one result
    project = _ref_projector(style)
    want = [project(lift(p)) for p in _corners_in_paint_order(_SQUARE)]
    assert scene._corners.tobytes() == np.array(want).tobytes()


def test_a_deformation_that_raises_on_a_shared_point_names_the_first_painted():
    lat = LatticeMultivector({cell: _example_mv() for cell in _SQUARE})

    def refuse(p):
        if p[0] + p[1] >= 2.0:
            raise ValueError(f"no warp at {p!r}")
        return p

    # the first corner a per-corner pass would meet that refuses
    first = next(p for p in _corners_in_paint_order(_SQUARE) if p[0] + p[1] >= 2.0)
    with pytest.raises(ValueError, match=f"^{re.escape(f'no warp at {first!r}')}$"):
        lattice_scene(lat, deformation=refuse)


def test_cube_scene_validation():
    with pytest.raises(TypeError):
        cube_scene("not a multivector")
    with pytest.raises(ValueError):
        cube_scene(Multivector.zero(2))
    with pytest.raises(TypeError):
        lattice_scene({})


def test_style_validation():
    with pytest.raises(ValueError):
        CubeStyle(mode="wireframe")
    with pytest.raises(ValueError, match=r"^mode must be one of \('redundant', 'representative'\)"):
        CubeStyle(mode=np.array(["redundant", "x"]))
    with pytest.raises(ValueError):
        CubeStyle(background=1.0)
    with pytest.raises(ValueError):
        CubeStyle(foreshortening=0.0)
    with pytest.raises(ValueError):
        CubeStyle(edge=-1.0)


def test_emit_validation():
    scene = _empty_scene()
    with pytest.raises(ValueError):
        emit_svg(scene, 0, 100)
    with pytest.raises(ValueError):
        emit_svg(scene, 100, -5)
    with pytest.raises(ValueError):
        emit_svg(scene, 100.0, 100)
    with pytest.raises(TypeError):
        emit_svg("nope", 100, 100)


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),
    ((hue_to_rgb(0.75),), {}),
    ((hue_to_rgb(0.75), ()), {}),
    ((hue_to_rgb(0.75), ("nope",)), {}),
    ((), {"background": hue_to_rgb(0.75), "elements": ()}),
], ids=["none", "background", "no elements", "not an element", "keywords"])
def test_a_scene_is_built_only_from_cubes(args, kwargs):
    with pytest.raises(TypeError, match="^a Scene is built by cube_scene or lattice_scene$"):
        Scene(*args, **kwargs)


def test_projection_geometry():
    # the origin corner projects to (0, 0); +x to (edge, 0); +z up
    svg = emit_svg(cube_scene(Multivector.zero(3), CubeStyle(mode="representative")), 400, 400)
    discs = [attrib for tag, _, _, attrib in _parse(svg) if tag == "circle"]
    assert len(discs) == 1
    lines = {attrib["class"]: attrib for tag, _, _, attrib in _parse(svg) if tag == "line"}
    ox, oy = float(discs[0]["cx"]), float(discs[0]["cy"])
    ex = lines["edge-x"]
    assert float(ex["x2"]) - ox == pytest.approx(100.0, abs=0.01)
    assert float(ex["y2"]) - oy == pytest.approx(0.0, abs=0.01)
    ez = lines["edge-z"]
    assert float(ez["y2"]) - oy == pytest.approx(-100.0, abs=0.01)
    ey = lines["edge-y"]
    assert float(ey["x2"]) - ox == pytest.approx(100.0 * 0.5 * math.cos(math.radians(30.0)), abs=0.01)
    assert float(ey["y2"]) - oy == pytest.approx(-100.0 * 0.5 * math.sin(math.radians(30.0)), abs=0.01)


def test_scene_bbox():
    # at angle 0 the receding axis runs along x: y = 1 shifts a corner by
    # edge * foreshortening = 50 to the right, and z = 1 lifts it by 100
    scene = cube_scene(_example_mv(), CubeStyle(angle_deg=0.0, foreshortening=0.5))
    # corners span x in [0, 150] and y in [-100, 0]; the discs add their radius 5
    assert scene_bbox(scene) == (-5.0, -105.0, 155.0, 5.0)


def test_scene_bbox_is_worked_out_once():
    scene = cube_scene(teleport(0.6, 0.8))
    emit_svg(scene, 400, 300)
    # emit_svg stored the box on the frozen scene; viewport sizing reuses it
    assert vars(scene)["_bbox"] is scene_bbox(scene)


@pytest.mark.parametrize("field", [
    "background", "angle_deg", "foreshortening", "edge", "stroke_width",
    "corner_radius",
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_style_rejects_non_finite_numbers(field, value):
    with pytest.raises(ValueError, match=field):
        CubeStyle(**{field: value})


def _fmt_expected(v):
    s = f"{v:.2f}"
    return "0.00" if s == "-0.00" else s


@pytest.mark.parametrize("value, text", [
    (-0.0, "0.00"), (-0.004, "0.00"), (1e-320, "0.00"), (1.005, "1.00"), (2.004, "2.00"),
    (0.015, "0.01"), (0.125, "0.12"), (-0.005, "-0.01"),
])
def test_the_formatter_prints_edge_values_as_pinned(value, text):
    # signed zeros, a value printed -0.00 before folding, a subnormal and
    # values on or near a .xx5 rounding edge
    assert render._fmt(value) == text


# -- the per-element reference ------------------------------------------------
# The renderer as it was before scenes became arrays: each cube places,
# deforms and projects its 8 corners in Python floats and builds one
# Element per table row; the box and the emitter walk the elements by
# tag.  The array scene must give the same elements (signed zeros
# included), the same box and the same bytes.

_REF_CORNERS = tuple((float(i & 1), float(i >> 1 & 1), float(i >> 2)) for i in range(8))


def _ref_projector(style):
    theta = math.radians(style.angle_deg)
    fx = style.foreshortening * math.cos(theta)
    fy = style.foreshortening * math.sin(theta)
    e = style.edge

    def project(p):
        x, y, z = p
        return (e * (x + fx * y), -e * (z + fy * y))

    return project


def _ref_cube_elements(mv, style, offset, deformation, project):
    coeffs = mv.coeffs.tolist()
    colors = {cls: hue_to_rgb(nu_of_x(coeffs[word])) for cls, word in ELEMENT_WORDS.items()}
    ox, oy, oz = offset
    points = []
    for x, y, z in _REF_CORNERS:
        q = (x + ox, y + oy, z + oz)
        if deformation is not None:
            q = tuple(map(float, deformation(q)))
        points.append(project(q))
    elements = []
    for kind, cls, corners in _ELEMENT_TABLES[style.mode]:
        if kind == "edge":
            tag, value = "line", style.stroke_width
        elif kind == "corner":
            tag, value = "circle", style.corner_radius
        else:
            tag, value = "polygon", 0.8 if kind == "wall" else 0.35
        elements.append(Element(tag, cls, tuple([points[i] for i in corners]), colors[cls], value))
    return elements


def _ref_lattice_elements(lat, style, placement, deformation):
    cells = lat.items()
    if placement is None:
        placement = grid_placement(cell for cell, _ in cells)
    offsets = {}
    for cell, _ in cells:
        off = tuple(float(c) for c in placement[cell])
        offsets[cell] = off if len(off) == 3 else (off[0], off[1], 0.0)
    project = _ref_projector(style)
    elements = []
    for cell, mv in sorted(cells, key=lambda item: (-offsets[item[0]][1], item[0])):
        elements.extend(_ref_cube_elements(mv, style, offsets[cell], deformation, project))
    return tuple(elements)


def _ref_bbox(elements):
    xs, ys = [], []
    for el in elements:
        if el.tag == "circle":
            (x, y), = el.points
            xs.extend((x - el.value, x + el.value))
            ys.extend((y - el.value, y + el.value))
        else:
            for x, y in el.points:
                xs.append(x)
                ys.append(y)
    return (min(xs), min(ys), max(xs), max(ys)) if xs else None


def _ref_emit(background, elements, width, height):
    bbox = _ref_bbox(elements)
    dx = dy = 0.0
    if bbox is not None:
        dx = width / 2.0 - (bbox[0] + bbox[2]) / 2.0
        dy = height / 2.0 - (bbox[1] + bbox[3]) / 2.0
    fx = lambda x: _fmt_expected(x + dx)  # noqa: E731
    fy = lambda y: _fmt_expected(y + dy)  # noqa: E731
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect class="background" x="0" y="0" width="{width}" height="{height}" '
        f'fill="{rgb_to_hex(background)}"/>',
    ]
    for el in elements:
        if el.tag == "polygon":
            pts = " ".join(f"{fx(x)},{fy(y)}" for x, y in el.points)
            opacity = "" if el.value >= 1.0 else f' fill-opacity="{el.value:g}"'
            lines.append(f'<polygon class="{el.css_class}" points="{pts}" '
                         f'fill="{rgb_to_hex(el.color)}"{opacity}/>')
        elif el.tag == "line":
            (x1, y1), (x2, y2) = el.points
            lines.append(f'<line class="{el.css_class}" x1="{fx(x1)}" y1="{fy(y1)}" '
                         f'x2="{fx(x2)}" y2="{fy(y2)}" stroke="{rgb_to_hex(el.color)}" '
                         f'stroke-width="{el.value:g}" stroke-linecap="round"/>')
        else:
            (x, y), = el.points
            lines.append(f'<circle class="{el.css_class}" cx="{fx(x)}" '
                         f'cy="{fy(y)}" r="{el.value:g}" '
                         f'fill="{rgb_to_hex(el.color)}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


_EXTREME = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 1.0, -1.0])
_MAGNITUDE = st.builds(lambda sign, x: sign * x, st.sampled_from([1.0, -1.0]),
                       st.floats(1e-300, 1e300))
_MV = st.lists(st.one_of(_EXTREME, _MAGNITUDE, st.floats(-4.0, 4.0)),
               min_size=8, max_size=8).map(lambda c: Multivector(c, 3))
_CELL = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(tuple)
# few distinct values, so receding offsets tie and signed zeros meet
_OFFSET = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, -1.5, 3.25])
_PLACE = st.lists(_OFFSET, min_size=2, max_size=3).map(tuple)


@st.composite
def _lattice_cases(draw):
    cells = {}
    for cell in draw(st.lists(_CELL, min_size=1, max_size=6)):
        cells.setdefault(cell + (0,) * (3 - len(cell)), cell)
    lat = LatticeMultivector({cell: draw(_MV) for cell in cells.values()})
    placement = draw(st.one_of(st.none(), st.fixed_dictionaries(
        {cell: _PLACE for cell in lat.cell_indices()})))
    deformation = draw(st.sampled_from([None, sine_warp()]))
    style = CubeStyle(mode=draw(st.sampled_from(["redundant", "representative"])),
                      angle_deg=draw(st.sampled_from([30.0, 40.0, 90.0])),
                      foreshortening=draw(st.sampled_from([0.5, 0.7, 1.0])))
    return lat, style, placement, deformation


@settings(max_examples=25, deadline=None)
@given(_lattice_cases(), st.integers(1, 900), st.integers(1, 900))
def test_lattice_scene_matches_the_per_element_reference(case, width, height):
    lat, style, placement, deformation = case
    scene = lattice_scene(lat, style, placement, deformation)
    want = _ref_lattice_elements(lat, style, placement, deformation)
    assert repr(scene.elements) == repr(want)  # repr tells -0.0 from 0.0
    assert scene_bbox(scene) == _ref_bbox(want)
    background = hue_to_rgb(style.background)
    svg = _ref_emit(background, want, width, height)
    assert emit_svg(lattice_scene(lat, style, placement, deformation), width, height) == svg


_STYLES = (
    CubeStyle(),
    CubeStyle(angle_deg=40.0, edge=60.0, stroke_width=1.5, corner_radius=2.5),
    CubeStyle(mode="representative"),
    CubeStyle(mode="representative", angle_deg=40.0, edge=60.0, stroke_width=1.5,
              corner_radius=2.5),
)


def test_cube_scene_matches_the_per_element_reference():
    for style in _STYLES:
        mv = _example_mv()
        want = _ref_cube_elements(mv, style, (0.0, 0.0, 0.0), None, _ref_projector(style))
        scene = cube_scene(mv, style)
        assert repr(scene.elements) == repr(tuple(want))
        assert emit_svg(scene, 400, 300) == _ref_emit(scene.background, want, 400, 300)
        # each tag's point count and value, read from the scene itself
        for el in scene.elements:
            assert type(el) is Element
            assert len(el.points) == {"polygon": 4, "line": 2, "circle": 1}[el.tag]
            if el.tag == "polygon":
                assert el.css_class == "interior" or el.css_class.startswith("wall-")
                assert el.value == (0.35 if el.css_class == "interior" else 0.8)
            elif el.tag == "line":
                assert el.css_class.startswith("edge-") and el.value == style.stroke_width
            else:
                assert el.css_class == "corner" and el.value == style.corner_radius
        tags = collections.Counter(el.tag for el in scene.elements)
        assert tags == ({"polygon": 7, "line": 12, "circle": 8} if style.mode == "redundant"
                        else {"polygon": 4, "line": 3, "circle": 1})


def test_cube_scene_stores_corner_arrays():
    lat = LatticeMultivector({(i, j): _example_mv() for i in range(3) for j in range(2)})
    scene = lattice_scene(lat, deformation=sine_warp())
    assert scene._corners.shape == (6, 8, 2)
    assert "elements" not in vars(scene)  # built only when first read
    assert len(scene.elements) == scene._primitives == 6 * 27
    assert np.isfinite(scene._corners).all()


# -- one element table behind both modes --------------------------------------

# the two modes' rows as they were written out by hand, one table per mode
_BACK_WALLS_AND_BODY = (
    ("wall", "wall-xy", (0, 1, 3, 2)),
    ("wall", "wall-xz", (2, 3, 7, 6)),
    ("wall", "wall-yz", (0, 2, 6, 4)),
    ("body", "interior", (0, 1, 5, 4)),
)
_REDUNDANT_ROWS = _BACK_WALLS_AND_BODY + (
    ("edge", "edge-x", (0, 1)), ("edge", "edge-x", (2, 3)),
    ("edge", "edge-x", (4, 5)), ("edge", "edge-x", (6, 7)),
    ("edge", "edge-y", (0, 2)), ("edge", "edge-y", (1, 3)),
    ("edge", "edge-y", (4, 6)), ("edge", "edge-y", (5, 7)),
    ("edge", "edge-z", (0, 4)), ("edge", "edge-z", (1, 5)),
    ("edge", "edge-z", (2, 6)), ("edge", "edge-z", (3, 7)),
    ("wall", "wall-xy", (4, 5, 7, 6)),
    ("wall", "wall-xz", (0, 1, 5, 4)),
    ("wall", "wall-yz", (1, 3, 7, 5)),
    ("corner", "corner", (0,)), ("corner", "corner", (1,)),
    ("corner", "corner", (2,)), ("corner", "corner", (3,)),
    ("corner", "corner", (4,)), ("corner", "corner", (5,)),
    ("corner", "corner", (6,)), ("corner", "corner", (7,)),
)
_REPRESENTATIVE_ROWS = _BACK_WALLS_AND_BODY + (
    ("edge", "edge-x", (0, 1)),
    ("edge", "edge-y", (0, 2)),
    ("edge", "edge-z", (0, 4)),
    ("corner", "corner", (0,)),
)


def test_both_modes_draw_the_rows_written_out_by_hand():
    assert list(_ELEMENT_TABLES) == ["redundant", "representative"]
    assert _ELEMENT_TABLES["redundant"] == _REDUNDANT_ROWS
    assert _ELEMENT_TABLES["representative"] == _REPRESENTATIVE_ROWS


# -- overflow is a ValueError, never a numpy warning -------------------------


def test_a_cube_past_the_float_range_is_a_value_error_without_a_warning():
    with pytest.raises(ValueError,
                       match="^cube corners must be finite after placement and deformation$"):
        cube_scene(Multivector.scalar(1.0, 3), CubeStyle(edge=1.5e308))


@pytest.mark.parametrize("placement, style", [
    # its box is finite at the default corner radius; the discs take it past
    ({(0,): (-0.7, 0.0, 0.0)}, CubeStyle(edge=1e308, corner_radius=1e308)),
    ({(0,): (-1.5, 0.0, 0.0), (1,): (0.2, 0.0, 0.0)}, CubeStyle(edge=1e308)),  # its span
    ({(0,): (0.5, 0.0, 0.0)}, CubeStyle(edge=0.8e308)),  # its centre
], ids=["disc", "span", "centre"])
def test_a_scene_extent_past_the_float_range_is_a_value_error(placement, style):
    scene = lattice_scene(LatticeMultivector({cell: _example_mv() for cell in placement}),
                          style, placement)
    for call in (lambda: scene_bbox(scene), lambda: emit_svg(scene, 10, 10)):
        with pytest.raises(ValueError, match="^scene extent must have a finite span and centre"):
            call()


def test_a_scene_extent_at_the_float_range_still_renders():
    scene = cube_scene(_example_mv(), CubeStyle(edge=0.5e308))
    assert np.isfinite(scene_bbox(scene)).all()
    svg = emit_svg(scene, 10, 10)
    assert "inf" not in svg and "nan" not in svg


# -- wrong types and a frozen scene ------------------------------------------


def test_scene_bbox_rejects_what_is_not_a_scene():
    with pytest.raises(TypeError, match="^expected a Scene$"):
        scene_bbox("x")


def _cube():
    return cube_scene(_example_mv(), CubeStyle(mode="representative"))


def test_a_scene_is_frozen_hashable_and_printable():
    scene = _cube()
    with pytest.raises(FrozenInstanceError, match="^cannot assign to field 'background'$"):
        scene.background = hue_to_rgb(0.1)
    with pytest.raises(FrozenInstanceError, match="^cannot delete field 'background'$"):
        del scene.background
    assert scene.background == hue_to_rgb(0.75)
    assert scene.__eq__(1) is NotImplemented and (scene == 1) is False
    assert scene == _cube() and hash(scene) == hash(_cube()) and len({scene, _cube()}) == 1
    # equal cubes, one coefficient's sign of zero apart: the same corners and colors
    zero, negative_zero = Multivector.zero(3), Multivector([-0.0] * 8, 3)
    assert cube_scene(zero) == cube_scene(negative_zero)
    assert hash(cube_scene(zero)) == hash(cube_scene(negative_zero))
    # a color, a corner or a row apart
    assert scene != cube_scene(zero, CubeStyle(mode="representative"))
    assert scene != cube_scene(_example_mv(), CubeStyle(mode="representative", edge=60.0))
    assert scene != cube_scene(_example_mv())
    # ==, hash and repr read the arrays; the elements are built only when read
    assert repr(scene) == "Scene(background=RgbColor(r=0.5, g=0.0, b=1.0), cubes=1, primitives=8)"
    assert "elements" not in vars(scene)


def test_a_lattice_scene_prints_without_building_its_elements():
    lat = LatticeMultivector({(i, j): teleport(0.6, 0.8) for i in range(12) for j in range(12)})
    scene = lattice_scene(lat)
    text = repr(scene)
    assert "elements" not in vars(scene)
    assert text == "Scene(background=RgbColor(r=0.5, g=0.0, b=1.0), cubes=144, primitives=3888)"
    assert len(scene.elements) == 3888


def test_sine_warp_names_the_point_when_the_phase_is_infinite():
    # a caller's placement can still send x + y past the float range
    lat = LatticeMultivector({(0, 0): teleport(0.6, 0.8)})
    message = r"^sine_warp gives an infinite phase at the point \(1e\+308, 1e\+308, 0\.0\)$"
    with pytest.raises(ValueError, match=message):
        lattice_scene(lat, placement={(0, 0): (1e308, 1e308, 0.0)}, deformation=sine_warp())
