"""Cube scenes and SVG emission, checked by parsing the output back.

The central invariant: every drawn element's color equals the color
pipeline applied to the coefficient its class displays, surviving the
trip through 8-bit hex quantization bit for bit.
"""

import collections
import math
import re
import xml.etree.ElementTree as ET

import numpy as np

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from combcube.algebra import Multivector
from combcube.coding import LatticeMultivector, bell_carrier, encode
from combcube.colorwheel import RgbColor, hue_to_rgb, nu_of_x, rgb_to_hex
from combcube.gates import teleport
from combcube.render import (
    _ELEMENT_TABLES,
    ELEMENT_WORDS,
    CubeStyle,
    Disc,
    Polygon,
    Scene,
    Segment,
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


def test_empty_scene_is_background_only():
    svg = emit_svg(Scene(hue_to_rgb(0.75)), 200, 100)
    parsed = _parse(svg)
    assert len(parsed) == 1
    tag, cls, color, attrib = parsed[0]
    assert (tag, cls, color) == ("rect", "background", ZERO_HEX)
    assert attrib["width"] == "200" and attrib["height"] == "100"
    assert scene_bbox(Scene(hue_to_rgb(0.75))) is None


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
    assert grid_placement([(1, 1, 1)], spacing=2.5)[(1, 1, 1)] == (2.5, 2.5, 2.5)
    assert grid_placement([(1.5, 2)]) == {(1.5, 2): (1.5, 2.0, 0.0)}


@pytest.mark.parametrize("cell", [(1, 2, 3, 4), ()])
def test_grid_placement_names_a_cell_of_the_wrong_length(cell):
    message = f"^cell index must hold 1 to 3 values, got {re.escape(repr(cell))}$"
    with pytest.raises(ValueError, match=message):
        grid_placement([(0, 0), cell])


def test_grid_placement_takes_a_bare_integer_cell_as_a_lattice_does():
    assert grid_placement([5, np.int64(-2), (1.5, 2)]) == {
        (5,): (5.0, 0.0, 0.0),
        (-2,): (-2.0, 0.0, 0.0),
        (1.5, 2): (1.5, 2.0, 0.0),
    }
    assert LatticeMultivector({5: Multivector.zero(3)}).cell_indices() == ((5,),)
    for cell in (1.5, None, True):
        message = f"^cell index must be an integer or a tuple, got {re.escape(repr(cell))}$"
        with pytest.raises(ValueError, match=message):
            grid_placement([(0,), cell])


@pytest.mark.parametrize("cell", ["ab", (None, 1), (0, "1", 2), ("a",), (1j,)])
def test_grid_placement_names_a_cell_of_non_numbers(cell):
    message = f"^cell index must hold numbers, got {re.escape(repr(cell))}$"
    for spacing in (1.0, 2):  # an int spacing would repeat a string index
        with pytest.raises(ValueError, match=message):
            grid_placement([(0,), cell], spacing)
    assert grid_placement([(np.float64(0.5), np.int32(1))]) == {(0.5, 1): (0.5, 1.0, 0.0)}


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
    with pytest.raises(ValueError):
        CubeStyle(background=1.0)
    with pytest.raises(ValueError):
        CubeStyle(foreshortening=0.0)
    with pytest.raises(ValueError):
        CubeStyle(edge=-1.0)
    with pytest.raises(ValueError):
        CubeStyle(wall_opacity=1.5)


def test_emit_validation():
    scene = Scene(hue_to_rgb(0.75))
    with pytest.raises(ValueError):
        emit_svg(scene, 0, 100)
    with pytest.raises(ValueError):
        emit_svg(scene, 100, -5)
    with pytest.raises(ValueError):
        emit_svg(scene, 100.0, 100)
    with pytest.raises(TypeError):
        emit_svg("nope", 100, 100)
    with pytest.raises(TypeError):
        Scene(hue_to_rgb(0.75), ("nope",))


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
    scene = Scene(
        hue_to_rgb(0.75),
        (
            Disc((0.0, 0.0), 5.0, hue_to_rgb(0.0), "corner"),
            Segment((0.0, 0.0), (10.0, -20.0), hue_to_rgb(0.0), 3.0, "edge-x"),
            Polygon(((1.0, 1.0), (30.0, 1.0), (30.0, 4.0)), hue_to_rgb(0.0), 1.0, "wall-xy"),
        ),
    )
    assert scene_bbox(scene) == (-5.0, -20.0, 30.0, 5.0)


def test_scene_bbox_is_worked_out_once():
    scene = cube_scene(teleport(0.6, 0.8))
    emit_svg(scene, 400, 300)
    # emit_svg stored the box on the frozen scene; viewport sizing reuses it
    assert vars(scene)["bbox"] is scene_bbox(scene)


@pytest.mark.parametrize("field", [
    "background", "angle_deg", "foreshortening", "edge", "stroke_width",
    "corner_radius", "wall_opacity", "interior_opacity",
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_style_rejects_non_finite_numbers(field, value):
    with pytest.raises(ValueError, match=field):
        CubeStyle(**{field: value})


def test_sine_warp_rejects_non_finite_parameters():
    with pytest.raises(ValueError, match="amplitude"):
        sine_warp(amplitude=math.nan)
    with pytest.raises(ValueError, match="amplitude"):
        sine_warp(amplitude=math.inf)
    with pytest.raises(ValueError, match="period"):
        sine_warp(period=math.nan)
    with pytest.raises(ValueError, match="period"):
        sine_warp(period=math.inf)


# coordinates that stress the formatting: signed zeros, values that sit
# on a .xx5 rounding edge, and repeats (the pool is small, so points recur)
_EDGY = st.sampled_from([
    0.0, -0.0, 0.005, -0.005, 0.015, 1.005, -1.005, 2.675, -2.675,
    0.125, -0.125, 10.0, 123.455, -99.995, 1e-9, -1e-9,
])
_COORD = st.one_of(_EDGY, st.floats(-500.0, 500.0))
_POINT = st.tuples(_COORD, _COORD)
_CHANNEL = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.5, 0.5 / 255.0, 1.5 / 255.0, 127.5 / 255.0]),
    st.floats(0.0, 1.0),
)
_COLOR = st.builds(RgbColor, _CHANNEL, _CHANNEL, _CHANNEL)
_ELEMENT = st.one_of(
    st.builds(Polygon, st.lists(_POINT, min_size=1, max_size=5).map(tuple), _COLOR,
              st.just(0.8), st.just("wall-xy")),
    st.builds(Segment, _POINT, _POINT, _COLOR, st.just(3.0), st.just("edge-x")),
    st.builds(Disc, _POINT, st.sampled_from([0.0, 2.5, 5.0]), _COLOR, st.just("corner")),
)


def _fmt_expected(v):
    s = f"{v:.2f}"
    return "0.00" if s == "-0.00" else s


_RED = RgbColor(1.0, 0.0, 0.0)


@settings(max_examples=100, deadline=None)
@given(st.lists(_ELEMENT, max_size=12), st.integers(1, 900), st.integers(1, 900))
# a 2x2 viewport centred on these elements leaves dx = dy = 0, so the
# signed zeros, -0.004 (printed -0.00 before folding) and the .xx5 edges
# reach the formatter unshifted
@example([
    Segment((-0.004, -0.0), (2.004, 2.0), _RED, 3.0, "edge-x"),
    Polygon(((0.0, -0.0), (-0.0, 1.005), (1.005, 0.015), (0.0, -0.0)), _RED, 0.8, "wall-xy"),
    Disc((-0.0, 1.0), 0.0, RgbColor(0.5 / 255.0, -0.0, 127.5 / 255.0), "corner"),
], 2, 2)
def test_emitted_coordinates_and_colors_match_each_element(elements, width, height):
    scene = Scene(hue_to_rgb(0.75), tuple(elements))
    parsed = _parse(emit_svg(scene, width, height))[1:]
    assert len(parsed) == len(elements)
    if elements:
        x0, y0, x1, y1 = scene_bbox(scene)
        dx, dy = width / 2.0 - (x0 + x1) / 2.0, height / 2.0 - (y0 + y1) / 2.0
    for el, (tag, _, color, attrib) in zip(elements, parsed):
        assert color == rgb_to_hex(el.color)
        if isinstance(el, Polygon):
            assert tag == "polygon"
            want = " ".join(f"{_fmt_expected(x + dx)},{_fmt_expected(y + dy)}" for x, y in el.points)
            assert attrib["points"] == want
        elif isinstance(el, Segment):
            assert tag == "line"
            assert [attrib[a] for a in ("x1", "y1", "x2", "y2")] == [
                _fmt_expected(el.start[0] + dx), _fmt_expected(el.start[1] + dy),
                _fmt_expected(el.end[0] + dx), _fmt_expected(el.end[1] + dy),
            ]
        else:
            assert tag == "circle"
            assert [attrib["cx"], attrib["cy"]] == [
                _fmt_expected(el.center[0] + dx), _fmt_expected(el.center[1] + dy),
            ]


@pytest.mark.parametrize("element, message", [
    (Polygon(((0.0, 0.0), (math.nan, 1.0)), _RED, 0.8, "wall-xy"), "scene points must be finite"),
    (Segment((0.0, 0.0), (1.0, math.inf), _RED, 3.0, "edge-x"), "scene points must be finite"),
    (Disc((-math.inf, 0.0), 5.0, _RED, "corner"), "scene points must be finite"),
    (Polygon(((0.0, 0.0),), _RED, math.nan, "wall-xy"), "Polygon opacity must be finite, got nan"),
    (Segment((0.0, 0.0), (1.0, 1.0), _RED, math.inf, "edge-x"), "Segment width must be finite, got inf"),
    (Disc((0.0, 0.0), -math.inf, _RED, "corner"), "Disc radius must be finite, got -inf"),
])
def test_hand_built_scenes_reject_non_finite_values(element, message):
    good = Disc((1.0, 2.0), 5.0, _RED, "corner")
    with pytest.raises(ValueError, match=f"^{message}$"):
        Scene(hue_to_rgb(0.75), (good, element))


# -- the per-element reference ------------------------------------------------
# The renderer as it was before scenes became arrays: each cube places,
# deforms and projects its 8 corners in Python floats and builds one
# Polygon, Segment or Disc per table row; the box and the emitter walk the
# elements with isinstance checks.  The array scene must give the same
# elements (signed zeros included), the same box and the same bytes.

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
            elements.append(Segment(points[corners[0]], points[corners[1]], colors[cls],
                                    style.stroke_width, cls))
        elif kind == "corner":
            elements.append(Disc(points[corners[0]], style.corner_radius, colors[cls], cls))
        else:
            opacity = style.wall_opacity if kind == "wall" else style.interior_opacity
            elements.append(Polygon(tuple([points[i] for i in corners]), colors[cls], opacity, cls))
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
        if isinstance(el, Polygon):
            for x, y in el.points:
                xs.append(x)
                ys.append(y)
        elif isinstance(el, Segment):
            for x, y in (el.start, el.end):
                xs.append(x)
                ys.append(y)
        else:
            xs.extend((el.center[0] - el.radius, el.center[0] + el.radius))
            ys.extend((el.center[1] - el.radius, el.center[1] + el.radius))
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
        if isinstance(el, Polygon):
            pts = " ".join(f"{fx(x)},{fy(y)}" for x, y in el.points)
            opacity = "" if el.opacity >= 1.0 else f' fill-opacity="{el.opacity:g}"'
            lines.append(f'<polygon class="{el.css_class}" points="{pts}" '
                         f'fill="{rgb_to_hex(el.color)}"{opacity}/>')
        elif isinstance(el, Segment):
            (x1, y1), (x2, y2) = el.start, el.end
            lines.append(f'<line class="{el.css_class}" x1="{fx(x1)}" y1="{fy(y1)}" '
                         f'x2="{fx(x2)}" y2="{fy(y2)}" stroke="{rgb_to_hex(el.color)}" '
                         f'stroke-width="{el.width:g}" stroke-linecap="round"/>')
        else:
            lines.append(f'<circle class="{el.css_class}" cx="{fx(el.center[0])}" '
                         f'cy="{fy(el.center[1])}" r="{el.radius:g}" '
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
    deformation = draw(st.sampled_from([None, sine_warp(), sine_warp(1.7, 2.5)]))
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
    # a scene built from those elements takes the same box and emitter
    assert emit_svg(Scene(background, want), width, height) == svg


def test_cube_scene_matches_the_per_element_reference():
    for style in (CubeStyle(), CubeStyle(mode="representative", angle_deg=40.0, edge=60.0)):
        mv = _example_mv()
        want = _ref_cube_elements(mv, style, (0.0, 0.0, 0.0), None, _ref_projector(style))
        scene = cube_scene(mv, style)
        assert repr(scene.elements) == repr(tuple(want))
        assert emit_svg(scene, 400, 300) == _ref_emit(scene.background, want, 400, 300)


def test_cube_scene_stores_corner_arrays():
    lat = LatticeMultivector({(i, j): _example_mv() for i in range(3) for j in range(2)})
    scene = lattice_scene(lat, deformation=sine_warp())
    assert scene._corners.shape == (6, 8, 2)
    assert "elements" not in vars(scene)  # built only when first read
    assert len(scene.elements) == scene._primitives == 6 * 27
    assert np.isfinite(scene._corners).all()
