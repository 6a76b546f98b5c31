"""The lattice frame's text paths against their former loops.

``emit_svg`` fills one row template per call and ``lattice_to_json``
formats each distinct coefficient once per call; ``lattice_scene``
recognises float offsets by exact type before its full checks, and
``grid_placement`` reads its cells with the lattice's checks.  The
former per-row emitter and the former per-value lattice writer are kept
here as the bitwise references, and the lattice as the cell reference.
"""

import math
import struct
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combcube import colorwheel, render
from combcube.algebra import Multivector
from combcube.coding import LatticeMultivector, _key_words, _padded, lattice_from_json, lattice_to_json
from combcube.colorwheel import hue_to_rgb, rgb_to_hex
from combcube.render import (
    CubeStyle,
    cube_scene,
    emit_svg,
    grid_placement,
    lattice_scene,
    scene_bbox,
    sine_warp,
)

# -- the former loops, kept as the bitwise references ------------------------


def _ref_emit_svg(scene, width, height):
    """The former emitter: one f-string per primitive, row after row."""
    bbox = scene_bbox(scene)
    if bbox is None:
        dx = dy = 0.0
    else:
        x0, y0, x1, y1 = bbox
        dx = width / 2.0 - (x0 + x1) / 2.0
        dy = height / 2.0 - (y0 + y1) / 2.0
    xs = cache(lambda x: render._fmt(x + dx))
    ys = cache(lambda y: render._fmt(y + dy))
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect class="background" x="0" y="0" width="{width}" height="{height}" '
        f'fill="{rgb_to_hex(scene.background)}"/>',
    ]
    rows = []
    for tag, cls, idx, slot, value in scene._table:
        if tag == "polygon":
            attrs = "" if value >= 1.0 else f' fill-opacity="{value:g}"'
        elif tag == "line":
            attrs = f' stroke-width="{value:g}" stroke-linecap="round"'
        else:
            attrs = f' r="{value:g}"'
        rows.append((tag, cls, idx, slot, attrs))
    for pts, colors in zip(scene._corners.tolist(), scene._colors):
        px = [xs(x) for x, _ in pts]
        py = [ys(y) for _, y in pts]
        pairs = [f"{x},{y}" for x, y in zip(px, py)]
        for tag, cls, idx, slot, attrs in rows:
            color = rgb_to_hex(colors[slot])
            if tag == "polygon":
                lines.append(f'<polygon class="{cls}" points="{" ".join([pairs[i] for i in idx])}" '
                             f'fill="{color}"{attrs}/>')
            elif tag == "line":
                i, j = idx
                lines.append(f'<line class="{cls}" x1="{px[i]}" y1="{py[i]}" x2="{px[j]}" '
                             f'y2="{py[j]}" stroke="{color}"{attrs}/>')
            else:
                i = idx[0]
                lines.append(f'<circle class="{cls}" cx="{px[i]}" cy="{py[i]}"{attrs} '
                             f'fill="{color}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _ref_json_number(v):
    text = format(float(v), ".17g")
    return "-0.0" if text == "-0" else text


def _ref_lattice_to_json(lat):
    """The former writer: every coefficient formatted where it is written."""
    if len(lat) == 0:
        return "{}\n"
    blocks = []
    for cell, row in zip(lat.cell_indices(), lat._block.tolist()):
        body = ",\n".join(f'    "{key}": {_ref_json_number(row[word])}'
                          for key, word in _key_words(3).items())
        blocks.append(f'  "{",".join(map(str, cell))}": {{\n{body}\n  }}')
    return "{\n" + ",\n".join(blocks) + "\n}\n"


# -- emit_svg ----------------------------------------------------------------

_MV = Multivector([-0.07, 0.32, -3.08, 1.06, -0.85, 0.27, -0.0, 4.07], 3)


def _lattice():
    return LatticeMultivector({(i, j): _MV * (i - j) for i in range(3) for j in range(2)})


_SCENES = {
    "empty": lambda: lattice_scene(LatticeMultivector({})),
    "redundant cube": lambda: cube_scene(_MV),
    "representative cube": lambda: cube_scene(_MV, CubeStyle(mode="representative")),
    "redundant lattice": lambda: lattice_scene(_lattice(), deformation=sine_warp()),
    "representative lattice": lambda: lattice_scene(_lattice(), CubeStyle(mode="representative"),
                                                    deformation=sine_warp()),
}


@pytest.mark.parametrize("name", sorted(_SCENES))
def test_cube_and_lattice_scenes_emit_as_the_former_loop(name):
    scene = _SCENES[name]()
    for width, height in ((1, 1), (200, 100), (641, 479)):
        assert emit_svg(scene, width, height) == _ref_emit_svg(scene, width, height)


def test_row_templates_stay_within_their_cap_and_are_shared_as_tuples():
    cap = render._row_template.cache_info().maxsize
    scenes = [cube_scene(_MV, CubeStyle(mode=mode, stroke_width=1.0 + n))
              for n in range(cap + 2) for mode in ("redundant", "representative")]
    for scene in scenes + scenes[:1]:  # the first table again, after it was evicted
        assert emit_svg(scene, 200, 100) == _ref_emit_svg(scene, 200, 100)
        assert render._row_template.cache_info().currsize <= cap
    literals, order = render._row_template(scenes[0]._table)
    assert type(literals) is tuple and type(order) is tuple


def test_an_empty_scene_is_its_header_and_footer():
    scene = _SCENES["empty"]()
    assert emit_svg(scene, 20, 10).splitlines() == [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="20" height="10" viewBox="0 0 20 10">',
        f'<rect class="background" x="0" y="0" width="20" height="10" '
        f'fill="{rgb_to_hex(hue_to_rgb(0.75))}"/>',
        "</svg>",
    ]


@pytest.mark.parametrize("mode", ["redundant", "representative"])
def test_styled_cube_scenes_emit_as_the_former_loop(mode):
    style = CubeStyle(mode=mode, background=0.1, angle_deg=40.0, foreshortening=0.7, edge=60.0,
                      stroke_width=1.5, corner_radius=2.5)
    for scene in (cube_scene(_MV, style), cube_scene(_MV, CubeStyle(mode=mode))):
        assert emit_svg(scene, 640, 480) == _ref_emit_svg(scene, 640, 480)


def test_rgb_to_hex_runs_once_per_primitive_and_once_for_the_backdrop(monkeypatch):
    calls = []

    def counted(color):
        calls.append(color)
        return rgb_to_hex(color)

    monkeypatch.setattr(render, "rgb_to_hex", counted)
    scene = lattice_scene(_edge_lattice(), deformation=sine_warp())
    emit_svg(scene, 900, 700)
    assert len(calls) == scene._primitives + 1 == 27 * len(_edge_lattice()) + 1


# -- lattice_to_json ---------------------------------------------------------

_EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, 0.1, -2.5, 1.0)


def _edge_lattice():
    """Cells that hold 0.0 and -0.0 side by side, extremes and repeats."""
    rows = [np.roll(_EDGE_VALUES, r)[:8] for r in range(4)]
    rows.append([-0.0, 0.0] * 4)
    rows.append([0.1] * 8)
    cells = [(0,), (1, 0), (-2, 3), (0, 0, 5), (4, -1, 2), (7,)]
    return LatticeMultivector({cell: Multivector(row, 3) for cell, row in zip(cells, rows)})


def test_lattice_json_matches_the_former_writer_on_edge_values():
    lat = _edge_lattice()
    text = lattice_to_json(lat)
    assert text == _ref_lattice_to_json(lat)
    values = {line.rsplit(": ", 1)[1].rstrip(",") for line in text.splitlines()
              if line.startswith("    ")}
    assert {"0", "-0.0", "4.9406564584124654e-324", "-1.0000000000000001e+300"} <= values
    back = lattice_from_json(text)
    assert back == lat
    assert back._block.view(np.int64).tolist() == lat._block.view(np.int64).tolist()


def test_lattice_json_of_an_empty_lattice():
    assert lattice_to_json(LatticeMultivector({})) == _ref_lattice_to_json(LatticeMultivector({}))


def test_edge_lattice_scene_emits_as_the_former_loop():
    lat = _edge_lattice()
    for style in (CubeStyle(), CubeStyle(mode="representative")):
        scene = lattice_scene(lat, style, deformation=sine_warp())
        assert emit_svg(scene, 900, 700) == _ref_emit_svg(scene, 900, 700)


def test_nu_of_x_runs_once_per_distinct_coefficient(monkeypatch):
    calls = []

    def counted(x):
        calls.append(x)
        return colorwheel.nu_of_x(x)

    monkeypatch.setattr(render, "nu_of_x", counted)
    lat = _edge_lattice()
    lattice_scene(lat)
    # 0.0 and -0.0 share a color, as both take the hue of zero; the values
    # are met in paint order, far cells (larger j) first
    order = np.argsort([-_padded(cell)[1] for cell in lat.cell_indices()], kind="stable")
    first_seen = dict.fromkeys(lat._block[order].ravel().tolist())
    assert len(first_seen) == len(set(lat._block.ravel().tolist())) < lat._block.size
    assert [struct.pack("<d", x) for x in calls] == [struct.pack("<d", x) for x in first_seen]


_COEFF = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.5, -0.5, 1 / 3,
                          1.7976931348623157e308])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(-4, 4), min_size=1, max_size=3),
                          st.lists(_COEFF, min_size=8, max_size=8)),
                min_size=0, max_size=12))
def test_lattice_blocks_write_and_draw_as_the_former_loops(entries):
    cells = {}
    for cell, row in entries:
        cells.setdefault(_padded(tuple(cell)), (tuple(cell), row))
    lat = LatticeMultivector({cell: Multivector(row, 3) for cell, row in cells.values()})
    assert lattice_to_json(lat) == _ref_lattice_to_json(lat)
    scene = lattice_scene(lat, CubeStyle(mode="representative"))
    assert emit_svg(scene, 300, 200) == _ref_emit_svg(scene, 300, 200)


# -- grid_placement and offsets -----------------------------------------------


def _read_cell(f, cell):
    """The cell that ``f`` reads from ``cell``, with the type of each index, or
    its error message."""
    try:
        out = f(cell)
    except ValueError as exc:
        return "error", str(exc)
    (got,) = out
    return got, tuple(map(type, got))


_PLACEMENTS = [
    [(1, 2), (0,), (3, -1, 2)],
    [(-1, -2), (0, 0, 0), (-3, 1, -2)],
    [(np.int64(1), np.int32(2)), (np.int8(-3),)],
    [(1.5, 2), (0.25, -0.5, 3.0)],
    [5, np.int64(-2), (1, 2)],
    [(2**1022, -(2**1022), 0)],
    [(2**1023, 0)],
    [(10**400,)],
    [(-(10**400), 0)],
    [(1, 2), (2, 0)],
    [(0, 1), (0, 0, 0, 0)],
    [(0, 1), ()],
    [(1, "2")],
    [(1, True)],
    [(1, math.nan)],
    [None],
]


@pytest.mark.parametrize("cells", _PLACEMENTS)
def test_grid_placement_matches_the_full_checks(cells):
    """A cell is taken or refused as a lattice takes or refuses it, with
    its message; a taken cell sits at its float indices."""
    for cell in cells:
        assert (_read_cell(lambda c: grid_placement([c]), cell)
                == _read_cell(lambda c: LatticeMultivector({c: Multivector.zero(3)}).cell_indices(),
                              cell))
    try:
        lat = LatticeMultivector({cell: Multivector.zero(3) for cell in cells})
    except ValueError:
        return
    want = {cell: tuple(float(p) for p in _padded(cell)) for cell in lat.cell_indices()}
    got = grid_placement(cells)
    assert got == want and {type(p) for off in got.values() for p in off} == {float}


def test_offsets_as_tuples_lists_and_numpy_floats_draw_one_scene():
    lat = _edge_lattice()
    tuples = grid_placement(lat.cell_indices())
    shapes = [
        tuples,
        {cell: list(off) for cell, off in tuples.items()},
        {cell: tuple(map(np.float64, off)) for cell, off in tuples.items()},
        {cell: np.array(off) for cell, off in tuples.items()},
        {cell: (off[0], off[1], np.float32(off[2])) for cell, off in tuples.items()},
    ]
    want = emit_svg(lattice_scene(lat, placement=tuples), 800, 600)
    for placement in shapes:
        scene = lattice_scene(lat, placement=placement)
        assert emit_svg(scene, 800, 600) == want
    # two components lie in the x-y plane
    flat = {cell: (0.5 * i, -0.25 * j) for i, cell in enumerate(lat.cell_indices())
            for j in [len(cell)]}
    for placement in (flat, {cell: (*off, 0.0) for cell, off in flat.items()},
                      {cell: [*map(np.float64, off)] for cell, off in flat.items()}):
        assert (emit_svg(lattice_scene(lat, placement=placement), 800, 600)
                == emit_svg(lattice_scene(lat, placement=flat), 800, 600))


def test_offsets_keep_their_messages_beside_float_tuples():
    lat = _edge_lattice()
    good = grid_placement(lat.cell_indices())
    first = lat.cell_indices()[0]
    for bad, message in (((1.0, "2"), "must hold real numbers"),
                         ((1.0, 2.0, 3.0, 4.0), "must have 2 or 3 components"),
                         ((1.0,), "must have 2 or 3 components"),
                         ("ab", "must hold real numbers")):
        with pytest.raises(ValueError, match=message):
            lattice_scene(lat, placement={**good, first: bad})
    with pytest.raises(ValueError, match="must be finite"):
        lattice_scene(lat, placement={**good, first: (math.inf, 0.0, 0.0)})
