"""Colored-cube scenes and deterministic SVG emission.

A dim-3 multivector is drawn as a unit cube whose element classes take
the colors of its eight coefficients: corners show the scalar, the
edges parallel to the x, y and z axes show b1, b2 and b3, the walls
parallel to the xy, xz and yz planes show b1b2, b1b3 and b2b3, and the
interior shows b1b2b3.  An element whose coefficient is zero simply
takes the hue of zero, which is also the default backdrop; nothing is
special-cased away.

Redundant mode draws every element (8 corners, 12 edges, 6 walls, one
interior body); representative mode draws one element per class.  Both
modes are one element table each: rows of (kind, class, corner
numbers) in paint order.  A cube's 8 corners are offset, deformed and
projected once, its 8 class colors are computed once, and every row
picks its points and its color from those.  The projection is oblique:
x right, z up, y receding at a fixed angle with fixed foreshortening.
Scenes list their primitives back to front, so emission is a single
pass and byte-identical for identical inputs; within one emission each
distinct coordinate is formatted once.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import FrozenInstanceError, dataclass, fields
from functools import cached_property
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .algebra import Multivector, _all_finite, _is_int
from .coding import LatticeMultivector, _padded
from .colorwheel import RgbColor, hue_to_rgb, nu_of_x, rgb_to_hex

# blade word shown by each element class
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

# Unit-cube corners are numbered x + 2y + 4z, coordinates 0 or 1.  Each
# row of an element table is (kind, class, corner numbers); the rows are
# in paint order, back to front.  With y receding to the upper right,
# the walls at z=0, y=1 and x=0 sit behind the cube body, and the
# interior's fill is carried by the front-face (y=0) silhouette.
_UNIT_CUBE = np.array([(i & 1, i >> 1 & 1, i >> 2) for i in range(8)], dtype=np.float64)
_BACK_AND_BODY = (
    ("wall", "wall-xy", (0, 1, 3, 2)),
    ("wall", "wall-xz", (2, 3, 7, 6)),
    ("wall", "wall-yz", (0, 2, 6, 4)),
    ("body", "interior", (0, 1, 5, 4)),
)
_ELEMENT_TABLES = {
    # every element: 6 walls, the body, 12 edges, 8 corners
    "redundant": _BACK_AND_BODY + (
        ("edge", "edge-x", (0, 1)), ("edge", "edge-x", (2, 3)),
        ("edge", "edge-x", (4, 5)), ("edge", "edge-x", (6, 7)),
        ("edge", "edge-y", (0, 2)), ("edge", "edge-y", (1, 3)),
        ("edge", "edge-y", (4, 6)), ("edge", "edge-y", (5, 7)),
        ("edge", "edge-z", (0, 4)), ("edge", "edge-z", (1, 5)),
        ("edge", "edge-z", (2, 6)), ("edge", "edge-z", (3, 7)),
        ("wall", "wall-xy", (4, 5, 7, 6)),
        ("wall", "wall-xz", (0, 1, 5, 4)),
        ("wall", "wall-yz", (1, 3, 7, 5)),
    ) + tuple(("corner", "corner", (i,)) for i in range(8)),
    # one element per class: the back walls, so nothing hides the rest,
    # the body, and the origin corner with the three edges leaving it
    "representative": _BACK_AND_BODY + (
        ("edge", "edge-x", (0, 1)),
        ("edge", "edge-y", (0, 2)),
        ("edge", "edge-z", (0, 4)),
        ("corner", "corner", (0,)),
    ),
}
_MODES = tuple(_ELEMENT_TABLES)


@dataclass(frozen=True)
class CubeStyle:
    """Knobs for cube drawing; defaults match the reference figures.

    Lengths are SVG user units.  The background field is a hue, kept at
    the hue of zero so unset coefficients blend into the backdrop.
    """

    mode: str = "redundant"
    background: float = 0.75
    angle_deg: float = 30.0
    foreshortening: float = 0.5
    edge: float = 100.0
    stroke_width: float = 3.0
    corner_radius: float = 5.0
    wall_opacity: float = 0.8
    interior_opacity: float = 0.35

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        for name in (f.name for f in fields(self) if f.name != "mode"):
            if not math.isfinite(float(getattr(self, name))):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not 0.0 <= float(self.background) < 1.0:
            raise ValueError(f"background hue must lie in [0, 1), got {self.background!r}")
        if not 0.0 < float(self.foreshortening) <= 1.0:
            raise ValueError("foreshortening must lie in (0, 1]")
        if float(self.edge) <= 0.0 or float(self.stroke_width) <= 0.0 or float(self.corner_radius) <= 0.0:
            raise ValueError("edge, stroke width and corner radius must be positive")
        for name in ("wall_opacity", "interior_opacity"):
            if not 0.0 <= float(getattr(self, name)) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True)
class Polygon:
    points: tuple[tuple[float, float], ...]
    color: RgbColor
    opacity: float
    css_class: str


@dataclass(frozen=True)
class Segment:
    start: tuple[float, float]
    end: tuple[float, float]
    color: RgbColor
    width: float
    css_class: str


@dataclass(frozen=True)
class Disc:
    center: tuple[float, float]
    radius: float
    color: RgbColor
    css_class: str


_KINDS = {"wall": Polygon, "body": Polygon, "edge": Segment, "corner": Disc}


class _Row(NamedTuple):
    """One primitive of a drawing table, drawn once per item of a scene."""

    kind: type  # Polygon, Segment or Disc
    css_class: str
    points: tuple[int, ...]  # numbers of the item's points it joins
    slot: int  # which of the item's colors it takes
    value: float  # its opacity, stroke width or radius


class Scene:
    """Drawables in paint order (back to front) over a solid backdrop.

    A scene is stored as arrays: a table of rows, one per primitive,
    drawn once for each item, the items' points as one (nitems,
    npoints, 2) array, and each item's colors.  A cube scene has one
    item per cube: its 8 projected corners, its 8 class colors (indexed
    by blade word) and the mode's element table.  A scene built from
    elements is one item whose table lists them.  ``elements`` gives the
    drawables as Polygon, Segment and Disc, built on first read.
    """

    def __init__(self, background: RgbColor, elements=()):
        elements = tuple(elements)
        table, points, colors = [], [], []
        for el in elements:
            if isinstance(el, Polygon):
                kind, pts, field = Polygon, el.points, "opacity"
            elif isinstance(el, Segment):
                kind, pts, field = Segment, (el.start, el.end), "width"
            elif isinstance(el, Disc):
                kind, pts, field = Disc, (el.center,), "radius"
            else:
                raise TypeError(f"unsupported scene element {type(el).__name__}")
            value = getattr(el, field)
            if not math.isfinite(value):
                raise ValueError(f"{kind.__name__} {field} must be finite, got {value!r}")
            numbers = tuple(range(len(points), len(points) + len(pts)))
            table.append(_Row(kind, el.css_class, numbers, len(colors), value))
            points.extend(pts)
            colors.append(el.color)
        try:
            corners = np.array(points, dtype=np.float64).reshape(1, len(points), 2)
        except ValueError:
            raise ValueError("scene points must be (x, y) pairs") from None
        if not _all_finite(corners):
            raise ValueError("scene points must be finite")
        vars(self).update(background=background, _table=tuple(table), _corners=corners,
                          _colors=[colors], elements=elements)

    @classmethod
    def _from_arrays(cls, background, table, corners, colors) -> "Scene":
        scene = cls.__new__(cls)
        vars(scene).update(background=background, _table=table, _corners=corners, _colors=colors)
        return scene

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @cached_property
    def elements(self) -> tuple:
        """The drawables as Polygon, Segment and Disc, in paint order."""
        out = []
        for pts, colors in zip(self._corners.tolist(), self._colors):
            pts = [tuple(p) for p in pts]
            for kind, cls, idx, slot, value in self._table:
                if kind is Polygon:
                    out.append(Polygon(tuple([pts[i] for i in idx]), colors[slot], value, cls))
                elif kind is Segment:
                    out.append(Segment(pts[idx[0]], pts[idx[1]], colors[slot], value, cls))
                else:
                    out.append(Disc(pts[idx[0]], value, colors[slot], cls))
        return tuple(out)

    @property
    def _primitives(self) -> int:
        """len(elements), without building them."""
        return len(self._table) * len(self._corners)

    @cached_property
    def bbox(self):
        """Bounding box (x0, y0, x1, y1) of the drawables, None when empty.

        Worked out on first use and kept: the scene is frozen, and both
        viewport sizing and ``emit_svg`` need it.
        """
        if not self._corners.size:
            return None
        # Every point is drawn by some row, and a disc's center lies
        # between its extents, so the points themselves can all go in.
        boxes = [_box(self._corners)]
        discs = [row for row in self._table if row.kind is Disc]
        if discs:
            centers = self._corners[:, [row.points[0] for row in discs]]
            radii = np.array([row.value for row in discs], dtype=np.float64)[:, None]
            boxes += [_box(centers - radii), _box(centers + radii)]
        x0, y0, x1, y1 = zip(*boxes)
        return (min(x0), min(y0), max(x1), max(y1))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.background, self.elements) == (other.background, other.elements)

    def __hash__(self) -> int:
        return hash((self.background, self.elements))

    def __repr__(self) -> str:
        return f"Scene(background={self.background!r}, elements={self.elements!r})"


class _Memo(dict):
    """``fn(key)`` for each distinct key, worked out on first lookup."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _box(points: np.ndarray) -> tuple:
    """(x0, y0, x1, y1) of an array of (x, y) points, one axis at a time."""
    x, y = points[..., 0], points[..., 1]
    return float(x.min()), float(y.min()), float(x.max()), float(y.max())


def _cube_table(style: CubeStyle) -> tuple:
    values = {"wall": style.wall_opacity, "body": style.interior_opacity,
              "edge": style.stroke_width, "corner": style.corner_radius}
    return tuple(
        _Row(_KINDS[kind], cls, corners, ELEMENT_WORDS[cls], values[kind])
        for kind, cls, corners in _ELEMENT_TABLES[style.mode]
    )


def _deformed(deformation: Callable, p) -> tuple:
    q = tuple(map(float, deformation(tuple(p))))
    if len(q) != 3:
        raise ValueError("deformation must return a 3-point")
    return q


def _cubes(block: np.ndarray, offsets: np.ndarray, style: CubeStyle, deformation) -> Scene:
    """One cube per row of the (n, 8) coefficient ``block``, offset by the
    matching row of ``offsets`` (n, 3): every scene's one builder.

    Cubes are painted far to near by receding offset, ties in row order.
    Each cube's corners are offset, deformed (one call per corner, cube
    after cube) and projected obliquely, x right, z up and y receding,
    in the float order of e * (x + fx * y) and (-e) * (z + fy * y).
    """
    order = np.argsort(-offsets[:, 1], kind="stable")
    # 0.0 and -0.0 share a key, which is safe: both take the hue 3/4
    hues = _Memo(lambda c: hue_to_rgb(nu_of_x(c)))
    colors = [[hues[c] for c in row] for row in block[order].tolist()]
    world = offsets[order][:, None, :] + _UNIT_CUBE
    if deformation is not None:
        world = np.array(
            [_deformed(deformation, p) for p in world.reshape(-1, 3).tolist()]
        ).reshape(world.shape)
    theta = math.radians(style.angle_deg)
    fx = style.foreshortening * math.cos(theta)
    fy = style.foreshortening * math.sin(theta)
    e = float(style.edge)
    x, y, z = world[..., 0], world[..., 1], world[..., 2]
    corners = np.stack([e * (x + fx * y), -e * (z + fy * y)], axis=-1)
    if not _all_finite(corners):
        raise ValueError("cube corners must be finite after placement and deformation")
    return Scene._from_arrays(hue_to_rgb(style.background), _cube_table(style), corners, colors)


def cube_scene(mv: Multivector, style: CubeStyle | None = None) -> Scene:
    """Scene for a single comb-coded multivector as a colored cube."""
    if not isinstance(mv, Multivector):
        raise TypeError("expected a Multivector")
    if mv.dim != 3:
        raise ValueError(f"cube rendering needs dimension 3, got {mv.dim}")
    style = style if style is not None else CubeStyle()
    return _cubes(mv.coeffs[None, :], np.zeros((1, 3)), style, None)


def grid_placement(cells, spacing: float = 1.0) -> dict:
    """Unit-grid placement: cell (i, j, k) sits at (i, j, k) * spacing.

    Shorter cell indices pad with zeros, so 2-index lattices lie in the
    x-y plane.  A bare integer cell k is the one-index cell (k,), as in
    a lattice.  Indices may be any real numbers, such as (1.5, 2).
    """
    out = {}
    for given in cells:
        cell = (int(given),) if _is_int(given) else given
        try:
            cell = tuple(cell)
        except TypeError:
            raise ValueError(f"cell index must be an integer or a tuple, got {given!r}") from None
        if not 1 <= len(cell) <= 3:
            raise ValueError(f"cell index must hold 1 to 3 values, got {cell!r}")
        if not all(isinstance(p, numbers.Real) for p in cell):
            raise ValueError(f"cell index must hold numbers, got {given!r}")
        i, j, k = _padded(cell)
        out[cell] = (i * spacing, j * spacing, k * spacing)
    return out


def sine_warp(amplitude: float = 0.3, period: float = 4.0) -> Callable:
    """Vertical ripple running along x + y; geometry moves, colors do not."""
    if not math.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude!r}")
    if not (math.isfinite(period) and period > 0):
        raise ValueError(f"period must be positive and finite, got {period!r}")

    def deform(p):
        x, y, z = p
        return (x, y, z + amplitude * math.sin(math.tau * (x + y) / period))

    return deform


def lattice_scene(
    lat: LatticeMultivector,
    style: CubeStyle | None = None,
    placement: Mapping | None = None,
    deformation: Callable | None = None,
) -> Scene:
    """Scene for a lattice: one cube per occupied cell, painter ordered.

    ``placement`` maps cell index to a 2- or 3-component world offset in
    cube-edge units (default: grid placement).  Cells are drawn far to
    near by receding coordinate, then in index order, and each cube
    keeps its fixed internal element order.
    """
    if not isinstance(lat, LatticeMultivector):
        raise TypeError("expected a LatticeMultivector")
    style = style if style is not None else CubeStyle()
    cells = lat.cell_indices()
    if placement is None:
        placement = grid_placement(cells)
    offsets = []
    for cell in cells:
        if cell not in placement:
            raise ValueError(f"placement missing cell {cell}")
        off = tuple(float(c) for c in placement[cell])
        if len(off) == 2:
            off = (off[0], off[1], 0.0)
        if len(off) != 3:
            raise ValueError(f"offset for cell {cell} must have 2 or 3 components")
        offsets.append(off)
    return _cubes(lat._block, np.array(offsets, dtype=np.float64).reshape(-1, 3), style,
                  deformation)


def scene_bbox(scene: Scene):
    """Bounding box (x0, y0, x1, y1) of the drawables, None when empty."""
    return scene.bbox


def _fmt(v: float) -> str:
    s = f"{v:.2f}"
    return "0.00" if s == "-0.00" else s


def emit_svg(scene: Scene, width: int, height: int) -> str:
    """Serialize a scene to SVG 1.1 text, centered in the viewport.

    Pure function of its arguments: identical scenes give identical
    bytes.  Colors come out as #RRGGBB fills and strokes, and every
    element carries its class name, so the text parses back losslessly.
    Cubes share corners, so each distinct coordinate is formatted once
    per call.
    """
    if not isinstance(scene, Scene):
        raise TypeError("expected a Scene")
    for name, v in (("width", width), ("height", height)):
        if not isinstance(v, int) or isinstance(v, bool) or v <= 0:
            raise ValueError(f"{name} must be a positive integer, got {v!r}")
    bbox = scene_bbox(scene)
    if bbox is None:
        dx = dy = 0.0
    else:
        x0, y0, x1, y1 = bbox
        dx = width / 2.0 - (x0 + x1) / 2.0
        dy = height / 2.0 - (y0 + y1) / 2.0
    # keys that compare equal (0.0 and -0.0) give equal text, "-0.00" -> "0.00"
    xs = _Memo(lambda x: _fmt(x + dx))
    ys = _Memo(lambda y: _fmt(y + dy))
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect class="background" x="0" y="0" width="{width}" height="{height}" '
        f'fill="{rgb_to_hex(scene.background)}"/>',
    ]
    rows = []  # each table row with its attributes after the color, as text
    for kind, cls, idx, slot, value in scene._table:
        if kind is Polygon:
            attrs = "" if value >= 1.0 else f' fill-opacity="{value:g}"'
        elif kind is Segment:
            attrs = f' stroke-width="{value:g}" stroke-linecap="round"'
        else:
            attrs = f' r="{value:g}"'
        rows.append((kind, cls, idx, slot, attrs))
    for pts, colors in zip(scene._corners.tolist(), scene._colors):
        px = [xs[x] for x, _ in pts]
        py = [ys[y] for _, y in pts]
        pairs = [f"{x},{y}" for x, y in zip(px, py)]
        for kind, cls, idx, slot, attrs in rows:
            color = rgb_to_hex(colors[slot])
            if kind is Polygon:
                lines.append(f'<polygon class="{cls}" points="{" ".join([pairs[i] for i in idx])}" '
                             f'fill="{color}"{attrs}/>')
            elif kind is Segment:
                i, j = idx
                lines.append(f'<line class="{cls}" x1="{px[i]}" y1="{py[i]}" x2="{px[j]}" '
                             f'y2="{py[j]}" stroke="{color}"{attrs}/>')
            else:
                i = idx[0]
                lines.append(f'<circle class="{cls}" cx="{px[i]}" cy="{py[i]}"{attrs} '
                             f'fill="{color}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
