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
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable, Mapping

from .algebra import Multivector
from .coding import LatticeMultivector
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
_CORNERS = tuple(
    (float(i & 1), float(i >> 1 & 1), float(i >> 2)) for i in range(8)
)
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


@dataclass(frozen=True)
class Scene:
    """Drawables in paint order (back to front) over a solid backdrop."""

    background: RgbColor
    elements: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        for el in self.elements:
            if not isinstance(el, (Polygon, Segment, Disc)):
                raise TypeError(f"unsupported scene element {type(el).__name__}")

    @cached_property
    def bbox(self):
        """Bounding box (x0, y0, x1, y1) of the drawables, None when empty.

        Worked out on first use and kept: the scene is frozen, and both
        viewport sizing and ``emit_svg`` need it.
        """
        xs, ys = [], []
        for el in self.elements:
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
        if not xs:
            return None
        return (min(xs), min(ys), max(xs), max(ys))


def _projector(style: CubeStyle) -> Callable:
    """Oblique projection to screen coordinates, y flipped for SVG."""
    theta = math.radians(style.angle_deg)
    fx = style.foreshortening * math.cos(theta)
    fy = style.foreshortening * math.sin(theta)
    e = style.edge

    def project(p):
        x, y, z = p
        return (e * (x + fx * y), -e * (z + fy * y))

    return project


def _cube_elements(mv, style, offset, deformation, project) -> list:
    """The cube's primitives: its 8 corners are placed once and shared."""
    coeffs = mv.coeffs.tolist()
    colors = {
        cls: hue_to_rgb(nu_of_x(coeffs[word])) for cls, word in ELEMENT_WORDS.items()
    }
    ox, oy, oz = offset
    points = []
    for x, y, z in _CORNERS:
        q = (x + ox, y + oy, z + oz)
        if deformation is not None:
            q = tuple(map(float, deformation(q)))
            if len(q) != 3:
                raise ValueError("deformation must return a 3-point")
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


def cube_scene(mv: Multivector, style: CubeStyle | None = None) -> Scene:
    """Scene for a single comb-coded multivector as a colored cube."""
    if not isinstance(mv, Multivector):
        raise TypeError("expected a Multivector")
    if mv.dim != 3:
        raise ValueError(f"cube rendering needs dimension 3, got {mv.dim}")
    style = style if style is not None else CubeStyle()
    project = _projector(style)
    elements = _cube_elements(mv, style, (0.0, 0.0, 0.0), None, project)
    return Scene(hue_to_rgb(style.background), tuple(elements))


def grid_placement(cells, spacing: float = 1.0) -> dict:
    """Unit-grid placement: cell (i, j, k) sits at (i, j, k) * spacing.

    Shorter cell indices pad with zeros, so 2-index lattices lie in the
    x-y plane.
    """
    out = {}
    for cell in cells:
        cell = tuple(cell)
        c3 = cell + (0,) * (3 - len(cell))
        out[cell] = (c3[0] * spacing, c3[1] * spacing, c3[2] * spacing)
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
    cells = lat.items()
    if placement is None:
        placement = grid_placement(cell for cell, _ in cells)
    offsets = {}
    for cell, _ in cells:
        if cell not in placement:
            raise ValueError(f"placement missing cell {cell}")
        off = tuple(float(c) for c in placement[cell])
        if len(off) == 2:
            off = (off[0], off[1], 0.0)
        if len(off) != 3:
            raise ValueError(f"offset for cell {cell} must have 2 or 3 components")
        offsets[cell] = off
    project = _projector(style)
    elements = []
    # painter order: larger receding coordinate first, index order on ties
    ordered = sorted(cells, key=lambda item: (-offsets[item[0]][1], item[0]))
    for cell, mv in ordered:
        elements.extend(_cube_elements(mv, style, offsets[cell], deformation, project))
    return Scene(hue_to_rgb(style.background), tuple(elements))


def scene_bbox(scene: Scene):
    """Bounding box (x0, y0, x1, y1) of the drawables, None when empty."""
    return scene.bbox


def _fmt(v: float) -> str:
    s = f"{v:.2f}"
    return "0.00" if s == "-0.00" else s


class _Memo(dict):
    """``fn(key)`` for each distinct key, worked out on first lookup."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


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
    for el in scene.elements:
        if isinstance(el, Polygon):
            pts = " ".join([f"{xs[x]},{ys[y]}" for x, y in el.points])
            opacity = "" if el.opacity >= 1.0 else f' fill-opacity="{el.opacity:g}"'
            lines.append(
                f'<polygon class="{el.css_class}" points="{pts}" '
                f'fill="{rgb_to_hex(el.color)}"{opacity}/>'
            )
        elif isinstance(el, Segment):
            (x1, y1), (x2, y2) = el.start, el.end
            lines.append(
                f'<line class="{el.css_class}" '
                f'x1="{xs[x1]}" y1="{ys[y1]}" x2="{xs[x2]}" y2="{ys[y2]}" '
                f'stroke="{rgb_to_hex(el.color)}" stroke-width="{el.width:g}" '
                f'stroke-linecap="round"/>'
            )
        else:
            lines.append(
                f'<circle class="{el.css_class}" '
                f'cx="{xs[el.center[0]]}" cy="{ys[el.center[1]]}" '
                f'r="{el.radius:g}" fill="{rgb_to_hex(el.color)}"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
