"""Colored-cube scenes and deterministic SVG emission.

A dim-3 multivector is drawn as a unit cube whose element classes take
the colors of its eight coefficients: corners show the scalar, the
edges parallel to the x, y and z axes show b1, b2 and b3, the walls
parallel to the xy, xz and yz planes show b1b2, b1b3 and b2b3, and the
interior shows b1b2b3.  An element whose coefficient is zero simply
takes the hue of zero, which is also the default backdrop; nothing is
special-cased away.

Redundant mode draws every element (8 corners, 12 edges, 6 walls, one
interior body); representative mode draws the first element of each
class.  Both modes read one element table: rows of (kind, class, corner
numbers) in paint order.  Walls and the body are drawn as SVG "polygon"s,
edges as "line"s and corners as "circle"s, and ``Scene.elements`` names
each drawable by that tag in one ``Element`` record.  A cube's 8 corners
are offset, deformed and projected once, its 8 class colors are computed
once, and every row picks its points and its color from those.  Cubes
share corners, so deformation is called once per distinct world point,
not once per corner (a deformation that keeps state sees fewer calls),
and all the results go through a single conversion to floats and one
shape check.
The projection is oblique: x right, z up, y receding at a fixed angle
with fixed foreshortening.
Scenes list their primitives back to front, so emission is a single
pass and byte-identical for identical inputs; within one emission each
distinct coordinate is formatted once.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass, fields
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .algebra import (Multivector, _all_finite, _as_float, _check_real, _is_int,
                      _quiet_float_errors, _real_array)
from .coding import LatticeMultivector, _as_cell, _padded
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
# row of the element table is (kind, class, corner numbers); the rows are
# in paint order, back to front.  With y receding to the upper right,
# the walls at z=0, y=1 and x=0 sit behind the cube body, and the
# interior's fill is carried by the front-face (y=0) silhouette.
_UNIT_CUBE = np.array([(i & 1, i >> 1 & 1, i >> 2) for i in range(8)], dtype=np.float64)
_CUBE_ROWS = (
    ("wall", "wall-xy", (0, 1, 3, 2)),
    ("wall", "wall-xz", (2, 3, 7, 6)),
    ("wall", "wall-yz", (0, 2, 6, 4)),
    ("body", "interior", (0, 1, 5, 4)),
    # the edge for b_k joins each two corners whose numbers differ only in bit k
    *(("edge", cls, (c, c | ELEMENT_WORDS[cls])) for cls in ("edge-x", "edge-y", "edge-z")
      for c in range(8) if not c & ELEMENT_WORDS[cls]),
    ("wall", "wall-xy", (4, 5, 7, 6)),
    ("wall", "wall-xz", (0, 1, 5, 4)),
    ("wall", "wall-yz", (1, 3, 7, 5)),
    *(("corner", "corner", (c,)) for c in range(8)),
)
_ELEMENT_TABLES = {
    # every element: 6 walls, the body, 12 edges, 8 corners
    "redundant": _CUBE_ROWS,
    # the first row of each class: the back walls, so nothing hides the
    # rest, the body, and the origin corner with the three edges leaving it
    "representative": tuple(row for n, row in enumerate(_CUBE_ROWS)
                            if row[1] not in [r[1] for r in _CUBE_ROWS[:n]]),
}
_MODES = tuple(_ELEMENT_TABLES)
# a world point (x, y, z) as one opaque 24-byte item, a key for its bits
_POINT = np.dtype((np.void, 24))


@dataclass(frozen=True)
class CubeStyle:
    """Knobs for cube drawing; defaults match the reference figures.

    Lengths are SVG user units.  The background field is a hue, kept at
    the hue of zero so unset coefficients blend into the backdrop.  Each
    numeric field is read by the real-number rule and stored as a float.
    Opacities are fixed: walls draw at 0.8 and the interior body at 0.35.
    """

    mode: str = "redundant"
    background: float = 0.75
    angle_deg: float = 30.0
    foreshortening: float = 0.5
    edge: float = 100.0
    stroke_width: float = 3.0
    corner_radius: float = 5.0

    def __post_init__(self):
        if not isinstance(self.mode, str) or self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        for name in _STYLE_NUMBERS:
            object.__setattr__(self, name, _check_real(getattr(self, name), name))
        if not 0.0 <= self.background < 1.0:
            raise ValueError(f"background hue must lie in [0, 1), got {self.background!r}")
        if not 0.0 < self.foreshortening <= 1.0:
            raise ValueError("foreshortening must lie in (0, 1]")
        if self.edge <= 0.0 or self.stroke_width <= 0.0 or self.corner_radius <= 0.0:
            raise ValueError("edge, stroke width and corner radius must be positive")


_STYLE_NUMBERS = tuple(f.name for f in fields(CubeStyle) if f.name != "mode")


class Element(NamedTuple):
    """One drawable of ``Scene.elements``: its SVG tag, "polygon" (a wall
    or the body), "line" (an edge) or "circle" (a corner), with 4, 2 or 1
    points, and its fill opacity, stroke width or radius as ``value``."""

    tag: str
    css_class: str
    points: tuple[tuple[float, float], ...]
    color: RgbColor
    value: float


# the SVG tag that draws each kind of table row
_TAGS = {"wall": "polygon", "body": "polygon", "edge": "line", "corner": "circle"}


class _Row(NamedTuple):
    """One primitive of a drawing table, drawn once per item of a scene."""

    tag: str  # "polygon", "line" or "circle"
    css_class: str
    points: tuple[int, ...]  # numbers of the item's points it joins
    slot: int  # which of the item's colors it takes
    value: float  # its opacity, stroke width or radius


class Scene:
    """Cubes' drawables in paint order (back to front) over a solid backdrop.

    Built only by ``cube_scene`` and ``lattice_scene``, and stored as
    arrays: the mode's element table, the cubes' projected corners as
    one (ncubes, 8, 2) array and each cube's 8 class colors (by blade
    word).  ``elements`` is a read-only view, built on first read: one
    ``Element`` per primitive, tagged "polygon", "line" or "circle".
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("a Scene is built by cube_scene or lattice_scene")

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
        """The drawables as Element records, in paint order."""
        out = []
        for pts, colors in zip(self._corners.tolist(), self._colors):
            pts = [tuple(p) for p in pts]
            out += [Element(tag, cls, tuple([pts[i] for i in idx]), colors[slot], value)
                    for tag, cls, idx, slot, value in self._table]
        return tuple(out)

    @property
    def _primitives(self) -> int:
        """len(elements), without building them."""
        return len(self._table) * len(self._corners)

    @cached_property
    def _bbox(self):
        """Bounding box (x0, y0, x1, y1) of the drawables, None when empty.

        Worked out on first use and kept: the scene is frozen, and both
        viewport sizing and ``emit_svg`` need it.  A span or centre past
        the float range is a ValueError, so nothing is sized or placed by it.
        """
        if not self._corners.size:
            return None
        # Every point is drawn by some row, and a disc's center lies
        # between its extents, so the points themselves can all go in.
        boxes = [_box(self._corners)]
        # both modes draw corner discs: 8 in redundant mode, 1 in representative
        discs = [row for row in self._table if row.tag == "circle"]
        centers = self._corners[:, [row.points[0] for row in discs]]
        radii = np.array([row.value for row in discs], dtype=np.float64)[:, None]
        with _quiet_float_errors():
            boxes += [_box(centers - radii), _box(centers + radii)]
        x0, y0, x1, y1 = zip(*boxes)
        x0, y0, x1, y1 = box = (min(x0), min(y0), max(x1), max(y1))
        if not _all_finite(np.array([x1 - x0, y1 - y0, x0 + x1, y0 + y1])):
            raise ValueError(f"scene extent must have a finite span and centre, got {box!r}")
        return box

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.background == other.background and self._table == other._table
                and np.array_equal(self._corners, other._corners)
                and self._colors == other._colors)

    def __hash__(self) -> int:
        # no corners: an array is not hashable, and its bytes tell -0.0 from 0.0
        return hash((self.background, self._table))

    def __repr__(self) -> str:
        return (f"Scene(background={self.background!r}, cubes={len(self._corners)}, "
                f"primitives={self._primitives})")


def _box(points: np.ndarray) -> tuple:
    """(x0, y0, x1, y1) of an array of (x, y) points, one axis at a time."""
    x, y = points[..., 0], points[..., 1]
    return float(x.min()), float(y.min()), float(x.max()), float(y.max())


def _cube_table(style: CubeStyle) -> tuple:
    values = {"wall": 0.8, "body": 0.35, "edge": style.stroke_width, "corner": style.corner_radius}
    return tuple(_Row(_TAGS[kind], cls, corners, ELEMENT_WORDS[cls], values[kind])
                 for kind, cls, corners in _ELEMENT_TABLES[style.mode])


def _cubes(block: np.ndarray, offsets: np.ndarray, style: CubeStyle | None, deformation) -> Scene:
    """One cube per row of the (n, 8) coefficient ``block``, offset by the
    matching row of ``offsets`` (n, 3), in ``style`` (None for the
    default): every scene's one builder.

    Cubes are painted far to near by receding offset, ties in row order.
    Each cube's corners are offset, deformed and projected obliquely, x
    right, z up and y receding, in the float order of e * (x + fx * y)
    and (-e) * (z + fy * y).  The deformation is called once per distinct
    world point, in the order the points are first painted (cube after
    cube, corners in number order), and each result goes to every corner
    at that point; so a deformation that keeps state sees fewer calls
    than there are corners.
    """
    if style is None:
        style = CubeStyle()
    elif not isinstance(style, CubeStyle):
        raise TypeError(f"style must be a CubeStyle, got {type(style).__name__}")
    order = np.argsort(-offsets[:, 1], kind="stable")
    rows = block[order].tolist()
    # one color per distinct coefficient; 0.0 and -0.0 share the hue 3/4
    hues = {c: hue_to_rgb(nu_of_x(c)) for c in dict.fromkeys([c for row in rows for c in row])}
    colors = [[hues[c] for c in row] for row in rows]
    world = offsets[order][:, None, :] + _UNIT_CUBE
    if deformation is not None:
        # cubes share corners: each distinct point (by its 24 bytes) is
        # deformed once, in the order it is first painted, and its result
        # goes to every corner at that point
        seen = {}
        keys = world.reshape(-1, 3).view(_POINT).ravel().tolist()
        at = [seen.setdefault(key, len(seen)) for key in keys]
        distinct = np.frombuffer(b"".join(seen), dtype=np.float64).reshape(-1, 3)
        moved = [deformation(p) for p in map(tuple, distinct.tolist())]
        try:
            points = _real_array(moved, "deformation")
        except ValueError:
            points = None
        if points is None or points.shape != (len(moved), 3):
            raise ValueError("deformation must return a 3-point")
        world = points[at].reshape(world.shape)
    theta = math.radians(style.angle_deg)
    fx = style.foreshortening * math.cos(theta)
    fy = style.foreshortening * math.sin(theta)
    e = style.edge
    x, y, z = world[..., 0], world[..., 1], world[..., 2]
    with _quiet_float_errors():
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
    return _cubes(mv.coeffs[None, :], np.zeros((1, 3)), style, None)


def grid_placement(cells) -> dict:
    """Unit-grid placement: cell (i, j, k) sits at (float(i), float(j), float(k)).

    Cells are read as a lattice reads them, a bare integer k being the
    cell (k,), and shorter cells pad with zeros, so 2-index lattices lie
    in the x-y plane.  The spacing is fixed at one cube edge, and every
    offset is a 3-tuple of plain floats.
    """
    try:
        cells = iter(cells)
    except TypeError:
        raise TypeError("cells must be an iterable of cell indices, "
                        f"got {type(cells).__name__}") from None
    out = {}
    for cell in map(_as_cell, cells):
        i, j, k = _padded(cell)
        out[cell] = (float(i), float(j), float(k))
    return out


def sine_warp() -> Callable:
    """Vertical ripple running along x + y; geometry moves, colors do not.

    A point (x, y, z) moves to (x, y, z + 0.3 * sin(2 pi (x + y) / 4)):
    amplitude 0.3 and period 4 cube edges.
    """

    def deform(p):
        x, y, z = p
        try:
            return (x, y, z + 0.3 * math.sin(math.tau * (x + y) / 4.0))
        except ValueError:  # math.sin of an infinite phase
            raise ValueError(
                f"sine_warp gives an infinite phase at the point {tuple(p)!r}") from None

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
    cells = lat.cell_indices()
    if placement is None:
        placement = grid_placement(cells)
    elif not isinstance(placement, Mapping):
        raise TypeError(f"placement must be a mapping, got {type(placement).__name__}")
    if deformation is not None and not callable(deformation):
        raise TypeError(f"deformation must be callable, got {type(deformation).__name__}")
    offsets = []
    for cell in cells:
        if cell not in placement:
            raise ValueError(f"placement missing cell {cell}")
        off = placement[cell]
        if type(off) is tuple and len(off) == 3 and all([type(p) is float for p in off]):
            offsets.append(off)  # the common case, checked by exact type
            continue
        try:  # a string is split into characters, which are not numbers
            off = [_as_float(p, "offset") for p in off]
        except (TypeError, ValueError):
            raise ValueError(f"offset for cell {cell} must hold real numbers, "
                             f"got {off!r}") from None
        if len(off) not in (2, 3):
            raise ValueError(f"offset for cell {cell} must have 2 or 3 components")
        offsets.append(off if len(off) == 3 else [*off, 0.0])
    return _cubes(lat._block, np.array(offsets, dtype=np.float64).reshape(-1, 3), style,
                  deformation)


def scene_bbox(scene: Scene):
    """Bounding box (x0, y0, x1, y1) of the drawables, None when empty; a
    ValueError when its span or centre is past the float range."""
    if not isinstance(scene, Scene):
        raise TypeError("expected a Scene")
    return scene._bbox


def _fmt(v: float) -> str:
    s = f"{v:.2f}"
    return "0.00" if s == "-0.00" else s


@lru_cache(maxsize=8)
def _row_template(table: tuple, npoints: int) -> tuple[tuple, tuple]:
    """Literals and a pick order over an item's values: its x strings, its y
    strings, one color per row, then the literals.  Joined in that order,
    they give the item's lines, each after a newline.  Kept per distinct
    table (a mode, a stroke width and a corner radius), so the result is
    shared."""
    parts = []  # literal text, or the index of one of the item's values
    for r, (tag, cls, idx, _, value) in enumerate(table):
        color = 2 * npoints + r
        if tag == "polygon":
            parts.append(f'\n<polygon class="{cls}" points="')
            for n, i in enumerate(idx):
                parts += [" "] * (n > 0) + [i, ",", npoints + i]
            parts += ['" fill="', color, f'" fill-opacity="{value:g}"/>']
        elif tag == "line":
            (i, j), (yi, yj) = idx, (npoints + idx[0], npoints + idx[1])
            parts += [f'\n<line class="{cls}" x1="', i, '" y1="', yi, '" x2="', j, '" y2="', yj,
                      '" stroke="', color, f'" stroke-width="{value:g}" stroke-linecap="round"/>']
        else:
            parts += [f'\n<circle class="{cls}" cx="', idx[0], '" cy="', npoints + idx[0],
                      f'" r="{value:g}" fill="', color, '"/>']
    literals = {}  # each distinct text and its place among the literals
    base = 2 * npoints + len(table)
    order = [p if type(p) is int else base + literals.setdefault(p, len(literals)) for p in parts]
    return tuple(literals), tuple(order)


def emit_svg(scene: Scene, width: int, height: int) -> str:
    """Serialize a scene to SVG 1.1 text, centered in the viewport.

    Pure function of its arguments: identical scenes give identical
    bytes.  Colors come out as #RRGGBB fills and strokes, and every
    element carries its class name, so the text parses back losslessly.
    Each distinct table becomes one row template, filled once per item.
    Cubes share corners, so each distinct coordinate is formatted once.
    """
    if not isinstance(scene, Scene):
        raise TypeError("expected a Scene")
    for name, v in (("width", width), ("height", height)):
        if not _is_int(v) or v <= 0:
            raise ValueError(f"{name} must be a positive integer, got {v!r}")
        _check_real(v, name)  # an int past the float range reads as inf
    bbox = scene_bbox(scene)
    if bbox is None:
        dx = dy = 0.0
    else:
        x0, y0, x1, y1 = bbox
        dx = width / 2.0 - (x0 + x1) / 2.0
        dy = height / 2.0 - (y0 + y1) / 2.0
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">\n'
        f'<rect class="background" x="0" y="0" width="{width}" height="{height}" '
        f'fill="{rgb_to_hex(scene.background)}"/>'
    ]
    # a row always picks a literal and a color, and a table has more than
    # one row, so both picks give tuples
    literals, order = _row_template(scene._table, scene._corners.shape[1])
    pick, slots = itemgetter(*order), itemgetter(*[row.slot for row in scene._table])
    # each cube's x then y coordinates, shifted; each distinct value is
    # formatted once, and values that compare equal (0.0 and -0.0) give
    # equal text, "-0.00" -> "0.00"
    corners = scene._corners
    shifted = np.concatenate([corners[..., 0] + dx, corners[..., 1] + dy], axis=1)
    values, at = np.unique(shifted, return_inverse=True)
    texts = np.array([_fmt(v) for v in values.tolist()], dtype=object)
    for xy, colors in zip(texts[at.reshape(shifted.shape)].tolist(), scene._colors):
        out.append("".join(pick([*xy, *map(rgb_to_hex, slots(colors)), *literals])))
    out.append("\n</svg>\n")
    return "".join(out)
