"""Color coding of real coefficients.

A real value x is displayed as the fully saturated color with hue
nu(x), where nu solves

    x * (1 - sin(2 pi nu)) = cos(2 pi nu),    0 <= nu < 1.

Geometrically this is a stereographic projection of the hue circle
from the point nu = 1/4: every real gets a unique hue, the hue 1/4
itself is the unreachable pole, zero lands on nu = 3/4, and +1 and -1
land on nu = 0 and nu = 1/2.  Magnitude is read as color, not length.

The production maps use half-angle closed forms,

    nu_of_x:  nu = 1/4 - arccot(x) / pi
    x_of_nu:  x  = cot(pi (1/4 - nu))

which are algebraically identical to the textbook expressions
nu = angle(2x, x^2 - 1)/(2 pi) and x = cos(2 pi nu)/(1 - sin(2 pi nu))
but stay accurate next to the pole, where the direct inverse loses
five digits to cancellation in 1 - sin.  The implicit equation itself
is kept as the oracle: the test suite checks the residual of nu_of_x
against it on a hundred-thousand-point grid and against bisection.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .algebra import _as_float, _check_real

POLE_NU = 0.25
POLE_TOLERANCE = 1e-12


class RgbColor(NamedTuple):
    """Color channels in [0, 1]."""

    r: float
    g: float
    b: float


def _check_nu(nu) -> float:
    nu = _as_float(nu, "hue")
    if not 0.0 <= nu < 1.0:
        raise ValueError(f"hue must lie in [0, 1), got {nu!r}")
    return nu


def nu_of_x(x: float) -> float:
    """Hue of a real value; strictly increasing, wrapping past 1 at x = 1.

    arccot is taken on the (0, pi) branch via atan2(1, x), so the
    result covers [0, 1) minus the pole.  Very large |x| saturate to
    hues float-indistinguishable from 1/4; that is the designed limit
    behavior, not an error.
    """
    x = _check_real(x, "value")
    nu = 0.25 - math.atan2(1.0, x) / math.pi
    if nu < 0.0:
        nu += 1.0
    if nu >= 1.0:
        # x a hair under 1 can round the wrap up to exactly 1.0
        nu = 0.0
    return nu


def x_of_nu(nu: float) -> float:
    """Value displayed with hue nu; the pole nu = 1/4 has no preimage."""
    nu = _check_nu(nu)
    if abs(nu - POLE_NU) <= POLE_TOLERANCE:
        raise ValueError("hue 1/4 is the projection pole; no finite value maps there")
    return 1.0 / math.tan(math.pi * (0.25 - nu))


def hue_to_rgb(nu: float) -> RgbColor:
    """Fully saturated, full-value color of a hue: the six-sector ramp."""
    nu = _check_nu(nu)
    h6 = 6.0 * nu
    sector = min(5, int(h6))
    ramp = 1.0 - abs(h6 % 2.0 - 1.0)
    if sector == 0:
        return RgbColor(1.0, ramp, 0.0)
    if sector == 1:
        return RgbColor(ramp, 1.0, 0.0)
    if sector == 2:
        return RgbColor(0.0, 1.0, ramp)
    if sector == 3:
        return RgbColor(0.0, ramp, 1.0)
    if sector == 4:
        return RgbColor(ramp, 0.0, 1.0)
    return RgbColor(1.0, 0.0, ramp)


# two uppercase hex digits for each 8-bit channel value
_HEX_BYTE = tuple(f"{i:02X}" for i in range(256))
# rgb_to_hex's text of the tuple colours it met last, emptied when full; the
# cap is small because each entry keeps a colour and its text alive
_HEX_CACHE_CAP = 1024
_hex_cache: dict = {}


def rgb_to_hex(color) -> str:
    """8-bit #RRGGBB form: each channel clamped to [0, 1], nan reading as
    0, then scaled by 255 and rounded half up.

    A tuple colour, such as an ``RgbColor``, is kept in a cache of the
    last colours converted: at most 1,024, emptied when full.  Tuples
    that compare equal hold channels of equal float value, so a hit gives
    the text the conversion would.  Other colours, such as lists and
    arrays, are converted every time.
    """
    try:
        text = _hex_cache.get(color)
    except TypeError:  # unhashable: a list, an array, a tuple holding one
        return _hex(color)
    if text is None:
        text = _hex(color)
        if isinstance(color, tuple):  # immutable, so its text cannot change
            if len(_hex_cache) >= _HEX_CACHE_CAP:
                _hex_cache.clear()
            _hex_cache[color] = text
    return text


def _hex(color) -> str:
    r, g, b = color
    r, g, b = float(r), float(g), float(b)
    return ("#" + _HEX_BYTE[int(r * 255.0 + 0.5) if 0.0 < r < 1.0 else 255 if r >= 1.0 else 0]
            + _HEX_BYTE[int(g * 255.0 + 0.5) if 0.0 < g < 1.0 else 255 if g >= 1.0 else 0]
            + _HEX_BYTE[int(b * 255.0 + 0.5) if 0.0 < b < 1.0 else 255 if b >= 1.0 else 0])
