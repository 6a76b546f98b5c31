"""Hue coding of real values.

The hue nu(x) is defined implicitly by x (1 - sin 2 pi nu) = cos 2 pi nu.
The oracle here is bisection on that equation over theta = 2 pi nu in
(pi/2, 5 pi/2), which covers every hue except the pole without ever
trusting the closed forms under test.
"""

import colorsys
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combcube import colorwheel
from combcube.colorwheel import (
    POLE_NU,
    RgbColor,
    hue_to_rgb,
    nu_of_x,
    rgb_to_hex,
    x_of_nu,
)

TWO_PI = 2.0 * math.pi


def _wrap_dist(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def _bisect_nu(x: float) -> float:
    """Root of the hue equation by bisection; independent of the closed form.

    theta runs over (pi/2, 5 pi/2), one full turn starting just past
    the pole, where the defining function g changes sign exactly once.
    The end offset shrinks with |x| so the bracket still straddles the
    root when it crowds the pole.
    """

    def g(theta: float) -> float:
        return x * (1.0 - math.sin(theta)) - math.cos(theta)

    eps = min(1e-8, 0.1 / max(1.0, abs(x)))
    lo = 0.5 * math.pi + eps
    hi = 2.5 * math.pi - eps
    assert g(lo) > 0.0 and g(hi) < 0.0, f"bracket failed for x={x}"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return (0.5 * (lo + hi) / TWO_PI) % 1.0


def test_bisection_oracle_sanity():
    # spot values known from the geometry, not from code under test
    assert _bisect_nu(0.0) == pytest.approx(0.75, abs=1e-12)
    assert _wrap_dist(_bisect_nu(1.0), 0.0) <= 1e-12
    assert _bisect_nu(-1.0) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize(
    "x",
    [0.0, 0.5, -0.5, 1.0, -1.0, 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0),
     2.0, -2.0, 10.0, -10.0, 100.0, -100.0, 1e3, -1e3, 1e6, -1e6,
     0.999999, 1.000001, 1e-9, -1e-9],
)
def test_closed_form_matches_bisection(x):
    assert _wrap_dist(nu_of_x(x), _bisect_nu(x)) <= 1e-9


def test_closed_form_matches_bisection_random():
    rng = np.random.default_rng(31)
    for x in rng.uniform(-50.0, 50.0, 60):
        assert _wrap_dist(nu_of_x(x), _bisect_nu(x)) <= 1e-9


def test_residual_on_dense_grid():
    xs = np.linspace(-1000.0, 1000.0, 100001)
    nus = np.array([nu_of_x(x) for x in xs])
    residual = xs * (1.0 - np.sin(TWO_PI * nus)) - np.cos(TWO_PI * nus)
    assert float(np.max(np.abs(residual))) <= 1e-12
    assert np.all((nus >= 0.0) & (nus < 1.0))


def test_exact_landmarks():
    assert nu_of_x(0.0) == 0.75
    assert nu_of_x(1.0) == 0.0
    assert nu_of_x(-1.0) == pytest.approx(0.5, abs=1e-15)


def test_unit_magnitude_pair():
    s = 1.0 / math.sqrt(2.0)
    assert nu_of_x(s) == pytest.approx(0.9459132760153036, abs=2e-16)
    assert nu_of_x(-s) == pytest.approx(0.5540867239846964, abs=2e-16)
    # the pair straddles the zero hue symmetrically
    assert {round(nu_of_x(s), 3), round(nu_of_x(-s), 3)} == {0.946, 0.554}


def test_reflection_identity():
    for x in (0.0, 0.3, 1.0, 2.5, 17.0, 400.0):
        assert _wrap_dist(nu_of_x(-x), (0.5 - nu_of_x(x)) % 1.0) <= 1e-12


def test_agrees_with_double_angle_form():
    # same hue as angle(2x, x^2 - 1) / (2 pi), up to wrap
    rng = np.random.default_rng(8)
    xs = np.concatenate([rng.uniform(-1e3, 1e3, 200), [0.0, 1.0, -1.0, 1e6]])
    for x in xs:
        other = (math.atan2(x * x - 1.0, 2.0 * x) / TWO_PI) % 1.0
        assert _wrap_dist(nu_of_x(float(x)), other) <= 1e-13


def test_monotone_increasing_with_one_wrap():
    below = np.linspace(-1000.0, 0.999, 2001)
    nus = [nu_of_x(x) for x in below]
    assert all(a < b for a, b in zip(nus, nus[1:]))
    assert all(nu > POLE_NU for nu in nus)
    above = np.linspace(1.0, 1000.0, 2001)
    nus = [nu_of_x(x) for x in above]
    assert all(a < b for a, b in zip(nus, nus[1:]))
    assert all(nu < POLE_NU for nu in nus)


def test_value_roundtrip_decades():
    for k in range(-6, 7):
        for x in (10.0 ** k, -(10.0 ** k)):
            back = x_of_nu(nu_of_x(x))
            assert abs(back - x) <= 1e-9 * abs(x)


def test_hue_roundtrip_away_from_pole():
    for nu in np.linspace(0.0, 1.0, 997, endpoint=False):
        if abs(nu - POLE_NU) <= 1e-3:
            continue
        assert _wrap_dist(nu_of_x(x_of_nu(float(nu))), float(nu)) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e6, 1e6))
def test_value_roundtrip_property(x):
    back = x_of_nu(nu_of_x(x)) if nu_of_x(x) != POLE_NU else x
    assert abs(back - x) <= 1e-9 * max(1.0, abs(x))


def test_zero_maps_to_violet_anchor():
    assert x_of_nu(0.75) == pytest.approx(0.0, abs=1e-16)
    assert x_of_nu(0.0) == pytest.approx(1.0, rel=1e-15)


def test_pole_is_rejected():
    for nu in (0.25, 0.25 + 1e-13, 0.25 - 1e-13):
        with pytest.raises(ValueError):
            x_of_nu(nu)
    # just outside the guard band the map works and is enormous
    assert x_of_nu(0.25 + 1e-9) < -1e8
    assert x_of_nu(0.25 - 1e-9) > 1e8


def test_input_validation():
    for bad in (math.inf, -math.inf, math.nan, "x", None):
        with pytest.raises(ValueError):
            nu_of_x(bad)
    for bad in (1.0, -0.1, math.nan, "x", None):
        with pytest.raises(ValueError):
            x_of_nu(bad)
    with pytest.raises(ValueError):
        hue_to_rgb(1.0)


def test_huge_values_saturate_toward_pole():
    # designed limit: hue approaches 1/4 and eventually rounds onto it
    nu = nu_of_x(1e300)
    assert 0.0 <= nu < 1.0
    assert abs(nu - POLE_NU) < 1e-15
    # within the working range the pole is never actually hit
    for x in (1e6, -1e6, 1e12, -1e12):
        assert nu_of_x(x) != POLE_NU


def test_hue_to_rgb_sectors():
    assert hue_to_rgb(0.0) == RgbColor(1.0, 0.0, 0.0)
    assert hue_to_rgb(0.75) == RgbColor(0.5, 0.0, 1.0)
    r, g, b = hue_to_rgb(1.0 / 3.0)
    assert (r, g, b) == pytest.approx((0.0, 1.0, 0.0), abs=1e-15)
    r, g, b = hue_to_rgb(0.5)
    assert (r, g, b) == pytest.approx((0.0, 1.0, 1.0), abs=1e-15)


def test_hue_to_rgb_matches_colorsys():
    for nu in np.linspace(0.0, 1.0, 499, endpoint=False):
        mine = hue_to_rgb(float(nu))
        reference = colorsys.hsv_to_rgb(float(nu), 1.0, 1.0)
        assert mine == pytest.approx(reference, abs=1e-15)


def test_rgb_to_hex():
    assert rgb_to_hex(RgbColor(1.0, 0.0, 0.0)) == "#FF0000"
    assert rgb_to_hex((0.5, 0.0, 1.0)) == "#8000FF"
    assert rgb_to_hex((1.2, -0.3, 0.5)) == "#FF0080"
    # exact half rounds up
    assert rgb_to_hex((0.5 / 255.0, 0.0, 0.0)) == "#010000"


@pytest.mark.parametrize("v", [
    math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0, 0.5 / 255.0, 0.5,
    127.5 / 255.0, 254.5 / 255.0, math.nextafter(1.0, 0.0), 1.0, 1.5, 7, "0.25",
])
def test_rgb_to_hex_channel_matches_clamp_then_round(v):
    # reference: clamp to [0, 1] with min/max (nan falls to 0), then round half up
    want = int(min(1.0, max(0.0, float(v))) * 255.0 + 0.5)
    assert rgb_to_hex((v, 0.0, 1.0)) == f"#{want:02X}00FF"
    assert rgb_to_hex((1.0, v, v)) == f"#FF{want:02X}{want:02X}"


def _channel_before_inlining(v) -> int:
    """The per-channel helper rgb_to_hex called before its formula was inlined."""
    v = float(v)
    if 0.0 < v < 1.0:
        return int(v * 255.0 + 0.5)
    return 255 if v >= 1.0 else 0


def _hex_before_inlining(color) -> str:
    r, g, b = color
    return "#" + "".join(f"{_channel_before_inlining(v):02X}" for v in (r, g, b))


# (k - 0.5)/255 is where channel value k - 1 rounds up to k: each boundary
# and its neighbours one ulp either side
_HALF_UP_BOUNDARIES = [
    v for k in range(1, 256)
    for b in [(k - 0.5) / 255.0]
    for v in (math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf))
]
_CHANNEL_VALUE = st.one_of(
    st.floats(allow_subnormal=True),  # nan and both infinities included
    st.floats(-1e-300, 1e-300),
    st.floats(0.0, 1.0),
    st.integers(-(2**64), 2**64),
    st.floats(allow_nan=True).map(np.float64),
    st.floats(width=32).map(np.float32),
    st.sampled_from(_HALF_UP_BOUNDARIES),
    st.sampled_from(["0.25", "1e-3", "nan", "-inf"]),
)


@settings(max_examples=300, deadline=None)
@given(_CHANNEL_VALUE, _CHANNEL_VALUE, _CHANNEL_VALUE)
def test_rgb_to_hex_matches_the_per_channel_formula(r, g, b):
    assert rgb_to_hex((r, g, b)) == _hex_before_inlining((r, g, b))
    assert rgb_to_hex(RgbColor(r, g, b)) == _hex_before_inlining((r, g, b))


def test_rgb_to_hex_matches_the_per_channel_formula_at_every_half_up_boundary():
    for v in _HALF_UP_BOUNDARIES:
        for color in ((v, 0.0, 1.0), (1.0, v, 0.0), (0.0, 1.0, v)):
            assert rgb_to_hex(color) == _hex_before_inlining(color)


@pytest.mark.parametrize("color", [("x", 0.0, 0.0), (0.0, None, 0.0), (0.0, 0.0, 1j),
                                   (0.0, 0.0), (0.0, 0.0, 0.0, 0.0)])
def test_rgb_to_hex_raises_as_the_per_channel_formula_does(color):
    with pytest.raises(Exception) as want:
        _hex_before_inlining(color)
    with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
        rgb_to_hex(color)


# -- the colour cache -----------------------------------------------------------
# rgb_to_hex answers a tuple colour it has met before from a bounded cache;
# every answer must be the uncached formula's, _hex_before_inlining above.

def _cached(color) -> bool:
    return color in colorwheel._hex_cache


_EQUAL_COLOURS = [
    (RgbColor(1.0, 0.5, 0.0), (1.0, 0.5, 0.0)),
    (RgbColor(1.0, 0.0, 0.0), (1, 0, 0)),
    ((1.0, 0.0, 0.0), (True, False, 0)),
    ((0.5, 0.25, 1.0), (np.float64(0.5), np.float64(0.25), np.float64(1.0))),
    ((0.0, 0.0, 0.0), (-0.0, -0.0, -0.0)),
    ((0.0, 1.0, -0.0), (-0.0, True, 0)),
]


@pytest.mark.parametrize("first, second", _EQUAL_COLOURS + [(b, a) for a, b in _EQUAL_COLOURS])
def test_a_cached_colour_answers_an_equal_colour_of_another_type(first, second):
    colorwheel._hex_cache.clear()
    assert rgb_to_hex(first) == _hex_before_inlining(first)
    assert _cached(second)  # equal, so the second call is a hit
    assert rgb_to_hex(second) == _hex_before_inlining(second)
    assert rgb_to_hex(first) == _hex_before_inlining(first)


def test_nan_colours_read_as_the_formula_reads_them():
    colorwheel._hex_cache.clear()
    for color in [(math.nan, 0.5, 1.0), (math.nan, 0.5, 1.0), (np.float64("nan"), 0.5, 1.0),
                  RgbColor(1.0, math.nan, -math.nan), (0.0, 0.5, 1.0)]:
        for _ in range(2):
            assert rgb_to_hex(color) == _hex_before_inlining(color)
    same = (math.nan, 0.5, 1.0)
    assert rgb_to_hex(same) == rgb_to_hex(same) == "#0080FF"


def test_channels_one_ulp_either_side_of_each_step_are_cached_apart():
    colorwheel._hex_cache.clear()
    values = [v for k in range(256) for b in [k / 255.0]
              for v in (math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf))]
    for _ in range(2):  # the second pass meets the first pass's colours
        for v in values:
            for color in ((v, 0.0, 1.0), RgbColor(1.0, v, 0.0), (0.0, 1.0, v)):
                assert rgb_to_hex(color) == _hex_before_inlining(color)


def test_lists_and_arrays_are_converted_every_time():
    colorwheel._hex_cache.clear()
    channels = [0.5, 0.0, 1.0]
    for color in (channels, np.array(channels), (np.array(0.5), 0.0, 1.0)):
        assert rgb_to_hex(color) == _hex_before_inlining(color) == "#8000FF"
    assert not colorwheel._hex_cache
    channels[0] = 1.0  # a list can change; its next text must follow
    assert rgb_to_hex(channels) == "#FF00FF"


def test_the_cache_holds_no_more_than_its_cap():
    colorwheel._hex_cache.clear()
    cap = colorwheel._HEX_CACHE_CAP
    for n in range(cap + 1000):
        color = (n / (cap + 1000), 0.5, 1.0)
        assert rgb_to_hex(color) == _hex_before_inlining(color)
        assert len(colorwheel._hex_cache) <= cap
    assert _cached(color)


def test_frozen_display_hexes():
    assert rgb_to_hex(hue_to_rgb(nu_of_x(0.0))) == "#8000FF"
    assert rgb_to_hex(hue_to_rgb(nu_of_x(1.0))) == "#FF0000"
    assert rgb_to_hex(hue_to_rgb(nu_of_x(1.0 / math.sqrt(2.0)))) == "#FF0053"


def test_values_just_below_one_wrap_to_hue_zero_not_one():
    # the wrap at x = 1 rounds up to exactly 1.0 for the four floats
    # just below 1; the hue range is [0, 1), so they read as 0.0
    x = 1.0
    for _ in range(4):
        x = math.nextafter(x, 0.0)
        assert nu_of_x(x) == 0.0
    assert 0.0 < nu_of_x(math.nextafter(x, 0.0)) < 1.0
