"""The real-number rule behind every public numeric parameter.

``algebra._is_real`` accepts any numbers.Real except bool;
``algebra._as_float`` converts such a value, reading an int beyond the
float range as +-inf; ``algebra._check_real`` also demands a finite
value.  Every numeric parameter of the colour map, the cube style, the
lattice offsets, the two teleport entry points and the multivector
coefficients and scalar operands goes through them.  Outside arrays go through ``algebra._real_array``, which
applies the same rule to each entry: multivector coefficients,
state-vector amplitudes and deformation results.  So a value either acts exactly as
``float(value)`` does, or it is a ValueError that names the parameter
(or, for a value that converts to nan or +-inf, the finiteness check
further on); no TypeError or OverflowError escapes, except that a scalar
operand that is not a real number is a TypeError, as Python raises for
any operand a type does not support.
"""

import math
import re
from dataclasses import fields
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from combcube.algebra import Multivector, _as_float, _check_real, _is_real
from combcube.coding import LatticeMultivector
from combcube.colorwheel import hue_to_rgb, nu_of_x, x_of_nu
from combcube.gates import teleport
from combcube.render import (
    CubeStyle,
    Scene,
    cube_scene,
    emit_svg,
    grid_placement,
    lattice_scene,
)
from combcube.statevector import StateVector, equivalence_check, sv_teleport

BIG = 10**400  # an int beyond the float range
_LATTICE = LatticeMultivector({
    (0, 0): teleport(0.6, 0.8), (1, 0): Multivector(np.arange(8.0) - 3.5, 3),
})

_VALUES = st.one_of(
    st.floats(),  # nan, +-inf and subnormals included
    st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, -5e-324, 0.0, -0.0, 0.25, 1.0]),
    st.integers(-BIG, BIG),
    st.sampled_from([BIG, -BIG, 2**1024, 2**1024 - 2**970, 10**308, 0, 1, 3]),
    st.booleans(),
    st.floats(-2.0, 2.0),  # where the bounded parameters (hues, foreshortening) live
    st.floats(width=32).map(np.float32),
    st.floats(-2.0, 2.0, width=32).map(np.float32),
    st.floats().map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.sampled_from(["0.5", "1", "nan", "-inf", "1e400", "abc", ""]),
    st.text(max_size=3),
    st.none(),
    st.complex_numbers(max_magnitude=10.0),
)


def _plain_float(v):
    """float(v) for the values drawn above, an int beyond the float range
    as +-inf; None for a value the rule rejects."""
    if v is None or isinstance(v, (bool, str, complex)):
        return None
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _drawn(scene: Scene) -> tuple:
    """A scene's arrays and its SVG text: everything that is drawn."""
    return scene._corners.tobytes(), emit_svg(scene, 400, 300)


def _cube(**style) -> tuple:
    return _drawn(cube_scene(teleport(0.6, 0.8), CubeStyle(**style)))


def _lattice(**kwargs) -> tuple:
    return _drawn(lattice_scene(_LATTICE, **kwargs))


# parameter -> (call on one value, pattern its ValueError names, reference)
_PARAMETERS = {
    "nu_of_x": (nu_of_x, "value", _plain_float),
    "hue_to_rgb": (hue_to_rgb, "hue", _plain_float),
    "x_of_nu": (x_of_nu, "hue", _plain_float),
    **{f"CubeStyle.{name}": (lambda v, name=name: _cube(**{name: v}),
                             name.replace("_", "[_ ]"), _plain_float)
       for name in ("background", "angle_deg", "foreshortening", "edge", "stroke_width",
                    "corner_radius")},
    "lattice_scene.offset": (lambda v: _lattice(placement={(0, 0): (v, 0.0),
                                                           (1, 0): (1.0, 0.5, v)}),
                             "offset|cube corners must be finite", _plain_float),
    "teleport.alpha": (lambda v: teleport(v, 0.8).coeffs.tobytes(),
                       "alpha|coefficients must be finite", _plain_float),
    "teleport.beta": (lambda v: teleport(0.6, v).coeffs.tobytes(),
                      "beta|coefficients must be finite", _plain_float),
    "sv_teleport.alpha": (lambda v: sv_teleport(v, 0.8).amps.tobytes(),
                          "alpha|amplitudes must be finite", _plain_float),
    "sv_teleport.beta": (lambda v: sv_teleport(0.6, v).amps.tobytes(),
                         "beta|amplitudes must be finite", _plain_float),
    # the three sites of the array rule, one entry each
    "Multivector.coeffs": (lambda v: Multivector([v] + [0.5] * 7, 3).coeffs.tobytes(),
                           "coefficients", _plain_float),
    "StateVector.amps": (lambda v: StateVector([v] + [0.5] * 7, 3).amps.tobytes(),
                         "amplitudes", _plain_float),
    "lattice_scene.deformation": (lambda v: _lattice(deformation=lambda p: (v, p[1], p[2])),
                                  "deformation|cube corners must be finite", _plain_float),
}


def _outcome(call, v) -> tuple:
    """("ok", output) or ("error", message) of ``call(v)``; any other
    exception escapes and fails the test."""
    try:
        # a huge size or offset overflows on its way to the corner check
        with np.errstate(over="ignore", invalid="ignore"):
            return "ok", call(v)
    except ValueError as exc:
        return "error", str(exc)


@pytest.mark.parametrize("name", sorted(_PARAMETERS))
@settings(max_examples=20, deadline=None)
@given(v=_VALUES)
# one value of each kind, whatever is drawn
@example(v=np.float32(0.7))
@example(v=np.int64(3))
@example(v=BIG)
@example(v=math.nan)
@example(v=True)
@example(v="0.5")
@example(v=Fraction(1, 2))
def test_a_numeric_parameter_acts_as_its_float_or_names_itself(name, v):
    call, field, reference = _PARAMETERS[name]
    got = _outcome(call, v)
    plain = reference(v)
    if plain is None:  # not a real number
        assert got[0] == "error" and re.search(field, got[1]), (v, got)
        return
    want = _outcome(call, plain)
    if want[0] == "ok" or got[0] == "ok":
        assert got == want, v
    else:  # the same failure as the float, which names the field or repeats
        assert re.search(field, got[1]) or got[1] == want[1], (v, got, want)


_LAT = LatticeMultivector({(0, 0): Multivector.zero(3)})
_NO_SCENE = lattice_scene(LatticeMultivector({}))
_MV0, _SV0 = Multivector.zero(3), StateVector.basis(0, 3)

# every input that let a TypeError or OverflowError escape, or was wrongly
# accepted, before the rule was shared; the ValueError it gives now
_PROBES = {
    "nu_of_x(10**400)": (lambda: nu_of_x(BIG), "value must be finite, got inf"),
    "hue_to_rgb(10**400)": (lambda: hue_to_rgb(BIG), "hue must lie in [0, 1), got inf"),
    "x_of_nu(10**400)": (lambda: x_of_nu(BIG), "hue must lie in [0, 1), got inf"),
    "nu_of_x(True)": (lambda: nu_of_x(True), "value must be a real number, got True"),
    "nu_of_x('0.5')": (lambda: nu_of_x("0.5"), "value must be a real number, got '0.5'"),
    "CubeStyle(edge=10**400)": (lambda: CubeStyle(edge=BIG), "edge must be finite, got inf"),
    "CubeStyle(edge=None)": (lambda: CubeStyle(edge=None), "edge must be a real number, got None"),
    "CubeStyle(edge='abc')": (lambda: CubeStyle(edge="abc"),
                              "edge must be a real number, got 'abc'"),
    "CubeStyle(stroke_width='3')": (lambda: CubeStyle(stroke_width="3"),
                                    "stroke_width must be a real number, got '3'"),
    # a cell is read as a lattice reads it: integers only
    "grid_placement nan cell": (lambda: grid_placement([(math.nan, 0)]),
                                "cell index must hold 1 to 3 integers, got (nan, 0)"),
    "grid_placement bool cell": (lambda: grid_placement([(True, 0)]),
                                 "cell index must hold 1 to 3 integers, got (True, 0)"),
    "lattice_scene offset '12'": (lambda: lattice_scene(_LAT, placement={(0, 0): "12"}),
                                  "offset for cell (0, 0) must hold real numbers, got '12'"),
    "lattice_scene offset 5": (lambda: lattice_scene(_LAT, placement={(0, 0): 5}),
                               "offset for cell (0, 0) must hold real numbers, got 5"),
    "lattice_scene offset (None, 1)": (
        lambda: lattice_scene(_LAT, placement={(0, 0): (None, 1)}),
        "offset for cell (0, 0) must hold real numbers, got (None, 1)"),
    "lattice_scene offset (10**400, 1)": (
        lambda: lattice_scene(_LAT, placement={(0, 0): (BIG, 1)}),
        "cube corners must be finite after placement and deformation"),
    "teleport(10**400, 0)": (lambda: teleport(BIG, 0), "coefficients must be finite"),
    "teleport(None, 1)": (lambda: teleport(None, 1), "alpha must be a real number, got None"),
    "teleport('0.6', 0.8)": (lambda: teleport("0.6", 0.8),
                             "alpha must be a real number, got '0.6'"),
    "teleport(True, 0)": (lambda: teleport(True, 0), "alpha must be a real number, got True"),
    "teleport(0.6, 0.8j)": (lambda: teleport(0.6, 0.8j), "beta must be a real number, got 0.8j"),
    "sv_teleport(10**400, 0)": (lambda: sv_teleport(BIG, 0), "amplitudes must be finite"),
    "sv_teleport(0.6, '0.8')": (lambda: sv_teleport(0.6, "0.8"),
                                "beta must be a real number, got '0.8'"),
    "emit_svg(width=True)": (lambda: emit_svg(_NO_SCENE, True, 480),
                             "width must be a positive integer, got True"),
    # numpy's float cast dropped an imaginary part with only a ComplexWarning
    # (an error under the RuntimeWarning filter of pyproject.toml) and let an
    # int past the float range out as an OverflowError
    **{f"{cls.__name__}({name})": (lambda cls=cls, v=v: cls(v, 3), f"{field} {message}")
       for cls, field in ((Multivector, "coefficients"), (StateVector, "amplitudes"))
       for name, v, message in (
           ("complex array", np.full(8, 1 + 2j), "must be an array of real numbers"),
           ("complex128 list", [np.complex128(1 + 2j)] * 8, "must be an array of real numbers"),
           ("10**400 list", [BIG] + [0.0] * 7, "must be finite"),
           ("-10**400 list", [-BIG] + [0] * 7, "must be finite"),
           # numpy parsed text and read bools as 0 and 1
           ("text list", ["0.5"] * 8, "must be an array of real numbers"),
           ("bytes list", [b"0.5"] * 8, "must be an array of real numbers"),
           ("bool list", [True] * 8, "must be an array of real numbers"),
           ("bool array", np.ones(8, dtype=bool), "must be an array of real numbers"),
           # numpy read a bool among numbers as 0 or 1, and parsed text in an object array
           ("bool among floats", [True, 0.5] * 4, "must be an array of real numbers"),
           ("nested bool among ints", [[1, 2], [3, np.True_]] * 2,
            "must be an array of real numbers"),
           ("object text array", np.array(["0.5"] * 8, dtype=object),
            "must be an array of real numbers"),
           ("Decimal list", [Decimal("0.5")] * 8, "must be an array of real numbers"),
           ("None list", [None] + [0.5] * 7, "must be an array of real numbers"))},
    # a deformation result that numpy parsed or read as 0 and 1
    "deformation to ('1', '2', '3')": (
        lambda: lattice_scene(_LAT, deformation=lambda p: ("1", "2", "3")),
        "deformation must return a 3-point"),
    "deformation to (True, y, z)": (
        lambda: lattice_scene(_LAT, deformation=lambda p: (True, p[1], p[2])),
        "deformation must return a 3-point"),
    # a tolerance that escaped as a TypeError or made every check fail
    "equivalence_check(tol='x')": (lambda: equivalence_check(_MV0, _SV0, tol="x"),
                                   "tol must be a real number, got 'x'"),
    "equivalence_check(tol=nan)": (lambda: equivalence_check(_MV0, _SV0, tol=math.nan),
                                   "tol must be finite, got nan"),
    "equivalence_check(tol=-1e-12)": (lambda: equivalence_check(_MV0, _SV0, tol=-1e-12),
                                      "tol must not be negative, got -1e-12"),
}


@pytest.mark.parametrize("probe", sorted(_PROBES))
def test_each_probe_is_a_value_error_naming_its_field(probe):
    call, message = _PROBES[probe]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_nan_and_inf_keep_the_teleport_messages():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^coefficients must be finite$"):
            teleport(bad, 0.8)
        with pytest.raises(ValueError, match="^amplitudes must be finite$"):
            sv_teleport(0.6, bad)


def test_emit_svg_takes_a_numpy_integer_size_as_its_int():
    scene = cube_scene(teleport(0.6, 0.8))
    want = emit_svg(scene, 640, 480)
    assert emit_svg(scene, np.int64(640), np.int32(480)) == want
    assert emit_svg(scene, np.uint16(640), 480) == want
    for bad in (640.0, np.float64(640.0), "640", None):
        with pytest.raises(ValueError, match="^width must be a positive integer"):
            emit_svg(scene, bad, 480)


def test_emit_svg_rejects_a_size_past_the_float_range_by_name():
    scene = lattice_scene(_LAT)
    for call in (lambda: emit_svg(scene, BIG, 5), lambda: emit_svg(_NO_SCENE, BIG, 5)):
        with pytest.raises(ValueError, match="^width must be finite, got inf$"):
            call()
    with pytest.raises(ValueError, match="^height must be finite, got inf$"):
        emit_svg(scene, 5, BIG)


def test_a_cube_style_stores_each_number_as_its_float():
    style = CubeStyle(edge=np.int64(60), stroke_width=Fraction(3, 2), corner_radius=np.float32(0.5))
    assert [type(getattr(style, f.name)) for f in fields(style) if f.name != "mode"] == [float] * 6
    assert (style.edge, style.stroke_width, style.corner_radius) == (60.0, 1.5, 0.5)
    assert _cube(stroke_width=Fraction(3, 2)) == _cube(stroke_width=1.5)


def test_the_rule_helpers():
    for v in (0.5, -0.0, 3, np.float32(0.5), np.int64(-7), Fraction(1, 3)):
        assert _is_real(v) and type(_as_float(v, "x")) is float and _check_real(v, "x") == float(v)
    for v in (True, np.bool_(True), "1", None, 1j, np.array([1.0])):
        assert not _is_real(v)
        with pytest.raises(ValueError, match=r"^x must be a real number, got "):
            _as_float(v, "x")
    for v, inf in ((BIG, math.inf), (-BIG, -math.inf), (Fraction(BIG, 3), math.inf)):
        assert _as_float(v, "x") == inf
        with pytest.raises(ValueError, match=f"^x must be finite, got {inf!r}$"):
            _check_real(v, "x")


_MV = Multivector(np.arange(8.0) - 3.5, 3)
_SCALED = {  # each way a scalar enters a multivector, as coefficient bytes
    "Multivector.scalar": lambda v: Multivector.scalar(v, 3).coeffs.tobytes(),
    "Multivector.blade": lambda v: Multivector.blade(0b101, 3, v).coeffs.tobytes(),
    "mv * v": lambda v: (_MV * v).coeffs.tobytes(),
    "v * mv": lambda v: (v * _MV).coeffs.tobytes(),
    "mv / v": lambda v: (_MV / v).coeffs.tobytes(),
}


@pytest.mark.parametrize("name", sorted(_SCALED))
@settings(max_examples=20, deadline=None)
@given(v=_VALUES)
@example(v=np.float32(0.7))
@example(v=np.int64(3))
@example(v=Fraction(1, 3))
@example(v=BIG)
@example(v=True)
@example(v="0.5")
def test_a_multivector_scalar_acts_as_its_float_or_is_refused(name, v):
    call = _SCALED[name]
    plain = _plain_float(v)
    if plain is None and name.startswith("Multivector"):
        with pytest.raises(ValueError, match="^coefficient must be a real number, got "):
            call(v)
    elif plain is None:  # an operand that is not a real number
        with pytest.raises(TypeError):
            call(v)
    else:
        with np.errstate(divide="ignore"):  # a zero divisor warns as a float one does
            assert _outcome(call, v) == _outcome(call, plain), v


@pytest.mark.parametrize("build", [Multivector.scalar, lambda v, dim: Multivector.blade(6, dim, v)],
                         ids=["scalar", "blade"])
@pytest.mark.parametrize("v", ["0.5", True, None, 1j])
def test_a_coefficient_that_is_not_real_is_named(build, v):
    message = f"coefficient must be a real number, got {v!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(v, 3)


@pytest.mark.parametrize("call", [lambda: _MV * True, lambda: _MV * "2", lambda: True * _MV,
                                  lambda: _MV / True, lambda: _MV * None, lambda: 1j * _MV],
                         ids=["mv*True", "mv*'2'", "True*mv", "mv/True", "mv*None", "1j*mv"])
def test_a_scalar_operand_that_is_not_real_is_a_type_error(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("call", [lambda: Multivector.scalar(BIG, 3),
                                  lambda: Multivector.blade(7, 3, -BIG),
                                  lambda: _MV * BIG, lambda: -BIG * _MV],
                         ids=["scalar", "blade", "mv*BIG", "-BIG*mv"])
def test_an_int_past_the_float_range_meets_the_finiteness_check(call):
    with np.errstate(invalid="ignore"):  # 0 * inf is nan, which numpy warns of
        with pytest.raises(ValueError, match="^coefficients must be finite$"):
            call()


@pytest.mark.parametrize("s", [np.float32(0.7), np.int64(-3), Fraction(1, 3), np.float64(2.5)],
                         ids=repr)
def test_numpy_and_fraction_scalars_give_the_bytes_of_their_float(s):
    for call in _SCALED.values():
        assert call(s) == call(float(s))

