"""Comb-coded Clifford multivectors with bitwise gates, a six-gate
teleportation network, a value-to-hue color map, and colored-cube SVG
rendering, cross-checked by an independent tensor-product simulator."""

from types import ModuleType as _ModuleType

from .algebra import (
    MAX_DIM,
    Multivector,
    blade_product,
    geometric_product,
    grade_projection,
)
from .coding import (
    MAX_CELL_INDEX,
    LatticeMultivector,
    bell_basis,
    bell_carrier,
    bits_to_key,
    comb,
    comb_bits,
    encode,
    lattice_from_json,
    lattice_to_json,
    multivector_from_json,
    multivector_to_json,
)
from .colorwheel import RgbColor, hue_to_rgb, nu_of_x, rgb_to_hex, x_of_nu
from .gates import (
    Circuit,
    Gate,
    apply_circuit,
    apply_circuit_lattice,
    apply_gate,
    teleport,
    teleport_network,
)
from .render import (
    CubeStyle,
    ELEMENT_WORDS,
    Element,
    Scene,
    cube_scene,
    emit_svg,
    grid_placement,
    lattice_scene,
    scene_bbox,
    sine_warp,
)
from .statevector import (
    StateVector,
    equivalence_check,
    sv_apply_circuit,
    sv_apply_gate,
    sv_teleport,
)

__version__ = "0.1.0"

# every public name imported above, in import order
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
