"""Gates as geometric products: a fourth reference for the bitwise engine.

The engine in ``combcube.gates`` never multiplies multivectors: it moves
and negates coefficients by bit rules.  The reference below builds the
same gates from the algebra alone (``geometric_product``, the generators
``Multivector.basis_vector``, ``grade_projection``, ``+`` and scalar
``*``), with b_k^2 = 1 and the grade involution
psi^ = sum_g (-1)^g <psi>_g:

    Z_k psi    = b_k psi^ b_k               a reflection: negates the blades holding b_k
    X_k psi    = b_k (Z_1 ... Z_{k-1} psi)  the reflections cancel b_k's reordering sign
    H_k psi    = (X_k psi + Z_k psi) / sqrt(2)
    P_l^+- psi = (psi +- Z_l psi) / 2       the part whose bit l is 0 (+) or 1 (-)
    CX_k^l psi = P_l^+ psi + X_k P_l^- psi
    CZ_k^l psi = P_l^+ psi + Z_k P_l^- psi

The reference imports nothing from ``combcube.gates``.  Both sides are
exact on finite input (each output coefficient is one input coefficient
times +-1, plus zeros; H multiplies one sum by 1/sqrt(2) on both sides),
so the comparison is by bytes.  It is made after adding +0.0, which
turns -0.0 into +0.0 and changes nothing else: the product's
``bincount`` adds the +0.0 terms of the blade pairs that meet a zero
coefficient, so a zero can come out of the two sides with different
signs.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from combcube.algebra import Multivector, geometric_product, grade_projection
from combcube.coding import bell_carrier
from combcube.gates import GATE_KINDS, Gate, apply_gate, teleport

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _involution(psi):
    """psi^: each grade-g part times (-1)**g."""
    out = Multivector.zero(psi.dim)
    for g in range(psi.dim + 1):
        out = out + grade_projection(psi, g) * (-1.0) ** g
    return out


def _z(k, psi):
    b = Multivector.basis_vector(k, psi.dim)
    return geometric_product(geometric_product(b, _involution(psi)), b)


def _x(k, psi):
    for j in range(1, k):
        psi = _z(j, psi)
    return geometric_product(Multivector.basis_vector(k, psi.dim), psi)


def _projections(l, psi):
    """(P_l^+ psi, P_l^- psi)."""
    z = _z(l, psi)
    return (psi + z) * 0.5, (psi - z) * 0.5


def geometric_gate(kind, target, control, psi):
    """The gate ``kind`` on bit ``target`` (controlled by bit ``control``)
    applied to ``psi``, built from geometric products."""
    if kind == "Z":
        return _z(target, psi)
    if kind == "X":
        return _x(target, psi)
    if kind == "H":
        return (_x(target, psi) + _z(target, psi)) * _INV_SQRT2
    keep, act = _projections(control, psi)
    return keep + {"CX": _x, "CZ": _z}[kind](target, act)


def _bytes(coeffs):
    return (coeffs + 0.0).tobytes()  # -0.0 -> +0.0; see the module docstring


def _coefficients(seed, n):
    """n coefficients: an exact zero of either sign one time in five, else
    +-m * 10**e with 1 <= m < 10 and |e| <= 200."""
    rng = np.random.default_rng(seed)
    signs = rng.choice([1.0, -1.0], n)
    values = rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-200, 201, n)
    return signs * np.where(rng.random(n) < 0.2, 0.0, values)


@st.composite
def _gate_and_state(draw):
    dim = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(GATE_KINDS if dim > 1 else ("X", "Z", "H")))
    target = draw(st.integers(1, dim))
    control = None
    if kind in ("CX", "CZ"):
        control = draw(st.integers(1, dim).filter(lambda c: c != target))
    coeffs = _coefficients(draw(st.integers(0, 2**32 - 1)), 1 << dim)
    return kind, target, control, Multivector(coeffs, dim)


@settings(max_examples=150, deadline=None)
@given(_gate_and_state())
def test_every_gate_is_its_geometric_product_form_bit_for_bit(case):
    kind, target, control, psi = case
    want = geometric_gate(kind, target, control, psi)
    got = apply_gate(psi, Gate(kind, target, control))
    assert _bytes(got.coeffs) == _bytes(want.coeffs), (kind, target, control)


# the paper's network in application order: X_2^1, H_1, X_3^2, Z_3^1, H_2, H_1
_NETWORK = (("CX", 2, 1), ("H", 1, None), ("CX", 3, 2), ("CZ", 3, 1), ("H", 2, None),
            ("H", 1, None))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_the_six_gate_network_as_geometric_products_is_teleport(seed):
    alpha, beta = _coefficients(seed, 2).tolist()
    state = geometric_product(Multivector([alpha, beta] + [0.0] * 6, 3), bell_carrier())
    for kind, target, control in _NETWORK:
        state = geometric_gate(kind, target, control, state)
    assert _bytes(state.coeffs) == _bytes(teleport(alpha, beta).coeffs), (alpha, beta)
