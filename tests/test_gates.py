"""Gate tables, gate algebra, circuits, and the teleportation identity.

The controlled-gate and single-bit tables are asserted line by line
against the published actions on basis combs, then the same gates are
checked as whole-state operators (involutions, norm and linearity).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combcube.algebra import Multivector, geometric_product
from combcube.coding import bell_carrier, comb, encode, LatticeMultivector
from combcube.gates import (
    GATE_KINDS,
    Circuit,
    Gate,
    _bit_tables,
    _compile,
    _run,
    _teleport_steps,
    apply_circuit,
    apply_circuit_lattice,
    apply_gate,
    teleport,
    teleport_network,
)
from combcube.statevector import StateVector, sv_apply_circuit

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _basis_action(gate, word):
    """Where a permutation/sign gate sends one basis comb."""
    out = apply_gate(Multivector.blade(word, 3), gate)
    nonzero = np.nonzero(out.coeffs)[0]
    assert len(nonzero) == 1, "gate did not act as a signed permutation"
    return int(nonzero[0]), float(out.coeffs[nonzero[0]])


def test_controlled_x_target2_control1_table():
    gate = Gate("CX", target=2, control=1)
    assert _basis_action(gate, comb("100")) == (comb("110"), 1.0)
    assert _basis_action(gate, comb("101")) == (comb("111"), 1.0)
    assert _basis_action(gate, comb("110")) == (comb("100"), 1.0)
    assert _basis_action(gate, comb("111")) == (comb("101"), 1.0)
    # control bit clear: untouched
    for key in ("000", "010", "001", "011"):
        assert _basis_action(gate, comb(key)) == (comb(key), 1.0)


def test_controlled_x_target3_control2_table():
    gate = Gate("CX", target=3, control=2)
    assert _basis_action(gate, comb("010")) == (comb("011"), 1.0)
    assert _basis_action(gate, comb("011")) == (comb("010"), 1.0)
    assert _basis_action(gate, comb("110")) == (comb("111"), 1.0)
    assert _basis_action(gate, comb("111")) == (comb("110"), 1.0)
    for key in ("000", "100", "001", "101"):
        assert _basis_action(gate, comb(key)) == (comb(key), 1.0)


def test_controlled_z_target3_control1_table():
    gate = Gate("CZ", target=3, control=1)
    assert _basis_action(gate, comb("100")) == (comb("100"), 1.0)
    assert _basis_action(gate, comb("101")) == (comb("101"), -1.0)
    assert _basis_action(gate, comb("110")) == (comb("110"), 1.0)
    assert _basis_action(gate, comb("111")) == (comb("111"), -1.0)
    for key in ("000", "010", "001", "011"):
        assert _basis_action(gate, comb(key)) == (comb(key), 1.0)


@pytest.mark.parametrize("b", [0, 1])
@pytest.mark.parametrize("c", [0, 1])
def test_x1_x2_generic_lines(b, c):
    # c_1BC <-> c_0BC and c_A1C <-> c_A0C for every B, C / A, C
    x1 = Gate("X", 1)
    assert _basis_action(x1, comb((1, b, c))) == (comb((0, b, c)), 1.0)
    assert _basis_action(x1, comb((0, b, c))) == (comb((1, b, c)), 1.0)
    x2 = Gate("X", 2)
    assert _basis_action(x2, comb((b, 1, c))) == (comb((b, 0, c)), 1.0)
    assert _basis_action(x2, comb((b, 0, c))) == (comb((b, 1, c)), 1.0)


@pytest.mark.parametrize("b", [0, 1])
@pytest.mark.parametrize("c", [0, 1])
def test_z1_z2_generic_lines(b, c):
    # c_1BC -> -c_1BC and c_A1C -> -c_A1C; bit-clear combs untouched
    z1 = Gate("Z", 1)
    assert _basis_action(z1, comb((1, b, c))) == (comb((1, b, c)), -1.0)
    assert _basis_action(z1, comb((0, b, c))) == (comb((0, b, c)), 1.0)
    z2 = Gate("Z", 2)
    assert _basis_action(z2, comb((b, 1, c))) == (comb((b, 1, c)), -1.0)
    assert _basis_action(z2, comb((b, 0, c))) == (comb((b, 0, c)), 1.0)


@pytest.mark.parametrize("a", [0, 1])
@pytest.mark.parametrize("b", [0, 1])
def test_x3_z3_by_analogy(a, b):
    assert _basis_action(Gate("X", 3), comb((a, b, 0))) == (comb((a, b, 1)), 1.0)
    assert _basis_action(Gate("X", 3), comb((a, b, 1))) == (comb((a, b, 0)), 1.0)
    assert _basis_action(Gate("Z", 3), comb((a, b, 1))) == (comb((a, b, 1)), -1.0)


def test_blade_language_rows():
    # the same table rows said with blades
    b1, b12 = Multivector.blade(0b001, 3), Multivector.blade(0b011, 3)
    b2, b23 = Multivector.blade(0b010, 3), Multivector.blade(0b110, 3)
    b13, b123 = Multivector.blade(0b101, 3), Multivector.blade(0b111, 3)
    assert apply_gate(b1, Gate("CX", 2, 1)) == b12
    assert apply_gate(b12, Gate("CX", 2, 1)) == b1
    assert apply_gate(b13, Gate("CX", 2, 1)) == b123
    assert apply_gate(b123, Gate("CX", 2, 1)) == b13
    assert apply_gate(b2, Gate("CX", 3, 2)) == b23
    assert apply_gate(b23, Gate("CX", 3, 2)) == b2
    assert apply_gate(b12, Gate("CX", 3, 2)) == b123
    assert apply_gate(b123, Gate("CX", 3, 2)) == b12
    assert apply_gate(b13, Gate("CZ", 3, 1)) == -b13
    assert apply_gate(b123, Gate("CZ", 3, 1)) == -b123


def test_z1_on_example_table():
    table = {
        "000": -0.07, "100": 0.32, "010": -3.08, "001": 1.06,
        "110": -0.85, "101": 0.27, "011": -0.86, "111": 4.07,
    }
    flipped = apply_gate(encode(table, 3), Gate("Z", 1))
    expected = encode(
        {k: (-v if k[0] == "1" else v) for k, v in table.items()}, 3
    )
    assert flipped == expected


def test_x2_moves_payload_onto_bit2():
    # X_2 (alpha + beta b1) = alpha b2 + beta b1b2
    state = Multivector([0.6, 0.8, 0, 0, 0, 0, 0, 0], 3)
    out = apply_gate(state, Gate("X", 2))
    expected = np.zeros(8)
    expected[0b010] = 0.6
    expected[0b011] = 0.8
    np.testing.assert_array_equal(out.coeffs, expected)


def test_h_examples():
    one = Multivector.scalar(1.0, 3)
    b1 = Multivector.blade(0b001, 3)
    plus = apply_gate(one, Gate("H", 1))
    assert plus.coeffs[0b000] == INV_SQRT2 and plus.coeffs[0b001] == INV_SQRT2
    minus = apply_gate(b1, Gate("H", 1))
    assert minus.coeffs[0b000] == INV_SQRT2 and minus.coeffs[0b001] == -INV_SQRT2


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-1, 1), min_size=8, max_size=8))
def test_every_gate_is_an_involution(xs):
    state = Multivector(xs, 3)
    for gate in _full_gate_set():
        twice = apply_gate(apply_gate(state, gate), gate)
        assert np.max(np.abs(twice.coeffs - state.coeffs)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-1, 1), min_size=8, max_size=8))
def test_every_gate_preserves_coefficient_norm(xs):
    state = Multivector(xs, 3)
    for gate in _full_gate_set():
        assert abs(apply_gate(state, gate).norm() - state.norm()) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(-1, 1), min_size=8, max_size=8),
    st.lists(st.floats(-1, 1), min_size=8, max_size=8),
    st.floats(-1, 1),
)
def test_gates_are_linear(xs, ys, scale):
    a, b = Multivector(xs, 3), Multivector(ys, 3)
    for gate in _full_gate_set():
        lhs = apply_gate(a * scale + b, gate)
        rhs = apply_gate(a, gate) * scale + apply_gate(b, gate)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-15


def _full_gate_set():
    single = [Gate(kind, k) for kind in ("X", "Z", "H") for k in (1, 2, 3)]
    controlled = [
        Gate(kind, t, c)
        for kind in ("CX", "CZ")
        for t in (1, 2, 3)
        for c in (1, 2, 3)
        if t != c
    ]
    return single + controlled


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("Y", 1)
    with pytest.raises(ValueError):
        Gate("CX", 2)
    with pytest.raises(ValueError):
        Gate("CX", 2, 2)
    with pytest.raises(ValueError):
        Gate("X", 0)
    with pytest.raises(ValueError):
        Gate("H", 1, 2)
    mv = Multivector.zero(3)
    with pytest.raises(ValueError):
        apply_gate(mv, Gate("X", 4))
    with pytest.raises(ValueError):
        apply_gate(mv, Gate("CX", 2, 9))
    with pytest.raises(ValueError):
        apply_gate(mv, Gate("X", 11))


def test_apply_circuit_runs_first_gate_first():
    # X then Z gives -c100 from c000; the reverse order gives +c100
    state = Multivector.blade(0b000, 3)
    out = apply_circuit([Gate("X", 1), Gate("Z", 1)], state)
    assert out.coeffs[0b001] == -1.0
    out = apply_circuit([Gate("Z", 1), Gate("X", 1)], state)
    assert out.coeffs[0b001] == 1.0
    assert apply_circuit([], state) == state


def test_teleport_network_sequence():
    net = teleport_network()
    assert len(net) == 6
    assert list(net) == [
        Gate("CX", 2, 1),
        Gate("H", 1),
        Gate("CX", 3, 2),
        Gate("CZ", 3, 1),
        Gate("H", 2),
        Gate("H", 1),
    ]


def test_teleport_moves_payload_to_bit3():
    out = teleport(1.0, 0.0)
    np.testing.assert_allclose(out.coeffs, [1, 0, 0, 0, 0, 0, 0, 0], atol=1e-12)
    out = teleport(0.0, 1.0)
    np.testing.assert_allclose(out.coeffs, [0, 0, 0, 0, 1, 0, 0, 0], atol=1e-12)
    out = teleport(0.6, 0.8)
    np.testing.assert_allclose(out.coeffs, [0.6, 0, 0, 0, 0.8, 0, 0, 0], atol=1e-12)


def test_teleport_random_unit_payloads():
    rng = np.random.default_rng(99)
    for _ in range(50):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        alpha, beta = math.cos(phi), math.sin(phi)
        out = teleport(alpha, beta)
        expected = np.zeros(8)
        expected[0b000] = alpha
        expected[0b100] = beta
        assert np.max(np.abs(out.coeffs - expected)) <= 1e-12


def test_teleport_consumes_the_carrier():
    # applying the network to payload * carrier is what teleport does
    payload = Multivector([0.28, -0.96, 0, 0, 0, 0, 0, 0], 3)
    state = geometric_product(payload, bell_carrier())
    direct = apply_circuit(teleport_network(), state)
    assert direct == teleport(0.28, -0.96)


def test_apply_circuit_lattice_is_cellwise():
    a = encode({"000": 1.0}, 3)
    b = encode({"100": 1.0}, 3)
    lat = LatticeMultivector({(0,): a, (1,): b})
    flipped = apply_circuit_lattice([Gate("X", 1)], lat)
    assert flipped.items() == (((0,), b), ((1,), a))


def test_apply_circuit_lattice_commutes_with_set_order():
    rng = np.random.default_rng(5)
    circuit = [Gate("H", 1), Gate("CX", 2, 1), Gate("Z", 3)]
    cells = [((i, j), Multivector(rng.uniform(-1, 1, 8), 3)) for i in range(2) for j in range(2)]
    built_then_applied = apply_circuit_lattice(circuit, LatticeMultivector(dict(cells)))
    applied_then_built = LatticeMultivector(
        {cell: apply_circuit(circuit, mv) for cell, mv in cells}
    )
    assert built_then_applied == applied_then_built


def test_circuit_rejects_non_gates():
    with pytest.raises(TypeError, match="^circuit entries must be Gates$"):
        Circuit(("X1",))
    circuit = Circuit((Gate("X", 1), Gate("H", 2)))
    assert len(circuit) == 2
    assert circuit[1] == Gate("H", 2)


_CIRCUIT_CALLS = {
    "Circuit": lambda c: Circuit(c),
    "apply_circuit": lambda c: apply_circuit(c, Multivector.zero(3)),
    "apply_circuit_lattice": lambda c: apply_circuit_lattice(
        c, LatticeMultivector({(0,): Multivector.zero(3)})),
    "sv_apply_circuit": lambda c: sv_apply_circuit(c, StateVector.basis(0, 3)),
}


@pytest.mark.parametrize("circuit, got", [(None, "NoneType"), (5, "int")], ids=["None", "5"])
@pytest.mark.parametrize("name", sorted(_CIRCUIT_CALLS))
def test_a_circuit_that_is_not_iterable_is_named(name, circuit, got):
    with pytest.raises(TypeError, match=f"^circuit must be an iterable of Gates, got {got}$"):
        _CIRCUIT_CALLS[name](circuit)


@pytest.mark.parametrize("name", sorted(_CIRCUIT_CALLS))
def test_an_error_raised_while_iterating_a_circuit_keeps_its_message(name):
    def gates():
        yield Gate("X", 1)
        raise TypeError("the gate source failed")

    with pytest.raises(TypeError, match="^the gate source failed$"):
        _CIRCUIT_CALLS[name](gates())


def test_bit_rule_is_integral_but_not_bool():
    # numpy integers are accepted and stored as int; bools are rejected
    assert Gate("X", np.int64(1)) == Gate("X", 1)
    assert type(Gate("CX", np.int64(2), np.int64(1)).control) is int
    assert (apply_gate(Multivector.blade(0, 3), Gate("X", np.int64(2)))
            == Multivector.blade(0b010, 3))
    with pytest.raises(ValueError):
        Gate("X", True)
    with pytest.raises(ValueError):
        Gate("CZ", 2, True)
    with pytest.raises(ValueError):
        apply_gate(Multivector.zero(3), Gate("X", True))
    with pytest.raises(ValueError):
        apply_gate(Multivector.zero(3), Gate("CZ", 2, True))


def _random_gates(rng, dim, length, kinds=GATE_KINDS):
    gates = []
    for _ in range(length):
        kind = kinds[int(rng.integers(len(kinds)))]
        bits = [int(b) + 1 for b in rng.permutation(dim)[:2]]
        if len(bits) == 1:  # Cl(1) has no room for a control bit
            kind = kind[-1]
        gates.append(Gate(kind, bits[0], bits[-1] if kind in ("CX", "CZ") else None))
    return gates


@pytest.mark.parametrize("dim", range(1, 13))
def test_signed_permutation_circuits_equal_the_oracle_exactly(dim):
    # 0*a0 + 1*a1 in the oracle is exact for finite values, so runs of
    # X, Z, CX and CZ, however they are composed, must agree to the bit
    rng = np.random.default_rng(1000 + dim)
    for length in (1, 2, 5, 12):
        circuit = _random_gates(rng, dim, length, kinds=("X", "Z", "CX", "CZ"))
        coeffs = rng.normal(size=1 << dim)
        fast = apply_circuit(circuit, Multivector(coeffs, dim))
        oracle = sv_apply_circuit(circuit, StateVector(coeffs, dim))
        assert np.array_equal(fast.coeffs, oracle.amps), [g.label() for g in circuit]


@pytest.mark.parametrize("dim", [1, 3, 6])
def test_circuits_with_h_agree_with_the_oracle(dim):
    rng = np.random.default_rng(2000 + dim)
    for length in (1, 3, 8, 20):
        circuit = _random_gates(rng, dim, length)
        coeffs = rng.normal(size=1 << dim)
        fast = apply_circuit(circuit, Multivector(coeffs, dim))
        oracle = sv_apply_circuit(circuit, StateVector(coeffs, dim))
        assert np.max(np.abs(fast.coeffs - oracle.amps)) <= 1e-12


def test_gates_that_cancel_leave_the_state_unchanged():
    state = Multivector(np.arange(1.0, 9.0), 3)
    for circuit in ([Gate("X", 1), Gate("X", 1)], [Gate("CZ", 3, 1), Gate("CZ", 3, 1)],
                    [Gate("CX", 2, 3), Gate("Z", 1), Gate("CX", 2, 3), Gate("Z", 1)]):
        assert apply_circuit(circuit, state) == state


def test_overflow_inside_a_circuit_is_rejected():
    # H_1 twice is the identity, but the first H overflows to inf
    big = Multivector([1e308, 1e308, 0, 0, 0, 0, 0, 0], 3)
    circuit = [Gate("H", 1), Gate("X", 2), Gate("H", 1)]
    lat = LatticeMultivector({(0,): Multivector.scalar(1.0, 3), (1,): big})
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="finite"):
            apply_circuit(circuit, big)
        with pytest.raises(ValueError, match="finite"):
            apply_circuit_lattice(circuit, lat)


def test_empty_lattice_and_empty_circuit():
    empty = LatticeMultivector()
    out = apply_circuit_lattice(teleport_network(), empty)
    assert isinstance(out, LatticeMultivector) and len(out) == 0
    # the circuit is checked even when there is no cell to apply it to
    with pytest.raises(ValueError, match="target bit must be in"):
        apply_circuit_lattice([Gate("X", 4)], empty)
    with pytest.raises(TypeError, match="expected a Gate"):
        apply_circuit_lattice(["X1"], empty)
    lat = LatticeMultivector({(0, 1): Multivector(np.arange(8.0), 3)})
    assert apply_circuit_lattice([], lat) == lat


def test_single_gate_errors_are_unchanged():
    mv = Multivector.zero(3)
    cases = [
        (lambda: apply_gate(mv, Gate("X", 0)), "target must be a positive integer, got 0"),
        (lambda: apply_gate(mv, Gate("H", 4)), "target bit must be in [1, 3], got 4"),
        (lambda: apply_gate(mv, Gate("Z", 1.0)), "target must be a positive integer, got 1.0"),
        (lambda: apply_gate(mv, Gate("CX", 2, 9)), "control bit must be in [1, 3], got 9"),
        (lambda: apply_gate(mv, Gate("CZ", 4, 9)), "target bit must be in [1, 3], got 4"),
        (lambda: apply_gate(mv, Gate("CX", 2, 2)), "control and target bits must differ"),
        (lambda: apply_gate(mv, Gate("CZ", 1, 1)), "control and target bits must differ"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message
    with pytest.raises(TypeError, match="expected a Gate"):
        apply_gate(mv, ("X", 1))
    with pytest.raises(TypeError, match="expected a Gate"):
        apply_circuit([Gate("X", 1), "H2"], mv)


def test_teleport_network_is_one_frozen_circuit():
    assert teleport_network() is teleport_network()
    with pytest.raises(AttributeError):
        teleport_network().gates = ()


# signed zeros, subnormals and magnitudes from 1e-300 to 1e300
EDGE_PAYLOADS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, 1e-300, -1e-300,
                 1e-150, 0.6, -0.8, 1.0, 1e150, -1e150, 1e300, -1e300)


def test_teleport_is_bit_identical_to_the_network_on_payload_times_carrier():
    carrier = np.zeros(8)  # built here, not taken from bell_carrier()
    carrier[0b000] = carrier[0b110] = 1.0 / math.sqrt(2.0)
    carrier = Multivector(carrier, 3)
    for alpha in EDGE_PAYLOADS:
        for beta in EDGE_PAYLOADS:
            payload = np.zeros(8)
            payload[0b000], payload[0b001] = alpha, beta
            want = apply_circuit(teleport_network(),
                                 geometric_product(Multivector(payload, 3), carrier))
            assert teleport(alpha, beta).coeffs.tobytes() == want.coeffs.tobytes(), (alpha, beta)


def test_teleport_still_rejects_an_overflowing_payload():
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="^coefficients must be finite$"):
            teleport(1.5e308, 1)


def test_teleport_overflow_is_the_finiteness_error_with_no_warning():
    # no np.errstate: the network runs on Python floats, which overflow to
    # inf silently, and the result's finiteness check reports it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha, beta in ((1.5e308, 1), (1.7976931348623157e308, -1.7976931348623157e308)):
            with pytest.raises(ValueError, match="^coefficients must be finite$"):
                teleport(alpha, beta)


# 1e-300..1e300 magnitudes, every edge payload, and any float (subnormals
# and values near the float range included)
_PAYLOAD_VALUES = st.one_of(
    st.sampled_from(EDGE_PAYLOADS),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10, 10), st.integers(-300, 300)),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _outcome(call):
    """The result's bytes, or the message of the ValueError raised."""
    try:
        return call().coeffs.tobytes()
    except ValueError as err:
        return str(err)


@settings(max_examples=200, deadline=None)
@given(_PAYLOAD_VALUES, _PAYLOAD_VALUES)
def test_teleport_matches_the_gate_engine_bit_for_bit(alpha, beta):
    payload = np.zeros(8)
    payload[0b000], payload[0b001] = alpha, beta
    state = geometric_product(Multivector(payload, 3), bell_carrier())
    want = _outcome(lambda: apply_circuit(teleport_network(), state))
    assert _outcome(lambda: teleport(alpha, beta)) == want


def test_teleport_steps_on_block_columns_match_the_compiled_network_bit_for_bit():
    rng = np.random.default_rng(3300)
    block = _edge_coeffs(rng, (500, 8))
    want = _run(teleport_network(), 3, block).tobytes()
    assert np.stack(_teleport_steps(*block.T), axis=-1).tobytes() == want
    # and row by row on Python floats, as teleport runs it
    assert np.array([_teleport_steps(*row) for row in block.tolist()]).tobytes() == want


# -- compiled steps against one gate at a time by its own formula ----------


def _one_gate_at_a_time(circuit, x):
    """Reference: each gate on the last axis of x with its own formula."""
    words = np.arange(x.shape[-1])
    for gate in circuit:
        bit = 1 << (gate.target - 1)
        cbit = 0 if gate.control is None else 1 << (gate.control - 1)
        if gate.kind == "X":
            x = x.take(words ^ bit, axis=-1)
        elif gate.kind == "CX":
            x = x.take(np.where(words & cbit != 0, words ^ bit, words), axis=-1)
        elif gate.kind == "Z":
            x = np.where(words & bit != 0, -1.0, 1.0) * x
        elif gate.kind == "CZ":
            x = np.where((words & bit != 0) & (words & cbit != 0), -1.0, 1.0) * x
        else:
            x = (x.take(words ^ bit, axis=-1) + np.where(words & bit != 0, -1.0, 1.0) * x) * INV_SQRT2
    return x


def _edge_coeffs(rng, shape):
    """Normal draws scaled to 1e-300..1e300, with EDGE_PAYLOADS mixed in."""
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 301, size=shape)
    pick = rng.random(shape) < 0.3
    x[pick] = rng.choice(EDGE_PAYLOADS, size=int(pick.sum()))
    return x


def _cancelling_circuits(dim):
    """Circuits equal to +-1: XX, ZZ and XZXZ on bit 1, and CX CX and CZ CZ
    on bits 1 and 2."""
    circuits = [[Gate("X", 1)] * 2, [Gate("Z", 1)] * 2, [Gate("X", 1), Gate("Z", 1)] * 2]
    if dim > 1:
        circuits += [[Gate("CX", 2, 1)] * 2, [Gate("CZ", 1, 2)] * 2]
    return circuits


@pytest.mark.parametrize("dim", [*range(1, 13), 16])
def test_compiled_circuits_match_one_gate_at_a_time_bit_for_bit(dim):
    rng = np.random.default_rng(3000 + dim)
    circuits = [_random_gates(rng, dim, length) for length in (1, 2, 5, 13, 24)]
    circuits += [gates + [Gate("H", int(rng.integers(1, dim + 1)))] for gates in circuits[:3]]
    circuits += _cancelling_circuits(dim)
    for circuit in circuits:
        coeffs = _edge_coeffs(rng, 1 << dim)
        got = apply_circuit(circuit, Multivector(coeffs, dim)).coeffs
        assert got.tobytes() == _one_gate_at_a_time(circuit, coeffs).tobytes(), \
            [g.label() for g in circuit]


def test_compiled_lattice_circuits_match_one_gate_at_a_time_bit_for_bit():
    rng = np.random.default_rng(3100)
    block = _edge_coeffs(rng, (24, 8))
    lat = LatticeMultivector({(i,): Multivector(row, 3) for i, row in enumerate(block)})
    circuits = [_random_gates(rng, 3, length) for length in (1, 2, 5, 13, 24)]
    circuits += [gates + [Gate("H", 3)] for gates in circuits[:3]]
    circuits += _cancelling_circuits(3) + [list(teleport_network())]
    for circuit in circuits:
        out = apply_circuit_lattice(circuit, lat)
        want = _one_gate_at_a_time(circuit, block)
        for (cell, mv), row in zip(out.items(), want, strict=True):
            assert mv.coeffs.tobytes() == row.tobytes(), [cell, *(g.label() for g in circuit)]


def test_gate_pairs_that_cancel_run_as_the_identity_bit_for_bit():
    # each gate runs as its own step, a gather or a sign flip; a gather
    # copies and a sign of +-1 is exact, so no bit may change
    x = Multivector(np.random.default_rng(3).normal(size=8) * 10.0 ** np.arange(-4, 4), 3)
    for gates in ([Gate("X", 2)] * 2, [Gate("Z", 2)] * 2, [Gate("CX", 3, 1)] * 2,
                  [Gate("CZ", 1, 3)] * 2, [Gate("CX", 2, 3), Gate("Z", 1)] * 2):
        assert apply_circuit(gates, x).coeffs.tobytes() == x.coeffs.tobytes()
    # X Z X Z is -1
    minus = apply_circuit([Gate("X", 1), Gate("Z", 1)] * 2, x)
    assert minus.coeffs.tobytes() == (-x.coeffs).tobytes()


def test_bit_tables_are_read_only_and_unchanged_by_compiling():
    for dim in (2, 3, 10):
        words = np.arange(1 << dim)
        shifts = np.arange(dim)[:, None]
        masks = (words >> shifts) & 1 != 0
        want = (words, words ^ (1 << shifts), masks, np.where(masks, -1.0, 1.0))
        for gates in ([Gate("Z", 1)] * 2, [Gate("CZ", 1, 2), Gate("Z", 1)],
                      [Gate("Z", 1), Gate("H", 1)], [Gate("X", 1), Gate("Z", 1)] * 2):
            _compile(gates, dim)
            for table, expected in zip(_bit_tables(dim), want, strict=True):
                assert not table.flags.writeable
                assert table.dtype == expected.dtype
                assert np.array_equal(table, expected)


# -- one step per gate -------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 3, 10])
def test_compile_gives_one_step_per_gate(dim):
    rng = np.random.default_rng(3200 + dim)
    kinds = GATE_KINDS if dim > 1 else ("X", "Z", "H")
    for kind in kinds:
        for length in (1, 2, 5):
            gates = _random_gates(rng, dim, length, kinds=(kind,))
            assert len(_compile(gates, dim)) == len(gates), (kind, length)
    gates = _random_gates(rng, dim, 24, kinds=kinds)
    assert len(_compile(gates, dim)) == len(gates)
    gates = [Gate("X", 1), Gate("X", 1), Gate("Z", 1), Gate("X", 1), Gate("Z", 1)]
    assert len(_compile(gates, dim)) == 5


# kind -> its step (gather, signs) from the words w, the target bit t and
# the control bit c (0 when uncontrolled), None for a part it lacks
_STEP_BY_KIND = {
    "X": lambda w, t, c: (w ^ t, None),
    "CX": lambda w, t, c: (np.where(w & c != 0, w ^ t, w), None),
    "Z": lambda w, t, c: (None, np.where(w & t != 0, -1.0, 1.0)),
    "CZ": lambda w, t, c: (None, np.where((w & t != 0) & (w & c != 0), -1.0, 1.0)),
    "H": lambda w, t, c: (w ^ t, np.where(w & t != 0, -1.0, 1.0)),
}


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_compiled_steps_are_the_bit_arithmetic_of_each_gate(dim):
    bits = range(1, dim + 1)
    gates = [Gate(kind, t) for kind in ("X", "Z", "H") for t in bits]
    gates += [Gate(kind, t, c) for kind in ("CX", "CZ") for t in bits for c in bits if c != t]
    words = np.arange(1 << dim)
    for gate in gates:
        cbit = 0 if gate.control is None else 1 << (gate.control - 1)
        want = _STEP_BY_KIND[gate.kind](words, 1 << (gate.target - 1), cbit)
        (step,) = _compile((gate,), dim)
        for got, expected in zip(step, want, strict=True):
            assert (got is None) == (expected is None), gate.label()
            if got is not None:
                assert (got.dtype, got.shape, got.tobytes()) == \
                    (expected.dtype, expected.shape, expected.tobytes()), gate.label()


def test_teleport_runs_its_six_gates_one_step_each_bit_for_bit():
    network = teleport_network()
    for alpha in EDGE_PAYLOADS:
        for beta in EDGE_PAYLOADS:
            payload = np.zeros(8)
            payload[0b000], payload[0b001] = alpha, beta
            x = geometric_product(Multivector(payload, 3), bell_carrier()).coeffs
            for gate in network:
                x = _run((gate,), 3, x)
            assert teleport(alpha, beta).coeffs.tobytes() == x.tobytes(), (alpha, beta)


# -- labels and wrong types -------------------------------------------------


def test_gate_labels():
    assert Gate("X", 2).label() == "X2"
    assert Gate("H", 1).label() == "H1"
    assert Gate("CX", 2, 1).label() == "X2^1"
    assert Gate("CZ", 3, 1).label() == "Z3^1"


def test_entry_points_reject_a_state_of_the_wrong_type():
    for call in (lambda: apply_gate("x", Gate("X", 1)), lambda: apply_circuit([], 5)):
        with pytest.raises(TypeError, match="^expected a Multivector$"):
            call()
    with pytest.raises(TypeError, match="^expected a LatticeMultivector$"):
        apply_circuit_lattice([], "x")
