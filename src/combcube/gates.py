"""Bitwise gates on comb coefficients and the teleportation network.

Gates act directly on the coefficient array, mirroring their action on
bit labels.  These are coefficient permutations and sign flips, not
geometric-product multiplications: left-multiplying by a generator would
pick up blade-reordering signs and the action would no longer be bitwise.
One rule compiles every gate into one step ``(q, s)`` on 2**dim
coefficients.  The gate's last letter picks its parts: X_k (X, CX) is
the gather ``q`` of the words with bit k toggled, so it swaps
coefficients in pairs; Z_k (Z, CZ) is the +-1 signs ``s`` that negate
the words with bit k set; H_k is both, (X_k + Z_k)/sqrt(2).  A control
bit l (X_k^l, Z_k^l) keeps each part only on the words with bit l set.
A step runs as ``x[q]``, ``s * x`` or ``(x[q] + s * x) / sqrt(2)``.

A gate is always a ``Gate``.  ``apply_gate``, ``apply_circuit`` and
``apply_circuit_lattice`` each make one call to ``_run(gates, dim, x)``,
the one core: it compiles the gates and runs the steps on the
coefficient axis of an array of shape (..., 2**dim) with float warnings
off once for the whole run, returning a fresh array (a copy of ``x``
for no gates).  Compiling reads per-dimension tables built once on
first use (the words, and per bit the toggled words, the bit-set mask
and its +-1 signs: 178 KiB at dim 10 and 17.5 MiB at dim 16); nothing
is cached per circuit.  A non-finite value made on the way carries
through to the end, where the Multivector check, or for a lattice one
check of its whole coefficient block, rejects it.

``teleport_network`` is the six-gate sequence that moves a payload
sitting on bit 1 across the entangled carrier on bits 2 and 3, landing
it on bit 3 with no measurement and no classical corrections.
``teleport`` runs those six steps written out on the eight coefficients
(``_teleport_steps``), the same float operations in the same order, so
its bits are those of the compiled steps; the tests check this.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import (_INV_SQRT2, Multivector, _as_float, _is_int, _quiet_float_errors,
                      geometric_product)
from .coding import _LATTICE_DIM, LatticeMultivector, bell_carrier

GATE_KINDS = ("X", "Z", "H", "CX", "CZ")
_CONTROLLED = ("CX", "CZ")


@dataclass(frozen=True)
class Gate:
    """One gate: kind, 1-based target bit, and control bit if controlled."""

    kind: str
    target: int
    control: int | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if not _is_int(self.target) or self.target < 1:
            raise ValueError(f"target must be a positive integer, got {self.target!r}")
        if type(self.target) is not int:  # store numpy integers as int
            object.__setattr__(self, "target", int(self.target))
        if self.kind in _CONTROLLED:
            if not _is_int(self.control) or self.control < 1:
                raise ValueError(f"{self.kind} needs a positive control bit")
            if type(self.control) is not int:
                object.__setattr__(self, "control", int(self.control))
            if self.control == self.target:
                raise ValueError("control and target bits must differ")
        elif self.control is not None:
            raise ValueError(f"{self.kind} takes no control bit")

    def label(self) -> str:
        if self.control is None:
            return f"{self.kind[-1]}{self.target}"
        return f"{self.kind[-1]}{self.target}^{self.control}"


@dataclass(frozen=True)
class Circuit:
    """An ordered gate sequence; application runs first to last."""

    gates: tuple[Gate, ...]

    def __post_init__(self):
        gates = tuple(_gates_of(self.gates))
        if any(not isinstance(g, Gate) for g in gates):
            raise TypeError("circuit entries must be Gates")
        object.__setattr__(self, "gates", gates)

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)

    def __getitem__(self, i):
        return self.gates[i]


def _gates_of(circuit):
    """An iterator over ``circuit``, checked up front, so that an error
    raised while iterating keeps its own message."""
    try:
        return iter(circuit)
    except TypeError:
        raise TypeError("circuit must be an iterable of Gates, "
                        f"got {type(circuit).__name__}") from None


def _check_bit(dim: int, k: int, role: str = "target") -> int:
    """The 0-based index of a Gate's 1-based bit k, checked against dim."""
    if k > dim:
        raise ValueError(f"{role} bit must be in [1, {dim}], got {k!r}")
    return k - 1


@lru_cache(maxsize=None)
def _bit_tables(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only words, and per bit index b the words with bit b toggled
    (``toggled[b]``), the mask of words with bit b set (``masks[b]``) and
    the +-1.0 signs that negate those words (``signs[b]``).
    """
    words = np.arange(1 << dim)
    shifts = np.arange(dim)[:, None]
    masks = (words >> shifts) & 1 != 0
    tables = (words, words ^ (1 << shifts), masks, np.where(masks, -1.0, 1.0))
    for table in tables:
        table.setflags(write=False)
    return tables


def _compile(gates, dim: int) -> tuple:
    """One step ``(q, s)`` per Gate on 2**dim coefficients, by the rule
    of the module docstring; None stands for a part the gate lacks."""
    words, toggled, masks, signs = _bit_tables(dim)
    steps = []
    for gate in _gates_of(gates):
        if not isinstance(gate, Gate):
            raise TypeError("expected a Gate")
        b, letter = _check_bit(dim, gate.target), gate.kind[-1]
        q = toggled[b] if letter in "XH" else None
        s = signs[b] if letter in "ZH" else None
        if gate.control is not None:
            on = masks[_check_bit(dim, gate.control, role="control")]
            q = None if q is None else np.where(on, q, words)
            s = None if s is None else np.where(on, s, 1.0)
        steps.append((q, s))
    return tuple(steps)


def _run(gates, dim: int, x: np.ndarray) -> np.ndarray:
    """The gates compiled for ``dim`` and run on the last axis of ``x``,
    first gate first.  Returns a fresh array, a copy of ``x`` when there
    are no gates; a non-finite value is left to the caller.
    """
    steps = _compile(gates, dim)
    with _quiet_float_errors():
        for q, s in steps:
            if s is None:
                x = x.take(q, axis=-1)
            elif q is None:
                x = s * x
            else:
                x = (x.take(q, axis=-1) + s * x) * _INV_SQRT2
    return x if steps else x.copy()


def apply_gate(mv: Multivector, gate: Gate) -> Multivector:
    return apply_circuit((gate,), mv)


def apply_circuit(circuit, mv: Multivector) -> Multivector:
    """Apply the gates to the state, first gate first."""
    if not isinstance(mv, Multivector):
        raise TypeError("expected a Multivector")
    return Multivector._of(_run(circuit, mv.dim, mv.coeffs), mv.dim)


def apply_circuit_lattice(circuit, lat: LatticeMultivector) -> LatticeMultivector:
    """Apply one circuit to every occupied cell; cells never interact."""
    if not isinstance(lat, LatticeMultivector):
        raise TypeError("expected a LatticeMultivector")
    return lat._with_block(_run(circuit, _LATTICE_DIM, lat._block))


_TELEPORT_NETWORK = Circuit((
    Gate("CX", target=2, control=1),
    Gate("H", target=1),
    Gate("CX", target=3, control=2),
    Gate("CZ", target=3, control=1),
    Gate("H", target=2),
    Gate("H", target=1),
))


def _teleport_steps(x0, x1, x2, x3, x4, x5, x6, x7) -> list:
    """The six steps of the teleport network written out on the eight
    coefficients, word by word: the float operations of
    ``_run(_TELEPORT_NETWORK, 3, x)`` in the same order, so the bits are
    the same.  A gather is a renaming, the sign flip a unary minus and H
    ``(X part + Z part) * _INV_SQRT2``, with ``a - b`` for ``a + -b``.
    There is no indexing, so numpy columns ``block[:, w]`` work as well.
    """
    r = _INV_SQRT2
    # X_2^1: words with bit 1 set take the word with bit 2 toggled
    x1, x3, x5, x7 = x3, x1, x7, x5
    # H_1
    x0, x1, x2, x3, x4, x5, x6, x7 = (
        (x1 + x0) * r, (x0 - x1) * r, (x3 + x2) * r, (x2 - x3) * r,
        (x5 + x4) * r, (x4 - x5) * r, (x7 + x6) * r, (x6 - x7) * r)
    # X_3^2: words with bit 2 set take the word with bit 3 toggled
    x2, x3, x6, x7 = x6, x7, x2, x3
    # Z_3^1: words with bits 1 and 3 set change sign
    x5, x7 = -x5, -x7
    # H_2
    x0, x1, x2, x3, x4, x5, x6, x7 = (
        (x2 + x0) * r, (x3 + x1) * r, (x0 - x2) * r, (x1 - x3) * r,
        (x6 + x4) * r, (x7 + x5) * r, (x4 - x6) * r, (x5 - x7) * r)
    # H_1
    return [(x1 + x0) * r, (x0 - x1) * r, (x3 + x2) * r, (x2 - x3) * r,
            (x5 + x4) * r, (x4 - x5) * r, (x7 + x6) * r, (x6 - x7) * r]


def teleport_network() -> Circuit:
    """The six-gate teleportation sequence, in application order.

    X_2^1, H_1, X_3^2, Z_3^1, H_2, H_1: entangle the payload bit with
    the carrier, spread it, then two final H gates park bits 1 and 2
    back on the scalar so only bit 3 carries the payload.  The same
    frozen Circuit is returned on every call.
    """
    return _TELEPORT_NETWORK


def teleport(alpha: float, beta: float) -> Multivector:
    """Send the payload alpha + beta b1 to bit 3: returns alpha + beta b3.

    The input state is the geometric product of the payload with the
    entangled carrier (1 + b2 b3)/sqrt(2); the network then acts purely
    bitwise, written out on the eight coefficients as Python floats, so
    an overflow on the way is an inf for the final check, not a numpy
    warning.  Exact up to float rounding, with no scaling residue.
    """
    payload = np.zeros(8)
    payload[0b000] = _as_float(alpha, "alpha")
    payload[0b001] = _as_float(beta, "beta")
    state = geometric_product(Multivector(payload, 3), bell_carrier())
    return Multivector._of(np.array(_teleport_steps(*state.coeffs.tolist())), 3)
