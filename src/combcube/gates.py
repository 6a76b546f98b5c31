"""Bitwise gates on comb coefficients and the teleportation network.

Gates act directly on the coefficient array, mirroring their action on
bit labels: X_k toggles bit k of every comb, so it swaps coefficients
in pairs; Z_k negates the coefficients of combs with bit k set; H_k is
(X_k + Z_k)/sqrt(2); the controlled forms X_k^l and Z_k^l restrict the
action to combs whose control bit l is set.  These are coefficient
permutations and sign flips, not geometric-product multiplications:
left-multiplying by a generator would pick up blade-reordering signs
and the action would no longer be bitwise.

``teleport_network`` is the six-gate sequence that moves a payload
sitting on bit 1 across the entangled carrier on bits 2 and 3, landing
it on bit 3 with no measurement and no classical corrections.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .algebra import Multivector, geometric_product
from .coding import LatticeMultivector, _is_int, _load_json, bell_carrier

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

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
        gates = tuple(self.gates)
        if any(not isinstance(g, Gate) for g in gates):
            raise TypeError("circuit entries must be Gates")
        object.__setattr__(self, "gates", gates)

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)

    def __getitem__(self, i):
        return self.gates[i]


def _check_bit(dim: int, k, role: str = "target") -> int:
    if not _is_int(k) or not 1 <= k <= dim:
        raise ValueError(f"{role} bit must be in [1, {dim}], got {k!r}")
    return 1 << (int(k) - 1)


def apply_x(mv: Multivector, k: int) -> Multivector:
    """Toggle bit k of every comb: coefficients swap in pairs."""
    bit = _check_bit(mv.dim, k)
    idx = np.arange(mv.coeffs.size) ^ bit
    return Multivector(mv.coeffs[idx], mv.dim)


def apply_z(mv: Multivector, k: int) -> Multivector:
    """Negate the coefficients of combs with bit k set."""
    bit = _check_bit(mv.dim, k)
    words = np.arange(mv.coeffs.size)
    return Multivector(np.where(words & bit, -mv.coeffs, mv.coeffs), mv.dim)


def apply_h(mv: Multivector, k: int) -> Multivector:
    """(X_k + Z_k)/sqrt(2); an involution like its two parts."""
    _check_bit(mv.dim, k)
    mixed = (apply_x(mv, k).coeffs + apply_z(mv, k).coeffs) * _INV_SQRT2
    return Multivector(mixed, mv.dim)


def apply_cx(mv: Multivector, k: int, l: int) -> Multivector:
    """Toggle target bit k on combs whose control bit l is set."""
    tbit = _check_bit(mv.dim, k)
    cbit = _check_bit(mv.dim, l, role="control")
    if k == l:
        raise ValueError("control and target bits must differ")
    words = np.arange(mv.coeffs.size)
    idx = np.where(words & cbit, words ^ tbit, words)
    return Multivector(mv.coeffs[idx], mv.dim)


def apply_cz(mv: Multivector, k: int, l: int) -> Multivector:
    """Negate combs with both target bit k and control bit l set."""
    tbit = _check_bit(mv.dim, k)
    cbit = _check_bit(mv.dim, l, role="control")
    if k == l:
        raise ValueError("control and target bits must differ")
    words = np.arange(mv.coeffs.size)
    flip = (words & tbit != 0) & (words & cbit != 0)
    return Multivector(np.where(flip, -mv.coeffs, mv.coeffs), mv.dim)


def apply_gate(mv: Multivector, gate: Gate) -> Multivector:
    if not isinstance(gate, Gate):
        raise TypeError("expected a Gate")
    if gate.kind == "X":
        return apply_x(mv, gate.target)
    if gate.kind == "Z":
        return apply_z(mv, gate.target)
    if gate.kind == "H":
        return apply_h(mv, gate.target)
    if gate.kind == "CX":
        return apply_cx(mv, gate.target, gate.control)
    return apply_cz(mv, gate.target, gate.control)


def apply_circuit(circuit, mv: Multivector) -> Multivector:
    """Fold the gates over the state, first gate first."""
    out = mv
    for gate in circuit:
        out = apply_gate(out, gate)
    return out


def apply_circuit_lattice(circuit, lat: LatticeMultivector) -> LatticeMultivector:
    """Apply one circuit to every occupied cell; cells never interact."""
    if not isinstance(lat, LatticeMultivector):
        raise TypeError("expected a LatticeMultivector")
    return LatticeMultivector(
        {cell: apply_circuit(circuit, mv) for cell, mv in lat.items()}
    )


def teleport_network() -> Circuit:
    """The six-gate teleportation sequence, in application order.

    X_2^1, H_1, X_3^2, Z_3^1, H_2, H_1: entangle the payload bit with
    the carrier, spread it, then two final H gates park bits 1 and 2
    back on the scalar so only bit 3 carries the payload.
    """
    return Circuit((
        Gate("CX", target=2, control=1),
        Gate("H", target=1),
        Gate("CX", target=3, control=2),
        Gate("CZ", target=3, control=1),
        Gate("H", target=2),
        Gate("H", target=1),
    ))


def teleport(alpha: float, beta: float) -> Multivector:
    """Send the payload alpha + beta b1 to bit 3: returns alpha + beta b3.

    The input state is the geometric product of the payload with the
    entangled carrier (1 + b2 b3)/sqrt(2); the network then acts purely
    bitwise.  Exact up to float rounding, with no scaling residue.
    """
    payload = np.zeros(8)
    payload[0b000] = float(alpha)
    payload[0b001] = float(beta)
    state = geometric_product(Multivector(payload, 3), bell_carrier())
    return apply_circuit(teleport_network(), state)


# -- circuit files ----------------------------------------------------------
# A circuit is a JSON list of {"kind": ..., "target": ...} objects, with a
# "control" field exactly for the controlled kinds.


def circuit_to_json(circuit) -> str:
    entries = []
    for gate in circuit:
        if not isinstance(gate, Gate):
            raise TypeError("circuit entries must be Gates")
        entry: dict = {"kind": gate.kind, "target": gate.target}
        if gate.control is not None:
            entry["control"] = gate.control
        entries.append(entry)
    return json.dumps(entries, indent=2) + "\n"


def circuit_from_json(text: str) -> Circuit:
    obj = _load_json(text)
    if not isinstance(obj, list):
        raise ValueError("circuit file must be a JSON list")
    gates = []
    for i, entry in enumerate(obj):
        if not isinstance(entry, dict):
            raise ValueError(f"circuit entry {i} must be an object")
        extra = set(entry) - {"kind", "target", "control"}
        if extra:
            raise ValueError(f"circuit entry {i} has unknown fields {sorted(extra)}")
        try:
            gates.append(Gate(entry["kind"], entry["target"], entry.get("control")))
        except (KeyError, ValueError, TypeError) as exc:
            raise ValueError(f"circuit entry {i} is invalid: {exc}")
    return Circuit(tuple(gates))
