"""Bitwise gates on comb coefficients and the teleportation network.

Gates act directly on the coefficient array, mirroring their action on
bit labels: X_k toggles bit k of every comb, so it swaps coefficients
in pairs; Z_k negates the coefficients of combs with bit k set; H_k is
(X_k + Z_k)/sqrt(2); the controlled forms X_k^l and Z_k^l restrict the
action to combs whose control bit l is set.  These are coefficient
permutations and sign flips, not geometric-product multiplications:
left-multiplying by a generator would pick up blade-reordering signs
and the action would no longer be bitwise.

Every entry point compiles its gates into stages once and runs the
stages on the coefficient axis of an array of shape (..., 2**dim).  A
run of X, Z, CX and CZ gates composes into one signed gather
``y = s * x[q]``; each H closes a stage
``(sa * x[qa] + sb * x[qb]) / sqrt(2)``; a signed gather that is left
over after the last H ends the stages.  Signs are exactly +-1 and the
two H terms are added as (X part) + (Z part), so the result is
bit-identical to applying the gates one at a time.  A non-finite value
made on the way carries through to the end, where the Multivector
check rejects it.

``teleport_network`` is the six-gate sequence that moves a payload
sitting on bit 1 across the entangled carrier on bits 2 and 3, landing
it on bit 3 with no measurement and no classical corrections.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .algebra import _INV_SQRT2, Multivector, _is_int, geometric_product
from .coding import _LATTICE_DIM, LatticeMultivector, _load_json, bell_carrier

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


def _compile(ops, dim: int) -> tuple:
    """Stages of (kind, target, control) gate triples on 2**dim coefficients.

    A stage is a tuple of one or two signed-gather terms ``(q, s)``; a
    None index or sign stands for the identity or all +1.
    """
    words = np.arange(1 << dim)
    stages = []
    q = s = None  # the pending signed gather
    pending = 0  # gates folded into it
    for kind, k, l in ops:
        bit = _check_bit(dim, k)
        if kind in _CONTROLLED:
            cbit = _check_bit(dim, l, role="control")
            if k == l:
                raise ValueError("control and target bits must differ")
        if kind == "H":  # closes a stage: (X part) + (Z part)
            stages.append((_then_gather(q, s, words ^ bit), (q, _then_negate(s, words & bit != 0))))
            q, s, pending = None, None, 0
            continue
        pending += 1
        if kind == "X":
            q, s = _then_gather(q, s, words ^ bit)
        elif kind == "CX":
            q, s = _then_gather(q, s, np.where(words & cbit != 0, words ^ bit, words))
        elif kind == "Z":
            s = _then_negate(s, words & bit != 0)
        else:
            s = _then_negate(s, (words & bit != 0) & (words & cbit != 0))
    if pending > 1:  # no single gate is the identity, but two can be
        if q is not None and np.array_equal(q, words):
            q = None
        if s is not None and np.all(s > 0):
            s = None
    if q is not None or s is not None:
        stages.append(((q, s),))
    return tuple(stages)


def _then_gather(q, s, idx) -> tuple:
    """The signed gather (q, s) followed by y[idx]."""
    return (idx if q is None else q[idx]), (None if s is None else s[idx])


def _then_negate(s, flip):
    """The signs s followed by negating where ``flip`` is set."""
    sign = np.where(flip, -1.0, 1.0)
    return sign if s is None else sign * s


def _gather(x: np.ndarray, q, s) -> np.ndarray:
    y = x if q is None else x.take(q, axis=-1)
    return y if s is None else s * y


def _run(stages, x: np.ndarray) -> np.ndarray:
    """Run compiled stages on the last axis of ``x``."""
    for stage in stages:
        if len(stage) == 1:
            x = _gather(x, *stage[0])
        else:
            x = (_gather(x, *stage[0]) + _gather(x, *stage[1])) * _INV_SQRT2
    return x


def _op(gate) -> tuple:
    if not isinstance(gate, Gate):
        raise TypeError("expected a Gate")
    return gate.kind, gate.target, gate.control


def _apply(mv: Multivector, ops) -> Multivector:
    return Multivector(_run(_compile(ops, mv.dim), mv.coeffs), mv.dim)


def apply_x(mv: Multivector, k: int) -> Multivector:
    """Toggle bit k of every comb: coefficients swap in pairs."""
    return _apply(mv, (("X", k, None),))


def apply_z(mv: Multivector, k: int) -> Multivector:
    """Negate the coefficients of combs with bit k set."""
    return _apply(mv, (("Z", k, None),))


def apply_h(mv: Multivector, k: int) -> Multivector:
    """(X_k + Z_k)/sqrt(2); an involution like its two parts."""
    return _apply(mv, (("H", k, None),))


def apply_cx(mv: Multivector, k: int, l: int) -> Multivector:
    """Toggle target bit k on combs whose control bit l is set."""
    return _apply(mv, (("CX", k, l),))


def apply_cz(mv: Multivector, k: int, l: int) -> Multivector:
    """Negate combs with both target bit k and control bit l set."""
    return _apply(mv, (("CZ", k, l),))


def apply_gate(mv: Multivector, gate: Gate) -> Multivector:
    return _apply(mv, (_op(gate),))


def apply_circuit(circuit, mv: Multivector) -> Multivector:
    """Apply the gates to the state, first gate first."""
    return _apply(mv, [_op(gate) for gate in circuit])


def apply_circuit_lattice(circuit, lat: LatticeMultivector) -> LatticeMultivector:
    """Apply one circuit to every occupied cell; cells never interact."""
    if not isinstance(lat, LatticeMultivector):
        raise TypeError("expected a LatticeMultivector")
    stages = _compile([_op(gate) for gate in circuit], _LATTICE_DIM)
    items = lat.items()
    if not items:
        return LatticeMultivector()
    out = _run(stages, np.stack([mv.coeffs for _, mv in items]))
    return LatticeMultivector(
        {cell: Multivector(row, _LATTICE_DIM) for (cell, _), row in zip(items, out)}
    )


_TELEPORT_NETWORK = Circuit((
    Gate("CX", target=2, control=1),
    Gate("H", target=1),
    Gate("CX", target=3, control=2),
    Gate("CZ", target=3, control=1),
    Gate("H", target=2),
    Gate("H", target=1),
))
_TELEPORT_STAGES = _compile([_op(gate) for gate in _TELEPORT_NETWORK], 3)


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
    bitwise, through stages compiled once at import.  Exact up to float
    rounding, with no scaling residue.
    """
    payload = np.zeros(8)
    payload[0b000] = float(alpha)
    payload[0b001] = float(beta)
    state = geometric_product(Multivector(payload, 3), bell_carrier())
    return Multivector(_run(_TELEPORT_STAGES, state.coeffs), 3)


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
