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
bit-identical to applying the gates one at a time.  Compiling reads
per-dimension tables built once on first use (the words, and per bit
the toggled words and the bit-set mask: 98 KiB at dim 10 and
9.5 MiB at dim 16); nothing is cached per circuit.  A non-finite value
made on the way carries through to the end, where the Multivector
check, or for a lattice one check of its whole coefficient block,
rejects it.

``teleport_network`` is the six-gate sequence that moves a payload
sitting on bit 1 across the entangled carrier on bits 2 and 3, landing
it on bit 3 with no measurement and no classical corrections.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import _INV_SQRT2, Multivector, _all_finite, _is_int, geometric_product
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
    """The 0-based index of 1-based bit k, checked against dim."""
    if not _is_int(k) or not 1 <= k <= dim:
        raise ValueError(f"{role} bit must be in [1, {dim}], got {k!r}")
    return int(k) - 1


@lru_cache(maxsize=None)
def _bit_tables(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only words, and per bit index b the words with bit b toggled
    (``toggled[b]``) and the mask of words with bit b set (``masks[b]``).
    """
    words = np.arange(1 << dim)
    shifts = np.arange(dim)[:, None]
    tables = (words, words ^ (1 << shifts), (words >> shifts) & 1 != 0)
    for table in tables:
        table.setflags(write=False)
    return tables


def _signs(flip):
    """+-1.0 signs from a negation mask; None stays None (all +1)."""
    return None if flip is None else np.where(flip, -1.0, 1.0)


def _compile(ops, dim: int) -> tuple:
    """Stages of (kind, target, control) gate triples on 2**dim coefficients.

    A stage is a tuple of one or two signed-gather terms ``(q, s)``; a
    None index or sign stands for the identity or all +1.  The pending
    gather is ``y = x[q]`` negated where the bool mask ``f`` is set;
    ``f`` may be a table row, so it is only ever replaced, never updated
    in place.
    """
    words, toggled, masks = _bit_tables(dim)
    stages = []
    q = f = None  # the pending gather index and negation mask
    pending = 0  # gates folded into them
    for kind, k, l in ops:
        b = _check_bit(dim, k)
        if kind in _CONTROLLED:
            c = _check_bit(dim, l, role="control")
            if k == l:
                raise ValueError("control and target bits must differ")
        if kind == "H":  # closes a stage: (X part) + (Z part)
            idx = toggled[b]
            stages.append((
                (idx if q is None else q[idx], None if f is None else _signs(f[idx])),
                (q, _signs(masks[b] if f is None else f ^ masks[b])),
            ))
            q, f, pending = None, None, 0
            continue
        pending += 1
        if kind in ("X", "CX"):
            idx = toggled[b] if kind == "X" else np.where(masks[c], toggled[b], words)
            q = idx if q is None else q[idx]
            f = None if f is None else f[idx]
        else:
            flip = masks[b] if kind == "Z" else masks[b] & masks[c]
            f = flip if f is None else f ^ flip
    if pending > 1:  # no single gate is the identity, but two can be
        if q is not None and np.array_equal(q, words):
            q = None
        if f is not None and not f.any():
            f = None
    if q is not None or f is not None:
        stages.append(((q, _signs(f)),))
    return tuple(stages)


def _run(stages, x: np.ndarray) -> np.ndarray:
    """Run compiled stages on the last axis of ``x``.

    Each term ``(q, s)`` is the signed gather ``s * x[q]``; a stage of
    two terms is (X part + Z part) / sqrt(2).
    """
    for stage in stages:
        q, s = stage[0]
        y = x if q is None else x.take(q, axis=-1)
        if s is not None:
            y = s * y
        if len(stage) == 2:
            q, s = stage[1]
            z = x if q is None else x.take(q, axis=-1)
            y = (y + (z if s is None else s * z)) * _INV_SQRT2
        x = y
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
    out = _run(_compile([_op(gate) for gate in circuit], _LATTICE_DIM), lat._block)
    if not _all_finite(out):
        raise ValueError("coefficients must be finite")
    return lat._with_block(out)


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
