"""Command-line front end.

Subcommands: ``teleport`` prints the teleported coefficient table,
``render`` and ``lattice-render`` write cube figures as SVG,
``verify`` cross-checks the comb engine against the tensor-product
simulator and the algebra and color invariants, and ``color``
evaluates the value-to-hue map either way.

Exit codes: 0 on success, 1 when verification fails, 2 on usage
errors (bad flags, unreadable input, out-of-domain values).  All
numeric output is printed with 17 significant digits.  The only
randomness lives in ``verify`` and comes from numpy's seeded
default_rng (PCG64), so runs are reproducible by seed.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .algebra import Multivector
from .coding import (
    _fmt_number,
    bits_to_key,
    decode,
    lattice_from_json,
    multivector_from_json,
    multivector_to_json,
)
from .colorwheel import hue_to_rgb, nu_of_x, rgb_to_hex, x_of_nu
from .gates import GATE_KINDS, Gate, apply_circuit, apply_gate, teleport
from .render import (
    CubeStyle,
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

_MARGIN = 20.0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="combcube",
        description="Comb-coded multivectors: teleportation, cube figures, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("teleport", help="teleport alpha + beta b1 onto bit 3")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--output", type=Path, help="also write the table as JSON")
    p.set_defaults(func=_cmd_teleport)

    p = sub.add_parser("render", help="render a coefficient table as a colored cube")
    p.add_argument("input", type=Path, help="coefficient table JSON")
    p.add_argument("--output", type=Path, required=True, help="SVG file to write")
    _add_style_flags(p)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("lattice-render", help="render a lattice file as colored cubes")
    p.add_argument("input", type=Path, help="lattice JSON")
    p.add_argument("--output", type=Path, required=True, help="SVG file to write")
    p.add_argument("--placement", choices=("grid",), default="grid")
    p.add_argument("--deformation", choices=("none", "sine-warp"), default="none")
    _add_style_flags(p)
    p.set_defaults(func=_cmd_lattice_render)

    p = sub.add_parser("verify", help="run the cross-engine and invariant checks")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=int, default=1000)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("color", help="evaluate the value-to-hue map")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--x", type=float, help="value: print its hue and color")
    which.add_argument("--nu", type=float, help="hue: print its value")
    p.set_defaults(func=_cmd_color)

    return parser


def _add_style_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=("redundant", "representative"), default="redundant")
    p.add_argument("--background", type=float, default=0.75, help="backdrop hue in [0, 1)")
    p.add_argument("--angle", type=float, default=30.0, help="receding-axis angle, degrees")
    p.add_argument("--foreshortening", type=float, default=0.5)
    p.add_argument("--edge", type=float, default=100.0, help="cube edge, user units")
    p.add_argument("--stroke-width", type=float, default=3.0)
    p.add_argument("--corner-radius", type=float, default=5.0)
    p.add_argument("--width", type=int, help="viewport width (default: fit contents)")
    p.add_argument("--height", type=int, help="viewport height (default: fit contents)")


def _style_from_args(args) -> CubeStyle:
    return CubeStyle(
        mode=args.mode,
        background=args.background,
        angle_deg=args.angle,
        foreshortening=args.foreshortening,
        edge=args.edge,
        stroke_width=args.stroke_width,
        corner_radius=args.corner_radius,
    )


def _viewport(scene, args) -> tuple[int, int]:
    bbox = scene_bbox(scene)
    if bbox is None:
        auto_w, auto_h = 200, 200
    else:
        x0, y0, x1, y1 = bbox
        auto_w = max(1, math.ceil(x1 - x0 + 2 * _MARGIN))
        auto_h = max(1, math.ceil(y1 - y0 + 2 * _MARGIN))
    return (
        auto_w if args.width is None else args.width,
        auto_h if args.height is None else args.height,
    )


def _print_table(mv: Multivector) -> None:
    for key, value in sorted((bits_to_key(bits), v) for bits, v in decode(mv).items()):
        print(f"{key}  {_fmt_number(value)}")


def _cmd_teleport(args) -> int:
    mv = teleport(args.alpha, args.beta)
    _print_table(mv)
    if args.output is not None:
        args.output.write_text(multivector_to_json(mv))
        print(f"wrote {args.output}")
    return 0


def _cmd_render(args) -> int:
    mv = multivector_from_json(args.input.read_text())
    scene = cube_scene(mv, _style_from_args(args))
    width, height = _viewport(scene, args)
    args.output.write_text(emit_svg(scene, width, height))
    print(f"wrote {args.output}")
    return 0


def _cmd_lattice_render(args) -> int:
    lat = lattice_from_json(args.input.read_text())
    deformation = sine_warp() if args.deformation == "sine-warp" else None
    placement = grid_placement(lat.cell_indices())
    scene = lattice_scene(lat, _style_from_args(args), placement, deformation)
    width, height = _viewport(scene, args)
    args.output.write_text(emit_svg(scene, width, height))
    print(f"wrote {args.output}")
    return 0


def _cmd_color(args) -> int:
    if args.x is not None:
        nu = nu_of_x(args.x)
        print(f"nu = {_fmt_number(nu)}")
        print(f"rgb = {rgb_to_hex(hue_to_rgb(nu))}")
    else:
        print(f"x = {_fmt_number(x_of_nu(args.nu))}")
    return 0


# -- verification suites ----------------------------------------------------


def _gate_set() -> list[Gate]:
    single = [Gate(kind, k) for kind in ("X", "Z", "H") for k in (1, 2, 3)]
    return single + [Gate("CX", 2, 1), Gate("CX", 3, 2), Gate("CZ", 3, 1)]


def _random_circuit(rng, length: int):
    gates = []
    for _ in range(length):
        kind = GATE_KINDS[int(rng.integers(0, len(GATE_KINDS)))]
        target = int(rng.integers(1, 4))
        if kind in ("CX", "CZ"):
            control = int(rng.integers(1, 4))
            while control == target:
                control = int(rng.integers(1, 4))
            gates.append(Gate(kind, target, control))
        else:
            gates.append(Gate(kind, target))
    return gates


def _suite_basis_agreement() -> float:
    dev = 0.0
    for gate in _gate_set():
        for word in range(8):
            mv = apply_gate(Multivector.blade(word, 3), gate)
            sv = sv_apply_gate(StateVector.basis(word, 3), gate)
            dev = max(dev, equivalence_check(mv, sv)[1])
    return dev


def _suite_random_circuits(rng, trials: int) -> float:
    dev = 0.0
    for _ in range(trials):
        circuit = _random_circuit(rng, 20)
        coeffs = rng.uniform(-1.0, 1.0, 8)
        mv = apply_circuit(circuit, Multivector(coeffs, 3))
        sv = sv_apply_circuit(circuit, StateVector(coeffs, 3))
        dev = max(dev, equivalence_check(mv, sv)[1])
    return dev


def _suite_teleport(rng, trials: int) -> float:
    dev = 0.0
    expected = np.zeros(8)
    for _ in range(trials):
        phi = rng.uniform(0.0, math.tau)
        alpha, beta = math.cos(phi), math.sin(phi)
        out = teleport(alpha, beta)
        expected[:] = 0.0
        expected[0b000] = alpha
        expected[0b100] = beta
        dev = max(dev, float(np.max(np.abs(out.coeffs - expected))))
        dev = max(dev, equivalence_check(out, sv_teleport(alpha, beta))[1])
    return dev


def _suite_algebra(rng, trials: int) -> tuple[float, float]:
    exact_dev = 0.0
    for k in range(1, 4):
        bk = Multivector.basis_vector(k, 3)
        exact_dev = max(
            exact_dev,
            float(np.max(np.abs((bk * bk - Multivector.scalar(1.0, 3)).coeffs))),
        )
        for l in range(k + 1, 4):
            bl = Multivector.basis_vector(l, 3)
            exact_dev = max(
                exact_dev, float(np.max(np.abs((bk * bl + bl * bk).coeffs)))
            )
    assoc_dev = 0.0
    for _ in range(max(1, trials // 10)):
        a, b, c = (Multivector(rng.uniform(-10.0, 10.0, 8), 3) for _ in range(3))
        assoc_dev = max(
            assoc_dev, float(np.max(np.abs(((a * b) * c - a * (b * c)).coeffs)))
        )
    return exact_dev, assoc_dev


def _suite_involutions(rng, trials: int) -> float:
    dev = 0.0
    gates = _gate_set()
    for _ in range(max(1, trials // 10)):
        state = Multivector(rng.uniform(-1.0, 1.0, 8), 3)
        for gate in gates:
            once = apply_gate(state, gate)
            twice = apply_gate(once, gate)
            dev = max(dev, float(np.max(np.abs(twice.coeffs - state.coeffs))))
            dev = max(dev, abs(once.norm() - state.norm()))
    return dev


def _suite_colorwheel() -> tuple[float, float]:
    residual = 0.0
    for x in np.linspace(-1000.0, 1000.0, 100001):
        theta = math.tau * nu_of_x(float(x))
        residual = max(residual, abs(x * (1.0 - math.sin(theta)) - math.cos(theta)))
    if nu_of_x(0.0) != 0.75:
        residual = math.inf
    roundtrip = 0.0
    for k in range(-6, 7):
        for sign in (1.0, -1.0):
            x = sign * 10.0**k
            roundtrip = max(roundtrip, abs(x_of_nu(nu_of_x(x)) - x) / abs(x))
    return residual, roundtrip


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    rng = np.random.default_rng(args.seed)
    exact_dev, assoc_dev = _suite_algebra(rng, args.trials)
    residual, roundtrip = _suite_colorwheel()
    checks = [
        ("gate action on basis combs", _suite_basis_agreement(), 0.0),
        ("random circuits vs simulator", _suite_random_circuits(rng, args.trials), 1e-12),
        ("teleportation identity", _suite_teleport(rng, args.trials), 1e-12),
        ("generator relations", exact_dev, 0.0),
        ("product associativity", assoc_dev, 1e-10),
        ("gate involutions and norms", _suite_involutions(rng, args.trials), 1e-12),
        ("color map residual", residual, 1e-12),
        ("color map roundtrip (rel)", roundtrip, 1e-9),
    ]
    all_ok = True
    for name, dev, tol in checks:
        ok = dev <= tol
        all_ok = all_ok and ok
        print(f"{name:<32} max dev {dev:9.3e}  {'PASS' if ok else 'FAIL'}")
    print(f"overall: {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
