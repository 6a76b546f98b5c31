"""Command-line front end.

Subcommands: ``teleport`` prints the teleported coefficient table,
``render`` and ``lattice-render`` write cube figures as SVG,
``verify`` cross-checks the comb engine against the tensor-product
simulator and the algebra and color invariants, and ``color``
evaluates the value-to-hue map either way.

With ``--timings`` a command also prints to stderr the seconds spent
in each of its stages, then its counts.  The two render commands report
reading, parsing, building the scene, emitting and writing, and the
counts of cells, primitives and bytes; ``teleport`` reports computing
and writing (the table, and the JSON file with ``--output``) and
``verify`` each suite, both with the number of gates applied.  Standard
output does not change.

Exit codes: 0 on success, 1 when verification fails, 2 on usage
errors (bad flags, unreadable input, out-of-domain values).  All
numeric stdout is printed with 17 significant digits.  The only
randomness lives in ``verify`` and comes from numpy's seeded
default_rng (PCG64), so runs are reproducible by seed.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import time
from pathlib import Path

import numpy as np

from .algebra import Multivector
from .coding import (
    _fmt_number,
    _key_words,
    lattice_from_json,
    multivector_from_json,
    multivector_to_json,
)
from .colorwheel import hue_to_rgb, nu_of_x, rgb_to_hex, x_of_nu
from .gates import (_CONTROLLED, GATE_KINDS, Gate, apply_circuit, apply_gate, teleport,
                    teleport_network)
from .render import (
    _MODES,
    _STYLE_NUMBERS,
    CubeStyle,
    cube_scene,
    emit_svg,
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
_MAX_FITTED_SIDE = 2**31 - 1  # the largest side a fitted viewport may have
# 1,000 trials take 0.66 s and 10,000 take 4.6 s (2-core Xeon), so this is about 8 minutes
_MAX_TRIALS = 1_000_000


class _Parser(argparse.ArgumentParser):
    """Reads -1e-3 as a value; argparse's own negative-number pattern misses it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="combcube",
        description="Comb-coded multivectors: teleportation, cube figures, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("teleport", help="teleport alpha + beta b1 onto bit 3")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--output", type=Path, help="also write the table as JSON")
    _add_timings_flag(p)
    p.set_defaults(func=_cmd_teleport)

    p = sub.add_parser("render", help="render a coefficient table as a colored cube")
    p.add_argument("input", type=Path, help="coefficient table JSON")
    p.add_argument("--output", type=Path, required=True, help="SVG file to write")
    _add_render_flags(p)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("lattice-render", help="render a lattice file as colored cubes")
    p.add_argument("input", type=Path, help="lattice JSON")
    p.add_argument("--output", type=Path, required=True, help="SVG file to write")
    p.add_argument("--deformation", choices=("none", "sine-warp"), default="none")
    _add_render_flags(p)
    p.set_defaults(func=_cmd_lattice_render)

    p = sub.add_parser("verify", help="run the cross-engine and invariant checks")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=int, default=1000)
    _add_timings_flag(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("color", help="evaluate the value-to-hue map")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--x", type=float, help="value: print its hue and color")
    which.add_argument("--nu", type=float, help="hue: print its value")
    p.set_defaults(func=_cmd_color)

    return parser


def _add_render_flags(p: argparse.ArgumentParser) -> None:
    """Style, viewport and --timings flags shared by both render commands."""
    p.add_argument("--mode", choices=_MODES, default=CubeStyle.mode)
    p.add_argument("--background", type=float, default=CubeStyle.background,
                   help="backdrop hue in [0, 1)")
    p.add_argument("--angle", dest="angle_deg", metavar="ANGLE", type=float,
                   default=CubeStyle.angle_deg, help="receding-axis angle, degrees")
    p.add_argument("--foreshortening", type=float, default=CubeStyle.foreshortening)
    p.add_argument("--edge", type=float, default=CubeStyle.edge, help="cube edge, user units")
    p.add_argument("--stroke-width", type=float, default=CubeStyle.stroke_width)
    p.add_argument("--corner-radius", type=float, default=CubeStyle.corner_radius)
    p.add_argument("--width", type=int, help="viewport width (default: fit contents)")
    p.add_argument("--height", type=int, help="viewport height (default: fit contents)")
    _add_timings_flag(p)


def _add_timings_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--timings", action="store_true",
                   help="print seconds per stage and counts to stderr")


def _style_from_args(args) -> CubeStyle:
    # each render flag sets the CubeStyle field of its own name
    return CubeStyle(**{name: getattr(args, name) for name in ("mode", *_STYLE_NUMBERS)})


def _viewport(scene, args) -> tuple[int, int]:
    """--width and --height, or else the scene's box plus margins (200 if
    empty); a fitted side past _MAX_FITTED_SIDE units is a ValueError."""
    bbox = scene_bbox(scene)
    sides = []
    for name, side, lo, hi in (("width", args.width, 0, 2), ("height", args.height, 1, 3)):
        if side is None:
            side = 200 if bbox is None else max(1, math.ceil(bbox[hi] - bbox[lo] + 2 * _MARGIN))
            if side > _MAX_FITTED_SIDE:
                raise ValueError(f"the fitted viewport {name} {side:.6g} is past "
                                 f"{_MAX_FITTED_SIDE} units; pass --width and --height")
        sides.append(side)
    return sides[0], sides[1]


def _print_table(mv: Multivector) -> None:
    for key, word in _key_words(mv.dim).items():
        print(f"{key}  {_fmt_number(mv.coeffs[word])}")


def _cmd_teleport(args) -> int:
    clock = _StageClock()
    mv = teleport(args.alpha, args.beta)
    clock.lap("compute")
    _print_table(mv)
    if args.output is not None:
        args.output.write_text(multivector_to_json(mv))
        print(f"wrote {args.output}")
    clock.lap("write")
    if args.timings:
        clock.report(gates=len(teleport_network()))
    return 0


class _StageClock:
    """Seconds spent in each stage of a command, in the order they ran."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self._last = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.seconds[stage] = now - self._last
        self._last = now

    def report(self, **counts: int) -> None:
        """Print the seconds of each stage, then the counts, to stderr."""
        for stage, seconds in self.seconds.items():
            print(f"{stage:<10} {seconds:.6f} s", file=sys.stderr)
        for name, count in counts.items():
            print(f"{name:<10} {count}", file=sys.stderr)


def _render(args, parse, draw) -> int:
    """Read, parse, draw with ``draw(parsed, style)``, emit and write; the
    style is built after parsing, so a bad file is reported before a bad
    style flag.  --timings reports each stage and the counts to stderr."""
    clock = _StageClock()
    text = args.input.read_text()
    clock.lap("read")
    parsed = parse(text)
    clock.lap("parse")
    scene = draw(parsed, _style_from_args(args))
    clock.lap("scene")
    svg = emit_svg(scene, *_viewport(scene, args))
    clock.lap("emit")
    args.output.write_text(svg)
    clock.lap("write")
    print(f"wrote {args.output}")
    if args.timings:
        clock.report(cells=len(scene._corners), primitives=scene._primitives,
                     bytes=len(svg.encode()))
    return 0


def _cmd_render(args) -> int:
    return _render(args, multivector_from_json, cube_scene)


def _cmd_lattice_render(args) -> int:
    deformation = sine_warp() if args.deformation == "sine-warp" else None
    return _render(args, lattice_from_json,
                   lambda lat, style: lattice_scene(lat, style, deformation=deformation))


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
        if kind in _CONTROLLED:
            control = int(rng.integers(1, 4))
            while control == target:
                control = int(rng.integers(1, 4))
            gates.append(Gate(kind, target, control))
        else:
            gates.append(Gate(kind, target))
    return gates


# Each suite takes (rng, trials) and returns the max deviation of each of
# its checks by name, and its gate applications in both engines.


def _suite_basis_agreement(rng, trials: int) -> tuple[dict[str, float], int]:
    dev = 0.0
    gates = _gate_set()
    for gate in gates:
        for word in range(8):
            mv = apply_gate(Multivector.blade(word, 3), gate)
            sv = sv_apply_gate(StateVector.basis(word, 3), gate)
            dev = max(dev, equivalence_check(mv, sv)[1])
    return {"gate action on basis combs": dev}, 2 * 8 * len(gates)


def _suite_random_circuits(rng, trials: int) -> tuple[dict[str, float], int]:
    dev = 0.0
    applied = 0
    for _ in range(trials):
        circuit = _random_circuit(rng, 20)
        coeffs = rng.uniform(-1.0, 1.0, 8)
        mv = apply_circuit(circuit, Multivector(coeffs, 3))
        sv = sv_apply_circuit(circuit, StateVector(coeffs, 3))
        dev = max(dev, equivalence_check(mv, sv)[1])
        applied += 2 * len(circuit)
    return {"random circuits vs simulator": dev}, applied


def _suite_teleport(rng, trials: int) -> tuple[dict[str, float], int]:
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
    return {"teleportation identity": dev}, 2 * trials * len(teleport_network())


def _suite_algebra(rng, trials: int) -> tuple[dict[str, float], int]:
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
    return {"generator relations": exact_dev, "product associativity": assoc_dev}, 0


def _suite_involutions(rng, trials: int) -> tuple[dict[str, float], int]:
    dev = 0.0
    gates = _gate_set()
    rounds = max(1, trials // 10)
    for _ in range(rounds):
        state = Multivector(rng.uniform(-1.0, 1.0, 8), 3)
        for gate in gates:
            once = apply_gate(state, gate)
            twice = apply_gate(once, gate)
            dev = max(dev, float(np.max(np.abs(twice.coeffs - state.coeffs))))
            dev = max(dev, abs(once.norm() - state.norm()))
    return {"gate involutions and norms": dev}, 2 * rounds * len(gates)


def _suite_colorwheel(rng, trials: int) -> tuple[dict[str, float], int]:
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
    return {"color map residual": residual, "color map roundtrip (rel)": roundtrip}, 0


# The tolerance of each check, in print order.
_TOLERANCES = {
    "gate action on basis combs": 0.0,
    "random circuits vs simulator": 1e-12,
    "teleportation identity": 1e-12,
    "generator relations": 0.0,
    "product associativity": 1e-10,
    "gate involutions and norms": 1e-12,
    "color map residual": 1e-12,
    "color map roundtrip (rel)": 1e-9,
}


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    if args.trials > _MAX_TRIALS:
        raise ValueError(f"--trials must be at most {_MAX_TRIALS}, got {args.trials}")
    if args.seed < 0:
        raise ValueError(f"--seed must be at least 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    clock = _StageClock()
    devs, gates = {}, 0
    # the suites run in this order, which fixes their rng draws
    for stage, suite in (("algebra", _suite_algebra), ("colorwheel", _suite_colorwheel),
                         ("basis", _suite_basis_agreement), ("circuits", _suite_random_circuits),
                         ("teleport", _suite_teleport), ("involution", _suite_involutions)):
        suite_devs, applied = suite(rng, args.trials)
        devs.update(suite_devs)
        gates += applied
        clock.lap(stage)
    passed = {name: devs[name] <= tol for name, tol in _TOLERANCES.items()}
    for name, ok in passed.items():
        print(f"{name:<32} max dev {devs[name]:9.3e}  {'PASS' if ok else 'FAIL'}")
    all_ok = all(passed.values())
    print(f"overall: {'PASS' if all_ok else 'FAIL'}")
    if args.timings:
        clock.report(gates=gates)
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
