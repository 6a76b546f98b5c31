"""End-to-end checks of the command-line front end.

Each test drives ``run`` with an argv list and inspects stdout, files
written, and exit codes: 0 success, 1 failed verification, 2 usage or
domain errors.
"""

import json
import re
import warnings
import xml.etree.ElementTree as ET
from dataclasses import replace

import pytest

from combcube.cli import _style_from_args, build_parser, run
from combcube.coding import MAX_CELL_INDEX, multivector_from_json
from combcube.render import CubeStyle

EXAMPLE_JSON = json.dumps({
    "000": -0.07, "100": 0.32, "010": -3.08, "001": 1.06,
    "110": -0.85, "101": 0.27, "011": -0.86, "111": 4.07,
})

LINE_RE = re.compile(r"^[01]{3}  \S+$")


def _table_lines(out: str) -> dict[str, float]:
    lines = [ln for ln in out.splitlines() if LINE_RE.match(ln)]
    return {ln.split()[0]: float(ln.split()[1]) for ln in lines}


def test_teleport_prints_sorted_table(capsys):
    assert run(["teleport", "--alpha", "0.6", "--beta", "0.8"]) == 0
    out = capsys.readouterr().out
    table = _table_lines(out)
    assert list(table) == sorted(table)
    assert len(table) == 8
    assert table["000"] == pytest.approx(0.6, abs=1e-12)
    assert table["001"] == pytest.approx(0.8, abs=1e-12)
    for key in ("100", "010", "110", "101", "011", "111"):
        assert abs(table[key]) <= 1e-12


def test_teleport_writes_json(tmp_path, capsys):
    out_file = tmp_path / "teleported.json"
    assert run([
        "teleport", "--alpha", "1", "--beta", "0", "--output", str(out_file)
    ]) == 0
    assert f"wrote {out_file}" in capsys.readouterr().out
    mv = multivector_from_json(out_file.read_text())
    assert mv.coeffs[0] == pytest.approx(1.0, abs=1e-12)


def test_color_of_zero(capsys):
    assert run(["color", "--x", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "nu = 0.75"
    assert out[1] == "rgb = #8000FF"


def test_color_of_one(capsys):
    assert run(["color", "--x", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "nu = 0"
    assert out[1] == "rgb = #FF0000"


def test_color_inverse(capsys):
    assert run(["color", "--nu", "0.75"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("x = ")
    assert float(out[0].removeprefix("x = ")) == pytest.approx(0.0, abs=1e-15)
    assert run(["color", "--nu", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert float(out[0].removeprefix("x = ")) == pytest.approx(1.0, rel=1e-12)


def test_color_pole_is_a_domain_error(capsys):
    assert run(["color", "--nu", "0.25"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_an_overflowing_teleport_is_one_error_line_without_a_warning(capsys):
    # under the RuntimeWarning filter of pyproject.toml a numpy warning fails this
    assert run(["teleport", "--alpha", "1.7976931348623157e308",
                "--beta", "-1.7976931348623157e308"]) == 2
    assert capsys.readouterr().err == "error: coefficients must be finite\n"


def test_color_flags_are_exclusive():
    with pytest.raises(SystemExit) as exc:
        run(["color", "--x", "1", "--nu", "0.5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["color"])
    assert exc.value.code == 2


def test_render_writes_svg(tmp_path, capsys):
    src = tmp_path / "table.json"
    src.write_text(EXAMPLE_JSON)
    dst = tmp_path / "cube.svg"
    assert run(["render", str(src), "--output", str(dst)]) == 0
    assert f"wrote {dst}" in capsys.readouterr().out
    root = ET.fromstring(dst.read_text())
    assert root.tag.endswith("svg")
    assert int(root.get("width")) > 0 and int(root.get("height")) > 0
    assert root.get("viewBox") == f'0 0 {root.get("width")} {root.get("height")}'
    assert len(list(root)) == 28  # background + 27 cube elements


def test_render_respects_viewport_flags(tmp_path, capsys):
    src = tmp_path / "table.json"
    src.write_text(EXAMPLE_JSON)
    dst = tmp_path / "cube.svg"
    assert run([
        "render", str(src), "--output", str(dst),
        "--mode", "representative", "--width", "321", "--height", "123",
    ]) == 0
    capsys.readouterr()
    root = ET.fromstring(dst.read_text())
    assert root.get("width") == "321" and root.get("height") == "123"
    assert len(list(root)) == 9


def test_render_missing_input(tmp_path, capsys):
    rc = run(["render", str(tmp_path / "absent.json"), "--output", str(tmp_path / "x.svg")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_render_bad_json(tmp_path, capsys):
    src = tmp_path / "bad.json"
    src.write_text('{"00": 1.0, "111": 2.0}')
    rc = run(["render", str(src), "--output", str(tmp_path / "x.svg")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_lattice_render(tmp_path, capsys):
    src = tmp_path / "lattice.json"
    src.write_text(json.dumps({
        "0,0": {"000": 1.0},
        "1,0": {"100": 1.0},
        "0,1": {"111": 1.0},
    }))
    dst = tmp_path / "flat.svg"
    assert run(["lattice-render", str(src), "--output", str(dst)]) == 0
    capsys.readouterr()
    root = ET.fromstring(dst.read_text())
    assert len(list(root)) == 1 + 3 * 27

    warped = tmp_path / "warped.svg"
    assert run([
        "lattice-render", str(src), "--output", str(warped),
        "--deformation", "sine-warp",
    ]) == 0
    capsys.readouterr()
    assert warped.read_text() != dst.read_text()
    assert len(list(ET.fromstring(warped.read_text()))) == 1 + 3 * 27


def test_verify_passes_quickly(capsys):
    assert run(["verify", "--seed", "1", "--trials", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 9  # eight checks plus the overall line
    assert "FAIL" not in out
    assert out.strip().endswith("overall: PASS")


def test_verify_rejects_silly_trials(capsys):
    assert run(["verify", "--trials", "0"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_missing_subcommand_and_args():
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["teleport", "--alpha", "1"])
    assert exc.value.code == 2


def test_parser_prog_name():
    assert build_parser().prog == "combcube"


@pytest.mark.parametrize("flags", [
    ["--width", "0"], ["--height", "0"], ["--width", "-5"], ["--angle", "nan"],
])
def test_render_rejects_bad_viewport_and_style_flags(tmp_path, capsys, flags):
    src = tmp_path / "table.json"
    src.write_text(EXAMPLE_JSON)
    dst = tmp_path / "cube.svg"
    assert run(["render", str(src), "--output", str(dst), *flags]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not dst.exists()


@pytest.mark.parametrize("command, table, flag", [
    ("render", EXAMPLE_JSON, "--height"),
    ("lattice-render", json.dumps({"0,0": {"000": 1.0}}), "--width"),
], ids=["render", "lattice-render"])
def test_render_rejects_a_viewport_past_the_float_range(tmp_path, capsys, command, table, flag):
    src = tmp_path / "in.json"
    src.write_text(table)
    dst = tmp_path / "out.svg"
    assert run([command, str(src), "--output", str(dst), flag, str(10**400)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag[2:]} must be finite, got inf\n"
    assert not dst.exists()


@pytest.mark.parametrize("command, table", [
    ("render", EXAMPLE_JSON),
    ("lattice-render", json.dumps({"0,0": {"000": 1.0}, "1,0": {"100": 1.0}})),
])
def test_timings_go_to_stderr_only(tmp_path, capsys, command, table):
    src = tmp_path / "input.json"
    src.write_text(table)
    plain, timed = tmp_path / "plain.svg", tmp_path / "timed.svg"
    assert run([command, str(src), "--output", str(plain)]) == 0
    plain_out = capsys.readouterr()
    assert run([command, str(src), "--output", str(timed), "--timings"]) == 0
    timed_out = capsys.readouterr()
    assert timed_out.out == plain_out.out.replace(str(plain), str(timed))
    assert plain_out.err == ""
    assert timed.read_bytes() == plain.read_bytes()
    report = dict(line.split(None, 1) for line in timed_out.err.splitlines())
    assert list(report) == ["read", "parse", "scene", "emit", "write",
                            "cells", "primitives", "bytes"]
    for stage in ("read", "parse", "scene", "emit", "write"):
        assert report[stage].endswith(" s") and float(report[stage][:-2]) >= 0.0
    cells = 1 if command == "render" else 2
    assert report["cells"] == str(cells)
    assert report["primitives"] == str(27 * cells)
    assert report["bytes"] == str(len(plain.read_bytes()))


def test_timings_keep_the_error_exit(tmp_path, capsys):
    src = tmp_path / "bad.json"
    src.write_text('{"00": 1.0, "111": 2.0}')
    assert run(["render", str(src), "--output", str(tmp_path / "x.svg"), "--timings"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("argv, stages, gates", [
    (["teleport", "--alpha", "0.6", "--beta", "0.8"], ["compute", "write"], 6),
    (["verify", "--seed", "3", "--trials", "10"],
     ["algebra", "colorwheel", "basis", "circuits", "teleport", "involution"],
     2 * 12 * 8 + 2 * 10 * 20 + 2 * 10 * 6 + 2 * 1 * 12),
])
def test_teleport_and_verify_timings_go_to_stderr_only(capsys, argv, stages, gates):
    assert run(argv) == 0
    plain = capsys.readouterr()
    assert run([*argv, "--timings"]) == 0
    timed = capsys.readouterr()
    assert timed.out == plain.out
    assert plain.err == ""
    report = dict(line.split(None, 1) for line in timed.err.splitlines())
    assert list(report) == [*stages, "gates"]
    for stage in stages:
        assert report[stage].endswith(" s") and float(report[stage][:-2]) >= 0.0
    assert report["gates"] == str(gates)



def test_overflowing_teleport_prints_only_the_error(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
        assert run(["teleport", "--alpha", "1.5e308", "--beta", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: coefficients must be finite\n"


@pytest.mark.parametrize("command, text", [
    ("render", '{"000": ' + "[" * 200_000 + "]" * 200_000 + "}"),
    ("lattice-render", '{"0,0": ' + "[" * 200_000 + "]" * 200_000 + "}"),
    ("lattice-render", '{"0,0": ' + '{"000": ' * 200_000 + "1" + "}" * 200_001),
], ids=["table", "lattice-list", "lattice-object"])
def test_deeply_nested_json_is_a_usage_error(tmp_path, capsys, command, text):
    src = tmp_path / "deep.json"
    src.write_text(text)
    assert run([command, str(src), "--output", str(tmp_path / "x.svg")]) == 2
    err = capsys.readouterr().err
    assert err == "error: JSON input nests too deeply\n"


def test_lattice_render_reports_a_non_finite_value_before_a_cell_clash(tmp_path, capsys):
    src = tmp_path / "lattice.json"
    src.write_text('{"0": {"000": Infinity}, "0,0": {"000": 1.0}}')
    dst = tmp_path / "x.svg"
    assert run(["lattice-render", str(src), "--output", str(dst)]) == 2
    assert capsys.readouterr() == ("", "error: coefficients must be finite\n")
    assert not dst.exists()


@pytest.mark.parametrize("index", [MAX_CELL_INDEX, -MAX_CELL_INDEX])
def test_lattice_render_accepts_cell_indices_at_the_bound(tmp_path, capsys, index):
    src = tmp_path / "lattice.json"
    src.write_text(json.dumps({f"{index},0": {"000": 1.0}, f"{index},1": {"111": 1.0}}))
    dst = tmp_path / "edge.svg"
    assert run(["lattice-render", str(src), "--output", str(dst)]) == 0
    assert len(list(ET.fromstring(dst.read_text()))) == 1 + 2 * 27
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("index", [MAX_CELL_INDEX + 1, -MAX_CELL_INDEX - 1, 10**20 - 1])
def test_lattice_render_rejects_cell_indices_past_the_bound(tmp_path, capsys, index):
    src = tmp_path / "lattice.json"
    src.write_text(json.dumps({"0,0": {"000": 1.0}, f"{index},0": {"000": 1.0}}))
    dst = tmp_path / "far.svg"
    assert run(["lattice-render", str(src), "--output", str(dst)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cell index ({index}, 0) out of range")
    assert not dst.exists()


@pytest.mark.parametrize("command", ["render", "lattice-render"])
def test_render_flag_defaults_build_the_default_style(command):
    args = build_parser().parse_args([command, "in.json", "--output", "out.svg"])
    assert _style_from_args(args) == CubeStyle()


@pytest.mark.parametrize("command", ["render", "lattice-render"])
@pytest.mark.parametrize("flag, field, value", [
    ("--mode", "mode", "representative"),
    ("--background", "background", 0.25),
    ("--angle", "angle_deg", 40.0),
    ("--foreshortening", "foreshortening", 0.7),
    ("--edge", "edge", 60.0),
    ("--stroke-width", "stroke_width", 1.5),
    ("--corner-radius", "corner_radius", 2.5),
])
def test_each_style_flag_sets_its_own_field(command, flag, field, value):
    args = build_parser().parse_args([command, "in.json", "--output", "out.svg", flag, str(value)])
    assert _style_from_args(args) == replace(CubeStyle(), **{field: value})


@pytest.mark.parametrize("trials", [10**20, 1_000_001])
def test_verify_rejects_trials_past_the_cap_before_any_suite(trials, capsys, monkeypatch):
    import combcube.cli as cli

    def no_suite(*args):
        raise AssertionError("a suite ran")

    for name in ("_suite_algebra", "_suite_colorwheel", "_suite_basis_agreement",
                 "_suite_random_circuits", "_suite_teleport", "_suite_involutions"):
        monkeypatch.setattr(cli, name, no_suite)
    assert run(["verify", "--trials", str(trials)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --trials must be at most 1000000, got {trials}\n"


def test_verify_keeps_its_message_for_trials_below_one(capsys):
    assert run(["verify", "--trials", "-3"]) == 2
    assert capsys.readouterr().err == "error: --trials must be at least 1\n"


def test_verify_rejects_a_negative_seed_before_any_suite(capsys, monkeypatch):
    import combcube.cli as cli

    def no_suite(*args):
        raise AssertionError("a suite ran")

    for name in ("_suite_algebra", "_suite_colorwheel", "_suite_basis_agreement",
                 "_suite_random_circuits", "_suite_teleport", "_suite_involutions"):
        monkeypatch.setattr(cli, name, no_suite)
    assert run(["verify", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed must be at least 0, got -1\n"


@pytest.mark.parametrize("argv, flag, value", [
    (["teleport", "--beta", "0.5"], "--alpha", "-1e-3"),
    (["teleport", "--beta", "0.5"], "--alpha", "-1E+2"),
    (["teleport", "--alpha", "0.5"], "--beta", "-.5e1"),
    (["color"], "--x", "-2.5e-1"),
    (["color"], "--nu", "-1e-3"),
    (["render", "in.json", "--output", "out.svg"], "--background", "-1e-1"),
])
def test_negative_values_in_scientific_notation_are_values(tmp_path, monkeypatch, capsys,
                                                           argv, flag, value):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.json").write_text(EXAMPLE_JSON)
    joined = run(argv + [f"{flag}={value}"])
    expected = capsys.readouterr()
    assert run(argv + [flag, value]) == joined
    assert capsys.readouterr() == expected


def test_an_option_after_a_float_flag_is_still_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["teleport", "--alpha", "-x", "--beta", "0.5"])
    assert exc.value.code == 2
    assert "argument --alpha: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("table, flags", [
    ({"5,0": {"000": 1.0}, "6,0": {"000": 2.0}}, ["--edge", "2e307"]),  # the centre overflows
    ({"-1,0": {"000": 1.0}, "0,0": {"000": 2.0}}, ["--edge", "1.2e308"]),  # the span overflows
    ({"-1,0": {"000": 1.0}, "0,0": {"000": 2.0}},
     ["--edge", "1.2e308", "--width", "100", "--height", "100"]),
], ids=["centre", "span", "span-sized"])
def test_lattice_render_rejects_a_scene_extent_past_the_float_range(tmp_path, capsys,
                                                                    table, flags):
    src = tmp_path / "far.json"
    src.write_text(json.dumps(table))
    dst = tmp_path / "far.svg"
    assert run(["lattice-render", str(src), "--output", str(dst), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: scene extent must have a finite span and centre, got .*\n",
                        captured.err)
    assert not dst.exists()


@pytest.mark.parametrize("command, table, flags, side", [
    ("lattice-render", {"0,0": {"000": 1.0}}, ["--edge", "1e308"], "width"),
    ("lattice-render", {"0,0": {"000": 1.0}}, ["--edge", "1e308", "--width", "100"], "height"),
    ("render", {"000": 1.0}, ["--edge", "1e308", "--height", "100"], "width"),
], ids=["lattice", "lattice-height", "render-width"])
def test_a_fitted_viewport_side_past_2_31_units_is_a_usage_error(tmp_path, capsys, command,
                                                                table, flags, side):
    src = tmp_path / "huge.json"
    src.write_text(json.dumps(table))
    dst = tmp_path / "huge.svg"
    assert run([command, str(src), "--output", str(dst), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(rf"error: the fitted viewport {side} 1\.\d+e\+308 is past 2147483647 "
                        r"units; pass --width and --height\n", captured.err)
    assert not dst.exists()


@pytest.mark.parametrize("flags, width", [
    (["--edge", "1e9"], "1433012752"),  # fitted, under 2**31 units
    (["--edge", "1e308", "--width", "100", "--height", "100"], "100"),  # given
])
def test_a_viewport_under_the_bound_or_given_still_renders(tmp_path, capsys, flags, width):
    src = tmp_path / "one.json"
    src.write_text(json.dumps({"0,0": {"000": 1.0}}))
    dst = tmp_path / "one.svg"
    assert run(["lattice-render", str(src), "--output", str(dst), *flags]) == 0
    assert capsys.readouterr().err == ""
    assert ET.fromstring(dst.read_text()).get("width") == width


def test_lattice_render_of_no_cells_is_a_200_by_200_backdrop(tmp_path, capsys):
    src = tmp_path / "empty.json"
    src.write_text("{}")
    dst = tmp_path / "empty.svg"
    assert run(["lattice-render", str(src), "--output", str(dst)]) == 0
    assert capsys.readouterr().err == ""
    root = ET.fromstring(dst.read_text())
    assert (root.get("width"), root.get("height")) == ("200", "200")
    assert [child.get("class") for child in root] == ["background"]


def test_lattice_render_has_no_placement_flag(tmp_path, capsys):
    src = tmp_path / "lattice.json"
    src.write_text(json.dumps({"0,0": {"000": 1.0}}))
    with pytest.raises(SystemExit) as exc:
        run(["lattice-render", str(src), "--output", str(tmp_path / "x.svg"),
             "--placement", "grid"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --placement grid" in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()


def test_verify_fails_when_the_hue_of_zero_is_the_other_root(capsys, monkeypatch):
    # nu = 1/4 also solves x(1 - sin 2 pi nu) = cos 2 pi nu at x = 0, so only
    # the explicit check of nu_of_x(0.0) sees the wrong branch
    import combcube.cli as cli

    nu_of_x = cli.nu_of_x
    monkeypatch.setattr(cli, "nu_of_x", lambda x: 0.25 if x == 0.0 else nu_of_x(x))
    assert run(["verify", "--seed", "1", "--trials", "5"]) == 1
    out = capsys.readouterr().out
    assert re.search(r"^color map residual +max dev +inf  FAIL$", out, re.M)
    assert out.count("FAIL") == 2 and out.strip().endswith("overall: FAIL")
