"""Command-line parsing, file formats, plot export, and exit codes."""

import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import wavefan as wf
from wavefan import cli_io
from wavefan.cli_io import (
    _BLOCK_VALUES,
    _csv_text,
    _render_svg,
    emit_plotdata,
    main,
    parse_config,
    read_profile,
    write_profile,
)
from wavefan.errors import ConfigError, ProfileFormatError


# ---------------------------------------------------------------------------
# argument parsing

def test_parse_solve_defaults():
    cfg = parse_config(["solve", "--ul", "-1", "--ur", "1", "--eps", "0.05"])
    assert cfg.command == "solve"
    assert (cfg.u_left, cfg.u_right) == (-1.0, 1.0)
    assert cfg.eps == (0.05,)
    assert cfg.newton_tol == 1e-11 and cfg.tail_tol == 1e-5
    assert cfg.out is None and cfg.report is None


@pytest.mark.parametrize("command", ["solve", "riemann"])
def test_parse_negative_states_in_exponent_form(command):
    eps = ["--eps", "0.05"] if command == "solve" else []
    cfg = parse_config([command, "--ul", "-1e-3", "--ur", "-.5E+2"] + eps)
    assert (cfg.u_left, cfg.u_right) == (-1e-3, -50.0)
    cfg = parse_config([command, "--ul", "1", "--ur", "-2.5e-1"] + eps)
    assert cfg.u_right == -0.25
    # a token that is not a number is still an option
    with pytest.raises(ConfigError):
        parse_config([command, "--ul", "1", "--ur", "-e3"] + eps)


def test_parse_polynomial_flux():
    cfg = parse_config(["solve", "--flux", "poly:0,0,0,1", "--ul", "-1",
                        "--ur", "1", "--eps", "0.1"])
    assert tuple(cfg.flux.coefficients) == (0.0, 0.0, 0.0, 1.0)


def test_parse_decreasing_schedule():
    cfg = parse_config(["sweep", "--ul", "1", "--ur", "-1",
                        "--eps", "0.1,0.05,0.025"])
    assert cfg.eps == (0.1, 0.05, 0.025)


def test_parse_rejects_increasing_schedule():
    with pytest.raises(ConfigError, match="0.05,0.1"):
        parse_config(["sweep", "--ul", "1", "--ur", "-1", "--eps", "0.05,0.1"])


def test_parse_rejects_malformed_flux():
    with pytest.raises(ConfigError, match="poly:abc"):
        parse_config(["solve", "--flux", "poly:abc", "--ul", "0", "--ur", "1",
                      "--eps", "0.1"])


def test_parse_rejects_unknown_flag():
    with pytest.raises(ConfigError):
        parse_config(["solve", "--ul", "0", "--ur", "1", "--frobnicate", "3"])


def test_parse_rejects_missing_required():
    with pytest.raises(ConfigError):
        parse_config(["solve", "--ur", "1"])


def test_parse_rejects_bad_states_and_tols():
    with pytest.raises(ConfigError):
        parse_config(["solve", "--ul", "nan", "--ur", "1", "--eps", "0.1"])
    with pytest.raises(ConfigError):
        parse_config(["solve", "--ul", "0", "--ur", "1", "--eps", "0.1",
                      "--tol", "-1e-9"])


@pytest.mark.parametrize("argv", [
    ["solve", "--ul", "-1", "--ur", "1", "--tol", "inf"],
    ["solve", "--ul", "-1", "--ur", "1", "--tol", "nan"],
    ["solve", "--ul", "-1", "--ur", "1", "--tail-tol", "nan"],
    ["solve", "--ul", "-1", "--ur", "1", "--tail-tol", "1"],
    ["riemann", "--ul", "-1", "--ur", "nan"],
    ["corner", "--samples", "1"],
    ["sweep", "--ul", "1", "--ur", "-1", "--eps", "0.1,0.1"],
    ["sweep", "--ul", "1", "--ur", "-1", "--eps", "0.05,0.1"],
    ["sweep", "--ul", "1", "--ur", "-1", "--eps", "0.1,0"],
    ["sweep", "--ul", "1", "--ur", "-1", "--eps", "nan"],
    ["sweep", "--ul", "1", "--ur", "-1", "--eps", "0.1,abc"],
    ["verify", "--ul", "1", "--ur", "-1", "--seed", "-1"],
], ids=["tol-inf", "tol-nan", "tail-tol-nan", "tail-tol-one", "riemann-state-nan",
        "corner-one-sample", "eps-repeated", "eps-increasing", "eps-zero", "eps-nan",
        "eps-malformed", "seed-negative"])
def test_out_of_range_values_rejected_at_parse_time(argv, capsys):
    with pytest.raises(ConfigError):
        parse_config(argv)
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_verify_takes_single_viscosity(command, capsys):
    argv = [command, "--ul", "1", "--ur", "-1", "--eps", "0.1,0.05"]
    with pytest.raises(ConfigError, match="single --eps, got schedule '0.1,0.05'; sweep"):
        parse_config(argv)
    assert main(argv) == 2
    assert "'0.1,0.05'" in capsys.readouterr().err


def test_seed_from_flag_or_config_file(tmp_path):
    argv = ["verify", "--ul", "1", "--ur", "-1", "--eps", "0.05"]
    assert parse_config(argv).seed is None           # the probe's own default
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("seed=12345\n")
    assert parse_config(argv + ["--config", str(cfg_file)]).seed == 12345
    # explicit flag wins over the file
    assert parse_config(argv + ["--config", str(cfg_file), "--seed", "99"]).seed == 99
    with pytest.raises(ConfigError, match="--seed"):
        parse_config(argv + ["--seed", "not-a-number"])


def test_parse_does_not_carry_values_between_calls():
    # every call starts from the parser's defaults, whatever the last one set
    cubic = parse_config(["solve", "--flux", "poly:0,0,0,1", "--ul", "-1", "--ur", "1",
                          "--eps", "0.1", "--tol", "1e-9", "--out", "a.csv"])
    assert cubic.flux == wf.polynomial_flux((0, 0, 0, 1)) and cubic.newton_tol == 1e-9
    plain = parse_config(["solve", "--ul", "-1", "--ur", "1"])
    assert plain.flux == wf.burgers_flux()
    assert plain.eps == (0.05,) and plain.newton_tol == 1e-11 and plain.out is None

    argv = ["verify", "--ul", "1", "--ur", "-1", "--eps", "0.05"]
    assert parse_config(argv + ["--seed", "7"]).seed == 7
    assert parse_config(argv).seed is None

    for bad in (["solve", "--flux", "poly:abc", "--ul", "0", "--ur", "1"],
                ["sweep", "--ul", "1", "--ur", "-1", "--eps", "0.05,0.1"],
                ["solve", "--ul", "1"]):
        with pytest.raises(ConfigError):
            parse_config(bad)
        cfg = parse_config(["sweep", "--ul", "1", "--ur", "-1"])
        assert cfg.eps == (0.1, 0.05, 0.025) and cfg.flux == wf.burgers_flux()


# ---------------------------------------------------------------------------
# config files

@pytest.mark.parametrize("config_first", [True, False], ids=["config-first", "config-last"])
@pytest.mark.parametrize("joined", [False, True], ids=["config-space", "config-equals"])
def test_config_file_merges_with_overrides(tmp_path, config_first, joined):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# sweep setup\nul=-1\nur=1\n\neps=0.1,0.05\n")
    config = ["--config=" + str(cfg_file)] if joined else ["--config", str(cfg_file)]
    flags = ["--eps", "0.05"]
    cfg = parse_config(["solve"] + (config + flags if config_first else flags + config))
    assert cfg.u_left == -1.0 and cfg.u_right == 1.0
    assert cfg.eps == (0.05,)  # explicit flag beats the file, wherever --config stands


def test_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(["solve", "--config", str(tmp_path / "absent.cfg")])
    with pytest.raises(ConfigError, match="needs a file path"):
        parse_config(["solve", "--ul", "0", "--ur", "1", "--config"])
    empty = tmp_path / "empty.cfg"
    empty.write_text("ul=-1\n=1\n")
    with pytest.raises(ConfigError, match=":2: empty key"):
        parse_config(["solve", "--config", str(empty)])
    bad = tmp_path / "bad.cfg"
    bad.write_text("ul=-1\njust some words\n")
    with pytest.raises(ConfigError, match=":2"):
        parse_config(["solve", "--config", str(bad)])
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("wibble=3\nul=0\nur=1\n")
    with pytest.raises(ConfigError):
        parse_config(["solve", "--config", str(unknown)])


@pytest.mark.parametrize("argv, line, flag", [
    (["solve", "--ul", "1", "--ur", "-1", "--tol", "1e-9"], "tol=inf", "--tol"),
    (["solve", "--ul", "1", "--ur", "-1"], "ul=nan", "--ul"),
    (["corner", "--samples", "11"], "samples=1", "--samples"),
    (["solve", "--ul", "1", "--ur", "-1", "--eps", "0.05"], "eps=0.05,0.1", "--eps"),
    (["verify", "--ul", "1", "--ur", "-1", "--seed", "3"], "seed=-1", "--seed"),
    (["verify", "--ul", "1", "--ur", "-1", "--check", "monotone"], "check=bogus", "--check"),
    (["corner", "--xi-min", "-8"], "xi-min=-100", "--xi-min"),
], ids=["tol-inf", "ul-nan", "samples-one", "eps-increasing", "seed-negative",
        "check-unknown", "xi-min-out-of-range"])
def test_a_file_value_is_checked_even_when_overridden(tmp_path, capsys, argv, line, flag):
    # each flag has one check, run on every occurrence: the file's value is
    # an occurrence even when the command line that follows replaces it
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(line + "\n")
    argv = argv[:1] + ["--config", str(cfg_file)] + argv[1:]
    with pytest.raises(ConfigError, match=flag):
        parse_config(argv)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and flag in err


def test_solve_help_names_each_value_as_before(capsys):
    with pytest.raises(SystemExit):
        main(["solve", "--help"])
    out = capsys.readouterr().out
    for shown in ("--ul UL", "--ur UR", "--tol TOL", "--tail-tol TAIL_TOL"):
        assert shown in out


# ---------------------------------------------------------------------------
# profile round trip

def csv_rows_oracle(header, columns):
    """Oracle: the CSV text built row by row, one formatted field at a time."""
    rows = [header]
    for i in range(len(columns[0])):
        rows.append(",".join("%.17g" % col[i] for col in columns))
    return ("\n".join(rows) + "\n").encode("utf-8")


# nan, infinities, signed zero, the smallest subnormal, the magnitudes where
# %g switches between fixed and exponent form, a value whose log10 rounds up
# a decade (1e23 is 9.99...92e22) and one whose 17 digits cross a decade edge
AWKWARD = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e16, 1e17,
                    -1e17, 1e-4, 1e-5, 0.1, 1.0 / 3.0, 2.0 ** 53 + 2.0, -1e300,
                    1e23, 9.9999999999999995e-08])


@pytest.mark.parametrize("k", [1, 2, 3, 5])   # riemann has 2 columns, profile 3, corner 5
@pytest.mark.parametrize("rows", [0, 1, len(AWKWARD)])
def test_csv_text_matches_row_oracle_on_awkward_values(k, rows):
    names = ["c%d" % j for j in range(k)]
    columns = [np.roll(AWKWARD, j)[:rows] for j in range(k)]
    assert _csv_text(names, columns).encode("utf-8") == csv_rows_oracle(",".join(names),
                                                                         columns)


@given(st.integers(1, 5), st.data())
def test_csv_text_matches_row_oracle_on_bit_patterns(k, data):
    # arbitrary bit patterns (every NaN payload and sign too), with drawn
    # floats, which favour nan, infinities, signed zeros and subnormals,
    # scattered over 0-3 blocks of rows
    rows = data.draw(st.integers(0, 3 * (_BLOCK_VALUES // k)), label="rows")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    table = rng.integers(0, 2 ** 64, (rows, k), dtype=np.uint64, endpoint=False).view(float)
    if rows:
        for x in data.draw(st.lists(st.floats(), max_size=30), label="floats"):
            table[rng.integers(rows), rng.integers(k)] = x
    names = ["c%d" % j for j in range(k)]
    columns = list(table.T)
    assert _csv_text(names, columns).encode("utf-8") == csv_rows_oracle(",".join(names),
                                                                         columns)


def test_csv_text_matches_row_oracle_on_powers_of_ten_and_random_bits():
    powers = np.array([float("1e%d" % j) for j in range(-323, 309)])
    sweep = np.concatenate([powers, np.nextafter(powers, 0.0),
                            np.nextafter(powers, np.inf)])
    bits = np.random.default_rng(2032).integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64,
                                                endpoint=False).view(float)
    for column in (sweep, -sweep, bits):
        assert _csv_text(["x"], [column]).encode("utf-8") == csv_rows_oracle("x", [column])


# doubles whose scaled value |x|*10^(16-e), e = floor(log10|x|), lies within
# 2^-44 above a half-integer, found by a modular search over the significands
NEAR_TIES = [1.0019038333442954e-05, 1.00041260572505e-20, 1.0007985218970517e-100,
             1.0021268126263753e-250, 1.006838268778708e-300, 1.0019999468942855e+100,
             1.0012940269853538e+300]


def test_near_ties_are_left_to_percent(monkeypatch):
    for x in NEAR_TIES:
        e = math.floor(math.log10(x))
        y = Fraction(x) * Fraction(10) ** (16 - e)
        assert 0 < y - math.floor(y) - Fraction(1, 2) < Fraction(1, 2 ** 44)
    column = np.array(NEAR_TIES + [-x for x in NEAR_TIES] + [0.1, -2.5e-300])
    assert _csv_text(["x"], [column]).encode("utf-8") == csv_rows_oracle("x", [column])
    # the kernel's error bound cannot decide their last digit: a marked
    # fallback format shows that '%' wrote them, and only them
    monkeypatch.setattr(cli_io, "_FMT", b"<%.17g>")
    marked = [row.startswith("<") for row in _csv_text(["x"], [column]).splitlines()[1:]]
    assert marked == [True] * (2 * len(NEAR_TIES)) + [False, False]


@pytest.mark.parametrize("way", [-np.inf, np.inf])
def test_a_log10_an_ulp_off_leaves_the_decade_to_percent(monkeypatch, way):
    # numpy's log10 is not correctly rounded on every CPU: an ulp low at a
    # power of ten (or high just below one) puts the decade one off, so the
    # digits reach 10^17 (or stay below 10^16), and '%' writes the value,
    # negative ones too
    exact = 10.0 ** np.arange(23)                  # 1 to 1e22, every one a double
    powers = np.concatenate([exact, [1e-300, 1e-5, 1e23, 1e300]])
    below = np.nextafter(powers, 0.0)
    column = np.concatenate([powers, -powers, below, -below])
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), way))
    assert _csv_text(["x"], [column]).encode("utf-8") == csv_rows_oracle("x", [column])
    if way < 0:
        monkeypatch.setattr(cli_io, "_FMT", b"<%.17g>")
        rows = _csv_text(["x"], [np.concatenate([exact, -exact])]).splitlines()[1:]
        assert all(row.startswith("<") for row in rows)


def test_write_profile_matches_row_oracle(tmp_path, shock_profile):
    path = tmp_path / "profile.csv"
    write_profile(shock_profile, path)
    assert path.read_bytes() == csv_rows_oracle(
        "xi,u,du", (shock_profile.xi, shock_profile.u, shock_profile.du))


def test_profile_round_trip_is_bitwise(tmp_path, shock_profile):
    path = tmp_path / "profile.csv"
    write_profile(shock_profile, path)
    back = read_profile(path)
    assert np.array_equal(back.xi, shock_profile.xi)
    assert np.array_equal(back.u, shock_profile.u)
    assert np.array_equal(back.du, shock_profile.du)


def test_profile_round_trip_awkward_values(tmp_path):
    xi = np.array([-1e300, 0.0, 1e-300, 0.1 + 0.2])
    prof = wf.Profile(xi, np.array([1e-17, -0.0, 3.0, np.pi]), np.zeros(4))
    path = tmp_path / "p.csv"
    write_profile(prof, path)
    back = read_profile(path)
    assert np.array_equal(back.xi, prof.xi)
    assert np.array_equal(back.u, prof.u)


def test_read_profile_error_positions(tmp_path):
    cases = [
        ("nope\n0,1,2\n", ":1:"),
        ("xi,u,du\n0,1,2\n1,2\n", ":3:"),
        ("xi,u,du\n0,1,2\n\n1,2\n", ":4:"),     # a blank line is skipped, still counted
        ("xi,u,du\n0,abc,2\n", ":2:"),
        ("xi,u,du\n0,1,2\n0,1,2\n", ":3:"),
        ("xi,u,du\n", ":2:"),
        ("xi,u,du\n0,0,0\nnan,0,0\n1,0,0\n", ":3:"),
        ("xi,u,du\ninf,0,0\n", ":2:"),
        ("xi,u,du\n0,0,0\n-inf,0,0\n", ":3:"),
    ]
    for text, where in cases:
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ProfileFormatError, match=where):
            read_profile(path)


# ---------------------------------------------------------------------------
# plot data and SVG

def test_emit_plotdata_columns(tmp_path, shock_profile, shock_problem):
    coarse, _ = wf.solve_profile(shock_problem, wf.SolveOptions(nodes_per_layer=60))
    exact = wf.solve_exact(shock_problem.flux, 1.0, -1.0)
    out = tmp_path / "plot.csv"
    emit_plotdata([coarse, shock_profile], exact, out, ["a", "b"])
    lines = out.read_text().splitlines()
    assert lines[0] == "xi,a,b,exact"
    # grid is the finest profile's mesh
    assert len(lines) - 1 == len(shock_profile.xi)


def test_emit_plotdata_matches_row_oracle(tmp_path, shock_profile, shock_problem):
    coarse, _ = wf.solve_profile(shock_problem, wf.SolveOptions(nodes_per_layer=60))
    exact = wf.solve_exact(shock_problem.flux, 1.0, -1.0)
    grid = shock_profile.xi
    out = tmp_path / "plot.csv"
    emit_plotdata([coarse, shock_profile], exact, out, ["a", "b"])
    assert out.read_bytes() == csv_rows_oracle(
        "xi,a,b,exact", (grid, np.interp(grid, coarse.xi, coarse.u), shock_profile.u,
                         wf.eval_riemann(exact, grid)))


def test_emit_plotdata_label_mismatch(tmp_path, shock_profile):
    exact = wf.solve_exact(wf.burgers_flux(), 1.0, -1.0)
    with pytest.raises(ConfigError):
        emit_plotdata([shock_profile], exact, tmp_path / "x.csv", ["a", "b"])


def test_svg_has_one_polyline_per_column(tmp_path, shock_profile):
    exact = wf.solve_exact(wf.burgers_flux(), 1.0, -1.0)
    svg = tmp_path / "plot.svg"
    emit_plotdata([shock_profile], exact, tmp_path / "plot.csv", ["u"], svg_path=svg)
    text = svg.read_text()
    assert text.count("<polyline") == 2
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")


def svg_points_oracle(grid, columns, width=640, height=420, pad=56):
    """Oracle: each column's polyline points, one point at a time, scaled by
    scalar arithmetic on Python floats."""
    x0, x1, y0, y1 = pad, width - pad, height - pad, pad
    gx_lo, gx_hi = float(grid[0]), float(grid[-1])
    values = np.concatenate(columns)
    gy_lo, gy_hi = float(np.min(values)), float(np.max(values))
    if gx_hi == gx_lo:
        gx_hi = gx_lo + 1.0
    if gy_hi == gy_lo:
        gy_hi = gy_lo + 1.0
    span_y = gy_hi - gy_lo
    gy_lo -= 0.05 * span_y
    gy_hi += 0.05 * span_y
    out = []
    for col in columns:
        pts = []
        for gx, gy in zip(grid, col):
            px = x0 + (float(gx) - gx_lo) / (gx_hi - gx_lo) * (x1 - x0)
            py = y0 - (float(gy) - gy_lo) / (gy_hi - gy_lo) * (y0 - y1)
            pts.append("%.2f,%.2f" % (px, py))
        out.append(" ".join(pts))
    return out


def svg_polylines(text):
    return re.findall(r'<polyline [^>]*points="([^"]*)"/>', text)


def test_svg_polylines_match_point_oracle(tmp_path, shock_profile, shock_problem):
    coarse, _ = wf.solve_profile(shock_problem, wf.SolveOptions(nodes_per_layer=60))
    exact = wf.solve_exact(shock_problem.flux, 1.0, -1.0)
    svg = tmp_path / "plot.svg"
    emit_plotdata([coarse, shock_profile], exact, tmp_path / "plot.csv", ["a", "b"],
                  svg_path=svg)
    grid = shock_profile.xi
    columns = [np.interp(grid, coarse.xi, coarse.u), shock_profile.u,
               wf.eval_riemann(exact, grid)]
    assert svg_polylines(svg.read_text()) == svg_points_oracle(grid, columns)


@pytest.mark.parametrize("grid, columns", [
    (np.linspace(-3.0, 7.0, 1001), [np.sin(np.linspace(-3.0, 7.0, 1001)) / 3.0]),
    (np.array([-1.0, -1e-17, 0.0, 1e-300, 0.1 + 0.2, 2.0]),
     [np.array([5e-324, -0.0, 1e16, 1e-5, -1e-4, 1.0 / 3.0]), np.full(6, 0.5)]),
    (np.array([2.0, 2.0]), [np.full(2, -7.0), np.full(2, -7.0)]),   # degenerate ranges
])
def test_render_svg_matches_point_oracle(grid, columns):
    text = _render_svg(grid, [("c%d" % k, col) for k, col in enumerate(columns)])
    assert svg_polylines(text) == svg_points_oracle(grid, columns)
    assert text.startswith("<svg ") and text.endswith("</svg>\n")


# ---------------------------------------------------------------------------
# the executable

def test_main_solve_writes_profile_and_report(tmp_path, capsys):
    out = tmp_path / "prof.csv"
    report = tmp_path / "report.json"
    code = main(["solve", "--ul", "1", "--ur", "-1", "--eps", "0.05",
                 "--out", str(out), "--report", str(report)])
    assert code == 0
    assert "converged=True" in capsys.readouterr().out
    prof = read_profile(out)
    assert np.all(np.diff(prof.u) <= 0)
    payload = json.loads(report.read_text())
    assert set(payload) == {"converged", "iterations", "residual_history",
                            "domain", "mesh_size", "floor_limited", "stages"}
    assert payload["converged"] is True
    assert payload["mesh_size"] == len(prof.xi)


def test_main_is_deterministic(tmp_path):
    args = ["solve", "--ul", "1", "--ur", "-1", "--eps", "0.05"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_main_corner_csv(tmp_path, capsys):
    out = tmp_path / "corner.csv"
    assert main(["corner", "--xi-min", "-5", "--xi-max", "4",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "xi,U,p,w,H"
    assert len(lines) >= 2002
    capsys.readouterr()
    # stdout mode: dump the same CSV to the terminal
    assert main(["corner", "--xi-min", "-5", "--xi-max", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "xi,U,p,w,H"


def test_main_corner_and_riemann_csv_match_row_oracle(tmp_path):
    out = tmp_path / "corner.csv"
    assert main(["corner", "--xi-min", "-5", "--xi-max", "4", "--samples", "300",
                 "--out", str(out)]) == 0
    corner = wf.solve_corner(xi_min=-5.0, xi_max=4.0, n_points=300)
    h_vals = wf.first_integral_H(corner.w, corner.p, 1.0)
    assert out.read_bytes() == csv_rows_oracle(
        "xi,U,p,w,H", (corner.xi, corner.u, corner.p, corner.w, h_vals))

    out = tmp_path / "exact.csv"
    assert main(["riemann", "--flux", "poly:0,0,0,1", "--ul", "-1", "--ur", "1",
                 "--samples", "77", "--out", str(out)]) == 0
    exact = wf.solve_exact(wf.polynomial_flux((0.0, 0.0, 0.0, 1.0)), -1.0, 1.0)
    lo, hi = wf.wave_speed_span(exact)
    grid = np.linspace(lo - 1.0, hi + 1.0, 77)
    assert out.read_bytes() == csv_rows_oracle("xi,u",
                                               (grid, wf.eval_riemann(exact, grid)))


@pytest.mark.parametrize("argv", [["--xi-min", "-2"], ["--xi-min", "5"], ["--xi-min", "-31"],
                                  ["--xi-max", "40"], ["--xi-max", "0"], ["--xi-min", "nan"]])
def test_main_corner_out_of_range_is_a_rejected_invocation(argv, capsys):
    # the ranges are solve_corner's; the CLI reports them with exit code 2
    assert main(["corner"] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: argument --xi-m") and "must lie in" in err and argv[1] in err


def test_main_riemann_describes_waves(tmp_path, capsys):
    out = tmp_path / "exact.csv"
    assert main(["riemann", "--ul", "1", "--ur", "-1", "--out", str(out)]) == 0
    text = capsys.readouterr().out.lower()
    assert "shock" in text
    lines = out.read_text().splitlines()
    assert lines[0] == "xi,u"
    assert len(lines) == 402


def test_main_verify_json_and_exit(tmp_path, capsys):
    out = tmp_path / "checks.json"
    code = main(["verify", "--ul", "1", "--ur", "-1", "--eps", "0.05",
                 "--out", str(out)])
    assert code == 0
    checks = json.loads(out.read_text())
    assert "monotone" in checks and "sweeping_margin" in checks
    counts = {"uniqueness_probe": {"n_converged", "n_out_of_class", "n_failed"},
              "sweeping_margin": {"undecided"}}
    assert all(set(v) == {"value", "threshold", "pass"} | counts.get(k, set())
               for k, v in checks.items())
    capsys.readouterr()
    # filtering to one known check
    assert main(["verify", "--ul", "1", "--ur", "-1", "--eps", "0.05",
                 "--check", "monotone"]) == 0
    only = json.loads(capsys.readouterr().out)
    assert list(only) == ["monotone"]


@pytest.mark.parametrize("eps", ["0.05", "0.01", "0.005"])
def test_main_verify_cubic_rarefaction_gives_verdicts(eps, tmp_path, capsys):
    # the exit code follows the verdicts
    out = tmp_path / "checks.json"
    code = main(["verify", "--flux", "poly:0,0,0,1", "--ul", "-1", "--ur", "1",
                 "--eps", eps, "--out", str(out)])
    err = capsys.readouterr().err
    assert "error:" not in err
    checks = json.loads(out.read_text())
    assert "sliding_margin" in checks and "barrier_margin" not in checks
    failed = sorted(name for name, entry in checks.items() if not entry["pass"])
    assert code == (1 if failed else 0)
    assert all("FAIL %s:" % name in err for name in failed)


def test_main_verify_says_why_the_probe_failed(tmp_path, capsys):
    out = tmp_path / "checks.json"
    code = main(["verify", "--flux", "poly:0,0,0,1", "--ul", "-1", "--ur", "1",
                 "--eps", "0.005", "--out", str(out)])
    assert code == 1
    entry = json.loads(out.read_text())["uniqueness_probe"]
    assert entry == {"value": float("inf"), "threshold": 1e-6, "pass": False,
                     "n_converged": 1, "n_out_of_class": 1, "n_failed": 4}
    assert ("FAIL uniqueness_probe: value=inf threshold=1.000000e-06 "
            "n_converged=1 n_out_of_class=1 n_failed=4\n") in capsys.readouterr().err


def test_main_verify_says_how_many_margin_nodes_were_undecided(tmp_path, capsys):
    # the Burgers shock 0 -> -1 at 0.01 fails its sweeping margin by
    # -2.97e-30, a value far below its roundoff on 228 nodes
    out = tmp_path / "checks.json"
    code = main(["verify", "--ul", "0", "--ur", "-1", "--eps", "0.01", "--out", str(out)])
    assert code == 1
    entry = json.loads(out.read_text())["sweeping_margin"]
    assert not entry["pass"] and entry["undecided"] > 0
    assert ("FAIL sweeping_margin: value=%.6e threshold=0.000000e+00 undecided=%d\n"
            % (entry["value"], entry["undecided"])) in capsys.readouterr().err


def test_main_verify_unknown_check(monkeypatch, capsys):
    # the parser rejects the name before any solve
    def no_battery(*args, **kwargs):
        raise AssertionError("run_battery called for an unknown check")

    monkeypatch.setattr(cli_io, "run_battery", no_battery)
    code = main(["verify", "--ul", "1", "--ur", "-1", "--eps", "0.05",
                 "--check", "bogus"])
    assert code == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "monotone" in err
    assert err.startswith("error: argument --check: invalid choice: 'bogus'")
    assert err.count("\n") == 1


def test_main_verify_rejects_the_removed_barrier_check(monkeypatch, capsys):
    # barrier_margin is no longer a battery name: the parser rejects it
    # before any solve, as any unknown name
    def no_battery(*args, **kwargs):
        raise AssertionError("run_battery called for a removed check")

    monkeypatch.setattr(cli_io, "run_battery", no_battery)
    code = main(["verify", "--ul", "-1", "--ur", "1", "--eps", "0.05",
                 "--check", "barrier_margin"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: argument --check: invalid choice: 'barrier_margin'")


def test_main_verify_inapplicable_check_is_named_after_the_run(capsys):
    # symmetry is a known check that a shock does not produce
    code = main(["verify", "--ul", "1", "--ur", "-1", "--eps", "0.05",
                 "--check", "symmetry"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: check 'symmetry' does not apply to this run; it has: ")
    assert "sweeping_margin" in err


def test_verify_help_names_the_check_value_as_before(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    out = capsys.readouterr().out
    assert "--check CHECK" in out and "{" not in out


def test_main_sweep_outputs(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    svg = tmp_path / "sweep.svg"
    code = main(["sweep", "--ul", "1", "--ur", "-1", "--eps", "0.1,0.05",
                 "--out", str(out), "--svg", str(svg)])
    assert code == 0
    assert "eps=0.1" in capsys.readouterr().out
    header = out.read_text().splitlines()[0]
    assert header == "xi,eps=0.1,eps=0.05,exact"
    assert svg.read_text().count("<polyline") == 3


def test_main_sweep_writes_the_svg_without_a_csv(tmp_path, monkeypatch):
    # --svg alone draws the chart, one polyline per eps plus `exact`, and
    # writes no CSV anywhere
    monkeypatch.chdir(tmp_path)
    code = main(["sweep", "--ul", "-1", "--ur", "1", "--eps", "0.1,0.05", "--svg", "only.svg"])
    assert code == 0
    assert [p.name for p in tmp_path.iterdir()] == ["only.svg"]
    assert (tmp_path / "only.svg").read_text().count("<polyline") == 3


@pytest.mark.parametrize("token, ul, ur, schedule", [
    ("burgers", 1.0, -1.0, [0.05]),
    ("poly:0,0,0,1", -1.0, 1.0, [0.1, 0.002]),
    ("poly:0,0,-1,0,1", 1.0, -1.0, [0.05, 0.005]),
])
def test_sweep_columns_are_direct_solves(token, ul, ur, schedule, tmp_path):
    # each viscosity is solved as `solve` solves it, whatever the others are
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--flux", token, "--ul", repr(ul), "--ur", repr(ur),
                 "--eps", ",".join(map(repr, schedule)), "--out", str(out)]) == 0
    flux = wf.parse_flux_token(token)
    direct = [wf.solve_profile(wf.ProfileProblem(flux, ul, ur, eps))[0] for eps in schedule]
    grid = max((p.xi for p in direct), key=len)
    assert out.read_bytes() == csv_rows_oracle(
        ",".join(["xi"] + ["eps=%g" % eps for eps in schedule] + ["exact"]),
        [grid] + [np.interp(grid, p.xi, p.u) for p in direct]
        + [wf.eval_riemann(wf.solve_exact(flux, ul, ur), grid)])


def test_main_solve_underflowing_spacing_exits_one(capsys):
    # c*eps/S underflows to 0: a CoverageError, reported on one line
    assert main(["solve", "--ul", "1", "--ur", "-1", "--eps", "5e-324"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: mesh exceeds") and err.count("\n") == 1


def test_main_solve_over_the_node_cap_names_the_viscosity(capsys):
    # at eps 1e7 the density asks for 733,503 nodes
    assert main(["solve", "--ul", "1", "--ur", "-1", "--eps", "1e7"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: mesh exceeds") and err.count("\n") == 1
    assert "viscosity eps = 1e+07" in err


def test_main_bad_invocation_exits_two(capsys):
    assert main(["solve", "--ul", "1"]) == 2
    assert main(["nonsense"]) == 2
    assert "error:" in capsys.readouterr().err


def test_main_unwritable_output_exits_two(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "out.csv"
    code = main(["solve", "--ul", "1", "--ur", "-1", "--eps", "0.05",
                 "--out", str(missing)])
    assert code == 2


def test_main_output_path_is_directory(tmp_path, capsys):
    code = main(["riemann", "--ul", "1", "--ur", "-1", "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_import_leaves_the_ode_and_spline_modules_unloaded(tmp_path):
    # the corner is a quadrature and the checks interpolate by hand, so no
    # command needs scipy's ODE, spline or special-function modules; and the
    # banded solve loads scipy's LAPACK extension alone, so neither scipy's
    # package nor scipy.linalg is imported
    out_csv = tmp_path / "shock.csv"
    code = ("import sys, wavefan as wf\n"
            "from wavefan import cli_io\n"
            "heavy = ('scipy', 'scipy.linalg', 'scipy.integrate', 'scipy.interpolate', "
            "'scipy.special')\n"
            "loaded = lambda: sorted(m for m in heavy if m in sys.modules)\n"
            "print(loaded())\n"
            "wf.solve_corner()\n"
            "checks, _ = wf.run_battery(wf.ProfileProblem(wf.burgers_flux(), -1.0, 1.0, 0.05))\n"
            "print('corner_remainder' in checks, loaded())\n"
            "args = ['solve', '--ul', '1', '--ur', '-1', '--eps', '0.05', '--out', %r]\n"
            "print(cli_io.main(args), loaded())" % str(out_csv))
    src = os.path.dirname(os.path.dirname(wf.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    lines = out.splitlines()      # the solve's summary line comes before the last
    assert lines[:2] + lines[-1:] == ["[]", "True []", "0 []"]
