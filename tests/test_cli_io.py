"""Command-line parsing, file formats, plot export, and exit codes."""

import json

import numpy as np
import pytest

import wavefan as wf
from wavefan.cli_io import (
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
], ids=["tol-inf", "tol-nan", "tail-tol-nan", "tail-tol-one", "riemann-state-nan",
        "corner-one-sample"])
def test_out_of_range_values_rejected_at_parse_time(argv, capsys):
    with pytest.raises(ConfigError):
        parse_config(argv)
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_takes_single_viscosity():
    with pytest.raises(ConfigError, match="single"):
        parse_config(["verify", "--ul", "1", "--ur", "-1", "--eps", "0.1,0.05"])


def test_seed_from_environment(monkeypatch):
    monkeypatch.setenv("WAVEFAN_SEED", "12345")
    cfg = parse_config(["verify", "--ul", "1", "--ur", "-1", "--eps", "0.05"])
    assert cfg.seed == 12345
    # explicit flag wins over the environment
    cfg = parse_config(["verify", "--ul", "1", "--ur", "-1", "--eps", "0.05",
                        "--seed", "99"])
    assert cfg.seed == 99
    monkeypatch.setenv("WAVEFAN_SEED", "not-a-number")
    with pytest.raises(ConfigError, match="WAVEFAN_SEED"):
        parse_config(["verify", "--ul", "1", "--ur", "-1", "--eps", "0.05"])


# ---------------------------------------------------------------------------
# config files

def test_config_file_merges_with_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# sweep setup\nul=-1\nur=1\n\neps=0.1,0.05\n")
    cfg = parse_config(["solve", "--config", str(cfg_file), "--eps", "0.05"])
    assert cfg.u_left == -1.0 and cfg.u_right == 1.0
    assert cfg.eps == (0.05,)  # explicit flag beats the file


def test_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(["solve", "--config", str(tmp_path / "absent.cfg")])
    bad = tmp_path / "bad.cfg"
    bad.write_text("ul=-1\njust some words\n")
    with pytest.raises(ConfigError, match=":2"):
        parse_config(["solve", "--config", str(bad)])
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("wibble=3\nul=0\nur=1\n")
    with pytest.raises(ConfigError):
        parse_config(["solve", "--config", str(unknown)])


# ---------------------------------------------------------------------------
# profile round trip

def csv_rows_oracle(header, columns):
    """Oracle: the CSV text built row by row, one formatted field at a time."""
    rows = [header]
    for i in range(len(columns[0])):
        rows.append(",".join("%.17g" % col[i] for col in columns))
    return ("\n".join(rows) + "\n").encode("utf-8")


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
        ("xi,u,du\n0,abc,2\n", ":2:"),
        ("xi,u,du\n0,1,2\n0,1,2\n", ":3:"),
        ("xi,u,du\n", ":2:"),
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
    emit_plotdata([coarse, shock_profile], exact, out, labels=["a", "b"])
    lines = out.read_text().splitlines()
    assert lines[0] == "xi,a,b,exact"
    # grid is the finest profile's mesh
    assert len(lines) - 1 == len(shock_profile.xi)


def test_emit_plotdata_matches_row_oracle(tmp_path, shock_profile, shock_problem):
    coarse, _ = wf.solve_profile(shock_problem, wf.SolveOptions(nodes_per_layer=60))
    exact = wf.solve_exact(shock_problem.flux, 1.0, -1.0)
    grid = shock_profile.xi
    lo, hi = wf.wave_speed_span(exact)
    ref_grid = np.linspace(lo - 1.0, hi + 1.0, 401)
    cases = [
        ([coarse, shock_profile], exact, "xi,a,b,exact",
         (grid, np.interp(grid, coarse.xi, coarse.u), shock_profile.u,
          wf.eval_riemann(exact, grid))),
        ([], exact, "xi,exact", (ref_grid, wf.eval_riemann(exact, ref_grid))),
        ([], None, "xi", (np.empty(0),)),
    ]
    for profiles, reference, header, columns in cases:
        out = tmp_path / "plot.csv"
        labels = ["a", "b"] if profiles else None
        emit_plotdata(profiles, reference, out, labels=labels)
        assert out.read_bytes() == csv_rows_oracle(header, columns)


def test_emit_plotdata_reference_only(tmp_path):
    exact = wf.solve_exact(wf.burgers_flux(), -1.0, 1.0)
    out = tmp_path / "ref.csv"
    emit_plotdata([], exact, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "xi,exact"
    assert len(lines) == 402


def test_emit_plotdata_empty(tmp_path):
    out = tmp_path / "empty.csv"
    emit_plotdata([], None, out)
    assert out.read_text() == "xi\n"


def test_emit_plotdata_label_mismatch(tmp_path, shock_profile):
    with pytest.raises(ConfigError):
        emit_plotdata([shock_profile], None, tmp_path / "x.csv", labels=["a", "b"])


def test_svg_has_one_polyline_per_column(tmp_path, shock_profile):
    exact = wf.solve_exact(wf.burgers_flux(), 1.0, -1.0)
    svg = tmp_path / "plot.svg"
    emit_plotdata([shock_profile], exact, tmp_path / "plot.csv",
                  labels=["u"], svg_path=svg)
    text = svg.read_text()
    assert text.count("<polyline") == 2
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")


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
    h_vals = wf.first_integral_H(corner, 1.0)
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


def test_main_corner_invalid_range_is_runtime_error(capsys):
    assert main(["corner", "--xi-min", "-2"]) == 1
    assert "error:" in capsys.readouterr().err


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
    assert all({"value", "threshold", "pass"} == set(v) for v in checks.values())
    capsys.readouterr()
    # filtering to one known check
    assert main(["verify", "--ul", "1", "--ur", "-1", "--eps", "0.05",
                 "--check", "monotone"]) == 0
    only = json.loads(capsys.readouterr().out)
    assert list(only) == ["monotone"]


@pytest.mark.parametrize("eps", ["0.05", "0.01", "0.005"])
def test_main_verify_cubic_rarefaction_gives_verdicts(eps, tmp_path, capsys):
    # M is 70 to 612 here, far past the mesh; the exit code follows the verdicts
    out = tmp_path / "checks.json"
    code = main(["verify", "--flux", "poly:0,0,0,1", "--ul", "-1", "--ur", "1",
                 "--eps", eps, "--out", str(out)])
    err = capsys.readouterr().err
    assert "error:" not in err
    checks = json.loads(out.read_text())
    assert checks["barrier_margin"]["pass"]
    failed = sorted(name for name, entry in checks.items() if not entry["pass"])
    assert code == (1 if failed else 0)
    assert all("FAIL %s:" % name in err for name in failed)


def test_main_verify_unknown_check(capsys):
    code = main(["verify", "--ul", "1", "--ur", "-1", "--eps", "0.05",
                 "--check", "bogus"])
    assert code == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "monotone" in err


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
