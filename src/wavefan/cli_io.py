"""Command-line front end: config parsing, run orchestration, file formats.

Five subcommands map onto the library entry points: ``solve`` (viscous
profile), ``corner`` (the unbounded similarity profile), ``riemann`` (exact
wave structure), ``verify`` (check battery), ``sweep`` (profiles across a
decreasing viscosity schedule).  Everything numeric is written as
17-significant-digit decimal text so files diff cleanly and parse back to the
exact same doubles.

A config file is flat ``key=value`` text mirroring the long flags; values
given on the command line win.  Runs are deterministic: the same RunConfig
(including the probe seed, which ``WAVEFAN_SEED`` may set) produces
byte-identical output files.

Exit codes: 0 success, 1 a check or solve failed, 2 the invocation itself
was rejected.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from dataclasses import dataclass

from .corner_layer import first_integral_H, solve_corner
from .errors import (ConfigError, InvalidParameterError, ProfileFormatError,
                     WavefanError)
from .flux import FluxSpec, burgers_flux, format_flux_token, parse_flux_token
from .profile_bvp import (
    Profile,
    ProfileProblem,
    SolveOptions,
    _decreasing_schedule,
    continuation_sweep,
    solve_profile,
)
from .riemann import describe_waves, eval_riemann, solve_exact, wave_speed_span
from .verification import DEFAULT_PROBE_SEED, run_battery

_FMT = "%.17g"  # shortest text that round-trips any double

_SVG_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
                "#8c564b", "#17becf", "#7f7f7f")


@dataclass(frozen=True)
class RunConfig:
    """A fully validated invocation; one instance describes one run."""

    command: str
    flux: FluxSpec
    u_left: float = 0.0
    u_right: float = 0.0
    eps: tuple[float, ...] = (0.05,)
    newton_tol: float = 1e-11
    tail_tol: float = 1e-5
    xi_min: float = -8.0
    xi_max: float = 10.0
    samples: int = 401
    seed: int = DEFAULT_PROBE_SEED
    check: str | None = None
    out: str | None = None
    report: str | None = None
    svg: str | None = None


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so main() owns the exit code."""

    def error(self, message):
        raise ConfigError(message)


def _flux_arg(token):
    try:
        return parse_flux_token(token)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _schedule_arg(text):
    try:
        return _decreasing_schedule(float(part) for part in text.split(","))
    except InvalidParameterError as exc:
        raise argparse.ArgumentTypeError("%s, got %r" % (exc, text)) from None
    except ValueError as exc:  # float() on a malformed part
        raise argparse.ArgumentTypeError("%s in schedule %r" % (exc, text)) from None


def _writable_path(path):
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(
            "output directory does not exist for %r" % (path,))
    if not os.access(parent, os.W_OK):
        raise argparse.ArgumentTypeError("output path not writable: %r" % (path,))
    return path


def _default_seed():
    raw = os.environ.get("WAVEFAN_SEED")
    if raw is None:
        return DEFAULT_PROBE_SEED
    try:
        return int(raw)
    except ValueError:
        raise ConfigError("WAVEFAN_SEED must be an integer, got %r" % (raw,)) from None


def _expand_config_file(argv):
    """Replace ``--config FILE`` with the file's key=value pairs as flags.

    The expansion is inserted where --config stood and the explicit command
    line follows it, so later (explicit) flags override file values.
    """
    argv = list(argv)
    for i, token in enumerate(argv):
        if token == "--config":
            if i + 1 >= len(argv):
                raise ConfigError("--config needs a file path")
            path, rest = argv[i + 1], argv[i + 2:]
            break
        if token.startswith("--config="):
            path, rest = token.split("=", 1)[1], argv[i + 1:]
            break
    else:
        return argv
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError("cannot read config file %r: %s" % (path, exc)) from None
    flags = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(
                "%s:%d: expected key=value, got %r" % (path, lineno, line))
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError("%s:%d: empty key" % (path, lineno))
        flags.extend(["--" + key, value])
    return argv[:i] + flags + rest


def _build_parser():
    parser = _Parser(prog="wavefan",
                     description="Viscous wave-fan profiles for scalar "
                                 "conservation laws: solve, check, export.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, eps_default="0.05"):
        p.add_argument("--flux", type=_flux_arg, default=burgers_flux(),
                       help="burgers or poly:c0,c1,...,cn (default burgers)")
        p.add_argument("--ul", type=float, required=True, help="left state")
        p.add_argument("--ur", type=float, required=True, help="right state")
        p.add_argument("--eps", type=_schedule_arg, default=_schedule_arg(eps_default),
                       help="viscosity, or comma-separated decreasing schedule")
        p.add_argument("--tol", type=float, default=1e-11,
                       help="Newton residual tolerance")
        p.add_argument("--tail-tol", type=float, default=1e-5,
                       help="committed boundary truncation error")

    p_solve = sub.add_parser("solve", help="solve one viscous profile")
    common(p_solve)
    p_solve.add_argument("--out", type=_writable_path, default=None,
                         help="profile CSV (xi,u,du)")
    p_solve.add_argument("--report", type=_writable_path, default=None,
                         help="solve report JSON")

    p_corner = sub.add_parser("corner", help="integrate the corner profile")
    p_corner.add_argument("--xi-min", type=float, default=-8.0)
    p_corner.add_argument("--xi-max", type=float, default=10.0)
    p_corner.add_argument("--samples", type=int, default=2001,
                          help="minimum number of output nodes")
    p_corner.add_argument("--out", type=_writable_path, default=None,
                          help="CSV (xi,U,p,w,H); stdout when omitted")

    p_riemann = sub.add_parser("riemann", help="exact entropy solution")
    p_riemann.add_argument("--flux", type=_flux_arg, default=burgers_flux())
    p_riemann.add_argument("--ul", type=float, required=True)
    p_riemann.add_argument("--ur", type=float, required=True)
    p_riemann.add_argument("--samples", type=int, default=401)
    p_riemann.add_argument("--out", type=_writable_path, default=None,
                           help="sampled (xi,u) CSV")

    p_verify = sub.add_parser("verify", help="run the check battery")
    common(p_verify)
    p_verify.add_argument("--check", default=None,
                          help="single check name (default: every applicable check)")
    p_verify.add_argument("--seed", type=int, default=None,
                          help="probe seed (default WAVEFAN_SEED or builtin)")
    p_verify.add_argument("--out", type=_writable_path, default=None,
                          help="JSON report; stdout when omitted")

    p_sweep = sub.add_parser("sweep", help="profiles across a viscosity schedule")
    common(p_sweep, eps_default="0.1,0.05,0.025")
    p_sweep.add_argument("--out", type=_writable_path, default=None,
                         help="multi-column plot CSV (xi, one column per eps, exact)")
    p_sweep.add_argument("--svg", type=_writable_path, default=None,
                         help="line chart rendered directly to SVG")
    return parser


def parse_config(argv) -> RunConfig:
    """Parse a command line (plus optional ``--config`` file) into a RunConfig.

    Raises ConfigError with the offending token for anything malformed.
    """
    argv = _expand_config_file(argv)
    ns = _build_parser().parse_args(argv)
    kwargs = {"command": ns.command, "flux": getattr(ns, "flux", burgers_flux())}
    if ns.command in ("solve", "verify", "sweep", "riemann"):
        kwargs.update(u_left=ns.ul, u_right=ns.ur)
        if not np.isfinite(ns.ul) or not np.isfinite(ns.ur):
            raise ConfigError("states must be finite, got --ul %r --ur %r"
                              % (ns.ul, ns.ur))
    if ns.command in ("solve", "verify", "sweep"):
        kwargs.update(eps=ns.eps, newton_tol=ns.tol, tail_tol=ns.tail_tol)
        if not (np.isfinite(ns.tol) and ns.tol > 0.0):
            raise ConfigError("--tol must be finite and positive, got %r" % (ns.tol,))
        if not 0.0 < ns.tail_tol < 1.0:
            raise ConfigError("--tail-tol must lie in (0, 1), got %r" % (ns.tail_tol,))
    if ns.command in ("riemann", "corner"):
        kwargs["samples"] = ns.samples
        if ns.samples < 2:
            raise ConfigError("--samples must be at least 2, got %r" % (ns.samples,))
    if ns.command == "corner":
        kwargs.update(xi_min=ns.xi_min, xi_max=ns.xi_max)
    if ns.command == "verify":
        seed = ns.seed if ns.seed is not None else _default_seed()
        kwargs.update(check=ns.check, seed=seed)
        if len(ns.eps) != 1:
            raise ConfigError("verify takes a single --eps, got schedule %r"
                              % (",".join(_FMT % e for e in ns.eps),))
    for field in ("out", "report", "svg"):
        kwargs[field] = getattr(ns, field, None)
    return RunConfig(**kwargs)


# ---------------------------------------------------------------------------
# text output

def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _csv_text(names, columns) -> str:
    """CSV with a header of `names` and one row per index of the equal-length
    `columns`, every number at full double precision."""
    rows = [",".join(names)]
    rows.extend(",".join(_FMT % v for v in row) for row in zip(*columns))
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# profile persistence

def write_profile(profile: Profile, path) -> None:
    """Write a profile as ``xi,u,du`` CSV at full double precision."""
    _write_text(path, _csv_text(("xi", "u", "du"), (profile.xi, profile.u, profile.du)))


def read_profile(path) -> Profile:
    """Read a ``xi,u,du`` CSV back; inverse of write_profile to the last bit."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0].strip() != "xi,u,du":
        raise ProfileFormatError("%s:1: expected header 'xi,u,du'" % (path,))
    xi, u, du = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise ProfileFormatError("%s:%d: expected 3 fields, got %d"
                                     % (path, lineno, len(fields)))
        try:
            x, uu, dd = (float(f) for f in fields)
        except ValueError:
            raise ProfileFormatError("%s:%d: non-numeric field in %r"
                                     % (path, lineno, line)) from None
        if xi and x <= xi[-1]:
            raise ProfileFormatError("%s:%d: xi not strictly increasing"
                                     % (path, lineno))
        xi.append(x)
        u.append(uu)
        du.append(dd)
    if not xi:
        raise ProfileFormatError("%s:2: no data rows" % (path,))
    return Profile(xi=np.asarray(xi), u=np.asarray(u), du=np.asarray(du))


# ---------------------------------------------------------------------------
# plot data

def emit_plotdata(profiles, reference, path, labels=None, svg_path=None) -> None:
    """Write a multi-column CSV (xi plus one u column per profile/reference).

    ``profiles`` is a sequence of Profile; ``reference`` an optional exact
    solution evaluated on the same grid.  The grid is the finest profile's
    mesh.  With ``svg_path`` the same columns are also rendered as a line
    chart (one polyline per column) with axes and a legend — plain SVG text,
    no plotting package.
    """
    profiles = list(profiles)
    if labels is None:
        labels = ["u%d" % (i + 1) for i in range(len(profiles))]
    if len(labels) != len(profiles):
        raise ConfigError("got %d labels for %d profiles"
                          % (len(labels), len(profiles)))
    columns = []
    if profiles:
        grid = max((p.xi for p in profiles), key=len)
        for label, prof in zip(labels, profiles):
            columns.append((label, np.interp(grid, prof.xi, prof.u)))
    elif reference is not None:
        lo, hi = wave_speed_span(reference)
        grid = np.linspace(lo - 1.0, hi + 1.0, 401)
    else:
        grid = np.empty(0)
    if reference is not None:
        columns.append(("exact", eval_riemann(reference, grid)))

    _write_text(path, _csv_text(["xi"] + [name for name, _ in columns],
                                [grid] + [col for _, col in columns]))
    if svg_path is not None:
        _write_text(svg_path, _render_svg(grid, columns))


def _render_svg(grid, columns, width=640, height=420, pad=56):
    """Hand-rolled SVG line chart: axes, one polyline per column, legend."""
    body = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
            'viewBox="0 0 %d %d" font-family="monospace" font-size="12">'
            % (width, height, width, height),
            '<rect width="%d" height="%d" fill="white"/>' % (width, height)]
    x0, x1 = pad, width - pad
    y0, y1 = height - pad, pad
    if len(grid) and columns:
        gx_lo, gx_hi = float(grid[0]), float(grid[-1])
        values = np.concatenate([col for _, col in columns])
        gy_lo, gy_hi = float(np.min(values)), float(np.max(values))
        if gx_hi == gx_lo:
            gx_hi = gx_lo + 1.0
        if gy_hi == gy_lo:
            gy_hi = gy_lo + 1.0
        span_y = gy_hi - gy_lo
        gy_lo -= 0.05 * span_y
        gy_hi += 0.05 * span_y

        def sx(x):
            return x0 + (x - gx_lo) / (gx_hi - gx_lo) * (x1 - x0)

        def sy(y):
            return y0 - (y - gy_lo) / (gy_hi - gy_lo) * (y0 - y1)

        for k, (name, col) in enumerate(columns):
            pts = " ".join("%.2f,%.2f" % (sx(float(gx)), sy(float(gy)))
                           for gx, gy in zip(grid, col))
            color = _SVG_PALETTE[k % len(_SVG_PALETTE)]
            body.append('<polyline fill="none" stroke="%s" stroke-width="1.5" '
                        'points="%s"/>' % (color, pts))
            ly = y1 + 16 * k
            body.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" '
                        'stroke-width="3"/>' % (x1 - 110, ly, x1 - 86, ly, color))
            body.append('<text x="%d" y="%d">%s</text>' % (x1 - 80, ly + 4, name))
        for frac in (0.0, 0.5, 1.0):
            gx = gx_lo + frac * (gx_hi - gx_lo)
            gy = gy_lo + frac * (gy_hi - gy_lo)
            body.append('<text x="%.2f" y="%d" text-anchor="middle">%.3g</text>'
                        % (sx(gx), y0 + 18, gx))
            body.append('<text x="%d" y="%.2f" text-anchor="end">%.3g</text>'
                        % (x0 - 6, sy(gy) + 4, gy))
    body.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>'
                % (x0, y0, x1, y0))
    body.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>'
                % (x0, y0, x0, y1))
    body.append('<text x="%d" y="%d" text-anchor="middle">xi</text>'
                % ((x0 + x1) // 2, height - 12))
    body.append("</svg>")
    return "\n".join(body) + "\n"


# ---------------------------------------------------------------------------
# subcommands

def _options_from(config: RunConfig) -> SolveOptions:
    continuation = config.eps if len(config.eps) > 1 else None
    return SolveOptions(newton_tol=config.newton_tol, tail_tol=config.tail_tol,
                        continuation=continuation)


def _problem_from(config: RunConfig) -> ProfileProblem:
    return ProfileProblem(flux=config.flux, u_left=config.u_left,
                          u_right=config.u_right, epsilon=config.eps[-1])


def _report_payload(report):
    return {
        "converged": report.converged,
        "iterations": report.iterations,
        "residual_history": [float(r) for r in report.residual_history],
        "domain": [float(report.domain[0]), float(report.domain[1])],
        "mesh_size": report.mesh_size,
        "floor_limited": report.floor_limited,
        "stages": report.stages,
    }


def _write_json(payload, path):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        _write_text(path, text)


def _cmd_solve(config: RunConfig) -> int:
    problem = _problem_from(config)
    profile, report = solve_profile(problem, _options_from(config))
    if config.out:
        write_profile(profile, config.out)
    if config.report:
        _write_json(_report_payload(report), config.report)
    print("solve %s ul=%g ur=%g eps=%g: converged=%s iterations=%d "
          "residual=%.3e nodes=%d"
          % (format_flux_token(config.flux), config.u_left, config.u_right,
             problem.epsilon, report.converged, report.iterations,
             report.residual_norm, report.mesh_size))
    return 0 if report.converged else 1


def _cmd_corner(config: RunConfig) -> int:
    corner = solve_corner(xi_min=config.xi_min, xi_max=config.xi_max,
                          n_points=config.samples)
    h_vals = first_integral_H(corner, 1.0)
    text = _csv_text(("xi", "U", "p", "w", "H"),
                     (corner.xi, corner.u, corner.p, corner.w, h_vals))
    if config.out:
        _write_text(config.out, text)
        print("corner [%g, %g]: %d nodes, max |H| = %.3e"
              % (config.xi_min, config.xi_max, len(corner.xi),
                 float(np.max(np.abs(h_vals)))))
    else:
        sys.stdout.write(text)
    return 0


def _cmd_riemann(config: RunConfig) -> int:
    solution = solve_exact(config.flux, config.u_left, config.u_right)
    print("\n".join(describe_waves(solution)))
    if config.out:
        lo, hi = wave_speed_span(solution)
        grid = np.linspace(lo - 1.0, hi + 1.0, config.samples)
        _write_text(config.out,
                    _csv_text(("xi", "u"), (grid, eval_riemann(solution, grid))))
    return 0


def _cmd_verify(config: RunConfig) -> int:
    checks, _ = run_battery(_problem_from(config), _options_from(config),
                            seed=config.seed)
    if config.check is not None:
        if config.check not in checks:
            raise ConfigError("unknown or inapplicable check %r; this run has: %s"
                              % (config.check, ", ".join(sorted(checks))))
        checks = {config.check: checks[config.check]}
    _write_json(checks, config.out)
    failed = [name for name, entry in checks.items() if not entry["pass"]]
    for name in sorted(failed):
        print("FAIL %s: value=%.6e threshold=%.6e"
              % (name, checks[name]["value"], checks[name]["threshold"]),
              file=sys.stderr)
    return 1 if failed else 0


def _cmd_sweep(config: RunConfig) -> int:
    problem = _problem_from(config)
    options = SolveOptions(newton_tol=config.newton_tol, tail_tol=config.tail_tol)
    results = continuation_sweep(problem, config.eps, options)
    exact = solve_exact(config.flux, config.u_left, config.u_right)
    labels = ["eps=%g" % eps for eps, _ in results]
    for (eps, prof), label in zip(results, labels):
        print("%s: %d nodes" % (label, len(prof.xi)))
    if config.out:
        emit_plotdata([prof for _, prof in results], exact, config.out,
                      labels=labels, svg_path=config.svg)
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "corner": _cmd_corner,
    "riemann": _cmd_riemann,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        config = parse_config(argv)
    except ConfigError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2
    try:
        return _COMMANDS[config.command](config)
    except ConfigError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2
    except WavefanError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 1
    except OSError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
