"""Command-line front end: config parsing, run orchestration, file formats.

Five subcommands map onto the library entry points: ``solve`` (viscous
profile), ``corner`` (the unbounded similarity profile), ``riemann`` (exact
wave structure), ``verify`` (check battery), ``sweep`` (one ``solve_profile``
per viscosity of a strictly decreasing schedule, written as plot data).
Everything numeric is written as 17-significant-digit decimal text so files
diff cleanly and parse back to the exact same doubles: the bytes of
``'%.17g' % x``, made by a numpy kernel (`_digits17`, `_format_block`) a
block of rows at a time.  It takes the digits from a double-double scaling
by a power of ten where a proved error bound decides them, and leaves every
other value (near-ties, decade edges, zeros, subnormals, inf, nan) to ``%``.

A config file is flat ``key=value`` text mirroring the long flags; values
given on the command line win wherever ``--config`` stands, and each value,
from either, passes its flag's one check in the parser.  Runs are
deterministic: the same parsed settings (including the probe seed, set by
``--seed`` or ``seed=``) produce byte-identical output files.  ``--tol``
and ``--tail-tol`` take their defaults and checks from ``SolveOptions``,
``--seed`` its check from the probe's.

Exit codes: 0 success, 1 a check or solve failed, 2 the invocation itself
was rejected.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import asdict, replace

import numpy as np

from .corner_layer import check_xi_max, check_xi_min, first_integral_H, solve_corner
from .errors import ConfigError, InvalidParameterError, ProfileFormatError, WavefanError
from .flux import burgers_flux, format_flux_token, parse_flux_token
from .profile_bvp import Profile, ProfileProblem, SolveOptions, solve_profile
from .riemann import describe_waves, eval_riemann, solve_exact, wave_speed_span
from .verification import CHECK_NAMES, probe_seed, run_battery

_FMT = b"%.17g"  # every CSV number: 17 significant digits round-trip every double
_DECADES = (-308, 308)      # floor(log10|x|) of the normal doubles
_TIE_SLACK = 2.0 ** -32     # 2^10 times the bound on the scaled value's error
_SPLIT = 134217729.0        # 2^27 + 1: Dekker's splitter into 26-bit halves
_BLOCK_VALUES = 3072        # numbers per pass of _format_block (1,024 profile rows)

_SVG_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
                "#8c564b", "#17becf", "#7f7f7f")
_SVG_WIDTH, _SVG_HEIGHT, _SVG_PAD = 640, 420, 56   # chart size and axis margin, px


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so main() owns the exit code.

    A token that is a negative number in any form float() reads, exponent
    included (-1e-3, -.5E+2), is a value, not an option; argparse's own rule
    (Python 3.11) takes only the -1 and -1.5 forms as values. Subparsers are
    made from this class, so they share the rule."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise ConfigError(message)


def _flux_arg(token):
    try:
        return parse_flux_token(token)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _checked(convert, check):
    """An argparse ``type=``: `convert` the token, then `check` the value,
    which raises InvalidParameterError naming the rule it breaks. A token
    `convert` rejects reads as argparse's 'invalid float value' (or int)."""
    def parse(token):
        value = convert(token)
        try:
            check(value)
        except InvalidParameterError as exc:
            raise argparse.ArgumentTypeError("%s, got %r" % (exc, value)) from None
        return value
    parse.__name__ = convert.__name__
    return parse


def _finite(value):
    if not math.isfinite(value):
        raise InvalidParameterError("must be finite")


def _at_least_two(count):
    if count < 2:
        raise InvalidParameterError("must be at least 2")


def _schedule_arg(text):
    """A comma-separated viscosity schedule: finite, positive and strictly
    decreasing, so a sweep's columns run from the widest profile to the
    sharpest."""
    try:
        schedule = tuple(float(part) for part in text.split(","))
    except ValueError as exc:  # float() on a malformed part
        raise argparse.ArgumentTypeError("%s in schedule %r" % (exc, text)) from None
    if not all(np.isfinite(e) and e > 0.0 for e in schedule):
        raise argparse.ArgumentTypeError(
            "viscosities must be finite and positive, got %r" % (text,))
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise argparse.ArgumentTypeError(
            "viscosities must be strictly decreasing, got %r" % (text,))
    return schedule


def _writable_path(path):
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(
            "output directory does not exist for %r" % (path,))
    if not os.access(parent, os.W_OK):
        raise argparse.ArgumentTypeError("output path not writable: %r" % (path,))
    return path


def _expand_config_file(argv):
    """Replace ``--config FILE`` with the file's key=value pairs as flags.

    The expansion goes right after the subcommand, ahead of the explicit
    command line wherever --config stood; argparse keeps a flag's last
    occurrence, so explicit flags override file values.
    """
    argv = list(argv)
    for i, token in enumerate(argv):
        if token == "--config":
            if i + 1 >= len(argv):
                raise ConfigError("--config needs a file path")
            path, end = argv[i + 1], i + 2
            break
        if token.startswith("--config="):
            path, end = token.split("=", 1)[1], i + 1
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
    del argv[i:end]
    return argv[:1] + flags + argv[1:]


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The parser, built once per process: parse_args starts every call from
    its defaults (all immutable) and runs each ``type=`` check again."""
    parser = _Parser(prog="wavefan",
                     description="Viscous wave-fan profiles for scalar "
                                 "conservation laws: solve, check, export.")
    sub = parser.add_subparsers(dest="command", required=True)

    def states(p, flux_help=None, ul_help=None, ur_help=None):
        p.add_argument("--flux", type=_flux_arg, default=burgers_flux(), help=flux_help)
        p.add_argument("--ul", dest="u_left", metavar="UL", type=_checked(float, _finite),
                       required=True, help=ul_help)
        p.add_argument("--ur", dest="u_right", metavar="UR", type=_checked(float, _finite),
                       required=True, help=ur_help)

    def common(p, run, eps_default="0.05", eps_help="viscosity"):
        p.set_defaults(run=run)
        states(p, "burgers or poly:c0,c1,...,cn (default burgers)", "left state",
               "right state")
        p.add_argument("--eps", type=_schedule_arg, default=_schedule_arg(eps_default),
                       help=eps_help)
        p.add_argument("--tol", dest="newton_tol", metavar="TOL",
                       type=_checked(float, lambda v: SolveOptions(newton_tol=v)),
                       default=SolveOptions.newton_tol, help="Newton residual tolerance")
        p.add_argument("--tail-tol", dest="tail_tol", metavar="TAIL_TOL",
                       type=_checked(float, lambda v: SolveOptions(tail_tol=v)),
                       default=SolveOptions.tail_tol,
                       help="committed boundary truncation error")

    p_solve = sub.add_parser("solve", help="solve one viscous profile")
    common(p_solve, _cmd_solve)
    p_solve.add_argument("--out", type=_writable_path, default=None,
                         help="profile CSV (xi,u,du)")
    p_solve.add_argument("--report", type=_writable_path, default=None,
                         help="solve report JSON")

    p_corner = sub.add_parser("corner", help="integrate the corner profile")
    p_corner.set_defaults(run=_cmd_corner)
    p_corner.add_argument("--xi-min", type=_checked(float, check_xi_min), default=-8.0)
    p_corner.add_argument("--xi-max", type=_checked(float, check_xi_max), default=10.0)
    p_corner.add_argument("--samples", type=_checked(int, _at_least_two), default=2001,
                          help="number of equispaced output nodes")
    p_corner.add_argument("--out", type=_writable_path, default=None,
                          help="CSV (xi,U,p,w,H); stdout when omitted")

    p_riemann = sub.add_parser("riemann", help="exact entropy solution")
    p_riemann.set_defaults(run=_cmd_riemann)
    states(p_riemann)
    p_riemann.add_argument("--samples", type=_checked(int, _at_least_two), default=401)
    p_riemann.add_argument("--out", type=_writable_path, default=None,
                           help="sampled (xi,u) CSV")

    p_verify = sub.add_parser("verify", help="run the check battery")
    common(p_verify, _cmd_verify)
    p_verify.add_argument("--check", default=None, choices=CHECK_NAMES, metavar="CHECK",
                          help="single check name (default: every applicable check)")
    p_verify.add_argument("--seed", type=_checked(int, probe_seed), default=None,
                          help="probe seed (default: the builtin probe seed)")
    p_verify.add_argument("--out", type=_writable_path, default=None,
                          help="JSON report; stdout when omitted")

    p_sweep = sub.add_parser("sweep", help="profiles across a viscosity schedule")
    common(p_sweep, _cmd_sweep, eps_default="0.1,0.05,0.025",
           eps_help="comma-separated decreasing viscosity schedule")
    p_sweep.add_argument("--out", type=_writable_path, default=None,
                         help="multi-column plot CSV (xi, one column per eps, exact)")
    p_sweep.add_argument("--svg", type=_writable_path, default=None,
                         help="line chart rendered directly to SVG")
    return parser


def parse_config(argv) -> argparse.Namespace:
    """Parse a command line (plus optional ``--config`` file) into the run's
    settings: a Namespace of the library's names (``flux``, ``u_left``,
    ``u_right``, ``eps``, ``newton_tol``, ``tail_tol``, ...), the command,
    and ``run``, the function that runs it on them.

    Raises ConfigError with the offending token for anything malformed.
    """
    ns = _build_parser().parse_args(_expand_config_file(argv))
    if ns.command in ("solve", "verify") and len(ns.eps) != 1:
        raise ConfigError("%s takes a single --eps, got schedule %r; sweep solves "
                          "a schedule" % (ns.command, ",".join(map(repr, ns.eps))))
    return ns


# ---------------------------------------------------------------------------
# text output

def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _points_text(x, y) -> str:
    """SVG polyline points: 'x,y' for each index of the equal-length `x` and
    `y`, both ``%.2f``, space-separated; one ``%`` over a repeated template."""
    template = " ".join(["%.2f,%.2f"] * len(x))
    return template % tuple(np.column_stack((x, y)).ravel().tolist())


def _word(text: bytes) -> int:
    """The little-endian integer whose bytes are `text`."""
    return int.from_bytes(text, "little")


def _read_only(*tables):
    for table in tables:
        table.setflags(write=False)
    return tables


@functools.lru_cache(maxsize=None)
def _powers_of_ten():
    """10^(16 - e) for each decade e of a normal double, built at first use,
    as (b_hi + b_lo)*2^t with b_hi in [1/2, 1]: q = floor(10^(16 - e)*2^s)
    is an exact integer of 110 or 111 bits, b_hi is q rounded to a double
    and b_lo the rest rounded, both scaled by 2^-bits(q); the relative error
    is below 2^-105.  b_hi comes split into halves for Dekker's product."""
    b_hi, b_lo, t = [], [], []
    for k in range(16 - _DECADES[1], 17 - _DECADES[0]):
        num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
        shift = 110 - num.bit_length() + den.bit_length()
        q = (num << shift) // den if shift >= 0 else num // (den << -shift)
        scale = 2.0 ** -q.bit_length()
        b_hi.append(float(q) * scale)
        b_lo.append(float(q - int(float(q))) * scale)
        t.append(q.bit_length() - shift)
    b_hi = np.array(b_hi)
    split = b_hi * _SPLIT
    b_hh = split - (split - b_hi)
    return _read_only(b_hh, b_hi - b_hh, np.array(b_lo), np.array(t, np.int32))


@functools.lru_cache(maxsize=None)
def _layout_tables():
    """The little-endian words `_format_block` assembles, built at first use:
    four ASCII digits per integer below 10^4; per decade the prefix '0.0..',
    how many of the 16 digits after the leading one precede the point, how
    many are written whatever their value, and the exponent; the sign with
    the leading digit; byte masks, and the point at each byte."""
    n = np.arange(10000)
    quads = (_word(b"0000") + n // 1000 + (n // 100 % 10 << 8)
             + (n // 10 % 10 << 16) + (n % 10 << 24)).astype(np.uint64)
    prefix, point, mandatory, exponent = [], [], [], []
    for e in range(_DECADES[0], _DECADES[1] + 1):
        fixed, below_one = -4 <= e < 17, -4 <= e < 0
        prefix.append(_word(b"\0" + b"0." + b"0" * (-e - 1)) if below_one else 0)
        point.append(16 if below_one else e if fixed else 0)
        mandatory.append(e if fixed and not below_one else 0)
        exponent.append(0 if fixed else _word(b"\0\0" + b"e%+03d" % e))
    lead = [_word(sign + b"\0" * 6 + bytes([48 + j])) for sign in (b"\0", b"-")
            for j in range(10)]
    low = [[(1 << 8 * min(max(j - w, 0), 8)) - 1 for j in range(18)] for w in (0, 8, 16)]
    dots = [[(hi ^ lo) & _word(b"." * 8) for lo, hi in zip(row, row[1:])] for row in low[:2]]
    u64 = functools.partial(np.array, dtype=np.uint64)
    return _read_only(quads, u64(prefix), np.array(point), np.array(mandatory),
                      u64(exponent), u64(lead), u64(low), u64(dots))


def _digits17(values):
    """For the 1-D float array `values`: the mask of the values whose 17
    significant digits are decided here, their decade index (floor(log10|x|)
    less _DECADES[0]) and their digits as an integer d in (10^16, 10^17);
    d is 10^16 where the mask is false, so any layout of it stays in range.

    With |x| = m*2^q (frexp) and e = floor(log10|x|), d = round(y) for
    y = |x|*10^(16 - e) = m*(b_hi + b_lo)*2^(q + t).  Dekker's two-product
    makes m*b_hi = p + err exactly; err gains m*b_lo, and both scale by
    2^(q + t) exactly to hi + lo.  Against y the table's error is below
    2^-105 of m*b, the product's and the sum's roundings below 2^-108 and
    2^-106 absolute: below 2^-104 in all, of m*b >= 1/4, so below 2^-42
    absolute, since y < 10^18 < 2^60 even where log10 is an ulp off.  Then
    hi > 2^53 is an integer, and d = hi + rint(lo) unless lo lies within
    _TIE_SLACK of a half-integer.  A value is decided when that rounding is
    and 10^16 < d < 10^17, which proves e the decade of the rounded value
    too; the rest are near-ties, decade edges, zeros, subnormals, inf and
    nan."""
    b_hh, b_hl, b_lo, t = _powers_of_ten()
    a = np.abs(values)
    ok = (a >= np.finfo(float).tiny) & (a <= np.finfo(float).max)
    a = np.where(ok, a, 1.0)
    i = np.floor(np.log10(a)).astype(np.intp) - _DECADES[0]
    k = (_DECADES[1] - _DECADES[0]) - i              # index of 10^(16 - e)
    m, q = np.frexp(a)
    split = m * _SPLIT
    mh = split - (split - m)
    ml = m - mh
    bh, bl = b_hh[k], b_hl[k]
    p = m * (bh + bl)
    err = ((mh * bh - p) + mh * bl + ml * bh) + ml * bl + m * b_lo[k]
    s = q + t[k]                                     # int32: ldexp is slow on int64
    hi, lo = np.ldexp(p, s), np.ldexp(err, s)
    r = np.rint(lo)
    d = hi.astype(np.int64) + r.astype(np.int64)
    ok &= (np.abs(lo - r) < 0.5 - _TIE_SLACK) & (d > 10 ** 16) & (d < 10 ** 17)
    return ok, i, np.where(ok, d, 10 ** 16)


def _format_block(values, separators) -> bytes:
    """``'%.17g' % x`` for every x of the 1-D float array `values`, each
    followed by its byte of `separators` (in the top byte of a word), as one
    ASCII bytes object: `_digits17`'s digits where it decides them, ``%``
    itself for the rest.

    Every value fills a 32-byte slot of four words, NUL-padded: the sign, a
    '0.' prefix with zeros for a fixed value below 1, and the leading digit;
    then the 16 further digits with the point inserted after the integer
    digits and the fraction's trailing zeros cleared; then the digit carried
    out of them, the exponent and the separator.  ``bytes.translate`` drops
    the NULs."""
    (quads, prefix, point, mandatory, exponent, lead, (low0, low1, low2),
     (dot0, dot1)) = _layout_tables()
    ok, i, d = _digits17(values)
    top = d // 10 ** 16
    d -= top * 10 ** 16
    halves = np.empty((len(d), 2), np.int64)
    halves[:, 0] = d // 10 ** 8
    halves[:, 1] = d - halves[:, 0] * 10 ** 8
    g = halves // 10 ** 4
    words = quads[g] | quads[halves - g * 10 ** 4] << np.uint64(32)
    # the last nonzero one of the 16 digits (-1: none), from the highest set
    # bit of the words with their '0' bytes cleared
    z = np.frexp((words ^ quads[0] * np.uint64(0x100000001)).astype(float))[1]
    last = (np.maximum(z[:, 0], (z[:, 1] + 64) * (z[:, 1] > 0)) - 1) // 8
    # pt of the 16 digits precede the point (16: no point); of the 17 bytes
    # (16 digits and the point) the first `keep` are written
    pt = point[i]
    keep = np.maximum(last + 1 + (last >= pt), mandatory[i])

    slot = np.empty((len(d), 4), "<u8")   # little-endian on any host: bytes in text order
    slot[:, 0] = prefix[i] | lead[10 * np.signbit(values) + top]
    wa, wb = words[:, 0], words[:, 1]
    ha, hb = wa & ~low0[pt], wb & ~low1[pt]         # the digits after the point
    u8, u56 = np.uint64(8), np.uint64(56)
    slot[:, 1] = (wa ^ ha | ha << u8 | dot0[pt]) & low0[keep]
    slot[:, 2] = (wb ^ hb | hb << u8 | ha >> u56 | dot1[pt]) & low1[keep]
    slot[:, 3] = (hb >> u56) & low2[keep] | exponent[i] | separators
    bad = np.flatnonzero(~ok)
    if bad.size:
        text = b"".join((_FMT % x).ljust(31, b"\0") for x in values[bad].tolist())
        slot.view(np.uint8).reshape(-1, 32)[bad, :31] = \
            np.frombuffer(text, np.uint8).reshape(-1, 31)
    return slot.tobytes().translate(None, b"\0")


def _csv_text(names, columns) -> str:
    """CSV with a header of `names` and one row per index of the equal-length
    `columns`, every number as ``'%.17g'`` formats it (`_format_block`), a
    block of rows at a time: that keeps the temporaries small."""
    table = np.column_stack(columns).astype(float, copy=False)
    separators = np.full(table.shape[1], ord(","), np.uint64)
    separators[-1] = ord("\n")
    rows = max(1, _BLOCK_VALUES // table.shape[1])
    separators = np.tile(separators << np.uint64(56), rows)
    blocks = (table[j:j + rows].ravel() for j in range(0, len(table), rows))
    body = b"".join(_format_block(block, separators[:block.size]) for block in blocks)
    return ",".join(names) + "\n" + body.decode("ascii")


# ---------------------------------------------------------------------------
# profile persistence

def write_profile(profile: Profile, path) -> None:
    """Write a profile as ``xi,u,du`` CSV at full double precision."""
    if profile.du is None:
        raise InvalidParameterError("the profile has no slope du to write")
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
        if not math.isfinite(x):
            raise ProfileFormatError("%s:%d: xi not finite" % (path, lineno))
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

def emit_plotdata(profiles, reference, path, labels, svg_path=None) -> None:
    """Write a multi-column CSV to ``path``: xi, one u column per profile
    under its label, and the exact solution ``reference`` as column
    ``exact``; with ``path`` None no CSV is written.

    ``profiles`` is a nonempty sequence of Profile; the grid is the finest
    profile's mesh.  With ``svg_path`` the same columns are rendered as
    a line chart (one polyline per column) with axes and a legend — plain
    SVG text, no plotting package.
    """
    profiles = list(profiles)
    if len(labels) != len(profiles):
        raise ConfigError("got %d labels for %d profiles"
                          % (len(labels), len(profiles)))
    grid = max((p.xi for p in profiles), key=len)
    columns = [(label, np.interp(grid, prof.xi, prof.u))
               for label, prof in zip(labels, profiles)]
    columns.append(("exact", eval_riemann(reference, grid)))

    if path is not None:
        _write_text(path, _csv_text(["xi"] + [name for name, _ in columns],
                                    [grid] + [col for _, col in columns]))
    if svg_path is not None:
        _write_text(svg_path, _render_svg(grid, columns))


def _render_svg(grid, columns):
    """Hand-rolled SVG line chart: axes, one polyline per column, legend."""
    body = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
            'viewBox="0 0 %d %d" font-family="monospace" font-size="12">'
            % (_SVG_WIDTH, _SVG_HEIGHT, _SVG_WIDTH, _SVG_HEIGHT),
            '<rect width="%d" height="%d" fill="white"/>' % (_SVG_WIDTH, _SVG_HEIGHT)]
    x0, x1 = _SVG_PAD, _SVG_WIDTH - _SVG_PAD
    y0, y1 = _SVG_HEIGHT - _SVG_PAD, _SVG_PAD
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

    # on an array these are the scalar operations elementwise, bitwise alike
    def sx(x):
        return x0 + (x - gx_lo) / (gx_hi - gx_lo) * (x1 - x0)

    def sy(y):
        return y0 - (y - gy_lo) / (gy_hi - gy_lo) * (y0 - y1)

    px = sx(grid)
    for k, (name, col) in enumerate(columns):
        pts = _points_text(px, sy(col))
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
                % ((x0 + x1) // 2, _SVG_HEIGHT - 12))
    body.append("</svg>")
    return "\n".join(body) + "\n"


# ---------------------------------------------------------------------------
# subcommands

def _options_from(config: argparse.Namespace) -> SolveOptions:
    return SolveOptions(newton_tol=config.newton_tol, tail_tol=config.tail_tol)


def _problem_from(config: argparse.Namespace) -> ProfileProblem:
    return ProfileProblem(flux=config.flux, u_left=config.u_left,
                          u_right=config.u_right, epsilon=config.eps[-1])


def _write_json(payload, path):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        _write_text(path, text)


def _cmd_solve(config: argparse.Namespace) -> int:
    problem = _problem_from(config)
    profile, report = solve_profile(problem, _options_from(config))
    if config.out:
        write_profile(profile, config.out)
    if config.report:
        _write_json(asdict(report), config.report)
    print("solve %s ul=%g ur=%g eps=%g: converged=%s iterations=%d "
          "residual=%.3e nodes=%d"
          % (format_flux_token(config.flux), config.u_left, config.u_right,
             problem.epsilon, report.converged, report.iterations,
             report.residual_norm, report.mesh_size))
    return 0 if report.converged else 1


def _cmd_corner(config: argparse.Namespace) -> int:
    corner = solve_corner(xi_min=config.xi_min, xi_max=config.xi_max,
                          n_points=config.samples)
    h_vals = first_integral_H(corner.w, corner.p, 1.0)
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


def _cmd_riemann(config: argparse.Namespace) -> int:
    solution = solve_exact(config.flux, config.u_left, config.u_right)
    print("\n".join(describe_waves(solution)))
    if config.out:
        lo, hi = wave_speed_span(solution)
        grid = np.linspace(lo - 1.0, hi + 1.0, config.samples)
        _write_text(config.out,
                    _csv_text(("xi", "u"), (grid, eval_riemann(solution, grid))))
    return 0


def _cmd_verify(config: argparse.Namespace) -> int:
    checks, _ = run_battery(_problem_from(config), _options_from(config),
                            seed=config.seed)
    if config.check is not None:
        if config.check not in checks:
            raise ConfigError("check %r does not apply to this run; it has: %s"
                              % (config.check, ", ".join(sorted(checks))))
        checks = {config.check: checks[config.check]}
    _write_json(checks, config.out)
    failed = [name for name, entry in checks.items() if not entry["pass"]]
    for name in sorted(failed):
        entry = checks[name]
        extra = "".join(" %s=%s" % item for item in entry.items()
                        if item[0] not in ("value", "threshold", "pass"))
        print("FAIL %s: value=%.6e threshold=%.6e%s"
              % (name, entry["value"], entry["threshold"], extra), file=sys.stderr)
    return 1 if failed else 0


def _cmd_sweep(config: argparse.Namespace) -> int:
    problem, options = _problem_from(config), _options_from(config)
    profiles = [solve_profile(replace(problem, epsilon=eps), options)[0]
                for eps in config.eps]
    labels = ["eps=%g" % eps for eps in config.eps]
    for prof, label in zip(profiles, labels):
        print("%s: %d nodes" % (label, len(prof.xi)))
    if config.out or config.svg:
        emit_plotdata(profiles, solve_exact(config.flux, config.u_left, config.u_right),
                      config.out, labels, config.svg)
    return 0


def main(argv=None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
        return config.run(config)
    except ConfigError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2
    except (WavefanError, OSError) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
