"""Exact entropy solutions of the Riemann problem for u_t + f(u)_x = 0.

For left state below right state the solution is induced by the convex
envelope of f between the states (pointwise u(xi) = argmin of f(u) - xi*u,
left state on ties); for left above right, by the concave envelope (argmax).
The construction here builds the envelope on a fine u-grid, extracts the
wave structure (constant states, shocks, rarefaction fans), and then
refines shock tangency points to full floating-point accuracy, so evaluated
values are not limited by the grid.

The solution is self-similar: u depends on xi = x/t only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import InvalidParameterError
from .flux import FluxSpec, derivative, evaluate, polynomial_flux

_DEFAULT_GRID = 200_001
_FAN_TABLE_N = 20_001


@dataclass(frozen=True)
class ConstantState:
    u: float
    xi_lo: float
    xi_hi: float


@dataclass(frozen=True)
class Shock:
    """Jump from u_left to u_right travelling at the Rankine-Hugoniot speed."""

    speed: float
    u_left: float
    u_right: float


@dataclass(frozen=True)
class RarefactionFan:
    """Continuous wave on [xi_lo, xi_hi]; u(xi) inverts f' along the envelope.

    table_fp is increasing; table_u holds the matching states, so evaluation
    is a monotone interpolation xi -> u.
    """

    xi_lo: float
    xi_hi: float
    u_lo: float          # state at xi_lo
    u_hi: float          # state at xi_hi
    table_fp: np.ndarray = field(repr=False, compare=False)
    table_u: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True)
class RiemannSolution:
    flux: FluxSpec
    u_left: float
    u_right: float
    waves: tuple  # ordered ConstantState / Shock / RarefactionFan, partitioning xi


def wave_speed_span(sol: RiemannSolution) -> tuple[float, float]:
    """Smallest and largest finite wave speed (equal for a constant solution)."""
    speeds = []
    for w in sol.waves:
        if isinstance(w, Shock):
            speeds.append(w.speed)
        elif isinstance(w, RarefactionFan):
            speeds.extend((w.xi_lo, w.xi_hi))
    if not speeds:
        v = float(derivative(sol.flux, sol.u_left))
        return v, v
    return min(speeds), max(speeds)


def shock_speeds(sol: RiemannSolution) -> list[float]:
    return [w.speed for w in sol.waves if isinstance(w, Shock)]


def _reflected_flux(flux: FluxSpec) -> FluxSpec:
    # g(v) = -f(-v); entropy solutions map via u(xi) = -v(xi)
    return polynomial_flux(tuple(-c if k % 2 == 0 else c
                                 for k, c in enumerate(flux.coefficients)))


def _lower_hull_indices(x: np.ndarray, y: np.ndarray) -> list[int]:
    """Indices of the lower convex hull of the sorted point set (x_i, y_i).

    Collinear points are kept, so a linear stretch of f stays in the touch
    set instead of being misread as a jump.
    """
    stack: list[int] = []
    for i in range(len(x)):
        while len(stack) >= 2:
            j, k = stack[-2], stack[-1]
            cross = (x[k] - x[j]) * (y[i] - y[j]) - (y[k] - y[j]) * (x[i] - x[j])
            if cross < 0.0:
                stack.pop()
            else:
                break
        stack.append(i)
    return stack


def _refine_shock(flux, a, b, a_free, b_free, du, lo_limit, hi_limit):
    """Polish shock endpoints so free ends satisfy the tangency condition
    f'(end) = chord slope. Alternates one-dimensional safeguarded solves;
    each free end moves within a small expanding bracket around the grid
    estimate. Falls back to the grid value if no sign change is found
    (degenerate tangency)."""

    def chord_defect_at_right(b_, a_):
        return derivative(flux, b_) * (b_ - a_) - (evaluate(flux, b_) - evaluate(flux, a_))

    def chord_defect_at_left(a_, b_):
        return derivative(flux, a_) * (b_ - a_) - (evaluate(flux, b_) - evaluate(flux, a_))

    scale = max(1.0, abs(a), abs(b))
    for _ in range(60):
        moved = 0.0
        if b_free:
            width = 4.0 * du
            new_b = None
            for _ in range(4):
                blo = max(b - width, a + 1e-3 * du)
                bhi = min(b + width, hi_limit)
                flo = chord_defect_at_right(blo, a)
                fhi = chord_defect_at_right(bhi, a)
                if np.isfinite(flo) and np.isfinite(fhi) and flo * fhi <= 0.0:
                    new_b = brentq(chord_defect_at_right, blo, bhi, args=(a,),
                                   xtol=1e-14, rtol=8.9e-16)
                    break
                width *= 4.0
            if new_b is not None:
                moved += abs(new_b - b)
                b = new_b
        if a_free:
            width = 4.0 * du
            new_a = None
            for _ in range(4):
                alo = max(a - width, lo_limit)
                ahi = min(a + width, b - 1e-3 * du)
                flo = chord_defect_at_left(alo, b)
                fhi = chord_defect_at_left(ahi, b)
                if np.isfinite(flo) and np.isfinite(fhi) and flo * fhi <= 0.0:
                    new_a = brentq(chord_defect_at_left, alo, ahi, args=(b,),
                                   xtol=1e-14, rtol=8.9e-16)
                    break
                width *= 4.0
            if new_a is not None:
                moved += abs(new_a - a)
                a = new_a
        if moved < 1e-13 * scale:
            break
    return a, b


def _fan_table(flux, u_lo, u_hi):
    uu = np.linspace(u_lo, u_hi, _FAN_TABLE_N)
    fp = np.asarray(derivative(flux, uu), dtype=float)
    fp = np.maximum.accumulate(fp)  # guard float dips; f' is nondecreasing on touch sets
    return fp, uu


def _solve_increasing(flux: FluxSpec, u_left: float, u_right: float, n_grid: int):
    """Wave list for u_left < u_right (convex envelope case)."""
    grid = np.linspace(u_left, u_right, n_grid)
    fv = np.asarray(evaluate(flux, grid), dtype=float)
    hull = _lower_hull_indices(grid, fv)
    du = grid[1] - grid[0]

    # classify hull edges; micro-gaps (a few cells) are grid artifacts of
    # near-linear stretches and count as touch edges
    segments = []  # ("fan", i0, i1) with grid indices, or ("shock", a_idx, b_idx)
    for e in range(len(hull) - 1):
        i0, i1 = hull[e], hull[e + 1]
        kind = "fan" if (i1 - i0) <= 3 else "shock"
        if segments and segments[-1][0] == kind == "fan":
            segments[-1] = ("fan", segments[-1][1], i1)
        else:
            segments.append((kind, i0, i1))

    # resolve shock endpoints to tangency accuracy
    refined = []  # per segment: (kind, a, b); shock values authoritative
    for kind, i0, i1 in segments:
        if kind == "shock":
            a_free = i0 != 0
            b_free = i1 != n_grid - 1
            a_ref, b_ref = _refine_shock(flux, float(grid[i0]), float(grid[i1]),
                                         a_free, b_free, du,
                                         float(u_left), float(u_right))
            if not a_free:
                a_ref = float(u_left)
            if not b_free:
                b_ref = float(u_right)
            refined.append(("shock", a_ref, b_ref))
        else:
            refined.append(("fan", float(grid[i0]), float(grid[i1])))

    # chain pass: fans inherit their endpoints from the neighbouring refined
    # tangency states so the state sequence is exactly continuous
    waves_raw = []
    cursor = float(u_left)
    for k, (kind, a, b) in enumerate(refined):
        if kind == "shock":
            waves_raw.append(("shock", a, b))
            cursor = b
        else:
            hi = refined[k + 1][1] if k + 1 < len(refined) else float(u_right)
            waves_raw.append(("fan", cursor, hi))
            cursor = hi

    # assemble typed waves with xi intervals; degenerate-width fans become shocks
    waves = []
    for kind, a, b in waves_raw:
        if b <= a:
            continue
        if kind == "shock" or (b - a) <= 1e-9 * max(1.0, abs(a), abs(b)):
            speed = float((evaluate(flux, b) - evaluate(flux, a)) / (b - a))
            waves.append(Shock(speed, a, b))
        else:
            xi_lo = float(derivative(flux, a))
            xi_hi = float(derivative(flux, b))
            fp, uu = _fan_table(flux, a, b)
            waves.append(RarefactionFan(xi_lo, xi_hi, a, b, fp, uu))
    return waves


def _with_constants(waves, u_left, u_right):
    """Insert the surrounding and intermediate constant states."""
    if not waves:
        return (ConstantState(u_left, -np.inf, np.inf),)
    full = []
    cursor_u = u_left
    cursor_xi = -np.inf
    for w in waves:
        start = w.speed if isinstance(w, Shock) else w.xi_lo
        full.append(ConstantState(cursor_u, cursor_xi, start))
        full.append(w)
        if isinstance(w, Shock):
            cursor_u, cursor_xi = w.u_right, w.speed
        else:
            cursor_u, cursor_xi = w.u_hi, w.xi_hi
    full.append(ConstantState(cursor_u, cursor_xi, np.inf))
    return tuple(full)


@functools.lru_cache(maxsize=64)
def solve_exact(flux: FluxSpec, u_left: float, u_right: float,
                n_grid: int = _DEFAULT_GRID) -> RiemannSolution:
    """Exact self-similar entropy solution connecting u_left to u_right.

    The wave sequence has nondecreasing speeds, every shock satisfies the
    Rankine-Hugoniot relation by construction, and the xi-intervals of the
    waves partition the line.
    """
    u_left = float(u_left)
    u_right = float(u_right)
    if not (np.isfinite(u_left) and np.isfinite(u_right)):
        raise InvalidParameterError("states must be finite")
    if n_grid < 1000:
        raise InvalidParameterError("n_grid too small for envelope construction")

    if u_left == u_right:
        return RiemannSolution(flux, u_left, u_right,
                               (ConstantState(u_left, -np.inf, np.inf),))
    if u_left < u_right:
        waves = _solve_increasing(flux, u_left, u_right, n_grid)
        return RiemannSolution(flux, u_left, u_right,
                               _with_constants(waves, u_left, u_right))

    # decreasing data: solve the reflected increasing problem with
    # g(v) = -f(-v) and map v -> -v (speeds are preserved)
    refl = _reflected_flux(flux)
    vwaves = _solve_increasing(refl, -u_left, -u_right, n_grid)
    waves = []
    for w in vwaves:
        if isinstance(w, Shock):
            waves.append(Shock(w.speed, -w.u_left, -w.u_right))
        else:
            waves.append(RarefactionFan(w.xi_lo, w.xi_hi, -w.u_lo, -w.u_hi,
                                        w.table_fp, -w.table_u))
    return RiemannSolution(flux, u_left, u_right,
                           _with_constants(waves, u_left, u_right))


def eval_riemann(sol: RiemannSolution, xi):
    """Evaluate the self-similar solution at xi (scalar or array).

    At a shock location the left state is returned (convention).
    """
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    out = np.empty_like(xi_arr)

    # pieces with their right edges; a query equal to a shock speed lands in
    # the piece to the left, which realizes the left-state convention
    pieces = [w for w in sol.waves if not isinstance(w, Shock)]
    edges = np.array([p.xi_hi for p in pieces])
    idx = np.searchsorted(edges, xi_arr, side="left")
    idx = np.clip(idx, 0, len(pieces) - 1)
    for k, piece in enumerate(pieces):
        mask = idx == k
        if not np.any(mask):
            continue
        if isinstance(piece, ConstantState):
            out[mask] = piece.u
        else:
            out[mask] = np.interp(xi_arr[mask], piece.table_fp, piece.table_u)
    if np.ndim(xi) == 0:
        return float(out[0])
    return out


def describe_waves(sol: RiemannSolution) -> list[str]:
    """Human-readable wave list for reports."""
    lines = []
    for w in sol.waves:
        if isinstance(w, ConstantState):
            if w.xi_lo == w.xi_hi:
                continue
            lines.append("constant u=%.12g on xi in (%.12g, %.12g)" % (w.u, w.xi_lo, w.xi_hi))
        elif isinstance(w, Shock):
            lines.append("shock at xi=%.12g: %.12g -> %.12g" % (w.speed, w.u_left, w.u_right))
        else:
            lines.append("rarefaction fan on xi in (%.12g, %.12g): %.12g -> %.12g"
                         % (w.xi_lo, w.xi_hi, w.u_lo, w.u_hi))
    return lines
