"""Grid construction of the entropy Riemann solution, kept as a test oracle.

This is the envelope construction wavefan used before the grid-free one:
the lower convex hull of f on a fine u-grid, shock tangency points polished
with brentq, and fans evaluated from tables of f'. It is independent of
`wavefan.riemann` apart from the wave types and the flux evaluation.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from wavefan.flux import derivative, evaluate, polynomial_flux
from wavefan.riemann import Shock

FAN_TABLE_N = 20_001


@dataclass(frozen=True)
class GridFan:
    xi_lo: float
    xi_hi: float
    u_left: float
    u_right: float
    table_fp: np.ndarray = field(repr=False, compare=False)
    table_u: np.ndarray = field(repr=False, compare=False)


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
    uu = np.linspace(u_lo, u_hi, FAN_TABLE_N)
    fp = np.asarray(derivative(flux, uu), dtype=float)
    fp = np.maximum.accumulate(fp)  # guard float dips; f' is nondecreasing on touch sets
    return fp, uu


def _solve_increasing(flux, u_left, u_right, n_grid):
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
            waves.append(GridFan(xi_lo, xi_hi, a, b, fp, uu))
    return waves


def grid_waves(flux, u_left, u_right, n_grid=200_001):
    """Shocks and fans of the entropy solution from u_left to u_right, in
    order; decreasing data solve the reflected problem g(v) = -f(-v)."""
    if u_left < u_right:
        return _solve_increasing(flux, u_left, u_right, n_grid)
    refl = polynomial_flux(tuple(-c if k % 2 == 0 else c
                                 for k, c in enumerate(flux.coefficients)))
    waves = []
    for w in _solve_increasing(refl, -u_left, -u_right, n_grid):
        if isinstance(w, Shock):
            waves.append(Shock(w.speed, -w.u_left, -w.u_right))
        else:
            waves.append(GridFan(w.xi_lo, w.xi_hi, -w.u_left, -w.u_right,
                                 w.table_fp, -w.table_u))
    return waves
