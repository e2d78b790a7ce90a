"""Exact entropy solutions of the Riemann problem for u_t + f(u)_x = 0.

For left state below right state the solution is induced by the convex
envelope of f between the states (pointwise u(xi) = argmin of f(u) - xi*u,
left state on ties); for left above right, by the concave envelope (argmax).
The envelope is built from polynomial algebra (Osher, SIAM J. Numer. Anal.
21, 1984): from a state p, the next vertex has the smallest chord slope
from p and is the right state or a tangency point, a root of a polynomial.
A fan starts where f' is below every such chord, and inside a fan u(xi)
inverts f' to full floating-point accuracy.

The solution is self-similar: u depends on xi = x/t only. Its waves, the
constant states, shocks and rarefaction fans, all have one shape: each
spans [xi_lo, xi_hi] from u_left to u_right, and starts where the wave
before it ends. A shock is a wave of zero width (xi_lo = xi_hi = its
speed), and a constant state has u_left = u_right = u. A chord slope
whose powers of the states or running sum overflow is formed again on
the states and coefficients scaled by powers of 2 (`divided_difference`),
so data whose slopes fit in doubles are solved even where f does not;
data whose slopes or f' overflow raise CoverageError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
import numpy.polynomial.polynomial as _poly

from .errors import CoverageError, InvalidParameterError
from .flux import (FluxSpec, _interior_critical_points, derivative, divided_difference,
                   polynomial_flux, second_derivative)

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class ConstantState:
    """The state u on [xi_lo, xi_hi]; u_left and u_right are both u."""

    u: float
    xi_lo: float
    xi_hi: float
    u_left = u_right = property(lambda self: self.u)


@dataclass(frozen=True)
class Shock:
    """Jump from u_left to u_right travelling at the Rankine-Hugoniot speed:
    a wave of zero width, whose xi_lo and xi_hi are both its speed."""

    speed: float
    u_left: float
    u_right: float
    xi_lo = xi_hi = property(lambda self: self.speed)


@dataclass(frozen=True)
class RarefactionFan:
    """Continuous wave on [xi_lo, xi_hi]; u(xi) inverts f' from u_left at
    xi_lo to u_right at xi_hi."""

    xi_lo: float
    xi_hi: float
    u_left: float
    u_right: float


@dataclass(frozen=True)
class RiemannSolution:
    """The waves from u_left to u_right, ordered ConstantState / Shock /
    RarefactionFan entries that partition xi: each has xi_lo, xi_hi, u_left
    and u_right, and starts where the one before it ends, in xi and in u."""

    flux: FluxSpec
    u_left: float
    u_right: float
    waves: tuple


def wave_speed_span(sol: RiemannSolution) -> tuple[float, float]:
    """Smallest and largest finite wave speed (equal for a constant solution)."""
    waves = [w for w in sol.waves if not isinstance(w, ConstantState)]
    if not waves:
        v = float(derivative(sol.flux, sol.u_left))
        return v, v
    return min(w.xi_lo for w in waves), max(w.xi_hi for w in waves)


def _reflected_flux(flux: FluxSpec) -> FluxSpec:
    # g(v) = -f(-v); entropy solutions map via u(xi) = -v(xi)
    return polynomial_flux(tuple(-c if k % 2 == 0 else c
                                 for k, c in enumerate(flux.coefficients)))


def _next_vertex(flux: FluxSpec, p: float, u_right: float) -> tuple[float, bool]:
    """(q, fan): the farthest point q of (p, u_right] whose chord from p has
    the smallest slope up to roundoff, and whether f'(p) is below that slope,
    in which case a fan starts at p.

    Each slope is `divided_difference`, the formula of the shock speed. For
    a flux with n + 1 coefficients c_0..c_n, its term c_k*h_(k-1)(p, q)
    carries at most 2n roundings: at most 2(k - 1) in each monomial of
    h_(k-1) (a product and a sum per step, the powers of p included), one
    in the product with c_k and at most n - k + 1 in the running sum. So
    the computed slope is within gamma_2n*B of the exact one, where
    B = divided_difference(|c|, |p|, |q|) and
    gamma_2n = n*eps_mach/(1 - n*eps_mach) (Higham, *Accuracy and Stability
    of Numerical Algorithms*, SIAM 2002, Lemma 3.1 and ch. 5). B has only
    nonnegative terms, so its computed value is at least (1 - gamma_2n)
    times the exact one, and the bound c*eps_mach*B with c = n + 1 covers
    both factors and the rounding of its own product while n^2*eps_mach
    is far below 1/2. Two slopes tie when they differ by at most the sum of
    their bounds. A slope or bound that is not finite raises CoverageError.
    """
    a = list(flux.coefficients)  # becomes a_j with f(p + t) = sum_j a_j t^j
    for i in range(len(a) - 1):
        for k in range(len(a) - 2, i - 1, -1):
            a[k] += p * a[k + 1]
    # f'(p+t)*t - (f(p+t) - f(p)) = t^2 * g(t) with g(t) = sum_{j>=2} (j-1)*a_j*t^(j-2),
    # so the tangency points are p + t at the positive roots of g
    g = [(j - 1) * a[j] for j in range(2, len(a))]
    t = np.array(_interior_critical_points(g, 0.0, u_right - p))
    if len(t):  # one Newton polish
        with np.errstate(divide="ignore", invalid="ignore"):
            polished = t - _poly.polyval(t, g) / _poly.polyval(t, _poly.polyder(g))
        t = np.where((polished > 0.0) & (polished < u_right - p), polished, t)
    q = [u_right] + [float(p + x) for x in t if p < p + x < u_right]
    c = [abs(x) for x in flux.coefficients]
    # Python floats: the same roundings as numpy's, overflow without a warning
    slopes = [divided_difference(flux.coefficients, p, x) for x in q]
    bound = [len(c) * _EPS * divided_difference(c, abs(p), abs(x)) for x in q]
    if not all(map(math.isfinite, slopes + bound)):
        raise CoverageError("chord slopes of the flux overflow doubles on states of "
                            "magnitude up to %g" % max(abs(p), abs(u_right)))
    k = slopes.index(min(slopes))
    far = max(x for x, s, e in zip(q, slopes, bound) if s <= slopes[k] + bound[k] + e)
    return far, float(derivative(flux, p)) < slopes[k]


def _fan_end(flux: FluxSpec, p: float, u_right: float) -> float:
    """End of the fan from p: u_right if f'' stays >= 0 up to it. Otherwise
    the fan ends before the first point c where f turns concave, where the
    tangent stops supporting f; being monotone on the convex [p, c], that
    test is bisected to one ulp, and the first state past it is returned.
    Where f' is at or above the chord to u_right, `_next_vertex`'s first
    slope, it is at or above the least slope too: no fan, and the tangency
    roots are not needed."""
    edges = [p] + sorted(_interior_critical_points(flux._d2, p, u_right)) + [u_right]
    concave = [lo for lo, hi in zip(edges, edges[1:])
               if second_derivative(flux, 0.5 * (lo + hi)) < 0.0]
    if not concave:
        return u_right
    lo, hi = p, concave[0]
    ulp = np.spacing(max(abs(lo), abs(hi)))
    while hi - lo > ulp:
        mid = 0.5 * (lo + hi)
        chord = divided_difference(flux.coefficients, mid, u_right)
        fan = not float(derivative(flux, mid)) >= chord and _next_vertex(flux, mid, u_right)[1]
        lo, hi = (mid, hi) if fan else (lo, mid)
    return hi


@np.errstate(over="ignore")   # an infinite f' compares right; solve_exact rejects its edge
def _solve_increasing(flux: FluxSpec, u_left: float, u_right: float) -> list:
    """Shocks and fans for u_left < u_right (convex envelope case)."""
    waves = []

    def add_shock(a, b):
        speed = divided_difference(flux.coefficients, a, b)
        fan = waves.pop() if waves and isinstance(waves[-1], RarefactionFan) else None
        # a fan of zero width, or over two adjacent doubles, folds into the shock
        if fan and (fan.xi_lo >= speed or fan.u_right == np.nextafter(fan.u_left, b)):
            return add_shock(fan.u_left, b)
        if fan:  # the fan ends on the tangent shock, at its speed
            waves.append(RarefactionFan(fan.xi_lo, speed, fan.u_left, fan.u_right))
        waves.append(Shock(speed, a, b))

    p = u_left
    while p < u_right:
        q, fan = _next_vertex(flux, p, u_right)
        r = _fan_end(flux, p, u_right) if fan else p
        if r > p:
            edge = float(derivative(flux, r))
            prev = waves[-1] if waves else None
            if isinstance(prev, RarefactionFan):  # split off by a concave sliver
                waves[-1] = RarefactionFan(prev.xi_lo, edge, prev.u_left, r)
            else:
                xi_lo = prev.xi_hi if prev else float(derivative(flux, p))
                waves.append(RarefactionFan(xi_lo, edge, p, r))
            p = r
        else:
            add_shock(p, q)
            p = q
    last = waves[-1]
    if isinstance(last, RarefactionFan) and last.xi_hi <= last.xi_lo:
        waves.pop()
        add_shock(last.u_left, last.u_right)
    return waves


def _with_constants(waves, u_left):
    """Insert the surrounding constant states, and those of positive width
    between waves."""
    full = []
    cursor_u, cursor_xi = u_left, -np.inf
    for w in waves:
        if w.xi_lo > cursor_xi:
            full.append(ConstantState(cursor_u, cursor_xi, w.xi_lo))
        full.append(w)
        cursor_u, cursor_xi = w.u_right, w.xi_hi
    full.append(ConstantState(cursor_u, cursor_xi, np.inf))
    return tuple(full)


@functools.lru_cache(maxsize=64)
def solve_exact(flux: FluxSpec, u_left: float, u_right: float) -> RiemannSolution:
    """Exact self-similar entropy solution connecting u_left to u_right.

    The wave sequence has nondecreasing speeds, every shock satisfies the
    Rankine-Hugoniot relation by construction, and the xi-intervals of the
    waves partition the line exactly: each wave starts where the one before
    it ends, a fan next to a shock shares the shock's speed as its edge, and
    constant states between waves have positive width. Data whose wave
    speeds do not fit in doubles raise CoverageError.
    """
    u_left = float(u_left)
    u_right = float(u_right)
    if not (np.isfinite(u_left) and np.isfinite(u_right)):
        raise InvalidParameterError("states must be finite")

    if u_left < u_right:
        waves = _solve_increasing(flux, u_left, u_right)
    elif u_left > u_right:
        # decreasing data: solve the reflected increasing problem with
        # g(v) = -f(-v) and map v -> -v (speeds are preserved)
        waves = [replace(w, u_left=-w.u_left, u_right=-w.u_right)
                 for w in _solve_increasing(_reflected_flux(flux), -u_left, -u_right)]
    else:
        waves = []
    # f' may overflow where no chord slope does, by up to a factor of the degree
    if not all(math.isfinite(e) for w in waves for e in (w.xi_lo, w.xi_hi)):
        raise CoverageError("wave speeds of the flux overflow doubles on states of "
                            "magnitude up to %g" % max(abs(u_left), abs(u_right)))
    return RiemannSolution(flux, u_left, u_right, _with_constants(waves, u_left))


def _invert_fan(flux: FluxSpec, fan: RarefactionFan, xi: np.ndarray) -> np.ndarray:
    """u with f'(u) = xi on the fan, where f' is monotone: Newton steps kept
    inside a bisection bracket. The step tolerance is absolute, since a
    relative one stalls on a fan that starts at an inflection point; a point
    whose f'(u) - xi is at the rounding level of xi also stops, since its
    steps only follow noise (on poly:0,10,0,1 they never met the tolerance)."""
    lo = np.full_like(xi, fan.u_left)   # f'(lo) <= xi
    hi = np.full_like(xi, fan.u_right)  # f'(hi) >= xi
    share = np.clip((xi - fan.xi_lo) / (fan.xi_hi - fan.xi_lo), 0.0, 1.0)
    u = fan.u_left + share * (fan.u_right - fan.u_left)
    tol = 4.0 * _EPS * max(abs(fan.u_left), abs(fan.u_right))
    noise = 4.0 * _EPS * np.abs(xi)
    for _ in range(100):
        gap = derivative(flux, u) - xi
        below = gap <= 0.0
        lo = np.where(below, u, lo)
        hi = np.where(below, hi, u)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = u - gap / second_derivative(flux, u)
        # lo > hi on a decreasing fan; comparisons cannot overflow as a product can
        inside = (newton >= np.minimum(lo, hi)) & (newton <= np.maximum(lo, hi))
        new = np.where(inside, newton, 0.5 * (lo + hi))
        done = (np.abs(new - u) <= tol) | (np.abs(gap) <= noise)
        u = new
        if np.all(done):
            break
    return np.where(xi <= fan.xi_lo, fan.u_left, np.where(xi >= fan.xi_hi, fan.u_right, u))


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
            out[mask] = _invert_fan(sol.flux, piece, xi_arr[mask])
    if np.ndim(xi) == 0:
        return float(out[0])
    return out


def describe_waves(sol: RiemannSolution) -> list[str]:
    """Human-readable wave list for reports."""
    lines = []
    for w in sol.waves:
        if isinstance(w, ConstantState):
            lines.append("constant u=%.12g on xi in (%.12g, %.12g)" % (w.u, w.xi_lo, w.xi_hi))
        elif isinstance(w, Shock):
            lines.append("shock at xi=%.12g: %.12g -> %.12g" % (w.speed, w.u_left, w.u_right))
        else:
            lines.append("rarefaction fan on xi in (%.12g, %.12g): %.12g -> %.12g"
                         % (w.xi_lo, w.xi_hi, w.u_left, w.u_right))
    return lines
