"""Unbounded corner layer at the edge of a rarefaction fan (quadratic flux).

In stretched variables the layer profile U solves

    U'' = (U - xi) U'        on the whole line,

flat on the left (U -> 0 with all derivatives super-exponentially small) and
merging with the fan U ~ xi on the right. Along it the first integral
H = (U - xi)^2 / 2 - (U' - 1) + ln U' is constant; the profile of interest
is the H = 0 branch, on which the slope p = U' in (0, 1] and the deviation
w = U - xi satisfy p - 1 - ln p = w^2 / 2.

In q = ln p < 0 that branch is explicit: w dw = (p - 1) dq and
dw/dxi = p - 1 give w = sqrt(2 (e^q - 1 - q)), dxi/dq = 1/w and
dU/dq = e^q / w. One quadrature, U(q) = int_{-inf}^q e^r / w(r) dr, is the
whole profile, since xi = U - w follows exactly (d(U - w)/dq = 1/w). H
vanishes to rounding at every node, as p and w are closed forms of q, and U
is a sum of positive terms: it keeps full *relative* accuracy in the left
tail, where it is ~1e-33 at xi = -8 and xi + w would leave only float noise.

The quadrature runs in t = -ln(-q), where the integrand e^q (-q)/w tends to
1 on the fan side: 8-point Gauss-Legendre on uniform cells, each at most
one e-folding of the integrand wide, and a running sum. The sum is anchored
at w0 = |xi_min| + 4 on the left-tail expansion U = (p/w)(1 - 1/w^2 +
3/w^4 - ...), from integrating by parts; its first omitted term, 15/w0^6
relative, shrinks by exp(-(w0^2 - xi_min^2)/2) <= e^-24 by xi_min. Newton
in t (dxi/dt = -q/w) lands on the requested nodes, each U being the nearest
table value plus one partial Gauss-Legendre segment.

The profile is pinned by comparison functions: it stays strictly between
`barrier_lower` and `barrier_upper` everywhere. On the right the deviation
w decays like A*exp(-xi) (rate one, not Gaussian), which `fit_tail_rate`
estimates from the computed profile.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProfileError, InvalidParameterError, WindowError

# int_{-inf}^0 exp(-t^2/2) dt; the test suite checks this closed form
# against adaptive quadrature
GAUSS_HALF_MASS = math.sqrt(math.pi / 2.0)

# 8-point Gauss-Legendre nodes and weights, mapped to [0, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


def invert_first_integral(w: float) -> float:
    """The slope branch p in (0, 1] solving p - 1 - ln p = w^2 / 2, w >= 0.

    Bisection on q = ln p: psi(q) = expm1(q) - q is strictly decreasing on
    q <= 0, from +inf down to 0, so the root is bracketed by
    [-(w^2/2 + 2), 0]. Working in q makes the error bound |dq| <= 1e-14 a
    *relative* bound on p, which is far below the contractual 1e-14 absolute
    tolerance and, more importantly, keeps the defining identity satisfied
    to ~1e-14 even when p underflows toward exp(-450).
    """
    w = float(w)
    if not np.isfinite(w) or w < 0.0:
        raise InvalidParameterError("invert_first_integral needs finite w >= 0")
    if w == 0.0:
        return 1.0
    s = 0.5 * w * w
    lo = -(s + 2.0)
    hi = 0.0
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # bracket is down to one ulp of q; as good as it gets
        if math.expm1(mid) - mid > s:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


@dataclass(frozen=True)
class CornerProfile:
    """Corner-layer profile samples: u = U(xi), slope p = U', deviation w = U - xi."""

    xi: np.ndarray
    u: np.ndarray
    p: np.ndarray
    w: np.ndarray


@dataclass(frozen=True)
class BarrierUpper:
    """Upper comparison function parameters.

    The right-tail piece xi + I*exp(-(xi-1)/L) is a supersolution exactly
    when 1 - 1/L^2 - I/L > 0, which the constructor enforces.
    """

    L: float = 10.0
    I: float = GAUSS_HALF_MASS

    def __post_init__(self):
        if not (np.isfinite(self.L) and self.L > 0.0):
            raise InvalidParameterError("barrier stretch L must be positive")
        if 1.0 - 1.0 / self.L**2 - self.I / self.L <= 0.0:
            raise InvalidParameterError(
                "barrier requires 1 - 1/L^2 - I/L > 0 (L too small)")


def gaussian_left_mass(xi):
    """int_{-inf}^{xi} exp(-t^2/2) dt, stable in the far left tail."""
    xi = np.asarray(xi, dtype=float)
    out = GAUSS_HALF_MASS * np.vectorize(math.erfc, otypes=[float])(-xi / math.sqrt(2.0))
    return float(out) if out.ndim == 0 else out


def barrier_lower(xi):
    """Strict lower comparison function max{0, xi}."""
    xi = np.asarray(xi, dtype=float)
    out = np.maximum(xi, 0.0)
    return float(out) if out.ndim == 0 else out


def barrier_upper(xi, barrier: BarrierUpper | None = None):
    """Strict upper comparison function: Gaussian mass for xi <= 0, the
    shifted fan line xi + I on (0, 1], and an exponentially relaxing excess
    xi + I*exp(-(xi-1)/L) beyond."""
    b = barrier or BarrierUpper()
    xi = np.asarray(xi, dtype=float)
    left = gaussian_left_mass(xi)
    mid = xi + b.I
    right = xi + b.I * np.exp(-(xi - 1.0) / b.L)
    out = np.where(xi <= 0.0, left, np.where(xi <= 1.0, mid, right))
    return float(out) if out.ndim == 0 else out


def _branch(t):
    """(q, w, dU/dt) on the H = 0 branch at t = -ln(-q); e^q - 1 - q is
    summed as its series where expm1(q) - q would cancel."""
    q = -np.exp(-t)
    series = 0.5 * q * q * (1.0 + q / 3.0 * (1.0 + q / 4.0 * (1.0 + q / 5.0 * (
        1.0 + q / 6.0 * (1.0 + q / 7.0 * (1.0 + q / 8.0))))))
    w = np.sqrt(2.0 * np.where(np.abs(q) < 1e-2, series, np.expm1(q) - q))
    return q, w, np.exp(q) * (-q) / w


def _gauss_legendre(t0, t1):
    """Elementwise integral of dU/dt from t0 to t1, one 8-point rule each."""
    d = t1 - t0
    return d * (_branch(t0[:, None] + d[:, None] * _GL_NODES)[2] @ _GL_WEIGHTS)


def solve_corner(xi_min: float = -8.0, xi_max: float = 10.0,
                 n_points: int = 2001) -> CornerProfile:
    """The corner-layer profile at n_points equispaced nodes of [xi_min, xi_max].

    xi_min must lie in [-30, -4]; xi_max is capped at 30, where the
    deviation w ~ e^{-xi} nears the floating-point resolution of U itself.

    The profile depends on the argument values alone, so the last few are
    kept, keyed on the values however the call spells them: a repeated call
    returns the same object, whose arrays are read-only.
    """
    return _corner_profile(float(xi_min), float(xi_max), operator.index(n_points))


@functools.lru_cache(maxsize=8)
def _corner_profile(xi_min: float, xi_max: float, n_points: int) -> CornerProfile:
    """`solve_corner` on normalised arguments."""
    if not (-30.0 <= xi_min <= -4.0):
        raise InvalidParameterError("xi_min must lie in [-30, -4]")
    if not (0.0 < xi_max <= 30.0):
        raise InvalidParameterError("xi_max must lie in (0, 30]")
    if n_points < 2:
        raise InvalidParameterError("n_points must be at least 2")

    # the table starts at w0 = |xi_min| + 4, where -q ~ w0^2/2 + 1 is also
    # the integrand's largest log-slope in t, and ends past xi_max (xi - t
    # tends to about -0.41 on the fan side)
    rate = 0.5 * (4.0 - xi_min) ** 2 + 1.0
    t_lo, t_hi = -math.log(rate), xi_max + 2.0
    cells = math.ceil((t_hi - t_lo) * max(64.0, rate))
    t = np.linspace(t_lo, t_hi, cells + 1)
    q, w, _ = _branch(t)
    anchor = math.exp(q[0]) / w[0] * (1.0 - w[0] ** -2 + 3.0 * w[0] ** -4)
    table = np.concatenate(([anchor], anchor + np.cumsum(_gauss_legendre(t[:-1], t[1:]))))

    xi = np.linspace(xi_min, xi_max, n_points)
    s = np.interp(xi, table - w, t)   # Newton from here takes one or two steps
    tol = 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(xi))
    for _ in range(8):
        k = np.rint((s - t_lo) * (cells / (t_hi - t_lo))).astype(int).clip(0, cells)
        u = table[k] + _gauss_legendre(t[k], s)
        q, w, _ = _branch(s)
        gap = xi - (u - w)
        if np.all(np.abs(gap) <= tol):
            break
        s = s + gap * w / -q
    p = np.exp(q)
    for a in (xi, u, p, w):
        a.setflags(write=False)
    return CornerProfile(xi=xi, u=u, p=p, w=w)


def first_integral_H(profile, epsilon: float):
    """Per-node first-integral values H = (u-xi)^2/(2 eps) - (u_xi - 1) + ln|u_xi|.

    Accepts either a corner profile (slope field p) or a viscous-profile
    record (slope field du). For the corner profile with epsilon = 1 this is
    the invariant that the construction holds at exactly 0; along a viscous
    quadratic-flux profile the generalized form is constant. (Its derivative
    along eps*u'' = (u - xi) u' vanishes identically: differentiating gives
    (u-xi)(u'-1)/eps - u'' + u''/u', and substituting u'' = (u-xi)u'/eps
    cancels everything.)
    """
    epsilon = float(epsilon)
    if not (np.isfinite(epsilon) and epsilon > 0.0):
        raise InvalidParameterError("epsilon must be positive")
    slope = getattr(profile, "p", None)
    if slope is None:
        slope = profile.du
    slope = np.asarray(slope, dtype=float)
    if np.any(slope == 0.0):
        raise DegenerateProfileError("zero slope: first integral is undefined")
    w = getattr(profile, "w", None)
    if w is None:
        w = np.asarray(profile.u, dtype=float) - np.asarray(profile.xi, dtype=float)
    w = np.asarray(w, dtype=float)
    return w * w / (2.0 * epsilon) - (slope - 1.0) + np.log(np.abs(slope))


def fit_tail_rate(corner: CornerProfile, window: tuple[float, float]) -> float:
    """Least-squares exponential decay rate of the deviation w = U - xi.

    Fits -ln w against xi over the window and returns the slope (the decay
    rate)."""
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise WindowError("empty tail window")
    if lo < corner.xi[0] or hi > corner.xi[-1]:
        raise WindowError("tail window outside the computed range")
    mask = (corner.xi >= lo) & (corner.xi <= hi)
    if int(mask.sum()) < 5:
        raise WindowError("tail window contains fewer than 5 nodes")
    w = corner.w[mask]
    if np.any(w <= 0.0):
        raise DegenerateProfileError("deviation must stay positive in the window")
    coeffs = np.polyfit(corner.xi[mask], np.log(w), 1)
    return float(-coeffs[0])
