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

The profile stays strictly between the comparison functions max(0, xi)
and the Gaussian/fan upper barrier, and on the right the deviation w decays
like A*exp(-xi) (rate one, not Gaussian); the test suite checks both on the
computed profile.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

# 8-point Gauss-Legendre nodes and weights, mapped to [0, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


@dataclass(frozen=True)
class CornerProfile:
    """Corner-layer profile samples: u = U(xi), slope p = U', deviation w = U - xi."""

    xi: np.ndarray
    u: np.ndarray
    p: np.ndarray
    w: np.ndarray


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


def first_integral_H(w, slope, epsilon: float):
    """Per-node first-integral values H = w^2/(2 eps) - (slope - 1) + ln|slope|
    of a profile with deviation w = u - xi and slope u_xi.

    For the corner profile (w, p) with epsilon = 1 this is the invariant
    that the construction holds at exactly 0; along a viscous quadratic-flux
    profile the generalized form is constant. (Its derivative along
    eps*u'' = (u - xi) u' vanishes identically: differentiating gives
    (u-xi)(u'-1)/eps - u'' + u''/u', and substituting u'' = (u-xi)u'/eps
    cancels everything.)
    """
    epsilon = float(epsilon)
    if not (np.isfinite(epsilon) and epsilon > 0.0):
        raise InvalidParameterError("epsilon must be positive")
    slope = np.asarray(slope, dtype=float)
    if np.any(slope == 0.0):
        raise InvalidParameterError("zero slope: first integral is undefined")
    w = np.asarray(w, dtype=float)
    return w * w / (2.0 * epsilon) - (slope - 1.0) + np.log(np.abs(slope))
