"""Unbounded corner layer at the edge of a rarefaction fan (quadratic flux).

In stretched variables the layer profile U solves

    U'' = (U - xi) U'        on the whole line,

flat on the left (U -> 0 with all derivatives super-exponentially small) and
merging with the fan U ~ xi on the right. The equation has an exact first
integral

    H = (U - xi)^2 / 2 - (U' - 1) + ln U',

constant along solutions; the profile of interest is the H = 0 branch with
slope 0 < U' <= 1. On that branch the slope is a function of the deviation
w = U - xi alone,

    U' = P(w),   where  p = P(w)  solves  p - 1 - ln p = w^2 / 2,

which collapses the second-order problem to a first-order one and eliminates
any drift in H. The inversion is done in q = ln p, so the slope keeps full
*relative* accuracy even where it is of order exp(-1 - xi^2/2); inverting in
p itself at a fixed absolute tolerance would destroy the first-integral
identity in the left tail.

The integration variable is U rather than w: in the left tail U spans
hundreds of decades below 1 while w stays O(|xi|), so integrating w and
recovering U = xi + w would erase U's value entirely (absolute float noise
~1e-15 versus U ~ 1e-33 already at xi = -8). Tracking U directly with pure
relative error control keeps every sampled value strictly positive, strictly
increasing, and strictly convex, which the barrier checks below require
pointwise. The anchor value U(xi_min) = exp(-1 - xi_min^2/2)/|xi_min| is the
leading left-tail asymptote; perturbations of the anchor contract along the
flow (dP/dU < 0), so the anchoring choice does not pollute the profile.

The profile is pinned by comparison functions: it stays strictly between
`barrier_lower` and `barrier_upper` everywhere. On the right the deviation
w decays like A*exp(-xi) (rate one, not Gaussian), which `fit_tail_rate`
estimates from the computed profile.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .errors import (
    DegenerateProfileError,
    IntegrationError,
    InvalidParameterError,
    WindowError,
)

# int_{-inf}^0 exp(-t^2/2) dt; the test suite checks this closed form
# against adaptive quadrature
GAUSS_HALF_MASS = math.sqrt(math.pi / 2.0)

_Q_TOL = 1e-14


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
    while hi - lo > _Q_TOL:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # bracket is down to one ulp of q; as good as it gets
        if math.expm1(mid) - mid > s:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


@dataclass(frozen=True)
class StepControl:
    rtol: float = 1e-12
    atol: float = 0.0       # pure relative control: U > 0 spans ~300 decades
    max_step: float = 0.25
    method: str = "DOP853"


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
    out = math.sqrt(math.pi / 2.0) * erfc(-xi / math.sqrt(2.0))
    if out.ndim == 0:
        return float(out)
    return out


def barrier_lower(xi):
    """Strict lower comparison function max{0, xi}."""
    xi = np.asarray(xi, dtype=float)
    out = np.maximum(xi, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


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
    if out.ndim == 0:
        return float(out)
    return out


@functools.lru_cache(maxsize=8)
def solve_corner(xi_min: float = -8.0, xi_max: float = 10.0,
                 step_control: StepControl | None = None,
                 n_points: int = 2001) -> CornerProfile:
    """Trace the corner-layer profile on [xi_min, xi_max].

    Returns samples on the union of the integrator's accepted nodes and
    n_points equispaced output nodes. xi_min must be <= -4 so the left-tail
    anchoring error is negligible; xi_max is capped where the deviation
    w ~ e^{-xi} would fall below the floating-point resolution of U itself.

    The profile depends on the arguments alone, so the last few are kept:
    a repeated call returns the same object, whose arrays are read-only.
    """
    xi_min = float(xi_min)
    xi_max = float(xi_max)
    if not (-30.0 <= xi_min <= -4.0):
        raise InvalidParameterError("xi_min must lie in [-30, -4]")
    if not (0.0 < xi_max <= 30.0):
        raise InvalidParameterError("xi_max must lie in (0, 30]")
    if n_points < 2:
        raise InvalidParameterError("n_points must be at least 2")
    ctrl = step_control or StepControl()

    from scipy.integrate import solve_ivp   # deferred: slow to import
    u0 = math.exp(-1.0 - 0.5 * xi_min * xi_min) / abs(xi_min)

    def rhs(xi, y):
        w = y[0] - xi
        return (invert_first_integral(w if w > 0.0 else 0.0),)

    sol = solve_ivp(rhs, (xi_min, xi_max), (u0,), method=ctrl.method,
                    rtol=ctrl.rtol, atol=ctrl.atol, max_step=ctrl.max_step,
                    dense_output=True)
    if not sol.success:
        raise IntegrationError("corner-layer integration failed: %s" % sol.message)

    grid = np.union1d(sol.t, np.linspace(xi_min, xi_max, n_points))
    u = sol.sol(grid)[0]
    w = u - grid
    p = np.array([invert_first_integral(wi if wi > 0.0 else 0.0) for wi in w])
    for a in (grid, u, p, w):
        a.setflags(write=False)
    return CornerProfile(xi=grid, u=u, p=p, w=w)


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
