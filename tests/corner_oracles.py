"""Comparison functions, slope inversion and tail fit for the corner profile.

The corner profile U of `wavefan.corner_layer` stays strictly between the
comparison functions max{0, xi} and `barrier_upper`, its slope p = U' solves
p - 1 - ln p = w^2/2 with w = U - xi, and w decays like A*exp(-xi). These
helpers state those facts for the tests; no program path needs them.
"""

import math
from dataclasses import dataclass

import numpy as np

from wavefan.errors import DegenerateProfileError, InvalidParameterError, WindowError

# int_{-inf}^0 exp(-t^2/2) dt
GAUSS_HALF_MASS = math.sqrt(math.pi / 2.0)


def invert_first_integral(w):
    """The slope p in (0, 1] with p - 1 - ln p = w^2/2, w >= 0.

    Bisection on q = ln p, where expm1(q) - q decreases from +inf to 0 on
    q <= 0 and the root lies in [-(w^2/2 + 2), 0]; the bound on q is a
    relative bound on p, so the identity holds to rounding even where p
    underflows toward exp(-450).
    """
    w = float(w)
    if not np.isfinite(w) or w < 0.0:
        raise InvalidParameterError("invert_first_integral needs finite w >= 0")
    if w == 0.0:
        return 1.0
    s = 0.5 * w * w
    lo, hi = -(s + 2.0), 0.0
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # one ulp of q
        if math.expm1(mid) - mid > s:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


@dataclass(frozen=True)
class BarrierUpper:
    """The upper comparison function's decay length L and left mass I; the
    piece xi + I*exp(-(xi - 1)/L) is a supersolution exactly when
    1 - 1/L^2 - I/L > 0."""

    L: float = 10.0
    I: float = GAUSS_HALF_MASS

    def __post_init__(self):
        if not (np.isfinite(self.L) and self.L > 0.0):
            raise InvalidParameterError("barrier stretch L must be positive")
        if 1.0 - 1.0 / self.L**2 - self.I / self.L <= 0.0:
            raise InvalidParameterError(
                "barrier requires 1 - 1/L^2 - I/L > 0 (L too small)")


def _scalar_or_array(out):
    return float(out) if out.ndim == 0 else out


def gaussian_left_mass(xi):
    """int_{-inf}^{xi} exp(-t^2/2) dt, by erfc so the far left tail keeps
    its relative accuracy."""
    xi = np.asarray(xi, dtype=float)
    return _scalar_or_array(
        GAUSS_HALF_MASS * np.vectorize(math.erfc, otypes=[float])(-xi / math.sqrt(2.0)))


def barrier_lower(xi):
    """The lower comparison function max{0, xi}."""
    return _scalar_or_array(np.maximum(np.asarray(xi, dtype=float), 0.0))


def barrier_upper(xi, barrier=None):
    """The upper comparison function: the Gaussian mass for xi <= 0, the fan
    line shifted by its total I on (0, 1], and xi + I*exp(-(xi - 1)/L)
    beyond."""
    b = barrier or BarrierUpper()
    xi = np.asarray(xi, dtype=float)
    right = xi + b.I * np.exp(-(xi - 1.0) / b.L)
    return _scalar_or_array(
        np.where(xi <= 0.0, gaussian_left_mass(xi), np.where(xi <= 1.0, xi + b.I, right)))


def fit_tail_rate(corner, window):
    """Least-squares decay rate of w = U - xi: minus the slope of ln w
    against xi over the window, which must hold at least five nodes."""
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
    return float(-np.polyfit(corner.xi[mask], np.log(w), 1)[0])
