"""Flux functions for scalar conservation laws u_t + f(u)_x = 0.

A flux is a polynomial with ascending coefficients (token
``poly:c0,c1,...,cn``). The token ``burgers`` is an alias for the quadratic
flux f(u) = u^2/2, i.e. ``poly:0,0,0.5``. Polynomials are twice
differentiable, which is all the profile solver needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CoverageError, InvalidParameterError

_QUADRATIC = (0.0, 0.0, 0.5)  # f(u) = u^2/2, token alias "burgers"
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class FluxSpec:
    """Immutable polynomial flux f(u) = sum_k coefficients[k] * u**k.

    coefficients: ascending polynomial coefficients, degree >= 1.
    The coefficients of the first three derivatives are derived once, at
    construction (where one overflows, the flux is rejected), and kept out
    of equality and hashing.
    """

    coefficients: tuple[float, ...]
    _d1: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _d2: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _d3: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if len(coeffs) < 2 or all(c == 0.0 for c in coeffs[1:]):
            raise InvalidParameterError(
                "polynomial flux must have degree >= 1 (got %r)" % (coeffs,)
            )
        if not all(np.isfinite(coeffs)):
            raise InvalidParameterError("polynomial coefficients must be finite")
        with np.errstate(over="ignore"):
            ders = [np.polynomial.polynomial.polyder(coeffs, m) for m in (1, 2, 3)]
        if not all(np.all(np.isfinite(d)) for d in ders):
            raise InvalidParameterError(
                "the derivatives' coefficients overflow doubles (got %r)" % (coeffs,))
        for m, d in enumerate(ders, start=1):
            d.setflags(write=False)
            object.__setattr__(self, "_d%d" % m, d)


def burgers_flux() -> FluxSpec:
    """The quadratic flux f(u) = u^2/2."""
    return FluxSpec(_QUADRATIC)


def polynomial_flux(coefficients) -> FluxSpec:
    return FluxSpec(tuple(coefficients))


def has_identity_derivative(flux: FluxSpec) -> bool:
    """True when f'(u) = u, as for the quadratic flux u^2/2 plus any constant.

    The profile equation is then eps*u'' = (u - xi)*u', which is invariant
    under (xi, u) -> (xi + lam, u + lam) and under the odd reflection
    (xi, u) -> (uL + uR - xi, uL + uR - u)."""
    return tuple(np.trim_zeros(flux._d1, "b")) == (0.0, 1.0)


def parse_flux_token(token: str) -> FluxSpec:
    """Parse a flux token: ``burgers`` or ``poly:c0,c1,...,cn``."""
    token = token.strip()
    if token == "burgers":
        return burgers_flux()
    if token.startswith("poly:"):
        body = token[len("poly:"):]
        try:
            coeffs = tuple(float(part) for part in body.split(","))
        except ValueError:
            raise InvalidParameterError("malformed flux token %r" % (token,)) from None
        return polynomial_flux(coeffs)
    raise InvalidParameterError("malformed flux token %r" % (token,))


def format_flux_token(flux: FluxSpec) -> str:
    if flux.coefficients == _QUADRATIC:
        return "burgers"
    return "poly:" + ",".join(repr(c) for c in flux.coefficients)


def evaluate(flux: FluxSpec, u):
    """f(u); accepts scalars or arrays."""
    return np.polynomial.polynomial.polyval(u, flux.coefficients)


def _polyval(u, coeffs: np.ndarray, out: np.ndarray | None):
    """polyval(u, coeffs) by Horner's rule, written into `out` if one is
    given: the same steps as numpy's polyval, so the values and the type
    of a scalar result are those of numpy's."""
    out = u * 0.0 if out is None else np.multiply(u, 0.0, out=out)
    out += coeffs[-1]
    for a in coeffs[-2::-1]:
        out *= u
        out += a
    return out


def derivative(flux: FluxSpec, u, out: np.ndarray | None = None):
    """f'(u); accepts scalars or arrays. An array `u` may come with an
    `out` array of its shape to write the values into."""
    return _polyval(u, flux._d1, out)


def second_derivative(flux: FluxSpec, u, out: np.ndarray | None = None):
    """f''(u); accepts scalars or arrays, and `out` as `derivative` does."""
    return _polyval(u, flux._d2, out)


def _interior_critical_points(coeffs, lo: float, hi: float) -> list[float]:
    """Real roots of the polynomial with the given ascending coefficients
    that lie strictly inside (lo, hi).

    Leading coefficients below the rounding of the others on the interval
    are trimmed first: with R = max(1, |lo|, |hi|), c_n goes while
    |c_n|*R^n <= eps_mach * sum_{k<n} |c_k|*R^k (zeros always go). The roots
    inside do not move: a root u of the untrimmed polynomial with |u| <= R
    has |q(u)| = |c_n*u^n| <= eps_mach * sum_{k<n} |c_k|*R^k for the trimmed
    q, so it is a root of q up to a change of q's coefficients by one
    rounding, which is all the accuracy any root finder has from them. The
    trim keeps `polyroots` from dividing by a negligible (say subnormal)
    c_n, which overflows. Where a ratio c_k/c_n still overflows, or a
    coefficient is not finite, the companion matrix whose eigenvalues are
    the roots is not finite, and CoverageError is raised.
    """
    c = np.asarray(coeffs, dtype=float)
    r = 1.0 / max(1.0, abs(lo), abs(hi))
    # sum_{k<n} |c_k| r^(n-k) = (sum_{k<n} |c_k| R^k) / R^n, without overflow
    while len(c) > 1 and abs(c[-1]) <= _EPS * r * np.polynomial.polynomial.polyval(
            r, np.abs(c[-2::-1])):
        c = c[:-1]
    if len(c) < 2:
        return []
    with np.errstate(over="ignore", invalid="ignore"):
        companion = np.polynomial.polynomial.polycompanion(c)
    if not np.all(np.isfinite(companion)):
        raise CoverageError("the roots of a polynomial with coefficients %r are "
                            "out of the range of doubles" % (tuple(c.tolist()),))
    roots = np.polynomial.polynomial.polyroots(c)
    out = []
    for r in roots:
        if abs(r.imag) <= 1e-9 * (1.0 + abs(r.real)) and lo < r.real < hi:
            out.append(float(r.real))
    return out


def _range(p, dp, lo: float, hi: float) -> tuple[float, float]:
    """(min, max) of the polynomial with ascending coefficients p over
    [lo, hi], lo <= hi, from its values at both ends and at the roots of its
    derivative's coefficients dp inside: exact, since a polynomial's
    extremes on an interval lie at an end or at a critical point.  A value
    out of the range of doubles comes back infinite, without a warning."""
    candidates = [lo, hi] + _interior_critical_points(dp, lo, hi)
    with np.errstate(over="ignore"):
        vals = np.polynomial.polynomial.polyval(np.asarray(candidates), p)
    return float(np.min(vals)), float(np.max(vals))


def lipschitz_of_derivative(flux: FluxSpec, lo: float, hi: float) -> float:
    """The Lipschitz constant of f' on [lo, hi], i.e. sup |f''| (`_range`)."""
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise InvalidParameterError("interval endpoints must be finite")
    if lo > hi:
        raise InvalidParameterError("invalid interval: lo > hi")
    return max(map(abs, _range(flux._d2, flux._d3, lo, hi)))


def derivative_range(flux: FluxSpec, lo: float, hi: float) -> tuple[float, float]:
    """(min, max) of f' over the closed interval between lo and hi
    (`_range`); (f'(lo), f'(lo)) when lo == hi."""
    if lo > hi:
        lo, hi = hi, lo
    return _range(flux._d1, flux._d2, lo, hi)


def sup_derivative(flux: FluxSpec, lo: float, hi: float) -> float:
    """sup |f'| over the closed interval between lo and hi."""
    return max(map(abs, derivative_range(flux, lo, hi)))


def divided_difference(coefficients, a, b):
    """(p(b) - p(a))/(b - a) for the polynomial p with ascending coefficients
    c_k, elementwise in a and b, as sum_{k>=1} c_k*h_(k-1)(a, b) with
    h_m = h_(m-1)*b + a^m (powers by repeated products): it takes no
    difference of nearby values, and is p'(a) at a == b.

    Where a power or the running sum overflows, the slope itself may not.
    So a sum that is not finite is formed again on the states scaled by
    2^-e into [-1, 1], where |h_(k-1)| <= k, with each c_k scaled by
    2^(e(k-1) - g), g >= 0 the least shift that keeps sum_k |c_k|*k below
    2^1023; that sum times 2^g is the slope, infinite only where it
    overflows. The scalings are exact unless a scaled value leaves the
    normal range. A finite sum is returned as it is, and so is one where
    e = g = 0: that is a non-finite state (`math.frexp` gives inf and nan
    the exponent 0), whose sum formed again on the same arguments would
    recurse without end. Only a Python float sum is formed again; numpy
    values are summed once."""
    total, h, a_pow = 0.0, 0.0, 1.0
    for c in coefficients[1:]:
        h, a_pow = h * b + a_pow, a_pow * a
        total += c * h
    if type(total) is not float or math.isfinite(total):
        return total
    e = math.frexp(max(abs(a), abs(b)))[1]
    terms = list(enumerate(coefficients[1:], start=1))
    top = max((math.frexp(c)[1] + e * (k - 1) for k, c in terms if c), default=0)
    bound = sum(abs(math.ldexp(c, e * (k - 1) - top)) * k for k, c in terms)
    g = max(0, top + math.frexp(bound)[1] - 1023)
    if not (e or g):
        return total
    scaled = [0.0] + [math.ldexp(c, e * (k - 1) - g) for k, c in terms]
    slope = divided_difference(scaled, math.ldexp(a, -e), math.ldexp(b, -e))
    try:
        return math.ldexp(slope, g)
    except OverflowError:
        return math.copysign(math.inf, slope)
