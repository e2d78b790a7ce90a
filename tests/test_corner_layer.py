"""Corner profile: slope inversion, quadrature accuracy, barriers, tails."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad, solve_ivp

import wavefan as wf
from corner_oracles import (
    GAUSS_HALF_MASS,
    BarrierUpper,
    barrier_lower,
    barrier_upper,
    fit_tail_rate,
    gaussian_left_mass,
    invert_first_integral,
)
from wavefan import corner_layer
from wavefan.errors import InvalidParameterError


def bisect_p_direct(w, iters=300):
    """Oracle: bisection directly in p on p - 1 - ln p = w^2/2."""
    target = 0.5 * w * w
    lo, hi = 1e-300, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if mid - 1.0 - math.log(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# slope inversion

def test_invert_pinned_values():
    assert invert_first_integral(0.0) == 1.0
    assert invert_first_integral(2.0) == pytest.approx(0.0524691, abs=1e-6)
    assert invert_first_integral(0.1) == pytest.approx(0.9033052, abs=1e-6)


def test_invert_matches_direct_bisection():
    rng = np.random.default_rng(3)
    ws = np.concatenate([rng.uniform(0, 3, 60), rng.uniform(3, 20, 30),
                         rng.uniform(0, 0.01, 10)])
    for w in ws:
        p = invert_first_integral(float(w))
        assert abs(p - bisect_p_direct(float(w))) <= 1e-12


def test_invert_rejects_bad_arguments():
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(InvalidParameterError):
            invert_first_integral(bad)


@given(w=st.floats(0.0, 12.0))
def test_invert_satisfies_defining_identity(w):
    p = invert_first_integral(w)
    assert 0.0 < p <= 1.0
    assert abs((p - 1.0 - math.log(p)) - 0.5 * w * w) <= 1e-11 * max(1.0, 0.5 * w * w)


@given(w1=st.floats(0.0, 10.0), w2=st.floats(0.0, 10.0))
def test_invert_monotone_decreasing(w1, w2):
    lo, hi = min(w1, w2), max(w1, w2)
    assert invert_first_integral(hi) <= invert_first_integral(lo)


# ---------------------------------------------------------------------------
# barriers

def test_gaussian_half_mass_against_quadrature():
    val, err = quad(lambda t: math.exp(-0.5 * t * t), -np.inf, 0.0)
    assert GAUSS_HALF_MASS == pytest.approx(val, abs=max(1e-13, 2 * err))
    assert GAUSS_HALF_MASS == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-15)


def test_gaussian_left_mass_values():
    assert gaussian_left_mass(0.0) == pytest.approx(GAUSS_HALF_MASS, rel=1e-13)
    val, _ = quad(lambda t: math.exp(-0.5 * t * t), -np.inf, -1.3)
    assert gaussian_left_mass(-1.3) == pytest.approx(val, rel=1e-12)
    assert gaussian_left_mass(-40.0) < 1e-300


def test_barrier_lower_is_positive_part():
    xs = np.array([-3.0, -0.5, 0.0, 0.7, 9.0])
    assert np.array_equal(barrier_lower(xs), np.maximum(xs, 0.0))


def test_barrier_upper_pinned_values():
    I = GAUSS_HALF_MASS
    L = 10.0
    assert barrier_upper(0.0) == pytest.approx(I, rel=1e-12)
    assert barrier_upper(1.0) == pytest.approx(1.0 + I, rel=1e-12)
    assert barrier_upper(1.0 + L) == pytest.approx(1.0 + L + I / math.e, rel=1e-12)


def test_barrier_upper_rejects_bad_decay_length():
    with pytest.raises(InvalidParameterError):
        BarrierUpper(L=0.0)
    with pytest.raises(InvalidParameterError):
        BarrierUpper(L=-3.0)
    with pytest.raises(InvalidParameterError):
        BarrierUpper(L=1.5)  # 1 - 1/L^2 - I/L <= 0: not a supersolution
    BarrierUpper(L=2.0)  # validity margin just positive


def test_barrier_upper_continuous_at_joints():
    b = BarrierUpper()
    for joint in (0.0, 1.0, 1.0 + b.L):
        left = barrier_upper(joint - 1e-9, b)
        right = barrier_upper(joint + 1e-9, b)
        assert left == pytest.approx(right, abs=1e-7)


# ---------------------------------------------------------------------------
# the corner profile itself

def test_corner_brackets_strictly(corner):
    assert np.all(corner.u > barrier_lower(corner.xi))
    assert np.all(corner.u < barrier_upper(corner.xi))


def test_corner_first_integral_vanishes(corner):
    h = wf.first_integral_H(corner.w, corner.p, 1.0)
    assert np.max(np.abs(h)) <= 1e-12


def test_corner_slope_in_unit_interval_and_convex(corner):
    assert np.all(corner.p > 0.0)
    assert np.all(corner.p < 1.0)
    assert np.all(np.diff(corner.p) > 0.0)  # U'' = w p > 0


def test_corner_left_tail_gaussian_bound(corner):
    mask = corner.xi <= -2.0
    assert mask.sum() > 10
    assert np.all(corner.u[mask] <= np.exp(-0.5 * corner.xi[mask] ** 2))


def test_corner_value_pins(corner):
    u0 = float(np.interp(0.0, corner.xi, corner.u))
    assert 0.0 < u0 < 1.2534
    assert float(np.interp(-4.0, corner.xi, corner.u)) < 1e-3


def test_corner_against_independent_reintegration(corner):
    # different integrator and tolerance, same reduced equation
    xi_min = float(corner.xi[0])
    u0 = math.exp(-1.0 - 0.5 * xi_min * xi_min) / abs(xi_min)

    def rhs(xi, y):
        w = y[0] - xi
        return (invert_first_integral(w if w > 0.0 else 0.0),)

    ref = solve_ivp(rhs, (xi_min, float(corner.xi[-1])), (u0,), method="RK45",
                    rtol=1e-11, atol=1e-14, dense_output=True)
    assert ref.success
    diff = corner.u - ref.sol(corner.xi)[0]
    assert np.max(np.abs(diff)) <= 1e-8


def test_corner_against_quadrature_of_the_first_integral():
    # on the H = 0 branch U(q) = int_{-inf}^q e^r/w(r) dr and xi = U - w,
    # with q = ln U' and w = sqrt(2(e^q - 1 - q)); quad takes the integral
    # as e^q * int_0^inf e^-s/w(q - s) ds, so it is scaled to U itself
    def w_of(r):
        return math.sqrt(2.0 * (math.expm1(r) - r))

    targets = np.array([-8.0, -7.0, -6.0, -4.0, 0.0, 3.0])
    corner = wf.solve_corner(-8.0, 10.0, n_points=19)  # the integers
    idx = np.searchsorted(corner.xi, targets)
    assert np.array_equal(corner.xi[idx], targets)
    for k in idx:
        q = math.log(corner.p[k])
        tail, _ = quad(lambda s: math.exp(-s) / w_of(q - s), 0.0, np.inf,
                       epsabs=0.0, epsrel=1e-13, limit=200)
        big_u = math.exp(q) * tail
        assert corner.u[k] == pytest.approx(big_u, rel=1e-11, abs=0.0)
        assert corner.xi[k] == pytest.approx(big_u - w_of(q), rel=1e-11, abs=1e-11)


def test_corner_tail_rate_near_one(corner):
    assert fit_tail_rate(corner, (4.0, 8.0)) == pytest.approx(1.0, abs=0.1)


def test_solve_corner_validates_range():
    with pytest.raises(InvalidParameterError):
        wf.solve_corner(xi_min=-2.0)  # anchor asymptotics need xi_min <= -4
    with pytest.raises(InvalidParameterError):
        wf.solve_corner(xi_min=-40.0)
    with pytest.raises(InvalidParameterError):
        wf.solve_corner(xi_max=35.0)
    with pytest.raises(InvalidParameterError):
        wf.solve_corner(xi_max=-1.0)
    with pytest.raises(InvalidParameterError):
        wf.solve_corner(n_points=1)


def test_solve_corner_contains_requested_grid():
    out = wf.solve_corner(xi_min=-5.0, xi_max=6.0, n_points=501)
    assert np.array_equal(out.xi, np.linspace(-5.0, 6.0, 501))
    assert np.max(np.abs(out.u - out.w - out.xi)) <= 1e-14


def test_solve_corner_is_computed_once_and_read_only():
    first = wf.solve_corner(xi_min=-6.0, xi_max=7.0, n_points=301)
    assert wf.solve_corner(xi_min=-6.0, xi_max=7.0, n_points=301) is first
    for name in ("xi", "u", "p", "w"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(first, name)[0] = 0.0


def test_solve_corner_is_cached_on_argument_values():
    corner_layer._corner_profile.cache_clear()
    default = wf.solve_corner()
    assert wf.solve_corner(xi_max=10.0, n_points=2001) is default
    assert wf.solve_corner(-8.0, 10.0, 2001) is default
    assert wf.solve_corner(-8, 10, np.int64(2001)) is default
    assert corner_layer._corner_profile.cache_info().misses == 1
    with pytest.raises(TypeError):
        wf.solve_corner(n_points=2001.0)


# ---------------------------------------------------------------------------
# tail-rate fitting on synthetic data

def synthetic_corner(rate, n=200):
    xi = np.linspace(2.0, 9.0, n)
    w = np.exp(-rate * xi)
    p = np.array([invert_first_integral(x) for x in w])
    return wf.CornerProfile(xi=xi, u=w + xi, p=p, w=w)


def test_fit_tail_rate_recovers_synthetic_rates():
    assert fit_tail_rate(synthetic_corner(1.0), (3.0, 8.0)) == pytest.approx(1.0, abs=1e-6)
    assert fit_tail_rate(synthetic_corner(2.0), (3.0, 8.0)) == pytest.approx(2.0, abs=1e-6)


def test_fit_tail_rate_window_errors(corner):
    with pytest.raises(InvalidParameterError, match="tail window outside the computed range"):
        fit_tail_rate(corner, (50.0, 60.0))
    with pytest.raises(InvalidParameterError, match="empty tail window"):
        fit_tail_rate(corner, (8.0, 4.0))
    tiny = synthetic_corner(1.0, n=6)
    with pytest.raises(InvalidParameterError, match="tail window contains fewer than 5 nodes"):
        # fewer than five nodes inside the window
        fit_tail_rate(tiny, (2.0, 2.1))


def test_first_integral_rejects_zero_slope():
    prof = wf.CornerProfile(xi=np.array([0.0, 1.0]), u=np.array([1.0, 2.0]),
                            p=np.array([0.5, 0.0]), w=np.array([1.0, 1.0]))
    with pytest.raises(InvalidParameterError, match="zero slope: first integral is undefined"):
        wf.first_integral_H(prof.w, prof.p, 1.0)


def test_first_integral_rejects_bad_epsilon(corner):
    with pytest.raises(InvalidParameterError):
        wf.first_integral_H(corner.w, corner.p, 0.0)
    with pytest.raises(InvalidParameterError):
        wf.first_integral_H(corner.w, corner.p, -1.0)
