"""Flux descriptions: evaluation, derivatives, bounds, token round-trips."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import wavefan as wf
from wavefan.errors import InvalidParameterError
from wavefan.flux import divided_difference

BURGERS = wf.burgers_flux()
CUBIC = wf.polynomial_flux((0.0, 0.0, 0.0, 1.0))


def dense_abs_second_derivative_max(flux, lo, hi, n=20001):
    """Brute-force sup |f''| used as the oracle for the certified bound."""
    u = np.linspace(lo, hi, n)
    return float(np.max(np.abs([wf.second_derivative(flux, x) for x in u])))


def test_evaluate_pinned_values():
    assert wf.evaluate(BURGERS, 2.0) == 2.0
    assert wf.evaluate(CUBIC, 2.0) == 8.0
    assert wf.evaluate(BURGERS, 0.0) == 0.0


def test_derivative_pinned_values():
    assert wf.derivative(BURGERS, 3.0) == 3.0
    assert wf.derivative(CUBIC, 2.0) == 12.0
    assert wf.derivative(BURGERS, -1.0) == -1.0


def test_lipschitz_pinned_values():
    assert wf.lipschitz_of_derivative(BURGERS, -1.0, 1.0) == 1.0
    assert wf.lipschitz_of_derivative(CUBIC, 0.0, 1.0) == 6.0
    assert wf.lipschitz_of_derivative(CUBIC, -1.0, 1.0) == 6.0


def test_lipschitz_rejects_reversed_interval():
    with pytest.raises(InvalidParameterError):
        wf.lipschitz_of_derivative(BURGERS, 1.0, -1.0)
    with pytest.raises(InvalidParameterError, match="finite"):
        wf.lipschitz_of_derivative(BURGERS, -np.inf, 1.0)


def test_lipschitz_is_tight_upper_bound_of_dense_scan():
    rng = np.random.default_rng(42)
    for _ in range(12):
        coeffs = tuple(rng.uniform(-2.0, 2.0, rng.integers(2, 6)))
        try:
            flux = wf.polynomial_flux(coeffs)
        except InvalidParameterError:
            continue
        lo, hi = sorted(rng.uniform(-3.0, 3.0, 2))
        bound = wf.lipschitz_of_derivative(flux, lo, hi)
        scan = dense_abs_second_derivative_max(flux, lo, hi)
        assert bound >= scan - 1e-12 * max(1.0, scan)
        # exact evaluation at the polynomial's own critical points: the
        # 20001-point scan can undershoot only by its grid resolution
        assert bound <= scan + 1e-6 * max(1.0, scan) + 1e-9


def test_derivative_range_exact_for_burgers():
    assert wf.derivative_range(BURGERS, -1.0, 1.0) == (-1.0, 1.0)


def test_derivative_range_matches_dense_scan():
    rng = np.random.default_rng(3)
    for _ in range(12):
        coeffs = tuple(rng.uniform(-2.0, 2.0, rng.integers(2, 6)))
        try:
            flux = wf.polynomial_flux(coeffs)
        except InvalidParameterError:
            continue
        lo, hi = sorted(rng.uniform(-2.0, 2.0, 2))
        m, M = wf.derivative_range(flux, lo, hi)
        u = np.linspace(lo, hi, 20001)
        vals = np.array([wf.derivative(flux, x) for x in u])
        assert m <= vals.min() + 1e-9
        assert M >= vals.max() - 1e-9
        assert m >= vals.min() - 1e-6 * (1 + abs(vals.min()))
        assert M <= vals.max() + 1e-6 * (1 + abs(vals.max()))


def test_derivative_range_of_a_point_is_the_derivative_there():
    # the range scan on [a, a] gives f'(a) itself, bit for bit
    rng = np.random.default_rng(30)
    for _ in range(200):
        coeffs = rng.standard_normal(rng.integers(2, 8)) * 10.0 ** rng.uniform(-3.0, 3.0)
        try:
            flux = wf.polynomial_flux(coeffs)
        except InvalidParameterError:
            continue
        a = float(rng.uniform(-3.0, 3.0))
        v = float(wf.derivative(flux, a)).hex()
        assert [m.hex() for m in wf.derivative_range(flux, a, a)] == [v, v]


def shock_speed_in_derivative_range(flux, a, b, slack=2.0):
    """The shock speed `divided_difference(coefficients, a, b)` lies in
    `derivative_range(flux, a, b)`, as the mean value theorem says, up to
    `slack` eps_mach times the sum of |f'|'s terms at the larger |state|,
    plus 4 subnormal steps for terms that underflow: the rounding of the
    kernel's terms and of the range's own values."""
    speed = divided_difference(flux.coefficients, a, b)
    lo, hi = wf.derivative_range(flux, a, b)
    rounding = slack * np.finfo(float).eps * np.polynomial.polynomial.polyval(
        max(abs(a), abs(b)), np.abs(flux._d1)) + 4.0 * np.finfo(float).smallest_subnormal
    return lo - rounding <= speed <= hi + rounding


@pytest.mark.parametrize("token", ["poly:0,0,0,1", "poly:0,0,-1,0,1", "poly:0,0.3,0,-1,0,0.5"])
def test_shock_speed_on_nearby_doubles_lies_in_the_derivative_range(token):
    # b = a + 1, 2, 3, 5 and 10 ulps, then random pairs: the quotient
    # (f(b) - f(a))/(b - a) divides the rounding of f by b - a and misses
    # the range on every nearby pair here; the kernel takes no difference
    # of nearby values
    flux = wf.parse_flux_token(token)
    a = np.random.default_rng(11).uniform(-2.0, 2.0, 300)
    pairs = list(zip(*np.random.default_rng(12).uniform(-2.0, 2.0, (2, 300))))
    b = a
    for k in range(1, 11):
        b = np.nextafter(b, np.inf)
        if k in (1, 2, 3, 5, 10):
            pairs += zip(a, b)
    assert all(shock_speed_in_derivative_range(flux, float(x), float(y)) for x, y in pairs)


def chord_slope_loop_oracle(coefficients, p, q):
    """Oracle: the shock-speed loop of the Riemann solver that
    `divided_difference` replaced, one pair at a time."""
    slope, h, p_pow = 0.0, 0.0, 1.0
    for c in coefficients[1:]:
        h, p_pow = h * q + p_pow, p_pow * p
        slope += c * h
    return float(slope)


def exact_chord(coeffs, a, b):
    """(chord, slack): the exact `Fraction` chord sum_k c_k*h_(k-1)(a, b)
    and (n + 1)*eps_mach*B with B = sum_k |c_k|*|h_(k-1)(a, b)|, the
    rounding bound of the Riemann walk's ranking."""
    fa, fb = Fraction(a), Fraction(b)
    n = len(coeffs) - 1
    h = [sum(fa ** i * fb ** (j - i) for i in range(j + 1)) for j in range(n)]
    exact = sum(Fraction(c) * hk for c, hk in zip(coeffs[1:], h))
    bound = sum(abs(Fraction(c)) * abs(hk) for c, hk in zip(coeffs[1:], h))
    return exact, (n + 1) * Fraction(np.finfo(float).eps) * bound


def within_rounding_of_exact_chord(coeffs, a, b, got):
    exact, slack = exact_chord(coeffs, a, b)
    return abs(Fraction(got) - exact) <= slack


def test_divided_difference_matches_the_loop_bitwise():
    rng = np.random.default_rng(7)
    for _ in range(300):
        coeffs = tuple(rng.uniform(-2.0, 2.0, rng.integers(3, 8)))
        p, q = rng.uniform(-2.0, 2.0, (2, 8))
        want = [chord_slope_loop_oracle(coeffs, x, y) for x, y in zip(p, q)]
        assert [divided_difference(coeffs, float(x), float(y)) for x, y in zip(p, q)] == want
        assert np.array_equal(divided_difference(coeffs, p, q), want)


@pytest.mark.parametrize("coeffs, scale", [
    ((0.0, 0.0, 0.5), 2.0), ((0.0, 0.0, 0.0, 1.0), 2.0), ((0.0, 0.3, 0.0, -1.0, 0.0, 0.5), 2.0),
    # u^5 overflows past |u| of about 1e61.6, f'(u) = 6e-200*u^5 does not
    ((0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e-200), 1e62),
], ids=["burgers", "cubic", "quintic", "powers_overflow"])
def test_divided_difference_at_equal_states_is_the_derivative(coeffs, scale):
    # a == b is the limit p'(a), h_(k-1)(a, a) = k*a^(k-1), not a special
    # case; where the loop's powers overflow, the scaled sum still gives it
    states = [float(x) for x in np.random.default_rng(13).uniform(-1.0, 1.0, 200) * scale]
    overflowed = 0
    for u in states:
        got = divided_difference(coeffs, u, u)
        assert np.isfinite(got) and within_rounding_of_exact_chord(coeffs, u, u, got)
        overflowed += not np.isfinite(chord_slope_loop_oracle(coeffs, u, u))
    assert (overflowed > 20) == (scale > 2.0)
    if coeffs == BURGERS.coefficients:
        assert [divided_difference(coeffs, u, u) for u in states] == states


def test_divided_difference_scales_states_whose_powers_overflow():
    # states near M with the u^k coefficient near M^(1-k): the powers of
    # the states overflow where the terms do not. A sum the loop leaves
    # finite keeps its bits; the others are the exact chord to within the
    # rounding bound of the Riemann walk's ranking, (n + 1)*eps_mach*B
    rng = np.random.default_rng(43)
    overflowed = 0
    for _ in range(300):
        n = int(rng.integers(3, 8))
        m = 10.0 ** rng.uniform(40.0, 150.0)
        coeffs = tuple(float(x) * 10.0 ** rng.uniform(-3.0, 3.0) * m ** (1 - k)
                       for k, x in enumerate(rng.uniform(-1.0, 1.0, n + 1)))
        a, b = (float(x) * m for x in rng.uniform(-1.0, 1.0, 2))
        got = divided_difference(coeffs, a, b)
        loop = chord_slope_loop_oracle(coeffs, a, b)
        if np.isfinite(loop):
            assert got == loop
            continue
        overflowed += 1
        assert within_rounding_of_exact_chord(coeffs, a, b, got)
    assert overflowed >= 100


def test_divided_difference_is_infinite_only_where_the_chord_overflows():
    # coefficients and states over 1e+-100 and 1e+-60: where the loop's sum
    # is not finite, the slope is the exact chord to within its rounding
    # bound, or infinite with the exact chord's sign where that bound
    # reaches past the largest double
    rng = np.random.default_rng(5)
    top = Fraction(np.finfo(float).max)
    redone = 0
    for _ in range(2000):
        n = int(rng.integers(2, 8))
        coeffs = tuple(float(x) * 10.0 ** rng.uniform(-100.0, 100.0)
                       for x in rng.uniform(-2.0, 2.0, n + 1))
        a, b = (float(x) * 10.0 ** rng.uniform(-60.0, 60.0) for x in rng.uniform(-1.0, 1.0, 2))
        if np.isfinite(chord_slope_loop_oracle(coeffs, a, b)):
            continue
        redone += 1
        got = divided_difference(coeffs, a, b)
        exact, slack = exact_chord(coeffs, a, b)
        if np.isfinite(got):
            assert abs(Fraction(got) - exact) <= slack
        else:
            assert abs(exact) + slack >= top and np.sign(got) == np.sign(exact)
    assert redone >= 30
    # a non-finite state has exponent 0, so its sum is returned unscaled
    # instead of being formed again on the same arguments
    got = [divided_difference((0.0, 0.0, 1.0), x, 1.0) for x in (np.inf, -np.inf, np.nan)]
    assert got[:2] == [np.inf, -np.inf] and np.isnan(got[2])


@pytest.mark.parametrize("coeffs, a, b, exact", [
    # -inf without the shift g: a scaled c_k overflows
    ((-2.668006033554351e-84, -2.558094404201224e-52, -9.959382886818326e-85,
      -1.206070236147511e-77, -0.007221121815731862, 2.331998377186082e-68,
      3.0337844397531804e+19, -2.6982949837351364e-24),
     -1.8729123094005826e+55, 6.2565203123677575, -1.1646464035552965e+308),
    # -inf without the shift g, even in sign: the scaled running sum
    # passes the largest double before it comes back
    ((1.4488970891995676e-47, 5.204619933850851e-59, 1.9556978144712814e+50,
      1.0749676808715948e+45, -4.1014091599527224e-44, 1.3830828364522243e+98,
      0.00015960146290451574, -4.6647655703987576e-14),
     -7.678052134106925e-47, -2.679166994737613e+52, 7.126023075573126e+307),
], ids=["scaled_coefficient_overflows", "running_sum_overflows"])
def test_divided_difference_keeps_slopes_just_below_the_largest_double(coeffs, a, b, exact):
    got = divided_difference(coeffs, a, b)
    assert np.isfinite(got) and np.sign(got) == np.sign(exact)
    assert within_rounding_of_exact_chord(coeffs, a, b, got)


@given(a=st.floats(-2, 2), b=st.floats(-2, 2))
def test_cubic_shock_speed_lies_in_the_derivative_range(a, b):
    assert shock_speed_in_derivative_range(CUBIC, a, b)


@given(u=st.floats(-5, 5))
def test_burgers_equals_half_square_polynomial(u):
    poly = wf.polynomial_flux((0.0, 0.0, 0.5))
    assert wf.evaluate(BURGERS, u) == wf.evaluate(poly, u)
    assert wf.derivative(BURGERS, u) == wf.derivative(poly, u)
    assert wf.second_derivative(BURGERS, u) == wf.second_derivative(poly, u)


def test_burgers_is_an_alias_of_the_half_square_polynomial():
    half_square = wf.polynomial_flux((0, 0, 0.5))
    assert wf.burgers_flux() == half_square
    assert wf.parse_flux_token("burgers") == wf.parse_flux_token("poly:0,0,0.5")
    assert wf.format_flux_token(half_square) == "burgers"


def test_derivative_matches_finite_differences_of_evaluate():
    rng = np.random.default_rng(11)
    h = 1e-5
    for flux in (BURGERS, CUBIC, wf.polynomial_flux((0.3, -1.0, 0.2, 0.0, 0.25))):
        for u in rng.uniform(-5.0, 5.0, 40):
            fd = (wf.evaluate(flux, u + h) - wf.evaluate(flux, u - h)) / (2 * h)
            exact = wf.derivative(flux, u)
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


def test_stored_derivative_coefficients_match_polyder_bitwise():
    poly = np.polynomial.polynomial
    u = np.random.default_rng(3).uniform(-3.0, 3.0, 200)
    for coeffs in ((0.0, 0.0, 0.0, 1.0), (0.3, -1.0, 0.2, 0.0, 0.25), (1.5, -2.0)):
        flux = wf.polynomial_flux(coeffs)
        d1, d2 = poly.polyder(coeffs), poly.polyder(coeffs, 2)
        assert np.array_equal(wf.derivative(flux, u), poly.polyval(u, d1))
        assert np.array_equal(wf.second_derivative(flux, u), poly.polyval(u, d2))
        assert wf.derivative(flux, 0.7) == poly.polyval(0.7, d1)
        # derived arrays stay out of equality, hashing and the repr
        again = wf.polynomial_flux(coeffs)
        assert again == flux and hash(again) == hash(flux)
        assert repr(flux) == "FluxSpec(coefficients=%r)" % (
            tuple(float(c) for c in coeffs),)


def test_derivatives_written_into_out_match_bitwise():
    u = np.random.default_rng(5).uniform(-3.0, 3.0, 300)
    for flux in (BURGERS, CUBIC, wf.polynomial_flux((0.3, -1.0, 0.2, 0.0, 0.25))):
        for fn in (wf.derivative, wf.second_derivative):
            out = np.full_like(u, np.nan)
            assert fn(flux, u, out=out) is out
            assert np.array_equal(out, fn(flux, u))


def test_derivatives_match_numpy_polyval_bitwise():
    u = np.random.default_rng(6).uniform(-3.0, 3.0, 300)
    for flux in (BURGERS, CUBIC, wf.polynomial_flux((0.3, -1.0, 0.2, 0.0, 0.25))):
        for fn, coeffs in ((wf.derivative, flux._d1), (wf.second_derivative, flux._d2)):
            assert np.array_equal(fn(flux, u), np.polynomial.polynomial.polyval(u, coeffs))
            for x in (float(u[0]), u[1], -0.0):
                want = np.polynomial.polynomial.polyval(x, coeffs)
                got = fn(flux, x)
                assert type(got) is type(want) and np.array_equal(got, want)


def test_token_round_trip():
    for token in ("burgers", "poly:0,0,0,1", "poly:0.5,-1,0,0.25"):
        flux = wf.parse_flux_token(token)
        again = wf.parse_flux_token(wf.format_flux_token(flux))
        assert again == flux


def test_parse_rejects_malformed_tokens():
    for bad in ("poly:abc", "cosine", "poly:", "poly:1", "poly:0,inf"):
        with pytest.raises(InvalidParameterError):
            wf.parse_flux_token(bad)


def test_constant_polynomial_rejected():
    with pytest.raises(InvalidParameterError):
        wf.polynomial_flux((1.0,))
    with pytest.raises(InvalidParameterError):
        wf.polynomial_flux((1.0, 0.0))


@pytest.mark.parametrize("coeffs", [(0.0, 0.0, 1e308), (0.0, 0.0, 0.0, 1e308),
                                    (1.0, 0.0, 0.0, -7e307)])
def test_coefficients_whose_derivatives_overflow_are_rejected(coeffs):
    # the suite turns numpy's overflow RuntimeWarning into an error, so only a
    # clean InvalidParameterError passes
    with pytest.raises(InvalidParameterError, match="overflow"):
        wf.polynomial_flux(coeffs)
    flux = wf.polynomial_flux((0.0, 0.0, 5e307))    # 2*c fits: accepted
    assert wf.derivative(flux, 1.0) == 1e308


def test_cli_rejects_a_flux_whose_derivatives_overflow(capsys):
    from wavefan.cli_io import main
    assert main(["solve", "--flux", "poly:0,0,1e308", "--ul", "-2", "--ur", "2"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "overflow" in err[0]
