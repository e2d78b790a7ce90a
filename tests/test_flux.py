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


def test_chord_slope_pinned_values():
    assert wf.chord_slope_Q(BURGERS, 0.7, 0.2) == 1.0
    assert wf.chord_slope_Q(BURGERS, 0.5, 0.5) == 0.0
    assert wf.chord_slope_Q(CUBIC, 1.0, 0.0) == 3.0
    # the quotient (f'(a) - f'(b))/(a - b) reads 8 here, against Lip(f') = 6
    assert wf.chord_slope_Q(CUBIC, 1.0, np.nextafter(1.0, 2.0)) == 6.0


def test_chord_slope_is_elementwise():
    a = np.array([0.7, 0.5, 1.0, -0.3])
    b = np.array([0.2, 0.5, 0.0, 1.9])
    for flux in (BURGERS, CUBIC):
        want = [wf.chord_slope_Q(flux, x, y) for x, y in zip(a, b)]
        assert np.array_equal(wf.chord_slope_Q(flux, a, b), want)


@pytest.mark.parametrize("token, slack", [("poly:0,0,0,1", 0.0), ("poly:0,0,-1,0,1", 2.0),
                                          ("poly:0,0.3,0,-1,0,0.5", 2.0)])
def test_chord_slope_on_nearby_doubles_stays_within_lipschitz(token, slack):
    # b = a + 1 to 10 ulps: the quotient divides the rounding of f' by a - b
    # and broke the cubic's bound on about half these pairs; the kernel
    # meets it exactly there, and for higher degrees up to the rounding of
    # its terms, `slack` eps_mach times the sum of |f''|'s terms
    flux = wf.parse_flux_token(token)
    a = np.random.default_rng(11).uniform(-2.0, 2.0, 300)
    rounding = slack * np.finfo(float).eps * np.polynomial.polynomial.polyval(
        np.abs(a), np.abs(flux._d2))
    b = a
    for k in range(1, 11):
        b = np.nextafter(b, np.inf)
        if k in (1, 2, 3, 5, 10):
            bound = [wf.lipschitz_of_derivative(flux, x, y) for x, y in zip(a, b)]
            assert np.all(np.abs(wf.chord_slope_Q(flux, a, b)) <= bound + rounding)


def chord_slope_loop_oracle(coefficients, p, q):
    """Oracle: the shock-speed loop of the Riemann solver that
    `divided_difference` replaced, one pair at a time."""
    slope, h, p_pow = 0.0, 0.0, 1.0
    for c in coefficients[1:]:
        h, p_pow = h * q + p_pow, p_pow * p
        slope += c * h
    return float(slope)


def test_divided_difference_matches_the_loop_bitwise():
    rng = np.random.default_rng(7)
    for _ in range(300):
        coeffs = tuple(rng.uniform(-2.0, 2.0, rng.integers(3, 8)))
        p, q = rng.uniform(-2.0, 2.0, (2, 8))
        want = [chord_slope_loop_oracle(coeffs, x, y) for x, y in zip(p, q)]
        assert [divided_difference(coeffs, float(x), float(y)) for x, y in zip(p, q)] == want
        assert np.array_equal(divided_difference(coeffs, p, q), want)


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
        fa, fb = Fraction(a), Fraction(b)
        h = [sum(fa ** i * fb ** (j - i) for i in range(j + 1)) for j in range(n)]
        exact = sum(Fraction(c) * hk for c, hk in zip(coeffs[1:], h))
        bound = sum(abs(Fraction(c)) * abs(hk) for c, hk in zip(coeffs[1:], h))
        assert abs(Fraction(got) - exact) <= (n + 1) * np.finfo(float).eps * bound
    assert overflowed >= 100


def test_chord_slope_equal_arguments_is_exactly_zero():
    # by definition, not as a limit: the smooth limit would be f''(u) = 1
    assert wf.chord_slope_Q(BURGERS, 0.3, 0.3) == 0.0


@given(a=st.floats(-2, 2), b=st.floats(-2, 2))
def test_chord_slope_bounded_by_lipschitz(a, b):
    q = wf.chord_slope_Q(CUBIC, a, b)
    k = wf.lipschitz_of_derivative(CUBIC, -2.0, 2.0)
    assert abs(q) <= k + 1e-12


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
    for bad in ("poly:abc", "cosine", "poly:", "poly:1"):
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
