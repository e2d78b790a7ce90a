"""Exact entropy solutions against a variational oracle and pinned waves."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import wavefan as wf
from grid_envelope import GridFan, grid_waves
from wavefan import riemann
from wavefan.errors import CoverageError
from wavefan.flux import divided_difference, evaluate
from wavefan.riemann import ConstantState, RarefactionFan, Shock

BURGERS = wf.burgers_flux()
CUBIC = wf.polynomial_flux((0.0, 0.0, 0.0, 1.0))
QUARTIC = wf.polynomial_flux((0.0, 0.0, -1.0, 0.0, 1.0))


def variational_oracle(flux, ul, ur, xi, n=100001):
    """Independent route: u(xi) extremizes f(v) - xi*v over the state interval.

    Increasing data minimizes, decreasing data maximizes (leftmost on ties).
    A parabolic refinement of the grid argmin recovers interior extrema to
    well below the grid spacing.
    """
    lo, hi = min(ul, ur), max(ul, ur)
    v = np.linspace(lo, hi, n)
    phi = evaluate(flux, v) - xi * v
    k = int(np.argmin(phi)) if ul <= ur else int(np.argmax(phi))
    if 0 < k < n - 1:
        a, b, c = phi[k - 1], phi[k], phi[k + 1]
        denom = a - 2.0 * b + c
        if denom != 0.0:
            return float(v[k] + 0.5 * (a - c) / denom * (v[1] - v[0]))
    return float(v[k])


def test_burgers_shock_structure():
    sol = wf.solve_exact(BURGERS, 1.0, -1.0)
    shocks = [w for w in sol.waves if isinstance(w, Shock)]
    fans = [w for w in sol.waves if isinstance(w, RarefactionFan)]
    assert len(shocks) == 1 and not fans
    assert shocks[0].speed == pytest.approx(0.0, abs=1e-12)
    assert shocks[0].u_left == pytest.approx(1.0, abs=1e-9)
    assert shocks[0].u_right == pytest.approx(-1.0, abs=1e-9)


def test_burgers_rarefaction_is_identity_fan():
    sol = wf.solve_exact(BURGERS, -1.0, 1.0)
    fans = [w for w in sol.waves if isinstance(w, RarefactionFan)]
    assert len(fans) == 1
    assert fans[0].xi_lo == pytest.approx(-1.0, abs=1e-9)
    assert fans[0].xi_hi == pytest.approx(1.0, abs=1e-9)
    for xi in (-0.73, 0.0, 0.3, 0.99):
        assert wf.eval_riemann(sol, xi) == pytest.approx(xi, abs=1e-9)


def test_eval_conventions():
    shock = wf.solve_exact(BURGERS, 1.0, -1.0)
    assert wf.eval_riemann(shock, -0.5) == 1.0
    assert wf.eval_riemann(shock, 0.0) == 1.0  # left state at the jump
    fan = wf.solve_exact(BURGERS, -1.0, 1.0)
    assert wf.eval_riemann(fan, 5.0) == 1.0
    assert wf.eval_riemann(fan, -5.0) == -1.0


def test_cubic_composite_wave():
    # concave-convex flux: leading shock lands tangentially on the fan
    sol = wf.solve_exact(CUBIC, -1.0, 1.0)
    shocks = [w for w in sol.waves if isinstance(w, Shock)]
    fans = [w for w in sol.waves if isinstance(w, RarefactionFan)]
    assert len(shocks) == 1 and len(fans) == 1
    assert shocks[0].speed == pytest.approx(0.75, abs=1e-5)
    assert shocks[0].u_right == pytest.approx(0.5, abs=1e-5)
    assert fans[0].xi_hi == pytest.approx(3.0, abs=1e-9)
    # inside the fan u = sqrt(xi/3)
    for xi in (1.2, 2.0, 2.9):
        assert wf.eval_riemann(sol, xi) == pytest.approx(np.sqrt(xi / 3.0), abs=1e-7)


def test_constant_data_yields_constant_solution():
    sol = wf.solve_exact(BURGERS, 0.4, 0.4)
    assert all(isinstance(w, ConstantState) for w in sol.waves)
    for xi in (-3.0, 0.0, 7.0):
        assert wf.eval_riemann(sol, xi) == 0.4


def test_rankine_hugoniot_for_random_fluxes():
    rng = np.random.default_rng(5)
    for _ in range(15):
        deg = int(rng.integers(3, 5))
        coeffs = np.zeros(deg + 1)
        coeffs[1:] = rng.uniform(-1.0, 1.0, deg)
        if abs(coeffs[-1]) < 0.2:
            coeffs[-1] = 0.5
        flux = wf.polynomial_flux(tuple(coeffs))
        ul, ur = rng.uniform(-1.5, 1.5, 2)
        sol = wf.solve_exact(flux, float(ul), float(ur))
        for w in sol.waves:
            if isinstance(w, Shock):
                lhs = w.speed * (w.u_right - w.u_left)
                rhs = evaluate(flux, w.u_right) - evaluate(flux, w.u_left)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_wave_speeds_nondecreasing_and_partition():
    rng = np.random.default_rng(17)
    for _ in range(10):
        coeffs = (0.0,) + tuple(rng.uniform(-1.0, 1.0, 4))
        try:
            flux = wf.polynomial_flux(coeffs)
        except wf.InvalidParameterError:
            continue
        ul, ur = rng.uniform(-1.2, 1.2, 2)
        sol = wf.solve_exact(flux, float(ul), float(ur))
        edges = [e for w in sol.waves for e in (w.xi_lo, w.xi_hi)]
        finite = [e for e in edges if np.isfinite(e)]
        assert all(b >= a - 1e-12 for a, b in zip(finite, finite[1:]))
        assert edges[0] == -np.inf and edges[-1] == np.inf


def test_eval_matches_variational_oracle():
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(10):
        deg = 3 if trial % 2 else 4
        coeffs = [0.0] + list(rng.uniform(-1.0, 1.0, deg))
        if abs(coeffs[-1]) < 0.2:
            coeffs[-1] = 0.5 if coeffs[-1] >= 0 else -0.5
        flux = wf.polynomial_flux(tuple(coeffs))
        ul, ur = sorted(rng.uniform(-1.5, 1.5, 2))
        if trial % 3 == 0:
            ul, ur = ur, ul
        sol = wf.solve_exact(flux, float(ul), float(ur))
        lo, hi = wf.wave_speed_span(sol)
        speeds = [w.speed for w in sol.waves if isinstance(w, wf.Shock)]
        for xi in rng.uniform(lo - 0.5, hi + 0.5, 40):
            if speeds and min(abs(xi - s) for s in speeds) < 1e-3:
                continue  # the comparison is meaningful at continuity points
            u = wf.eval_riemann(sol, float(xi))
            worst = max(worst, abs(u - variational_oracle(flux, ul, ur, float(xi))))
    assert worst <= 1e-6


@given(xi1=st.floats(-4, 4), xi2=st.floats(-4, 4))
def test_eval_monotone_in_xi(xi1, xi2):
    lo, hi = min(xi1, xi2), max(xi1, xi2)
    fan = wf.solve_exact(BURGERS, -1.0, 1.0)
    assert wf.eval_riemann(fan, lo) <= wf.eval_riemann(fan, hi) + 1e-12
    shock = wf.solve_exact(BURGERS, 1.0, -1.0)
    assert wf.eval_riemann(shock, lo) >= wf.eval_riemann(shock, hi) - 1e-12


def test_wave_speed_span_no_waves():
    sol = wf.solve_exact(BURGERS, 0.25, 0.25)
    lo, hi = wf.wave_speed_span(sol)
    assert lo == hi == 0.25


def _random_problems(seed, count):
    """Polynomial fluxes of degree 2 to 5 with states in [-2, 2]."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        coeffs = rng.uniform(-1.0, 1.0, int(rng.integers(3, 7)))
        if abs(coeffs[-1]) < 0.1:
            coeffs[-1] = 0.5
        ul, ur = rng.uniform(-2.0, 2.0, 2)
        yield wf.polynomial_flux(tuple(coeffs)), float(ul), float(ur)


def test_quartic_double_tangent_partition_is_exact():
    # fans down to the two minima of the W-shaped flux, joined by the
    # stationary double-tangent shock, with nothing in between
    sol = wf.solve_exact(QUARTIC, -1.5, 1.5)
    assert [type(w) for w in sol.waves] == [ConstantState, RarefactionFan, Shock,
                                            RarefactionFan, ConstantState]
    left, shock, right = sol.waves[1:4]
    assert left.xi_hi == shock.speed == right.xi_lo
    assert abs(shock.speed) <= 1e-15
    assert (left.u_right, right.u_left) == (shock.u_left, shock.u_right)
    assert shock.u_left == pytest.approx(-np.sqrt(0.5), abs=1e-15)
    assert shock.u_right == pytest.approx(np.sqrt(0.5), abs=1e-15)


def test_quartic_decreasing_is_one_stationary_shock():
    # the chord from 1 to -1 also touches f at u = 0; that tangency point
    # ties with the far state, so the solution is one shock
    sol = wf.solve_exact(QUARTIC, 1.0, -1.0)
    assert [type(w) for w in sol.waves] == [ConstantState, Shock, ConstantState]
    shock = sol.waves[1]
    assert (shock.u_left, shock.u_right) == (1.0, -1.0)
    assert abs(shock.speed) <= 1e-15
    assert wf.eval_riemann(sol, shock.speed) == 1.0


@pytest.mark.parametrize("p, ur", [(-0.9, 0.88), (-1.0, 0.2), (-1.0, 0.0), (-1.5, 0.3)])
def test_fan_end_asks_for_roots_only_where_the_chord_does_not_decide(monkeypatch, p, ur):
    # the bisection that asks `_next_vertex` at every step ends on the same
    # state; where f' is at or above the chord to ur there is no fan, and
    # the tangency roots are skipped. The fan from p ends before the
    # quartic's concave middle, on a tangent to ur or (-0.9 -> 0.88) to
    # the other well
    real = riemann._next_vertex
    assert real(QUARTIC, p, ur)[1]
    edges = [p] + sorted(riemann._interior_critical_points(QUARTIC._d2, p, ur)) + [ur]
    lo, hi = p, next(a for a, b in zip(edges, edges[1:])
                     if riemann.second_derivative(QUARTIC, 0.5 * (a + b)) < 0.0)
    ulp, steps = np.spacing(max(abs(lo), abs(hi))), 0
    while hi - lo > ulp:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if real(QUARTIC, mid, ur)[1] else (lo, mid)
        steps += 1
    calls = []
    monkeypatch.setattr(riemann, "_next_vertex",
                        lambda *args: calls.append(args) or real(*args))
    assert riemann._fan_end(QUARTIC, p, ur) == hi
    assert len(calls) < steps


def test_roundoff_slivers_fold_into_one_shock():
    # each of these is one shock, but roundoff offers a sliver next to it:
    # a right state within roundoff of a tangency point (the chord over the
    # gap has a garbage slope), a fan of zero xi-width before a shock at its
    # speed, and a fan between states one ulp apart
    quintic = wf.polynomial_flux((-0.5, -0.75, 0.25, -1.0, -1.0, 0.5))
    problems = [(wf.polynomial_flux((0.0, 0.75, 0.0, 1.0, -0.5, 0.5)), -2.0, 1.4182525874233998),
                (quintic, 0.27866783573512244, -0.6108176164871973),
                (quintic, -0.4365921819557489, np.nextafter(-0.4365921819557489, 0.0))]
    for flux, ul, ur in problems:
        sol = wf.solve_exact(flux, ul, ur)
        assert [type(w) for w in sol.waves] == [ConstantState, Shock, ConstantState]
        assert (sol.waves[1].u_left, sol.waves[1].u_right) == (ul, ur)


def test_a_fan_that_follows_a_fan_extends_it():
    # the u^2 coefficient makes f concave on |u| < 1e-47 only, so the fan
    # from the shock's right state ends at 0 and a second one starts there;
    # they join, and the solution is that of the flux without the term
    tiny = wf.polynomial_flux((0.0, 0.0, -8.252642698941022e-95, 0.0, 1.0, 1.0))
    sol = wf.solve_exact(tiny, -1.0, 1.0)
    assert [type(w) for w in sol.waves] == [ConstantState, Shock, RarefactionFan,
                                            ConstantState]
    plain = wf.polynomial_flux((0.0, 0.0, 0.0, 0.0, 1.0, 1.0))
    assert sol.waves == wf.solve_exact(plain, -1.0, 1.0).waves


@pytest.mark.parametrize("token", ["poly:0,0,0,1,2.225073858507e-311",
                                   "poly:0,0,1,2.225073858507e-311"])
def test_a_subnormal_leading_coefficient_is_trimmed(token):
    # the root finder divided by the subnormal leading coefficient of the
    # tangency and inflection polynomials and overflowed; below the rounding
    # of the other terms on the interval it is trimmed instead
    flux = wf.parse_flux_token(token)
    plain = wf.polynomial_flux(flux.coefficients[:-1] + (0.0,))
    for ul, ur in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)):
        assert wf.solve_exact(flux, ul, ur).waves == wf.solve_exact(plain, ul, ur).waves


def test_shock_between_adjacent_doubles_moves_at_the_characteristic_speed():
    # the chord over one ulp is f'(p) up to rounding; the difference quotient
    # of f values gave -1.0 here, where f' is -1.116
    quintic = wf.polynomial_flux((-0.5, -0.75, 0.25, -1.0, -1.0, 0.5))
    p = -0.4365921819557489
    q = float(np.nextafter(p, 0.0))
    slope = float(wf.derivative(quintic, p))
    for ul, ur in ((p, q), (q, p)):
        sol = wf.solve_exact(quintic, ul, ur)
        assert [type(w) for w in sol.waves] == [ConstantState, Shock, ConstantState]
        assert abs(sol.waves[1].speed - slope) <= 8.0 * np.spacing(abs(slope))


@pytest.mark.parametrize("token, ul, ur", [
    ("poly:0.9009273926518706,-0.7116807745607325,0.8972988942744877,"
     "-0.3763370959790291,-0.1533471020548487", 0.909048347064366, -0.2724025908925163),
    ("poly:0.5375435198183329,0.05125904632450817,-0.7019039532585749,"
     "0.9299354879594715,-0.196727552222965,-0.4095314886746084",
     -1.0445904227028953, -1.1266190024535605),
])
def test_a_fan_of_zero_width_folds_into_the_shock_after_it(token, ul, ur):
    # the envelope starts with a one-ulp fan at a tangency whose width
    # rounds to zero; it folds into the shock, which then starts at ul
    flux = wf.parse_flux_token(token)
    sol = wf.solve_exact(flux, ul, ur)
    assert [type(w) for w in sol.waves] == [ConstantState, Shock, ConstantState]
    shock = sol.waves[1]
    assert (shock.u_left, shock.u_right) == (ul, ur)
    assert shock.speed == divided_difference(flux.coefficients, ul, ur)


def test_shock_speed_is_the_exact_chord_on_symmetric_states():
    # the divided difference sums p^i q^j terms, so a symmetric chord of an
    # even flux is exactly zero, as the difference of f values is
    for flux in (QUARTIC, wf.polynomial_flux((0.0, 0.0, 0.5))):
        for ul, ur in ((-1.0, 1.0), (1.0, -1.0)):
            for w in wf.solve_exact(flux, ul, ur).waves:
                if isinstance(w, Shock):
                    assert w.speed == 0.0


def test_wave_edges_exactly_contiguous_for_random_fluxes():
    # and on the extreme data the README names, with the flux whose powers
    # of the states overflow where its chord slopes do not
    sextic = wf.polynomial_flux((0.0,) * 6 + (1e-200,))
    extreme = [(BURGERS, 1e200, -1e200), (BURGERS, -1e200, 1e200), (CUBIC, -1e150, 1e150),
               (CUBIC, 1e150, -1e150), (sextic, 1e62, 2e62), (sextic, 2e62, 1e62)]
    for flux, ul, ur in list(_random_problems(23, 200)) + extreme:
        sol = wf.solve_exact(flux, ul, ur)
        edges = [(w.xi_lo, w.xi_hi) for w in sol.waves]
        assert edges[0][0] == -np.inf and edges[-1][1] == np.inf
        assert all(lo <= hi for lo, hi in edges)
        assert all(a[1] == b[0] for a, b in zip(edges, edges[1:]))
        states = [(w.u_left, w.u_right) for w in sol.waves]
        assert states[0][0] == ul and states[-1][1] == ur
        assert all(a[1] == b[0] for a, b in zip(states, states[1:]))
        for w in sol.waves:
            if isinstance(w, Shock):
                assert wf.eval_riemann(sol, w.speed) == w.u_left


def test_fan_inversion_solves_f_prime_to_roundoff():
    # includes a fan that starts at an inflection point (cubic 0 -> 1),
    # where f'' vanishes and the Newton steps need the bisection safeguard
    problems = [(CUBIC, 0.0, 1.0), (CUBIC, 1.0, 0.0), (QUARTIC, -1.5, 1.5),
                (wf.polynomial_flux((0.0, 10.0, 0.0, 1.0)), 0.1, 1.0)]
    problems += list(_random_problems(29, 60))
    fans = 0
    for flux, ul, ur in problems:
        sol = wf.solve_exact(flux, ul, ur)
        for w in sol.waves:
            if isinstance(w, RarefactionFan):
                fans += 1
                xi = np.linspace(w.xi_lo, w.xi_hi, 501)[1:-1]
                u = wf.eval_riemann(sol, xi)
                gap = np.abs(wf.derivative(flux, u) - xi)
                assert np.all(gap <= 1e-13 * np.maximum(1.0, np.abs(xi)))
                assert np.all(np.sign(w.u_right - w.u_left) * np.diff(u) >= 0.0)
    assert fans >= 30


def _oracle_waves(flux, ul, ur):
    """The grid oracle's shocks and fans, without its sub-ulp slivers: a
    fan of zero xi-width and a shock at the speed of the shock before it
    (the oracle keeps collinear hull points, so it splits such a shock)."""
    waves = []
    for w in grid_waves(flux, ul, ur, n_grid=20_001):
        if isinstance(w, GridFan) and w.xi_hi <= w.xi_lo:
            continue
        if (isinstance(w, Shock) and waves and isinstance(waves[-1], Shock)
                and abs(w.speed - waves[-1].speed) <= 1e-13):
            waves[-1] = Shock(waves[-1].speed, waves[-1].u_left, w.u_right)
        else:
            waves.append(w)
    return waves


def test_waves_match_grid_oracle():
    # jittered states of the benchmark design (cell centres of [-1.5, 1.5])
    # on its three fluxes, then random polynomial fluxes
    rng = np.random.default_rng(31)
    centres = (-1.2, -0.6, 0.0, 0.6, 1.2)
    problems = []
    for flux in (BURGERS, CUBIC, QUARTIC):
        for a in centres:
            for b in centres:
                if a != b:
                    ul, ur = np.array([a, b]) + rng.uniform(-0.01, 0.01, 2)
                    problems.append((flux, float(ul), float(ur)))
    problems += list(_random_problems(37, 20))
    for flux, ul, ur in problems:
        got = [w for w in wf.solve_exact(flux, ul, ur).waves
               if not isinstance(w, ConstantState)]
        want = _oracle_waves(flux, ul, ur)
        assert [isinstance(w, Shock) for w in got] == [isinstance(w, Shock) for w in want]
        for g, o in zip(got, want):
            for x, y in zip((g.u_left, g.u_right, g.xi_lo, g.xi_hi),
                            (o.u_left, o.u_right, o.xi_lo, o.xi_hi)):
                assert abs(x - y) <= 1e-13 * max(1.0, abs(y)), (flux, ul, ur, g, o)


def test_data_whose_chords_overflow_f_are_solved_by_their_slopes():
    # f(u) overflows at these states, and its difference quotient was NaN:
    # the walk raised a numpy ValueError on the first two and returned one
    # shock at xi = 1e300 on the cubic; their chord slopes are finite
    for flux, ul, ur in ((BURGERS, 1e200, -1e200), (QUARTIC, 1e100, -1e100)):
        sol = wf.solve_exact(flux, ul, ur)
        assert [type(w) for w in sol.waves] == [ConstantState, Shock, ConstantState]
        assert sol.waves[1] == Shock(0.0, ul, ur)
    sol = wf.solve_exact(CUBIC, -1e150, 1e150)
    assert [type(w) for w in sol.waves] == [ConstantState, Shock, RarefactionFan,
                                            ConstantState]
    shock, fan = sol.waves[1:3]
    assert shock.speed == pytest.approx(7.5e299, rel=1e-14)
    assert shock.u_right == fan.u_left == pytest.approx(5e149, rel=1e-14)
    assert fan.xi_lo == shock.speed and fan.xi_hi == pytest.approx(3e300, rel=1e-14)


def test_data_whose_powers_overflow_are_solved_by_scaled_chord_slopes():
    # u^5 overflows at 1e62 where 1e-200*u^5 does not: the chord slopes
    # raised CoverageError; the fan is f' = 6e-200*u^5 over the data, and
    # the decreasing data are one shock at the exact chord slope 6.3e111
    sextic = wf.polynomial_flux((0.0,) * 6 + (1e-200,))
    sol = wf.solve_exact(sextic, 1e62, 2e62)
    assert [type(w) for w in sol.waves] == [ConstantState, RarefactionFan, ConstantState]
    fan = sol.waves[1]
    assert (fan.u_left, fan.u_right) == (1e62, 2e62)
    assert fan.xi_lo == pytest.approx(6e110, rel=1e-14)
    assert fan.xi_hi == pytest.approx(1.92e112, rel=1e-14)
    sol = wf.solve_exact(sextic, 2e62, 1e62)
    assert [type(w) for w in sol.waves] == [ConstantState, Shock, ConstantState]
    assert sol.waves[1].speed == pytest.approx(6.3e111, rel=1e-14)


@pytest.mark.parametrize("ul, ur", [(np.nan, 1.0), (0.0, np.inf)])
def test_non_finite_states_are_rejected(ul, ur):
    with pytest.raises(wf.InvalidParameterError, match="states must be finite"):
        wf.solve_exact(BURGERS, ul, ur)


def test_a_shock_whose_f_prime_overflows_moves_at_its_chord_slope():
    # f'(1e308) = 2e308 is past the largest double; the shock's chord is not
    sol = wf.solve_exact(wf.parse_flux_token("poly:0,0,1"), 1e308, -5e307)
    assert sol.waves[1:-1] == (Shock(5e307, 1e308, -5e307),)


def test_a_fan_near_the_range_of_doubles_inverts_without_overflow():
    # the grid `wavefan riemann` samples; the fan inversion's bracket test
    # multiplied two distances of about 1e200 and overflowed
    sol = wf.solve_exact(BURGERS, -1e200, 1e200)
    xi = np.linspace(-1e200 - 1.0, 1e200 + 1.0, 401)
    assert np.array_equal(wf.eval_riemann(sol, xi), np.clip(xi, -1e200, 1e200))


@pytest.mark.parametrize("token, ul, ur", [
    # chord slopes past the largest double
    ("poly:0,0,0,1", -1e200, 1e200),
    # f' past it at a fan edge, where every chord slope fits
    ("poly:0,0,1", -5e307, 1e308),
    ("poly:0,0,1", -1e308, 5e307),
    # the trimmed tangency polynomial's companion matrix overflows
    ("poly:1.1377936137343168e+55,-5.502009174623611e+176,-2.2117348121533902e-58,"
     "-8.760681336070306e+80,-9.694248646073712e-179,1.1788084130278703e-161,0",
     -3.2810155285107196e+117, 4.840501826291593e+117),
])
def test_data_out_of_the_range_of_doubles_is_a_coverage_error(token, ul, ur):
    with pytest.raises(CoverageError):
        wf.solve_exact(wf.parse_flux_token(token), ul, ur)
