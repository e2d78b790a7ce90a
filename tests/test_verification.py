"""Structural checks, comparison-function margins, and the check battery."""

import math
from dataclasses import replace

import numpy as np
import pytest

import wavefan as wf
from wavefan.errors import (
    CoverageError,
    InconclusiveProbeError,
    InvalidParameterError,
    UnsupportedFluxError,
    WindowError,
)
from wavefan import verification
from wavefan.verification import _barrier_ratio, _narrow_domain


EPS_MACH = float(np.finfo(float).eps)


def interior_d1_oracle(profile):
    """Oracle: the central slope D1(u) at the interior nodes, written out."""
    xi, u = profile.xi, profile.u
    hm = xi[1:-1] - xi[:-2]
    hp = xi[2:] - xi[1:-1]
    sm = (u[1:-1] - u[:-2]) / hm
    sp = (u[2:] - u[1:-1]) / hp
    return (hm * sp + hp * sm) / (hm + hp)


def sliding_margin_oracle(profile, problem, lam):
    r = wf.residual(problem, profile)[1:-1]
    d1 = interior_d1_oracle(profile)
    keep = profile.xi[1:-1] - lam >= profile.xi[0]
    return float(np.min(lam * d1[keep] - r[keep]))


def sweeping_margin_oracle(profile, problem, lam, big_k):
    r = wf.residual(problem, profile)[1:-1]
    d1 = interior_d1_oracle(profile)
    u_in = profile.u[1:-1]
    shift = (wf.derivative(problem.flux, u_in + lam) - wf.derivative(problem.flux, u_in)
             - 2.0 * big_k * lam)
    return float(np.min(shift * d1 - r))


def barrier_operator_oracle(problem, profile, lam, mask):
    """Oracle: L(g) = eps*g'' - (f'(u_lam) - xi)*g' - du*Q*g for g = e^{-|xi|}
    at the masked nodes, written out term by term, and g there."""
    xs = profile.xi[mask]
    u_lam = np.interp(xs + lam, profile.xi, profile.u)
    g = np.exp(-np.abs(xs))
    gp = -np.sign(xs) * g
    q = np.array([wf.chord_slope_Q(problem.flux, a, b)
                  for a, b in zip(u_lam, profile.u[mask])])
    lg = (problem.epsilon * g - (wf.derivative(problem.flux, u_lam) - xs) * gp
          - profile.du[mask] * q * g)
    return lg, g


def barrier_tail_oracle(problem, profile, big_m):
    """Oracle: eps - |xi| + sup|f'| + Lip(f')*|du_end| at the inner end of
    each tail past the mesh (|xi| > M), the larger of the two."""
    lo, hi = problem.state_interval
    reach = problem.epsilon + wf.sup_derivative(problem.flux, lo, hi)
    lip = wf.lipschitz_of_derivative(problem.flux, lo, hi)
    left = reach - max(big_m, -profile.xi[0], 0.0) + lip * abs(profile.du[0])
    right = reach - max(big_m, profile.xi[-1], 0.0) + lip * abs(profile.du[-1])
    return max(left, right)


def translation_defect_oracle(profile, epsilon, lam):
    """Oracle: the translate's defect under eps*u'' = (u - xi)*u' from its
    own divided differences. Returns the max |defect| and the largest
    |term| it is the difference of, which sets its roundoff."""
    xi = profile.xi + lam
    u = profile.u + lam
    hm = xi[1:-1] - xi[:-2]
    hp = xi[2:] - xi[1:-1]
    sm = (u[1:-1] - u[:-2]) / hm
    sp = (u[2:] - u[1:-1]) / hp
    d2 = 2.0 * (sp - sm) / (hm + hp)
    d1 = (hm * sp + hp * sm) / (hm + hp)
    viscous, transport = epsilon * d2, (u[1:-1] - xi[1:-1]) * d1
    keep = (xi[1:-1] >= profile.xi[0]) & (xi[1:-1] <= profile.xi[-1])
    defect = np.abs(viscous - transport)[keep]
    terms = (np.abs(viscous) + np.abs(transport))[keep]
    return float(np.max(defect)), float(np.max(terms))


# ---------------------------------------------------------------------------
# monotonicity and symmetry detectors

def test_monotone_detector_signs(shock_profile):
    assert wf.check_monotone(shock_profile, 1.0, -1.0) >= 0.0
    # flip one interior node: the detector must go negative
    u = shock_profile.u.copy()
    mid = len(u) // 2
    u[mid] = u[mid - 1] + 0.1
    broken = wf.Profile(shock_profile.xi, u, shock_profile.du)
    assert wf.check_monotone(broken, 1.0, -1.0) < 0.0


def test_monotone_constant_data_is_zero(shock_profile):
    assert wf.check_monotone(shock_profile, 0.5, 0.5) == 0.0


def test_symmetry_zero_for_symmetric_solve(shock_profile, rarefaction_profile):
    assert wf.check_symmetry(shock_profile, 1.0, -1.0) <= 1e-12
    assert wf.check_symmetry(rarefaction_profile, -1.0, 1.0) <= 1e-12


def test_symmetry_detects_a_shift(shock_profile):
    s = 1e-4
    shifted = wf.Profile(shock_profile.xi + s, shock_profile.u, shock_profile.du)
    dev = wf.check_symmetry(shifted, 1.0, -1.0)
    expected = 2.0 * s * float(np.max(np.abs(shock_profile.du)))
    assert dev == pytest.approx(expected, rel=0.05)


def test_symmetry_across_viscosity_range():
    for eps in (1.0, 0.0125):
        prob = wf.ProfileProblem(wf.burgers_flux(), -1.0, 1.0, eps)
        profile, report = wf.solve_profile(prob)
        assert report.converged
        assert wf.check_symmetry(profile, -1.0, 1.0) <= 1e-6


@pytest.mark.parametrize("coeffs", [(1.0, 0.0, 0.5), (0.0, 0.0, 0.5, 0.0)])
def test_quadratic_checks_accept_any_flux_with_identity_derivative(shock_profile,
                                                                   coeffs):
    flux = wf.polynomial_flux(coeffs)
    assert wf.check_symmetry(shock_profile, 1.0, -1.0, flux=flux) \
        == wf.check_symmetry(shock_profile, 1.0, -1.0)
    assert wf.translation_invariance_check(shock_profile, 0.05, 0.7, flux=flux) \
        == wf.translation_invariance_check(shock_profile, 0.05, 0.7)


def test_quadratic_checks_reject_a_shifted_derivative(shock_profile):
    shifted = wf.polynomial_flux((0.0, 1.0, 0.5))  # f'(u) = u + 1
    with pytest.raises(UnsupportedFluxError):
        wf.check_symmetry(shock_profile, 1.0, -1.0, flux=shifted)
    with pytest.raises(UnsupportedFluxError):
        wf.translation_invariance_check(shock_profile, 0.05, 0.1, flux=shifted)


def test_symmetry_rejects_other_fluxes(shock_profile):
    cubic = wf.polynomial_flux([0.0, 0.0, 0.0, 1.0])
    with pytest.raises(UnsupportedFluxError):
        wf.check_symmetry(shock_profile, 1.0, -1.0, flux=cubic)
    # quadratic flux passes through the guard
    wf.check_symmetry(shock_profile, 1.0, -1.0, flux=wf.burgers_flux())


# ---------------------------------------------------------------------------
# window diagnostics

def test_l1_window_errors(shock_profile, shock_problem):
    exact = wf.solve_exact(shock_problem.flux, 1.0, -1.0)
    with pytest.raises(WindowError):
        wf.l1_window_error(shock_profile, exact, (0.5, -0.5))
    with pytest.raises(WindowError):
        wf.l1_window_error(shock_profile, exact, (-100.0, 0.0))


def test_l1_window_scales_with_viscosity(shock_problem):
    exact = wf.solve_exact(shock_problem.flux, 1.0, -1.0)
    errs = []
    for eps in (0.1, 0.05):
        prob = replace(shock_problem, epsilon=eps)
        profile, _ = wf.solve_profile(prob, wf.SolveOptions(domain=(-2.0, 2.0)))
        errs.append(wf.l1_window_error(profile, exact, (-1.5, 1.5)))
    assert 0.0 < errs[1] < errs[0]


def test_windowed_by_slope_trims_saturated_tails(shock_profile):
    trimmed = wf.windowed_by_slope(shock_profile, ratio=1e-6)
    assert len(trimmed.xi) < len(shock_profile.xi)
    top = float(np.max(np.abs(trimmed.du)))
    assert float(np.min(np.abs(trimmed.du))) >= 1e-6 * top
    flat = wf.Profile(shock_profile.xi, shock_profile.u, np.zeros_like(shock_profile.u))
    with pytest.raises(InvalidParameterError):
        wf.windowed_by_slope(flat)


# ---------------------------------------------------------------------------
# comparison-function margins

def test_sliding_margin_positive_for_positive_lam(rarefaction_profile, rarefaction_problem):
    margin = wf.sliding_supersolution_margin(rarefaction_profile, rarefaction_problem, 0.1)
    assert margin > 1e-10


def test_sliding_margin_vanishes_at_zero_lam(rarefaction_profile, rarefaction_problem):
    margin = wf.sliding_supersolution_margin(rarefaction_profile, rarefaction_problem, 0.0)
    assert abs(margin) <= 1e-10  # just the converged residual


def test_sliding_margin_preconditions(shock_profile, shock_problem, rarefaction_profile,
                                      rarefaction_problem):
    with pytest.raises(InvalidParameterError):
        wf.sliding_supersolution_margin(shock_profile, shock_problem, 0.1)
    with pytest.raises(InvalidParameterError):
        wf.sliding_supersolution_margin(rarefaction_profile, rarefaction_problem, -0.1)


@pytest.fixture(scope="module")
def cubic_profiles():
    out = {}
    for name, ul, ur in (("increasing", -1.0, 1.0), ("decreasing", 1.0, -1.0)):
        prob = wf.ProfileProblem(wf.polynomial_flux((0.0, 0.0, 0.0, 1.0)), ul, ur, 0.05)
        out[name] = (prob, wf.solve_profile(prob)[0])
    return out


@pytest.mark.parametrize("lam", [0.0, 0.1, 0.35])
def test_margins_match_the_written_out_slope_oracle_bitwise(
        lam, shock_problem, shock_profile, rarefaction_problem, rarefaction_profile,
        cubic_profiles):
    increasing = ((rarefaction_problem, rarefaction_profile), cubic_profiles["increasing"])
    for prob, prof in increasing:
        assert wf.sliding_supersolution_margin(prof, prob, lam) \
            == sliding_margin_oracle(prof, prob, lam)
    for prob, prof in ((shock_problem, shock_profile), cubic_profiles["decreasing"]):
        big_k = 1.5 * wf.lipschitz_of_derivative(prob.flux, *prob.state_interval)
        assert wf.sweeping_supersolution_margin(prof, prob, lam, big_k) \
            == sweeping_margin_oracle(prof, prob, lam, big_k)


def test_sweeping_margin_positive_on_resolved_tails(shock_problem):
    narrow, _ = wf.solve_profile(
        shock_problem, wf.SolveOptions(domain=_narrow_domain(shock_problem)))
    margin = wf.sweeping_supersolution_margin(narrow, shock_problem, 0.1, 1.0)
    assert margin > 1e-10
    assert abs(wf.sweeping_supersolution_margin(narrow, shock_problem, 0.0, 1.0)) <= 1e-10


def test_sweeping_margin_preconditions(shock_profile, shock_problem,
                                       rarefaction_profile, rarefaction_problem):
    with pytest.raises(InvalidParameterError):
        wf.sweeping_supersolution_margin(rarefaction_profile, rarefaction_problem, 0.1, 1.0)
    with pytest.raises(InvalidParameterError):
        # K below the Lipschitz constant of f' (which is 1 for the quadratic)
        wf.sweeping_supersolution_margin(shock_profile, shock_problem, 0.1, 0.5)
    with pytest.raises(InvalidParameterError):
        wf.sweeping_supersolution_margin(shock_profile, shock_problem, -1.0, 1.0)


def test_sliding_constant_formula(rarefaction_profile):
    prob = wf.ProfileProblem(wf.burgers_flux(), -1.0, 1.0, 0.1)
    profile, _ = wf.solve_profile(prob)
    m = wf.sliding_constant_M(prob, profile)
    assert m == pytest.approx(2.1 + float(np.max(np.abs(profile.du))), rel=1e-12)
    # only the viscosity term moves when the profile is held fixed
    doubled = wf.sliding_constant_M(replace(prob, epsilon=0.2), profile)
    assert doubled - m == pytest.approx(0.1, rel=1e-9)


def test_sliding_constant_for_constant_data():
    prob = wf.ProfileProblem(wf.burgers_flux(), 0.3, 0.3, 0.2)
    mesh = wf.build_mesh(prob)
    profile = wf.initial_guess(prob, mesh)
    assert wf.sliding_constant_M(prob, profile) == pytest.approx(1.5, rel=1e-14)


@pytest.fixture(scope="module")
def wide_rarefaction(rarefaction_problem):
    """The rarefaction re-solved on a domain reaching past |xi| = M, and M."""
    base, _ = wf.solve_profile(rarefaction_problem)
    big_m = wf.sliding_constant_M(rarefaction_problem, base)
    wide, _ = wf.solve_profile(
        rarefaction_problem, wf.SolveOptions(domain=(-(big_m + 1.5), big_m + 1.5)))
    return wide, big_m


def test_barrier_margin_negative_beyond_threshold(rarefaction_problem, wide_rarefaction):
    wide, big_m = wide_rarefaction
    assert wf.barrier_operator_margin(rarefaction_problem, wide, 0.1, big_m) < 0.0


def test_barrier_ratio_matches_written_out_oracle(rarefaction_problem, wide_rarefaction):
    # the node values are L(g)/g of the undivided operator, to roundoff
    wide, big_m = wide_rarefaction
    mask = np.abs(wide.xi) > big_m
    assert np.count_nonzero(mask) > 10
    lg, g = barrier_operator_oracle(rarefaction_problem, wide, 0.1, mask)
    got = _barrier_ratio(rarefaction_problem, wide, 0.1, mask)
    terms = np.abs(wide.xi[mask]) + 1.0 + rarefaction_problem.epsilon
    assert np.all(np.abs(got - lg / g) <= 8.0 * EPS_MACH * terms)
    margin = wf.barrier_operator_margin(rarefaction_problem, wide, 0.1, big_m)
    assert margin == max(float(np.max(got)),
                         barrier_tail_oracle(rarefaction_problem, wide, big_m))


def test_barrier_margin_far_threshold_is_tail_closed_form(rarefaction_problem,
                                                         rarefaction_profile):
    # at M = 800 no node is left and g = e^{-800} underflows; the ratio does not
    val = wf.barrier_operator_margin(rarefaction_problem, rarefaction_profile, 0.1, 800.0)
    assert np.isfinite(val) and val < 0.0
    assert val == pytest.approx(
        barrier_tail_oracle(rarefaction_problem, rarefaction_profile, 800.0),
        rel=4.0 * EPS_MACH)


def test_barrier_margin_small_threshold_is_diagnostic(rarefaction_profile,
                                                      rarefaction_problem):
    # M = 0 is allowed; the margin is then merely a number, not a certificate
    val = wf.barrier_operator_margin(rarefaction_problem, rarefaction_profile, 0.1, 0.0)
    assert np.isfinite(val)


def test_barrier_margin_errors(rarefaction_profile, rarefaction_problem,
                               shock_profile, shock_problem):
    # a threshold beyond the mesh leaves only the closed-form tails
    far = wf.barrier_operator_margin(rarefaction_problem, rarefaction_profile, 0.1, 1e6)
    assert far == pytest.approx(
        barrier_tail_oracle(rarefaction_problem, rarefaction_profile, 1e6),
        rel=4.0 * EPS_MACH)
    with pytest.raises(InvalidParameterError):
        wf.barrier_operator_margin(shock_problem, shock_profile, 0.1, 3.0)
    with pytest.raises(InvalidParameterError):
        wf.barrier_operator_margin(rarefaction_problem, rarefaction_profile, 0.0, 3.0)


# ---------------------------------------------------------------------------
# translation invariance and uniqueness

def test_translation_defect_independent_of_shift(shock_profile, rarefaction_profile):
    for profile in (shock_profile, rarefaction_profile):
        t0 = wf.translation_invariance_check(profile, 0.05, 0.0)
        t1 = wf.translation_invariance_check(profile, 0.05, 0.7)
        assert t0 <= 1e-10
        assert t1 <= max(2.0 * t0, 1e-10)


def test_translation_check_rejects_other_fluxes(shock_profile):
    cubic = wf.polynomial_flux([0.0, 0.0, 0.0, 1.0])
    with pytest.raises(UnsupportedFluxError):
        wf.translation_invariance_check(shock_profile, 0.05, 0.1, flux=cubic)
    with pytest.raises(InvalidParameterError):
        wf.translation_invariance_check(shock_profile, -0.05, 0.1)


@pytest.mark.parametrize("lam", [0.0, 0.7, -0.3])
def test_translation_defect_matches_written_out_oracle(lam, shock_profile,
                                                       rarefaction_profile):
    # the residual kernel orders the operations differently, so the two
    # agree to the roundoff of the terms the defect is the difference of
    for profile in (shock_profile, rarefaction_profile):
        expected, terms = translation_defect_oracle(profile, 0.05, lam)
        got = wf.translation_invariance_check(profile, 0.05, lam)
        assert abs(got - expected) <= 8.0 * EPS_MACH * terms


def test_uniqueness_probe_agrees(shock_problem):
    result = wf.uniqueness_probe(shock_problem, n_guesses=6)
    assert result.n_converged + result.n_failed == 6
    assert result.n_converged >= 2
    assert result.max_distance <= 1e-6


def test_uniqueness_probe_stable_under_refinement(shock_problem):
    coarse = wf.uniqueness_probe(shock_problem, wf.SolveOptions(nodes_per_layer=60), 6)
    fine = wf.uniqueness_probe(shock_problem, wf.SolveOptions(nodes_per_layer=120), 6)
    # both distances sit at the solver floor; refinement must not lift them off it
    floor = 10.0 * wf.SolveOptions().newton_tol
    assert fine.max_distance <= max(coarse.max_distance, floor)


def test_uniqueness_probe_validation_and_inconclusive(shock_problem):
    with pytest.raises(InvalidParameterError):
        wf.uniqueness_probe(shock_problem, n_guesses=1)
    with pytest.raises(InconclusiveProbeError):
        wf.uniqueness_probe(shock_problem, wf.SolveOptions(max_iter=1), n_guesses=2)


# ---------------------------------------------------------------------------
# corner expansion hook

def test_corner_expansion_remainder_is_small(rarefaction_problem, rarefaction_profile,
                                             corner):
    rem = wf.check_corner_expansion(rarefaction_profile, corner, rarefaction_problem)
    assert np.isfinite(rem)
    assert 0.0 < rem < 10.0


def test_corner_expansion_errors(rarefaction_problem, rarefaction_profile,
                                 shock_problem, shock_profile, corner):
    with pytest.raises(InvalidParameterError):
        wf.check_corner_expansion(shock_profile, corner, shock_problem)
    short = wf.solve_corner(xi_max=2.0)
    with pytest.raises(CoverageError):
        wf.check_corner_expansion(rarefaction_profile, short, rarefaction_problem)


# ---------------------------------------------------------------------------
# the battery

def test_battery_on_shock(shock_problem):
    checks, diag = wf.run_battery(shock_problem)
    assert set(checks) == {"monotone", "l1_window", "first_integral_spread",
                           "translation_invariance", "sweeping_margin",
                           "uniqueness_probe"}
    assert all(c["pass"] for c in checks.values())
    assert all({"value", "threshold", "pass"} <= set(c) for c in checks.values())
    assert diag.K == 1.0
    assert np.isfinite(diag.M) and diag.M > 0.0
    assert diag.margins["sweeping_margin"] > 0.0


def test_battery_on_rarefaction(rarefaction_problem):
    checks, diag = wf.run_battery(rarefaction_problem)
    assert set(checks) == {"monotone", "l1_window", "first_integral_spread",
                           "translation_invariance", "symmetry", "corner_remainder",
                           "sliding_margin", "barrier_margin", "uniqueness_probe"}
    assert all(c["pass"] for c in checks.values())
    assert diag.margins["sliding_margin"] > 0.0
    assert diag.margins["barrier_margin"] < 0.0
    assert np.isfinite(diag.margins["corner_remainder"])


@pytest.mark.parametrize("eps", [0.05, 0.01, 0.005])
def test_battery_on_cubic_rarefaction_returns_verdicts(eps):
    # M is 70 to 612 here; the barrier needs no mesh node beyond it
    prob = wf.ProfileProblem(wf.polynomial_flux([0.0, 0.0, 0.0, 1.0]), -1.0, 1.0, eps)
    checks, diag = wf.run_battery(prob)
    assert diag.M > 60.0
    assert checks["barrier_margin"]["value"] < 0.0
    assert checks["barrier_margin"]["pass"]
    for entry in checks.values():
        assert not (math.isnan(entry["value"]) or math.isnan(entry["threshold"]))


@pytest.mark.parametrize("ul, ur, solves", [(-1.0, 1.0, 1), (1.0, -1.0, 2),
                                            (0.3, 0.3, 1)])
def test_battery_solve_count(monkeypatch, ul, ur, solves):
    # one solve for increasing or constant data, plus the narrow re-solve
    # of the sweeping margin for decreasing data
    calls = []
    real = verification.solve_profile

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(verification, "solve_profile", counting)
    wf.run_battery(wf.ProfileProblem(wf.burgers_flux(), ul, ur, 0.05))
    assert len(calls) == solves


@pytest.mark.parametrize("ul, ur", [(1.0, -1.0), (-1.0, 1.0)])
def test_battery_same_for_burgers_token_and_half_square_polynomial(ul, ur):
    (checks, diag), (poly_checks, poly_diag) = (
        wf.run_battery(wf.ProfileProblem(wf.parse_flux_token(token), ul, ur, 0.05))
        for token in ("burgers", "poly:0,0,0.5"))
    assert "translation_invariance" in poly_checks
    assert poly_checks == checks
    assert poly_diag == diag


def test_battery_on_constant_data():
    prob = wf.ProfileProblem(wf.burgers_flux(), 0.3, 0.3, 0.2)
    checks, diag = wf.run_battery(prob)
    assert set(checks) == {"monotone", "l1_window", "uniqueness_probe"}
    assert all(c["pass"] for c in checks.values())
    assert diag.margins == {}


def test_diagnostics_record_validation():
    with pytest.raises(InvalidParameterError):
        wf.DiagnosticsRecord(K=-1.0, M=1.0, lam=0.1, margins={})
    with pytest.raises(InvalidParameterError):
        wf.DiagnosticsRecord(K=1.0, M=0.0, lam=0.1, margins={})
    with pytest.raises(InvalidParameterError):
        wf.DiagnosticsRecord(K=1.0, M=1.0, lam=0.1, margins={"x": math.nan})
