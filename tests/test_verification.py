"""Structural checks, comparison-function margins, and the check battery."""

import ast
import inspect
import json
import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest

import wavefan as wf
from wavefan.errors import (
    CoverageError,
    InvalidParameterError,
)
from wavefan import cli_io, corner_layer, profile_bvp, verification
from wavefan.flux import divided_difference
from wavefan.verification import _judge, _translate_defect


EPS_MACH = float(np.finfo(float).eps)
BURGERS = wf.burgers_flux()


def interior_d1_oracle(profile):
    """Oracle: the central slope D1(u) at the interior nodes, written out."""
    xi, u = profile.xi, profile.u
    hm = xi[1:-1] - xi[:-2]
    hp = xi[2:] - xi[1:-1]
    sm = (u[1:-1] - u[:-2]) / hm
    sp = (u[2:] - u[1:-1]) / hp
    return (hm * sp + hp * sm) / (hm + hp)


def sliding_margin_oracle(profile, problem, lam):
    """Oracle: the slid translate's per-node defect lam*D1(u) - r at every
    interior node."""
    r = wf.residual(problem, profile)[1:-1]
    return lam * interior_d1_oracle(profile) - r


def sweeping_margin_oracle(profile, problem, lam, big_k):
    """Oracle: the sweeping translate's per-node defect a*D1(u) - r with
    a = f'(u + lam) - f'(u) - 2*K*lam, and a."""
    r = wf.residual(problem, profile)[1:-1]
    d1 = interior_d1_oracle(profile)
    u_in = profile.u[1:-1]
    shift = (wf.derivative(problem.flux, u_in + lam) - wf.derivative(problem.flux, u_in)
             - 2.0 * big_k * lam)
    return shift * d1 - r, shift


def node_noise_oracle(profile, problem, a):
    """Oracle: n = 4*eps_mach*(level + |a|*uscale*(1/hm + 1/hp)) with
    level = 2*eps*uscale/(hm*hp) + |f'(u) - xi|*uscale*(1/hm + 1/hp) and
    uscale the largest |u| of each interior node's three-point stencil."""
    xi, u = profile.xi, profile.u
    hm = xi[1:-1] - xi[:-2]
    hp = xi[2:] - xi[1:-1]
    uscale = np.max(np.abs(np.stack([u[:-2], u[1:-1], u[2:]])), axis=0)
    speed = np.abs(wf.derivative(problem.flux, u[1:-1]) - xi[1:-1])
    level = 2.0 * problem.epsilon * uscale / (hm * hp) \
        + speed * uscale * (1.0 / hm + 1.0 / hp)
    return 4.0 * EPS_MACH * (level + np.abs(a) * uscale * (1.0 / hm + 1.0 / hp))


def margin_verdict_oracle(defect, noise):
    """Oracle: the smallest defect among the nodes with |m| > n (0.0 if
    none) and the number of other nodes."""
    decided = [m for m, n in zip(defect, noise) if abs(m) > n]
    return (min(decided) if decided else 0.0), len(defect) - len(decided)


def barrier_operator_oracle(problem, profile, lam, mask):
    """Oracle: L(g) = eps*g'' - (f'(u_lam) - xi)*g' - du*Q*g for g = e^{-|xi|}
    at the masked nodes, written out term by term, and g there; Q is the
    chord slope of f' between u_lam and u, within Lip(f') of zero."""
    xs = profile.xi[mask]
    u_lam = np.interp(xs + lam, profile.xi, profile.u)
    g = np.exp(-np.abs(xs))
    gp = -np.sign(xs) * g
    q = np.array([divided_difference(problem.flux._d1, a, b)
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
    """Oracle: the translate's defect -R(u) + a*D1(u) under
    eps*u'' = (u - xi)*u', with a = fl(u + lam) - u - lam the rounding of
    the lifted values, written out at every interior node. Returns the max
    |defect| and the largest |term| it is the difference of, which sets its
    roundoff."""
    xi, u = profile.xi, profile.u
    hm = xi[1:-1] - xi[:-2]
    hp = xi[2:] - xi[1:-1]
    sm = (u[1:-1] - u[:-2]) / hm
    sp = (u[2:] - u[1:-1]) / hp
    d2 = 2.0 * (sp - sm) / (hm + hp)
    d1 = (hm * sp + hp * sm) / (hm + hp)
    a = (u[1:-1] + lam) - u[1:-1] - lam
    viscous, transport, lifted = epsilon * d2, (u[1:-1] - xi[1:-1]) * d1, a * d1
    defect = np.abs(lifted - viscous + transport)
    terms = np.abs(viscous) + np.abs(transport) + np.abs(lifted)
    return float(np.max(defect)), float(np.max(terms))


def family_translate(problem, lam):
    """(shift, lift) of the margin family that applies to the data: the slid
    translate u(xi + lam) for increasing data, the sweeping one
    u(xi - 2*K*lam) + lam for decreasing data."""
    if problem.u_left < problem.u_right:
        return -lam, 0.0
    big_k = wf.lipschitz_of_derivative(problem.flux, *problem.state_interval)
    return 2.0 * big_k * lam, lam


# ---------------------------------------------------------------------------
# one calling convention

CHECK_SIGNATURES = {
    "check_monotone": ["profile", "problem"],
    "check_symmetry": ["profile", "problem"],
    "check_corner_expansion": ["profile", "problem"],
    "l1_window_error": ["profile", "problem", "window"],
    "translation_invariance_check": ["profile", "problem", "lam"],
    "sliding_supersolution_margin": ["profile", "problem", "lam"],
    "sweeping_supersolution_margin": ["profile", "problem", "lam"],
    "sliding_constant_M": ["profile", "problem"],
}


@pytest.mark.parametrize("name", sorted(CHECK_SIGNATURES))
def test_every_check_takes_the_profile_then_its_problem(name):
    # the problem carries the states, flux, viscosity and K; a check is
    # passed only what the problem does not fix
    params = list(inspect.signature(getattr(wf, name)).parameters)
    assert params == CHECK_SIGNATURES[name]


def test_check_names_are_the_names_the_battery_reports():
    # Burgers and the cubic, both ways, at 0.05 between them produce every
    # check, corner_remainder included; no name is listed that none produces
    seen = set()
    for flux in ("burgers", "poly:0,0,0,1"):
        for ul in (1.0, -1.0):
            prob = wf.ProfileProblem(wf.parse_flux_token(flux), ul, -ul, 0.05)
            seen |= set(wf.run_battery(prob)[0])
    assert set(verification.CHECK_NAMES) == seen
    assert len(verification.CHECK_NAMES) == len(seen) == 9


# ---------------------------------------------------------------------------
# monotonicity and symmetry detectors

def test_monotone_detector_signs(shock_profile, shock_problem):
    assert wf.check_monotone(shock_profile, shock_problem) >= 0.0
    # flip one interior node: the detector must go negative
    u = shock_profile.u.copy()
    mid = len(u) // 2
    u[mid] = u[mid - 1] + 0.1
    broken = wf.Profile(shock_profile.xi, u, shock_profile.du)
    assert wf.check_monotone(broken, shock_problem) < 0.0


def test_monotone_constant_data_is_zero(shock_profile):
    assert wf.check_monotone(shock_profile, wf.ProfileProblem(BURGERS, 0.5, 0.5, 0.05)) == 0.0


def test_monotone_forgives_a_tail_below_the_data_rounding(monkeypatch):
    # the Burgers shock 0 -> -1's tail steps the wrong way by 7.4e-21, far
    # less than a rounding of the data; the battery and the probe judge it
    # by the same bound, through check_monotone
    prob = wf.ProfileProblem(wf.burgers_flux(), 0.0, -1.0, 0.01)
    checks, _ = wf.run_battery(prob)
    assert checks["monotone"]["threshold"] == -4.0 * EPS_MACH
    assert -4.0 * EPS_MACH <= checks["monotone"]["value"] < 0.0
    assert checks["monotone"]["pass"]

    calls = []
    real = verification.check_monotone

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verification, "check_monotone", counting)
    result = wf.uniqueness_probe(prob, n_guesses=6)
    assert len(calls) >= result.n_converged >= 2


def test_symmetry_zero_for_symmetric_solve(shock_profile, shock_problem,
                                           rarefaction_profile, rarefaction_problem):
    assert wf.check_symmetry(shock_profile, shock_problem) <= 1e-12
    assert wf.check_symmetry(rarefaction_profile, rarefaction_problem) <= 1e-12


def test_symmetry_detects_a_shift(shock_profile, shock_problem):
    s = 1e-4
    shifted = wf.Profile(shock_profile.xi + s, shock_profile.u, shock_profile.du)
    dev = wf.check_symmetry(shifted, shock_problem)
    expected = 2.0 * s * float(np.max(np.abs(shock_profile.du)))
    assert dev == pytest.approx(expected, rel=0.05)


def test_symmetry_across_viscosity_range():
    for eps in (1.0, 0.0125):
        prob = wf.ProfileProblem(wf.burgers_flux(), -1.0, 1.0, eps)
        profile, report = wf.solve_profile(prob)
        assert report.converged
        assert wf.check_symmetry(profile, prob) <= 1e-6


@pytest.mark.parametrize("coeffs", [(1.0, 0.0, 0.5), (0.0, 0.0, 0.5, 0.0)])
def test_quadratic_checks_accept_any_flux_with_identity_derivative(shock_profile,
                                                                   shock_problem, coeffs):
    other = replace(shock_problem, flux=wf.polynomial_flux(coeffs))
    assert wf.check_symmetry(shock_profile, other) \
        == wf.check_symmetry(shock_profile, shock_problem)
    assert wf.translation_invariance_check(shock_profile, other, 0.7) \
        == wf.translation_invariance_check(shock_profile, shock_problem, 0.7)


def test_quadratic_checks_reject_a_shifted_derivative(shock_profile, shock_problem):
    shifted = replace(shock_problem, flux=wf.polynomial_flux((0.0, 1.0, 0.5)))  # f' = u + 1
    with pytest.raises(InvalidParameterError, match=r"odd symmetry needs f'\(u\) = u"):
        wf.check_symmetry(shock_profile, shifted)
    with pytest.raises(InvalidParameterError, match=r"translation family needs f'\(u\) = u"):
        wf.translation_invariance_check(shock_profile, shifted, 0.1)


def test_symmetry_rejects_other_fluxes(shock_profile, shock_problem):
    cubic = replace(shock_problem, flux=wf.polynomial_flux([0.0, 0.0, 0.0, 1.0]))
    with pytest.raises(InvalidParameterError, match=r"odd symmetry needs f'\(u\) = u"):
        wf.check_symmetry(shock_profile, cubic)
    # quadratic flux passes through the guard
    wf.check_symmetry(shock_profile, replace(shock_problem, flux=wf.burgers_flux()))


# ---------------------------------------------------------------------------
# window diagnostics

def test_l1_window_errors(shock_profile, shock_problem):
    with pytest.raises(InvalidParameterError, match="window must be an increasing pair"):
        wf.l1_window_error(shock_profile, shock_problem, (0.5, -0.5))
    with pytest.raises(InvalidParameterError,
                       match=r"window \(-100, 0\) outside the profile mesh"):
        wf.l1_window_error(shock_profile, shock_problem, (-100.0, 0.0))


def test_l1_window_scales_with_viscosity(shock_problem):
    errs = []
    for eps in (0.1, 0.05):
        prob = replace(shock_problem, epsilon=eps)
        profile, _ = wf.solve_profile(prob, wf.SolveOptions(domain=(-2.0, 2.0)))
        errs.append(wf.l1_window_error(profile, prob, (-1.5, 1.5)))
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
    margin, _ = wf.sliding_supersolution_margin(rarefaction_profile, rarefaction_problem, 0.1)
    assert margin > 1e-10


def test_sliding_margin_vanishes_at_zero_lam(rarefaction_profile, rarefaction_problem):
    margin, _ = wf.sliding_supersolution_margin(rarefaction_profile, rarefaction_problem, 0.0)
    assert abs(margin) <= 1e-10  # just the converged residual


def test_sliding_margin_preconditions(shock_profile, shock_problem, rarefaction_profile,
                                      rarefaction_problem):
    with pytest.raises(InvalidParameterError):
        wf.sliding_supersolution_margin(shock_profile, shock_problem, 0.1)
    with pytest.raises(InvalidParameterError):
        wf.sliding_supersolution_margin(rarefaction_profile, rarefaction_problem, -0.1)
    # a translate wider than the domain is still judged at its own nodes
    width = rarefaction_profile.xi[-1] - rarefaction_profile.xi[0]
    value, undecided = wf.sliding_supersolution_margin(rarefaction_profile,
                                                       rarefaction_problem, width)
    assert np.isfinite(value) and undecided <= len(rarefaction_profile.xi) - 2


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
    # the per-node defect is bitwise the oracle's; its roundoff n agrees with
    # the written-out formula to the rounding of n itself, and the reported
    # margin is the oracle's verdict on the two
    increasing = ((rarefaction_problem, rarefaction_profile), cubic_profiles["increasing"])
    for prob, prof in increasing:
        defect, noise = _translate_defect(prof, prob, -lam, 0.0)
        want = sliding_margin_oracle(prof, prob, lam)
        assert np.array_equal(defect, want)
        assert np.allclose(noise, node_noise_oracle(prof, prob, lam),
                           rtol=8.0 * EPS_MACH, atol=0.0)
        assert wf.sliding_supersolution_margin(prof, prob, lam) \
            == margin_verdict_oracle(want, noise)
    for prob, prof in ((shock_problem, shock_profile), cubic_profiles["decreasing"]):
        big_k = wf.lipschitz_of_derivative(prob.flux, *prob.state_interval)
        defect, noise = _translate_defect(prof, prob, 2.0 * big_k * lam, lam)
        want, shift = sweeping_margin_oracle(prof, prob, lam, big_k)
        assert np.array_equal(defect, want)
        assert np.allclose(noise, node_noise_oracle(prof, prob, shift),
                           rtol=8.0 * EPS_MACH, atol=0.0)
        assert wf.sweeping_supersolution_margin(prof, prob, lam) \
            == margin_verdict_oracle(want, noise)


@pytest.mark.parametrize("flux", ["burgers", "poly:0,0,0,1"])
@pytest.mark.parametrize("ul", [1.0, -1.0])
def test_margins_judge_every_interior_node(flux, ul):
    # each node is decided or counted undecided, also for a translate wider
    # than the domain
    prob = wf.ProfileProblem(wf.parse_flux_token(flux), ul, -ul, 0.05)
    prof, _ = wf.solve_profile(prob)
    margin = wf.sliding_supersolution_margin if ul < 0.0 else wf.sweeping_supersolution_margin
    for lam in (0.1, float(prof.xi[-1] - prof.xi[0])):
        defect, noise = _translate_defect(prof, prob, *family_translate(prob, lam))
        decided = int(np.count_nonzero(np.abs(defect) > noise))
        assert decided + margin(prof, prob, lam)[1] == len(prof.xi) - 2


def test_margin_verdict_rule_matches_oracle():
    defect = np.array([3e-12, -1e-13, 5e-12, 2e-14, -4e-12])
    noise = np.full(5, 1e-12)
    assert _judge(defect, noise) == margin_verdict_oracle(defect, noise) == (-4e-12, 2)
    assert _judge(defect[:4], noise[:4]) == (3e-12, 2)
    assert _judge(defect[[1, 3]], noise[[1, 3]]) == (0.0, 2)


MARGIN_GRID = [(flux, ul, -ul, eps)
               for flux in ("burgers", "poly:0,0,0,1", "poly:0,0,-1,0,1")
               for ul in (1.0, -1.0) for eps in (5.0, 0.2, 0.05, 0.005)]


def _solved_margin(flux, ul, ur, eps, bump=None):
    """Per-node defect and roundoff of the margin that applies to the data,
    on the solved profile, and the margin; `bump(problem, profile, lam)`, if
    given, names a node and an amount added to u there first."""
    prob = wf.ProfileProblem(wf.parse_flux_token(flux), ul, ur, eps)
    prof, _ = wf.solve_profile(prob)
    if bump is not None:
        node, size = bump(prob, prof, 0.1)
        u = prof.u.copy()
        u[node] += size
        prof = wf.Profile(prof.xi, u)
    margin = wf.sliding_supersolution_margin if ul < ur else wf.sweeping_supersolution_margin
    return _translate_defect(prof, prob, *family_translate(prob, 0.1)), \
        margin(prof, prob, 0.1)[0]


@pytest.mark.parametrize("flux, ul, ur, eps", MARGIN_GRID)
def test_margins_hold_beyond_roundoff_on_solved_profiles(flux, ul, ur, eps):
    # on the main profile's own domain: no node decidably negative, and at
    # least one decidably positive, so the margin is positive
    (defect, noise), value = _solved_margin(flux, ul, ur, eps)
    assert not np.any(defect < -noise)
    assert np.any(defect > noise)
    assert value > 0.0


def _first_fan(problem):
    exact = wf.solve_exact(problem.flux, problem.u_left, problem.u_right)
    return next((w for w in exact.waves if isinstance(w, wf.riemann.RarefactionFan)), None)


def _tail_bump(problem, profile, lam):
    # 1e-6 of the jump 4*sqrt(eps) left of the wave fan (the domain reaches
    # 5.8*sqrt(eps) past the fan)
    exact = wf.solve_exact(problem.flux, problem.u_left, problem.u_right)
    at = wf.riemann.wave_speed_span(exact)[0] - 4.0 * math.sqrt(problem.epsilon)
    return np.searchsorted(profile.xi, at), 1e-6 * abs(problem.u_right - problem.u_left)


def _corner_bump(problem, profile, lam):
    # 1e-6 of the jump sqrt(eps) outside the first fan's left edge
    at = _first_fan(problem).xi_lo - math.sqrt(problem.epsilon)
    return np.searchsorted(profile.xi, at), 1e-6 * abs(problem.u_right - problem.u_left)


def _fan_bump(problem, profile, lam):
    # At the first fan's midpoint. A bump delta at node i raises the second
    # difference of its neighbours by about delta/h^2, h the step, so it
    # lowers their defect a*D1(u) - r by about eps*delta/h^2, against a
    # defect of about |a*D1(u)| there (a = lam for the slid translate, |a| <=
    # 3*K*lam for the sweeping one, K the Lipschitz constant of f'). It is
    # decidable once eps*delta/h^2 > |a*D1(u)|. In the fan interior D1 =
    # 1/f''(u) is O(1) and the graded mesh's step is up to
    # profile_bvp._FAN_FLOOR = 0.004, so for Burgers at eps = 0.005 that needs
    # delta > 3.2e-4: 1e-6 of the jump is not decidable there. The bump is 10
    # times that bound, with h the node's larger step.
    fan = _first_fan(problem)
    i = np.searchsorted(profile.xi, 0.5 * (fan.xi_lo + fan.xi_hi))
    xi, u = profile.xi, profile.u
    h = max(xi[i + 1] - xi[i], xi[i] - xi[i - 1])
    d1 = (u[i + 1] - u[i - 1]) / (xi[i + 1] - xi[i - 1])
    a = lam if problem.u_left < problem.u_right \
        else 3.0 * wf.lipschitz_of_derivative(problem.flux, *problem.state_interval) * lam
    return i, 10.0 * abs(a * d1) * h * h / problem.epsilon


def _has_fan(flux, ul, ur, eps):
    return _first_fan(wf.ProfileProblem(wf.parse_flux_token(flux), ul, ur, eps)) is not None


# the tail on every case; a corner at eps = 0.005, where its spacing is
# 0.035*c*sqrt(eps) = 2.5e-4 (at 0.2 the cap c*eps/S sets it at 0.007-0.01,
# and by the bound in _fan_bump 1e-6 of the jump is not decidable there);
# the fan's interior at both
BUMP_CASES = [(*case, bump) for case in MARGIN_GRID if case[3] in (0.2, 0.005)
              for bump in (_tail_bump, _corner_bump, _fan_bump)
              if bump is _tail_bump
              or (_has_fan(*case) and (bump is _fan_bump or case[3] == 0.005))]


@pytest.mark.parametrize("flux, ul, ur, eps, bump", BUMP_CASES)
def test_margins_catch_a_small_bump_off_the_layer(flux, ul, ur, eps, bump):
    # a bump off the shock layers is decidably negative for both margins (at
    # a shock layer's centre the sweeping margin's K*lam*|D1|, about
    # 0.05/eps, hides it)
    (defect, noise), value = _solved_margin(flux, ul, ur, eps, bump=bump)
    assert np.any(defect < -noise)
    assert value < 0.0


def test_sweeping_margin_positive_on_resolved_tails(shock_problem):
    # the tails decay to 1e-6 of the jump at |xi| = 0.54 (where
    # xi*1 + xi^2/2 = eps*ln(1e6)), so no node's slope is roundoff
    narrow, _ = wf.solve_profile(shock_problem, wf.SolveOptions(domain=(-0.55, 0.55)))
    margin, _ = wf.sweeping_supersolution_margin(narrow, shock_problem, 0.1)
    assert margin > 1e-10
    assert abs(wf.sweeping_supersolution_margin(narrow, shock_problem, 0.0)[0]) <= 1e-10


def test_sweeping_margin_preconditions(shock_profile, shock_problem,
                                       rarefaction_profile, rarefaction_problem):
    with pytest.raises(InvalidParameterError):
        wf.sweeping_supersolution_margin(rarefaction_profile, rarefaction_problem, 0.1)
    with pytest.raises(InvalidParameterError):
        wf.sweeping_supersolution_margin(shock_profile, shock_problem, -1.0)


@pytest.mark.parametrize("token", ["poly:0,1", "poly:2,-0.5"])
def test_a_linear_flux_has_no_sweeping_margin(token, tmp_path):
    # with K = 0 the sweeping offset f'(u + lam) - f'(u) - 2*K*lam is zero,
    # so the translate u + lam solves the equation: its defect is -R(u) bit
    # for bit, and its sign the converged residual's roundoff (for f = u it
    # read 0, all 337 nodes undecided, at eps 0.05 and 8.1e-12 at 0.005)
    flux = wf.parse_flux_token(token)
    assert wf.lipschitz_of_derivative(flux, -1.0, 1.0) == 0.0
    for eps in (0.05, 0.005):
        prob = wf.ProfileProblem(flux, 1.0, -1.0, eps)
        profile, _ = wf.solve_profile(prob)
        defect, noise = _translate_defect(profile, prob, 0.0, 0.1)
        assert np.array_equal(defect, -wf.residual(prob, profile)[1:-1])
        assert np.array_equal(noise, wf.residual_noise(prob, profile))
        out = tmp_path / "checks.json"
        assert cli_io.main(["verify", "--flux", token, "--ul", "1", "--ur", "-1",
                            "--eps", repr(eps), "--out", str(out)]) == 0
        assert set(json.loads(out.read_text())) == {"monotone", "l1_window",
                                                    "uniqueness_probe"}


@pytest.mark.parametrize("call", [
    lambda prof, prob, path: wf.windowed_by_slope(prof),
    lambda prof, prob, path: wf.sliding_constant_M(prof, prob),
    lambda prof, prob, path: cli_io.write_profile(prof, path),
], ids=["windowed_by_slope", "sliding_constant_M", "write_profile"])
def test_a_profile_without_a_slope_is_a_package_error(call, shock_profile, shock_problem,
                                                      tmp_path):
    bare = wf.Profile(shock_profile.xi, shock_profile.u)
    with pytest.raises(InvalidParameterError, match="du"):
        call(bare, shock_problem, tmp_path / "profile.csv")


def test_sliding_constant_formula(rarefaction_profile):
    prob = wf.ProfileProblem(wf.burgers_flux(), -1.0, 1.0, 0.1)
    profile, _ = wf.solve_profile(prob)
    m = wf.sliding_constant_M(profile, prob)
    assert m == pytest.approx(2.1 + float(np.max(np.abs(profile.du))), rel=1e-12)
    # only the viscosity term moves when the profile is held fixed
    doubled = wf.sliding_constant_M(profile, replace(prob, epsilon=0.2))
    assert doubled - m == pytest.approx(0.1, rel=1e-9)


def test_sliding_constant_for_constant_data():
    prob = wf.ProfileProblem(wf.burgers_flux(), 0.3, 0.3, 0.2)
    profile, _ = wf.solve_profile(prob)
    assert wf.sliding_constant_M(profile, prob) == pytest.approx(1.5, rel=1e-14)


@pytest.fixture(scope="module")
def wide_rarefaction(rarefaction_problem):
    """The rarefaction re-solved on a domain reaching past |xi| = M."""
    base, _ = wf.solve_profile(rarefaction_problem)
    big_m = wf.sliding_constant_M(base, rarefaction_problem)
    wide, _ = wf.solve_profile(
        rarefaction_problem, wf.SolveOptions(domain=(-(big_m + 1.5), big_m + 1.5)))
    return wide


@pytest.mark.parametrize("token", ["burgers", "poly:0,0,0,1", "poly:0,0,-1,0,1"])
def test_barrier_ratio_is_at_most_minus_one_past_the_sliding_constant(token, rarefaction_problem,
                                                                      wide_rarefaction):
    # L(g)/g = eps - |xi| + sign(xi)*f'(u_lam) - du*Q <= eps - M + sup|f'|
    # + max|du|*Lip(f') = -1 past M = sliding_constant_M, for any profile
    # whose values lie in the state interval: a barrier verdict at this M
    # cannot fail, so the battery reports M and checks nothing with it.
    # Random profiles: values in the interval, slopes of either sign,
    # meshes ending on either side of M; the allowance is 8 eps_mach times
    # the terms' size, |xi| + M
    flux = wf.parse_flux_token(token)
    rng = np.random.default_rng(47)
    cases = [(rarefaction_problem, wide_rarefaction)] if token == "burgers" else []
    for _ in range(20):
        lo, hi = np.sort(rng.uniform(-1.5, 1.5, 2))
        prob = wf.ProfileProblem(flux, float(lo), float(hi), float(10.0 ** rng.uniform(-3, -1)))
        n = int(rng.integers(5, 200))
        du = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-1.0, 1.0)
        big_m = wf.sliding_constant_M(wf.Profile(np.arange(n, dtype=float), du, du), prob)
        # nodes within 1 of -M and of M, each end up to 1 inside M or 2 past it
        reach = rng.uniform(-1.0, 2.0, 2)
        xi = np.sort(np.concatenate([-big_m - rng.uniform(-1.0, reach[0], n // 2),
                                     big_m + rng.uniform(-1.0, reach[1], n - n // 2)]))
        cases.append((prob, wf.Profile(xi, rng.uniform(lo, hi, n), du)))
    beyond = 0
    for prob, profile in cases:
        big_m = wf.sliding_constant_M(profile, prob)
        mask = np.abs(profile.xi) > big_m
        beyond += np.count_nonzero(mask)
        lg, g = barrier_operator_oracle(prob, profile, 0.1, mask)
        worst = max(np.max(lg / g, initial=-math.inf), barrier_tail_oracle(prob, profile, big_m))
        assert worst <= -1.0 + 8.0 * EPS_MACH * (np.max(np.abs(profile.xi)) + big_m)
    assert beyond > 100


# ---------------------------------------------------------------------------
# translation invariance and uniqueness

def test_translation_defect_independent_of_shift(shock_profile, shock_problem,
                                                  rarefaction_profile, rarefaction_problem):
    for profile, problem in ((shock_profile, shock_problem),
                             (rarefaction_profile, rarefaction_problem)):
        t0 = wf.translation_invariance_check(profile, problem, 0.0)
        t1 = wf.translation_invariance_check(profile, problem, 0.7)
        assert t0 <= 1e-10
        assert t1 <= max(2.0 * t0, 1e-10)


def test_translation_defect_is_the_residual_of_any_profile():
    # the translate's u - xi and differences are those of u, so a profile
    # bumped by 1e-2 gives the same value at every shift: its own residual.
    # At xi = 0.2, u is in [-1, -0.5) and u + 0.7 is exact (both are
    # multiples of 2^-53 below 1), so the identity holds bitwise there
    problem = wf.ProfileProblem(BURGERS, 1.0, -1.0, 0.01)
    profile, _ = wf.solve_profile(problem)
    i = int(np.argmin(np.abs(profile.xi - 0.2)))
    u = profile.u.copy()
    u[i] += 1e-2
    bumped = wf.Profile(profile.xi, u)
    assert profile.xi[i] + 0.7 < profile.xi[-1]
    t0 = wf.translation_invariance_check(bumped, problem, 0.0)
    assert t0 == np.max(np.abs(wf.residual(problem, bumped)[1:-1])) > 1.0
    assert wf.translation_invariance_check(bumped, problem, 0.7) == t0


@pytest.mark.parametrize("eps", [0.01, 0.005, 1e-3, 5e-4, 1000.0])
def test_translation_defect_stays_at_the_floor_as_viscosity_falls(eps):
    # the rounding of u + 0.7 enters only through the offset's a*D1(u); in
    # eps*D2 of the lifted values it read 2.33e-10, 4.56e-10 and 2.49e-10 at
    # 1e-3, 5e-4 and 1000, above the battery's threshold
    problem = wf.ProfileProblem(BURGERS, 1.0, -1.0, eps)
    profile, _ = wf.solve_profile(problem)
    t0 = wf.translation_invariance_check(profile, problem, 0.0)
    t1 = wf.translation_invariance_check(profile, problem, 0.7)
    assert t1 <= max(2.0 * t0, 10.0 * wf.SolveOptions().newton_tol)


@pytest.mark.parametrize("ul, ur", [(1.0, -1.0), (-1.0, 1.0), (1.003, -0.998), (-1.002, 0.997),
                                    (0.0, -1.0), (0.5, 0.4999995), (1.0, 0.999999),
                                    (0.1, -0.1), (-0.1, 0.1)])
def test_zero_shift_translate_defect_is_the_solves_residual_bitwise(ul, ur):
    # the offset f'(u) - f'(u) - 0 is 0 exactly, and the solve pins both end
    # rows at 0, so the zero-shift defect is the residual the solve reported
    for eps in (1.0, 0.05, 0.01, 5e-3, 1e-3, 5e-4, 1000.0):
        problem = wf.ProfileProblem(BURGERS, ul, ur, eps)
        profile, report = wf.solve_profile(problem)
        assert wf.translation_invariance_check(profile, problem, 0.0) == report.residual_norm


def test_battery_judges_translation_against_the_solves_residual(monkeypatch):
    # the threshold is built from the battery's own solve, and the check
    # runs once, at the shift it judges
    reports, shifts = [], []
    real_solve, real_check = verification.solve_profile, verification.translation_invariance_check

    def solve(problem, options=None):
        profile, report = real_solve(problem, options)
        reports.append(report)
        return profile, report

    def check(profile, problem, lam):
        shifts.append(lam)
        return real_check(profile, problem, lam)

    monkeypatch.setattr(verification, "solve_profile", solve)
    monkeypatch.setattr(verification, "translation_invariance_check", check)
    opts = wf.SolveOptions()
    for ul in (1.0, -1.0):
        reports.clear()
        shifts.clear()
        checks, _ = wf.run_battery(wf.ProfileProblem(BURGERS, ul, -ul, 0.05), opts)
        assert shifts == [0.7] and len(reports) == 1
        assert checks["translation_invariance"]["threshold"] \
            == max(2.0 * reports[0].residual_norm, 10.0 * opts.newton_tol)


def test_translation_check_rejects_other_fluxes(shock_profile, shock_problem):
    cubic = replace(shock_problem, flux=wf.polynomial_flux([0.0, 0.0, 0.0, 1.0]))
    with pytest.raises(InvalidParameterError, match=r"translation family needs f'\(u\) = u"):
        wf.translation_invariance_check(shock_profile, cubic, 0.1)
    with pytest.raises(InvalidParameterError):  # raised by the problem itself
        wf.translation_invariance_check(shock_profile, replace(shock_problem, epsilon=-0.05),
                                        0.1)
    with pytest.raises(InvalidParameterError, match="lam must be finite"):
        wf.translation_invariance_check(shock_profile, shock_problem, math.nan)
    # a shift wider than the domain is still judged at the translate's own nodes
    width = shock_profile.xi[-1] - shock_profile.xi[0]
    assert np.isfinite(wf.translation_invariance_check(shock_profile, shock_problem,
                                                       1.5 * width))


@pytest.mark.parametrize("lam", [0.0, 0.7, -0.3])
def test_translation_defect_matches_written_out_oracle(lam, shock_profile, shock_problem,
                                                       rarefaction_profile,
                                                       rarefaction_problem):
    # the residual kernel orders the operations differently, so the two
    # agree to the roundoff of the terms the defect is the difference of
    for profile, problem in ((shock_profile, shock_problem),
                             (rarefaction_profile, rarefaction_problem)):
        expected, terms = translation_defect_oracle(profile, 0.05, lam)
        got = wf.translation_invariance_check(profile, problem, lam)
        assert abs(got - expected) <= 8.0 * EPS_MACH * terms


def test_uniqueness_probe_agrees(shock_problem):
    result = wf.uniqueness_probe(shock_problem, n_guesses=6)
    assert result.n_converged + result.n_out_of_class + result.n_failed == 6
    assert result.n_converged >= 2
    assert result.max_distance <= 1e-6


def test_uniqueness_probe_stable_under_refinement(shock_problem):
    coarse = wf.uniqueness_probe(shock_problem, wf.SolveOptions(nodes_per_layer=60), 6)
    fine = wf.uniqueness_probe(shock_problem, wf.SolveOptions(nodes_per_layer=120), 6)
    # both distances sit at the solver floor; refinement must not lift them off it
    floor = 10.0 * wf.SolveOptions().newton_tol
    assert fine.max_distance <= max(coarse.max_distance, floor)


def test_uniqueness_probe_validation_and_inconclusive(shock_problem, monkeypatch):
    with pytest.raises(InvalidParameterError):
        wf.uniqueness_probe(shock_problem, n_guesses=1)
    # one flow step cannot relax a ramp to the handover residual, so every
    # run fails inside the flow and Newton never starts
    newtons = []
    real_newton = verification.newton_solve

    def newton(*args, **kwargs):
        newtons.append(True)
        return real_newton(*args, **kwargs)

    monkeypatch.setattr(verification, "newton_solve", newton)
    monkeypatch.setattr(profile_bvp, "_FLOW_STEPS", 1)
    result = wf.uniqueness_probe(shock_problem, n_guesses=2)
    assert newtons == []
    assert result == wf.ProbeResult(max_distance=math.inf, n_converged=0, n_failed=2,
                                    n_out_of_class=0)


def test_inconclusive_probe_reports_its_counts():
    # the cubic's six default ramps at 0.005: one run ends in the class, one
    # in an unresolved steady state out of it, and four flows stall
    problem = wf.ProfileProblem(wf.parse_flux_token("poly:0,0,0,1"), -1.0, 1.0, 0.005)
    result = wf.uniqueness_probe(problem, n_guesses=6)
    assert result == wf.ProbeResult(max_distance=math.inf, n_converged=1, n_failed=4,
                                    n_out_of_class=1)


def test_verification_uses_no_private_profile_bvp_name():
    # the checks reach the scheme only through its public functions, which
    # look `_Central` up at call time, so a class set in its place reaches
    # them too; no code here writes to one
    tree = ast.parse(pathlib.Path(verification.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                and node.module == "profile_bvp" for alias in node.names}
    assert "residual" in imported
    looked_up = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id == "profile_bvp"}
    assert not {name for name in imported | looked_up if name.startswith("_")}
    assigned = [target for node in ast.walk(tree)
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
                for target in (node.targets if isinstance(node, ast.Assign) else [node.target])]
    assert not any(isinstance(t, ast.Attribute) for t in assigned)


def _spoil_runs(monkeypatch, spoilers):
    """Apply spoilers[k] to the values of the probe's k-th converged run."""
    real_newton = verification.newton_solve
    runs = []

    def newton(problem, guess, opts=None):
        profile, report = real_newton(problem, guess, opts)
        spoil = spoilers[len(runs)] if len(runs) < len(spoilers) else None
        runs.append(True)
        if spoil is None:
            return profile, report
        u = profile.u.copy()
        spoil(u)
        return wf.Profile(profile.xi, u), report

    monkeypatch.setattr(verification, "newton_solve", newton)


def _overshoot(u):       # 0.5 past the state interval, far from the others
    u[len(u) // 2] = 1.5


def _kink(u):            # a wrong-way step of 0.5, inside the interval
    k = int(np.argmin(np.abs(u)))
    u[k], u[k + 1] = u[k + 1] - 0.25, u[k] + 0.25


def test_uniqueness_probe_leaves_out_of_class_runs_out(shock_problem, monkeypatch):
    _spoil_runs(monkeypatch, [_overshoot, _kink])
    result = wf.uniqueness_probe(shock_problem, n_guesses=4)
    assert (result.n_converged, result.n_out_of_class, result.n_failed) == (2, 2, 0)
    assert result.max_distance <= 1e-6


@pytest.mark.parametrize("spoiler", [_overshoot, _kink])
def test_uniqueness_probe_is_inconclusive_with_one_run_in_class(shock_problem,
                                                                monkeypatch, spoiler):
    _spoil_runs(monkeypatch, [spoiler])
    result = wf.uniqueness_probe(shock_problem, n_guesses=2)
    assert result == wf.ProbeResult(max_distance=math.inf, n_converged=1, n_failed=0,
                                    n_out_of_class=1)


@pytest.mark.parametrize("units, in_class", [(4, True), (8, False)])
def test_uniqueness_probe_class_tolerance_is_four_roundings(shock_problem, monkeypatch,
                                                            units, in_class):
    # 1 -> -1: a last-but-one node `units` eps_mach below the right state is
    # that far outside the interval and a wrong-way step of the same size;
    # the tolerance is 4*eps_mach*max(|uL|, |uR|) = 4*eps_mach
    def spoil(u):
        u[-2] = -1.0 - units * EPS_MACH

    _spoil_runs(monkeypatch, [spoil])
    result = wf.uniqueness_probe(shock_problem, n_guesses=3)
    assert result.n_out_of_class == (0 if in_class else 1)
    assert result.n_converged == (3 if in_class else 2)


@pytest.mark.parametrize("flux, ul, eps", [
    ("burgers", 1.0, 0.01), ("burgers", 1.0, 0.005),
    ("poly:0,0,0,1", 1.0, 0.05), ("poly:0,0,0,1", -1.0, 0.05),
    ("poly:0,0,0,1", 1.0, 0.01), ("poly:0,0,0,1", -1.0, 0.01),
    ("poly:0,0,-1,0,1", 1.0, 0.01), ("poly:0,0,-1,0,1", -1.0, 0.01),
    ("poly:0,0,-1,0,1", 1.0, 0.005), ("poly:0,0,-1,0,1", -1.0, 0.005),
])
def test_uniqueness_probe_relaxed_along_the_flow_agrees(flux, ul, eps):
    # cold Newton from the same 6 ramps left every one of these inconclusive
    problem = wf.ProfileProblem(wf.parse_flux_token(flux), ul, -ul, eps)
    result = wf.uniqueness_probe(problem, n_guesses=6)
    assert result.n_converged >= 2
    assert result.n_converged + result.n_out_of_class + result.n_failed == 6
    assert result.max_distance <= 1e-6


# ---------------------------------------------------------------------------
# corner expansion hook

def test_corner_expansion_remainder_is_small(rarefaction_problem, rarefaction_profile):
    rem = wf.check_corner_expansion(rarefaction_profile, rarefaction_problem)
    assert np.isfinite(rem)
    assert 0.0 < rem < 10.0


def test_corner_expansion_reads_the_interpolation_error_on_the_expansion_itself(
        rarefaction_problem, corner):
    # a profile that is the expansion, sampled at the midpoints of the
    # nodes of the check's corner (the default one at eps 0.05), leaves only
    # the interpolation error, O(h^4) with h = 0.009, times the weight
    # e^{1/sqrt(eps)}/sqrt(eps) ~ 390
    fine = wf.solve_corner(n_points=2 * len(corner.xi) - 1)
    root = math.sqrt(rarefaction_problem.epsilon)
    ul = rarefaction_problem.u_left
    expansion = wf.Profile(ul + root * fine.xi, ul + root * fine.u)
    rem = wf.check_corner_expansion(expansion, rarefaction_problem)
    assert rem <= 1e-8


def test_corner_expansion_errors(shock_problem, shock_profile):
    with pytest.raises(InvalidParameterError):
        wf.check_corner_expansion(shock_profile, shock_problem)
    # the rescaled half-mesh reaches 1/sqrt(1e-3) = 31.6, past the corner's cap of 30
    prob = wf.ProfileProblem(BURGERS, -1.0, 1.0, 1e-3)
    with pytest.raises(CoverageError, match="corner profile covers"):
        wf.check_corner_expansion(wf.solve_profile(prob)[0], prob)


def test_corner_expansion_weight_overflow_is_a_coverage_error():
    # e^(1/sqrt(eps)) is e^1000 at eps 1e-6, past the largest double
    prob = wf.ProfileProblem(BURGERS, -0.01, 0.01, 1e-6)
    with pytest.raises(CoverageError, match="overflows"):
        wf.check_corner_expansion(wf.solve_profile(prob)[0], prob)


def test_battery_fails_a_non_finite_corner_remainder(monkeypatch, rarefaction_problem):
    # a value that overflows where the weight does not is a failing verdict,
    # kept out of the diagnostics' (finite) margins
    monkeypatch.setattr(verification, "check_corner_expansion", lambda *args: math.inf)
    checks, diag = wf.run_battery(rarefaction_problem)
    assert checks["corner_remainder"] == {"value": math.inf, "threshold": math.inf,
                                          "pass": False}
    assert "corner_remainder" not in diag.margins


def test_corner_remainder_is_flat_where_the_mesh_resolves_it():
    # the normalized remainder is bounded in eps; down to eps = 0.005 the
    # mesh resolves it and it reads 0.661-0.663 (below about 0.004 it reads
    # mesh error instead, see run_battery)
    values = [wf.run_battery(wf.ProfileProblem(wf.burgers_flux(), -1.0, 1.0, eps))[0]
              ["corner_remainder"]["value"] for eps in (0.05, 0.01, 0.005)]
    assert max(values) / min(values) <= 1.01


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


def test_a_passing_probe_entry_carries_its_run_counts(shock_problem):
    entry = wf.run_battery(shock_problem)[0]["uniqueness_probe"]
    probe = wf.uniqueness_probe(shock_problem, seed=verification.DEFAULT_PROBE_SEED)
    assert entry["pass"]
    assert list(entry) == ["value", "threshold", "pass",
                           "n_converged", "n_out_of_class", "n_failed"]
    assert (entry["value"], entry["n_converged"], entry["n_out_of_class"],
            entry["n_failed"]) == (probe.max_distance, probe.n_converged,
                                   probe.n_out_of_class, probe.n_failed)
    assert probe.n_converged + probe.n_out_of_class + probe.n_failed == 6


def test_battery_and_probe_reject_a_negative_seed(shock_problem):
    with pytest.raises(InvalidParameterError, match="probe seed must be non-negative"):
        wf.run_battery(shock_problem, seed=-1)
    with pytest.raises(InvalidParameterError, match="probe seed must be non-negative"):
        wf.uniqueness_probe(shock_problem, seed=-1)


def test_battery_on_rarefaction(rarefaction_problem):
    checks, diag = wf.run_battery(rarefaction_problem)
    assert set(checks) == {"monotone", "l1_window", "first_integral_spread",
                           "translation_invariance", "symmetry", "corner_remainder",
                           "sliding_margin", "uniqueness_probe"}
    assert all(c["pass"] for c in checks.values())
    assert diag.margins["sliding_margin"] > 0.0
    assert np.isfinite(diag.margins["corner_remainder"])


def test_battery_reports_the_sliding_constant_of_its_solve(rarefaction_problem):
    # M is reported, not checked: the battery's M is that of its own solve,
    # and no margin is judged against it
    _, diag = wf.run_battery(rarefaction_problem)
    profile, _ = wf.solve_profile(rarefaction_problem)
    assert diag.M == wf.sliding_constant_M(profile, rarefaction_problem)
    assert "barrier_margin" not in diag.margins


@pytest.mark.parametrize("ul, eps", [(-0.1, 1e-3), (0.1, 1e-3), (-0.01, 1e-6), (0.01, 1e-6)])
def test_battery_keeps_its_translates_on_narrow_domains(ul, eps):
    # the domains are about 0.57 and 0.03 wide, less than the translation
    # check's 0.7 and, at 1e-6, the margins' 0.1, which each translate's own
    # nodes need not fit; below eps 1.985e-6 the corner's weight overflows
    # and corner_remainder is left out
    prob = wf.ProfileProblem(BURGERS, ul, -ul, eps)
    checks, diag = wf.run_battery(prob)
    applicable = {"monotone", "l1_window", "first_integral_spread",
                  "translation_invariance", "uniqueness_probe"}
    if ul < 0.0:
        applicable |= {"symmetry", "sliding_margin"}
        if eps > 1.985e-6:
            applicable.add("corner_remainder")
    else:
        applicable.add("sweeping_margin")
    assert set(checks) == applicable
    counts = {"uniqueness_probe": {"n_converged", "n_out_of_class", "n_failed"},
              "sliding_margin": {"undecided"}, "sweeping_margin": {"undecided"}}
    for name, entry in checks.items():
        assert set(entry) == {"value", "threshold", "pass"} | counts.get(name, set())
    assert checks["translation_invariance"]["pass"]
    assert diag.lam == 0.1


def test_battery_judges_margins_at_their_roundoff():
    # the cubic rarefaction's sliding margin is below the old fixed floor
    # 10*newton_tol = 1e-10, but decidably positive
    prob = wf.ProfileProblem(wf.polynomial_flux([0.0, 0.0, 0.0, 1.0]), -1.0, 1.0, 0.2)
    checks, diag = wf.run_battery(prob)
    defect, noise = _translate_defect(wf.solve_profile(prob)[0], prob, -diag.lam, 0.0)
    value, undecided = margin_verdict_oracle(defect, noise)
    assert checks["sliding_margin"] == {"value": value, "threshold": 0.0, "pass": True,
                                        "undecided": undecided}
    assert list(checks["sliding_margin"]) == ["value", "threshold", "pass", "undecided"]
    assert 0.0 < value < 1e-10
    assert diag.margins["sliding_margin"] == value
    assert undecided > 0


@pytest.mark.parametrize("eps", [0.05, 0.01, 0.005])
def test_battery_on_cubic_rarefaction_returns_verdicts(eps):
    prob = wf.ProfileProblem(wf.polynomial_flux([0.0, 0.0, 0.0, 1.0]), -1.0, 1.0, eps)
    checks, diag = wf.run_battery(prob)
    assert diag.M > 60.0
    for entry in checks.values():
        assert not (math.isnan(entry["value"]) or math.isnan(entry["threshold"]))


@pytest.mark.parametrize("ul, ur", [(-1.0, 1.0), (1.0, -1.0), (0.3, 0.3)])
def test_battery_solve_count(monkeypatch, ul, ur):
    # one solve_profile call feeds every check, whichever way the data run;
    # the uniqueness probe's own Newton runs are not counted
    profiles, newtons, in_probe = [], [], []
    real_solve, real_newton = verification.solve_profile, verification.newton_solve
    real_probe = verification.uniqueness_probe

    def counting_solve(*args, **kwargs):
        profiles.append(args)
        return real_solve(*args, **kwargs)

    def counting_newton(problem, guess, opts=None):
        if not in_probe:
            newtons.append(guess)
        return real_newton(problem, guess, opts)

    def probe(*args, **kwargs):
        in_probe.append(True)
        try:
            return real_probe(*args, **kwargs)
        finally:
            in_probe.pop()

    monkeypatch.setattr(verification, "solve_profile", counting_solve)
    monkeypatch.setattr(verification, "newton_solve", counting_newton)
    monkeypatch.setattr(verification, "uniqueness_probe", probe)
    problem = wf.ProfileProblem(wf.burgers_flux(), ul, ur, 0.05)
    wf.run_battery(problem)
    assert len(profiles) == 1
    assert newtons == []


def test_increasing_burgers_batteries_integrate_the_corner_once():
    cache = corner_layer._corner_profile
    cache.cache_clear()
    for ul, ur in ((-1.0, 1.0), (-0.5, 1.0)):
        checks, _ = wf.run_battery(wf.ProfileProblem(wf.burgers_flux(), ul, ur, 0.05))
        assert "corner_remainder" in checks
    assert cache.cache_info().misses == 1
    # the batteries used the default range and node count
    wf.solve_corner(xi_max=10.0, n_points=2001)
    assert cache.cache_info().misses == 1


@pytest.mark.parametrize("ul, ur, eps", [(-1.004, 0.997, 0.01), (-1.0, 1.0, 0.005)])
def test_battery_sizes_the_corner_to_the_rescaled_mesh(ul, ur, eps):
    # the rescaled half-mesh reaches 10.005 and 14.1, past the default
    # corner's 10; the corner is widened to 11 and 15 instead of the check
    # being dropped
    checks, diag = wf.run_battery(wf.ProfileProblem(BURGERS, ul, ur, eps))
    assert checks["corner_remainder"]["pass"]
    assert np.isfinite(diag.margins["corner_remainder"])


@pytest.mark.parametrize("ul, ur", [
    (1.0, -1.0), (-1.0, 1.0),
    # jumps of one ulp and of 1e-9, both ways: the reconstructed slope has
    # exactly flat steps between resolved ones
    (1.0, 1.0 + 2.0 ** -52), (1.0 + 2.0 ** -52, 1.0), (1.0, 1.0 + 1e-9), (1.0 + 1e-9, 1.0)])
def test_battery_same_for_burgers_token_and_half_square_polynomial(ul, ur):
    (checks, diag), (poly_checks, poly_diag) = (
        wf.run_battery(wf.ProfileProblem(wf.parse_flux_token(token), ul, ur, 0.05))
        for token in ("burgers", "poly:0,0,0.5"))
    assert {"translation_invariance", "first_integral_spread"} <= set(poly_checks)
    assert poly_checks == checks
    assert poly_diag == diag
    # the first integral's window holds the slope's peak and no zero slope
    profile, _ = wf.solve_profile(wf.ProfileProblem(BURGERS, ul, ur, 0.05))
    window = wf.windowed_by_slope(profile)
    assert np.max(np.abs(window.du)) == np.max(np.abs(profile.du))
    assert np.all(window.du != 0.0)


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
