"""Numerical certificates for computed profiles.

Each check here turns a structural property of the viscous profiles --
monotonicity, odd symmetry, the corner-layer expansion, comparison-function
(super/subsolution) margins, uniqueness, translation invariance -- into a
number with a definite expected sign or bound. Margins that a proof wants
strictly positive are reported as values to compare against a noise floor
(10x the solver tolerance), since strict pointwise inequalities are not
machine-checkable. The barrier margin is L(g)/g, read off the main profile
and closed-form tails past its ends, so no solve has to reach out to M.

The margin checks evaluate translates by moving the *sample points*, never
by re-interpolating the profile values: a translate of a mesh function is
known exactly at its own shifted nodes, so the only noise in the reported
defect is the roundoff already present in the residual. Interpolating first
would bury the margins under O(h^2) interpolation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import expit

from .corner_layer import CornerProfile, first_integral_H, solve_corner
from .errors import (
    CoverageError,
    InconclusiveProbeError,
    InvalidParameterError,
    LinearSolverError,
    NonConvergenceError,
    UnsupportedFluxError,
    WindowError,
)
from .flux import (
    FluxSpec,
    burgers_flux,
    chord_slope_Q,
    derivative,
    has_identity_derivative,
    lipschitz_of_derivative,
    sup_derivative,
)
from .profile_bvp import (
    Profile,
    ProfileProblem,
    SolveOptions,
    _Workspace,
    build_mesh,
    newton_solve,
    residual,
    solve_profile,
)
from .riemann import eval_riemann, solve_exact, wave_speed_span

DEFAULT_PROBE_SEED = 20240817


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Constants and margins shared by the comparison-function checks."""

    K: float            # Lipschitz constant of f' used by the sweeping family
    M: float            # threshold beyond which the barrier argument applies
    lam: float          # translate amount used for the margin checks
    margins: dict       # check-name -> reported margin

    def __post_init__(self):
        if not (np.isfinite(self.K) and self.K >= 0.0):
            raise InvalidParameterError("K must be finite and nonnegative")
        if not (np.isfinite(self.M) and self.M > 0.0):
            raise InvalidParameterError("M must be finite and positive")
        if any(not np.isfinite(v) for v in self.margins.values()):
            raise InvalidParameterError("margins must be finite")


@dataclass(frozen=True)
class ProbeResult:
    max_distance: float
    n_converged: int
    n_failed: int


def check_monotone(profile: Profile, u_left: float, u_right: float) -> float:
    """Minimum signed difference quotient; >= 0 means monotone the right way.

    Returns min over adjacent node pairs of sign(uR-uL)*(u_{i+1}-u_i)/dxi;
    0 by convention when uL = uR."""
    s = float(np.sign(u_right - u_left))
    if s == 0.0:
        return 0.0
    d = np.diff(profile.u) / np.diff(profile.xi)
    return float(np.min(s * d))


def check_symmetry(profile: Profile, u_left: float, u_right: float,
                   flux: FluxSpec | None = None) -> float:
    """Sup deviation from the odd symmetry u(uL+uR-xi) + u(xi) = uL+uR.

    The symmetry holds when f'(u) = u (the quadratic flux u^2/2, up to a
    constant), so passing a flux without that derivative is an error;
    omitting `flux` asserts the caller knows the profile solves
    eps*u'' = (u - xi)*u'."""
    if flux is not None and not has_identity_derivative(flux):
        raise UnsupportedFluxError("odd symmetry needs f'(u) = u")
    total = u_left + u_right
    xi, u = profile.xi, profile.u
    mirrored_x = total - xi
    mask = (mirrored_x >= xi[0]) & (mirrored_x <= xi[-1])
    mirrored_u = np.interp(mirrored_x[mask], xi, u)
    return float(np.max(np.abs(mirrored_u + u[mask] - total)))


def check_corner_expansion(profile: Profile, corner: CornerProfile,
                           problem: ProfileProblem) -> float:
    """Normalized remainder of the corner-layer expansion at the fan's left
    edge: sup over nodes with xi <= (uL+uR)/2 of

        |u_eps(xi) - sqrt(eps)*U((xi-uL)/sqrt(eps)) - uL| * e^{1/sqrt(eps)} / sqrt(eps).

    The exponential weight makes boundedness of the result a sharp statement
    about the expansion's error term."""
    if not problem.u_left < problem.u_right:
        raise InvalidParameterError("corner expansion applies to increasing data")
    root = math.sqrt(problem.epsilon)
    mid = 0.5 * (problem.u_left + problem.u_right)
    mask = profile.xi <= mid
    s = (profile.xi[mask] - problem.u_left) / root
    if s[0] < corner.xi[0] or s[-1] > corner.xi[-1]:
        raise CoverageError(
            "corner profile covers [%g, %g] but the rescaled mesh needs [%g, %g]"
            % (corner.xi[0], corner.xi[-1], s[0], s[-1]))
    big_u = CubicSpline(corner.xi, corner.u)(s)
    rem = np.abs(profile.u[mask] - root * big_u - problem.u_left)
    return float(np.max(rem) * math.exp(1.0 / root) / root)


def l1_window_error(profile: Profile, exact, window) -> float:
    """Trapezoid integral of |profile - exact Riemann solution| over a window."""
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise WindowError("window must be an increasing pair")
    if lo < profile.xi[0] or hi > profile.xi[-1]:
        raise WindowError("window (%g, %g) outside the profile mesh (%g, %g)"
                          % (lo, hi, profile.xi[0], profile.xi[-1]))
    inner = profile.xi[(profile.xi > lo) & (profile.xi < hi)]
    xs = np.concatenate([[lo], inner, [hi]])
    diff = np.abs(np.interp(xs, profile.xi, profile.u) - eval_riemann(exact, xs))
    return float(np.sum(0.5 * (diff[1:] + diff[:-1]) * np.diff(xs)))


def _residual_and_d1(problem: ProfileProblem, profile: Profile):
    """Interior residual and central slope D1(u) of the profile, from one
    pass of the residual's difference kernel."""
    work = _Workspace(profile.xi)
    return residual(problem, profile, work)[1:-1], work.d1


def sliding_supersolution_margin(profile: Profile, problem: ProfileProblem,
                                 lam: float) -> float:
    """Minimum defect of the slid translate u(xi + lam) for increasing data.

    The translate's samples are (xi_i - lam, u_i), so its defect at its own
    interior nodes is lam * D1(u) - residual; for a converged increasing
    profile and lam > 0 this is strictly positive (a strict supersolution),
    up to the residual's noise. Restricted to translate nodes that overlap
    the original domain."""
    lam = float(lam)
    if not (np.isfinite(lam) and lam >= 0.0):
        raise InvalidParameterError("lam must be finite and >= 0")
    if not problem.u_left < problem.u_right:
        raise InvalidParameterError("sliding family applies to increasing data")
    r, d1 = _residual_and_d1(problem, profile)
    keep = profile.xi[1:-1] - lam >= profile.xi[0]
    if not np.any(keep):
        raise CoverageError("translate leaves no overlap with the domain")
    return float(np.min(lam * d1[keep] - r[keep]))


def sweeping_supersolution_margin(profile: Profile, problem: ProfileProblem,
                                  lam: float, big_k: float) -> float:
    """Minimum defect of the sweeping translate u(xi - 2*K*lam) + lam for
    decreasing data; K must dominate the Lipschitz constant of f' on the
    state interval or the construction is invalid."""
    lam = float(lam)
    big_k = float(big_k)
    if not (np.isfinite(lam) and lam >= 0.0):
        raise InvalidParameterError("lam must be finite and >= 0")
    if not problem.u_left > problem.u_right:
        raise InvalidParameterError("sweeping family applies to decreasing data")
    lo, hi = problem.state_interval
    needed = lipschitz_of_derivative(problem.flux, lo, hi)
    if not (np.isfinite(big_k) and big_k >= needed):
        raise InvalidParameterError(
            "K = %g is below the Lipschitz constant %g of f'" % (big_k, needed))
    r, d1 = _residual_and_d1(problem, profile)
    u_in = profile.u[1:-1]
    shift = (derivative(problem.flux, u_in + lam) - derivative(problem.flux, u_in)
             - 2.0 * big_k * lam)
    return float(np.min(shift * d1 - r))


def sliding_constant_M(problem: ProfileProblem, profile: Profile) -> float:
    """The threshold M = 1 + eps + sup|f'| + max|du| * Lip(f') beyond which
    the exponential barrier argument takes over from the pointwise one."""
    lo, hi = problem.state_interval
    return float(1.0 + problem.epsilon + sup_derivative(problem.flux, lo, hi)
                 + np.max(np.abs(profile.du))
                 * lipschitz_of_derivative(problem.flux, lo, hi))


def _barrier_ratio(problem: ProfileProblem, profile: Profile, lam: float,
                   mask: np.ndarray) -> np.ndarray:
    """L(g)/g = eps - |xi| + sign(xi)*f'(u_lam) - du*Q at the masked nodes."""
    xs = profile.xi[mask]
    u_here = profile.u[mask]
    u_lam = np.interp(xs + lam, profile.xi, profile.u)
    q = np.array([chord_slope_Q(problem.flux, a, b) for a, b in zip(u_lam, u_here)])
    return (problem.epsilon - np.abs(xs) + np.sign(xs) * derivative(problem.flux, u_lam)
            - profile.du[mask] * q)


def barrier_operator_margin(problem: ProfileProblem, profile: Profile,
                            lam: float, big_m: float) -> float:
    """Supremum over |xi| > M of L(g)/g for the barrier g = e^{-|xi|} and

        L(g) = eps*g'' - (f'(u_lam) - xi)*g' - du*Q*g,

    with u_lam the profile shifted by lam and Q the chord slope of f'
    between the two profiles; dividing by g > 0 keeps the sign and cannot
    underflow. Mesh nodes with |xi| > M use the profile. Past each mesh end
    L(g)/g <= eps - |xi| + sup|f'| + Lip(f')*|du_end|, with sup|f'| and
    Lip(f') on the state interval and du_end the end node's slope. The bound
    needs |u'| <= |du_end| past the end, which (ln|u'|)' = (f'(u) - xi)/eps
    gives wherever xi lies beyond f' of the tail's states, as it does past
    a mesh end beyond the range of f'. It is largest at the tail's inner end
    and at most -1 when M comes from sliding_constant_M."""
    lam = float(lam)
    if not (np.isfinite(lam) and lam > 0.0):
        raise InvalidParameterError("lam must be finite and positive")
    if not problem.u_left < problem.u_right:
        raise InvalidParameterError("barrier check applies to increasing data")
    if not np.isfinite(big_m):
        raise InvalidParameterError("M must be finite")
    lo, hi = problem.state_interval
    big_s = sup_derivative(problem.flux, lo, hi)
    big_k = lipschitz_of_derivative(problem.flux, lo, hi)
    # the inner end of each tail: |xi| > M and outside the mesh
    inner = (max(big_m, -profile.xi[0], 0.0), max(big_m, profile.xi[-1], 0.0))
    tails = [problem.epsilon - a + big_s + big_k * abs(du)
             for a, du in zip(inner, profile.du[[0, -1]])]
    nodes = _barrier_ratio(problem, profile, lam, np.abs(profile.xi) > big_m)
    return float(max(np.max(nodes, initial=-math.inf), *tails))


def uniqueness_probe(problem: ProfileProblem, opts: SolveOptions | None = None,
                     n_guesses: int = 8, seed: int = DEFAULT_PROBE_SEED) -> ProbeResult:
    """Newton from randomized monotone ramp guesses; converged runs should
    all land on the same profile.

    Guess centres and widths are drawn from per-guess child seeds, so the
    set of guesses depends only on `seed`. Non-converged runs are counted,
    not raised; fewer than two survivors make the probe inconclusive."""
    if n_guesses < 2:
        raise InvalidParameterError("need at least 2 guesses to compare")
    opts = opts or SolveOptions()
    mesh = build_mesh(problem, opts.domain, opts)
    span = wave_speed_span(solve_exact(problem.flux, problem.u_left, problem.u_right))
    jump = problem.u_right - problem.u_left

    converged = []
    failed = 0
    for child in np.random.SeedSequence(seed).spawn(n_guesses):
        rng = np.random.default_rng(child)
        centre = rng.uniform(span[0] - 0.5, span[1] + 0.5)
        width = problem.epsilon * 10.0 ** rng.uniform(-0.3, 0.8)
        u0 = problem.u_left + jump * expit((mesh - centre) / width)
        u0[0] = problem.u_left
        u0[-1] = problem.u_right
        guess = Profile(mesh, u0)
        try:
            prof, _ = newton_solve(problem, guess, opts)
        except (NonConvergenceError, LinearSolverError):
            failed += 1
            continue
        converged.append(prof.u)

    if len(converged) < 2:
        raise InconclusiveProbeError(
            "only %d of %d probe runs converged" % (len(converged), n_guesses))
    dist = 0.0
    for j in range(len(converged)):
        for k in range(j + 1, len(converged)):
            dist = max(dist, float(np.max(np.abs(converged[j] - converged[k]))))
    return ProbeResult(max_distance=dist, n_converged=len(converged), n_failed=failed)


def translation_invariance_check(profile: Profile, epsilon: float, lam: float,
                                 flux: FluxSpec | None = None) -> float:
    """Max interior residual of the translated samples u(xi - lam) + lam
    under eps*u'' = (u - xi)*u', the profile equation when f'(u) = u.

    The translate is sampled exactly (nodes shifted with the values), so the
    result sits at the same roundoff floor as the original profile's
    residual, independent of lam. Passing a flux whose derivative is not
    f'(u) = u is an error; omitting `flux` asserts the caller knows the
    profile solves that equation."""
    if flux is not None and not has_identity_derivative(flux):
        raise UnsupportedFluxError("translation family needs f'(u) = u")
    lam = float(lam)
    if not np.isfinite(lam):
        raise InvalidParameterError("lam must be finite")
    shifted = Profile(profile.xi + lam, profile.u + lam)
    problem = ProfileProblem(burgers_flux(), shifted.u[0], shifted.u[-1], float(epsilon))
    defect = residual(problem, shifted)[1:-1]
    xi = shifted.xi[1:-1]
    keep = (xi >= profile.xi[0]) & (xi <= profile.xi[-1])
    if not np.any(keep):
        raise CoverageError("translate leaves no overlap with the domain")
    return float(np.max(np.abs(defect[keep])))


def windowed_by_slope(profile: Profile, ratio: float = 1e-6) -> Profile:
    """Contiguous sub-profile where |du| >= ratio * max|du|.

    In far tails the profile saturates to its limit in floating point and
    the reconstructed slope is pure roundoff; diagnostics that divide by or
    take logs of the slope are only meaningful where it is resolved."""
    top = float(np.max(np.abs(profile.du)))
    if top == 0.0:
        raise InvalidParameterError("profile slope is identically zero")
    good = np.nonzero(np.abs(profile.du) >= ratio * top)[0]
    lo, hi = good[0], good[-1] + 1
    return Profile(xi=profile.xi[lo:hi], u=profile.u[lo:hi], du=profile.du[lo:hi])


def _narrow_domain(problem: ProfileProblem, deviation: float = 1e-6) -> tuple[float, float]:
    """Domain whose far-field deviation from the states is about `deviation`.

    The tail of a profile decays like exp(-int |f'(u_end) - xi| / eps), and
    the speed gap grows linearly in xi beyond the wave span, so the distance
    d to a target deviation solves gap0*d + d^2/2 = eps*ln(1/deviation).
    Keeping the deviation well above rounding keeps the tail slopes (and so
    the translate-margin checks) meaningful at every node.
    """
    span = wave_speed_span(solve_exact(problem.flux, problem.u_left, problem.u_right))
    budget = problem.epsilon * math.log(1.0 / deviation)

    def pad(u_end, edge):
        gap0 = abs(derivative(problem.flux, u_end) - edge)
        return math.sqrt(gap0 * gap0 + 2.0 * budget) - gap0

    return (span[0] - pad(problem.u_left, span[0]),
            span[1] + pad(problem.u_right, span[1]))


def run_battery(problem: ProfileProblem, options: SolveOptions | None = None,
                seed: int | None = None):
    """Run every check that applies to the problem.

    Returns (checks, diagnostics): checks maps check-name to
    {"value", "threshold", "pass"}, diagnostics records the constants the
    comparison-function checks used. Thresholds for expected-positive
    margins are 10x the Newton tolerance so discretization noise cannot
    fake a sign.

    One solve_profile call feeds every check except the sweeping margin,
    which re-solves decreasing data on _narrow_domain; the uniqueness probe
    runs Newton from its own ramp guesses.
    """
    opts = options or SolveOptions()
    seed = DEFAULT_PROBE_SEED if seed is None else int(seed)
    lam = 0.1
    floor = 10.0 * opts.newton_tol
    increasing = problem.u_left < problem.u_right
    decreasing = problem.u_left > problem.u_right
    quadratic = has_identity_derivative(problem.flux)

    profile, _ = solve_profile(problem, opts)
    exact = solve_exact(problem.flux, problem.u_left, problem.u_right)
    lo, hi = problem.state_interval
    big_k = lipschitz_of_derivative(problem.flux, lo, hi)
    big_m = sliding_constant_M(problem, profile)

    checks = {}
    margins = {}

    def record(name, value, threshold, ok):
        checks[name] = {"value": float(value), "threshold": float(threshold),
                        "pass": bool(ok)}

    mono = check_monotone(profile, problem.u_left, problem.u_right)
    record("monotone", mono, 0.0, mono >= 0.0)

    span = wave_speed_span(exact)
    wlo = max(span[0] - 0.5, profile.xi[0])
    whi = min(span[1] + 0.5, profile.xi[-1])
    l1 = l1_window_error(profile, exact, (wlo, whi))
    l1_threshold = max(1.0, abs(problem.u_right - problem.u_left)) \
        * math.sqrt(problem.epsilon)
    record("l1_window", l1, l1_threshold, l1 <= l1_threshold)

    if quadratic and problem.u_left != problem.u_right:
        windowed = windowed_by_slope(profile)
        h_vals = first_integral_H(windowed, problem.epsilon)
        spread = float(np.max(h_vals) - np.min(h_vals))
        # the scheme's own O(h^2) drift dominates the spread; the threshold
        # follows the layer-resolution knob so it measures brokenness, not
        # the chosen mesh density
        h_threshold = max(1e-5, 2.0 * (12.0 / opts.nodes_per_layer) ** 2)
        record("first_integral_spread", spread, h_threshold, spread <= h_threshold)

        t0 = translation_invariance_check(profile, problem.epsilon, 0.0)
        t1 = translation_invariance_check(profile, problem.epsilon, 0.7)
        t_threshold = max(2.0 * t0, floor)
        record("translation_invariance", t1, t_threshold, t1 <= t_threshold)

    if quadratic and increasing:
        sym = check_symmetry(profile, problem.u_left, problem.u_right,
                             flux=problem.flux)
        record("symmetry", sym, 1e-6, sym <= 1e-6)

        corner = solve_corner()
        try:
            rem = check_corner_expansion(profile, corner, problem)
            record("corner_remainder", rem, math.inf, np.isfinite(rem))
            margins["corner_remainder"] = rem
        except CoverageError:
            pass

    if increasing:
        slide = sliding_supersolution_margin(profile, problem, lam)
        record("sliding_margin", slide, floor, slide > floor)
        margins["sliding_margin"] = slide

        barrier = barrier_operator_margin(problem, profile, lam, big_m)
        record("barrier_margin", barrier, 0.0, barrier < 0.0)
        margins["barrier_margin"] = barrier

    if decreasing:
        narrow, _ = solve_profile(problem,
                                  replace(opts, domain=_narrow_domain(problem)))
        sweep = sweeping_supersolution_margin(narrow, problem, lam, big_k)
        record("sweeping_margin", sweep, floor, sweep > floor)
        margins["sweeping_margin"] = sweep

    try:
        probe = uniqueness_probe(problem, opts, 6, seed)
        record("uniqueness_probe", probe.max_distance, 1e-6,
               probe.max_distance <= 1e-6)
    except InconclusiveProbeError:
        record("uniqueness_probe", math.inf, 1e-6, False)

    diagnostics = DiagnosticsRecord(K=big_k, M=big_m, lam=lam, margins=margins)
    return checks, diagnostics
