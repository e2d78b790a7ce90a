"""Numerical certificates for computed profiles.

Each check here turns a structural property of the viscous profiles --
monotonicity, odd symmetry, the corner-layer expansion, comparison-function
(super/subsolution) margins, uniqueness, translation invariance -- into a
number with a definite expected sign or bound. Each takes (profile,
problem, ...) and reads the states, flux, viscosity, exact solution and K
from the problem; only lam and the L1 window are passed. The sliding and
sweeping margins, which a proof wants strictly positive, count a node only
where its defect exceeds the defect's own roundoff, so flat tails cannot
fake a sign. The barrier threshold M (`sliding_constant_M`) is reported,
not checked: the barrier inequality holds past it for any profile in the
state interval, by the definition of M.

The sliding and sweeping margins and the translation check judge
translates u(xi - shift) + lift, and evaluate each by moving the *sample
points*, never by re-interpolating the profile values: a translate of a
mesh function is known exactly at its own shifted nodes, where its
residual is the profile's own with f'(u) - xi raised by the transport
offset a = f'(u + lift) - f'(u) - shift (`_translate_defect`). So every
interior node is judged, and the only noise in the reported defect is the
roundoff already present in the residual. Interpolating first would bury
the margins under O(h^2) interpolation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corner_layer import first_integral_H, solve_corner
from .errors import CoverageError, InvalidParameterError, NonConvergenceError
from .flux import (
    derivative,
    has_identity_derivative,
    lipschitz_of_derivative,
    sup_derivative,
)
from .profile_bvp import (
    Profile,
    ProfileProblem,
    SolveOptions,
    build_mesh,
    dafermos_flow,
    newton_solve,
    residual,
    residual_noise,
    solve_profile,
)
from .riemann import eval_riemann, solve_exact, wave_speed_span

DEFAULT_PROBE_SEED = 20240817
# every name `run_battery` can report, in the order it runs the checks
CHECK_NAMES = ("monotone", "l1_window", "first_integral_spread", "translation_invariance",
               "symmetry", "corner_remainder", "sliding_margin", "sweeping_margin",
               "uniqueness_probe")
_EPS_MACH = float(np.finfo(float).eps)
_LOG_MAX = math.log(np.finfo(float).max)    # e^x overflows exactly for x above it


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Constants and margins shared by the comparison-function checks."""

    K: float            # Lipschitz constant of f' used by the sweeping family
    M: float            # barrier threshold, reported not checked (`sliding_constant_M`)
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
    """`uniqueness_probe`'s verdict. Each run is counted once: n_converged
    runs ended in the bounded monotone class and were compared
    (max_distance is the largest sup distance between two of them, inf
    when fewer than two did), n_out_of_class converged outside it,
    n_failed did not converge."""

    max_distance: float
    n_converged: int
    n_failed: int
    n_out_of_class: int


def check_monotone(profile: Profile, problem: ProfileProblem) -> float:
    """Smallest signed neighbour difference, min_i sign(uR-uL)*(u_{i+1}-u_i);
    >= 0 means monotone the right way; 0 when uL = uR, whose sign is 0."""
    s = float(np.sign(problem.u_right - problem.u_left))
    return float(np.min(s * np.diff(profile.u)))


def _rounding_tol(problem: ProfileProblem) -> float:
    """4*eps_mach*max(|uL|, |uR|), the rounding a converged profile may carry
    past the state interval and below monotone (`uniqueness_probe`)."""
    return 4.0 * _EPS_MACH * max(abs(problem.u_left), abs(problem.u_right))


def check_symmetry(profile: Profile, problem: ProfileProblem) -> float:
    """Sup deviation from the odd symmetry u(uL+uR-xi) + u(xi) = uL+uR.

    The symmetry holds when f'(u) = u (the quadratic flux u^2/2, up to a
    constant), so a problem whose flux lacks that derivative is an error."""
    if not has_identity_derivative(problem.flux):
        raise InvalidParameterError("odd symmetry needs f'(u) = u")
    total = problem.u_left + problem.u_right
    xi, u = profile.xi, profile.u
    mirrored_x = total - xi
    mask = (mirrored_x >= xi[0]) & (mirrored_x <= xi[-1])
    mirrored_u = np.interp(mirrored_x[mask], xi, u)
    return float(np.max(np.abs(mirrored_u + u[mask] - total)))


def check_corner_expansion(profile: Profile, problem: ProfileProblem) -> float:
    """Normalized remainder of the corner-layer expansion at the fan's left
    edge: sup over nodes with xi <= (uL+uR)/2 of

        |u_eps(xi) - sqrt(eps)*U((xi-uL)/sqrt(eps)) - uL| * e^{1/sqrt(eps)} / sqrt(eps).

    The exponential weight makes boundedness of the result a sharp statement
    about the expansion's error term; below eps = 1.985e-6, where it
    overflows (1/sqrt(eps) > ln(DBL_MAX)), the check raises CoverageError.

    U is `solve_corner`'s profile on [-8, xi_max], xi_max = max(10,
    ceil((mid - uL)/sqrt(eps))) capped at its 30, where (mid - uL)/sqrt(eps)
    is the rescaled half-mesh's right end, with nodes no farther apart than
    the default 2,001 on [-8, 10]. A rescaled mesh that it does not cover,
    for -1 -> 1 below eps = 1/900, about 1.1e-3, raises CoverageError."""
    if not problem.u_left < problem.u_right:
        raise InvalidParameterError("corner expansion applies to increasing data")
    root = math.sqrt(problem.epsilon)
    if 1.0 / root > _LOG_MAX:
        raise CoverageError("the weight e^(1/sqrt(eps)) overflows below eps = 1.985e-6")
    mid = 0.5 * (problem.u_left + problem.u_right)
    xi_max = min(max(10, math.ceil((mid - problem.u_left) / root)), 30)
    corner = solve_corner(xi_max=float(xi_max),
                          n_points=1 + math.ceil(2000 * (xi_max + 8) / 18))
    mask = profile.xi <= mid
    s = (profile.xi[mask] - problem.u_left) / root
    if s[0] < corner.xi[0] or s[-1] > corner.xi[-1]:
        raise CoverageError(
            "corner profile covers [%g, %g] but the rescaled mesh needs [%g, %g]"
            % (corner.xi[0], corner.xi[-1], s[0], s[-1]))
    # cubic Hermite on (U, U'), whose slope is exact at the corner's nodes
    k = np.clip(np.searchsorted(corner.xi, s) - 1, 0, len(corner.xi) - 2)
    h = corner.xi[k + 1] - corner.xi[k]
    t = (s - corner.xi[k]) / h
    u0, u1 = corner.u[k], corner.u[k + 1]
    big_u = (u0 + (u1 - u0) * t * t * (3.0 - 2.0 * t)
             + h * t * (1.0 - t) * ((1.0 - t) * corner.p[k] - t * corner.p[k + 1]))
    rem = np.abs(profile.u[mask] - root * big_u - problem.u_left)
    return float(np.max(rem) * math.exp(1.0 / root) / root)


def l1_window_error(profile: Profile, problem: ProfileProblem, window) -> float:
    """Trapezoid integral of |profile - the problem's `solve_exact`| over a window."""
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise InvalidParameterError("window must be an increasing pair")
    if lo < profile.xi[0] or hi > profile.xi[-1]:
        raise InvalidParameterError("window (%g, %g) outside the profile mesh (%g, %g)"
                                    % (lo, hi, profile.xi[0], profile.xi[-1]))
    inner = profile.xi[(profile.xi > lo) & (profile.xi < hi)]
    xs = np.concatenate([[lo], inner, [hi]])
    exact = solve_exact(problem.flux, problem.u_left, problem.u_right)
    diff = np.abs(np.interp(xs, profile.xi, profile.u) - eval_riemann(exact, xs))
    return float(np.sum(0.5 * (diff[1:] + diff[:-1]) * np.diff(xs)))


def _translate_defect(profile: Profile, problem: ProfileProblem, shift: float, lift: float):
    """Per-node defect m of the translate u(xi - shift) + lift at every
    interior node, and its roundoff n. The translate's samples are
    (xi_i + shift, u_i + lift), spaced as the profile's nodes, so its
    residual there is the profile's with f'(u) - xi raised by the transport
    offset a = f'(u + lift) - f'(u) - shift: m is minus that residual,
    -R(u) + a*D1(u), and n is its `residual_noise`."""
    u_in = profile.u[1:-1]
    a = derivative(problem.flux, u_in + lift) - derivative(problem.flux, u_in) - shift
    return -residual(problem, profile, offset=a)[1:-1], residual_noise(problem, profile, offset=a)


def _check_margin_lam(lam) -> None:
    """The margins' translate amount must be finite and >= 0."""
    if not (np.isfinite(lam) and lam >= 0.0):
        raise InvalidParameterError("lam must be finite and >= 0")


def _judge(defect: np.ndarray, noise: np.ndarray) -> tuple[float, int]:
    """(value, undecided): the smallest defect among the nodes where |m| > n
    (0.0 if none) and the count of the others. The value is positive exactly
    when no node is decidably negative and one is decidably positive."""
    decided = np.abs(defect) > noise
    value = float(np.min(defect[decided])) if np.any(decided) else 0.0
    return value, int(np.count_nonzero(~decided))


def sliding_supersolution_margin(profile: Profile, problem: ProfileProblem,
                                 lam: float) -> tuple[float, int]:
    """(value, undecided) of the slid translate u(xi + lam) for increasing
    data, by `_judge`: the translate with shift -lam and lift 0, whose
    offset is a = lam (`_translate_defect`), for lam > 0 a strict
    supersolution, positive wherever it exceeds its roundoff.

    Its defect is -R(u) + a*D1(u), R(u) the profile's own residual and
    D1(u) its central slope. With R(u) at its roundoff floor the margin
    tests the sign of D1(u), the sign that `check_monotone` tests on
    neighbour differences, at a tolerance of about `residual_noise`/|a| in
    place of that check's."""
    if not problem.u_left < problem.u_right:
        raise InvalidParameterError("sliding family applies to increasing data")
    _check_margin_lam(lam)
    return _judge(*_translate_defect(profile, problem, -lam, 0.0))


def sweeping_supersolution_margin(profile: Profile, problem: ProfileProblem,
                                  lam: float) -> tuple[float, int]:
    """(value, undecided) of the sweeping translate u(xi - 2*K*lam) + lam
    for decreasing data, by `_judge`, with K = sup|f''| on the state
    interval, the Lipschitz constant of f' that the construction needs: the
    translate with shift 2*K*lam and lift lam (`_translate_defect`).

    Its defect is -R(u) + a*D1(u) as for `sliding_supersolution_margin`,
    with a = f'(u + lam) - f'(u) - 2*K*lam, which lies between about
    -3*K*lam and -K*lam, so it too tests the sign of D1(u) once R(u) is at
    its roundoff floor."""
    if not problem.u_left > problem.u_right:
        raise InvalidParameterError("sweeping family applies to decreasing data")
    _check_margin_lam(lam)
    big_k = lipschitz_of_derivative(problem.flux, *problem.state_interval)
    return _judge(*_translate_defect(profile, problem, 2.0 * big_k * lam, lam))


def _slope(profile: Profile) -> np.ndarray:
    """The profile's slope du; a profile built without one is an error."""
    if profile.du is None:
        raise InvalidParameterError("the profile has no slope du (solve_profile gives one)")
    return profile.du


def sliding_constant_M(profile: Profile, problem: ProfileProblem) -> float:
    """The threshold M = 1 + eps + sup|f'| + max|du| * Lip(f') beyond which
    the exponential barrier argument takes over from the pointwise one.

    It is reported, not checked. For g = e^{-|xi|} and
    L(g) = eps*g'' - (f'(u_lam) - xi)*g' - du*Q*g, any translate u_lam in
    the state interval and any Q with |Q| <= Lip(f') give, for |xi| > M,
    L(g)/g = eps - |xi| + sign(xi)*f'(u_lam) - du*Q
           <= eps - M + sup|f'| + max|du|*Lip(f') = -1."""
    lo, hi = problem.state_interval
    return float(1.0 + problem.epsilon + sup_derivative(problem.flux, lo, hi)
                 + np.max(np.abs(_slope(profile)))
                 * lipschitz_of_derivative(problem.flux, lo, hi))


def probe_seed(seed) -> int:
    """The uniqueness probe's seed: DEFAULT_PROBE_SEED for None, else the
    integer, which must be non-negative."""
    seed = DEFAULT_PROBE_SEED if seed is None else int(seed)
    if seed < 0:
        raise InvalidParameterError("probe seed must be non-negative")
    return seed


def uniqueness_probe(problem: ProfileProblem, opts: SolveOptions | None = None,
                     n_guesses: int = 6, seed: int = DEFAULT_PROBE_SEED) -> ProbeResult:
    """Relax randomized monotone ramp guesses along the self-similar
    Dafermos flow (`dafermos_flow`), then finish each by Newton; the
    runs that end in the bounded monotone class should all land on the
    same profile.

    Guess centres and widths are drawn from per-guess child seeds, so the
    set of guesses depends only on `seed`. The flow moves a misplaced
    layer by about its width, about eps, per accepted step, so a ramp x0
    from its place takes about 0.7*|x0|/eps steps, and a run that needs more
    than the flow's budget fails (`dafermos_flow`: four of the six on the
    cubic +-1 at eps 0.01); a run that arrives hands Newton an iterate near
    a steady state. Newton alone from a ramp whose layer sits far from its
    place mostly stalls at a rejected full step.

    Uniqueness is proved for bounded monotone profiles, and the paper
    builds an unbounded Burgers solution, so only runs that end in that
    class are compared: inside the state interval and monotone in the
    data's direction. A converged run sits at its residual's roundoff
    floor, where every node value is the discrete solution's up to a few
    roundings of a number no larger than U = max(|uL|, |uR|), each at most
    eps_mach*U/2. Granting 4 of them, 2*eps_mach*U per node, a value may
    lie that far outside the interval and a difference of two neighbours
    may be off by twice that, tol = 4*eps_mach*U; both tests use tol, the
    second on `check_monotone`. Runs
    that fail the flow or Newton are counted, not raised. The verdict is
    returned whatever the runs did: with fewer than two in-class runs the
    probe is inconclusive, and its max_distance is inf. Newton certifies no
    run at its roundoff floor outside the flow's bound; such a run counts
    as failed."""
    if n_guesses < 2:
        raise InvalidParameterError("need at least 2 guesses to compare")
    seed = probe_seed(seed)
    opts = opts or SolveOptions()
    mesh = build_mesh(problem, opts)
    span = wave_speed_span(solve_exact(problem.flux, problem.u_left, problem.u_right))
    jump = problem.u_right - problem.u_left
    lo, hi = problem.state_interval
    tol = _rounding_tol(problem)

    in_class = []
    out_of_class = failed = 0
    for child in np.random.SeedSequence(seed).spawn(n_guesses):
        rng = np.random.default_rng(child)
        centre = rng.uniform(span[0] - 0.5, span[1] + 0.5)
        width = problem.epsilon * 10.0 ** rng.uniform(-0.3, 0.8)
        u0 = problem.u_left + 0.5 * jump * (1.0 + np.tanh(0.5 * (mesh - centre) / width))
        u0[0] = problem.u_left
        u0[-1] = problem.u_right
        try:
            prof, _ = newton_solve(problem, dafermos_flow(problem, Profile(mesh, u0)), opts)
        except NonConvergenceError:
            failed += 1
            continue
        u = prof.u
        if np.min(u) >= lo - tol and np.max(u) <= hi + tol \
                and check_monotone(prof, problem) >= -tol:
            in_class.append(u)
        else:
            out_of_class += 1

    dist = float(np.max(np.ptp(np.stack(in_class), axis=0))) \
        if len(in_class) >= 2 else math.inf
    return ProbeResult(max_distance=dist, n_converged=len(in_class), n_failed=failed,
                       n_out_of_class=out_of_class)


def translation_invariance_check(profile: Profile, problem: ProfileProblem,
                                 lam: float) -> float:
    """Max |defect| of the translate u(xi - lam) + lam under the problem's
    eps*u'' = (u - xi)*u', its equation when f'(u) = u, at every interior
    node (`_translate_defect` with shift and lift lam). A problem whose
    flux lacks f'(u) = u is an error.

    The defect is the profile's own residual up to the rounding of u + lam:
    the offset is a = fl(u + lam) - u - lam, zero in exact arithmetic, so
    the value is max |R(u) - a*D1(u)| for any profile, solved or not: it
    tests the residual, not the solver's translation invariance."""
    if not has_identity_derivative(problem.flux):
        raise InvalidParameterError("translation family needs f'(u) = u")
    lam = float(lam)
    if not np.isfinite(lam):
        raise InvalidParameterError("lam must be finite")
    return float(np.max(np.abs(_translate_defect(profile, problem, lam, lam)[0])))


def windowed_by_slope(profile: Profile, ratio: float = 1e-6) -> Profile:
    """The run of nodes around the peak of |du| where |du| >= ratio * max|du|.

    In far tails the profile saturates to its limit in floating point and
    the reconstructed slope is pure roundoff; diagnostics that divide by or
    take logs of the slope are only meaningful where it is resolved. On a
    jump of about 1e-9 of the states or less, neighbouring nodes can hold
    equal values between resolved steps, so the window ends at the first
    node on each side of the peak below the bound, not at the last one
    above it."""
    slope = np.abs(_slope(profile))
    peak = int(np.argmax(slope))
    if slope[peak] == 0.0:
        raise InvalidParameterError("profile slope is identically zero")
    below = np.concatenate(([-1], np.flatnonzero(slope < ratio * slope[peak]), [len(slope)]))
    k = np.searchsorted(below, peak)
    lo, hi = below[k - 1] + 1, below[k]
    return Profile(xi=profile.xi[lo:hi], u=profile.u[lo:hi], du=profile.du[lo:hi])


def run_battery(problem: ProfileProblem, options: SolveOptions | None = None,
                seed: int | None = None):
    """Run every check that applies to the problem.

    Returns (checks, diagnostics): checks maps check-name to
    {"value", "threshold", "pass"}. The uniqueness probe's entry,
    inconclusive or not, adds its run counts n_converged (in class),
    n_out_of_class and n_failed, and the translate margin's entry adds
    `undecided`, the number of nodes whose defect is within its roundoff;
    diagnostics records the constants the comparison-function checks used,
    the margins, and the barrier threshold M of `sliding_constant_M`, which
    is reported, not checked. `monotone` passes down to minus the probe's
    rounding bound (`_rounding_tol`); `sliding_supersolution_margin` and
    `sweeping_supersolution_margin` pass when their value exceeds 0.
    The margins' lam is 0.1 and the translation check's shift 0.7, on
    every domain: each translate is judged at its own nodes.
    `translation_invariance` passes up to max(2*R, 10*newton_tol), R the
    residual the solve reported, which is the zero-shift translate's
    defect bit for bit.
    `corner_remainder` is omitted where `check_corner_expansion` raises
    CoverageError: below eps = 1.985e-6, where its weight overflows, and
    where the corner profile, capped at xi = 30, cannot reach the rescaled
    half-mesh, for -1 -> 1 below eps = 1/900, about 1.1e-3. A
    non-finite value fails and is left out of the margins. Below eps of
    about 0.004 it is reported but measures the mesh's error, not the
    expansion's: its weight e^(1/sqrt(eps))/sqrt(eps) magnifies the
    profile's O(h^2) error. Burgers -1 -> 1 at the default nodes_per_layer
    (at 480, in brackets):

        eps     corner_remainder
        5e-3    0.662 (0.662)
        4e-3    3.07 (0.662)
        3e-3    35.5 (2.40)
        2e-3    2146 (145)
        1.2e-3  1.4e6 (9.7e4)

    `sweeping_margin` is omitted where K = 0, a linear flux: the sweeping
    translate u + lam is then an exact solution, its defect is minus the
    profile's own residual bit for bit, and its sign is that residual's
    roundoff (for f = u from 1 to -1 it read 0 at eps 0.05, a failure, and
    8.1e-12 at 0.005, a pass, on correct profiles).

    One solve_profile call feeds every check, whichever way the data run;
    the uniqueness probe relaxes its default 6 ramp guesses along the
    Dafermos flow, finishes each by Newton, and compares the runs that end
    in the bounded monotone class (`uniqueness_probe`); too few of them is
    a failing verdict with value inf, not an error.
    """
    opts = options or SolveOptions()
    seed = probe_seed(seed)
    increasing = problem.u_left < problem.u_right
    quadratic = has_identity_derivative(problem.flux)

    profile, report = solve_profile(problem, opts)
    lam = 0.1
    big_m = sliding_constant_M(profile, problem)

    checks = {}
    margins = {}

    def record(name, value, threshold, ok, **counts):
        checks[name] = {"value": float(value), "threshold": float(threshold),
                        "pass": bool(ok), **counts}

    mono = check_monotone(profile, problem)
    tol = _rounding_tol(problem)
    record("monotone", mono, -tol, mono >= -tol)

    span = wave_speed_span(solve_exact(problem.flux, problem.u_left, problem.u_right))
    wlo, whi = max(span[0] - 0.5, profile.xi[0]), min(span[1] + 0.5, profile.xi[-1])
    l1 = l1_window_error(profile, problem, (wlo, whi))
    l1_threshold = max(1.0, abs(problem.u_right - problem.u_left)) \
        * math.sqrt(problem.epsilon)
    record("l1_window", l1, l1_threshold, l1 <= l1_threshold)

    if quadratic and problem.u_left != problem.u_right:
        windowed = windowed_by_slope(profile)
        h_vals = first_integral_H(windowed.u - windowed.xi, windowed.du, problem.epsilon)
        spread = float(np.max(h_vals) - np.min(h_vals))
        # the scheme's own O(h^2) drift dominates the spread; the threshold
        # follows the layer-resolution knob so it measures brokenness, not
        # the chosen mesh density
        h_threshold = max(1e-5, 2.0 * opts.layer_factor ** 2)
        record("first_integral_spread", spread, h_threshold, spread <= h_threshold)

        t1 = translation_invariance_check(profile, problem, 0.7)
        t_threshold = max(2.0 * report.residual_norm, 10.0 * opts.newton_tol)
        record("translation_invariance", t1, t_threshold, t1 <= t_threshold)

    if quadratic and increasing:
        sym = check_symmetry(profile, problem)
        record("symmetry", sym, 1e-6, sym <= 1e-6)

        try:
            rem = check_corner_expansion(profile, problem)
            record("corner_remainder", rem, math.inf, np.isfinite(rem))
            if np.isfinite(rem):
                margins["corner_remainder"] = rem
        except CoverageError:
            pass

    big_k = lipschitz_of_derivative(problem.flux, *problem.state_interval)
    if problem.u_left != problem.u_right and (increasing or big_k > 0.0):
        name = "sliding_margin" if increasing else "sweeping_margin"
        value, undecided = sliding_supersolution_margin(profile, problem, lam) \
            if increasing else sweeping_supersolution_margin(profile, problem, lam)
        record(name, value, 0.0, value > 0.0, undecided=undecided)
        margins[name] = value

    probe = uniqueness_probe(problem, opts, seed=seed)
    record("uniqueness_probe", probe.max_distance, 1e-6, probe.max_distance <= 1e-6,
           n_converged=probe.n_converged, n_out_of_class=probe.n_out_of_class,
           n_failed=probe.n_failed)
    return checks, DiagnosticsRecord(K=big_k, M=big_m, lam=lam, margins=margins)
