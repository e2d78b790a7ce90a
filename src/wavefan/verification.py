"""Numerical certificates for computed profiles.

Each check here turns a structural property of the viscous profiles --
monotonicity, odd symmetry, the corner-layer expansion, comparison-function
(super/subsolution) margins, uniqueness, translation invariance -- into a
number with a definite expected sign or bound. The sliding and sweeping
margins, which a proof wants strictly positive, count a node only where its
defect exceeds the defect's own roundoff, so flat tails cannot fake a sign.
The barrier margin is L(g)/g, read off the main profile and closed-form
tails past its ends, so no solve has to reach out to M.

The margin checks evaluate translates by moving the *sample points*, never
by re-interpolating the profile values: a translate of a mesh function is
known exactly at its own shifted nodes, so the only noise in the reported
defect is the roundoff already present in the residual. Interpolating first
would bury the margins under O(h^2) interpolation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corner_layer import first_integral_H, solve_corner
from .errors import CoverageError, InvalidParameterError, NonConvergenceError
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
    dafermos_flow,
    newton_solve,
    residual,
    residual_noise,
    solve_profile,
)
from .riemann import eval_riemann, solve_exact, wave_speed_span

DEFAULT_PROBE_SEED = 20240817
_EPS_MACH = float(np.finfo(float).eps)
_LOG_MAX = math.log(np.finfo(float).max)    # e^x overflows exactly for x above it


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
    """`uniqueness_probe`'s verdict. Each run is counted once: n_converged
    runs ended in the bounded monotone class and were compared
    (max_distance is the largest sup distance between two of them, inf
    when fewer than two did), n_out_of_class converged outside it,
    n_failed did not converge."""

    max_distance: float
    n_converged: int
    n_failed: int
    n_out_of_class: int


def check_monotone(profile: Profile, u_left: float, u_right: float) -> float:
    """Smallest signed neighbour difference, min_i sign(uR-uL)*(u_{i+1}-u_i);
    >= 0 means monotone the right way; 0 by convention when uL = uR."""
    s = float(np.sign(u_right - u_left))
    if s == 0.0:
        return 0.0
    return float(np.min(s * np.diff(profile.u)))


def _rounding_tol(problem: ProfileProblem) -> float:
    """4*eps_mach*max(|uL|, |uR|), the rounding a converged profile may carry
    past the state interval and below monotone (`uniqueness_probe`)."""
    return 4.0 * _EPS_MACH * max(abs(problem.u_left), abs(problem.u_right))


def check_symmetry(profile: Profile, u_left: float, u_right: float,
                   flux: FluxSpec) -> float:
    """Sup deviation from the odd symmetry u(uL+uR-xi) + u(xi) = uL+uR.

    The symmetry holds when f'(u) = u (the quadratic flux u^2/2, up to a
    constant), so passing a flux without that derivative is an error."""
    if not has_identity_derivative(flux):
        raise InvalidParameterError("odd symmetry needs f'(u) = u")
    total = u_left + u_right
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


def l1_window_error(profile: Profile, exact, window) -> float:
    """Trapezoid integral of |profile - exact Riemann solution| over a window."""
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise InvalidParameterError("window must be an increasing pair")
    if lo < profile.xi[0] or hi > profile.xi[-1]:
        raise InvalidParameterError("window (%g, %g) outside the profile mesh (%g, %g)"
                                    % (lo, hi, profile.xi[0], profile.xi[-1]))
    inner = profile.xi[(profile.xi > lo) & (profile.xi < hi)]
    xs = np.concatenate([[lo], inner, [hi]])
    diff = np.abs(np.interp(xs, profile.xi, profile.u) - eval_riemann(exact, xs))
    return float(np.sum(0.5 * (diff[1:] + diff[:-1]) * np.diff(xs)))


def _translate_defect(profile: Profile, problem: ProfileProblem, lam: float,
                      big_k: float | None = None):
    """Per-node defect m of the slid translate (big_k None, a = lam, nodes
    inside the domain) or the sweeping one (a = f'(u + lam) - f'(u) -
    2*K*lam), and its roundoff n: m is minus the residual with f'(u) - xi
    raised by a, and n is that residual's `residual_noise`."""
    lam = float(lam)
    if not (np.isfinite(lam) and lam >= 0.0):
        raise InvalidParameterError("lam must be finite and >= 0")
    if big_k is None:
        if not problem.u_left < problem.u_right:
            raise InvalidParameterError("sliding family applies to increasing data")
        a, keep = lam, profile.xi[1:-1] - lam >= profile.xi[0]
        if not np.any(keep):
            raise CoverageError("translate leaves no overlap with the domain")
    else:
        if not problem.u_left > problem.u_right:
            raise InvalidParameterError("sweeping family applies to decreasing data")
        needed = lipschitz_of_derivative(problem.flux, *problem.state_interval)
        if not (np.isfinite(big_k) and big_k >= needed):
            raise InvalidParameterError(
                "K = %g is below the Lipschitz constant %g of f'" % (big_k, needed))
        u_in = profile.u[1:-1]
        a = (derivative(problem.flux, u_in + lam) - derivative(problem.flux, u_in)
             - 2.0 * big_k * lam)
        keep = slice(None)
    defect = -residual(problem, profile, offset=a)[1:-1]
    return defect[keep], residual_noise(problem, profile, offset=a)[keep]


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
    data, by `_judge`. Its samples are (xi_i - lam, u_i), so its defect at
    its own interior nodes is minus the residual with f'(u) - xi raised by
    lam: for lam > 0 a strict supersolution, positive wherever it exceeds
    its roundoff.

    By `residual`'s definition that defect is -R(u) + a*D1(u) with a = lam,
    R(u) the profile's own residual and D1(u) its central slope. With R(u)
    at its roundoff floor the margin tests the sign of D1(u), the sign that
    `check_monotone` tests on neighbour differences, at a tolerance of
    about `residual_noise`/|a| in place of that check's."""
    return _judge(*_translate_defect(profile, problem, lam))


def sweeping_supersolution_margin(profile: Profile, problem: ProfileProblem,
                                  lam: float, big_k: float) -> tuple[float, int]:
    """(value, undecided) of the sweeping translate u(xi - 2*K*lam) + lam
    for decreasing data, by `_judge`; K must dominate the Lipschitz constant
    of f' on the state interval or the construction is invalid.

    Its defect is -R(u) + a*D1(u) as for `sliding_supersolution_margin`,
    with a = f'(u + lam) - f'(u) - 2*K*lam, which lies between about
    -3*K*lam and -K*lam, so it too tests the sign of D1(u) once R(u) is at
    its roundoff floor."""
    return _judge(*_translate_defect(profile, problem, lam, float(big_k)))


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
    q = chord_slope_Q(problem.flux, u_lam, u_here)
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
    set of guesses depends only on `seed`. The flow carries a misplaced
    layer to its place at rate 1 in tau = ln t for every eps and hands
    Newton an iterate near a steady state; Newton alone from a ramp whose
    layer sits far from its place mostly stalls at a rejected full step.

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
                and check_monotone(prof, problem.u_left, problem.u_right) >= -tol:
            in_class.append(u)
        else:
            out_of_class += 1

    dist = float(np.max(np.ptp(np.stack(in_class), axis=0))) \
        if len(in_class) >= 2 else math.inf
    return ProbeResult(max_distance=dist, n_converged=len(in_class), n_failed=failed,
                       n_out_of_class=out_of_class)


def translation_invariance_check(profile: Profile, epsilon: float, lam: float,
                                 flux: FluxSpec) -> float:
    """Max interior residual of the translated samples u(xi - lam) + lam
    under eps*u'' = (u - xi)*u', the profile equation when f'(u) = u.

    The translate is sampled exactly (nodes shifted with the values) and
    differenced on the original spacings, its own in exact arithmetic; the
    rounded nodes xi + lam would add their rounding, magnified about 4x per
    halving of eps, to the residual's roundoff floor, where the result sits.
    Passing a flux whose derivative is not f'(u) = u is an error.

    The defect is the profile's own residual up to the rounding of u + lam:
    in exact arithmetic the translate's f'(u) - xi is (u + lam) - (xi + lam)
    = u - xi, and its differences on the original spacings are those of u. So the
    value is max |R(u)| over the nodes the translate keeps, for any
    profile, solved or not: it tests the residual, not the solver's
    translation invariance."""
    if not has_identity_derivative(flux):
        raise InvalidParameterError("translation family needs f'(u) = u")
    lam = float(lam)
    if not np.isfinite(lam):
        raise InvalidParameterError("lam must be finite")
    shifted = Profile(profile.xi + lam, profile.u + lam)
    problem = ProfileProblem(burgers_flux(), shifted.u[0], shifted.u[-1], float(epsilon))
    defect = residual(problem, shifted, _Workspace(profile.xi))[1:-1]
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


def run_battery(problem: ProfileProblem, options: SolveOptions | None = None,
                seed: int | None = None):
    """Run every check that applies to the problem.

    Returns (checks, diagnostics): checks maps check-name to
    {"value", "threshold", "pass"}. The uniqueness probe's entry,
    inconclusive or not, adds its run counts n_converged (in class),
    n_out_of_class and n_failed, and the translate margin's entry adds
    `undecided`, the number of nodes whose defect is within its roundoff;
    diagnostics records the constants the comparison-function checks used
    and the margins. `monotone` passes down to minus the probe's rounding
    bound (`_rounding_tol`); `sliding_supersolution_margin` and
    `sweeping_supersolution_margin` pass when their value exceeds 0.
    The margins' lam, 0.1, and the translation check's shift, 0.7, are
    capped at half the domain's width so the translates overlap it (for
    Burgers +-1 the domain is over 2 wide; for +-0.1 at eps 1e-3, 0.57).
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

    profile, _ = solve_profile(problem, opts)
    half_width = 0.5 * float(profile.xi[-1] - profile.xi[0])
    lam = min(0.1, half_width)
    exact = solve_exact(problem.flux, problem.u_left, problem.u_right)
    big_k = lipschitz_of_derivative(problem.flux, *problem.state_interval)
    big_m = sliding_constant_M(problem, profile)

    checks = {}
    margins = {}

    def record(name, value, threshold, ok, **counts):
        checks[name] = {"value": float(value), "threshold": float(threshold),
                        "pass": bool(ok), **counts}

    mono = check_monotone(profile, problem.u_left, problem.u_right)
    tol = _rounding_tol(problem)
    record("monotone", mono, -tol, mono >= -tol)

    span = wave_speed_span(exact)
    wlo = max(span[0] - 0.5, profile.xi[0])
    whi = min(span[1] + 0.5, profile.xi[-1])
    l1 = l1_window_error(profile, exact, (wlo, whi))
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

        t0 = translation_invariance_check(profile, problem.epsilon, 0.0, problem.flux)
        t1 = translation_invariance_check(profile, problem.epsilon, min(0.7, half_width),
                                          problem.flux)
        t_threshold = max(2.0 * t0, 10.0 * opts.newton_tol)
        record("translation_invariance", t1, t_threshold, t1 <= t_threshold)

    if quadratic and increasing:
        sym = check_symmetry(profile, problem.u_left, problem.u_right, problem.flux)
        record("symmetry", sym, 1e-6, sym <= 1e-6)

        try:
            rem = check_corner_expansion(profile, problem)
            record("corner_remainder", rem, math.inf, np.isfinite(rem))
            if np.isfinite(rem):
                margins["corner_remainder"] = rem
        except CoverageError:
            pass

    if problem.u_left != problem.u_right:
        name = "sliding_margin" if increasing else "sweeping_margin"
        value, undecided = sliding_supersolution_margin(profile, problem, lam) \
            if increasing else sweeping_supersolution_margin(profile, problem, lam, big_k)
        record(name, value, 0.0, value > 0.0, undecided=undecided)
        margins[name] = value

    if increasing:
        barrier = barrier_operator_margin(problem, profile, lam, big_m)
        record("barrier_margin", barrier, 0.0, barrier < 0.0)
        margins["barrier_margin"] = barrier

    probe = uniqueness_probe(problem, opts, seed=seed)
    record("uniqueness_probe", probe.max_distance, 1e-6, probe.max_distance <= 1e-6,
           n_converged=probe.n_converged, n_out_of_class=probe.n_out_of_class,
           n_failed=probe.n_failed)

    return checks, DiagnosticsRecord(K=big_k, M=big_m, lam=lam, margins=margins)
