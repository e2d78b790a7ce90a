"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test prints one PASS/FAIL line (bypassing capture) so a plain pytest run
shows the scoreboard, then asserts every sub-condition individually. Budgets
are wall-clock seconds around the computational core of each criterion.
"""

import math
from dataclasses import replace
from time import perf_counter

import numpy as np
from scipy.interpolate import CubicSpline

import wavefan as wf
from corner_oracles import BarrierUpper, barrier_lower, barrier_upper, fit_tail_rate
from wavefan.flux import evaluate

BURGERS = wf.burgers_flux()
CUBIC = wf.polynomial_flux((0.0, 0.0, 0.0, 1.0))
QUARTIC = wf.polynomial_flux((0.0, 0.2, 0.5, 1.0 / 3.0, 0.25))


def _announce(capsys, num, ok, detail):
    with capsys.disabled():
        print("%s criterion %2d: %s" % ("PASS" if ok else "FAIL", num, detail))


def _require(capsys, num, conds, detail):
    _announce(capsys, num, all(conds.values()), detail)
    for name, ok in conds.items():
        assert ok, "criterion %d: %s failed (%s)" % (num, name, detail)


def test_criterion_01_constant_state(capsys):
    t0 = perf_counter()
    prob = wf.ProfileProblem(BURGERS, 0.3, 0.3, 0.2)
    profile, report = wf.solve_profile(prob)
    res = float(np.max(np.abs(wf.residual(prob, profile))))
    dt = perf_counter() - t0
    conds = {
        "converged": report.converged,
        "constant": float(np.max(np.abs(profile.u - 0.3))) <= 1e-12,
        "residual": res <= 1e-12,
        "runtime": dt < 0.1,
    }
    _require(capsys, 1, conds,
             "constant data residual %.2e in %.3fs" % (res, dt))


def test_criterion_02_burgers_shock(capsys):
    t0 = perf_counter()
    prob = wf.ProfileProblem(BURGERS, 1.0, -1.0, 0.05)
    opts = wf.SolveOptions(domain=(-0.9, 0.9), nodes_per_layer=4200)
    profile, report = wf.solve_profile(prob, opts)
    u_origin = float(profile.u[np.argmin(np.abs(profile.xi))])
    windowed = wf.windowed_by_slope(profile, ratio=1e-4)
    h_vals = wf.first_integral_H(windowed.u - windowed.xi, windowed.du, prob.epsilon)
    spread = float(np.max(h_vals) - np.min(h_vals))
    dt = perf_counter() - t0
    conds = {
        "converged": report.converged,
        "iterations": report.iterations <= 30,
        "strictly_decreasing": bool(np.all(np.diff(profile.u) < 0.0)),
        "odd_symmetry_origin": abs(u_origin) <= 1e-8,
        "first_integral_spread": spread <= 1e-5,
        "runtime": dt < 1.0,
    }
    _require(capsys, 2, conds,
             "shock: %d iterations, |u(0)| = %.1e, H spread %.2e, %.2fs"
             % (report.iterations, abs(u_origin), spread, dt))


def test_criterion_03_rarefaction_convergence(capsys):
    t0 = perf_counter()
    prob = wf.ProfileProblem(BURGERS, -1.0, 1.0, 0.0125)
    exact = wf.solve_exact(BURGERS, -1.0, 1.0)
    opts = wf.SolveOptions(domain=(-2.6, 2.6))
    sweep = [wf.solve_profile(replace(prob, epsilon=eps), opts)[0]
             for eps in (0.1, 0.05, 0.025, 0.0125)]
    errs = [wf.l1_window_error(p, exact, (-2.0, 2.0)) for p in sweep]
    dt = perf_counter() - t0
    conds = {
        "strictly_decreasing": all(b < a for a, b in zip(errs, errs[1:])),
        "halved": errs[-1] <= errs[0] / 2.0,
        "runtime": dt < 5.0,
    }
    _require(capsys, 3, conds,
             "rarefaction L1 errors %s in %.2fs"
             % (", ".join("%.4f" % e for e in errs), dt))


def test_criterion_04_corner_profile(capsys):
    t0 = perf_counter()
    corner = wf.solve_corner()  # [-8, 10]
    below = barrier_lower(corner.xi)
    above = barrier_upper(corner.xi, BarrierUpper(L=10.0))
    max_h = float(np.max(np.abs(wf.first_integral_H(corner.w, corner.p, 1.0))))
    rate = fit_tail_rate(corner, (4.0, 8.0))
    u_m4 = float(np.interp(-4.0, corner.xi, corner.u))
    dt = perf_counter() - t0
    conds = {
        "bracket_below": bool(np.all(corner.u > below)),
        "bracket_above": bool(np.all(corner.u < above)),
        "first_integral": max_h <= 1e-8,
        "tail_rate": 0.9 <= rate <= 1.1,
        "left_tail": u_m4 < 1e-3,
        "runtime": dt < 1.0,
    }
    _require(capsys, 4, conds,
             "corner: max|H| = %.1e, tail rate %.4f, U(-4) = %.1e, %.2fs"
             % (max_h, rate, u_m4, dt))


def test_criterion_05_expansion_remainder_bounded(capsys):
    t0 = perf_counter()
    rems = []
    for eps in (0.09, 0.04, 0.0225):
        prob = wf.ProfileProblem(BURGERS, -1.0, 1.0, eps)
        profile, _ = wf.solve_profile(prob)
        rems.append(wf.check_corner_expansion(profile, prob))
    dt = perf_counter() - t0
    ratio = max(rems) / min(rems)
    conds = {
        "finite": all(np.isfinite(r) for r in rems),
        "ratio": ratio <= 2.0,
        "runtime": dt < 5.0,
    }
    _require(capsys, 5, conds,
             "normalized remainders %s (ratio %.3f) in %.2fs"
             % (", ".join("%.4f" % r for r in rems), ratio, dt))


def test_criterion_06_uniqueness_probe(capsys):
    t0 = perf_counter()
    results = {}
    for name, (ul, ur) in {"shock": (1.0, -1.0), "rarefaction": (-1.0, 1.0)}.items():
        prob = wf.ProfileProblem(BURGERS, ul, ur, 0.05)
        results[name] = wf.uniqueness_probe(prob, n_guesses=8)
    dt = perf_counter() - t0
    conds = {"runtime": dt < 10.0}
    for name, r in results.items():
        conds[name + "_converged"] = r.n_converged >= 6
        conds[name + "_distance"] = r.max_distance <= 1e-6
    _require(capsys, 6, conds,
             "probe distances shock %.1e (%d/8), rarefaction %.1e (%d/8), %.2fs"
             % (results["shock"].max_distance, results["shock"].n_converged,
                results["rarefaction"].max_distance,
                results["rarefaction"].n_converged, dt))


def test_criterion_07_proof_device_margins(capsys):
    t0 = perf_counter()
    tol = wf.SolveOptions().newton_tol
    rare = wf.ProfileProblem(BURGERS, -1.0, 1.0, 0.05)
    rprof, _ = wf.solve_profile(rare)
    slide, _ = wf.sliding_supersolution_margin(rprof, rare, 0.1)

    shock = wf.ProfileProblem(BURGERS, 1.0, -1.0, 0.05)
    # tails resolved to 1e-6 of the jump: xi + xi^2/2 = eps*ln(1e6) at |xi| = 0.54
    narrow, _ = wf.solve_profile(shock, wf.SolveOptions(domain=(-0.55, 0.55)))
    sweep, _ = wf.sweeping_supersolution_margin(narrow, shock, 0.1, 1.0)

    big_m = wf.sliding_constant_M(rare, rprof)
    wide, _ = wf.solve_profile(rare, wf.SolveOptions(domain=(-(big_m + 1.5), big_m + 1.5)))
    barrier = wf.barrier_operator_margin(rare, wide, 0.1, big_m)
    dt = perf_counter() - t0
    conds = {
        "sliding": slide > 10.0 * tol,
        "sweeping": sweep > 10.0 * tol,
        "barrier": barrier < 0.0,
        "runtime": dt < 2.0,
    }
    _require(capsys, 7, conds,
             "margins: sliding %.2e, sweeping %.2e, barrier %.2e (M=%.2f), %.2fs"
             % (slide, sweep, barrier, big_m, dt))


def test_criterion_08_second_order_convergence(capsys):
    t0 = perf_counter()
    prob = wf.ProfileProblem(BURGERS, 1.0, -1.0, 0.05)
    dom = (-1.2, 1.2)
    fine, _ = wf.solve_profile(prob, wf.SolveOptions(domain=dom, nodes_per_layer=960))
    reference = CubicSpline(fine.xi, fine.u)
    errs = []
    for npl in (120, 240):
        prof, _ = wf.solve_profile(prob, wf.SolveOptions(domain=dom, nodes_per_layer=npl))
        errs.append(float(np.max(np.abs(prof.u - reference(prof.xi)))))
    factor = errs[0] / errs[1]
    dt = perf_counter() - t0
    conds = {"order": 3.0 <= factor <= 5.0, "runtime": dt < 5.0}
    _require(capsys, 8, conds,
             "halving spacing: errors %.3e -> %.3e (factor %.2f) in %.2fs"
             % (errs[0], errs[1], factor, dt))


def test_criterion_09_nonconvex_flux(capsys):
    t0 = perf_counter()
    prob = wf.ProfileProblem(CUBIC, -1.0, 1.0, 0.025)
    exact = wf.solve_exact(CUBIC, -1.0, 1.0)
    opts = wf.SolveOptions(domain=(-1.5, 4.5))
    sweep = [wf.solve_profile(replace(prob, epsilon=eps), opts)[0]
             for eps in (0.1, 0.05, 0.025)]
    monos = [wf.check_monotone(p, -1.0, 1.0) for p in sweep]
    errs = [wf.l1_window_error(p, exact, (-1.0, 4.0)) for p in sweep]
    dt = perf_counter() - t0
    conds = {
        "monotone": all(m >= 0.0 for m in monos),
        "decreasing_error": all(b < a for a, b in zip(errs, errs[1:])),
        "runtime": dt < 10.0,
    }
    _require(capsys, 9, conds,
             "cubic composite wave: L1 errors %s in %.2fs"
             % (", ".join("%.4f" % e for e in errs), dt))


# ---------------------------------------------------------------------------
# criterion 10: every contributed routine against an independent oracle


def _fd_jacobian(problem, profile, h=1e-7):
    n = len(profile.xi)
    full = np.zeros((n, n))
    for j in range(n):
        up = profile.u.copy()
        um = profile.u.copy()
        up[j] += h
        um[j] -= h
        rp = wf.residual(problem, wf.Profile(profile.xi, up, profile.du))
        rm = wf.residual(problem, wf.Profile(profile.xi, um, profile.du))
        full[:, j] = (rp - rm) / (2.0 * h)
    return full


def _banded_to_dense(ab):
    n = ab.shape[1]
    full = np.zeros((n, n))
    idx = np.arange(n)
    full[idx, idx] = ab[1]
    full[idx[:-1], idx[:-1] + 1] = ab[0, 1:]
    full[idx[1:], idx[1:] - 1] = ab[2, :-1]
    return full


def _scan_oracle(flux, ul, ur, xis, n=100001):
    """u(xi) extremizes f(v) - xi*v over the state interval (argmin for
    increasing data, argmax for decreasing), refined parabolically."""
    lo, hi = min(ul, ur), max(ul, ur)
    v = np.linspace(lo, hi, n)
    fv = evaluate(flux, v)
    phi = fv[None, :] - np.asarray(xis)[:, None] * v[None, :]
    ks = np.argmin(phi, axis=1) if ul <= ur else np.argmax(phi, axis=1)
    out = v[ks].astype(float)
    for row, k in enumerate(ks):
        if 0 < k < n - 1:
            a, b, c = phi[row, k - 1], phi[row, k], phi[row, k + 1]
            denom = a - 2.0 * b + c
            if denom != 0.0:
                out[row] = v[k] + 0.5 * (a - c) / denom * (v[1] - v[0])
    return out


def test_criterion_10_oracle_equivalences(capsys):
    t0 = perf_counter()

    # (a) analytic Jacobian vs centered finite differences
    rng = np.random.default_rng(7)
    fluxes = (BURGERS, CUBIC, QUARTIC)
    worst_jac = 0.0
    for trial in range(20):
        prob = wf.ProfileProblem(fluxes[trial % 3], 1.0, -1.0, 0.1)
        xi = np.concatenate([[-2.0], np.sort(rng.uniform(-1.9, 1.9, 29)), [2.0]])
        u = np.tanh(-xi) + 0.05 * rng.standard_normal(len(xi))
        prof = wf.Profile(xi, u, np.zeros_like(xi))
        dense = _banded_to_dense(wf.jacobian(prob, prof))
        fd = _fd_jacobian(prob, prof)
        worst_jac = max(worst_jac,
                        float(np.max(np.abs(dense - fd)) / np.max(np.abs(fd))))

    # (b) envelope construction vs dense variational scan
    rng = np.random.default_rng(11)
    worst_riemann = 0.0
    for trial in range(10):
        degree = 3 if trial % 2 == 0 else 4
        coeffs = np.concatenate([[0.0], rng.uniform(-1.0, 1.0, degree)])
        flux = wf.polynomial_flux(coeffs)
        ul, ur = rng.uniform(-1.5, 1.5, 2)
        if abs(ul - ur) < 0.2:
            ur = ul + (0.5 if ur >= ul else -0.5)
        sol = wf.solve_exact(flux, ul, ur)
        lo, hi = wf.wave_speed_span(sol)
        xis = np.linspace(lo - 1.0, hi + 1.0, 40)
        jumps = np.array([w.speed for w in sol.waves if isinstance(w, wf.Shock)])
        if len(jumps):
            xis = xis[np.min(np.abs(xis[:, None] - jumps[None, :]), axis=1) > 1e-3]
        got = wf.eval_riemann(sol, xis)
        want = _scan_oracle(flux, ul, ur, xis)
        worst_riemann = max(worst_riemann, float(np.max(np.abs(got - want))))

    dt = perf_counter() - t0
    conds = {
        "jacobian_vs_fd": worst_jac <= 1e-6,
        "riemann_vs_scan": worst_riemann <= 1e-6,
        "runtime": dt < 5.0,
    }
    _require(capsys, 10, conds,
             "oracles: jacobian %.1e, riemann %.1e, %.2fs"
             % (worst_jac, worst_riemann, dt))
