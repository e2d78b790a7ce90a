"""Discretization, Newton solver, and continuation for viscous profiles."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy.linalg import solve_banded

import wavefan as wf
from wavefan import profile_bvp, riemann
from wavefan.errors import (
    CoverageError,
    InvalidParameterError,
    LinearSolverError,
    NonConvergenceError,
    WindowError,
)


def banded_to_dense(ab):
    n = ab.shape[1]
    full = np.zeros((n, n))
    idx = np.arange(n)
    full[idx, idx] = ab[1]
    full[idx[:-1], idx[:-1] + 1] = ab[0, 1:]
    full[idx[1:], idx[1:] - 1] = ab[2, :-1]
    return full


def fd_jacobian(problem, profile, h=1e-7):
    """Oracle: centered finite differences of the residual, column by column."""
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


def make_problem(ul=1.0, ur=-1.0, eps=0.05, flux=None):
    return wf.ProfileProblem(flux or wf.burgers_flux(), ul, ur, eps)


def scalar_mesh_oracle(problem, domain=None, options=None, max_nodes=400_000):
    """Oracle: the graded mesh marched outward from the centre one node at a
    time, with spacing min(h_base, c*eps/S(xi)) at the current node."""
    opts = options or wf.SolveOptions()
    lo, hi = domain if domain is not None else wf.truncate_domain(problem, opts.tail_tol)
    m, big_m = wf.derivative_range(problem.flux, *problem.state_interval)
    fine = 12.0 / float(opts.nodes_per_layer) * problem.epsilon

    def spacing(x):
        s = max(big_m, x) - min(m, x)
        return opts.h_base if s * opts.h_base <= fine else fine / s

    def march(start, stop, sign):
        out = []
        x = start
        while True:
            if len(out) + 1 > max_nodes:
                raise CoverageError("mesh exceeds %d nodes; enlarge spacing or "
                                    "shrink the domain" % max_nodes)
            h = spacing(x)
            nxt = x + sign * h
            if sign * (stop - nxt) < 0.3 * h:
                return out + [stop]
            out.append(nxt)
            x = nxt

    centre = 0.5 * (lo + hi)
    right = march(centre, hi, 1.0)
    left = march(centre, lo, -1.0)
    mesh = np.array(left[::-1] + [centre] + right)
    if len(mesh) > max_nodes:
        raise CoverageError("mesh exceeds %d nodes" % max_nodes)
    return mesh


def vandermonde_slope_oracle(xi, u):
    """Oracle: five-point slope weights from one scaled 5x5 Vandermonde solve
    per node."""
    n = len(xi)
    starts = np.clip(np.arange(n) - 2, 0, n - 5)
    idx = starts[:, None] + np.arange(5)[None, :]
    dx = xi[idx] - xi[:, None]
    scale = np.max(np.abs(dx), axis=1)
    t = dx / scale[:, None]
    vander = t[:, None, :] ** np.arange(5)[None, :, None]
    rhs = np.zeros((n, 5, 1))
    rhs[:, 1, 0] = 1.0
    weights = np.linalg.solve(vander, rhs)[:, :, 0]
    return np.einsum("ij,ij->i", weights, u[idx]) / scale


def gathered_slope_oracle(xi, u):
    """Oracle: the closed-form five-point slope with every node's clipped
    window gathered by index and masked, one set of arrays over all nodes."""
    n = len(xi)
    starts = np.clip(np.arange(n) - 2, 0, n - 5)
    own = np.arange(n) - starts
    x = [xi[starts + k] for k in range(5)]
    d = [np.where(own == k, 1.0, xi - x[k]) for k in range(5)]
    w_own = sum(np.where(own == k, 0.0, 1.0 / d[k]) for k in range(5))
    du = np.zeros(n)
    for j in range(5):
        others = [k for k in range(5) if k != j]
        num = math.prod(d[k] for k in others)
        den = math.prod(x[j] - x[k] for k in others)
        du += np.where(own == j, w_own, num / den) * u[starts + j]
    return du


def graded_mesh(rng, n):
    """n strictly increasing nodes whose spacing is graded over three
    decades and jittered node to node."""
    h = 10.0 ** (np.linspace(-4.0, -1.0, n - 1) + rng.uniform(-0.3, 0.3, n - 1))
    start = rng.uniform(-1.0, 1.0)
    return np.concatenate([[start], start + np.cumsum(h)])


@pytest.fixture
def slope_calls(monkeypatch):
    """Counts calls of reconstruct_derivative made through profile_bvp."""
    calls = []
    real = profile_bvp.reconstruct_derivative

    def counting(xi, u):
        calls.append(len(xi))
        return real(xi, u)

    monkeypatch.setattr(profile_bvp, "reconstruct_derivative", counting)
    return calls


# ---------------------------------------------------------------------------
# domain truncation

def test_truncate_domain_pinned_example():
    prob = make_problem(-1.0, 1.0, 0.1)
    lo, hi = wf.truncate_domain(prob, tail_tol=1e-12)
    assert lo == pytest.approx(-3.667, abs=5e-3)
    assert hi == pytest.approx(3.667, abs=5e-3)
    assert lo == -hi


def test_truncate_domain_shrinks_with_viscosity():
    wide = wf.truncate_domain(make_problem(eps=0.2))
    tight = wf.truncate_domain(make_problem(eps=0.05))
    assert wide[0] < tight[0] < tight[1] < wide[1]


def test_truncate_domain_constant_data_centres_on_speed():
    prob = make_problem(0.3, 0.3, 0.2)
    lo, hi = wf.truncate_domain(prob)
    assert lo < 0.3 < hi
    assert (0.3 - lo) == pytest.approx(hi - 0.3, rel=1e-12)


def test_truncate_domain_rejects_bad_tolerance():
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(InvalidParameterError):
            wf.truncate_domain(make_problem(), tail_tol=bad)


# ---------------------------------------------------------------------------
# mesh construction

def test_mesh_basic_invariants():
    prob = make_problem()
    mesh = wf.build_mesh(prob)
    assert len(mesh) >= 3
    d = np.diff(mesh)
    assert np.all(d > 0)
    # graded, not jumpy: neighbouring steps within a factor ~2
    assert np.max(np.maximum(d[1:] / d[:-1], d[:-1] / d[1:])) < 2.5


def test_mesh_mirrors_for_odd_symmetric_data():
    mesh = wf.build_mesh(make_problem(1.0, -1.0, 0.05))
    assert np.array_equal(mesh, -mesh[::-1])


def test_mesh_hits_requested_endpoints():
    mesh = wf.build_mesh(make_problem(), domain=(-1.25, 1.5))
    assert mesh[0] == -1.25 and mesh[-1] == 1.5


def test_mesh_refines_with_layer_budget():
    prob = make_problem()
    coarse = wf.build_mesh(prob, options=wf.SolveOptions(nodes_per_layer=60))
    fine = wf.build_mesh(prob, options=wf.SolveOptions(nodes_per_layer=240))
    assert len(fine) > 2 * len(coarse)


def test_mesh_rejects_domain_missing_the_fan():
    with pytest.raises(WindowError):
        wf.build_mesh(make_problem(-1.0, 1.0), domain=(-0.5, 2.0))


def test_mesh_rejects_malformed_domain():
    for dom in ((1.0, -1.0), (0.0, 0.0), (-np.inf, 2.0), (np.nan, 1.0)):
        with pytest.raises(InvalidParameterError):
            wf.build_mesh(make_problem(), domain=dom)


def test_mesh_rejects_nonpositive_spacing():
    for opts in (wf.SolveOptions(h_base=0.0), wf.SolveOptions(nodes_per_layer=0)):
        with pytest.raises(InvalidParameterError):
            wf.build_mesh(make_problem(), options=opts)


CUBIC = wf.polynomial_flux((0.0, 0.0, 0.0, 1.0))


@pytest.mark.parametrize("problem, domain", [
    (make_problem(1.0, -1.0, 0.05), None),                  # Burgers shock
    (make_problem(-1.0, 1.0, 0.01), None),                  # Burgers rarefaction
    (make_problem(-1.0, 1.0, 0.002, flux=CUBIC), None),     # cubic composite
    (make_problem(1.0, -1.0, 0.01, flux=CUBIC), None),
    (make_problem(-1.0, 1.0, 1.0), None),                   # h_base on the fan
    (make_problem(0.0, 0.05, 0.05), None),                  # h_base, small jump
    (make_problem(0.4, 0.4, 0.05), None),                   # constant data, m == M
    (make_problem(1.0, -1.0, 0.05), (-1.25, 1.5)),          # domain override
    (make_problem(-0.2, 0.2, 0.01), (-0.5, 3.0)),           # centre beyond the fan
])
def test_mesh_matches_scalar_march_bitwise(problem, domain):
    mesh = wf.build_mesh(problem, domain=domain)
    assert np.array_equal(mesh, scalar_mesh_oracle(problem, domain=domain))


@pytest.mark.parametrize("problem, domain", [
    (make_problem(-1.0, 1.0, 0.01), None),           # sides end in the tails
    (make_problem(1.0, -1.0, 0.01), (-0.5, 0.5)),    # sides end on the fan
])
def test_mesh_node_cap_matches_scalar_march(monkeypatch, problem, domain):
    full = wf.build_mesh(problem, domain=domain)
    right = int(np.sum(full > 0.5 * (full[0] + full[-1])))
    # inside the fan run of one side, at the end of one side, and on the total
    for cap in (50, right - 1, right, len(full) - 1, len(full)):
        monkeypatch.setattr(profile_bvp, "_MAX_NODES", cap)
        try:
            expected = scalar_mesh_oracle(problem, domain=domain, max_nodes=cap)
        except CoverageError as exc:
            with pytest.raises(CoverageError) as got:
                wf.build_mesh(problem, domain=domain)
            assert str(got.value) == str(exc)
        else:
            assert np.array_equal(wf.build_mesh(problem, domain=domain), expected)


# ---------------------------------------------------------------------------
# slope reconstruction

def test_reconstruct_derivative_fourth_order_on_jittered_mesh():
    rng = np.random.default_rng(0)
    xi = np.concatenate([[0.0], np.cumsum(0.01 * rng.uniform(0.8, 1.2, 300))])
    err = np.max(np.abs(wf.reconstruct_derivative(xi, np.sin(xi)) - np.cos(xi)))
    assert err < 1e-7  # h ~ 1e-2, so an O(h^2) scheme would sit near 1e-5


def test_reconstruct_derivative_exact_on_quartics():
    xi = np.linspace(-1.0, 2.0, 40)
    u = 0.25 * xi**4 - xi**2 + 3.0 * xi - 7.0
    du = xi**3 - 2.0 * xi + 3.0
    assert np.max(np.abs(wf.reconstruct_derivative(xi, u) - du)) < 1e-10


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reconstruct_derivative_matches_vandermonde_oracle(seed):
    rng = np.random.default_rng(seed)
    # spacing graded over two decades, jittered node to node
    h = 10.0 ** np.linspace(-3.0, -1.0, 400) * rng.uniform(0.5, 1.5, 400)
    xi = np.concatenate([[-0.3], -0.3 + np.cumsum(h)])
    for u in (np.tanh(5.0 * xi), np.sin(xi), rng.uniform(-1.0, 1.0, len(xi))):
        ref = vandermonde_slope_oracle(xi, u)
        got = wf.reconstruct_derivative(xi, u)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 64, 2999])
def test_reconstruct_derivative_matches_gathered_windows_bitwise(n):
    # at n = 5, 6 and 7 the end windows overlap the interior ones
    rng = np.random.default_rng(n)
    for _ in range(4):
        xi = graded_mesh(rng, n)
        for u in (np.tanh((xi - xi[n // 2]) / (xi[-1] - xi[0])),
                  rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)):
            assert np.array_equal(wf.reconstruct_derivative(xi, u),
                                  gathered_slope_oracle(xi, u))


def test_reconstruct_derivative_tiny_input():
    xi = np.array([0.0, 0.4, 1.0])
    out = wf.reconstruct_derivative(xi, 2.0 * xi + 1.0)
    assert out == pytest.approx([2.0, 2.0, 2.0], abs=1e-12)


# ---------------------------------------------------------------------------
# initial guess

def test_initial_guess_constant_data_is_exact():
    prob = make_problem(0.3, 0.3, 0.2)
    mesh = wf.build_mesh(prob)
    guess = wf.initial_guess(prob, mesh)
    assert np.all(guess.u == 0.3)
    assert np.all(guess.du == 0.0)


def mollified_guess_oracle(problem, xi):
    """Oracle: the inviscid solution mollified on the sqrt(eps) scale, every
    shock included, as the guess was before shocks got travelling waves."""
    exact = wf.solve_exact(problem.flux, problem.u_left, problem.u_right)
    delta = 0.5 * math.sqrt(problem.epsilon)
    step = delta / 8.0
    aux = np.arange(xi[0] - 2.0 * delta, xi[-1] + 2.0 * delta + step, step)
    vals = wf.eval_riemann(exact, aux)
    prefix = np.concatenate([[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * step)])
    upper = np.interp(xi + delta, aux, prefix)
    lower = np.interp(xi - delta, aux, prefix)
    u = (upper - lower) / (2.0 * delta)
    u[0] = problem.u_left
    u[-1] = problem.u_right
    return u


@pytest.mark.parametrize("eps", [0.05, 5e-3, 5e-4])
def test_initial_guess_burgers_shock_is_the_tanh_layer(eps):
    # f is quadratic, so the travelling wave's quadrature is exact and the
    # guess is -tanh(xi/(2 eps)) up to the rounding of the mollified
    # constant 1 it is added to; the symmetric wave is not shifted
    prob = make_problem(1.0, -1.0, eps)
    mesh = wf.build_mesh(prob)
    guess = wf.initial_guess(prob, mesh)
    near = np.abs(mesh) <= 60.0 * eps
    assert np.max(np.abs(guess.u[near] + np.tanh(mesh[near] / (2.0 * eps)))) <= 1e-12
    shock = wf.solve_exact(prob.flux, 1.0, -1.0).waves[1]
    layer = profile_bvp._shock_layer(prob.flux, shock)
    assert layer.centre_offset(1.0 / math.sqrt(eps)) == 0.0


@pytest.mark.parametrize("token", ["burgers", "poly:0,0,0,1", "poly:0,0,-1,0,1"])
@pytest.mark.parametrize("ul,ur", [(1.0, -1.0), (-1.0, 1.0)])
@pytest.mark.parametrize("eps", [0.2, 0.01, 2e-3])
def test_initial_guess_is_monotone_inside_the_states_with_pinned_ends(token, ul, ur, eps):
    prob = wf.ProfileProblem(wf.parse_flux_token(token), ul, ur, eps)
    guess = wf.initial_guess(prob, wf.build_mesh(prob))
    assert guess.u[0] == ul and guess.u[-1] == ur
    # monotone and inside [-1, 1] up to prefix-sum roundoff
    assert np.all(np.diff(guess.u) * np.sign(ur - ul) >= -1e-12)
    assert np.all((guess.u >= -1.0 - 1e-12) & (guess.u <= 1.0 + 1e-12))


def test_initial_guess_without_a_travelling_wave_is_the_mollified_jump():
    # the quartic shock 1 -> -1 touches its chord at u = 0, where g has a
    # double root inside the states: no travelling wave, today's ramp
    prob = wf.ProfileProblem(wf.parse_flux_token("poly:0,0,-1,0,1"), 1.0, -1.0, 2e-3)
    shocks = [w for w in wf.solve_exact(prob.flux, 1.0, -1.0).waves
              if isinstance(w, wf.Shock)]
    assert len(shocks) == 1 and profile_bvp._shock_layer(prob.flux, shocks[0]) is None
    mesh = wf.build_mesh(prob)
    assert np.array_equal(wf.initial_guess(prob, mesh).u, mollified_guess_oracle(prob, mesh))


@given(coeffs=st.lists(st.floats(-2.0, 2.0, allow_subnormal=False), min_size=3, max_size=6),
       a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0), eps=st.floats(1e-4, 5.0))
def test_shock_layer_centre_balances_the_window_mass(coeffs, a, b, eps):
    # the first chord of the convex hull from the lower state: a shock to the
    # upper state, or a tangent (sonic) one whose table reaches ~1e17 eps on
    # its algebraic side; weak ones have layers far wider than the window
    assume(any(c != 0.0 for c in coeffs[2:]) and a != b)
    flux = wf.polynomial_flux(coeffs)
    lo, hi = min(a, b), max(a, b)
    q, _ = riemann._next_vertex(flux, lo, hi)
    layer = profile_bvp._shock_layer(flux, wf.Shock(riemann._chord_slope(flux, lo, q), lo, q))
    assume(layer is not None)
    half = 1.0 / math.sqrt(eps)
    d = layer.centre_offset(half)
    mass = layer._mass(half - d) - layer._mass(-half - d) + min(max(d, -half), half)
    assert abs(mass) <= 1e-12 * half
    w = layer.share(np.linspace(-4.0 * half, 4.0 * half, 401))
    assert np.all(np.diff(w) >= 0.0) and w[0] >= 0.0 and w[-1] <= 1.0


def test_initial_guess_starts_the_cubic_composite_wave_near_quadratic_convergence():
    # from the mollified jump this case took 18 iterations, 14 of them damped
    prob = wf.ProfileProblem(wf.parse_flux_token("poly:0,0,0,1"), -1.0, 1.0, 5e-4)
    _, report = wf.solve_profile(prob)
    assert report.converged and report.stages == 1
    assert report.iterations <= 8


# ---------------------------------------------------------------------------
# residual and Jacobian

def test_residual_vanishes_on_constant_profile():
    prob = make_problem(0.3, 0.3, 0.2)
    mesh = wf.build_mesh(prob)
    prof = wf.initial_guess(prob, mesh)
    assert np.all(wf.residual(prob, prof) == 0.0)


def test_residual_boundary_rows_are_mismatches():
    prob = make_problem(1.0, -1.0, 0.05)
    xi = np.linspace(-2.0, 2.0, 9)
    u = np.cos(xi)
    prof = wf.Profile(xi, u, np.zeros_like(xi))
    r = wf.residual(prob, prof)
    assert r[0] == u[0] - 1.0
    assert r[-1] == u[-1] + 1.0


def test_uniform_mesh_constant_profile_stencil():
    # against the hand-derived tridiagonal entries for u == const
    prob = make_problem(0.4, 0.4, 0.07)
    h = 0.05
    xi = np.arange(-1.0, 1.0 + h / 2, h)
    prof = wf.Profile(xi, np.full(len(xi), 0.4), np.zeros(len(xi)))
    ab = wf.jacobian(prob, prof)
    eps = prob.epsilon
    c = wf.derivative(prob.flux, 0.4) - xi[1:-1]
    assert ab[1, 0] == 1.0 and ab[1, -1] == 1.0
    assert np.allclose(ab[1, 1:-1], -2.0 * eps / h**2, rtol=1e-12)
    assert np.allclose(ab[0, 2:], eps / h**2 - c / (2.0 * h), rtol=1e-12)
    assert np.allclose(ab[2, :-2], eps / h**2 + c / (2.0 * h), rtol=1e-12)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(7)
    fluxes = [wf.burgers_flux(), wf.polynomial_flux([0.0, 0.2, 0.5, 1.0 / 3.0])]
    for trial in range(5):
        flux = fluxes[trial % 2]
        prob = wf.ProfileProblem(flux, 1.0, -1.0, 0.1)
        xi = np.concatenate([[-2.0], np.sort(rng.uniform(-1.9, 1.9, 30)), [2.0]])
        u = np.tanh(-xi) + 0.05 * rng.standard_normal(len(xi))
        prof = wf.Profile(xi, u, np.zeros_like(xi))
        dense = banded_to_dense(wf.jacobian(prob, prof))
        fd = fd_jacobian(prob, prof)
        scale = np.max(np.abs(fd))
        assert np.max(np.abs(dense - fd)) <= 1e-6 * scale


def test_workspace_residual_and_jacobian_match_fresh_evaluation_bitwise():
    # Newton keeps one workspace per solve and lets the banded solve
    # overwrite its band array; every call must equal a fresh evaluation
    rng = np.random.default_rng(19)
    for flux in (wf.burgers_flux(), wf.polynomial_flux([0.0, 0.2, 0.5, 1.0 / 3.0])):
        prob = wf.ProfileProblem(flux, 1.0, -1.0, 0.03)
        xi = np.sort(rng.uniform(-2.0, 2.0, 400))
        work = profile_bvp._Workspace(xi)
        for _ in range(3):
            u = np.tanh(-xi / 0.1) + 1e-3 * rng.standard_normal(len(xi))
            prof = wf.Profile(xi, u)
            r = wf.residual(prob, prof, work)
            assert np.array_equal(r, wf.residual(prob, prof))
            ab = wf.jacobian(prob, prof, work)
            assert np.array_equal(ab, wf.jacobian(prob, prof))
            solve_banded((1, 1), ab, -r, overwrite_ab=True, overwrite_b=True)


def test_jacobian_from_the_residual_workspace_matches_fresh_jacobian_bitwise():
    # Newton builds each Jacobian from the slopes and f'(u) - xi that the
    # accepted trial's residual left in the workspace
    rng = np.random.default_rng(29)
    for flux in (wf.burgers_flux(), wf.polynomial_flux([0.0, 0.2, 0.5, 1.0 / 3.0])):
        prob = wf.ProfileProblem(flux, 1.0, -1.0, 0.03)
        xi = np.sort(rng.uniform(-2.0, 2.0, 400))
        work = profile_bvp._Workspace(xi)
        for _ in range(3):
            prof = wf.Profile(xi, np.tanh(-xi / 0.1) + 1e-3 * rng.standard_normal(len(xi)))
            wf.residual(prob, prof, work)
            assert np.array_equal(work.c, wf.derivative(flux, prof.u[1:-1]) - xi[1:-1])
            ab = profile_bvp._jacobian_band(prob, prof.u, work)
            assert np.array_equal(ab, wf.jacobian(prob, prof))


def noise_floor_oracle(problem, profile):
    """Oracle: the residual's roundoff level from freshly computed mesh
    differences."""
    xi, u = profile.xi, profile.u
    hm = xi[1:-1] - xi[:-2]
    hp = xi[2:] - xi[1:-1]
    uscale = np.maximum(np.abs(u[1:-1]), np.maximum(np.abs(u[:-2]), np.abs(u[2:])))
    c = np.abs(wf.derivative(problem.flux, u[1:-1]) - xi[1:-1])
    level = 2.0 * problem.epsilon * uscale / (hm * hp) \
        + c * uscale * (1.0 / hm + 1.0 / hp)
    return 4.0 * float(np.finfo(float).eps) * float(np.max(level))


def test_noise_floor_on_a_used_workspace_matches_oracle_bitwise():
    rng = np.random.default_rng(23)
    for flux in (wf.burgers_flux(), wf.polynomial_flux([0.0, 0.2, 0.5, 1.0 / 3.0])):
        prob = wf.ProfileProblem(flux, 1.0, -1.0, 0.03)
        xi = np.sort(rng.uniform(-2.0, 2.0, 400))
        prof = wf.Profile(xi, np.tanh(-xi / 0.1) + 1e-3 * rng.standard_normal(len(xi)))
        work = profile_bvp._Workspace(xi)
        wf.jacobian(prob, prof, work)
        expected = noise_floor_oracle(prob, prof)
        assert wf.residual_noise_floor(prob, prof, work) == expected
        assert wf.residual_noise_floor(prob, prof) == expected


@given(coeffs=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=5),
       seed=st.integers(0, 2**32 - 1), n=st.integers(3, 80),
       eps=st.floats(1e-4, 1.0), scale=st.floats(1e-3, 1e3))
def test_noise_floor_bound_is_at_least_the_floor(coeffs, seed, n, eps, scale):
    assume(any(c != 0.0 for c in coeffs[1:]))
    rng = np.random.default_rng(seed)
    xi = graded_mesh(rng, n) * rng.uniform(0.1, 10.0)
    u = scale * rng.uniform(-1.0, 1.0, n)
    prob = wf.ProfileProblem(wf.polynomial_flux(coeffs), u[0], u[-1], eps)
    work = profile_bvp._Workspace(xi)
    assert profile_bvp._noise_floor_bound(prob, u, work) \
        >= wf.residual_noise_floor(prob, wf.Profile(xi, u), work)


def test_newton_evaluates_the_floor_only_where_it_can_decide(monkeypatch):
    # the cubic's rejected full steps come far above the floor, which the
    # bound settles, and at it, where the one floor evaluation ends the solve
    calls = []
    real = profile_bvp._node_noise

    def counting(*args):
        calls.append(len(args[1].u))
        return real(*args)

    monkeypatch.setattr(profile_bvp, "_node_noise", counting)
    prob = wf.ProfileProblem(wf.parse_flux_token("poly:0,0,0,1"), -1.0, 1.0, 2e-3)
    guess = wf.initial_guess(prob, wf.build_mesh(prob))
    _, report = wf.newton_solve(prob, guess)
    assert report.converged and report.floor_limited
    assert len(calls) == 1


def test_newton_non_finite_system_raises_linear_solver_error():
    # f'(1e200) overflows, so the first Newton system is not finite
    prob = wf.ProfileProblem(wf.parse_flux_token("poly:0,0,0,1"), -1.0, 1.0, 0.05)
    xi = np.linspace(-3.0, 3.0, 50)
    u = np.linspace(-1.0, 1.0, 50)
    u[20] = 1e200
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(LinearSolverError) as exc:
        wf.newton_solve(prob, wf.Profile(xi, u))
    report = exc.value.report
    assert not report.converged and report.iterations == 0
    assert report.residual_history == (math.inf,)


def reference_newton(problem, guess, opts):
    """Oracle: the damped Newton loop with fresh arrays for every evaluation."""
    xi, u = guess.xi, guess.u.copy()
    r = wf.residual(problem, wf.Profile(xi, u))
    history = [float(np.max(np.abs(r)))]
    while history[-1] > opts.newton_tol and len(history) <= opts.max_iter:
        step = solve_banded((1, 1), wf.jacobian(problem, wf.Profile(xi, u)), -r)
        step[0], step[-1] = -r[0], -r[-1]
        lam = 1.0
        for _ in range(opts.max_halvings + 1):
            trial = u + lam * step
            rt = wf.residual(problem, wf.Profile(xi, trial))
            nt = float(np.max(np.abs(rt)))
            if nt <= (1.0 - profile_bvp._ARMIJO * lam) * history[-1] or nt <= opts.newton_tol:
                u, r = trial, rt
                history.append(nt)
                break
            lam *= opts.damping
        else:
            break
    return u, history


@pytest.mark.parametrize("token,ul,ur,eps", [
    ("burgers", 1.0, -1.0, 0.05),
    ("poly:0,0,0,1", -1.0, 1.0, 0.02),
    ("poly:0,0,-1,0,1", -0.747, 1.490, 0.026),
])
def test_newton_matches_reference_loop_bitwise(token, ul, ur, eps):
    prob = wf.ProfileProblem(wf.parse_flux_token(token), ul, ur, eps)
    opts = wf.SolveOptions(newton_tol=1e-8)
    guess = wf.initial_guess(prob, wf.build_mesh(prob))
    profile, report = wf.newton_solve(prob, guess, opts)
    u, history = reference_newton(prob, guess, opts)
    assert report.converged and not report.floor_limited
    assert np.array_equal(profile.u, u)
    assert report.residual_history == tuple(history)


# ---------------------------------------------------------------------------
# Newton iteration

def test_floor_limited_newton_rejects_one_trial_at_the_floor(monkeypatch):
    # once the residual is at its noise floor a rejected full step ends the
    # solve; the last line search evaluates that one trial, not 31
    norms = []
    real = profile_bvp.residual

    def counting(*args):
        r = real(*args)
        norms.append(profile_bvp._max_abs(r))
        return r

    monkeypatch.setattr(profile_bvp, "residual", counting)
    prob = make_problem(1.0, -1.0, 5e-3)
    guess = wf.initial_guess(prob, wf.build_mesh(prob))
    _, report = wf.newton_solve(prob, guess)
    assert report.converged and report.floor_limited
    # norms[0] is the guess's; the k-th accepted trial is the first later
    # evaluation whose norm is residual_history[k] (a rejected trial after
    # it may have the same norm)
    last_accepted = 0
    for accepted_norm in report.residual_history[1:]:
        last_accepted = norms.index(accepted_norm, last_accepted + 1)
    assert len(norms) - 1 - last_accepted == 1
    # the final iteration took no step
    assert report.iterations == len(report.residual_history)


def test_newton_constant_data_converges_immediately():
    prob = make_problem(0.3, 0.3, 0.2)
    mesh = wf.build_mesh(prob)
    profile, report = wf.newton_solve(prob, wf.initial_guess(prob, mesh))
    assert report.converged
    assert report.iterations <= 2
    assert report.residual_norm <= 1e-12
    assert np.all(profile.u == 0.3)


def test_newton_failure_carries_partial_report():
    prob = make_problem(1.0, -1.0, 0.05)
    mesh = wf.build_mesh(prob)
    guess = wf.initial_guess(prob, mesh)
    with pytest.raises(NonConvergenceError) as exc:
        wf.newton_solve(prob, guess, wf.SolveOptions(max_iter=1))
    report = exc.value.report
    assert report is not None and not report.converged
    assert report.iterations == 1
    assert exc.value.epsilon == 0.05
    assert len(report.residual_history) >= 2


def test_newton_rejects_malformed_guess():
    prob = make_problem()
    xi = np.array([0.0, 1.0])
    with pytest.raises(InvalidParameterError):
        wf.newton_solve(prob, wf.Profile(xi, xi, xi))
    xi3 = np.array([-2.0, -2.0, 2.0])
    with pytest.raises(InvalidParameterError):
        wf.newton_solve(prob, wf.Profile(xi3, np.zeros(3), np.zeros(3)))


def test_newton_keeps_end_values_bitwise():
    # the banded solve pivots through the identity boundary rows; unpinned,
    # this case returned u[0] 7 ulp below the data
    prob = wf.ProfileProblem(wf.parse_flux_token("poly:0,0,-1,0,1"), -0.747, 1.490, 0.026)
    profile, report = wf.solve_profile(prob)
    assert report.converged
    assert profile.u[0] == -0.747 and profile.u[-1] == 1.490


def test_residual_history_decreases(shock_profile, shock_problem):
    _, report = wf.solve_profile(shock_problem)
    hist = np.array(report.residual_history)
    assert np.all(np.diff(hist) < 0)
    assert report.residual_norm == hist[-1]


# ---------------------------------------------------------------------------
# full solves

def test_solved_shock_obeys_max_principle(shock_profile):
    assert float(shock_profile.u.max()) <= 1.0
    assert float(shock_profile.u.min()) >= -1.0
    assert np.all(np.diff(shock_profile.u) <= 0)


def test_solved_shock_strictly_monotone_on_narrow_domain():
    prob = make_problem(1.0, -1.0, 0.05)
    profile, report = wf.solve_profile(prob, wf.SolveOptions(domain=(-0.9, 0.9)))
    assert report.converged
    assert np.all(np.diff(profile.u) < 0)
    # odd symmetry of the data pins the profile at the origin
    assert abs(float(profile.u[np.argmin(np.abs(profile.xi))])) < 1e-12


def test_solved_rarefaction_tracks_the_fan(rarefaction_profile, rarefaction_problem):
    mask = np.abs(rarefaction_profile.xi) <= 0.5
    exact = np.clip(rarefaction_profile.xi[mask], -1.0, 1.0)
    err = np.max(np.abs(rarefaction_profile.u[mask] - exact))
    assert err < 0.1
    assert np.all(np.diff(rarefaction_profile.u) >= 0)


def test_small_residual_at_solution(shock_problem, shock_profile):
    r = wf.residual(shock_problem, shock_profile)
    floor = wf.residual_noise_floor(shock_problem, shock_profile)
    assert float(np.max(np.abs(r))) <= max(1e-11, 2.0 * floor)
    assert 0.0 < floor < 1e-4


def test_report_floor_flag_is_consistent(shock_problem):
    _, report = wf.solve_profile(
        shock_problem, wf.SolveOptions(domain=(-0.9, 0.9), nodes_per_layer=1200))
    if report.floor_limited:
        assert report.converged


# ---------------------------------------------------------------------------
# continuation

HALVING = tuple(0.5 ** k for k in range(7)) + (0.01,)


def halving_chain(problem):
    """Reference: Newton at each viscosity of HALVING in turn, warm-started
    from the previous stage, the intermediate stages to 1e-8."""
    opts = wf.SolveOptions()
    profile = None
    for eps in HALVING:
        stage = dataclasses.replace(problem, epsilon=eps)
        tol = opts.newton_tol if eps == HALVING[-1] else 1e-8
        profile, _ = wf.newton_solve(stage, profile_bvp._warm_start(stage, profile, opts),
                                     dataclasses.replace(opts, newton_tol=tol))
    return profile


@pytest.mark.parametrize("token", ["burgers", "poly:0,0,0,1", "poly:0,0,-1,0,1"])
@pytest.mark.parametrize("ul, ur", [(1.0, -1.0), (-1.0, 1.0)])
def test_target_first_solve_matches_halving_continuation(token, ul, ur):
    prob = wf.ProfileProblem(wf.parse_flux_token(token), ul, ur, HALVING[-1])
    direct, report = wf.solve_profile(prob)
    halved = halving_chain(prob)
    assert report.stages == 1
    assert np.array_equal(direct.xi, halved.xi)
    assert np.max(np.abs(direct.u - halved.u)) <= 1e-9


def test_quartic_shock_solves_at_default_settings(tmp_path, capsys):
    # halving down from eps = 1 stalls at this stage (residual 1.8e-6 after
    # 25 iterations); started at the target, Newton converges
    report = tmp_path / "report.json"
    assert wf.cli_io.main(["solve", "--flux", "poly:0,0,-1,0,1", "--ul", "1", "--ur", "-1",
                           "--eps", "0.002", "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["converged"] and payload["stages"] == 1


def failing_attempts(monkeypatch, fails):
    """Replaces profile_bvp.newton_solve with one whose first `fails`
    attempts raise (NonConvergenceError and LinearSolverError in turn, each
    after 3 iterations); returns the list of attempted viscosities."""
    attempts = []
    real = profile_bvp.newton_solve

    def flaky(stage, guess, opts=None):
        attempts.append(stage.epsilon)
        if len(attempts) > fails:
            return real(stage, guess, opts)
        report = profile_bvp.SolveReport(False, 3, (1.0,), (guess.xi[0], guess.xi[-1]),
                                         len(guess.xi))
        if len(attempts) % 2:
            raise NonConvergenceError("stalled", report=report, epsilon=stage.epsilon)
        raise LinearSolverError("singular", report=report)

    monkeypatch.setattr(profile_bvp, "newton_solve", flaky)
    return attempts


def test_failed_stage_backs_off_to_the_geometric_mean(monkeypatch):
    prob = make_problem(1.0, -1.0, 0.01)
    direct, direct_report = wf.solve_profile(prob)
    attempts = failing_attempts(monkeypatch, 2)
    profile, report = wf.solve_profile(prob)
    # 0.01 fails; its retry waits on 0.1 = sqrt(1 * 0.01), which fails and
    # waits on sqrt(1 * 0.1); sqrt(0.1), 0.1 and 0.01 then solve
    assert attempts == [0.01, 0.1, math.sqrt(0.1), 0.1, 0.01]
    assert report.stages == 5
    assert report.converged and report.iterations > 2 * 3 + direct_report.iterations
    assert np.max(np.abs(profile.u - direct.u)) <= 1e-9


def test_back_off_ends_when_viscosities_close_in(monkeypatch):
    attempts = failing_attempts(monkeypatch, 10 ** 6)
    with pytest.raises((NonConvergenceError, LinearSolverError)):
        wf.solve_profile(make_problem(1.0, -1.0, 0.01))
    # every attempt fails, so each one bisects [eps_k, 1] in log eps until
    # 1 < 1.1 * eps_k
    assert attempts[0] == 0.01 and 1.0 < 1.1 * attempts[-1]
    assert all(b == math.sqrt(a) for a, b in zip(attempts, attempts[1:]))
    assert len(attempts) == 7


def test_sweep_validation():
    prob = make_problem()
    for eps_list in ([], [0.1, 0.1], [0.05, 0.1], [0.1, 0.0]):
        with pytest.raises(InvalidParameterError):
            wf.continuation_sweep(prob, eps_list)


@pytest.mark.parametrize("token, ul, ur, schedule", [
    ("burgers", 1.0, -1.0, [0.05]),
    ("poly:0,0,0,1", -1.0, 1.0, [0.1, 0.002]),
    ("poly:0,0,-1,0,1", 1.0, -1.0, [0.05, 0.005]),
])
def test_singleton_sweep_matches_direct_solve(token, ul, ur, schedule):
    prob = wf.ProfileProblem(wf.parse_flux_token(token), ul, ur, schedule[-1])
    out = wf.continuation_sweep(prob, schedule)
    assert [e for e, _ in out] == schedule
    for eps, swept in out:
        direct, _ = wf.solve_profile(dataclasses.replace(prob, epsilon=eps))
        assert np.array_equal(swept.xi, direct.xi)
        assert np.array_equal(swept.u, direct.u)
        assert np.array_equal(swept.du, direct.du)


def test_sweep_profiles_sharpen():
    prob = make_problem(1.0, -1.0, 0.1)
    out = wf.continuation_sweep(prob, [0.1, 0.05], wf.SolveOptions(domain=(-1.5, 1.5)))
    assert [e for e, _ in out] == [0.1, 0.05]
    slopes = [float(np.min(p.du)) for _, p in out]
    assert slopes[1] < slopes[0] < 0.0  # steeper interior layer at smaller eps


def test_solve_profile_reconstructs_the_slope_once(slope_calls, monkeypatch):
    # 0.01 fails, then 0.1 and 0.01 solve
    attempts = failing_attempts(monkeypatch, 1)
    profile, report = wf.solve_profile(make_problem(-1.0, 1.0, 0.01))
    assert attempts == [0.01, 0.1, 0.01] and report.stages == 3
    assert slope_calls == [len(profile.xi)]
    assert np.array_equal(profile.du, wf.reconstruct_derivative(profile.xi, profile.u))
    assert len(slope_calls) == 1      # read again: cached, not recomputed


def test_sweep_returns_profiles_with_slopes(slope_calls):
    out = wf.continuation_sweep(make_problem(1.0, -1.0, 0.1), [0.1, 0.05, 0.025])
    assert len(slope_calls) == 3
    for _, p in out:
        assert np.array_equal(p.du, wf.reconstruct_derivative(p.xi, p.u))
    assert len(slope_calls) == 3      # the slopes were computed inside the sweep


def test_probe_never_reconstructs_slopes(slope_calls):
    result = wf.uniqueness_probe(make_problem(-1.0, 1.0, 0.05), n_guesses=3)
    assert result.n_converged >= 2
    assert slope_calls == []


def test_profile_slope_is_lazy_unless_given(slope_calls):
    xi = np.linspace(-1.0, 1.0, 9)
    given = np.full(9, 7.0)
    assert wf.Profile(xi, xi ** 2, given).du is given
    assert slope_calls == []
    lazy = wf.Profile(xi, xi ** 2)
    assert slope_calls == []
    assert np.allclose(lazy.du, 2.0 * xi, atol=1e-12)
    assert lazy.du is lazy.du and len(slope_calls) == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        lazy.u = xi


def test_sample_profile_interpolates_and_clamps(shock_profile):
    left = wf.sample_profile(shock_profile, shock_profile.xi[0] - 5.0)
    right = wf.sample_profile(shock_profile, shock_profile.xi[-1] + 5.0)
    assert left == shock_profile.u[0]
    assert right == shock_profile.u[-1]
    mid = wf.sample_profile(shock_profile, shock_profile.xi[3:6])
    assert np.array_equal(mid, shock_profile.u[3:6])


def test_problem_validation():
    with pytest.raises(InvalidParameterError):
        wf.ProfileProblem(wf.burgers_flux(), np.nan, 0.0, 0.1)
    with pytest.raises(InvalidParameterError):
        wf.ProfileProblem(wf.burgers_flux(), 0.0, 1.0, 0.0)
    with pytest.raises(InvalidParameterError):
        wf.ProfileProblem(wf.burgers_flux(), 0.0, 1.0, -0.1)
