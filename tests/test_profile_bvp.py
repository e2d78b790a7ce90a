"""Discretization, Newton solver, and the Dafermos-flow fallback for viscous profiles."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

import wavefan as wf
from wavefan import profile_bvp, riemann
from wavefan.errors import (
    CoverageError,
    InvalidParameterError,
    NonConvergenceError,
)
from wavefan.flux import divided_difference


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


def domain_of(problem, options=None):
    """The truncated domain (lo, hi): `build_mesh`'s end nodes are exactly lo
    and hi."""
    mesh = wf.build_mesh(problem, options)
    return mesh[0], mesh[-1]


def scalar_mesh_oracle(problem, options=None):
    """Oracle: the graded mesh marched outward from the centre one node at a
    time, with spacing min(h_base, c*eps/S(xi)) at the current node."""
    opts = options or wf.SolveOptions()
    lo, hi = opts.domain or domain_of(problem, opts)
    m, big_m = wf.derivative_range(problem.flux, *problem.state_interval)
    fine = 12.0 / float(opts.nodes_per_layer) * problem.epsilon
    h_base = profile_bvp._H_BASE

    def spacing(x):
        s = max(big_m, x) - min(m, x)
        return h_base if s * h_base <= fine else fine / s

    def march(start, stop, sign):
        out = []
        x = start
        while True:
            h = spacing(x)
            nxt = x + sign * h
            if sign * (stop - nxt) < 0.3 * h:
                return out + [stop]
            out.append(nxt)
            x = nxt

    centre = 0.5 * (lo + hi)
    right = march(centre, hi, 1.0)
    left = march(centre, lo, -1.0)
    return np.array(left[::-1] + [centre] + right)


def taper_oracle(top, t):
    """Oracle: the chords of top/(1 + top*t/taper) between the distances
    t_j = taper*(2^j - 1)/top, where it is top/2^j, down to the last j with
    top/2^j >= 1/h_base; constant past that."""
    taper, h_base = profile_bvp._TAPER, profile_bvp._H_BASE
    last = max(math.frexp(top * h_base)[1], 0)
    j = np.minimum(np.floor(np.log2(1.0 + top * t / taper)), last)
    start = taper * (2.0 ** j - 1.0) / top
    slope = top * top * 0.5 ** (2.0 * j + 1.0) / taper
    return np.where(j < last, top * 0.5 ** j - slope * (t - start), top * 0.5 ** last)


def corner_oracle(top, d, root, width):
    """Oracle: the corner term at outward distance d from a fan edge, fan
    width `width`, root = sqrt(eps). Outside, past the reach R*root, R =
    sqrt(2*efolds), the taper of top; top from -X0*root to R*root; inside,
    with s = (-d - X0*root)/(L*root) halvings, top*2^-s along its chords
    between s = 0, 1, ..., ceil(H) - 1 and H, where it reaches
    min(top, 1/h_floor), which it keeps from there to the far edge
    d = -width; 0 past that edge."""
    reach = math.sqrt(2.0 * profile_bvp._SHOCK_EFOLDS) * root
    depth = profile_bvp._CORNER_DEPTH * root
    floor = min(top, 1.0 / profile_bvp._FAN_FLOOR)
    big_h = math.log2(top / floor)
    s = np.maximum((-d - depth) / (profile_bvp._CORNER_HALVING * root), 0.0)
    j = np.minimum(np.floor(s), max(math.ceil(big_h) - 1, 0))
    nxt = np.minimum(j + 1.0, big_h)
    with np.errstate(divide="ignore", invalid="ignore"):
        chord = top * 0.5 ** j + (s - j) / (nxt - j) * (top * 0.5 ** nxt - top * 0.5 ** j)
    inside = np.where(s >= big_h, floor, chord)
    out = np.where(d > reach, taper_oracle(top, np.maximum(d - reach, 0.0)), inside)
    return np.where(d < -width, 0.0, out)


def mesh_density(problem, options, x):
    """Oracle: the layer-adapted node density at the points x, evaluated term
    by term from the wave list: min(today, max(1/h_base, r/eps, shocks,
    corners)), today = max(1/h_base, S/(c*eps)) with S(x) = max(M, x) -
    min(m, x), r the inviscid rate |f'(u) - x| (0 across the fan span), and
    one corner term per fan edge."""
    eps, flux = problem.epsilon, problem.flux
    c = 12.0 / float(options.nodes_per_layer)
    h_base = profile_bvp._H_BASE
    m, big_m = wf.derivative_range(flux, *problem.state_interval)

    def today(z):
        return np.maximum(1.0 / h_base, (np.maximum(big_m, z) - np.minimum(m, z)) / (c * eps))

    exact = wf.solve_exact(flux, problem.u_left, problem.u_right)
    slo, shi = riemann.wave_speed_span(exact)
    a_left = float(wf.derivative(flux, problem.u_left))
    a_right = float(wf.derivative(flux, problem.u_right))
    rate = np.where(x <= slo, a_left - x, np.where(x >= shi, x - a_right, 0.0))
    density = np.maximum(1.0 / h_base, rate / eps)
    for wave in exact.waves:
        if isinstance(wave, riemann.Shock):
            s = wave.speed
            reach = []
            for g in (float(wf.derivative(flux, wave.u_left)) - s,
                      s - float(wf.derivative(flux, wave.u_right))):
                # g*d + d^2/2 = efolds*eps
                reach.append(-g + math.sqrt(g * g + 2.0 * profile_bvp._SHOCK_EFOLDS * eps))
            lo, hi = s - reach[0], s + reach[1]
            top = float(max(today(np.array([lo, hi]))))
            outside = np.maximum(np.maximum(lo - x, x - hi), 0.0)
            density = np.maximum(density, taper_oracle(top, outside))
        elif isinstance(wave, riemann.RarefactionFan):
            root = math.sqrt(eps)
            top = 1.0 / (profile_bvp._FAN_SPACING * c * root)
            width = wave.xi_hi - wave.xi_lo
            density = np.maximum(density, corner_oracle(top, wave.xi_lo - x, root, width))
            density = np.maximum(density, corner_oracle(top, x - wave.xi_hi, root, width))
    return np.minimum(today(x), density)


def nodes_per_step(problem, options, mesh):
    """Oracle: the integral of the node density over each step of the mesh,
    by the trapezoid rule on the nodes and `build_mesh`'s knots, after
    checking that the density `build_mesh` uses is `mesh_density` at its
    knots and linear between them (equal to the oracle at a third and two
    thirds of each piece), so that the rule is exact."""
    _, _, centre, *sides = profile_bvp._node_density(problem, options)
    knots, values = [], []
    for sign, (y, rho) in zip((-1.0, 1.0), sides):
        x = centre + sign * y
        oracle = mesh_density(problem, options, x)
        np.testing.assert_allclose(rho, oracle, rtol=1e-12)
        for w in (1.0 / 3.0, 2.0 / 3.0):
            inside = (1.0 - w) * x[:-1] + w * x[1:]
            np.testing.assert_allclose((1.0 - w) * rho[:-1] + w * rho[1:],
                                       mesh_density(problem, options, inside), rtol=1e-9)
        knots.append(x)
        values.append(rho)
    grid, index = np.unique(np.concatenate([mesh, *knots]), return_index=True)
    density = np.concatenate([mesh_density(problem, options, mesh), *values])[index]
    cells = 0.5 * (density[1:] + density[:-1]) * np.diff(grid)
    return np.add.reduceat(cells, np.searchsorted(grid, mesh[:-1]))


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
    lo, hi = domain_of(prob, wf.SolveOptions(tail_tol=1e-12))
    assert lo == pytest.approx(-3.667, abs=5e-3)
    assert hi == pytest.approx(3.667, abs=5e-3)
    assert lo == -hi


def test_truncate_domain_shrinks_with_viscosity():
    wide = domain_of(make_problem(eps=0.2))
    tight = domain_of(make_problem(eps=0.05))
    assert wide[0] < tight[0] < tight[1] < wide[1]


def test_truncate_domain_constant_data_centres_on_speed():
    prob = make_problem(0.3, 0.3, 0.2)
    lo, hi = domain_of(prob)
    assert lo < 0.3 < hi
    assert (0.3 - lo) == pytest.approx(hi - 0.3, rel=1e-12)


def test_truncate_domain_rejects_bad_tolerance():
    for bad in (0.0, 1.0, -0.5, 2.0, math.nan):
        with pytest.raises(InvalidParameterError, match="tail_tol"):
            wf.SolveOptions(tail_tol=bad)


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
    mesh = wf.build_mesh(make_problem(), wf.SolveOptions(domain=(-1.25, 1.5)))
    assert mesh[0] == -1.25 and mesh[-1] == 1.5


def test_mesh_refines_with_layer_budget():
    prob = make_problem()
    coarse = wf.build_mesh(prob, options=wf.SolveOptions(nodes_per_layer=60))
    fine = wf.build_mesh(prob, options=wf.SolveOptions(nodes_per_layer=240))
    assert len(fine) > 2 * len(coarse)


def test_mesh_rejects_domain_missing_the_fan():
    with pytest.raises(InvalidParameterError,
                       match=r"domain \(-0.5, 2\) does not contain the wave fan \(-1, 1\)"):
        wf.build_mesh(make_problem(-1.0, 1.0), wf.SolveOptions(domain=(-0.5, 2.0)))


def test_mesh_rejects_malformed_domain():
    for dom in ((1.0, -1.0), (0.0, 0.0), (-np.inf, 2.0), (np.nan, 1.0)):
        with pytest.raises(InvalidParameterError, match="finite increasing pair"):
            wf.build_mesh(make_problem(), wf.SolveOptions(domain=dom))


def test_a_truncated_domain_out_of_doubles_is_a_coverage_error():
    # the pad sqrt(2*eps*ln(1/tail_tol)) overflows, or the range of f' does
    # (f' = 1e308*u on [-2, 2]), neither with a warning, or the pad rounds
    # away against the states, leaving a domain no wider than the fan; the
    # message names what the domain was computed from, not a given one
    steep = wf.parse_flux_token("poly:0,0,5e307")
    for prob in (make_problem(-1.0, 1.0, 1e308), make_problem(-2.0, 2.0, 0.01, flux=steep),
                 make_problem(1.0, 1.0, 5e-324), make_problem(1.0, 1.0, 1e-300),
                 make_problem(-1.0, 1.0, 1e-300)):
        with pytest.raises(CoverageError, match="tail_tol = 1e-05 for eps = .*not finite"):
            wf.build_mesh(prob)


def test_mesh_rejects_nonpositive_spacing():
    with pytest.raises(InvalidParameterError):
        wf.build_mesh(make_problem(), wf.SolveOptions(nodes_per_layer=0))


@pytest.mark.parametrize("option", [{"newton_tol": math.inf}, {"newton_tol": math.nan},
                                    {"nodes_per_layer": math.inf}],
                         ids=["newton_tol=inf", "newton_tol=nan", "nodes_per_layer=inf"])
def test_solve_options_reject_a_setting_that_certifies_nothing(option):
    # newton_tol = inf would accept the initial guess after 0 iterations
    with pytest.raises(InvalidParameterError):
        wf.SolveOptions(**option)


CUBIC = wf.polynomial_flux((0.0, 0.0, 0.0, 1.0))
STEEP = wf.polynomial_flux((0.0, 0.0, 50.0))


MESH_CASES = [
    (make_problem(1.0, -1.0, 0.05), None),                  # Burgers shock
    (make_problem(-1.0, 1.0, 0.01), None),                  # Burgers rarefaction
    (make_problem(-1.0, 1.0, 0.002, flux=CUBIC), None),     # cubic composite
    (make_problem(1.0, -1.0, 0.01, flux=CUBIC), None),
    (make_problem(-1.0, 1.0, 1.0), None),                   # h_base on the fan
    (make_problem(-1.0, 1.0, 9.0, flux=STEEP), None),       # corner top below the floor
    (make_problem(-0.3, 0.3, 0.01), None),                  # far edge cuts the halvings
    (make_problem(0.0, 1.0, 0.01, flux=CUBIC), None),       # inflection edge
    (make_problem(0.0, 0.05, 0.05), None),                  # h_base, small jump
    (make_problem(0.4, 0.4, 0.05), None),                   # constant data, m == M
    (make_problem(1.0, -1.0, 0.05), (-1.25, 1.5)),          # domain override
    (make_problem(-0.2, 0.2, 0.01), (-0.5, 3.0)),           # centre beyond the fan
]


@pytest.mark.parametrize("problem, domain", MESH_CASES)
def test_mesh_count_is_at_most_scalar_march(problem, domain):
    # the density is capped by the march's spacing rule, so the mesh has at
    # most one node more per side than the march
    opts = wf.SolveOptions(domain=domain)
    assert len(wf.build_mesh(problem, opts)) <= len(scalar_mesh_oracle(problem, opts)) + 2


@pytest.mark.parametrize("problem, domain", MESH_CASES)
def test_mesh_equidistributes_the_node_density(problem, domain):
    opts = wf.SolveOptions(domain=domain)
    mesh = wf.build_mesh(problem, opts)
    held = nodes_per_step(problem, opts, mesh)
    centre = int(np.flatnonzero(mesh == 0.5 * (mesh[0] + mesh[-1]))[0])
    inner = np.concatenate((held[1:centre], held[centre:-1]))
    assert np.max(np.abs(inner - 1.0)) <= 1e-9
    # the last step of each side absorbs a sliver of less than 0.3 of a node
    for last in (held[0], held[-1]):
        assert 0.3 - 1e-9 <= last < 1.3 + 1e-9


QUARTIC = wf.polynomial_flux((0.0, 0.0, -1.0, 0.0, 1.0))
FLUXES = {"burgers": wf.burgers_flux(), "cubic": CUBIC, "quartic": QUARTIC}
# {burgers, cubic, quartic} x both ways x eps
GRID_42 = [(name, ul, -ul, eps) for name in FLUXES for ul in (1.0, -1.0)
           for eps in (5e-2, 2e-2, 1e-2, 5e-3, 2e-3, 1e-3, 5e-4)]


@pytest.mark.parametrize("name, ul, ur, eps", GRID_42)
def test_mesh_neighbour_steps_are_graded(name, ul, ur, eps):
    # each side's last step holds [0.3, 1.3) of a node by the sliver rule,
    # so up to 1/0.3 of its neighbour; every other pair is graded
    mesh = wf.build_mesh(make_problem(ul, ur, eps, FLUXES[name]))
    d = np.diff(mesh)[1:-1]
    assert np.max(np.maximum(d[1:] / d[:-1], d[:-1] / d[1:])) < 2.5


@pytest.mark.parametrize("problem, domain", [
    (make_problem(-1.0, 1.0, 0.01), None),           # sides end in the tails
    (make_problem(1.0, -1.0, 0.01), (-0.5, 0.5)),    # sides end on the fan
])
def test_mesh_node_cap_is_one_count(monkeypatch, problem, domain):
    opts = wf.SolveOptions(domain=domain)
    full = wf.build_mesh(problem, opts)
    monkeypatch.setattr(profile_bvp, "_MAX_NODES", len(full))
    assert np.array_equal(wf.build_mesh(problem, opts), full)
    monkeypatch.setattr(profile_bvp, "_MAX_NODES", len(full) - 1)
    with pytest.raises(CoverageError, match=r"^mesh exceeds %d nodes: viscosity eps = 0\.01 "
                       r"asks for %d; change eps, tail_tol \(--tail-tol\) or nodes_per_layer$"
                       % (len(full) - 1, len(full))):
        wf.build_mesh(problem, opts)


def test_mesh_fan_count_stops_growing_as_viscosity_falls():
    # fine spacing only in the corners, whose node counts do not depend on
    # eps, and the floor spacing across the fan interior
    counts = [len(wf.build_mesh(make_problem(-1.0, 1.0, eps))) for eps in (5e-3, 5e-4, 1e-6)]
    assert max(counts) <= 1.1 * min(counts)


def test_graded_fan_keeps_the_inflection_edge_accurate():
    # the cubic 0 -> 1 fan starts at an inflection point, where the
    # sqrt(eps) corner scaling fails and the floor spacing sets the error in
    # the fan; the bound is twice the 6.5e-8 that a uniform fan spacing of
    # 0.035*c*sqrt(eps) gives against the same 4x finer solve
    prob = make_problem(0.0, 1.0, 1e-2, flux=CUBIC)
    coarse, _ = wf.solve_profile(prob)
    fine, _ = wf.solve_profile(prob, wf.SolveOptions(nodes_per_layer=480))
    assert np.max(np.abs(CubicSpline(fine.xi, fine.u)(coarse.xi) - coarse.u)) <= 1.3e-7


def test_a_fan_edge_that_meets_a_shock_has_the_shock_terms_reach():
    # the cubic -1 -> 1 is a shock to 1/2 and a fan from there; the corner
    # at the shared edge keeps its layer spacing out to sqrt(80*eps), the
    # sonic shock side's reach (a reach of 28*sqrt(eps) gives 12,258 nodes),
    # and the sup error against a 4x finer solve stays at 5.97e-3
    prob = make_problem(-1.0, 1.0, 0.005, flux=CUBIC)
    coarse, _ = wf.solve_profile(prob)
    fine, _ = wf.solve_profile(prob, wf.SolveOptions(nodes_per_layer=480))
    assert len(coarse.xi) <= 10_463
    err = np.max(np.abs(CubicSpline(fine.xi, fine.u)(coarse.xi) - coarse.u))
    assert abs(err / 5.97297e-3 - 1.0) <= 1e-3


def test_mesh_rejects_an_infinite_fan_density():
    # c*sqrt(eps) underflows to a subnormal, so the corners' density is inf
    with pytest.raises(CoverageError, match="mesh exceeds"):
        wf.build_mesh(make_problem(-1.0, 1.0, 1e-10), wf.SolveOptions(nodes_per_layer=10**305))


@pytest.mark.parametrize("eps", [5e-324, 1e-300])
def test_mesh_rejects_underflowing_spacing(eps):
    # c*eps is 0 at 5e-324 and 1e-301 at 1e-300: the node count is inf or
    # about 1e302, and no node is placed
    with pytest.raises(CoverageError, match="mesh exceeds"):
        wf.build_mesh(make_problem(1.0, -1.0, eps))


@pytest.mark.parametrize("ul, ur, flux", [(1.0, -1.0, None), (-1.0, 1.0, None),
                                          (-1.0, 1.0, CUBIC)])
def test_a_layer_reach_out_of_doubles_names_the_viscosity(ul, ur, flux):
    # 2*40*eps overflows above eps = 2.2e306, so the shock zone's and the
    # corner's reach would be inf/inf; just below, the mesh is the coarse one
    opts = wf.SolveOptions(domain=(-5.0, 5.0))
    with pytest.raises(CoverageError, match=r"reach of viscosity eps = 3e\+306 overflows"):
        wf.build_mesh(make_problem(ul, ur, 3e306, flux=flux), opts)
    mesh = wf.build_mesh(make_problem(ul, ur, 2e306, flux=flux), opts)
    assert len(mesh) == 201 and np.all(np.isfinite(mesh))


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
    speed = divided_difference(flux.coefficients, lo, q)
    layer = profile_bvp._shock_layer(flux, wf.Shock(speed, lo, q))
    assume(layer is not None)
    half = 1.0 / math.sqrt(eps)
    def mu(d):
        return layer._mass(half - d) - layer._mass(-half - d) + min(max(d, -half), half)

    assert mu(-half) < 0.0 < mu(half)       # the bracket the root search starts from
    d = layer.centre_offset(half)
    assert abs(mu(d)) <= 1e-12 * half
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


def node_noise_oracle(problem, profile, a=0.0):
    """Oracle: the residual's roundoff at each interior node from freshly
    computed mesh differences, with f'(u) - xi raised by the offset a."""
    xi, u = profile.xi, profile.u
    hm = xi[1:-1] - xi[:-2]
    hp = xi[2:] - xi[1:-1]
    uscale = np.maximum(np.abs(u[1:-1]), np.maximum(np.abs(u[:-2]), np.abs(u[2:])))
    c = np.abs(wf.derivative(problem.flux, u[1:-1]) - xi[1:-1]) + np.abs(a)
    level = 2.0 * problem.epsilon * uscale / (hm * hp) \
        + c * uscale * (1.0 / hm + 1.0 / hp)
    return 4.0 * float(np.finfo(float).eps) * level


def noise_floor_oracle(problem, profile):
    """Oracle: the residual's roundoff level, the largest node's."""
    return float(np.max(node_noise_oracle(problem, profile)))


def d1_oracle(profile):
    """Oracle: the central slope D1(u) at the interior nodes, written out."""
    xi, u = profile.xi, profile.u
    hm = xi[1:-1] - xi[:-2]
    hp = xi[2:] - xi[1:-1]
    sm = (u[1:-1] - u[:-2]) / hm
    sp = (u[2:] - u[1:-1]) / hp
    return (hm * sp + hp * sm) / (hm + hp)


@pytest.mark.parametrize("flux", ["burgers", "poly:0,0,0,1", "poly:0,0,-1,0,1"])
@pytest.mark.parametrize("ul", [1.0, -1.0])
def test_offset_residual_is_minus_the_translate_defect_bitwise(flux, ul):
    # the offset a raises f'(u) - xi, and a*D1(u) is subtracted on its own,
    # so minus the offset residual is a*D1 - r to the last bit, for the slid
    # translate's scalar a and the sweeping family's a per node
    prob = wf.ProfileProblem(wf.parse_flux_token(flux), ul, -ul, 0.05)
    prof, _ = wf.solve_profile(prob)
    lam, u_in = 0.1, prof.u[1:-1]
    big_k = wf.lipschitz_of_derivative(prob.flux, *prob.state_interval)
    sweep = (wf.derivative(prob.flux, u_in + lam) - wf.derivative(prob.flux, u_in)
             - 2.0 * big_k * lam)
    r = wf.residual(prob, prof)
    assert np.array_equal(wf.residual(prob, prof, offset=0.0), r)
    for a in (lam, sweep):
        work = profile_bvp._Workspace(prof.xi)
        got = wf.residual(prob, prof, work, offset=a)
        assert np.array_equal(-got[1:-1], a * d1_oracle(prof) - r[1:-1])
        assert (got[0], got[-1]) == (r[0], r[-1])
        # the workspace keeps f'(u) - xi without the offset, for the Jacobian
        assert np.array_equal(work.c, wf.derivative(prob.flux, u_in) - prof.xi[1:-1])
        assert np.array_equal(wf.residual_noise(prob, prof, offset=a),
                              node_noise_oracle(prob, prof, a))


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
    real = profile_bvp.residual_noise

    def counting(*args):
        calls.append(len(args[1].u))
        return real(*args)

    monkeypatch.setattr(profile_bvp, "residual_noise", counting)
    prob = wf.ProfileProblem(wf.parse_flux_token("poly:0,0,0,1"), -1.0, 1.0, 2e-3)
    guess = wf.initial_guess(prob, wf.build_mesh(prob))
    _, report = wf.newton_solve(prob, guess)
    assert report.converged and report.floor_limited
    assert len(calls) == 1


def test_newton_non_finite_system_is_a_rejected_step():
    # f'(1e200) overflows, so the first Newton system is not finite: its
    # NaN trial is evaluated and rejected like any other step
    prob = wf.ProfileProblem(wf.parse_flux_token("poly:0,0,0,1"), -1.0, 1.0, 0.05)
    xi = np.linspace(-3.0, 3.0, 50)
    u = np.linspace(-1.0, 1.0, 50)
    u[20] = 1e200
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonConvergenceError) as exc:
        wf.newton_solve(prob, wf.Profile(xi, u))
    report = exc.value.report
    assert not report.converged and report.iterations == 1
    assert report.residual_history == (math.inf,)


@pytest.mark.parametrize("token,huge", [
    ("burgers", 1e20), ("poly:0,0,0,1", 1e104), ("poly:0,0,-1,0,1", 1e200)])
def test_newton_certifies_no_iterate_out_of_reach(token, huge):
    # the roundoff floor scales with |u|*|f'(u)|, so a guess with one huge
    # node can stall at a residual under its own floor (the Burgers and
    # cubic cases were reported converged and floor-limited, at max|u|
    # 3.4e13 and 1e104); only an iterate in the flow's bound is certified
    prob = wf.ProfileProblem(wf.parse_flux_token(token), -1.0, 1.0, 0.05)
    xi = np.linspace(-3.0, 3.0, 50)
    u = np.linspace(-1.0, 1.0, 50)
    u[20] = huge
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonConvergenceError):
        wf.newton_solve(prob, wf.Profile(xi, u))
    assert profile_bvp._in_reach(prob, np.linspace(-2.0, 2.0, 5))
    for bad in (np.nextafter(2.0, 3.0), -np.nextafter(2.0, 3.0), np.inf, np.nan):
        assert not profile_bvp._in_reach(prob, np.array([0.0, bad]))


def reference_newton(problem, guess, opts):
    """Oracle: the full-step Newton loop with fresh arrays for every evaluation."""
    xi, u = guess.xi, guess.u.copy()
    r = wf.residual(problem, wf.Profile(xi, u))
    history = [float(np.max(np.abs(r)))]
    while history[-1] > opts.newton_tol and len(history) <= profile_bvp._MAX_ITER:
        step = solve_banded((1, 1), wf.jacobian(problem, wf.Profile(xi, u)), -r)
        step[0], step[-1] = -r[0], -r[-1]
        trial = u + step
        rt = wf.residual(problem, wf.Profile(xi, trial))
        nt = float(np.max(np.abs(rt)))
        if not (nt <= (1.0 - profile_bvp._ARMIJO) * history[-1] or nt <= opts.newton_tol):
            break
        u, r = trial, rt
        history.append(nt)
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
    # solve; that one trial is the last residual evaluated
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


def test_newton_failure_carries_partial_report(monkeypatch):
    prob = make_problem(1.0, -1.0, 0.05)
    mesh = wf.build_mesh(prob)
    guess = wf.initial_guess(prob, mesh)
    monkeypatch.setattr(profile_bvp, "_MAX_ITER", 1)
    with pytest.raises(NonConvergenceError) as exc:
        wf.newton_solve(prob, guess)
    report = exc.value.report
    assert report is not None and not report.converged
    assert report.iterations == 1
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


# {burgers, cubic, quartic} x both ways x eps
DMP_CASES = [(name, ul, -ul, eps)
             for name in FLUXES for ul in (1.0, -1.0) for eps in (5e-2, 5e-3, 5e-4)]


@pytest.mark.parametrize("name, ul, ur, eps", DMP_CASES)
def test_converged_profiles_keep_the_discrete_maximum_principle(name, ul, ur, eps):
    # cell Peclet number |f'(u_i) - xi_i|*max(hm, hp)/(2*eps) <= 1 makes both
    # off-diagonals of each Jacobian row nonnegative (an M-matrix up to sign)
    problem = make_problem(ul, ur, eps, FLUXES[name])
    profile, _ = wf.solve_profile(problem)
    h = np.diff(profile.xi)
    rate = np.abs(wf.derivative(problem.flux, profile.u[1:-1]) - profile.xi[1:-1])
    assert np.max(rate * np.maximum(h[:-1], h[1:]) / (2.0 * eps)) <= 1.0
    band = wf.jacobian(problem, profile)
    assert np.min(band[0, 2:]) >= 0.0 and np.min(band[2, :-2]) >= 0.0


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
# the Dafermos-flow fallback

HALVING = tuple(0.5 ** k for k in range(7)) + (0.01,)


def damped_newton(problem, guess, tol):
    """Reference: Newton with an Armijo line search (sufficient decrease
    1e-4, step halved up to 30 times), fresh arrays for every evaluation; a
    rejected full step at the residual's roundoff floor ends it converged.
    The continuation needs the damping: with full steps only, Newton
    stalls at eps = 0.125 on the cubic (both ways) and at eps = 0.25 on the
    quartic shock."""
    xi, u = guess.xi, guess.u.copy()
    r = wf.residual(problem, wf.Profile(xi, u))
    norm = float(np.max(np.abs(r)))
    for _ in range(25):
        if norm <= tol:
            break
        step = solve_banded((1, 1), wf.jacobian(problem, wf.Profile(xi, u)), -r)
        step[0], step[-1] = -r[0], -r[-1]
        for lam in 0.5 ** np.arange(31):
            trial = u + lam * step
            rt = wf.residual(problem, wf.Profile(xi, trial))
            nt = float(np.max(np.abs(rt)))
            if nt <= (1.0 - 1e-4 * lam) * norm or nt <= tol:
                u, r, norm = trial, rt, nt
                break
            if lam == 1.0 and norm <= wf.residual_noise_floor(problem, wf.Profile(xi, u)):
                return wf.Profile(xi, u)
        else:
            break
    assert norm <= tol or norm <= wf.residual_noise_floor(problem, wf.Profile(xi, u))
    return wf.Profile(xi, u)


def halving_chain(problem):
    """Reference: damped Newton at each viscosity of HALVING in turn, each
    on its own mesh from the previous stage linearly interpolated (ends
    pinned to the data), the intermediate stages to 1e-8."""
    opts = wf.SolveOptions()
    profile = None
    for eps in HALVING:
        stage = dataclasses.replace(problem, epsilon=eps)
        mesh = wf.build_mesh(stage, opts)
        if profile is None:
            guess = wf.initial_guess(stage, mesh)
        else:
            u0 = np.interp(mesh, profile.xi, profile.u)
            u0[0], u0[-1] = stage.u_left, stage.u_right
            guess = wf.Profile(mesh, u0)
        tol = opts.newton_tol if eps == HALVING[-1] else 1e-8
        profile = damped_newton(stage, guess, tol)
    return profile


@pytest.mark.parametrize("token", ["burgers", "poly:0,0,0,1", "poly:0,0,-1,0,1"])
@pytest.mark.parametrize("ul, ur", [(1.0, -1.0), (-1.0, 1.0)])
def test_target_first_solve_matches_halving_continuation(token, ul, ur):
    prob = wf.ProfileProblem(wf.parse_flux_token(token), ul, ur, HALVING[-1])
    direct, report = wf.solve_profile(prob)
    halved = halving_chain(prob)
    # the quartic shock has no travelling wave to start from (see
    # test_quartic_shock_below_2e3_takes_the_flow); its first full step fails
    assert report.stages == (2 if (token, ul) == ("poly:0,0,-1,0,1", 1.0) else 1)
    assert np.array_equal(direct.xi, halved.xi)
    assert np.max(np.abs(direct.u - halved.u)) <= 1e-9


def test_quartic_shock_solves_at_default_settings(tmp_path, capsys):
    # no travelling wave to start from: Newton's second full step from the
    # mollified jump fails, and the flow hands it an iterate it finishes
    report = tmp_path / "report.json"
    assert wf.cli_io.main(["solve", "--flux", "poly:0,0,-1,0,1", "--ul", "1", "--ur", "-1",
                           "--eps", "0.002", "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["converged"] and payload["stages"] == 2


def test_quartic_shock_below_2e3_takes_the_flow():
    # the chord touches f at the sonic state 0, so this shock has no
    # travelling wave and Newton from the mollified jump fails at 1e-3
    prob = wf.ProfileProblem(wf.parse_flux_token("poly:0,0,-1,0,1"), 1.0, -1.0, 1e-3)
    profile, report = wf.solve_profile(prob)
    assert report.converged and report.stages == 2
    # the failed attempt ends at its first rejected full step (2 iterations,
    # then 6 after the flow), not after all _MAX_ITER
    assert report.iterations < profile_bvp._MAX_ITER
    assert np.all(np.diff(profile.u) <= 0.0)


@pytest.mark.parametrize("eps, flux", [(5e-3, None), (1e-3, QUARTIC)])
def test_a_newton_iteration_evaluates_one_residual(monkeypatch, eps, flux):
    # the guess's residual, then one trial per iteration, accepted or not;
    # the quartic shock's first attempt raises at its first rejected full step
    calls = []
    real = profile_bvp.residual

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    prob = make_problem(1.0, -1.0, eps, flux)
    guess = wf.initial_guess(prob, wf.build_mesh(prob))
    monkeypatch.setattr(profile_bvp, "residual", counting)
    if flux is None:
        _, report = wf.newton_solve(prob, guess)
        assert report.converged
    else:
        with pytest.raises(NonConvergenceError) as exc:
            wf.newton_solve(prob, guess)
        report = exc.value.report
        assert report.iterations == 2 and len(report.residual_history) == 2
    assert len(calls) == 1 + report.iterations


def failing_attempts(monkeypatch, fails):
    """Replaces profile_bvp.newton_solve with one whose first `fails`
    attempts raise NonConvergenceError (each after 3 iterations), and
    profile_bvp.dafermos_flow with a counting one; returns the lists of
    Newton attempts (their viscosities) and flows."""
    attempts, flows = [], []
    real_newton, real_flow = profile_bvp.newton_solve, profile_bvp.dafermos_flow

    def flaky(stage, guess, opts=None):
        attempts.append(stage.epsilon)
        if len(attempts) > fails:
            return real_newton(stage, guess, opts)
        report = profile_bvp.SolveReport(False, 3, (1.0,), (guess.xi[0], guess.xi[-1]),
                                         len(guess.xi))
        raise NonConvergenceError("stalled", report=report)

    def counted(problem, guess):
        flows.append(problem.epsilon)
        return real_flow(problem, guess)

    monkeypatch.setattr(profile_bvp, "newton_solve", flaky)
    monkeypatch.setattr(profile_bvp, "dafermos_flow", counted)
    return attempts, flows


@pytest.mark.parametrize("ul, ur, flux", [(1.0, -1.0, None), (-1.0, 1.0, CUBIC)])
def test_forced_flow_matches_the_direct_solve(monkeypatch, ul, ur, flux):
    prob = make_problem(ul, ur, 0.01, flux)
    direct, direct_report = wf.solve_profile(prob)
    guess = wf.initial_guess(prob, wf.build_mesh(prob))
    flowed, flowed_report = wf.newton_solve(prob, profile_bvp.dafermos_flow(prob, guess))
    attempts, flows = failing_attempts(monkeypatch, 1)
    profile, report = wf.solve_profile(prob)
    assert attempts == [0.01, 0.01] and flows == [0.01]
    assert direct_report.stages == 1
    assert report == dataclasses.replace(flowed_report, stages=2,
                                         iterations=3 + flowed_report.iterations)
    assert np.array_equal(profile.u, flowed.u)
    assert np.array_equal(profile.xi, direct.xi)
    assert np.max(np.abs(profile.u - direct.u)) <= 1e-12


@pytest.mark.parametrize("fails", [2, 10 ** 6])
def test_double_failure_raises_after_one_flow(monkeypatch, fails):
    attempts, flows = failing_attempts(monkeypatch, fails)
    with pytest.raises(NonConvergenceError) as exc:
        wf.solve_profile(make_problem(1.0, -1.0, 0.01))
    assert attempts == [0.01, 0.01] and flows == [0.01]
    assert isinstance(exc.value.report, wf.SolveReport)


def test_flow_past_its_step_cap_raises_with_a_report(monkeypatch):
    monkeypatch.setattr(profile_bvp, "_FLOW_STEPS", 2)
    attempts, _ = failing_attempts(monkeypatch, 1)
    prob = make_problem(1.0, -1.0, 0.01)
    with pytest.raises(NonConvergenceError) as exc:
        wf.solve_profile(prob)
    assert attempts == [0.01]
    report = exc.value.report
    assert not report.converged and report.iterations == 0
    assert len(report.residual_history) == 3 and report.residual_norm > 1e-3
    assert report.mesh_size == len(wf.build_mesh(prob))


def test_a_singular_band_gives_a_nan_step_and_ends_newton(monkeypatch):
    # the banded solver's LinAlgError is a NaN step with the exact boundary
    # entries, which Newton rejects like any other after one iteration
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(profile_bvp, "solve_banded", singular)
    prob = make_problem(1.0, -1.0, 0.05)
    guess = wf.initial_guess(prob, wf.build_mesh(prob))
    u = guess.u.copy()
    u[0] += 0.25
    work = profile_bvp._Workspace(guess.xi)
    r = wf.residual(prob, wf.Profile(guess.xi, u), work)
    step = profile_bvp._linear_step(prob, u, r, work)
    assert np.all(np.isnan(step[1:-1]))
    assert (step[0], step[-1]) == (-r[0], -r[-1])
    with pytest.raises(NonConvergenceError) as info:
        wf.newton_solve(prob, guess)
    assert info.value.report.iterations == 1 and not info.value.report.converged


@pytest.mark.parametrize("ul, ur, eps, flux", [(1.0, -1.0, 0.01, None), (-1.0, 1.0, 0.01, None),
                                               (-1.0, 1.0, 5e-3, CUBIC)])
def test_solve_banded_is_scipys_tridiagonal_solve_bitwise(ul, ur, eps, flux):
    # the Newton band at the guess and after one step, and the flow's band
    # shifted by 1/dt: the same dgtsv call as scipy's solve_banded((1, 1))
    prob = make_problem(ul, ur, eps, flux=flux)
    guess = wf.initial_guess(prob, wf.build_mesh(prob))
    work = profile_bvp._Workspace(guess.xi)
    u = guess.u
    for shift in (0.0, 0.0, 1.0 / profile_bvp._FLOW_DT):
        r = wf.residual(prob, wf.Profile(guess.xi, u), work)
        ab = profile_bvp._jacobian_band(prob, u, work)
        ab[1, 1:-1] -= shift
        expect = solve_banded((1, 1), ab, -r)
        x = profile_bvp.solve_banded(ab.copy(), -r)
        assert np.array_equal(x, expect)
        u = u + x


def test_solve_banded_raises_on_a_singular_band():
    # an identity band with its row 2 zeroed; scipy raises the same error
    ab = np.zeros((3, 6))
    ab[1] = 1.0
    ab[1, 2] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        solve_banded((1, 1), ab, np.ones(6))
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        profile_bvp.solve_banded(ab, np.ones(6))


_ROUTE = """
import hashlib, importlib.machinery, sys
{before}
import wavefan as wf
loaded = 'scipy.linalg' in sys.modules
{after}
from wavefan import profile_bvp
from scipy.linalg.lapack import dgtsv
assert profile_bvp._DGTSV is dgtsv
profile, _ = wf.solve_profile(wf.ProfileProblem(wf.burgers_flux(), 1.0, -1.0, 0.01))
print(loaded, hashlib.sha256(profile.u.tobytes()).hexdigest())
"""


@pytest.mark.parametrize("before, after, loaded", [
    ("", "import scipy.linalg", False),                   # the extension on its own
    ("import scipy.linalg", "", True),                    # scipy.linalg already there
    ("importlib.machinery.EXTENSION_SUFFIXES = ['.missing']", "", True),   # file not found
])
def test_both_routes_to_dgtsv_give_the_same_solve(before, after, loaded):
    # in a fresh interpreter, wavefan loads scipy's dgtsv without scipy.linalg,
    # or takes it from scipy.linalg.lapack: the same function, so the same
    # profile to the bit, whichever module is imported first
    profile, _ = wf.solve_profile(make_problem(1.0, -1.0, 0.01))
    src = os.path.dirname(os.path.dirname(wf.__file__))
    out = subprocess.run([sys.executable, "-c", _ROUTE.format(before=before, after=after)],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.split() == [str(loaded), hashlib.sha256(profile.u.tobytes()).hexdigest()]


@pytest.mark.parametrize("spoil", [lambda d: d * np.nan, lambda d: d + 10.0])
def test_flow_rejects_a_bad_step_and_cuts_dt(monkeypatch, spoil):
    # the first step is spoiled (not finite, or past the states' interval
    # widened by half its length); each later one is accepted, dt growing 1.5x
    shifts = []
    real = profile_bvp._linear_step

    def spy(problem, u, r, work, shift=0.0):
        shifts.append(shift)
        step = real(problem, u, r, work, shift)
        return spoil(step) if len(shifts) == 1 else step

    monkeypatch.setattr(profile_bvp, "_linear_step", spy)
    prob = wf.ProfileProblem(QUARTIC, 1.0, -1.0, 1e-3)
    flowed = profile_bvp.dafermos_flow(prob, wf.initial_guess(prob, wf.build_mesh(prob)))
    assert shifts[0] == 1.0 / profile_bvp._FLOW_DT
    assert shifts[1] == 4.0 * shifts[0]
    assert all(b == pytest.approx(a / 1.5, rel=1e-14) for a, b in zip(shifts[1:], shifts[2:]))
    assert np.max(np.abs(wf.residual(prob, flowed))) <= 1e-3 < np.max(
        np.abs(wf.residual(prob, wf.initial_guess(prob, flowed.xi))))


def test_profiles_sharpen_as_viscosity_falls():
    opts = wf.SolveOptions(domain=(-1.5, 1.5))
    slopes = [float(np.min(wf.solve_profile(make_problem(1.0, -1.0, eps), opts)[0].du))
              for eps in (0.1, 0.05)]
    assert slopes[1] < slopes[0] < 0.0  # steeper interior layer at smaller eps


def test_solve_profile_reconstructs_the_slope_once(slope_calls, monkeypatch):
    # Newton fails, then the flow and Newton solve
    attempts, flows = failing_attempts(monkeypatch, 1)
    profile, report = wf.solve_profile(make_problem(-1.0, 1.0, 0.01))
    assert attempts == [0.01, 0.01] and flows == [0.01] and report.stages == 2
    assert slope_calls == [len(profile.xi)]
    assert np.array_equal(profile.du, wf.reconstruct_derivative(profile.xi, profile.u))
    assert len(slope_calls) == 1      # read again: carried, not recomputed


def test_probe_never_reconstructs_slopes(slope_calls):
    result = wf.uniqueness_probe(make_problem(-1.0, 1.0, 0.05), n_guesses=3)
    assert result.n_converged >= 2
    assert slope_calls == []


def test_profile_slope_is_lazy_unless_given(slope_calls):
    # a profile carries the slope it was given, and no other
    xi = np.linspace(-1.0, 1.0, 9)
    given = np.full(9, 7.0)
    assert wf.Profile(xi, xi ** 2, given).du is given
    assert slope_calls == []
    bare = wf.Profile(xi, xi ** 2)
    assert bare.du is None and slope_calls == []
    with pytest.raises(dataclasses.FrozenInstanceError):
        bare.u = xi


def test_problem_validation():
    with pytest.raises(InvalidParameterError):
        wf.ProfileProblem(wf.burgers_flux(), np.nan, 0.0, 0.1)
    with pytest.raises(InvalidParameterError):
        wf.ProfileProblem(wf.burgers_flux(), 0.0, 1.0, 0.0)
    with pytest.raises(InvalidParameterError):
        wf.ProfileProblem(wf.burgers_flux(), 0.0, 1.0, -0.1)
