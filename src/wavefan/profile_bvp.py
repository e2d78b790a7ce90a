"""Two-point boundary value solver for self-similar viscous profiles.

The profile u(xi) solves

    eps * u'' = (f'(u) - xi) * u',     u(-inf) = u_left,  u(+inf) = u_right,

which connects the constant states through a smoothed copy of the inviscid
wave fan. The problem is discretized on a finite interval with a graded mesh
and solved by Newton's method, full steps only, on the nonlinear
divided-difference residual; the self-similar Dafermos flow globalizes it.

Mesh design: the profile has two inner scales, the shock layers of width
eps/(speed gap) and the sqrt(eps)-wide corners at the fan edges, and is flat
to roundoff elsewhere. The node density 1/h is therefore built from the
exact wave list of `solve_exact` (a layer-adapted mesh: Linss,
Layer-Adapted Meshes for Reaction-Convection-Diffusion Problems, LNM 1985,
2010): the layer spacing c * eps / S(xi) inside each shock's layer, where
S(xi) bounds |f'(u) - xi| over the states; a sqrt(eps)-scaled spacing in
the corner layers at each fan edge, coarsening geometrically into the fan
down to a floor spacing there; and elsewhere the spacing
eps / |f'(u) - xi| of the inviscid solution, which holds the cell Peclet
number at 1/2, inside the bound |f'(u) - xi| * h <= 2 * eps under which the
central scheme's Jacobian is an M-matrix and keeps a discrete maximum
principle (Roos, Stynes & Tobiska, Robust Numerical Methods for Singularly
Perturbed Differential Equations, Springer 2008). The density is capped by
the layer spacing's everywhere, so no mesh has more nodes than one of that
spacing alone. The mesh equidistributes it outward from the domain centre:
each step holds exactly one node. The density is piecewise linear in the distance
from the centre, so the node count is piecewise quadratic and every node is
one closed-form root, computed for all nodes at once; the count, and with
it the node cap, is known before any node is placed. For data symmetric
under (xi, u) -> (-xi, -u) both sides use the same numbers in the distance
and produce bitwise mirror-image nodes, so the discrete problem inherits
the symmetry exactly instead of up to interpolation error.

Newton starts at the target viscosity from the profile's asymptotics: at
each shock its viscous travelling wave, eps*U' = f(U) - f(u_L) - s*(U - u_L),
integrated once per shock on nodes clustered at both roots and centred so
that it carries no mass against the jump over a sqrt(eps) window (the
viscous and inviscid profiles have equal integrals); elsewhere the inviscid
solution itself, at the nodes. A shock whose g vanishes between its states
has no travelling wave and keeps its inviscid jump. Newton takes only
full steps and stops at the first one that does not lower the residual.
If the residual is then at its roundoff floor, at an iterate inside the
flow's bound on the states, the solve has converged; otherwise the start
was too far off, and the self-similar Dafermos flow (`dafermos_flow`)
runs from the same guess on the same mesh until Newton can finish. The
central three-point scheme has one home, the class `_Central`: the
residual, its roundoff, the Jacobian and the linear step, on one mesh
with its differences computed once and its scratch arrays reused. Each
Newton solve and each flow keeps one, evaluates one
residual per iteration and builds each Jacobian from the slopes its
residual left there, so the iterations allocate almost no fresh memory;
setting another class in its place swaps the discretization for the
solve, the flow, the noise floor and the margins at once. The roundoff
floor is a pass over every node; Newton checks it once per solve, at
the last iterate, and only when that iterate is in reach and short of
the tolerance.

Derivatives along a computed profile are reconstructed with fourth-order
five-point stencils; second-order differences leave an O(h^2) bias in the
slope that is far too large for the first-integral and comparison checks
downstream. The stencil weights are the closed-form derivatives of the
Lagrange basis, one kernel for all nodes; every node but the four at the
ends has the same window shape, so its stencil columns are shifted slices
of the mesh and profile arrays. Newton never reads a slope, so its iterates
carry none; `solve_profile` computes it once for the profile it returns.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import CoverageError, InvalidParameterError, NonConvergenceError
from .flux import (FluxSpec, _interior_critical_points, derivative, derivative_range,
                   divided_difference, second_derivative)
from .riemann import RarefactionFan, Shock, eval_riemann, solve_exact, wave_speed_span

_MAX_NODES = 400_000
_EPS_MACH = float(np.finfo(float).eps)
_ARMIJO = 1e-4
_MAX_ITER = 25           # Newton iterations per solve
_H_BASE = 0.05           # coarsest mesh spacing
_SHOCK_EFOLDS = 40.0     # mesh density terms, see build_mesh
_PECLET = 0.5
_FAN_SPACING = 0.035
_CORNER_DEPTH = 4.0
_CORNER_HALVING = 2.0 * math.log(2.0)
_FAN_FLOOR = 0.004
_TAPER = 4.0
_FLOW_DT = 0.05          # see dafermos_flow
_FLOW_GROWTH = 1.5
_FLOW_CUT = 4.0
_FLOW_HANDOVER = 1e-3
_FLOW_STEPS = 100
_LAYER_DT = 1.0 / 16.0   # see _ShockLayer
_LAYER_T = _SHOCK_EFOLDS / 2.0
_CENTRE_WINDOW = 1.0     # in sqrt(eps), the corner scale; see initial_guess


@dataclass(frozen=True)
class ProfileProblem:
    flux: FluxSpec
    u_left: float
    u_right: float
    epsilon: float

    def __post_init__(self):
        if not (np.isfinite(self.u_left) and np.isfinite(self.u_right)):
            raise InvalidParameterError("boundary states must be finite")
        if not (np.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise InvalidParameterError("epsilon must be positive")

    @property
    def state_interval(self) -> tuple[float, float]:
        return (min(self.u_left, self.u_right), max(self.u_left, self.u_right))


@dataclass(frozen=True, eq=False)
class Profile:
    """Mesh nodes xi, profile values u, and slope du: as given, else None."""

    xi: np.ndarray
    u: np.ndarray
    du: np.ndarray | None = None


@dataclass(frozen=True)
class SolveOptions:
    newton_tol: float = 1e-11
    tail_tol: float = 1e-5
    nodes_per_layer: int = 120
    domain: tuple | None = None          # None: the range of f' padded (`_node_density`)

    def __post_init__(self):
        if not (math.isfinite(self.newton_tol) and self.newton_tol > 0.0):
            raise InvalidParameterError("newton_tol must be finite and positive")
        if not 0.0 < self.tail_tol < 1.0:
            raise InvalidParameterError("tail_tol must lie in (0, 1)")
        if not (math.isfinite(self.nodes_per_layer) and self.nodes_per_layer > 0):
            raise InvalidParameterError("nodes_per_layer must be positive")
        if self.domain is not None and not (
                len(self.domain) == 2 and np.all(np.isfinite(self.domain))
                and self.domain[0] < self.domain[1]):
            raise InvalidParameterError("domain must be a finite increasing pair")

    @property
    def layer_factor(self) -> float:
        """c = 12/nodes_per_layer: spacing c*eps/S puts nodes_per_layer nodes
        across a viscous layer (`build_mesh`)."""
        return 12.0 / float(self.nodes_per_layer)


@dataclass(frozen=True)
class SolveReport:
    converged: bool
    iterations: int
    residual_history: tuple
    domain: tuple
    mesh_size: int
    floor_limited: bool = False
    stages: int = 1

    @property
    def residual_norm(self) -> float:
        return self.residual_history[-1]


def _first(mask: np.ndarray) -> int:
    """Index of the first True entry of a 1-D mask, len(mask) if none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else len(mask)


def _falloff(top: float):
    """Distances t_j and values of a density falling off from `top` along
    the chords of top/(1 + top*t/_TAPER): it is top/2^j at t_j = _TAPER*(2^j
    - 1)/top, j = 0, 1, ..., down to the first j where it is below
    1/_H_BASE, under every other term."""
    halvings = np.arange(max(math.frexp(top * _H_BASE)[1], 0) + 1)
    return _TAPER * (2.0 ** halvings - 1.0) / top, top * 0.5 ** halvings


def _taper(zone_lo: float, zone_hi: float, top: float):
    """Knots (x, rho) of a density that is `top` on [zone_lo, zone_hi] and
    falls off outside it by `_falloff`."""
    reach, fall = _falloff(top)
    return (np.concatenate((zone_lo - reach[::-1], zone_hi + reach)),
            np.concatenate((fall[::-1], fall)))


def _reach(g: float, eps: float) -> float:
    """The distance d past a layer's edge at which its decay count
    (g*d + d^2/2)/eps reaches _SHOCK_EFOLDS, g >= 0 the gap of the
    characteristic speed there: the root in the form that does not cancel.
    The sonic case g = 0 gives sqrt(2*_SHOCK_EFOLDS*eps). Where
    2*_SHOCK_EFOLDS*eps overflows (eps above about 2.2e306) the root would
    be inf/inf, and CoverageError is raised."""
    depth = 2.0 * _SHOCK_EFOLDS * eps
    if not math.isfinite(depth):
        raise CoverageError("the layer reach of viscosity eps = %g overflows doubles "
                            "(2*%g*eps)" % (eps, _SHOCK_EFOLDS))
    return depth / (g + math.sqrt(g * g + depth))


def _corner(width: float, top: float, eps: float):
    """Knots (d, rho) of the density term of the corner layer at a fan edge,
    d the distance from the edge outward and width the fan's width. With
    root = sqrt(eps) it is `top` on [-_CORNER_DEPTH*root, _reach(0, eps)],
    falls off outside by `_falloff`, and inside halves every
    _CORNER_HALVING*root (as chords between the halvings) down to
    min(top, 1/_FAN_FLOOR), which it keeps to the fan's far edge, d =
    -width. Both edges of a fan have the same knots in d."""
    root = math.sqrt(eps)
    t, fall = _falloff(top)
    # the halvings s = H, ceil(H) - 1, ..., 1, 0 inside, H down to the floor;
    # every double is below 2^1024, so only an infinite top (c*sqrt(eps)
    # underflowed, and the node count rejects the mesh) is clipped
    halvings = min(max(math.log2(top * _FAN_FLOOR), 0.0), 1024.0)
    steps = np.arange(math.ceil(halvings), -1.0, -1.0)
    steps[0] = halvings
    d = np.concatenate((steps * (-_CORNER_HALVING * root) - _CORNER_DEPTH * root,
                        t + _reach(0.0, eps)))
    rho = np.concatenate((top * 0.5 ** steps, fall))
    keep = d > -width
    return (np.concatenate(([-width], d[keep])),
            np.concatenate(([np.interp(-width, d, rho)], rho[keep])))


def _density_terms(problem: ProfileProblem, exact, c: float, lo: float, hi: float, today):
    """The terms of `build_mesh`'s density on [lo, hi], each (x, rho, below,
    above): knots in xi of a piecewise-linear function, and its values left
    of x[0] and right of x[-1]. `today` is the capping density at given xi."""
    eps = problem.epsilon
    slo, shi = wave_speed_span(exact)
    a_left = float(derivative(problem.flux, problem.u_left))
    a_right = float(derivative(problem.flux, problem.u_right))
    # h = 2*_PECLET*eps/r, r = |f'(u) - xi| on the outer states and 0 across
    # the fan span; r jumps only at a shock, inside that shock's zone
    rate = 1.0 / (2.0 * _PECLET * eps)
    terms = [(np.array([lo, hi]), np.full(2, 1.0 / _H_BASE), 1.0 / _H_BASE, 1.0 / _H_BASE),
             (np.array([lo, slo]), rate * (a_left - np.array([lo, slo])), 0.0, 0.0),
             (np.array([shi, hi]), rate * (np.array([shi, hi]) - a_right), 0.0, 0.0)]
    for wave in exact.waves:
        if isinstance(wave, Shock):
            s = wave.speed
            g_left = max(float(derivative(problem.flux, wave.u_left)) - s, 0.0)
            g_right = max(s - float(derivative(problem.flux, wave.u_right)), 0.0)
            zone = (s - _reach(g_left, eps), s + _reach(g_right, eps))
            x, rho = _taper(*zone, float(max(today(np.array(zone)))))
            terms.append((x, rho, rho[0], rho[-1]))
        elif isinstance(wave, RarefactionFan):
            # one term per edge; past the far edge each is 0, under the
            # other edge's top there
            top = 1.0 / (_FAN_SPACING * c * math.sqrt(eps))
            d, rho = _corner(wave.xi_hi - wave.xi_lo, top, eps)
            terms.append((wave.xi_lo - d[::-1], rho[::-1], rho[-1], 0.0))
            terms.append((wave.xi_hi + d, rho, 0.0, rho[-1]))
    return terms


def _side_density(terms, cap, centre: float, sign: float, length: float):
    """Knots y in [0, length] and values of the density min(cap, max(terms))
    at xi = centre + sign*y, the cap given as a term. Every term's knots are
    knots, and so is every point where two terms, the cap among them, cross
    between knots; so no term and no pair changes order between knots, and
    the density is linear there. A term that is 0 on the whole side is left
    out: no density is negative, so it is under every other term and crosses
    none. Both sides take the same steps in y, so mirror-image terms give
    bitwise mirror-image knots and values."""
    terms = (*terms, cap)
    y = np.concatenate([t[0] for t in terms])
    y -= centre
    y *= sign
    side, start = [], 0
    for x, rho, below, above in terms:
        ty, start = y[start:start + len(x)], start + len(x)
        if sign < 0.0:
            ty, rho, below, above = ty[::-1], rho[::-1], above, below
        if not (ty[-1] < 0.0 and above == 0.0):
            side.append((ty, rho, below, above))

    def values(y):
        return np.array([np.interp(y, ty, v, left=b, right=a) for ty, v, b, a in side])

    y = _sorted_set(np.append(y, (0.0, length)), length)
    v = values(y)
    gap = v[:, None, :] - v[None, :, :]
    i, j, k = np.nonzero(gap[..., :-1] * gap[..., 1:] < 0.0)
    if len(k):
        # terms i and j cross inside (y_k, y_k+1); the pair (j, i) gives the same point
        left, right = gap[i, j, k], gap[i, j, k + 1]
        y = _sorted_set(np.concatenate((y, y[k] + (y[k + 1] - y[k]) * (left / (left - right)))),
                        length)
        v = values(y)
    return y, np.minimum(v[-1], np.max(v[:-1], axis=0))


def _sorted_set(y: np.ndarray, length: float) -> np.ndarray:
    """The distinct values of y clipped to [0, length], in increasing order."""
    y = np.minimum(np.maximum(y, 0.0), length)
    y.sort()
    return y[np.concatenate(([True], y[1:] != y[:-1]))]


def _side_nodes(y: np.ndarray, rho: np.ndarray):
    """The number J of nodes strictly inside one side of the centre, as a
    float (NaN or inf when the density overflows), and place(out, centre,
    sign), which writes the nodes centre + sign*y_k, k = 1..J, into out.

    The density rho is linear between the knots y, so the node count N(y)
    is piecewise quadratic. Node k sits at N(y_k) = k: on a piece starting
    at y_a, where rho is a and has slope b, w = k - N(y_a) gives
    y_k = y_a + 2w/(a + sqrt(a^2 + 2bw)), the root of a*t + b*t^2/2 = w that
    does not cancel, for every sign of b. J = floor(N(L) - 0.3), so the last
    step, to the side's end at L, holds [0.3, 1.3) nodes.
    """
    step = np.diff(y)
    n_at = _cumulative_trapezoid(rho, step)
    slope = np.diff(rho) / step
    interior = np.maximum(np.floor(n_at[-1] - 0.3), 0.0)

    def place(out: np.ndarray, centre: float, sign: float):
        # piece i holds the k with N(y_i) <= k < N(y_{i+1}); each piece's
        # numbers are repeated over its nodes, cheaper than a gather per node
        last = int(interior)
        first = np.clip(np.ceil(n_at), 1, last + 1).astype(np.intp)
        first[-1] = last + 1
        count = np.diff(first)
        a = np.repeat(rho[:-1], count)
        w = np.arange(1.0, last + 1.0)
        w -= np.repeat(n_at[:-1], count)
        t = np.multiply(np.repeat(2.0 * slope, count), w, out=out)
        t += a * a
        np.sqrt(np.maximum(t, 0.0, out=t), out=t)
        t += a
        np.divide(w, t, out=t)
        t *= 2.0
        t += np.repeat(y[:-1], count)
        t *= sign
        t += centre

    return interior, place


def build_mesh(problem: ProfileProblem, options: SolveOptions | None = None) -> np.ndarray:
    """Layer-adapted mesh on the truncated domain (or options.domain),
    placed outward from the centre by equidistributing the node density
    rho = 1/h.

    rho is the pointwise maximum of one term per wave of `solve_exact`'s
    solution, capped by the density today_rho = max(1/_H_BASE, S/(c*eps))
    of the spacing c*eps/S, c = 12/nodes_per_layer, that puts
    nodes_per_layer nodes across a viscous layer; S(xi) = max(M, xi) -
    min(m, xi) bounds |f'(u) - xi| over the states, [m, M] the range of f'.
    The terms:

    - Everywhere, h = min(_H_BASE, eps/r), r = |f'(u) - xi| at the inviscid
      solution u, taken as 0 across the fan span. This is cell Peclet number
      h*r/(2*eps) = _PECLET = 1/2, half the bound |f'(u) - xi|*h <= 2*eps
      under which the central scheme's Jacobian has nonnegative
      off-diagonals (an M-matrix, so a discrete maximum principle); the
      factor 2 covers the gap between the inviscid rate and the profile's.
    - A shock at speed s: today_rho on [s - d_l, s + d_r]. On a side with
      gap g = |f'(u_side) - s|, the profile leaves its state like
      exp(-(g*d + d^2/2)/eps) at distance d, and d is where that count of
      e-folds reaches _SHOCK_EFOLDS = 40: e^-40 = 4e-18 of the jump is
      below the jump's own rounding (1.1e-16 of it), so nothing farther
      out needs the layer spacing. A sonic side (g = 0) reaches
      sqrt(80*eps).
    - A fan: one term per edge xi_e, its corner layer. With X the distance
      from the edge in units of sqrt(eps), the term is the density top of
      the spacing _FAN_SPACING*c*sqrt(eps) from X = sqrt(2*_SHOCK_EFOLDS)
      = 8.9 outside the edge to X = _CORNER_DEPTH = 4 inside it.
      _FAN_SPACING = 0.035 is sqrt(0.005)/2: at eps = 0.005, the smallest
      viscosity at which `corner_remainder` still measures the expansion
      and not mesh error (`run_battery`), it is today's spacing on the
      Burgers rarefaction (S = 2), and the coarsest uniform fan spacing
      found to leave that value unchanged. Outside the fan the corner
      decays like the Gaussian e^(-X^2/2) = exp(-d^2/(2*eps)): the shock
      term's count of e-folds with gap g = 0, since the constant state's
      characteristic runs along the edge. So its reach is the shock term's
      sonic one (`_reach`), sqrt(80*eps), where the corner falls below
      e^-40 and under the rounding of its states. Up to there its own
      layer spacing c*eps/r, at the rate r = X*sqrt(eps), is
      c*sqrt(eps)/X, coarser than top's _FAN_SPACING*c*sqrt(eps) for every
      X below 1/_FAN_SPACING = 28.6. A corner that faces a domain end is
      cut off before its reach, by the truncation pad of 5.8*sqrt(eps).
      Inside the fan the corner's remainder decays like e^-X, and so does
      the truncation error of the central differences on it, times h^2.
      Holding h^2*e^-X at its value at X = _CORNER_DEPTH makes h grow like
      e^(X/2): the term halves every _CORNER_HALVING = 2*ln 2 in X, along
      the chords between the halvings, which lie above the exponential.
      It stops at the floor spacing _FAN_FLOOR and keeps that to the fan's
      far edge. Between the corners the profile is the inviscid fan plus a
      smooth O(eps) term, and the linearized operator is
      eps*d^2/dxi^2 - 1 (f''(u)*u' = 1 on the fan, f'(u) - xi = O(eps)),
      so a truncation error eps*h^2*u''''/12 leaves an error of about its
      own size: about 1.3e-6*eps*|u''''| at h = 0.004. The floor matters
      where the sqrt(eps) corner scaling fails, at an edge on an inflection
      point of f: for the cubic 0 -> 1, u = sqrt(xi/3) and u'''' grows like
      xi^-3.5 towards the edge. Against a 4x finer solve at eps = 1e-3 its
      sup error was 3.7e-8 with the uniform fan, 4.4e-6 with no floor, and
      1.2e-7, 8.6e-8, 6.8e-8 and 5.4e-8 with floors 0.005, 0.004, 0.0035
      and 0.003; 0.004 keeps it within 2.5x of the uniform fan for 1% more
      nodes than 0.005.
      So a fan's node count no longer grows as eps falls: the Burgers
      rarefaction has 6,853 nodes at eps 5e-3, 7,133 at 5e-4 and 7,279 at
      1e-6.

    Each shock and corner term falls off outside its zone along the chords
    of top/(1 + top*t/_TAPER) (`_falloff`), spacing that grows by 1/_TAPER of a
    step per step, so rho is continuous and neighbouring steps stay within
    a factor of about 1 + 2/_TAPER. rho never exceeds today_rho, so no mesh
    has more nodes than one of spacing c*eps/S alone, and nodes_per_layer
    scales every resolved spacing through c.

    rho is piecewise linear in the distance from the centre, with knots at
    its terms' knots and at their crossings (`_node_density`), so each
    step outward from the centre holds exactly one node and each node is a
    closed-form root (`_side_nodes`); a trailing sliver holding less than
    0.3 of a node is absorbed into the final step. Both sides use the same
    formulas in the distance, so data symmetric under (xi, u) -> (-xi, -u)
    get bitwise mirror-image nodes. A node count over _MAX_NODES, or not
    finite because c*eps underflows, raises CoverageError before any node
    is placed.
    """
    lo, hi, centre, left_density, right_density = _node_density(problem, options)
    with np.errstate(over="ignore", invalid="ignore"):
        left_count, left = _side_nodes(*left_density)
        right_count, right = _side_nodes(*right_density)
    count = 3.0 + left_count + right_count
    if not count <= _MAX_NODES:
        raise CoverageError("mesh exceeds %d nodes: viscosity eps = %g asks for %.6g; "
                            "change eps, tail_tol (--tail-tol) or nodes_per_layer"
                            % (_MAX_NODES, problem.epsilon, count))
    j = int(left_count)
    mesh = np.empty(3 + j + int(right_count))
    mesh[0], mesh[j + 1], mesh[-1] = lo, centre, hi
    left(mesh[j:0:-1], centre, -1.0)
    right(mesh[j + 2:-1], centre, 1.0)
    return mesh


def _node_density(problem: ProfileProblem, options: SolveOptions | None = None):
    """`build_mesh`'s domain (lo, hi), its centre, and its node density on
    each side of the centre, left then right: knots y in the distance from
    the centre and the density's values there, linear between knots. Values
    overflow to inf or NaN, without a warning raised, when c*eps underflows."""
    opts = options or SolveOptions()
    m, big_m = derivative_range(problem.flux, *problem.state_interval)
    eps = problem.epsilon
    dom = opts.domain
    if dom is None:
        # past the range of f' over the states the profile relaxes like a
        # Gaussian in the distance: flat to within tail_tol beyond this pad
        pad = math.sqrt(2.0 * eps * math.log(1.0 / opts.tail_tol)) + math.sqrt(eps)
        dom = (m - pad, big_m + pad)
    lo, hi = float(dom[0]), float(dom[1])
    covered = math.isfinite(lo) and math.isfinite(hi)
    if covered:
        exact = solve_exact(problem.flux, problem.u_left, problem.u_right)
        slo, shi = wave_speed_span(exact)
        covered = lo < slo and shi < hi
    if not covered and opts.domain is not None:
        raise InvalidParameterError("domain (%g, %g) does not contain the wave fan (%g, %g)"
                                    % (lo, hi, slo, shi))
    if not covered:     # the pad overflowed, or rounded away against the fan
        raise CoverageError("the domain truncated at tail_tol = %g for eps = %g is "
                            "(%g, %g), not finite or not strictly around the wave fan"
                            % (opts.tail_tol, eps, lo, hi))

    c = opts.layer_factor
    fine = c * eps
    s0 = max(fine / _H_BASE, big_m - m)

    def today(x):
        # S = max(M, x) - min(m, x) = max(M - m, M - x, x - m)
        return np.maximum(s0, np.maximum(big_m - x, x - m)) / fine

    # today_rho is s0/fine between its knots M - s0 <= m + s0 and linear outside
    knots = np.clip([lo, big_m - s0, m + s0, hi], lo, hi)
    centre = 0.5 * (lo + hi)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cap = today(knots)
        cap = (knots, cap, cap[0], cap[-1])
        terms = _density_terms(problem, exact, c, lo, hi, today)
        return (lo, hi, centre, _side_density(terms, cap, centre, -1.0, centre - lo),
                _side_density(terms, cap, centre, 1.0, hi - centre))


def reconstruct_derivative(xi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Fourth-order slope reconstruction on a nonuniform mesh: each node's
    slope is that of the Lagrange interpolant through the five nearest
    nodes (windows clipped at the ends), by `_lagrange_slope`. The interior
    nodes 2..n-3 all have the window i-2..i+2 with the node in column 2, so
    one call on shifted slices of xi and u gives them all; each end node
    passes its window as numpy scalars, which give NaN on repeated nodes as
    the arrays do (Python floats would raise)."""
    xi = np.asarray(xi, dtype=float)
    u = np.asarray(u, dtype=float)
    n = len(xi)
    if n < 5:
        return np.gradient(u, xi, edge_order=2 if n >= 3 else 1)
    m = n - 4                                   # the interior nodes 2..n-3
    du = np.empty(n)
    du[2:-2] = _lagrange_slope([xi[k:m + k] for k in range(5)],
                               [u[k:m + k] for k in range(5)], 2)
    for node, own in ((0, 0), (1, 1), (n - 2, 3), (n - 1, 4)):
        window = slice(node - own, node - own + 5)
        du[node] = _lagrange_slope(xi[window], u[window], own)
    return du


def _lagrange_slope(x, u, own: int):
    """The slope at x[own] of the Lagrange interpolant through the five
    points (x[k], u[k]), elementwise if the columns are arrays, by the
    closed-form weights (Fornberg, Math. Comp. 51, 1988), with i = own:

        w_j = prod_{k != i,j} (x_i - x_k) / prod_{k != j} (x_j - x_k),  j != i
        w_i = sum_{k != i} 1 / (x_i - x_k)

    Every product and sum, the slope's sum of the w_j*u_j among them, runs
    in increasing k or j, so a node's slope does not depend on the call."""
    d = {k: x[own] - x[k] for k in range(5) if k != own}     # x_i - x_k
    for j in range(5):
        # w_j*u_j; the augmented operators work in place on arrays, each of
        # them made here, and rebind scalars
        rest = [k for k in range(5) if k != j]
        if j == own:
            w = 1.0 / d[rest[0]]
            for k in rest[1:]:
                w += 1.0 / d[k]
        else:
            den = x[j] - x[rest[0]]
            for k in rest[1:]:
                den *= x[j] - x[k]
            a, b, c = (d[k] for k in rest if k != own)
            w = a * b * c / den
        w *= u[j]
        if j == 0:
            slope = w
        else:
            slope += w
    return slope


def _cumulative_trapezoid(y: np.ndarray, step) -> np.ndarray:
    """Integrals of y from its first sample to each sample, by the
    trapezoid rule; `step` holds the spacings between neighbouring samples,
    one number for all of them or an array of len(y) - 1."""
    return np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * step)])


def _chord_excess(flux: FluxSpec, a: float, b: float) -> np.ndarray:
    """Ascending coefficients, in u, of the second divided difference
    f[a, u, b], so that f(u) - f(a) - s*(u - a) = (u - a)*(u - b)*f[a, u, b]
    with s the chord slope over [a, b]: the u^j coefficient is the
    `divided_difference` over [a, b] of sum_{k > j} c_k u^(k-j-1)."""
    c = flux.coefficients
    return np.array([divided_difference(c[j + 1:], a, b) for j in range(max(len(c) - 2, 1))])


class _ShockLayer:
    """The viscous travelling wave of a shock from u_L to u_R at speed s,

        eps*U' = g(U),   g(u) = f(u) - f(u_L) - s*(u - u_L),

    tabulated with xi in units of eps, so one table serves every eps.

    U runs from u_L to u_R with share w = (U - u_L)/(u_R - u_L) =
    1/(1 + exp(-2t)), which puts the nodes of a uniform t grid at both
    roots of g. With g = (u - u_L)*(u - u_R)*f[u_L, u, u_R] (`_chord_excess`)
    the integral xi = eps * int du/g(u) becomes

        d(xi/eps)/dt = 2/P(U),   P(u) = -(u_R - u_L)*f[u_L, u, u_R] > 0.

    Its rate is bounded where g has a simple root (an exponential tail) and
    grows like exp(2|t|) where g has a double one, at a sonic state next to
    a fan (an algebraic tail, U - u_R ~ eps/xi). Each side of t = 0 is
    integrated outward by the trapezoid rule in steps `_LAYER_DT` to
    |t| = `_LAYER_T` = `_SHOCK_EFOLDS`/2 = 20, where w, about e^(-2|t|)
    from its end, is within e^-40 of 0 or 1: the depth at which
    `build_mesh`'s shock zone ends too, since below it the layer is under
    the jump's rounding. xi(t) carries an O(_LAYER_DT^2) relative error; it
    is exact when f is quadratic, where P is constant and
    U = u_L + (u_R - u_L)/(1 + exp(-(f'(u_L) - s)*xi/eps)),
    -tanh(xi/(2 eps)) for the Burgers shock 1 -> -1. A side stops early
    where P, computed next to a sonic root, is no longer positive, or where
    the distance overflows.

    Each side also keeps int (U - end state) dxi outward from t = 0, as a
    fraction of the jump and in units of eps, at the same nodes: linear
    between them, it makes the window mass of `centre_offset` piecewise
    linear, with an exact zero.
    """

    def __init__(self, shock: Shock, chord_excess: np.ndarray):
        self.jump = shock.u_right - shock.u_left
        t = np.arange(int(_LAYER_T / _LAYER_DT) + 1) * _LAYER_DT
        tail = 1.0 / (1.0 + np.exp(2.0 * t))            # w at -t, 1 - w at t
        self.sides = [self._side(chord_excess, end, other, t, tail)
                      for end, other in ((shock.u_left, shock.u_right),
                                         (shock.u_right, shock.u_left))]

    def _side(self, chord_excess, end, other, t, tail):
        # (t, distance from the centre, mass) while P > 0 and both sums are finite
        p = -self.jump * np.polynomial.polynomial.polyval(end + (other - end) * tail,
                                                          chord_excess)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            rate = 2.0 / p
            dist = _cumulative_trapezoid(rate, _LAYER_DT)
            mass = _cumulative_trapezoid(tail * rate, _LAYER_DT)
        n = _first(~((p > 0.0) & np.isfinite(dist) & np.isfinite(mass)))
        return t[:n], dist[:n], mass[:n]

    def share(self, x) -> np.ndarray:
        """(U - u_L)/(u_R - u_L) at increasing x = (xi - centre)/eps, taken
        as 0 and 1 beyond the ends of the table."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        (t_l, dist_l, _), (t_r, dist_r, _) = self.sides
        i, j = np.searchsorted(x, (-dist_l[-1], 0.0))
        k = np.searchsorted(x, dist_r[-1], side="right")
        w = np.zeros(len(x))
        w[i:j] = 1.0 / (1.0 + np.exp(2.0 * np.interp(-x[i:j], dist_l, t_l)))
        w[j:k] = 1.0 - 1.0 / (1.0 + np.exp(2.0 * np.interp(x[j:k], dist_r, t_r)))
        w[k:] = 1.0
        return w

    def centre_offset(self, half: float) -> float:
        """The offset d, in units of eps, of the layer's centre from the
        shock speed at which int (U - step) over |xi - s| <= half*eps is
        zero (see `initial_guess`). For |d| <= half that window mass is

            mu(d) = M_r(half - d) - M_l(half + d) + d,

        with M_l and M_r the two sides' masses, interpolated linearly in
        their tables and constant past their ends. So mu is linear between
        the knots -half, 0, half and each d = half - dist_r[k] or
        dist_l[k] - half inside, and its zero is exact: the first knot where
        mu >= 0 if mu is 0 there, as it is at d = 0 when both sides of the
        table are equal, for a symmetric shock, and otherwise the zero of
        mu's chord from the knot before it. The root lies in (-half, half):
        past the centre the share's tail is below 1/2, so each side's mass
        over a width y is below y/2, and mu(-half) < 0 < mu(half)."""
        (_, dist_l, mass_l), (_, dist_r, mass_r) = self.sides
        # a repeated knot has one mu, so the chord never joins a knot to its twin
        d = np.sort(np.clip(np.concatenate(([0.0], half - dist_r, dist_l - half)),
                            -half, half))
        mu = np.interp(half - d, dist_r, mass_r) - np.interp(half + d, dist_l, mass_l) + d
        k = _first(mu >= 0.0)
        if mu[k] == 0.0:
            return float(d[k])
        return float(d[k - 1] - mu[k - 1] * (d[k] - d[k - 1]) / (mu[k] - mu[k - 1]))


def _shock_layer(flux: FluxSpec, shock: Shock) -> _ShockLayer | None:
    """The shock's travelling-wave table, or None if g vanishes inside
    (u_L, u_R), where no travelling wave connects the states. P is checked
    at its interior critical points, where it has its interior minima, and
    at the midpoint as each side of the table computes it, where the rate
    2/P must be finite for the table to start."""
    a, b = shock.u_left, shock.u_right
    excess = _chord_excess(flux, a, b)
    where = [a + (b - a) * 0.5, b + (a - b) * 0.5] + _interior_critical_points(
        np.polynomial.polynomial.polyder(excess), min(a, b), max(a, b))
    p = -(b - a) * np.polynomial.polynomial.polyval(np.array(where), excess)
    return _ShockLayer(shock, excess) if np.all(p > 2.0 / np.finfo(float).max) else None


def initial_guess(problem: ProfileProblem, xi: np.ndarray) -> Profile:
    """The inviscid solution with each shock replaced by its viscous
    travelling wave, pinned to the boundary states at the domain ends.

    Near a shock the profile is the travelling wave of `_ShockLayer`, on the
    eps scale; elsewhere its zero-order asymptotics is the inviscid solution
    itself. So the inviscid values are taken at the nodes, the jump of every
    shock with a travelling wave is taken out of them, and the wave is added
    back. `solve_profile` uses this as the Newton start at the target
    viscosity. Wherever the inviscid solution is a constant state and every
    travelling wave has reached its end state, the guess is that state
    exactly, equal data included; like Newton's iterates, it carries no
    slope.

    Centre: the profile equation has the exact identity
    (f'(u) - xi)*u' = (f(u) - xi*u)' + u, so integrating it over the line
    for the viscous and the inviscid solutions gives
    int (u_viscous - u_inviscid) dxi = 0. Each wave is therefore shifted
    from the shock speed s to where int (U - step) over |xi - s| <= W is
    zero, W = `_CENTRE_WINDOW`*sqrt(eps), the width of the corner layers
    where a fan next to the shock takes over; on the tabulated wave that
    mass is piecewise linear in the shift, and
    `_ShockLayer.centre_offset` takes its exact zero. A wave with
    exponential tails on both sides has all its mass within a few eps, so
    the window does not matter there, and a symmetric one stays exactly at
    s. A wave with an algebraic tail has a mass growing like eps*ln(1/eps),
    which the window cuts at the sqrt(eps) scale where the fan takes over.

    Fallback: if g vanishes inside (u_L, u_R) (the quartic poly:0,0,-1,0,1
    shock 1 -> -1 touches its chord at 0, and its layer scales like
    sqrt(eps)), there is no travelling wave and that shock keeps its
    inviscid jump.
    """
    xi = np.asarray(xi, dtype=float)
    exact = solve_exact(problem.flux, problem.u_left, problem.u_right)
    eps = problem.epsilon
    u = eval_riemann(exact, xi)
    half = _CENTRE_WINDOW / math.sqrt(eps)         # W in units of eps
    for wave in exact.waves:
        layer = _shock_layer(problem.flux, wave) if isinstance(wave, Shock) else None
        if layer is not None:
            u[xi > wave.speed] -= layer.jump
            centre = wave.speed + eps * layer.centre_offset(half)
            u += layer.jump * layer.share((xi - centre) / eps)
    u[0] = problem.u_left
    u[-1] = problem.u_right
    return Profile(xi=xi, u=u)


class _Central:
    """The central three-point scheme for `problem` on the mesh xi: the one
    definition of the interior residual, its roundoff, the tridiagonal
    Jacobian and the shifted linear step. Every method takes the node
    values u on the scheme's own mesh.

    It owns the mesh differences and scratch arrays. Newton and the flow
    keep one per solve, so their iterations allocate almost nothing; a
    fresh one per call gives the same values. `residual` leaves D1(u) and
    f'(u) - xi in the scratch arrays, and `band` at the same u reads them.
    Newton, the flow, the noise floor and `verification` reach the scheme
    only through this class and the functions `residual` and
    `residual_noise`, which look it up by name at call time: a subclass set
    in its place changes the discretization for all of them."""

    def __init__(self, problem: ProfileProblem, xi: np.ndarray):
        self.problem = problem
        self.xi = xi
        n = len(xi)
        self.h = xi[1:] - xi[:-1]
        self.hm, self.hp = self.h[:-1], self.h[1:]
        self.hs = self.hm + self.hp
        self.s = np.empty(n - 1)
        self.d1, self.c, self.t = (np.empty(n - 2) for _ in range(3))

    @cached_property
    def _band_geometry(self):
        # hp*hs, hm*hp, hm*hs, hp-hm and the (3, n) band array
        hm, hp, hs = self.hm, self.hp, self.hs
        return hp * hs, hm * hp, hm * hs, hp - hm, np.empty((3, len(self.xi)))

    def _speed_offset(self, u: np.ndarray) -> np.ndarray:
        """f'(u_i) - xi_i at the interior nodes of the scheme's mesh, in self.c."""
        c = derivative(self.problem.flux, u[1:-1], out=self.c)
        c -= self.xi[1:-1]
        return c

    def residual(self, u: np.ndarray, offset=0.0) -> np.ndarray:
        """`residual` of the values u."""
        problem = self.problem
        r = np.empty(len(u))
        r[0] = u[0] - problem.u_left
        r[-1] = u[-1] - problem.u_right
        slope = np.subtract(u[1:], u[:-1], out=self.s)
        slope /= self.h
        sm, sp = slope[:-1], slope[1:]
        d1 = np.multiply(self.hm, sp, out=self.d1)
        d1 += np.multiply(self.hp, sm, out=self.t)
        d1 /= self.hs
        c = self._speed_offset(u)
        inner = np.subtract(sp, sm, out=r[1:-1])
        inner *= problem.epsilon * 2.0
        inner /= self.hs
        inner -= np.multiply(c, d1, out=self.t)
        if np.any(offset):
            inner -= np.multiply(offset, d1, out=self.t)
        return r

    def noise(self, u: np.ndarray, offset=0.0) -> np.ndarray:
        """`residual_noise` of the values u; the scratch arrays are overwritten."""
        hm, hp = self.hm, self.hp
        uscale = np.maximum(np.abs(u[1:-1]), np.maximum(np.abs(u[:-2]), np.abs(u[2:])))
        c = np.abs(self._speed_offset(u)) + np.abs(offset)
        return 4.0 * _EPS_MACH * (2.0 * self.problem.epsilon * uscale / (hm * hp)
                                  + c * uscale * (1.0 / hm + 1.0 / hp))

    def band(self, u: np.ndarray) -> np.ndarray:
        """The analytic tridiagonal Jacobian of `residual` at u, the values
        of the last `residual`, from the central slope self.d1 and the
        offset self.c = f'(u) - xi it left. It is in the banded (3, n)
        storage of `solve_banded` (ab[0, 1:] the superdiagonal, ab[1] the
        diagonal, ab[2, :-1] the subdiagonal), with identity boundary rows;
        the band array is the scheme's own, overwritten by the next call."""
        hphs, hmhp, hmhs, hpmhm, ab = self._band_geometry
        d1, c, t = self.d1, self.c, self.t
        eps = self.problem.epsilon

        # identity boundary rows; the unused corners of the band are zero
        ab[0, :2] = 0.0
        ab[2, -2:] = 0.0
        ab[1, [0, -1]] = 1.0
        # superdiagonal entries J[i, i+1], stored in ab[0, i+1]:
        # 2 eps / (hp hs) - c hm / (hp hs)
        sup = np.divide(2.0 * eps, hphs, out=ab[0, 2:])
        np.multiply(c, self.hm, out=t)
        t /= hphs
        sup -= t
        # diagonal: -2 eps / (hm hp) - c (hp - hm) / (hm hp) - f''(u) d1
        diag = np.divide(-2.0 * eps, hmhp, out=ab[1, 1:-1])
        np.multiply(c, hpmhm, out=t)
        t /= hmhp
        diag -= t
        second_derivative(self.problem.flux, u[1:-1], out=t)
        t *= d1
        diag -= t
        # subdiagonal entries J[i, i-1], stored in ab[2, i-1]:
        # 2 eps / (hm hs) + c hp / (hm hs)
        sub = np.divide(2.0 * eps, hmhs, out=ab[2, :-2])
        np.multiply(c, self.hp, out=t)
        t /= hmhs
        sub += t
        return ab

    def step(self, u: np.ndarray, r: np.ndarray, shift: float = 0.0) -> np.ndarray:
        """The d with (J - shift*I) d = -r, J = `band` at u, r its residual;
        NaN if the band is singular. The identity boundary rows take their
        exact d = -r, so pivoting cannot move the end values."""
        ab = self.band(u)
        ab[1, 1:-1] -= shift
        try:
            step = solve_banded(ab, -r)      # ab and -r are scratch
        except np.linalg.LinAlgError:
            step = np.full(len(u), np.nan)
        step[0], step[-1] = -r[0], -r[-1]
        return step


def residual(problem: ProfileProblem, profile: Profile,
             work: _Central | None = None, offset=0.0) -> np.ndarray:
    """Full-length discrete residual; the first and last entries are the
    boundary mismatches and the interior entries are

        eps * D2(u) - (f'(u_i) - xi_i + a) * D1(u)

    with the standard three-point divided differences on a nonuniform mesh.
    a = offset (a scalar or one value per interior node) raises the
    transport coefficient, as translating the profile does; a*D1(u) is
    subtracted on its own after (f'(u_i) - xi_i)*D1(u), and not at all when
    a is zero. `work`, the scheme (`_Central`) of the problem on
    profile.xi, saves recomputing the mesh differences and allocating
    temporaries; the values are the same. A scheme reads its own mesh and
    only profile.u. It is left holding D1(u) and f'(u_i) - xi_i, which
    its `band` at the same u reuses.
    """
    scheme = work if work is not None else _Central(problem, profile.xi)
    return scheme.residual(profile.u, offset)


def residual_noise(problem: ProfileProblem, profile: Profile,
                   work: _Central | None = None, offset=0.0) -> np.ndarray:
    """Roundoff of `residual` (with the same offset a) at each interior
    node: 4*eps_mach times the terms it is the difference of,
    2*eps*uscale/(hm*hp) + (|f'(u) - xi| + |a|)*uscale*(1/hm + 1/hp), uscale
    the largest |u| of the stencil. `work` is the scheme on profile.xi, as
    in `residual`; its scratch arrays are overwritten."""
    scheme = work if work is not None else _Central(problem, profile.xi)
    return scheme.noise(profile.u, offset)


def _max_abs(r: np.ndarray) -> float:
    """max |r| (NaN if r has one) without an |r| temporary."""
    return abs(float(np.maximum(r.max(), -r.min())))


def _in_reach(problem: ProfileProblem, u: np.ndarray) -> bool:
    """True when every value of u is finite and inside the states' interval
    widened by half its length on each side: the Dafermos flow rejects a
    trial outside it, and Newton certifies no iterate outside it."""
    lo, hi = problem.state_interval
    return _max_abs(u - 0.5 * (lo + hi)) <= hi - lo      # NaN fails too


def _check_guess(profile: Profile):
    xi = np.asarray(profile.xi, dtype=float)
    if len(xi) < 3 or len(xi) != len(profile.u):
        raise InvalidParameterError("guess needs matching xi/u arrays, >= 3 nodes")
    if np.any(np.diff(xi) <= 0.0):
        raise InvalidParameterError("mesh nodes must be strictly increasing")


def _load_dgtsv():
    """scipy's f2py wrapper of LAPACK's dgtsv, loaded straight from the
    compiled extension scipy/linalg/_flapack: running scipy.linalg's package
    init costs more than half of `import wavefan`, mostly in array-API and
    testing modules that have nothing to do with LAPACK. When scipy.linalg
    is already loaded, or the file cannot be loaded on its own (missing, or
    needing a DLL search path that only scipy's init sets), it comes from
    scipy.linalg.lapack instead: the same function object either way."""
    if "scipy.linalg" not in sys.modules:
        try:
            scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
            for suffix in importlib.machinery.EXTENSION_SUFFIXES:
                path = os.path.join(scipy_dir, "linalg", "_flapack" + suffix)
                if os.path.isfile(path):
                    spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
                    module = importlib.util.module_from_spec(spec)
                    spec.loader.exec_module(module)
                    return module.dgtsv
        except Exception:       # any failure here leaves the package's own route
            pass
    from scipy.linalg.lapack import dgtsv
    return dgtsv


_DGTSV = _load_dgtsv()


def solve_banded(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with A x = b, A tridiagonal in the banded (3, n) storage of
    `_Central.band`, by LAPACK's dgtsv (Gaussian elimination with partial
    pivoting; Anderson et al., LAPACK Users' Guide, 3rd ed., SIAM 1999):
    the routine and the call of scipy.linalg.solve_banded((1, 1), ab, b,
    overwrite_ab=True, overwrite_b=True), so the same x to the bit. ab and
    b are overwritten; x is b's storage when b is a contiguous float array.
    A singular A raises np.linalg.LinAlgError."""
    *_, x, info = _DGTSV(ab[2, :-1], ab[1], ab[0, 1:], b, 1, 1, 1, 1)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x


def newton_solve(problem: ProfileProblem, guess: Profile,
                 options: SolveOptions | None = None) -> tuple[Profile, SolveReport]:
    """Newton iteration from the given guess on the guess's own mesh, full
    steps only.

    Each iteration evaluates one residual, at the full step, and accepts it
    if the sup-norm residual falls by the factor 1 - `_ARMIJO` or reaches
    the tolerance. A rejected step ends the iteration, as does `_MAX_ITER`;
    a singular or non-finite system gives a NaN step, rejected like any
    other. If the last iterate is then in reach (`_in_reach`) and its
    residual at or below its floating-point noise floor, the largest
    `residual_noise`, no step can show a decrease that is not roundoff,
    and the solve is reported converged and `floor_limited`.
    Otherwise NonConvergenceError is raised with the partial report: the
    start is too far off, and `solve_profile` hands it to the Dafermos flow.

    The floor is checked once per solve, at the last iterate, and only in
    reach: it scales with |u|*|f'(u)|, which an iterate far outside the
    states can make large enough to pass any residual.

    Each Jacobian reuses the slopes and f'(u) - xi that the residual of the
    accepted step left in the scheme (`_Central`). The returned profile
    carries no slope.
    """
    opts = options or SolveOptions()
    _check_guess(guess)
    xi = np.asarray(guess.xi, dtype=float)
    u = np.asarray(guess.u, dtype=float).copy()
    scheme = _Central(problem, xi)

    r = residual(problem, Profile(xi, u), scheme)
    history = [_max_abs(r)]
    converged = history[-1] <= opts.newton_tol
    floor_limited = False
    iterations = 0

    def report() -> SolveReport:
        return SolveReport(converged=converged, iterations=iterations,
                           residual_history=tuple(history),
                           domain=(float(xi[0]), float(xi[-1])),
                           mesh_size=len(xi), floor_limited=floor_limited)

    while not converged and iterations < _MAX_ITER:
        step = scheme.step(u, r)
        trial = np.add(u, step, out=step)
        rt = residual(problem, Profile(xi, trial), scheme)
        nt = _max_abs(rt)
        iterations += 1
        if not (nt <= (1.0 - _ARMIJO) * history[-1] or nt <= opts.newton_tol):
            break
        u, r = trial, rt
        history.append(nt)
        converged = nt <= opts.newton_tol

    if not converged:
        converged = floor_limited = _in_reach(problem, u) \
            and history[-1] <= float(np.max(residual_noise(problem, Profile(xi, u), scheme)))

    if not converged:
        raise NonConvergenceError(
            "Newton stalled at residual %.3e (tol %.3e) after %d iterations"
            % (history[-1], opts.newton_tol, iterations),
            report=report())
    return Profile(xi, u), report()


def dafermos_flow(problem: ProfileProblem, guess: Profile) -> Profile:
    """Pseudo-transient continuation (Kelley & Keyes, SIAM J. Numer. Anal.
    35, 1998) from `guess`, on its mesh, of the self-similar Dafermos flow
    v_tau = eps*v'' - (f'(v) - xi)*v' (tau = ln t, xi = x/t; `residual`),
    whose steady states are the profiles: linearly implicit Euler steps
    (J - I/dt) d = -r, the scheme's `step`. A layer off its place s is a
    front x = s*t + x0, which the exact flow carries in at rate 1 in tau,
    xi - s = x0*e^(-tau). The steps do not: a step adds about
    x0*dt/(1 + dt) times the profile's slope, which moves the layer only
    while that shift is below the layer's width, about eps. A larger one
    adds a bump, and a step that leaves the states' interval widened by
    half its length on each side (`_in_reach`), or is not finite,
    overshoots the bounded flow; it is rejected and dt cut by _FLOW_CUT =
    4. The residual stays O(1/eps) until the layer is in place and cannot
    pace the steps, so dt grows from _FLOW_DT = 0.05 by _FLOW_GROWTH = 1.5
    per accepted step and settles where a step moves the layer by about
    its width: with the step limit raised to 2,000, the Burgers shock's
    runs at eps 5e-4 took 0.65-0.76*|x0|/eps accepted steps. At sup
    residual _FLOW_HANDOVER = 1e-3 the layers are in place and the flow
    returns. After _FLOW_STEPS = 100 steps, rejected ones included, it
    raises NonConvergenceError. The six runs of `uniqueness_probe` at its
    default seed take 74-77 accepted steps in all on the Burgers data at
    eps 0.05, about 13 a run, but 187 accepted and 31 rejected on the
    Burgers shock at 0.005; on the cubic +-1 they take 415 + 97 at 0.01
    and 409 + 107 at 0.005, where four of the six runs spend the whole
    budget and fail.
    """
    xi, u = guess.xi, guess.u
    scheme = _Central(problem, xi)
    r = residual(problem, guess, scheme)
    history = [_max_abs(r)]
    dt = _FLOW_DT
    for _ in range(_FLOW_STEPS):
        trial = u + scheme.step(u, r, 1.0 / dt)
        if not _in_reach(problem, trial):
            dt /= _FLOW_CUT
            continue
        u = trial
        r = residual(problem, Profile(xi, u), scheme)
        history.append(_max_abs(r))
        if history[-1] <= _FLOW_HANDOVER:
            return Profile(xi, u)
        dt *= _FLOW_GROWTH
    raise NonConvergenceError(
        "Dafermos flow stalled at residual %.3e after %d steps" % (history[-1], _FLOW_STEPS),
        report=SolveReport(False, 0, tuple(history), (float(xi[0]), float(xi[-1])), len(xi)))


def solve_profile(problem: ProfileProblem,
                  options: SolveOptions | None = None) -> tuple[Profile, SolveReport]:
    """Solve for the viscous profile at problem.epsilon on its own mesh:
    Newton from `initial_guess` and, if that raises NonConvergenceError,
    the Dafermos flow (`dafermos_flow`) from the same guess, then Newton
    from where it stops; a failure there, or in the flow, is raised. The
    flow is the only globalization: Newton never shortens a step. The
    profile carries its slope. The report is the last Newton solve's, with
    `stages` the phases that ran (1: Newton alone; 2: the flow, then Newton)
    and `iterations` summed over both Newton attempts."""
    opts = options or SolveOptions()
    guess = initial_guess(problem, build_mesh(problem, opts))
    try:
        profile, report = newton_solve(problem, guess, opts)
    except NonConvergenceError as exc:
        profile, report = newton_solve(problem, dafermos_flow(problem, guess), opts)
        report = replace(report, stages=2, iterations=exc.report.iterations + report.iterations)
    du = reconstruct_derivative(profile.xi, profile.u)
    return Profile(profile.xi, profile.u, du), report
