"""Two-point boundary value solver for self-similar viscous profiles.

The profile u(xi) solves

    eps * u'' = (f'(u) - xi) * u',     u(-inf) = u_left,  u(+inf) = u_right,

which connects the constant states through a smoothed copy of the inviscid
wave fan. The problem is discretized on a finite interval with a graded mesh
and solved by a damped Newton iteration on the nonlinear divided-difference
residual.

Mesh design: away from the wave fan the solution relaxes to its limit like
exp(-|f'(u) - xi| * distance / eps), so both the interior layers and the
tails live on the scale eps / S(xi), where S(xi) bounds |f'(u) - xi| over
the relevant state interval. The mesh marches outward from the domain
centre with local spacing min(h_base, c * eps / S(xi)); for data symmetric
under (xi, u) -> (-xi, -u) the two sides of the march produce bitwise
mirror-image nodes, so the discrete problem inherits the symmetry exactly
instead of up to interpolation error. On the range [m, M] of f' the bound
S is the constant M - m, so that stretch of the march (most nodes at small
eps) is a cumulative sum, evaluated in one vectorized pass with the same
left-to-right additions; only the tails are stepped one node at a time.

Newton starts at the target viscosity from the profile's asymptotics: at
each shock its viscous travelling wave, eps*U' = f(U) - f(u_L) - s*(U - u_L),
integrated once per shock on nodes clustered at both roots and centred so
that it carries no mass against the jump over a sqrt(eps) window (the
viscous and inviscid profiles have equal integrals); elsewhere the inviscid
solution mollified over sqrt(eps). A shock whose g vanishes between its
states has no travelling wave and keeps its mollified jump. Continuation
(stages at larger viscosities, each re-meshed and warm-started from the
previous one) is the fallback when Newton fails. Each Newton solve evaluates
its residuals and Jacobians on one workspace (mesh differences computed
once, scratch arrays reused, the Jacobian built from the slopes its residual
left there), so the iterations allocate almost no fresh memory, and it stops
once a full step can no longer lower a residual that is already at its
roundoff floor. That floor is a pass over every node; Newton computes it
only when the residual is at or below a bound of it made of maxima of the
mesh and of u, which rules it out while the residual is large.

Derivatives along a computed profile are reconstructed with fourth-order
five-point stencils; second-order differences leave an O(h^2) bias in the
slope that is far too large for the first-integral and comparison checks
downstream. The stencil weights are the closed-form derivatives of the
Lagrange basis; every node but the four at the ends has the same window
shape, so its stencil columns are shifted slices of the mesh and profile
arrays. Newton never reads a slope, so a Profile reconstructs it
only when `du` is first read; `solve_profile` and `continuation_sweep`
compute it once for each profile they return.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass, replace

import numpy as np
from scipy.linalg import solve_banded

from .errors import (
    CoverageError,
    InvalidParameterError,
    LinearSolverError,
    NonConvergenceError,
    WindowError,
)
from .flux import (FluxSpec, _interior_critical_points, derivative, derivative_range,
                   second_derivative, sup_derivative)
from .riemann import Shock, eval_riemann, solve_exact, wave_speed_span

_MAX_NODES = 400_000
_EPS_MACH = float(np.finfo(float).eps)
_ARMIJO = 1e-4
_BACKOFF_RATIO = 1.1     # see solve_profile
_LAYER_DT = 1.0 / 16.0   # see _ShockLayer
_LAYER_T = 20.0
_CENTRE_WINDOW = 1.0     # see initial_guess


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


class Profile:
    """Mesh nodes xi, profile values u, and slope du. Immutable.

    A slope passed to the constructor is kept as given. Without one, `du`
    is reconstructed by `reconstruct_derivative` when first read and cached.
    """

    def __init__(self, xi: np.ndarray, u: np.ndarray, du: np.ndarray | None = None):
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "_du", du)

    @property
    def du(self) -> np.ndarray:
        if self._du is None:
            object.__setattr__(self, "_du", reconstruct_derivative(self.xi, self.u))
        return self._du

    def __setattr__(self, name, value):
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise FrozenInstanceError("cannot delete field %r" % name)

    def __repr__(self):
        return "Profile(xi=%r, u=%r, du=%r)" % (self.xi, self.u, self._du)


@dataclass(frozen=True)
class SolveOptions:
    newton_tol: float = 1e-11
    max_iter: int = 25
    damping: float = 0.5
    max_halvings: int = 30
    tail_tol: float = 1e-5
    h_base: float = 0.05
    nodes_per_layer: int = 120
    domain: tuple | None = None          # override truncate_domain


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


def truncate_domain(problem: ProfileProblem, tail_tol: float = 1e-5) -> tuple[float, float]:
    """Finite interval outside which the profile is flat to within tail_tol.

    The wave fan occupies the range of f' over the state interval; beyond it
    the profile relaxes like a Gaussian-in-distance factor, so a pad of
    sqrt(2 eps ln(1/tail_tol)) + sqrt(eps) suffices on each side.
    """
    if not (0.0 < tail_tol < 1.0):
        raise InvalidParameterError("tail_tol must lie in (0, 1)")
    lo, hi = problem.state_interval
    m, big_m = derivative_range(problem.flux, lo, hi)
    pad = math.sqrt(2.0 * problem.epsilon * math.log(1.0 / tail_tol)) \
        + math.sqrt(problem.epsilon)
    return (m - pad, big_m + pad)


def _first(mask: np.ndarray) -> int:
    """Index of the first True entry of a 1-D mask, len(mask) if none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else len(mask)


def build_mesh(problem: ProfileProblem, domain: tuple | None = None,
               options: SolveOptions | None = None) -> np.ndarray:
    """Graded mesh on the truncated domain, marched outward from the centre.

    Local spacing is min(h_base, c*eps/S(xi)) with c = 12/nodes_per_layer,
    which puts nodes_per_layer nodes across a viscous layer and keeps about
    ten nodes per e-folding of the tails. A trailing sliver shorter than
    0.3 of the local spacing is absorbed into the final step.

    S(xi) = max(M, xi) - min(m, xi) bounds |f'(u) - xi| over the states,
    with [m, M] the range of f'. It is constant on [m, M], where the march
    is generated by np.add.accumulate: the nodes are bitwise those of
    stepping one node at a time, which the tails still do.
    """
    opts = options or SolveOptions()
    dom = domain if domain is not None else truncate_domain(problem, opts.tail_tol)
    lo, hi = float(dom[0]), float(dom[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise InvalidParameterError("domain must be a finite increasing pair")
    if not (opts.h_base > 0.0 and opts.nodes_per_layer > 0):
        raise InvalidParameterError("h_base and nodes_per_layer must be positive")

    slo, shi = wave_speed_span(solve_exact(problem.flux, problem.u_left, problem.u_right))
    if not (lo < slo and shi < hi):
        raise WindowError("domain (%g, %g) does not contain the wave fan (%g, %g)"
                          % (lo, hi, slo, shi))

    m, big_m = derivative_range(problem.flux, *problem.state_interval)
    c_acc = 12.0 / float(opts.nodes_per_layer)
    fine = c_acc * problem.epsilon
    h_base = opts.h_base
    h_fan = h_base if (big_m - m) * h_base <= fine else fine / (big_m - m)

    def step_off_fan(x: float, stop: float, step_sign: float, budget: int,
                     out: list) -> tuple[float, bool]:
        # off the fan S(x) is M - x on its left and x - m on its right, both
        # exactly (x - ref) * sign; stepping in the direction step_sign
        # (x + (-h) is bitwise x - h) ends at stop, on entering [m, M], where
        # step_sign * x reaches `limit`, or after `budget` nodes, and appends
        # the nodes to `out`
        near, ref, sign = (big_m, m, 1.0) if x > big_m else (m, big_m, -1.0)
        limit = step_sign * near if sign != step_sign else math.inf
        for _ in range(budget):
            s = (x - ref) * sign
            h = h_base if s * h_base <= fine else fine / s
            x += step_sign * h
            if step_sign * (stop - x) < 0.3 * h:
                out.append(stop)
                return x, True
            out.append(x)
            if step_sign * x >= limit:
                break
        return x, False

    def march(start: float, stop: float, step_sign: float) -> np.ndarray:
        pieces = []       # arrays of nodes, in marching order
        count = 0
        x = start
        while True:
            if count + 1 > _MAX_NODES:
                raise CoverageError("mesh exceeds %d nodes; enlarge spacing or "
                                    "shrink the domain" % _MAX_NODES)
            if m <= x <= big_m:
                # the steps taken from points of [m, M] all have length h_fan
                reach = (big_m - x) if step_sign > 0.0 else (x - m)
                k = min(_MAX_NODES - count, int(reach / h_fan) + 2)
                run = np.add.accumulate(np.concatenate(([x], np.full(k, step_sign * h_fan))))
                prev, nodes = run[:-1], run[1:]
                done = _first(step_sign * (stop - nodes) < 0.3 * h_fan)
                off_fan = _first((prev < m) | (prev > big_m))
                if done < off_fan:
                    return np.concatenate(pieces + [nodes[:done], [stop]])
                pieces.append(nodes[:off_fan])
                count += off_fan
                x = float(nodes[off_fan - 1])
                continue
            tail = []
            x, done = step_off_fan(x, stop, step_sign, _MAX_NODES - count, tail)
            pieces.append(np.array(tail))
            if done:
                return np.concatenate(pieces)
            count += len(tail)

    centre = 0.5 * (lo + hi)
    right = march(centre, hi, 1.0)
    left = march(centre, lo, -1.0)
    mesh = np.concatenate((left[::-1], [centre], right))
    if len(mesh) > _MAX_NODES:
        raise CoverageError("mesh exceeds %d nodes" % _MAX_NODES)
    return mesh


def reconstruct_derivative(xi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Fourth-order slope reconstruction on a nonuniform mesh.

    Each node x_i uses the five nearest nodes x_k (windows clipped at the
    ends). Its slope is the derivative at x_i of their Lagrange interpolant,
    whose weights are closed-form (Fornberg, Math. Comp. 51, 1988):

        w_j = prod_{k != i,j} (x_i - x_k) / prod_{k != j} (x_j - x_k),  j != i
        w_i = sum_{k != i} 1 / (x_i - x_k)

    They are built one stencil column at a time, as arrays over the nodes.
    The interior nodes 2..n-3 all have the window i-2..i+2 with the node in
    column 2, so their columns are shifted slices of xi and u; only the four
    end nodes gather clipped windows (`_window_slopes`). Both paths take the
    same operations in the same order, except for the exact products with 1
    and sums with 0 that the clipped windows' masks need, so the slopes do
    not depend on which path computed them. The interior writes into a few
    reused arrays: on large meshes, fresh temporaries cost more than the
    arithmetic.
    """
    xi = np.asarray(xi, dtype=float)
    u = np.asarray(u, dtype=float)
    n = len(xi)
    if n < 5:
        return np.gradient(u, xi, edge_order=2 if n >= 3 else 1)
    m = n - 4                                   # the interior nodes 2..n-3
    x = [xi[k:m + k] for k in range(5)]         # column k holds x_{i-2+k}
    d = {k: x[2] - x[k] for k in (0, 1, 3, 4)}  # x_i - x_k
    t, den, term = np.empty(m), np.empty(m), np.empty(m)
    w_own = 1.0 / d[0]
    for k in (1, 3, 4):
        w_own += np.divide(1.0, d[k], out=t)
    du = np.empty(n)
    inner = du[2:-2]
    for j in range(5):
        # w_j * u_j, written into du for j = 0 and summed into it after
        out = term if j else inner
        if j == 2:
            np.multiply(w_own, u[2:m + 2], out=out)
        else:
            num = [d[k] for k in (0, 1, 3, 4) if k != j]
            np.multiply(num[0], num[1], out=out)
            out *= num[2]
            others = [k for k in range(5) if k != j]
            np.subtract(x[j], x[others[0]], out=den)
            for k in others[1:]:
                den *= np.subtract(x[j], x[k], out=t)
            out /= den
            out *= u[j:m + j]
        if j:
            inner += term
    ends = np.array([0, 1, n - 2, n - 1])
    du[ends] = _window_slopes(xi, u, ends)
    return du


def _window_slopes(xi: np.ndarray, u: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """`reconstruct_derivative` at the given nodes from their gathered
    (clipped) five-node windows; n >= 5."""
    n = len(xi)
    starts = np.clip(nodes - 2, 0, n - 5)
    own = nodes - starts                       # the node's own stencil column
    x = [xi[starts + k] for k in range(5)]
    # x_i - x_k, set to 1 in the node's own column so that products skip it
    d = [np.where(own == k, 1.0, xi[nodes] - x[k]) for k in range(5)]
    w_own = sum(np.where(own == k, 0.0, 1.0 / d[k]) for k in range(5))
    du = np.zeros(len(nodes))
    for j in range(5):
        others = [k for k in range(5) if k != j]
        num = math.prod(d[k] for k in others)
        den = math.prod(x[j] - x[k] for k in others)
        du += np.where(own == j, w_own, num / den) * u[starts + j]
    return du


def _cumulative_trapezoid(y: np.ndarray, step: float) -> np.ndarray:
    """Integrals of y from its first sample to each sample, by the
    trapezoid rule on samples `step` apart."""
    return np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * step)])


def _chord_excess(flux: FluxSpec, a: float, b: float) -> np.ndarray:
    """Ascending coefficients, in u, of the second divided difference
    f[a, u, b], so that f(u) - f(a) - s*(u - a) = (u - a)*(u - b)*f[a, u, b]
    with s the chord slope over [a, b]. The u^j coefficient is
    sum_{k >= j+2} c_k h_{k-2-j}(a, b), h_m(a, b) = sum_{i<=m} a^i b^(m-i),
    so no difference of nearby values is taken."""
    c = flux.coefficients
    h = [1.0]
    for m in range(1, len(c) - 2):
        h.append(h[-1] * b + a ** m)
    return np.array([sum(c[k] * h[k - 2 - j] for k in range(j + 2, len(c)))
                     for j in range(max(len(c) - 2, 1))])


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
    |t| = `_LAYER_T`, where w is within e^-40 of 0 or 1, so xi(t) carries an
    O(_LAYER_DT^2) relative error; it is exact when f is quadratic, where P
    is constant and U = u_L + (u_R - u_L)/(1 + exp(-(f'(u_L) - s)*xi/eps)),
    -tanh(xi/(2 eps)) for the Burgers shock 1 -> -1. A side stops early
    where P, computed next to a sonic root, is no longer positive, or where
    the distance overflows.

    Each side also keeps int (U - end state) dxi outward from t = 0, as a
    fraction of the jump and in units of eps, for `centre_offset`.
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

    def _mass(self, x: float) -> float:
        # int_0^x (U - step)/(-(u_R - u_L)), the step jumping at 0; x in eps
        _, dist, mass = self.sides[1 if x >= 0.0 else 0]
        return float(np.interp(abs(x), dist, mass))

    def centre_offset(self, half: float) -> float:
        """The offset d, in units of eps, of the layer's centre from the
        shock speed at which int (U - step) over |xi - s| <= half*eps is
        zero (see `initial_guess`). The window's mass mu(d) grows with d at
        the rate of the jump's share inside the window, so Newton steps
        safeguarded by bisection find the root; mu is exactly zero at d = 0
        when both sides of the table are equal, as for a symmetric shock."""
        def mu(d):
            return self._mass(half - d) - self._mass(-half - d) + min(max(d, -half), half)

        # mu runs from -half to +half; the bracket is doubled until it holds
        # the root, so bisection starts at the root's own scale
        lo, hi = -half, half
        while mu(lo) > 0.0:
            lo *= 2.0
        while mu(hi) < 0.0:
            hi *= 2.0
        d, last = 0.0, hi - lo
        for _ in range(100):
            m = mu(d)
            if m == 0.0:
                return d
            lo, hi = (lo, d) if m > 0.0 else (d, hi)
            inside = float(self.share(half - d)[0] - self.share(-half - d)[0])
            nxt = d - m / inside if inside > 0.0 else math.nan
            # bisect when Newton leaves the bracket (or has no step) or does
            # not halve the step before last, so the bracket keeps shrinking
            if not (lo < nxt < hi and abs(nxt - d) <= 0.5 * last):
                nxt = 0.5 * (lo + hi)
            last = abs(nxt - d)
            if last <= 1e-12:
                return nxt
            d = nxt
        return d


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
    travelling wave and the rest mollified on the sqrt(eps) scale.

    Near a shock the profile is the travelling wave of `_ShockLayer`, on the
    eps scale; elsewhere its zero-order asymptotics is the inviscid solution,
    whose fan edges a sliding average over sqrt(eps) rounds off. So the
    jump of every shock with a travelling wave is taken out of the inviscid
    values, the continuous remainder is mollified, and the wave is added
    back. `solve_profile` uses this as the Newton start at the target
    viscosity.

    Centre: the profile equation has the exact identity
    (f'(u) - xi)*u' = (f(u) - xi*u)' + u, so integrating it over the line
    for the viscous and the inviscid solutions gives
    int (u_viscous - u_inviscid) dxi = 0. Each wave is therefore shifted
    from the shock speed s until int (U - step) over |xi - s| <= W is zero,
    W = `_CENTRE_WINDOW`*sqrt(eps), the mollification scale. A wave with
    exponential tails on both sides has all its mass within a few eps, so
    the window does not matter there, and a symmetric one stays at s. A
    wave with an algebraic tail has a mass growing like eps*ln(1/eps),
    which the window cuts at the sqrt(eps) scale where the fan takes over.

    Fallback: if g vanishes inside (u_L, u_R) (the quartic poly:0,0,-1,0,1
    shock 1 -> -1 touches its chord at 0, and its layer scales like
    sqrt(eps)), that shock keeps the mollified jump. With no travelling
    wave at all the guess is the mollified inviscid solution alone.
    """
    xi = np.asarray(xi, dtype=float)
    if problem.u_left == problem.u_right:
        u = np.full(len(xi), problem.u_left)
        return Profile(xi=xi, u=u, du=np.zeros(len(xi)))
    exact = solve_exact(problem.flux, problem.u_left, problem.u_right)
    eps = problem.epsilon
    layers = []
    for wave in exact.waves:
        layer = _shock_layer(problem.flux, wave) if isinstance(wave, Shock) else None
        if layer is not None:
            layers.append((wave, layer))
    delta = 0.5 * math.sqrt(eps)
    step = delta / 8.0
    aux = np.arange(xi[0] - 2.0 * delta, xi[-1] + 2.0 * delta + step, step)
    vals = eval_riemann(exact, aux)
    for shock, layer in layers:
        vals[aux > shock.speed] -= layer.jump
    prefix = _cumulative_trapezoid(vals, step)
    upper = np.interp(xi + delta, aux, prefix)
    lower = np.interp(xi - delta, aux, prefix)
    u = (upper - lower) / (2.0 * delta)
    half = _CENTRE_WINDOW / math.sqrt(eps)         # W in units of eps
    for shock, layer in layers:
        centre = shock.speed + eps * layer.centre_offset(half)
        u += layer.jump * layer.share((xi - centre) / eps)
    u[0] = problem.u_left
    u[-1] = problem.u_right
    return Profile(xi=xi, u=u)


class _Workspace:
    """The mesh differences and scratch arrays that `residual` and `jacobian`
    use on one mesh. Newton keeps one per solve, so its iterations allocate
    almost nothing; a fresh workspace per call gives the same values."""

    def __init__(self, xi: np.ndarray):
        self.xi = xi
        n = len(xi)
        self.hm = xi[1:-1] - xi[:-2]
        self.hp = xi[2:] - xi[1:-1]
        self.hs = self.hm + self.hp
        self.sm, self.sp, self.d1, self.c, self.t = (np.empty(n - 2) for _ in range(5))
        self._geometry = self._ab = self._noise_maxima = None

    def jacobian_geometry(self):
        """hp*hs, hm*hp, hm*hs, hp-hm and a (3, n) band array; built on
        first use."""
        if self._ab is None:
            hm, hp, hs = self.hm, self.hp, self.hs
            self._geometry = (hp * hs, hm * hp, hm * hs, hp - hm)
            self._ab = np.empty((3, len(self.xi)))
        return self._geometry, self._ab

    def noise_maxima(self):
        """max 1/(hm*hp), max (1/hm + 1/hp) and max |xi| over the interior
        nodes; computed on first use."""
        if self._noise_maxima is None:
            hm, hp, xi = self.hm, self.hp, self.xi[1:-1]
            self._noise_maxima = (float(np.max(1.0 / (hm * hp))),
                                  float(np.max(1.0 / hm + 1.0 / hp)), _max_abs(xi))
        return self._noise_maxima

    def slopes(self, u: np.ndarray):
        """The one-sided slopes sm, sp and the central slope d1 at the
        interior nodes, in the workspace's arrays."""
        sm = np.subtract(u[1:-1], u[:-2], out=self.sm)
        sm /= self.hm
        sp = np.subtract(u[2:], u[1:-1], out=self.sp)
        sp /= self.hp
        d1 = np.multiply(self.hm, sp, out=self.d1)
        d1 += np.multiply(self.hp, sm, out=self.t)
        d1 /= self.hs
        return sm, sp, d1

    def speed_offset(self, flux: FluxSpec, u: np.ndarray) -> np.ndarray:
        """f'(u_i) - xi_i at the interior nodes."""
        c = derivative(flux, u[1:-1], out=self.c)
        c -= self.xi[1:-1]
        return c


def residual(problem: ProfileProblem, profile: Profile,
             work: _Workspace | None = None) -> np.ndarray:
    """Full-length discrete residual; the first and last entries are the
    boundary mismatches and the interior entries are

        eps * D2(u) - (f'(u_i) - xi_i) * D1(u)

    with the standard three-point divided differences on a nonuniform mesh.
    `work`, a workspace for profile.xi, saves recomputing the mesh
    differences and allocating temporaries; the values are the same. The
    workspace is left holding D1(u) and f'(u_i) - xi_i, which a following
    Jacobian at the same u reuses.
    """
    xi, u = profile.xi, profile.u
    w = work if work is not None else _Workspace(xi)
    n = len(xi)
    r = np.empty(n)
    r[0] = u[0] - problem.u_left
    r[-1] = u[-1] - problem.u_right
    sm, sp, d1 = w.slopes(u)
    c = w.speed_offset(problem.flux, u)
    inner = np.subtract(sp, sm, out=r[1:-1])
    inner *= problem.epsilon * 2.0
    inner /= w.hs
    inner -= np.multiply(c, d1, out=w.t)
    return r


def _node_noise(problem: ProfileProblem, profile: Profile,
                work: _Workspace, extra=0.0) -> np.ndarray:
    """Roundoff of the residual at each interior node: 4*eps_mach times the
    terms it is the difference of, 2*eps*uscale/(hm*hp) +
    (|f'(u) - xi| + extra)*uscale*(1/hm + 1/hp), uscale the largest |u| of
    the stencil. `extra` adds to the transport coefficient, as a translate
    margin's a*D1(u) does. The workspace's scratch arrays are overwritten."""
    u = profile.u
    hm, hp = work.hm, work.hp
    uscale = np.maximum(np.abs(u[1:-1]), np.maximum(np.abs(u[:-2]), np.abs(u[2:])))
    c = np.abs(work.speed_offset(problem.flux, u)) + extra
    return 4.0 * _EPS_MACH * (2.0 * problem.epsilon * uscale / (hm * hp)
                              + c * uscale * (1.0 / hm + 1.0 / hp))


def residual_noise_floor(problem: ProfileProblem, profile: Profile,
                         work: _Workspace | None = None) -> float:
    """Roundoff level of the interior residual, the largest `_node_noise`:
    below it the residual is indistinguishable from zero in floating point,
    so iterating past it cannot help. `work` is a workspace for profile.xi,
    as in `residual`; its scratch arrays are overwritten."""
    w = work if work is not None else _Workspace(profile.xi)
    return float(np.max(_node_noise(problem, profile, w)))


def _noise_floor_bound(problem: ProfileProblem, u: np.ndarray, work: _Workspace) -> float:
    """An upper bound of `residual_noise_floor` at u that costs two passes
    over u: 4*eps_mach*(2*level), where

        level = 2*eps*umax*max 1/(hm*hp) + (S + max|xi|)*umax*max(1/hm + 1/hp),

    umax = max|u| and S = sup |f'| over [min u, max u]. Each factor bounds
    its counterpart in every node's `_node_noise` and both terms are summed
    in the same association, so the exact level is at least each node's
    exact level; the factor 2 covers the few ulps by which either computed
    value can stray from its exact one, overflow to inf included."""
    inv_hmhp, inv_h, xmax = work.noise_maxima()
    lo, hi = float(u.min()), float(u.max())
    umax = max(-lo, hi)
    s = sup_derivative(problem.flux, lo, hi)
    level = 2.0 * problem.epsilon * umax * inv_hmhp + (s + xmax) * umax * inv_h
    return 4.0 * _EPS_MACH * (2.0 * level)


def jacobian(problem: ProfileProblem, profile: Profile,
             work: _Workspace | None = None) -> np.ndarray:
    """Analytic tridiagonal Jacobian of `residual`, in banded (3, n) storage
    for scipy.linalg.solve_banded; the boundary rows are identity. With a
    workspace `work` the band array is the workspace's own, overwritten by
    the next call."""
    w = work if work is not None else _Workspace(profile.xi)
    w.slopes(profile.u)
    w.speed_offset(problem.flux, profile.u)
    return _jacobian_band(problem, profile.u, w)


def _jacobian_band(problem: ProfileProblem, u: np.ndarray, w: _Workspace) -> np.ndarray:
    """`jacobian` at u from the central slope w.d1 and the offset
    w.c = f'(u) - xi that the workspace already holds for u, as `residual`
    leaves them."""
    (hphs, hmhp, hmhs, hpmhm), ab = w.jacobian_geometry()
    d1, c, t = w.d1, w.c, w.t
    eps = problem.epsilon

    # identity boundary rows; the unused corners of the band are zero
    ab[0, :2] = 0.0
    ab[2, -2:] = 0.0
    ab[1, [0, -1]] = 1.0
    # superdiagonal entries J[i, i+1], stored in ab[0, i+1]:
    # 2 eps / (hp hs) - c hm / (hp hs)
    sup = np.divide(2.0 * eps, hphs, out=ab[0, 2:])
    np.multiply(c, w.hm, out=t)
    t /= hphs
    sup -= t
    # diagonal: -2 eps / (hm hp) - c (hp - hm) / (hm hp) - f''(u) d1
    diag = np.divide(-2.0 * eps, hmhp, out=ab[1, 1:-1])
    np.multiply(c, hpmhm, out=t)
    t /= hmhp
    diag -= t
    second_derivative(problem.flux, u[1:-1], out=t)
    t *= d1
    diag -= t
    # subdiagonal entries J[i, i-1], stored in ab[2, i-1]:
    # 2 eps / (hm hs) + c hp / (hm hs)
    sub = np.divide(2.0 * eps, hmhs, out=ab[2, :-2])
    np.multiply(c, w.hp, out=t)
    t /= hmhs
    sub += t
    return ab


def _max_abs(r: np.ndarray) -> float:
    """max |r| (NaN if r has one) without an |r| temporary."""
    return abs(float(np.maximum(r.max(), -r.min())))


def _check_guess(profile: Profile):
    xi = np.asarray(profile.xi, dtype=float)
    if len(xi) < 3 or len(xi) != len(profile.u):
        raise InvalidParameterError("guess needs matching xi/u arrays, >= 3 nodes")
    if np.any(np.diff(xi) <= 0.0):
        raise InvalidParameterError("mesh nodes must be strictly increasing")


def newton_solve(problem: ProfileProblem, guess: Profile,
                 options: SolveOptions | None = None) -> tuple[Profile, SolveReport]:
    """Damped Newton iteration from the given guess on the guess's own mesh.

    Steps are backtracked (factor `damping`) until the sup-norm residual
    satisfies an Armijo-type decrease. Once the residual is at or below the
    floating-point noise floor of `residual_noise_floor`, a rejected full
    step ends the iteration: no shorter step can show a decrease that is
    not roundoff, and the solve is reported converged and `floor_limited`.
    Raises NonConvergenceError if the iteration stalls above both the
    tolerance and that floor, and LinearSolverError if a Newton system
    cannot be solved or gives a non-finite step; both carry the partial
    report.

    The floor is judged after each rejected full step, and after the loop
    when its last step was accepted; a loop that ended in a rejected full
    step reuses that verdict. Each judgement first compares the residual
    with `_noise_floor_bound`, an upper bound of the floor from the mesh
    maxima (computed once per solve) and the range of u. A residual above
    the bound is above the floor, so the floor is computed only for a
    residual at or below the bound, and every decision, iterate and report
    is the one the floor alone gives.

    Each Jacobian reuses the slopes and f'(u) - xi that the residual of the
    accepted step left in the workspace. The returned profile's slope is
    reconstructed only when read.
    """
    opts = options or SolveOptions()
    _check_guess(guess)
    xi = np.asarray(guess.xi, dtype=float)
    u = np.asarray(guess.u, dtype=float).copy()
    work = _Workspace(xi)
    trial = np.empty_like(u)

    r = residual(problem, Profile(xi, u), work)
    history = [_max_abs(r)]
    converged = history[-1] <= opts.newton_tol
    floor_limited = False
    at_floor = None          # whether history[-1] <= the floor at u, once known
    iterations = 0

    def residual_at_floor() -> bool:
        # the bound is at least the floor, so a residual above it is above
        # the floor too; only a residual at or below it needs the floor
        return not history[-1] > _noise_floor_bound(problem, u, work) \
            and history[-1] <= residual_noise_floor(problem, Profile(xi, u), work)

    def report() -> SolveReport:
        return SolveReport(converged=converged, iterations=iterations,
                           residual_history=tuple(history),
                           domain=(float(xi[0]), float(xi[-1])),
                           mesh_size=len(xi), floor_limited=floor_limited)

    while not converged and iterations < opts.max_iter:
        try:
            # the band array and the negated residual are scratch: LAPACK may
            # overwrite them instead of copying
            step = solve_banded((1, 1), _jacobian_band(problem, u, work), -r,
                                overwrite_ab=True, overwrite_b=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise LinearSolverError("banded solve failed: %s" % exc,
                                    report=report()) from exc
        if not np.all(np.isfinite(step)):
            raise LinearSolverError("banded solve produced non-finite step",
                                    report=report())
        # the boundary rows are identity; their exact solution keeps the
        # pivoting of the banded solve from moving the pinned end values
        step[0], step[-1] = -r[0], -r[-1]

        lam = 1.0
        accepted = False
        for _ in range(opts.max_halvings + 1):
            np.multiply(step, lam, out=trial)
            trial += u
            rt = residual(problem, Profile(xi, trial), work)
            nt = _max_abs(rt)
            if nt <= (1.0 - _ARMIJO * lam) * history[-1] or nt <= opts.newton_tol:
                u, trial, r = trial, u, rt
                history.append(nt)
                accepted = True
                at_floor = None
                break
            if lam == 1.0:
                at_floor = residual_at_floor()
                if at_floor:
                    break
            lam *= opts.damping
        iterations += 1
        if not accepted:
            break
        if history[-1] <= opts.newton_tol:
            converged = True

    if not converged:
        # a line search that took no step has judged u already
        converged = floor_limited = at_floor if at_floor is not None \
            else residual_at_floor()

    if not converged:
        raise NonConvergenceError(
            "Newton stalled at residual %.3e (tol %.3e) after %d iterations"
            % (history[-1], opts.newton_tol, iterations),
            report=report(), epsilon=problem.epsilon)
    return Profile(xi, u), report()


def _decreasing_schedule(values) -> tuple:
    """`values` as a tuple of floats, checked to be a nonempty, finite,
    positive and strictly decreasing sequence of viscosities."""
    schedule = tuple(float(e) for e in values)
    if len(schedule) == 0:
        raise InvalidParameterError("need at least one viscosity")
    if any(not (np.isfinite(e) and e > 0.0) for e in schedule):
        raise InvalidParameterError("viscosities must be finite and positive")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise InvalidParameterError("viscosities must be strictly decreasing")
    return schedule


def _warm_start(stage: ProfileProblem, previous: Profile | None,
                opts: SolveOptions) -> Profile:
    """Newton guess on a fresh mesh for `stage`: the previous profile
    linearly interpolated, with the end values pinned to the data, or
    `initial_guess` if there is none."""
    mesh = build_mesh(stage, opts.domain, opts)
    if previous is None:
        return initial_guess(stage, mesh)
    u0 = np.interp(mesh, previous.xi, previous.u)
    u0[0] = stage.u_left
    u0[-1] = stage.u_right
    return Profile(mesh, u0)


def solve_profile(problem: ProfileProblem,
                  options: SolveOptions | None = None) -> tuple[Profile, SolveReport]:
    """Solve for the viscous profile at problem.epsilon, at that viscosity
    first.

    Newton starts from `initial_guess` on the target's own mesh: each
    shock's travelling wave, centred by mass balance, on the mollified
    inviscid solution (the mollified jump alone for a shock without a
    travelling wave), which puts a shock's Newton iteration near its
    quadratic phase from the start.
    Continuation is the fallback: if Newton at a stage raises
    NonConvergenceError or LinearSolverError, a stage at the geometric mean
    of the failed viscosity and the last solved one (1.0 before any) is
    solved first, and the failed stage is retried from it. Back-off ends,
    re-raising the failure, once the last solved viscosity is less than 1.1
    times the failed one. Each failure halves the logarithmic gap, so at
    most log2(ln(gap) / ln 1.1) + 1 stages are pushed in a row (5 for a gap
    of 10), and each solved stage cuts the gap by a factor of at least
    sqrt(1.1): the solve always ends.

    Each stage truncates and meshes for its own viscosity and warm-starts
    from the last solved stage (linearly reinterpolated); every stage but
    the target is solved to the loose tolerance max(newton_tol, 1e-8). The
    returned profile carries its slope. The report is the final stage's,
    with `stages` and `iterations` counting every Newton attempt, failed
    ones included.
    """
    opts = options or SolveOptions()
    pending = [problem.epsilon]             # the next stage is last
    profile = None
    solved_eps = 1.0
    stages = iterations = 0
    while pending:
        stage = replace(problem, epsilon=pending[-1])
        tol = opts.newton_tol if len(pending) == 1 else max(opts.newton_tol, 1e-8)
        stages += 1
        try:
            profile, report = newton_solve(stage, _warm_start(stage, profile, opts),
                                           replace(opts, newton_tol=tol))
        except (NonConvergenceError, LinearSolverError) as exc:
            iterations += exc.report.iterations
            if solved_eps < _BACKOFF_RATIO * stage.epsilon:
                raise
            pending.append(math.sqrt(solved_eps * stage.epsilon))
            continue
        iterations += report.iterations
        solved_eps = pending.pop()
    du = reconstruct_derivative(profile.xi, profile.u)
    return (Profile(profile.xi, profile.u, du),
            replace(report, stages=stages, iterations=iterations))


def continuation_sweep(problem: ProfileProblem, epsilons,
                       options: SolveOptions | None = None) -> list:
    """Profiles at a strictly decreasing sequence of viscosities, each
    solved by `solve_profile` exactly as a single viscosity is: the
    profile at a viscosity does not depend on the others. Returns
    [(epsilon, Profile), ...], each profile with its slope."""
    return [(e, solve_profile(replace(problem, epsilon=e), options)[0])
            for e in _decreasing_schedule(epsilons)]


def sample_profile(profile: Profile, xi):
    """Piecewise-linear sample of the profile (end values beyond the mesh)."""
    return np.interp(xi, profile.xi, profile.u)
