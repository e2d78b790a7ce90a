"""Seeded op plans for the three benchmark workloads.

Pure standard library, so the driver script can build and digest a plan
without importing numpy. A plan is a list of JSON-ready dicts; the worker
turns each into one call of a public wavefan entry point.

Plan size follows the measuring time: each workload has a nominal cost per
op on the reference host (2-core Xeon, Python 3.11, single-threaded BLAS),
and a run of `seconds` gets about seconds / cost ops. The op count depends
only on (workload, seconds), and the inputs only on (workload, seed,
seconds), so two runs with the same arguments execute identical inputs and
their output digests can be compared.

Every op gets data no earlier op used, so the program's solve_exact cache
never hides the cost of a cold solve. The op mix is otherwise held still
across seeds, because the runs of different seeds are compared with each
other: viscosities are antithetic stratified samples (one seeded shift u
places the points (j + u) / m and (j + 1 - u) / m of [0, 1) on log(eps),
so each is log-uniform but the set covers the range evenly), and states are
small seeded jitters around a fixed design. The jitters are small because
the largest meshes, which set the peak memory, grow steeply with the states
(the quartic flux near |u| = 1.5, the cubic rarefaction's barrier re-solve).
Ops run in a fixed order, so the allocator sees the same sequence of
problem sizes for every seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("cold-data", "eps-ladder", "certify")

COLD_FLUXES = ("burgers", "poly:0,0,0,1", "poly:0,0,-1,0,1")
COLD_EPS = (0.02, 0.1)
COLD_STATES = (-1.5, 1.5)
COLD_JITTER = 0.01

LADDER_CASES = (
    ("burgers-shock", "burgers", 1.0, -1.0),
    ("burgers-rarefaction", "burgers", -1.0, 1.0),
    ("cubic-composite", "poly:0,0,0,1", -1.0, 1.0),
)
LADDER_EPS = (5e-4, 5e-2)

CERTIFY_FLUXES = (("burgers", "burgers"), ("cubic", "poly:0,0,0,1"))
CERTIFY_WAVES = (("shock", 1.0, -1.0), ("rarefaction", -1.0, 1.0))
CERTIFY_EPS = (0.05, 0.01, 0.005)
CERTIFY_JITTER = 0.005

# nominal seconds per op on the reference host; sets the op count per run
_NOMINAL_OP_S = {"cold-data": 0.37, "eps-ladder": 0.42, "certify": 1.0}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random("wavefan-bench/%s/%d" % (workload, seed))


def _log_stratified(rng: random.Random, m: int, lo: float, hi: float) -> list[float]:
    """2m antithetic stratified draws, each log-uniform on [lo, hi]: the
    points (j + u) / m and (j + 1 - u) / m of [0, 1) mapped onto log(eps)."""
    u = rng.random()
    points = [(j + u) / m for j in range(m)] + [(j + 1.0 - u) / m for j in range(m)]
    return [lo * math.exp(p * math.log(hi / lo)) for p in points]


def _cold_data(rng: random.Random, budget: float) -> list[dict]:
    """Per flux, one op for each ordered pair of distinct cell centres of a
    k-cell split of the state interval, each state jittered by up to
    COLD_JITTER; the pairs get a stratified eps sample through a fixed
    permutation."""
    k = max(2, round(0.5 + math.sqrt(0.25 + budget / len(COLD_FLUXES))))
    lo, hi = COLD_STATES
    centres = [lo + (i + 0.5) * (hi - lo) / k for i in range(k)]
    pairs = [(a, b) for a in centres for b in centres if a != b]
    per_flux = []
    for flux in COLD_FLUXES:
        eps = _log_stratified(rng, len(pairs) // 2, *COLD_EPS)
        order = list(range(len(pairs)))
        random.Random(flux).shuffle(order)
        per_flux.append([eps[i] for i in order])
    return [{"flux": flux, "eps": eps[p],
             "u_left": a + rng.uniform(-COLD_JITTER, COLD_JITTER),
             "u_right": b + rng.uniform(-COLD_JITTER, COLD_JITTER)}
            for p, (a, b) in enumerate(pairs)
            for flux, eps in zip(COLD_FLUXES, per_flux)]


def _eps_ladder(rng: random.Random, budget: float) -> list[dict]:
    m = max(1, round(budget / (2 * len(LADDER_CASES))))
    ladders = [_log_stratified(rng, m, *LADDER_EPS) for _ in LADDER_CASES]
    return [{"case": case, "flux": flux, "u_left": ul, "u_right": ur, "eps": eps[i]}
            for i in range(2 * m)
            for (case, flux, ul, ur), eps in zip(LADDER_CASES, ladders)]


def _certify(rng: random.Random, budget: float) -> list[dict]:
    grid = len(CERTIFY_FLUXES) * len(CERTIFY_WAVES) * len(CERTIFY_EPS)
    ops = []
    for _ in range(max(1, round(budget / grid))):
        for name, flux in CERTIFY_FLUXES:
            for wave, ul, ur in CERTIFY_WAVES:
                for eps in CERTIFY_EPS:
                    ops.append({
                        "case": "%s-%s-%g" % (name, wave, eps), "flux": flux,
                        "u_left": ul + rng.uniform(-CERTIFY_JITTER, CERTIFY_JITTER),
                        "u_right": ur + rng.uniform(-CERTIFY_JITTER, CERTIFY_JITTER),
                        "eps": eps})
    return ops


_BUILDERS = {"cold-data": _cold_data, "eps-ladder": _eps_ladder, "certify": _certify}


def make_plan(workload: str, seed: int, seconds: float) -> list[dict]:
    """Ops for one run, in a fixed order."""
    return _BUILDERS[workload](_rng(workload, seed), seconds / _NOMINAL_OP_S[workload])


def digest(obj) -> str:
    """sha256 of the canonical JSON text (floats as shortest round-trip repr)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
