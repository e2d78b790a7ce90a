"""One benchmark worker: a fresh interpreter that imports wavefan from the
checkout's src/, warms up, runs a plan of ops one at a time and checks each
op's output.

Usage (the driver script `run.py` writes the job file):

    python3 bench/worker.py JOB.json

The job names the workload, the ops, the mode ("setup" stops after the
warm-up) and whether to trace. The result JSON holds the monotonic time at
which the first op could start, one record per op (wall time, pass/fail,
failure names, output digest, L1 ratio) and the peak resident memory; a
traced run adds the per-layer metrics and writes its spans to a gzipped
CSV beside the result.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import time


def _digest_bytes(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


class OpRecord(dict):
    """wall_s, cpu_s, ok (op succeeded), output_ok (benchmark check passed),
    reasons (failure names), notes (anomalies that do not fail the op),
    digest, l1_ratio."""

    def fail(self, reason, output_error=False):
        self["ok"] = False
        self["reasons"].append(reason)
        if output_error:
            self["output_ok"] = False


def _new_record(wall):
    return OpRecord(wall_s=wall, ok=True, output_ok=True, reasons=[], notes=[],
                    digest=None, l1_ratio=None)


# -- output checks shared by the profile workloads ----------------------------

def check_profile(wf, np, rec, op, xi, u, expected_nodes):
    """Record failures of the profile-level output checks; return L1 ratio."""
    ul, ur, eps = op["u_left"], op["u_right"], op["eps"]
    if len(xi) != expected_nodes or len(u) != len(xi):
        rec.fail("node count %d != reported %d" % (len(xi), expected_nodes), True)
        return None
    if not (np.all(np.isfinite(xi)) and np.all(np.isfinite(u))):
        rec.fail("non-finite profile", True)
        return None
    if np.any(np.diff(xi) <= 0.0):
        rec.fail("mesh not increasing", True)
    # The end nodes are pinned by the boundary rows of Newton's residual,
    # which the solve drives below its tolerance; a nonzero gap is noted per
    # op in ulps of the state size, a gap beyond the tolerance fails the op.
    end_gap = max(abs(u[0] - ul), abs(u[-1] - ur))
    if end_gap > wf.SolveOptions().newton_tol:
        rec.fail("end values differ from the data", True)
    elif end_gap > 0.0:
        rec["notes"].append("end value %.2g ulp from the data"
                            % (end_gap / np.spacing(max(abs(ul), abs(ur)))))
    if np.any(np.sign(ur - ul) * np.diff(u) < 0.0):
        rec.fail("profile not monotone", True)
    flux =wf.parse_flux_token(op["flux"])
    exact = wf.riemann.solve_exact(flux, ul, ur)
    span = wf.riemann.wave_speed_span(exact)
    lo, hi = max(span[0] - 0.5, xi[0]), min(span[1] + 0.5, xi[-1])
    inner = xi[(xi > lo) & (xi < hi)]
    xs = np.concatenate([[lo], inner, [hi]])
    gap = np.abs(np.interp(xs, xi, u) - wf.riemann.eval_riemann(exact, xs))
    l1 = float(np.sum(0.5 * (gap[1:] + gap[:-1]) * np.diff(xs)))
    ratio = l1 / (max(1.0, abs(ur - ul)) * math.sqrt(eps))
    if not ratio <= 1.0:
        rec.fail("l1_err_ratio %.3g > 1" % ratio, True)
    return ratio


# -- workloads ----------------------------------------------------------------

class ColdData:
    """`wavefan solve` in-process on fresh Riemann data, CSV and report out."""

    def __init__(self, wf, np, scratch):
        self.wf, self.np = wf, np
        self.csv = os.path.join(scratch, "op.csv")
        self.report = os.path.join(scratch, "op.json")

    def warmup(self):
        self._solve({"flux": "burgers", "u_left": 2.0, "u_right": -2.0, "eps": 0.05})

    def _solve(self, op):
        for path in (self.csv, self.report):
            if os.path.exists(path):
                os.remove(path)
        return self.wf.cli_io.main([
            "solve", "--flux", op["flux"], "--ul=%r" % op["u_left"],
            "--ur=%r" % op["u_right"], "--eps=%r" % op["eps"],
            "--out", self.csv, "--report", self.report])

    def execute(self, op):
        return lambda: self._solve(op)

    def corrupt(self, raw):
        with open(self.csv, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        with open(self.csv, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[:-1]) + "\n")
        return raw

    def check(self, rec, op, raw):
        if raw != 0:
            rec.fail("exit code %r" % (raw,), True)
            return
        with open(self.csv, "rb") as handle:
            csv_bytes = handle.read()
        with open(self.report, "rb") as handle:
            report_bytes = handle.read()
        rec["digest"] = _digest_bytes(csv_bytes, report_bytes)
        report = json.loads(report_bytes)
        if report.get("converged") is not True:
            rec.fail("report not converged", True)
        try:
            prof = self.wf.cli_io.read_profile(self.csv)
        except self.wf.ProfileFormatError as exc:
            rec.fail("read_profile: %s" % exc, True)
            return
        rec["l1_ratio"] = check_profile(self.wf, self.np, rec, op, prof.xi, prof.u,
                                        report.get("mesh_size"))


class EpsLadder:
    """solve_profile on the three ROADMAP cases across eps in [5e-4, 5e-2]."""

    def __init__(self, wf, np, scratch):
        self.wf, self.np = wf, np

    def warmup(self):
        from plans import LADDER_CASES
        for _case, flux, ul, ur in LADDER_CASES:
            self.wf.riemann.solve_exact(self.wf.parse_flux_token(flux), ul, ur)

    def execute(self, op):
        problem = self.wf.ProfileProblem(self.wf.parse_flux_token(op["flux"]),
                                         op["u_left"], op["u_right"], op["eps"])
        return lambda: self.wf.profile_bvp.solve_profile(problem)

    def corrupt(self, raw):
        profile, report = raw
        u = profile.u.copy()
        u[len(u) // 2] -= 2.0 * (u[-1] - u[0])
        return self.wf.Profile(profile.xi, u, profile.du), report

    def check(self, rec, op, raw):
        profile, report = raw
        rec["digest"] = _digest_bytes(
            profile.xi.tobytes(), profile.u.tobytes(), profile.du.tobytes(),
            repr((report.converged, report.iterations, report.residual_history,
                  report.mesh_size, report.floor_limited, report.stages)).encode())
        if not report.converged:
            rec.fail("report not converged", True)
        rec["l1_ratio"] = check_profile(self.wf, self.np, rec, op, profile.xi,
                                        profile.u, report.mesh_size)


# verdict rule of each check in run_battery: pass == rule(value, threshold)
_CHECK_RULES = {
    "monotone": lambda v, t: v >= t,
    "l1_window": lambda v, t: v <= t,
    "first_integral_spread": lambda v, t: v <= t,
    "translation_invariance": lambda v, t: v <= t,
    "symmetry": lambda v, t: v <= t,
    "corner_remainder": lambda v, t: math.isfinite(v),
    "sliding_margin": lambda v, t: v > t,
    "barrier_margin": lambda v, t: v < t,
    "sweeping_margin": lambda v, t: v > t,
    "uniqueness_probe": lambda v, t: v <= t,
}


class Certify:
    """run_battery on the jittered {burgers, cubic} x {shock, rarefaction} x
    eps grid; failing checks and raised errors are recorded by name."""

    def __init__(self, wf, np, scratch):
        self.wf, self.np = wf, np

    def warmup(self):
        problem = self.wf.ProfileProblem(self.wf.burgers_flux(), 2.0, -2.0, 0.05)
        self.wf.verification.run_battery(problem, seed=1)

    def execute(self, op):
        problem = self.wf.ProfileProblem(self.wf.parse_flux_token(op["flux"]),
                                         op["u_left"], op["u_right"], op["eps"])
        # the probe seed `wavefan verify` uses by default
        seed = self.wf.verification.DEFAULT_PROBE_SEED
        return lambda: self.wf.verification.run_battery(problem, seed=seed)

    def corrupt(self, raw):
        checks, diagnostics = raw
        checks["monotone"]["pass"] = not checks["monotone"]["pass"]
        return checks, diagnostics

    def check(self, rec, op, raw):
        checks, diag = raw
        rec["digest"] = _digest_bytes(json.dumps(
            [checks, diag.K, diag.M, diag.lam, diag.margins],
            sort_keys=True).encode())
        expected = {"monotone", "l1_window", "uniqueness_probe",
                    "sliding_margin" if op["u_left"] < op["u_right"] else "sweeping_margin"}
        if op["flux"] == "burgers":
            expected |= {"first_integral_spread", "translation_invariance"}
        for name in sorted(expected - set(checks)):
            rec.fail("missing check %s" % name, True)
        for name, entry in sorted(checks.items()):
            rule = _CHECK_RULES.get(name)
            value, threshold, ok = entry.get("value"), entry.get("threshold"), entry.get("pass")
            if rule is None or not isinstance(ok, bool) \
                    or not isinstance(value, float) or not isinstance(threshold, float) \
                    or math.isnan(value) or math.isnan(threshold) \
                    or ok != bool(rule(value, threshold)):
                rec.fail("malformed check %s" % name, True)
            elif not ok:
                rec.fail(name)
        entry = checks.get("l1_window")
        if entry and entry.get("threshold"):
            rec["l1_ratio"] = entry["value"] / entry["threshold"]


WORKLOADS = {"cold-data": ColdData, "eps-ladder": EpsLadder, "certify": Certify}


def main(job_path):
    with open(job_path, "r", encoding="utf-8") as handle:
        job = json.load(handle)
    sys.path.insert(0, job["src_dir"])
    import numpy as np
    import wavefan as wf

    tracer = None
    if job.get("trace"):
        from tracer import WARMUP_OP, Tracer
        tracer = Tracer()
        tracer.install(wf)
    workload = WORKLOADS[job["workload"]](wf, np, job["scratch_dir"])
    if tracer is None:
        workload.warmup()
    else:
        tracer.run_op(WARMUP_OP, workload.warmup)
    result = {"t_ready": time.monotonic()}
    if job["mode"] == "run":
        result["versions"] = _versions(np)
        result["ops"] = _run_ops(wf, workload, job, tracer)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            n_ops = len(result["ops"])
            result["per_layer"], result["layer_table"] = tracer.per_layer(
                n_ops, job["untraced_op_s"])
            tracer.write_spans(job["spans_path"])
    with open(job["result_path"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)


def _versions(np):
    import scipy
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version"))}


def _run_ops(wf, workload, job, tracer):
    records = []
    for index, op in enumerate(job["ops"]):
        call = workload.execute(op)
        c0 = time.process_time()
        if tracer is not None:
            raw, wall = tracer.run_op(index, call)
        else:
            t0 = time.perf_counter()
            try:
                raw = call()
            except Exception as exc:  # an op failure is a result to record
                raw = exc
            wall = time.perf_counter() - t0
        rec = _new_record(wall)
        rec["cpu_s"] = time.process_time() - c0
        if isinstance(raw, Exception):
            rec["digest"] = _digest_bytes(repr(raw).encode())
            # wavefan errors are verdicts a caller can act on; anything else
            # means the program misbehaved
            rec.fail(type(raw).__name__, not isinstance(raw, wf.WavefanError))
        else:
            if index == job.get("corrupt_op"):
                raw = workload.corrupt(raw)
            workload.check(rec, op, raw)
        records.append(rec)
    return records


if __name__ == "__main__":
    main(sys.argv[1])
