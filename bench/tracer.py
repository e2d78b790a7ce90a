"""Span tracing of the wavefan modules from outside the package.

`Tracer.install` replaces every public function in every wavefan namespace
that holds one (a function imported into three modules is wrapped in all
three, by one shared wrapper) plus scipy's `solve_banded` as bound in
`profile_bvp`. Module-level lookups happen at call time, so calls between
functions of one module go through the wrappers too. Nothing under `src/`
is edited.

Spans are kept in memory as rows (parent, op, name, start, duration, self
time, returned normally); self time is a span's duration minus the time of
its direct children. Spans are recorded only while an op is open, so the
benchmark's own output checks never show up. A few functions also record
counts taken from their return values (mesh length, SolveReport,
ProbeResult, NonConvergenceError.report, bytes written).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import os
import time
from collections import defaultdict

WARMUP_OP = -1

FLUX_FUNCS = ("flux.evaluate", "flux.derivative", "flux.second_derivative",
              "flux.chord_slope_Q")
CHECK_FUNCS = ("verification.check_monotone", "verification.check_symmetry",
               "verification.check_corner_expansion", "verification.l1_window_error",
               "verification.sliding_supersolution_margin",
               "verification.sweeping_supersolution_margin",
               "verification.sliding_constant_M", "verification.barrier_operator_margin",
               "verification.translation_invariance_check",
               "verification.windowed_by_slope")

# per-layer metrics: name -> unit; "per op" values are totals over the
# measured ops divided by the op count
PER_LAYER = {
    "riemann.solve_exact.self_s": "s/op",
    "riemann.solve_exact.calls": "calls/op",
    "riemann.solve_exact.cold_calls": "calls/op",
    "riemann.solve_exact.share": "ratio",
    "riemann.eval_riemann.self_s": "s/op",
    "flux.self_s": "s/op",
    "flux.derivative.calls": "calls/op",
    "flux.chord_slope_Q.calls": "calls/op",
    "profile_bvp.build_mesh.self_s": "s/op",
    "profile_bvp.build_mesh.calls": "calls/op",
    "profile_bvp.build_mesh.nodes": "nodes/op",
    "profile_bvp.build_mesh.share": "ratio",
    "profile_bvp.reconstruct_derivative.self_s": "s/op",
    "profile_bvp.reconstruct_derivative.calls": "calls/op",
    "profile_bvp.reconstruct_derivative.nodes": "nodes/op",
    "profile_bvp.reconstruct_derivative.share": "ratio",
    "profile_bvp.initial_guess.self_s": "s/op",
    "profile_bvp.newton_solve.self_s": "s/op",
    "profile_bvp.newton_solve.calls": "calls/op",
    "profile_bvp.newton_solve.iterations": "iter/op",
    "profile_bvp.newton_solve.converged_ratio": "ratio",
    "profile_bvp.newton_solve.floor_limited_ratio": "ratio",
    "profile_bvp.residual.self_s": "s/op",
    "profile_bvp.residual.calls": "calls/op",
    "profile_bvp.jacobian.self_s": "s/op",
    "profile_bvp.solve_banded.self_s": "s/op",
    "profile_bvp.line_search.accept_ratio": "ratio",
    "profile_bvp.solve_profile.calls": "calls/op",
    "profile_bvp.solve_profile.stages": "stages/op",
    "corner_layer.solve_corner.self_s": "s/op",
    "corner_layer.solve_corner.calls": "calls/op",
    "verification.run_battery.self_s": "s/op",
    "verification.run_battery.solves": "solves/op",
    "verification.checks.self_s": "s/op",
    "verification.uniqueness_probe.self_s": "s/op",
    "verification.uniqueness_probe.converged_ratio": "ratio",
    "cli_io.main.self_s": "s/op",
    "cli_io.write_profile.self_s": "s/op",
    "cli_io.write_profile.bytes": "B/op",
    "trace.op_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    def __init__(self):
        self.names = []          # name index -> qualified function name
        self.rows = []           # one tuple per span, see module docstring
        self.counts = {}         # span id -> counts taken from the result
        self.exact_keys = set()  # distinct solve_exact arguments seen so far
        self.op = None
        self._stack = []         # [span id, time covered by children]
        self._root = self.wrap("op", lambda fn: fn())

    # -- installation ------------------------------------------------------

    def install(self, package):
        """Wrap the public functions of every wavefan module in place."""
        bvp = importlib.import_module(package.__name__ + ".profile_bvp")
        modules = [package, bvp] + [importlib.import_module("%s.%s" % (package.__name__, m))
                                    for m in ("flux", "riemann", "corner_layer",
                                              "verification", "cli_io")]
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith(package.__name__ + "."):
                    continue
                if id(obj) not in wrappers:
                    name = "%s.%s" % (home.rsplit(".", 1)[-1], obj.__name__)
                    hook = _HOOKS.get(name)
                    if name == "riemann.solve_exact":
                        hook = self._exact_hook(inspect.signature(obj))
                    wrappers[id(obj)] = self.wrap(name, obj, hook)
                setattr(module, attr, wrappers[id(obj)])
        bvp.solve_banded = self.wrap("profile_bvp.solve_banded", bvp.solve_banded)

    def _exact_hook(self, signature):
        def hook(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            key = (bound.arguments["flux"], float(bound.arguments["u_left"]),
                   float(bound.arguments["u_right"]))
            if key not in self.exact_keys:
                self.exact_keys.add(key)
                return {"cold": 1}
            return None
        return hook

    def wrap(self, name, fn, hook=None):
        index = len(self.names)
        self.names.append(name)
        perf = time.perf_counter
        stack = self._stack
        rows = self.rows

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            sid = len(rows)
            rows.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(sid, parent, index, t0, perf() - t0, frame, False)
                if hook is not None:
                    self._count(sid, hook(args, kwargs, exc))
                raise
            self._close(sid, parent, index, t0, perf() - t0, frame, True)
            if hook is not None:
                self._count(sid, hook(args, kwargs, result))
            return result

        return wrapper

    def _close(self, sid, parent, index, t0, dt, frame, ok):
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += dt
        self.rows[sid] = (parent, self.op, index, t0, dt, dt - frame[1], ok)

    def _count(self, sid, counts):
        if counts:
            self.counts[sid] = counts

    # -- ops ---------------------------------------------------------------

    def run_op(self, op_index, fn):
        """Call fn() as the root span of op `op_index`; returns (result, wall)."""
        self.op = op_index
        try:
            t0 = time.perf_counter()
            try:
                return self._root(fn), time.perf_counter() - t0
            except Exception as exc:
                return exc, time.perf_counter() - t0
        finally:
            self.op = None

    # -- results -----------------------------------------------------------

    def write_spans(self, path):
        """Gzipped CSV: id,parent,op,name,start_s,duration_s,self_s,ok."""
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as out:
            out.write("id,parent,op,name,start_s,duration_s,self_s,ok\n")
            for sid, (parent, op, index, t0, dt, self_dt, ok) in enumerate(self.rows):
                out.write("%d,%d,%d,%s,%.9f,%.9f,%.9f,%d\n"
                          % (sid, parent, op, self.names[index], t0, dt, self_dt, ok))

    def layer_table(self):
        """Per function name over measured ops: calls, self and total time."""
        table = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for parent, op, index, _, dt, self_dt, _ok in self.rows:
            if op == WARMUP_OP:
                continue
            entry = table[self.names[index]]
            entry["calls"] += 1
            entry["self_s"] += self_dt
            entry["total_s"] += dt
        return dict(table)

    def per_layer(self, n_ops, untraced_op_s):
        """The PER_LAYER metrics; ratios with an empty base read 0."""
        table = self.layer_table()
        op_s = table.get("op", {}).get("total_s", 0.0)

        def self_s(name):
            return table.get(name, {}).get("self_s", 0.0)

        def calls(name):
            return table.get(name, {}).get("calls", 0)

        def ratio(num, den):
            return num / den if den else 0.0

        # structure: residual evaluations per Newton span, solves made
        # directly by run_battery, Newton outcomes under a probe that raised
        residuals = defaultdict(int)
        battery_solves = 0
        sums = defaultdict(float)
        for parent, op, index, _t0, _dt, _self, ok in self.rows:
            if op == WARMUP_OP or parent < 0:
                continue
            name, parent_name = self.names[index], self.names[self.rows[parent][2]]
            if name == "profile_bvp.residual":
                residuals[parent] += 1
            elif name == "profile_bvp.solve_profile" \
                    and parent_name == "verification.run_battery":
                battery_solves += 1
            elif name == "profile_bvp.newton_solve" \
                    and parent_name == "verification.uniqueness_probe" \
                    and not self.rows[parent][6]:
                sums["verification.uniqueness_probe.n_converged" if ok
                     else "verification.uniqueness_probe.n_failed"] += 1
        for sid, counts in self.counts.items():
            _parent, op, index, *_rest = self.rows[sid]
            if op == WARMUP_OP:
                continue
            name = self.names[index]
            for key, value in counts.items():
                sums[name + "." + key] += value
            if name == "profile_bvp.newton_solve":
                # one residual for the start, one per iteration for the step,
                # the rest are line-search trials
                sums["newton.trials"] += residuals[sid] - 1 - counts["iterations"]

        per_op = 1.0 / n_ops
        probe_runs = sums["verification.uniqueness_probe.n_converged"] \
            + sums["verification.uniqueness_probe.n_failed"]
        newton_conv = sums["profile_bvp.newton_solve.converged"]
        values = {
            "riemann.solve_exact.self_s": self_s("riemann.solve_exact") * per_op,
            "riemann.solve_exact.calls": calls("riemann.solve_exact") * per_op,
            "riemann.solve_exact.cold_calls": sums["riemann.solve_exact.cold"] * per_op,
            "riemann.solve_exact.share": ratio(self_s("riemann.solve_exact"), op_s),
            "riemann.eval_riemann.self_s": self_s("riemann.eval_riemann") * per_op,
            "flux.self_s": sum(self_s(n) for n in FLUX_FUNCS) * per_op,
            "flux.derivative.calls": calls("flux.derivative") * per_op,
            "flux.chord_slope_Q.calls": calls("flux.chord_slope_Q") * per_op,
            "profile_bvp.build_mesh.self_s": self_s("profile_bvp.build_mesh") * per_op,
            "profile_bvp.build_mesh.calls": calls("profile_bvp.build_mesh") * per_op,
            "profile_bvp.build_mesh.nodes": sums["profile_bvp.build_mesh.nodes"] * per_op,
            "profile_bvp.build_mesh.share": ratio(self_s("profile_bvp.build_mesh"), op_s),
            "profile_bvp.reconstruct_derivative.self_s":
                self_s("profile_bvp.reconstruct_derivative") * per_op,
            "profile_bvp.reconstruct_derivative.calls":
                calls("profile_bvp.reconstruct_derivative") * per_op,
            "profile_bvp.reconstruct_derivative.nodes":
                sums["profile_bvp.reconstruct_derivative.nodes"] * per_op,
            "profile_bvp.reconstruct_derivative.share":
                ratio(self_s("profile_bvp.reconstruct_derivative"), op_s),
            "profile_bvp.initial_guess.self_s": self_s("profile_bvp.initial_guess") * per_op,
            "profile_bvp.newton_solve.self_s": self_s("profile_bvp.newton_solve") * per_op,
            "profile_bvp.newton_solve.calls": calls("profile_bvp.newton_solve") * per_op,
            "profile_bvp.newton_solve.iterations":
                sums["profile_bvp.newton_solve.iterations"] * per_op,
            "profile_bvp.newton_solve.converged_ratio":
                ratio(newton_conv, calls("profile_bvp.newton_solve")),
            "profile_bvp.newton_solve.floor_limited_ratio":
                ratio(sums["profile_bvp.newton_solve.floor_limited"], newton_conv),
            "profile_bvp.residual.self_s": self_s("profile_bvp.residual") * per_op,
            "profile_bvp.residual.calls": calls("profile_bvp.residual") * per_op,
            "profile_bvp.jacobian.self_s": self_s("profile_bvp.jacobian") * per_op,
            "profile_bvp.solve_banded.self_s": self_s("profile_bvp.solve_banded") * per_op,
            "profile_bvp.line_search.accept_ratio":
                ratio(sums["profile_bvp.newton_solve.accepted"], sums["newton.trials"]),
            "profile_bvp.solve_profile.calls": calls("profile_bvp.solve_profile") * per_op,
            "profile_bvp.solve_profile.stages":
                sums["profile_bvp.solve_profile.stages"] * per_op,
            "corner_layer.solve_corner.self_s": self_s("corner_layer.solve_corner") * per_op,
            "corner_layer.solve_corner.calls": calls("corner_layer.solve_corner") * per_op,
            "verification.run_battery.self_s": self_s("verification.run_battery") * per_op,
            "verification.run_battery.solves": battery_solves * per_op,
            "verification.checks.self_s": sum(self_s(n) for n in CHECK_FUNCS) * per_op,
            "verification.uniqueness_probe.self_s":
                self_s("verification.uniqueness_probe") * per_op,
            "verification.uniqueness_probe.converged_ratio":
                ratio(sums["verification.uniqueness_probe.n_converged"], probe_runs),
            "cli_io.main.self_s": self_s("cli_io.main") * per_op,
            "cli_io.write_profile.self_s": self_s("cli_io.write_profile") * per_op,
            "cli_io.write_profile.bytes": sums["cli_io.write_profile.bytes"] * per_op,
            "trace.op_s": op_s * per_op,
            "trace.overhead_ratio": ratio(op_s, untraced_op_s),
        }
        return values, table


# -- counts taken from return values ------------------------------------------

def _nodes(args, kwargs, result):
    return None if isinstance(result, BaseException) else {"nodes": len(result)}


def _newton(args, kwargs, result):
    report = getattr(result, "report", None) if isinstance(result, BaseException) \
        else result[1]
    if report is None:           # LinearSolverError carries no report
        return {"iterations": 0, "accepted": 0, "converged": 0, "floor_limited": 0}
    return {"iterations": report.iterations,
            "accepted": len(report.residual_history) - 1,
            "converged": int(report.converged),
            "floor_limited": int(report.floor_limited)}


def _stages(args, kwargs, result):
    return None if isinstance(result, BaseException) else {"stages": result[1].stages}


def _probe(args, kwargs, result):
    if isinstance(result, BaseException):
        return None              # counted from the probe's Newton children
    return {"n_converged": result.n_converged, "n_failed": result.n_failed}


def _bytes(args, kwargs, result):
    if isinstance(result, BaseException):
        return None
    path = kwargs["path"] if "path" in kwargs else args[1]
    return {"bytes": os.path.getsize(path)}


_HOOKS = {
    "profile_bvp.build_mesh": _nodes,
    "profile_bvp.reconstruct_derivative": _nodes,
    "profile_bvp.newton_solve": _newton,
    "profile_bvp.solve_profile": _stages,
    "verification.uniqueness_probe": _probe,
    "cli_io.write_profile": _bytes,
}
