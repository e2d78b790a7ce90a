"""wavefan benchmark: one closed-loop, single-threaded client driving the
public entry points (`cli_io.main`, `solve_profile`, `run_battery`).

Run from the repository root:

    python3 bench/run.py --workload cold-data --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each exists):
  cold-data   `wavefan solve` in-process on fresh seeded Riemann data
  eps-ladder  solve_profile on the ROADMAP cases, eps log-uniform in [5e-4, 5e-2]
  certify     run_battery on the jittered ROADMAP item-3 grid

`--trace 0` runs the plan in one fresh worker and reports the end-to-end
metrics; set-up time is the median over three fresh interpreters (a fourth,
untimed one runs first to warm the bytecode and file caches). `--trace 1`
runs the half-length plan twice, untraced and then traced, each in a fresh
worker so both see cold caches, and reports the per-layer metrics and the
tracing overhead. The worker imports wavefan from ./src with every BLAS and
OpenMP pool pinned to one thread.

Human-readable lines come first; the last line of stdout is the JSON
result. A detailed report (host, environment, per-op records, failure
names, input and output digests) goes to bench/out/BENCH_<workload>_seed<seed>_trace<t>.json.
`--ops N` truncates the plan and `--corrupt-op K` damages op K's output
before it is checked; both exist for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from plans import WORKLOADS, digest, make_plan
from tracer import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
DEADLINE_S = 170.0
SETUP_PROBES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
    "l1_err_ratio_max": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _worker_env():
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _spawn(job, name, deadline):
    """Run one worker to completion; returns (spawn time, result dict)."""
    job = dict(job, result_path=os.path.join(OUT, name + ".result.json"))
    job_path = os.path.join(OUT, name + ".job.json")
    with open(job_path, "w", encoding="utf-8") as handle:
        json.dump(job, handle)
    if os.path.exists(job["result_path"]):
        os.remove(job["result_path"])
    log_path = os.path.join(OUT, name + ".log")
    with open(log_path, "w", encoding="utf-8") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), job_path],
                                stdout=log, stderr=subprocess.STDOUT, env=_worker_env())
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("worker %s exceeded the time limit" % name) from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        with open(log_path, "r", encoding="utf-8") as handle:
            tail = handle.read()[-2000:]
        raise BenchError("worker %s exited with %d:\n%s" % (name, code, tail))
    with open(job["result_path"], "r", encoding="utf-8") as handle:
        return t_spawn, json.load(handle)


def _tail(walls):
    """Highest percentile with at least ten samples beyond it (the maximum
    when there are ten or fewer samples)."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _host():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(".git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {"cpu_model": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "python": platform.python_version(),
            "commit": commit,
            "pinned_threads": {name: "1" for name in THREAD_VARS}}


def _tally(records, key):
    counts = {}
    for rec in records:
        for reason in rec[key]:
            counts[reason] = counts.get(reason, 0) + 1
    return counts


def run(args):
    start = time.monotonic()
    deadline = start + DEADLINE_S
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "wavefan", "__init__.py")):
        raise BenchError("no wavefan package under %s; run from the repository root" % src)
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)

    seconds = args.seconds if not args.trace else args.seconds / 2.0
    ops = make_plan(args.workload, args.seed, seconds)
    if args.ops is not None:
        ops = ops[:args.ops]
    job = {"workload": args.workload, "ops": ops, "src_dir": src,
           "scratch_dir": os.path.join(OUT, "tmp"), "corrupt_op": args.corrupt_op}
    label = "%s_seed%d_trace%d" % (args.workload, args.seed, args.trace)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": _host(), "inputs_digest": digest(ops),
              "ops": ops}

    if not args.trace:
        setup = []
        for k in range(SETUP_PROBES):
            t_spawn, probe = _spawn(dict(job, mode="setup"), "setup%d" % k, deadline)
            if k:
                setup.append(probe["t_ready"] - t_spawn)
        t_spawn, main = _spawn(dict(job, mode="run"), "main", deadline)
        setup.append(main["t_ready"] - t_spawn)
        records = main["ops"]
        walls = [rec["wall_s"] for rec in records]
        ok = sum(rec["ok"] for rec in records)
        tail, tail_pct = _tail(walls)
        l1 = [rec["l1_ratio"] for rec in records if rec["l1_ratio"] is not None]
        metrics = {
            "setup_s": statistics.median(setup),
            "op_p50_s": statistics.median(walls),
            "op_tail_s": tail,
            "ops_per_s": ok / sum(walls),
            "success_ratio": ok / len(records),
            "peak_rss_mb": main["peak_rss_mb"],
            "l1_err_ratio_max": max(l1) if l1 else 0.0,
        }
        units = END_TO_END
        report.update(setup_samples_s=setup, tail_percentile=tail_pct,
                      fail_ratio=1.0 - ok / len(records), versions=main["versions"])
    else:
        _, plain = _spawn(dict(job, mode="run"), "untraced", deadline)
        records = plain["ops"]
        untraced_s = sum(rec["wall_s"] for rec in records)
        _, traced = _spawn(dict(job, mode="run", trace=True, untraced_op_s=untraced_s,
                                spans_path=os.path.join(OUT, label + ".spans.csv.gz")),
                           "traced", deadline)
        metrics = traced["per_layer"]
        units = PER_LAYER
        report.update(layer_table=traced["layer_table"], versions=plain["versions"],
                      traced_outputs_digest=digest([r["digest"] for r in traced["ops"]]))

    correct = bool(records) and all(rec["output_ok"] for rec in records)
    failed = sum(not rec["ok"] for rec in records)
    report.update(records=records, outputs_digest=digest([r["digest"] for r in records]),
                  failures=_tally(records, "reasons"), notes=_tally(records, "notes"),
                  metrics=metrics, correct=correct,
                  elapsed_s=time.monotonic() - start)
    if args.trace and report["traced_outputs_digest"] != report["outputs_digest"]:
        correct = report["correct"] = False
        report["failures"]["traced outputs differ from untraced"] = 1
    with open(os.path.join(OUT, "BENCH_%s.json" % label), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)

    print("workload %s seed %d: %d ops, %d failed, correct=%s"
          % (args.workload, args.seed, len(records), failed, correct))
    print("inputs  %s\noutputs %s" % (report["inputs_digest"], report["outputs_digest"]))
    if not args.trace:
        print("op_tail_s is p%.1f of %d ops; fail_ratio %.4f"
              % (report["tail_percentile"], len(records), report["fail_ratio"]))
    for kind in ("failures", "notes"):
        for reason, count in sorted(report[kind].items()):
            print("  %s x%d: %s" % (kind[:-1], count, reason))
    for name, value in metrics.items():
        print("  %-46s %14.6g %s" % (name, value, units[name]))
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None, help="truncate the plan")
    parser.add_argument("--corrupt-op", type=int, default=None,
                        help="damage this op's output before it is checked")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so a running worker is killed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        run(args)
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
