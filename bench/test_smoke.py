"""Smoke test of the benchmark harness at a tiny op count.

    python3 -m pytest -q bench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a corrupted output trips the failure count, that the failed op is
named, and that a directory without the program makes the harness fail
without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED, SECONDS = 3, 1
sys.path.insert(0, os.path.join(ROOT, "bench"))

from plans import make_plan  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _run(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"),
                           "--seed", str(SEED), "--seconds", str(SECONDS)] + list(args),
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return done


def _result(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _assert_metrics(result, specs):
    expected = {spec["name"]: spec["unit"] for spec in specs}
    assert set(result["metrics"]) == set(expected)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == expected[name], name
        assert isinstance(entry["value"], float), name


def test_end_to_end_metrics_emitted():
    result = _result(_run("--workload", "cold-data", "--trace", "0", "--ops", "2"))
    _assert_metrics(result, SPEC["end_to_end"])
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    for spec in SPEC["end_to_end"]:
        assert result["metrics"][spec["name"]]["value"] > 0.0, spec["name"]


def test_per_layer_metrics_emitted():
    result = _result(_run("--workload", "cold-data", "--trace", "1", "--ops", "2"))
    _assert_metrics(result, SPEC["per_layer"])
    assert result["correct"]
    assert result["metrics"]["riemann.solve_exact.cold_calls"]["value"] == 1.0
    assert result["metrics"]["cli_io.write_profile.bytes"]["value"] > 0.0


@pytest.mark.parametrize("workload", ["cold-data", "eps-ladder", "certify"])
def test_corrupted_output_counts_as_failure(workload):
    # corrupt the first op that returns an output (certify's cubic
    # rarefactions raise CoverageError instead); cheap Burgers ops for certify
    ops = make_plan(workload, SEED, SECONDS)
    k = next(i for i, op in enumerate(ops)
             if workload != "certify" or op["flux"] == "burgers")
    result = _result(_run("--workload", workload, "--trace", "0", "--ops", str(k + 1),
                          "--corrupt-op", str(k)))
    assert result["attempted"] == k + 1 and result["failed"] >= 1
    assert result["correct"] is False
    assert result["metrics"]["success_ratio"]["value"] < 1.0


def test_refuses_to_run_without_the_program():
    # a directory holding only BENCHMARK.json and the benchmark's files
    bare = os.path.join(ROOT, "bench", "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "bench"), os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = _run("--workload", "cold-data", "--trace", "0", cwd=bare)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
