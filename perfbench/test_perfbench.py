"""Tests of the benchmark itself: python3 -m pytest perfbench -q

They run the benchmark in smoke mode (tiny request counts), feed the checkers
corrupted responses, and compare the exact call counts of two traced runs.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke_runs():
    return {(w, t): bench(w, t) for w in WORKLOAD_NAMES for t in (0, 1)}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_reports_every_metric_with_its_unit(smoke_runs, workload, trace):
    result = smoke_runs[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])


def test_traced_call_counts_repeat_between_runs(smoke_runs):
    for workload in WORKLOAD_NAMES:
        first = smoke_runs[(workload, 1)]["metrics"]
        again = bench(workload, 1)["metrics"]
        calls = {k: v["value"] for k, v in first.items() if k.endswith(".calls")}
        assert calls == {k: again[k]["value"] for k in calls}, workload


def test_missing_sources_exit_nonzero_without_a_result():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "numeric", "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=60, cwd=bare,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _judge(workload, req, resp):
    checker = workload.checker()
    verdict = checker.check(req, resp)
    return verdict.ok, checker.failed


def test_checker_counts_corrupted_numeric_responses():
    numeric = workloads.WORKLOADS["numeric"]
    req = workloads.Request("flow", ("B1", 0.7, 1.2))
    matrix, residual = numeric.execute(req)
    assert _judge(numeric, req, (matrix, residual)) == (True, 0)
    bent = matrix.copy()
    bent[0, 1] *= 1 + 1e-6
    assert _judge(numeric, req, (bent, residual)) == (False, 1)
    assert _judge(numeric, req, (np.full((4, 4), np.nan), 0.0)) == (False, 1)

    radial = workloads.Request("radial", (1.0, (0.0, 0.5, 1.5, 2.0)))
    assert _judge(numeric, radial, [1.0, 1.0, 0.0, 0.0]) == (True, 0)
    assert _judge(numeric, radial, [1.0, 1.0, 0.01, 0.0]) == (False, 1)
    assert _judge(numeric, radial, [1.0, 1.0, 0.0]) == (False, 1)

    commute = workloads.Request("commute", (0.7, 2.1, 0.9))
    a, b = numeric.execute(commute)
    assert _judge(numeric, commute, (a, b)) == (True, 0)
    identity = [[float(i == j) for j in range(4)] for i in range(4)]
    assert _judge(numeric, commute, (a, identity)) == (False, 1), "commutes, but is not K_R'"

    mayer = workloads.Request("mayer", (0.3, 2.7, 3.0))
    bond = numeric.execute(mayer)
    assert _judge(numeric, mayer, bond) == (True, 0)
    assert _judge(numeric, mayer, bond * (1 + 1e-8)) == (False, 1)


def test_probe_outcomes():
    numeric = workloads.WORKLOADS["numeric"]
    q_inf = workloads.Request("probe_q_inf", ("B1", 1.0, math.inf), in_domain=False)
    assert _judge(numeric, q_inf, ValueError("wave number q must be finite, got inf")) == (True, 0)
    assert _judge(numeric, q_inf, ValueError("math domain error")) == (False, 1)
    assert _judge(numeric, q_inf, OverflowError("math range error")) == (False, 1)
    assert _judge(numeric, q_inf, (np.eye(4), 0.0)) == (False, 1)
    checker = numeric.checker()
    checker.check(q_inf, OverflowError("math range error"))
    assert (checker.failed, checker.correct) == (1, True), "a failed probe is a failure, not a wrong answer"


def test_probes_stay_out_of_the_timed_stream():
    numeric = workloads.WORKLOADS["numeric"]
    stream = numeric.stream(3)
    assert all(next(stream).in_domain for _ in range(numeric.trace_requests))
    probes = numeric.probes(3)
    assert probes == numeric.probes(3), "the seed fixes the probes"
    assert len(probes) == workloads.PROBES_PER_KIND * len(workloads.PROBE_KINDS)
    assert not any(req.in_domain for req in probes)


def test_checker_counts_corrupted_verify_output():
    verify = workloads.WORKLOADS["verify"]
    req = verify.first
    resp = verify.execute(req)
    assert _judge(verify, req, resp) == (True, 0)
    assert _judge(verify, req, dataclasses.replace(resp, out=resp.out.replace("metric: PASS", "metric: FAIL"))) == (False, 1)
    checker = verify.checker()
    checker.check(req, resp)
    checker.check(req, dataclasses.replace(resp, out=resp.out.replace("599 cells", "598 cells")))
    assert (checker.failed, checker.correct) == (1, False)
