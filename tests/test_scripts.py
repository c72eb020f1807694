import importlib.util
import json
import math
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]

FIRST_LINES = {
    "dump_structure_tables.py": "# isometric half-commutators",
    "flow_oracle_report.py": "generator   worst rel vs oracle",
}


# bench.py writes a file and takes its arguments: test_bench_writes_its_record runs it
NO_ARGUMENTS = sorted(p.name for p in (ROOT / "scripts").glob("*.py") if p.name != "bench.py")


def run_script(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("script", NO_ARGUMENTS)
def test_script_runs(script):
    proc = run_script(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].strip().startswith(FIRST_LINES[script])


def test_bench_writes_its_record(tmp_path):
    """One repeat: every layer and check has its timings, every measure its bound and margin."""
    from fmspace import checks

    out = tmp_path / "bench.json"
    proc = run_script("bench.py", "--repeats", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert record["repeats"] == 1
    assert record["environment"]["nproc"] >= 1
    assert {"python", "numpy", "mpmath"} <= record["environment"].keys()
    assert {"fmt.step_hat", "fmt.step_hat.series", "fmt.radial_request", "flows.closed_flow.T1.prec50", "ring.mul"} <= record["layers"].keys()
    assert {"flows.flow_request", "flows.flow_request.isometric.prec60", "flows.group_law_residual.T1.prec50"} <= record["layers"].keys()
    assert {"oracle.expm_oracle.B1", "flows.reference_discrepancies"} <= record["layers"].keys()
    assert {"flows.certificate", "flows.certificate.all"} <= record["layers"].keys()
    assert {"reference_tables.parse_cell.uncached", "cli.build_parser", "cli.build_parser.uncached"} <= record["layers"].keys()
    assert list(record["cold_import"]) == ["fmspace.algebra", "fmspace.cli"]
    timings = [record["verify_pass"], record["verify_pass.fresh_caches"]]
    for timing in [*record["layers"].values(), *record["cold_import"].values(), *timings, *record["checks"].values()]:
        assert 0 < timing["min_s"] <= timing["median_s"]
    assert list(record["checks"]) == [*checks.CHECKS, "float_evaluator"]
    for check in record["checks"].values():
        assert check["ok"] is True and check["alone"] is True
        for measure in check["measures"].values():
            assert measure["ok"] is True and measure["margin"] >= 0
    column = record["checks"]["float_evaluator"]["measures"]["column vs weights"]
    assert column["margin"] == column["bound"] - column["value"]
    least = record["checks"]["float_evaluator"]["measures"]["least metric-breaking residual"]
    assert least["margin"] == least["value"] - least["bound"]


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name[:-3], ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_flow_oracle_report_keeps_nan(monkeypatch, capsys):
    """A NaN flow reads as nan in its generator's row, and the exact ledger follows the 20 rows."""
    from fmspace import flows
    from fmspace.catalog import GeneratorId
    from fmspace.flows import STANDARD_Q_GRID

    report = _load_script("flow_oracle_report.py")
    real = flows._closed_form

    def closed_form(gid):
        form, rows = real(gid)
        if gid is not GeneratorId.B1:
            return form, rows
        return form, lambda tau, q, bk: [math.nan] * 16 if q == STANDARD_Q_GRID[1] else rows(tau, q, bk)

    monkeypatch.setattr(flows, "_closed_form", closed_form)  # closed_flow runs each rows builder on the float grid
    assert report.main() == 0
    lines = capsys.readouterr().out.splitlines()
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:21]}
    assert len(rows) == 20 and rows["B1"] == ["nan", "nan"]
    assert "nan" not in rows["B0"]
    assert lines[21:] == [
        "",
        "published-form discrepancies (published minus generated, exact):",
        "  B2 transform, entry (3, 1): published minus generated = (q^2 - q^-2) sinh(tau q^2)",
    ]


def _in_git_work_tree() -> bool:
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--is-inside-work-tree"], capture_output=True, text=True)
    return proc.returncode == 0 and proc.stdout.strip() == "true"


@pytest.mark.skipif(not _in_git_work_tree(), reason="the replay extracts a revision with git archive")
def test_bench_replays_head_against_this_tree(monkeypatch):
    """A 2-round replay of HEAD against this tree: both sides' spreads, the per-round ratios and the rounds won, per metric.

    A metric that one side lacks reads null.
    """
    from fmspace import checks

    bench = _load_script("bench.py")
    real = bench._round

    def without_profile_at_rev(src, passes, fresh):
        metrics, stdout = real(src, passes, fresh)
        if src != bench.SRC:
            del metrics["checks.profile"]
        return metrics, stdout

    monkeypatch.setattr(bench, "_round", without_profile_at_rev)
    record = bench.replay("HEAD", rounds=2, passes=2, fresh=1)
    assert (record["rounds"], record["passes_per_round"]) == (2, 2) and record["head"]
    assert record["one_shot_stdout_identical"] is True
    metrics = record["metrics"]
    assert list(metrics) == [
        "verify_pass", "verify_pass.round_min", "verify_pass.fresh_caches", "one_shot_verify",
        *(f"checks.{name}" for name in checks.CHECKS),
    ]
    lines = bench.replay_lines(record)
    assert len(lines) == len(metrics) and lines[-1] == "checks.profile: missing at one revision"
    assert re.fullmatch(r"verify_pass: ratio \d+\.\d{3}, won [012] of 2; q1-median-q3 ms \w+ [\d.-]+, this tree [\d.-]+", lines[0])
    assert metrics.pop("checks.profile") is None
    for name, metric in metrics.items():
        for side in ("rev", "head"):
            spread = metric[side]
            assert 0 < spread["min_s"] <= spread["q1_s"] <= spread["median_s"] <= spread["q3_s"], (name, side)
        assert len(metric["ratio_per_round"]) == 2 and all(r > 0 for r in metric["ratio_per_round"])
        assert metric["median_ratio"] == statistics.median(metric["ratio_per_round"])
        assert 0 <= metric["head_faster_rounds"] <= 2
    with pytest.raises(ValueError, match="at least 2 rounds"):
        bench.replay("HEAD", rounds=1)
