"""CLI output, byte for byte, against files recorded from the scalar implementation.

The files under tests/data were recorded with these commands from the scalar
implementation (one Simpson loop per radius, the square class computed on
every flow); any change in a printed digit shows up here.  The B0, B0p and
P0 lines of eval_closed.jsonl and flows_record.txt were recorded again when
the diagonal flows took e^(s tau) for each diagonal entry instead of
cosh tau +- sinh tau.  The symmetry, flows, kernel and metric lines and the
B2 ledger line of verify_all_errata.txt, and the lines of flows_record.txt
after its 20 rows, were recorded again when those checks became exact
counts and the float measures moved to `checks.float_evaluator`; its mayer
and profile lines were recorded again when those two checks became exact
counts read off T1's certificate.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from fmspace import checks
from fmspace.catalog import GeneratorId
from fmspace.cli import main

DATA = Path(__file__).parent / "data"

# The two points each generator is evaluated at, in the order of eval_closed.jsonl.
EVAL_POINTS = (("0.7", "1.2"), ("-1.5", "0.35"))


def run(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, name",
    [
        (["verify", "--suite", "all", "--errata"], "verify_all_errata.txt"),
        (["profile", "--R", "1", "--rmax", "3", "--points", "41"], "profile_R1_rmax3_points41.csv"),
        (
            ["profile", "--R", "0.7", "--rmax", "2", "--points", "9", "--qmax", "80", "--panels", "4001"],
            "profile_R0.7_rmax2_points9_qmax80_panels4001.csv",
        ),
    ],
)
def test_command_output_is_unchanged(capsys, argv, name):
    assert run(capsys, argv) == (DATA / name).read_text()


def test_one_shot_verify_prints_what_an_in_process_pass_prints():
    """`python -m fmspace.cli verify --suite all --errata` in a fresh interpreter: the caches built once per process change nothing."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "fmspace.cli", "verify", "--suite", "all", "--errata"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (DATA / "verify_all_errata.txt").read_text()


def test_eval_json_is_unchanged_for_every_generator(capsys):
    out = "".join(
        run(capsys, ["eval", "--gen", gid.value, "--param", param, "--q", q, "--format", "json"])
        for param, q in EVAL_POINTS
        for gid in GeneratorId
    )
    assert out == (DATA / "eval_closed.jsonl").read_text()


# The float record's measures of the flows and the weight column; its bond and profile measures are held in test_acceptance.py.
FLOW_MEASURES = ("closed form vs oracle rel", "least metric-breaking residual", "column vs weights")


def flows_record_text(float_record, record) -> str:
    """The rows and flow measures of the float evaluator's record, then every measure and discrepancy of the flows record, at full float precision."""
    lines = [f"{gid.value} {rel!r} {residual!r}" for gid, rel, residual in float_record.rows]
    lines += [f"{name}: {float_record.measures[name].value!r}" for name in FLOW_MEASURES]
    lines += [f"{name}: {measure.value!r}" for name, measure in record.measures.items()]
    lines += [repr(d) for d in record.discrepancies]
    lines += [str(d) for d in record.discrepancies]
    return "\n".join(lines) + "\n"


def test_flows_record_is_unchanged():
    assert flows_record_text(checks.float_evaluator(), checks.flows()) == (DATA / "flows_record.txt").read_text()


def tables_text(capsys) -> str:
    """Every `tables` output: each set, kind and format, under a `$ argv` line."""
    out = []
    for table_set in ("isometric", "metamorphic", "mixed", "shift"):
        for kind in ("product", "half_commutator", "half_anticommutator"):
            for fmt in ("text", "json"):
                argv = ["tables", "--set", table_set, "--kind", kind, "--format", fmt]
                out.append(f"$ {' '.join(argv)}\n" + run(capsys, argv))
    return "".join(out)


def test_every_table_output_is_unchanged(capsys):
    assert tables_text(capsys) == (DATA / "tables_all.txt").read_text()
