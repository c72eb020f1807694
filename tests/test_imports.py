import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

EXACT_MODULES = ("ring", "matrices", "catalog", "algebra", "reference_tables")


def test_exact_modules_load_without_numpy_or_mpmath():
    """A fresh interpreter imports the exact layer alone; the package root re-exports nothing."""
    code = "; ".join(
        [
            "import sys, fmspace",
            *(f"import fmspace.{name}" for name in EXACT_MODULES),
            "print(sorted({'numpy', 'mpmath'} & sys.modules.keys()), hasattr(fmspace, 'closed_flow'))",
        ]
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "False"]


def test_one_shot_verify_loads_no_mpmath():
    """`verify` states exact counts and float64 measures: a fresh interpreter running it never imports mpmath."""
    code = "; ".join(
        [
            "import sys, fmspace.cli",
            "code = fmspace.cli.main(sys.argv[1:])",
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'), file=sys.stderr)",
        ]
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for argv in (["verify", "--suite", "all", "--errata"], ["verify", "--suite", "kernel"]):
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.split("\n")[-2] == "0 []", (argv, proc.stderr)
