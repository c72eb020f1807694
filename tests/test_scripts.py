import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]

FIRST_LINES = {
    "dump_structure_tables.py": "# isometric half-commutators",
    "flow_oracle_report.py": "generator   worst rel vs oracle",
    "mayer_sweep.py": "q,bond,step_hat,deviation",
}


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "scripts").glob("*.py")))
def test_script_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].strip().startswith(FIRST_LINES[script])


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name[:-3], ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_flow_oracle_report_keeps_nan(monkeypatch, capsys):
    from fmspace import flows
    from fmspace.catalog import GeneratorId
    from fmspace.flows import STANDARD_Q_GRID

    report = _load_script("flow_oracle_report.py")
    real = flows.closed_flow

    def closed_flow(gid, p, q, prec=None):
        if gid is GeneratorId.B1 and q == STANDARD_Q_GRID[1] and prec is None:
            return np.full((4, 4), np.nan)
        return real(gid, p, q, prec=prec)

    monkeypatch.setattr(flows, "closed_flow", closed_flow)  # grid_flows evaluates the float grid
    assert report.main() == 0
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines() if line.strip()}
    assert rows["B1"] == ["nan", "nan"]
    assert "nan" not in rows["B0"]
