"""The benchmark's span tracer still finds every fmspace name it wraps."""

import importlib.util
from pathlib import Path

from fmspace import algebra

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_on_every_traced_name():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    decompose = algebra.decompose
    with tracing.Tracer().install() as tracer:
        assert algebra.decompose is not decompose
        assert "algebra.verify_reference_tables" in tracer.names
    assert algebra.decompose is decompose
