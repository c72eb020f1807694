"""The benchmark's out-of-domain probes still get a ValueError whose message names the problem."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.mark.parametrize("seed", range(1, 7))
def test_numeric_probes_are_refused_with_a_message(workloads, seed):
    workload = workloads.NumericWorkload()
    probes = workload.probes(seed)
    assert len(probes) == 24
    for req in probes:
        verdict = workloads._check_probe(req, workload.execute(req))
        assert verdict.ok, verdict.detail
