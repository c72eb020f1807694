"""One cold start: a fresh interpreter imports fmspace and serves one request.

Usage: python3 perfbench/cold.py <workload> | --import-only | --first-decompose

Writes one pickled dict to stdout: the seconds it measured in-process and,
for a workload, the response to its first request.  The caller times the
whole process from spawn to exit and checks the response after the exit, so
no check falls inside the timed span.
"""

import pickle
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import fmspace.cli  # noqa: E402  (the import is what is timed)

t1 = time.perf_counter()
result = {"import_s": t1 - t0}
what = sys.argv[1]
if what == "--first-decompose":
    from fmspace.algebra import decompose
    from fmspace.catalog import GeneratorId, get_generator

    product = get_generator(GeneratorId.B0) @ get_generator(GeneratorId.F2)
    t2 = time.perf_counter()
    decompose(product)
    result["first_decompose_s"] = time.perf_counter() - t2
elif what != "--import-only":
    sys.path.insert(0, str(HERE))
    import workloads

    workload = workloads.WORKLOADS[what]
    t2 = time.perf_counter()
    response = workload.execute(workload.first)
    result["first_request_s"] = time.perf_counter() - t2
    result["response"] = response
sys.stdout.buffer.write(pickle.dumps(result))
