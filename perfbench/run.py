"""fmspace benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload {verify,numeric} --seed N \
        --seconds S --trace {0,1} [--smoke]

--trace 0 measures the end-to-end metrics with tracing off: warm-up, then
requests for S seconds, with cold starts in fresh interpreters spread evenly
over those S seconds.  --trace 1
replays the first requests of the same seeded stream, alternating an
untraced and a traced pass for S seconds, and reports the per-layer metrics.
Every response is checked outside the timed region.  The timed stream holds
only requests that have a correct answer; the workload's out-of-domain probes
are served after it, untimed, and reported apart from attempted and failed.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  A record of the run
(environment, inputs, raw samples, metrics) is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
from array import array
import hashlib
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

IMPORT_RUNS = 5
FIRST_DECOMPOSE_RUNS = 3
TAIL_BEYOND = 10

# Span names reported by a traced run as .calls and .self_s; SELF_ONLY as .self_s.
LAYER_GROUPS = (
    "ring.mul", "ring.addsub", "ring.field", "ring.evaluate",
    "matrices.matmul", "matrices.eval_mat",
    "algebra.decompose_full", "algebra.decompose_shift", "algebra.build_table",
    "catalog.classify_square",
    "flows.closed_flow", "flows.closed_flow_mp", "flows.expm_oracle",
    "flows.invariance_residual", "flows.group_law_residual",
    "fmt.weights", "fmt.kernel_matrix", "fmt.inverse_ft_radial",
    "cli.build_parser",
)
SELF_ONLY = (
    "algebra.verify_reference_tables", "flows.reference_discrepancies",
    "fmt.jeffrey_identities", "cli.main",
)


def machine_probe() -> float:
    """Seconds for a fixed pure-Python loop that does not touch fmspace."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def cold_run(args: list) -> dict:
    """Spawn cold.py once; its result gains the spawn-to-exit wall_s."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "cold.py"), *args], capture_output=True, timeout=120, cwd=ROOT,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"cold start {args} failed: {proc.stderr.decode(errors='replace').strip()[-400:]}")
    result = pickle.loads(proc.stdout)
    result["wall_s"] = wall
    return result


def cold_setup(workload) -> dict:
    """One cold start that serves the first request; checked here, after it exited."""
    result = cold_run([workload.name])
    response = result.pop("response")
    if not workload.checker().check(workload.first, response).ok:
        raise RuntimeError("the cold first request returned a wrong answer")
    return result


def tail(latencies: list) -> dict:
    """Latency at the highest percentile that has 10 samples beyond it.

    That is the 11th-largest sample, at percentile 100 (n - 10) / n.  Below
    21 samples it would fall under the median, so the median is reported.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n > 2 * TAIL_BEYOND:
        return {"value": xs[n - 1 - TAIL_BEYOND], "percentile": 100.0 * (n - TAIL_BEYOND) / n, "beyond": TAIL_BEYOND, "n": n}
    return {"value": statistics.median(xs), "percentile": 50.0, "beyond": n // 2, "n": n}


def environment() -> dict:
    import mpmath
    import numpy

    commit = None
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=30
        ).stdout.split() or (None, None)
        if top and Path(top).resolve() == ROOT:  # not a repository that merely encloses the checkout
            commit = head
    except (OSError, ValueError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "fmspace").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


class Client:
    """Closed loop, one client: execute, time, then check outside the timer.

    Per-request records are kept in flat arrays, so that the benchmark's own
    memory grows by a few bytes per request and peak_rss_mb tracks fmspace.
    """

    def __init__(self, workload, stream):
        self.workload = workload
        self.stream = stream
        self.checker = workload.checker()
        self.keys = array("q")

    def next_request(self):
        req = next(self.stream)
        self.keys.append(hash(req.key))
        return req

    def repeat_share(self) -> float:
        """Share of requests whose input already appeared earlier in the run."""
        import numpy as np

        return 1.0 - len(np.unique(np.frombuffer(self.keys, dtype=np.int64))) / len(self.keys)

    def timed(self, req):
        t0 = time.perf_counter()
        resp = self.workload.execute(req)
        return resp, time.perf_counter() - t0

    def serve(self, req) -> tuple:
        resp, latency = self.timed(req)
        return latency, self.checker.check(req, resp).ok


def measure(workload, seed: int, seconds: float, smoke: bool) -> dict:
    """End-to-end metrics with tracing off.

    The cold starts are spread evenly over the measured seconds, one after
    each window of requests, so that they meet the same machine states as
    the requests do.
    """
    client = Client(workload, workload.stream(seed))
    warmup = 1 if smoke else workload.warmup
    for _ in range(warmup):
        client.serve(client.next_request())
    runs = 1 if smoke else workload.setup_runs
    budget = 2 if smoke else None
    setup = []
    kinds: dict = {}
    kind_ix, latencies, oks = array("B"), array("d"), array("B")
    t0 = time.perf_counter()
    t_end = t0 + seconds
    while True:
        now = time.perf_counter()
        done = now >= t_end or (budget is not None and len(latencies) >= budget)
        if len(setup) < runs and (done or now >= t0 + (len(setup) + 0.5) * seconds / runs):
            setup.append({"at_s": now - t0, **cold_setup(workload)})
            continue
        if done:
            break
        req = client.next_request()
        latency, ok = client.serve(req)
        kind_ix.append(kinds.setdefault(req.kind, len(kinds)))
        latencies.append(latency)
        oks.append(ok)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(r["wall_s"] for r in setup), "s"),
        "req_per_s": (len(latencies) / sum(latencies), "1/s"),
        "p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "tail_ms": (t["value"] * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    checker = client.checker
    return {
        "metrics": metrics,
        "checker": checker,
        "facts": {
            "warmup_requests": warmup,
            "measured_requests": len(latencies),
            "tail": {**t, "value": t["value"] * 1e3},
            "fail_share": checker.failed / checker.attempted,
            "repeat_share": client.repeat_share(),
            "setup_runs": setup,
            "samples": {
                "kinds": list(kinds),
                "kind": kind_ix.tolist(),
                "latency_us": [round(x * 1e6, 1) for x in latencies],
                "ok": oks.tolist(),
            },
        },
    }


def trace(workload, seed: int, seconds: float, smoke: bool) -> dict:
    """Per-layer metrics from alternating untraced and traced passes."""
    import tracing
    import workloads
    from fmspace import catalog

    setup = [cold_run(["--import-only"]) for _ in range(1 if smoke else IMPORT_RUNS)]
    first_decompose = [cold_run(["--first-decompose"]) for _ in range(1 if smoke else FIRST_DECOMPOSE_RUNS)]
    stream = workload.stream(seed)
    count = min(workload.trace_requests, 10) if smoke else workload.trace_requests
    client = Client(workload, stream)
    requests = [client.next_request() for _ in range(count)]
    warmup = 1 if smoke else min(workload.warmup, count)
    for req in requests[:warmup]:
        client.serve(req)

    tracer = tracing.Tracer()
    untraced, traced, gcs, summaries, counters, hit_ratios = [], [], [], [], [], []
    first_spans = None
    t_end = time.perf_counter() + seconds
    while not traced or (time.perf_counter() < t_end and not smoke):
        meter = tracing.GcMeter()
        busy = 0.0
        with meter.measuring():
            for req in requests:
                resp, latency = client.timed(req)
                busy += latency
                client.checker.check(req, resp)
        untraced.append(len(requests) / busy)
        gcs.append((meter.collections, meter.pause_s))

        tracer.reset()
        responses = []
        busy = 0.0
        info0 = catalog.get_generator.cache_info()
        with tracer.install():
            for i, req in enumerate(requests):
                tracer.request = i
                tracer.active = True
                resp, latency = client.timed(req)
                tracer.active = False
                busy += latency
                responses.append(resp)
        info1 = catalog.get_generator.cache_info()
        for req, resp in zip(requests, responses):
            client.checker.check(req, resp)
        traced.append(len(requests) / busy)
        summaries.append(tracer.summary())
        counters.append(dict(tracer.counters))
        lookups = (info1.hits - info0.hits) + (info1.misses - info0.misses)
        hit_ratios.append((info1.hits - info0.hits) / lookups if lookups else 0.0)
        if first_spans is None:
            first_spans = (tracer.spans(), list(tracer.names))

    def calls(name):
        return summaries[0].get(name, {}).get("calls", 0)

    def self_s(name):
        return statistics.median(s.get(name, {}).get("self_s", 0.0) for s in summaries)

    metrics = {}
    for group in LAYER_GROUPS:
        metrics[f"{group}.calls"] = (calls(group), "count")
        metrics[f"{group}.self_s"] = (self_s(group), "s")
    for name in SELF_ONLY:
        metrics[f"{name}.self_s"] = (self_s(name), "s")
    metrics["catalog.get_generator.calls"] = (calls("catalog.get_generator"), "count")
    metrics["catalog.get_generator.hit_ratio"] = (hit_ratios[0], "ratio")
    metrics["algebra.cells_checked"] = (counters[0].get("algebra.cells_checked", 0), "count")
    radial_calls = calls("fmt.inverse_ft_radial")
    hat_calls = counters[0].get("fmt.inverse_ft_radial.hat_calls", 0)
    metrics["fmt.inverse_ft_radial.hat_calls_per_call"] = (hat_calls / radial_calls if radial_calls else 0.0, "count")
    for suite in workloads.VERIFY_SUITES:
        name = f"cli.verify.{suite}"
        metrics[f"{name}.s"] = (statistics.median(s.get(name, {}).get("total_s", 0.0) for s in summaries), "s")
    metrics["algebra.first_decompose_s"] = (statistics.median(r["first_decompose_s"] for r in first_decompose), "s")
    metrics["setup.import_s"] = (statistics.median(r["import_s"] for r in setup), "s")
    metrics["runtime.gc.collections"] = (statistics.median(g[0] for g in gcs), "count")
    metrics["runtime.gc.pause_s"] = (statistics.median(g[1] for g in gcs), "s")
    rate_untraced, rate_traced = statistics.median(untraced), statistics.median(traced)
    metrics["trace.overhead_share"] = ((rate_traced - rate_untraced) / rate_untraced, "ratio")

    repeatable = all(
        {k: v["calls"] for k, v in s.items()} == {k: v["calls"] for k, v in summaries[0].items()}
        for s in summaries
    )
    checker = client.checker
    return {
        "metrics": metrics,
        "checker": checker,
        "spans": first_spans,
        "facts": {
            "trace_requests": count,
            "passes": len(traced),
            "calls_repeat_across_passes": repeatable,
            "req_per_s_untraced": untraced,
            "req_per_s_traced": traced,
            "fail_share": checker.failed / checker.attempted,
            "repeat_share": client.repeat_share(),
            "setup_runs": setup,
            "first_decompose_runs": first_decompose,
            "spans_per_pass": len(first_spans[0]["name"]),
        },
    }


def run_probes(workload, seed: int):
    """Serve the out-of-domain probes, untimed; their checker counts them."""
    checker = workload.checker()
    for req in workload.probes(seed):
        checker.check(req, workload.execute(req))
    return checker


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "numeric"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny request counts, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "fmspace" / "__init__.py").is_file():
        print(f"error: no fmspace sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    probe_before = machine_probe()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    run = (trace if args.trace else measure)(workload, args.seed, args.seconds, args.smoke)
    probes = run_probes(workload, args.seed)
    probe_after = machine_probe()

    checker = run["checker"]
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
    OUT.mkdir(exist_ok=True)
    if args.trace:
        import numpy as np

        spans, names = run["spans"]
        np.savez(OUT / f"{stem}-spans.npz", names=np.array(names), **spans)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "machine_probe_s": {"before": probe_before, "after": probe_after},
        "attempted": checker.attempted,
        "failed": checker.failed,
        "correct": checker.correct,
        "failures": checker.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()},
        "out_of_domain_probes": {
            "attempted": probes.attempted,
            "failed": probes.failed,
            "failures": probes.failures["out_of_domain"],
        },
        **run["facts"],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    facts = run["facts"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  attempted {checker.attempted}")
    for name, (value, unit) in run["metrics"].items():
        extra = ""
        if name == "tail_ms":
            t = facts["tail"]
            extra = f"  (p{t['percentile']:.4g} of {t['n']}, {t['beyond']} beyond)"
        print(f"  {name:<44} {value:>14.6g} {unit}{extra}")
    print(f"  {'fail_share':<44} {facts['fail_share']:>14.6g} share")
    print(f"  {'repeat_share':<44} {facts['repeat_share']:>14.6g} share")
    if probes.attempted:
        print(f"  {'probe_fail_share':<44} {probes.failed / probes.attempted:>14.6g} share"
              f"  ({probes.failed} of {probes.attempted} out-of-domain probes, untimed)")
    print(f"  machine probe {probe_before:.4f} s before, {probe_after:.4f} s after")
    for domain, examples in (*checker.failures.items(), ("probe", probes.failures["out_of_domain"])):
        for line in examples[:3]:
            print(f"  {domain} failure: {line}")
    print(f"  record {OUT.relative_to(ROOT) / (stem + '.json')}")
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
