#!/usr/bin/env python3
"""Layer timings and verify-check margins of fmspace, written as one JSON file.

    python scripts/bench.py --out BENCH_<n>.json [--repeats 7] [--against REV [--rounds 30]]

Every timing is taken after one warm-up run, in this process unless it says
otherwise, and reported as the median and the min over --repeats repeats:

- layers: seconds per call of a fixed loop over one layer of the package,
  from the exact ring multiply and the parse of the reference tables' 98
  distinct cell texts (uncached) up to the 4-radius radial request (four
  windowed `inverse_ft_radial` calls of the unit step, one per radius of
  the float evaluator's step profile);
  `step_hat` is timed on each of its branches, direct and series; the
  exact diff of the 15 published transforms against the certificates' F
  (`reference_discrepancies`, on certificates built beforehand); the exact
  certificates of the closed forms, the 6 isometric ones and T1, and all 20
  (which a `verify` pass runs); the CLI's parser, as `cli.main` gets it
  (built once per process) and built afresh; a flow request is a closed
  flow and its invariance residual, over a fixed seeded mix of points drawn
  as perfbench's `numeric` workload draws them (float64 over all 20
  generators; prec 60 over the 6 isometric ones);
- cold_import: seconds from spawn to exit of a fresh `python -c "import
  <module>"` per repeat, for the exact `fmspace.algebra` and for
  `fmspace.cli`, which loads every layer;
- verify_pass: seconds of one warm in-process `fmspace verify --suite all
  --errata` (`cli.main`, output discarded);
- checks: seconds of each `verify` check run alone, with its own
  `checks.Facts`, and each measure of its last CheckRecord with its value,
  bound and margin (how far the value is inside its bound; negative when it
  fails, null when not finite).  A pass shares its Facts between checks, so
  the kernel check reads the flows check's T1 certificate and jeffrey the
  tables check's products: the checks' sum counts those twice and is not a
  pass.  The float evaluator's record (`checks.float_evaluator`: the float
  flows against the oracle, the float weights against prec 50), which
  `verify` does not run, is timed and recorded the same way, last;
- verify_pass.fresh_caches: seconds of one in-process verify pass after
  every per-process cache (CACHES) is cleared, which is what a one-shot
  process pays after import;
- the Python, numpy and mpmath versions and the CPU count.

--against REV adds `same_session`, a replay of REV against this tree in one
session: REV's `src` is extracted with `git archive` into a temporary
directory, and for --rounds rounds a fresh child process per tree, in
alternating order, times 10 warm verify passes, 3 passes with fresh caches
and each check alone (`_CHILD`), and a one-shot `python -m fmspace.cli
verify --suite all --errata` is timed from spawn to exit.  A round is short
(about 0.1 s of warm passes), so a burst of load on a shared machine spoils
a round or two, not the replay.  Each side reports the median, the
quartiles and the min over the rounds; each metric the per-round ratio this
tree / REV, its median, and the rounds this tree won, which the script also
prints, one line per metric.  A cache or check that a tree lacks is skipped
there, and a metric missing on one side reads null.

It gates nothing: the exit status is 0 whatever the numbers.  Run it on an
otherwise idle machine; the spread between median and min shows the noise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

import mpmath
import numpy as np

from fmspace import algebra, catalog, checks, cli, flows, fmt, reference_tables
from fmspace.algebra import decompose, verify_reference_tables
from fmspace.catalog import ISOMETRIC_IDS, METAMORPHIC_IDS, SHIFT_IDS, GeneratorId, get_generator, homogeneity_order
from fmspace.certificate import certify
from fmspace.flows import closed_flow, group_law_residual, invariance_residual, reference_discrepancies
from fmspace.fmt import inverse_ft_radial, kr_weights, step_hat
from fmspace.matrices import eval_mat
from fmspace.oracle import expm_oracle

COLD_IMPORTS = ("fmspace.algebra", "fmspace.cli")
# Every cache the package builds once per process and keeps, and their names, which a replay resolves in each tree.
CACHES = (
    cli.build_parser, flows._closed_form, flows._mp_backend, reference_tables.parse_cell,
    reference_tables.multiplied_cell, fmt._window, catalog.get_generator, algebra._inverse_norm, algebra._by_entry,
)
CACHE_NAMES = tuple(f"{cache.__module__}.{cache.__name__}" for cache in CACHES)
VERIFY_ARGV = ["verify", "--suite", "all", "--errata"]
SRC = str(Path(checks.__file__).resolve().parents[1])  # the fmspace tree this process imports
ROOT = Path(__file__).resolve().parents[1]


def _unit_step_hat(q: float) -> float:
    return step_hat(1.0, q) if q > 0 else 4.0 * math.pi / 3.0


# The float evaluator's record evaluates every generator once on its grid,
# then the metamorphic and shift generators once more for the metric breaking.
FLOW_MIX = tuple(GeneratorId) + METAMORPHIC_IDS + SHIFT_IDS


def _flow_points(gens, per_gen: int, seed: int) -> list:
    """per_gen seeded (gen, param, q) draws for each entry of gens, in a shuffled order.

    q is log-uniform in [1e-2, 10] and |param q^alpha| log-uniform in
    [1e-7, 10], drawn again while ||param X(q)||_1 > 1e4.
    """
    rng = np.random.default_rng(seed)
    points = []
    for gid in gens:
        x = get_generator(gid)
        drawn = 0
        while drawn < per_gen:
            q = 10.0 ** rng.uniform(-2.0, 1.0)
            param = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-7.0, 1.0) / q ** homogeneity_order(x)
            if abs(param) * float(np.abs(eval_mat(x, q)).sum(axis=0).max()) <= 1e4:
                points.append((gid, float(param), q))
                drawn += 1
    rng.shuffle(points)
    return points


def _flow_request(points, prec=None):
    """A function of no arguments: the next point's flow and residual, round the points in turn."""
    cycle = itertools.cycle(points)

    def request():
        gid, param, q = next(cycle)
        return invariance_residual(closed_flow(gid, param, q, prec=prec), prec=prec)

    return request


def _layers() -> dict:
    """name -> (calls per repeat, function of no arguments)."""
    a = get_generator(GeneratorId.T1)[0, 3]
    b = get_generator(GeneratorId.T3)[3, 0]
    b1, t3, t1 = (get_generator(g) for g in (GeneratorId.B1, GeneratorId.T3, GeneratorId.T1))
    certificates = {g: certify(g) for g in GeneratorId}  # the flows check's, whose F the exact diff reads
    # the 98 distinct texts of the reference tables and the shift decompositions,
    # parsed past parse_cell's per-process cache
    specs = (*reference_tables.TABLES, reference_tables.SHIFT_DECOMPOSITIONS)
    texts = list(dict.fromkeys(text for spec in specs for row in spec.cells for text in row))
    parse = reference_tables.parse_cell.__wrapped__
    return {
        "ring.mul": (2000, lambda: a * b),
        "reference_tables.parse_cell.uncached": (20, lambda: [parse(text) for text in texts]),
        "matrices.matmul": (200, lambda: b1 @ t3),
        "algebra.decompose": (20, lambda: decompose(t1)),
        "algebra.table_diff": (1, verify_reference_tables),
        "flows.closed_flow.B1": (500, lambda: closed_flow(GeneratorId.B1, 0.5, 1.3)),
        "flows.closed_flow.T1": (500, lambda: closed_flow(GeneratorId.T1, 0.5, 1.3)),
        "flows.closed_flow.T1.prec50": (50, lambda: closed_flow(GeneratorId.T1, 0.5, 1.3, prec=50)),
        "flows.flow_request": (2 * 6 * len(FLOW_MIX), _flow_request(_flow_points(FLOW_MIX, 6, 13))),
        "flows.flow_request.isometric.prec60": (
            2 * 5 * len(ISOMETRIC_IDS),
            _flow_request(_flow_points(ISOMETRIC_IDS, 5, 60), prec=60),
        ),
        "flows.group_law_residual.T1.prec50": (20, lambda: group_law_residual(GeneratorId.T1, 1.0, 2.7, 1.3, prec=50)),
        "oracle.expm_oracle.B1": (50, lambda: expm_oracle(b1, 0.5, 1.3, 1e-13)),
        "flows.reference_discrepancies": (20, lambda: reference_discrepancies(certificates)),
        "flows.certificate": (5, lambda: [certify(g) for g in (*ISOMETRIC_IDS, GeneratorId.T1)]),
        "flows.certificate.all": (5, lambda: [certify(g) for g in GeneratorId]),
        "cli.build_parser": (2000, cli.build_parser),
        "cli.build_parser.uncached": (20, cli.build_parser.__wrapped__),
        "fmt.kr_weights": (2000, lambda: kr_weights(1.3, 2.7)),
        "fmt.step_hat": (20000, lambda: step_hat(1.3, 2.7)),
        "fmt.step_hat.series": (20000, lambda: step_hat(1.3, 1e-5)),  # qR below 0.05
        "fmt.inverse_ft_radial": (1, lambda: inverse_ft_radial(_unit_step_hat, 0.5)),
        "fmt.radial_request": (1, lambda: [inverse_ft_radial(_unit_step_hat, r) for r in checks.PROFILE_RADII]),
    }


def _tree_env(src: str) -> dict:
    """This process's environment with the fmspace tree at src first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _cold_import(module: str) -> float:
    """Seconds from spawn to exit of a fresh interpreter that imports module from SRC."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {module}"], env=_tree_env(SRC), check=True)
    return time.perf_counter() - t0


def _seconds(calls: int, fn) -> float:
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - t0) / calls


def _verify() -> float:
    """Seconds of one in-process `fmspace verify --suite all --errata` through `cli.main`, its output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        cli.main(VERIFY_ARGV)
        return time.perf_counter() - t0


def _fresh_verify() -> float:
    """Seconds of `_verify` with every cache of CACHES cleared first."""
    for cache in CACHES:
        cache.cache_clear()
    return _verify()


def _summary(samples: list) -> dict:
    return {"median_s": statistics.median(samples), "min_s": min(samples)}


def _spread(samples: list) -> dict:
    """Median, quartiles and min of two or more samples."""
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "min_s": min(samples)}


# One replay round of a tree, in a fresh child process whose PYTHONPATH is that tree's src: argv is
# the warm passes, the fresh-cache passes and the CACHE_NAMES as JSON; stdout is one JSON object.
_CHILD = """
import contextlib, importlib, io, json, statistics, sys, time
from fmspace import checks, cli

passes, fresh, names = int(sys.argv[1]), int(sys.argv[2]), json.loads(sys.argv[3])

def resolve(name):
    module, attribute = name.rsplit(".", 1)
    try:
        return getattr(importlib.import_module(module), attribute)
    except (ImportError, AttributeError):  # a cache this tree lacks
        return None

caches = [cache for cache in map(resolve, names) if cache is not None]

def timed(fn):
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

def verify():
    cli.main(["verify", "--suite", "all", "--errata"])

def fresh_verify():
    for cache in caches:
        cache.cache_clear()
    return timed(verify)

timed(verify)
warm = [timed(verify) for _ in range(passes)]
cold = [fresh_verify() for _ in range(fresh)]
alone = {}
for name, check in checks.CHECKS.items():
    timed(check)
    alone[name] = statistics.median(timed(check) for _ in range(fresh))
print(json.dumps({"warm": warm, "fresh": cold, "checks": alone}))
"""


def _round(src: str, passes: int, fresh: int) -> tuple:
    """(metric -> seconds, one-shot stdout) of one replay round of the tree at src."""
    env = _tree_env(src)
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, str(passes), str(fresh), json.dumps(CACHE_NAMES)],
        env=env, capture_output=True, text=True, check=True,
    )
    record = json.loads(child.stdout)
    t0 = time.perf_counter()
    one_shot = subprocess.run([sys.executable, "-m", "fmspace.cli", *VERIFY_ARGV], env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - t0
    metrics = {
        "verify_pass": statistics.median(record["warm"]),
        "verify_pass.round_min": min(record["warm"]),
        "verify_pass.fresh_caches": statistics.median(record["fresh"]),
        "one_shot_verify": seconds,
        **{f"checks.{name}": value for name, value in record["checks"].items()},
    }
    return metrics, one_shot.stdout


def replay(rev: str, rounds: int, passes: int = 10, fresh: int = 3) -> dict:
    """The same-session replay of rev against this tree (SRC): see --against in the module docstring."""
    if rounds < 2:
        raise ValueError("a replay needs at least 2 rounds for its quartiles")
    git = ["git", "-C", str(ROOT)]
    commit = subprocess.run([*git, "rev-parse", "--short", rev], capture_output=True, text=True, check=True).stdout.strip()
    head = subprocess.run([*git, "describe", "--always", "--dirty"], capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run([*git, "archive", "--format=tar", commit, "src"], capture_output=True, check=True).stdout
    sides = {"rev": [], "head": []}
    stdouts = set()
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        trees = {"rev": str(Path(tmp) / "src"), "head": SRC}
        for i in range(rounds):
            for side in ("rev", "head") if i % 2 == 0 else ("head", "rev"):
                metrics, stdout = _round(trees[side], passes, fresh)
                sides[side].append(metrics)
                stdouts.add(stdout)
    names = list(dict.fromkeys(name for side in sides.values() for metrics in side for name in metrics))
    out = {}
    for name in names:
        values = {side: [metrics.get(name) for metrics in runs] for side, runs in sides.items()}
        if None in values["rev"] + values["head"]:
            out[name] = None  # a check that one tree lacks
            continue
        ratios = [h / r for h, r in zip(values["head"], values["rev"])]
        out[name] = {
            "rev": _spread(values["rev"]),
            "head": _spread(values["head"]),
            "ratio_per_round": ratios,
            "median_ratio": statistics.median(ratios),
            "head_faster_rounds": sum(h < r for h, r in zip(values["head"], values["rev"])),
        }
    return {
        "rev": commit,
        "head": head,  # this tree's repository, as `git describe --always --dirty` names it
        "rounds": rounds,
        "passes_per_round": passes,
        "fresh_per_round": fresh,
        "one_shot_stdout_identical": len(stdouts) == 1,
        "metrics": out,
    }


def replay_lines(record: dict) -> list:
    """One line per metric of a replay: the median ratio, the rounds won, and each side's quartiles in ms."""
    lines = []
    for name, metric in record["metrics"].items():
        if metric is None:
            lines.append(f"{name}: missing at one revision")
            continue
        rev, head = (f"{m['q1_s'] * 1e3:.2f}-{m['median_s'] * 1e3:.2f}-{m['q3_s'] * 1e3:.2f}" for m in (metric["rev"], metric["head"]))
        lines.append(
            f"{name}: ratio {metric['median_ratio']:.3f}, won {metric['head_faster_rounds']} of {record['rounds']}; "
            f"q1-median-q3 ms {record['rev']} {rev}, this tree {head}"
        )
    return lines


def _finite(x):
    x = float(x)
    return x if math.isfinite(x) else None


def _measure(m) -> dict:
    margin = m.value - m.bound if m.above else m.bound - m.value
    return {"value": _finite(m.value), "bound": m.bound, "above": m.above, "ok": m.ok, "margin": _finite(margin)}


def bench(repeats: int) -> dict:
    layers = {}
    for name, (calls, fn) in _layers().items():
        fn()  # warm-up
        samples = [_seconds(calls, fn) for _ in range(repeats)]
        layers[name] = {"calls": calls, **_summary(samples)}

    cold_import = {}
    for module in COLD_IMPORTS:
        _cold_import(module)  # warm-up: writes the bytecode caches
        cold_import[module] = _summary([_cold_import(module) for _ in range(repeats)])

    timed = {**checks.CHECKS, "float_evaluator": checks.float_evaluator}  # the verify checks, then the float record
    records = {name: check() for name, check in timed.items()}  # warm-up
    seconds = {name: [] for name in timed}
    for _ in range(repeats):
        for name, check in timed.items():  # each alone, with its own Facts
            t0 = time.perf_counter()
            records[name] = check()
            seconds[name].append(time.perf_counter() - t0)
    _verify()  # warm-up
    passes = [_verify() for _ in range(repeats)]
    fresh = [_fresh_verify() for _ in range(repeats)]
    return {
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "repeats": repeats,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "mpmath": mpmath.__version__,
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
        },
        "layers": layers,
        "cold_import": cold_import,
        "verify_pass": _summary(passes),
        "verify_pass.fresh_caches": _summary(fresh),
        "checks": {
            name: {
                "ok": record.ok,
                "alone": True,
                **_summary(seconds[name]),
                "measures": {k: _measure(m) for k, m in record.measures.items()},
            }
            for name, record in records.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--repeats", type=int, default=7, help="timed repeats after the warm-up (default 7)")
    parser.add_argument("--against", metavar="REV", help="replay the git revision REV against this tree (same_session)")
    parser.add_argument("--rounds", type=int, default=30, help="rounds of the --against replay (default 30)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    result = bench(args.repeats)
    if args.against is not None:
        result["same_session"] = replay(args.against, args.rounds)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print(f"wrote {args.out}: verify pass {result['verify_pass']['median_s'] * 1e3:.1f} ms median")
    if args.against is not None:
        print("\n".join(replay_lines(result["same_session"])))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
