"""Seeded request streams for the two workloads, their execution and checks.

Each workload is a closed loop with one client: a request is sent only after
the previous one has returned.  A request is executed through fmspace's
public surface (``cli.main`` in-process, or the numeric API) and its response
is checked afterwards, outside the timed region, by a ``Checker``.

``verify`` is the paper-reproduction job and reaches every layer, including
the exact ones (ring, matrices, algebra); ``numeric`` stresses flows and fmt
and leaves algebra idle.

Functions of fmspace are always reached through module attributes
(``cli.main``, ``flows.closed_flow``) so that the traced run, which rebinds
those attributes, sees every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
from dataclasses import dataclass
from typing import Iterator, Optional

import mpmath
import numpy as np

from fmspace import cli, flows, fmt
from fmspace.catalog import (
    ISOMETRIC_IDS,
    METAMORPHIC_IDS,
    SHIFT_IDS,
    GeneratorId,
    get_generator,
    resolve_id,
)
from fmspace.matrices import eval_mat


@dataclass(frozen=True)
class Request:
    kind: str
    args: tuple
    in_domain: bool = True

    @property
    def key(self) -> tuple:
        return (self.kind, self.args)


@dataclass(frozen=True)
class CliResponse:
    rc: Optional[int]
    out: str
    err: str
    exc: Optional[BaseException] = None


@dataclass(frozen=True)
class Verdict:
    ok: bool
    detail: str = ""


def run_cli(argv) -> CliResponse:
    """``fmspace <argv>`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(argv))
            except SystemExit as stop:  # argparse usage errors
                rc = stop.code if isinstance(stop.code, int) else 1
    except Exception as exc:  # a traceback the CLI let escape
        return CliResponse(None, out.getvalue(), err.getvalue(), exc)
    return CliResponse(rc, out.getvalue(), err.getvalue())


# ---------------------------------------------------------------------------
# verify: the paper-reproduction job, fixed inputs
# ---------------------------------------------------------------------------

VERIFY_ARGV = ("verify", "--suite", "all", "--errata")
VERIFY_SUITES = ("tables", "symmetry", "jeffrey", "flows", "mayer", "kernel", "metric", "profile")


class VerifyWorkload:
    name = "verify"
    setup_runs = 9
    warmup = 1
    trace_requests = 1
    first = Request("verify", VERIFY_ARGV)

    def stream(self, seed: int) -> Iterator[Request]:
        del seed  # the paper fixes every grid of the suites
        while True:
            yield self.first

    def probes(self, seed: int) -> list:
        del seed
        return []

    def execute(self, req: Request) -> CliResponse:
        return run_cli(req.args)

    def checker(self) -> "Checker":
        return Checker(self._check)

    def _check(self, req: Request, resp: CliResponse, state: dict) -> Verdict:
        if resp.exc is not None:
            return Verdict(False, f"uncaught {type(resp.exc).__name__}: {resp.exc}")
        if resp.rc != 0 or resp.err:
            return Verdict(False, f"exit {resp.rc}, stderr {resp.err[:200]!r}")
        lines = resp.out.splitlines()
        for suite in VERIFY_SUITES:
            if not any(line.startswith(f"{suite}: PASS (") for line in lines):
                return Verdict(False, f"suite {suite} did not report PASS")
        if "known discrepancies" not in resp.out:
            return Verdict(False, "errata ledger missing")
        first = state.setdefault("first", resp.out)
        if resp.out != first:
            return Verdict(False, "output differs from the first pass")
        return Verdict(True)


# ---------------------------------------------------------------------------
# numeric: flows and weights on unique continuous draws
# ---------------------------------------------------------------------------

GENERATORS = tuple(g.value for g in GeneratorId)
ISOMETRIC = tuple(g.value for g in ISOMETRIC_IDS)
METRIC_BREAKING = tuple(g.value for g in METAMORPHIC_IDS + SHIFT_IDS)
# Generators whose flow grows like exp(|param q^order|) (boost square class
# and the diagonal flows), so a large argument overflows float64.
GROWING = ("B0", "B0p", "P0", "B1", "B2", "F3", "H1", "H2", "F3p")

# The mix is the numeric part of one `fmspace verify --suite all` pass: a
# block holds one request for each call that the loops of its flows, mayer,
# kernel and profile suites make (cli._suite_*), and the seed shuffles the
# block and draws every point afresh instead of taking the suite's grid.
GRID = len(flows.STANDARD_Q_GRID) * len(flows.STANDARD_PARAM_GRID)  # 20 (q, param) points
SUITE_RADIUS_POINTS = 3 * 5  # the kernel suite: radii (0.3, 1, 2.7) x 5 q
SUITE_PAIR_POINTS = 3 * 3 * 5  # the mayer and kernel suites: radius pairs x 5 q
NUMERIC_BLOCK = (
    # flows suite: every closed form against the oracle, then the metric
    # breaking of the metamorphic and shift flows, then isometry at prec=60
    *(("flow", g) for g in GENERATORS for _ in range(GRID)),
    *(("flow", g) for g in METRIC_BREAKING for _ in range(GRID)),
    *(("mp", g) for g in ISOMETRIC for _ in range(GRID)),
    *(("mayer", None),) * SUITE_PAIR_POINTS,
    *(("kernel", None),) * SUITE_RADIUS_POINTS,  # K_R column identity
    *(("group_law", None),) * SUITE_PAIR_POINTS,  # additivity at prec=50
    *(("commute", None),) * SUITE_PAIR_POINTS,  # commutation at prec=50
    ("radial", None),  # profile suite: 4 radii, 2 inside and 2 outside the step
    # No job in the package evaluates the series method; one draw per
    # generator keeps that path measured.
    *(("series", g) for g in GENERATORS),
)

# In-domain flow draws: q log-uniform in [1e-2, 1e1] and |param q^order|
# log-uniform in [1e-7, 10]; below 1e-4 the closed forms take their series
# branch.  Points where the 1-norm of param * X(q) exceeds ORACLE_NORM are
# drawn again: there the reference expm_oracle needs more than 15 squarings
# and itself drifts past 1e-9 (measured against 60-digit mpmath, while the
# closed forms stay within 1e-15), so it could not judge a closed form at
# the pinned tolerance.  Radii span the suites' (0.3, 1, 2.7).
Q_LOG10 = (-2.0, 1.0)
ARG_LOG10 = (-7.0, 1.0)
ORACLE_NORM = 1e4
RADII = (0.3, 2.7)
FLOW_PREC = 60  # the flows suite's isometry check
KERNEL_PREC = 50  # the kernel suite's additivity and commutation checks
COMMUTE_DPS = 70
PROFILE_EDGE = 0.4  # radii within this share of R of the step edge are not drawn

# Out-of-domain points: an overflowing param q^order, q = inf, or R = inf,
# PROBES_PER_KIND of each per run.  The correct outcome is a ValueError that
# names the problem.  They are not part of the timed stream, which holds only
# requests with a correct answer; run.py serves them after the measurement.
PROBES_PER_KIND = 8
PROBE_KINDS = ("overflow", "q_inf", "R_inf")

FLOW_REL_TOL = 1e-9  # closed form vs expm_oracle, as the flows suite
SUITE_RESIDUAL_TOL = 1e-11  # isometry, additivity and commutation, as the suites
MAYER_REL_TOL = 1e-10
KERNEL_COLUMN_TOL = 1e-12
PROFILE_TOL = 5e-3

_GENERIC_LIBM = {"math domain error", "math range error"}
_PROBE_WORDS = {
    "overflow": re.compile(r"overflow|float64|finite|range|too large|prec", re.I),
    "q_inf": re.compile(r"\bq\b|wave number|finite|inf", re.I),
    "R_inf": re.compile(r"\bR\b|radius|finite|inf", re.I),
}


def _blocks(rng: random.Random, block) -> Iterator:
    """Endless slots: each block in a fresh shuffled order."""
    while True:
        slots = list(block)
        rng.shuffle(slots)
        yield from slots


def homogeneity(name: str) -> int:
    """Order alpha of a catalog generator: the digit in its name, 0 if none."""
    return int(name[1]) if len(name) > 1 and name[1].isdigit() else 0


def _q(rng: random.Random) -> float:
    return 10 ** rng.uniform(*Q_LOG10)


def _radius(rng: random.Random) -> float:
    return 10 ** rng.uniform(math.log10(RADII[0]), math.log10(RADII[1]))


def _flow_point(rng: random.Random, gen: str) -> tuple:
    while True:
        q = _q(rng)
        arg = rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(*ARG_LOG10)
        param = arg / q ** homogeneity(gen)
        x = eval_mat(get_generator(resolve_id(gen)), q)
        if abs(param) * float(np.abs(x).sum(axis=0).max()) <= ORACLE_NORM:
            return gen, param, q


class NumericWorkload:
    name = "numeric"
    setup_runs = 15
    warmup = 60
    trace_requests = 1 + len(NUMERIC_BLOCK)  # the first request, then one whole block
    first = Request("flow", ("B1", 0.7, 1.2))

    def stream(self, seed: int) -> Iterator[Request]:
        rng = random.Random(seed)
        yield self.first
        for kind, gen in _blocks(rng, NUMERIC_BLOCK):
            yield self._draw(rng, kind, gen)

    def probes(self, seed: int) -> list:
        """The run's out-of-domain points, drawn apart from the stream."""
        rng = random.Random(f"probes-{seed}")
        return [self._probe(rng, kind) for kind in PROBE_KINDS for _ in range(PROBES_PER_KIND)]

    def _draw(self, rng: random.Random, kind: str, gen: Optional[str]) -> Request:
        if kind in ("flow", "series"):
            return Request(kind, _flow_point(rng, gen))
        if kind == "mp":
            return Request(kind, _flow_point(rng, gen) + (FLOW_PREC,))
        if kind == "kernel":
            return Request(kind, (_radius(rng), _q(rng)))
        if kind in ("mayer", "group_law", "commute"):
            return Request(kind, (_radius(rng), _radius(rng), _q(rng)))
        R = rng.uniform(0.5, 2.0)
        inside = tuple(R * rng.uniform(0.0, 1.0 - PROFILE_EDGE) for _ in range(2))
        outside = tuple(R * rng.uniform(1.0 + PROFILE_EDGE, 2.0) for _ in range(2))
        return Request(kind, (R, inside + outside))

    def _probe(self, rng: random.Random, kind: str) -> Request:
        q = _q(rng)
        if kind == "overflow":
            gen = rng.choice(GROWING)
            arg = rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(3.0, 5.0)
            return Request("probe_overflow", (gen, arg / q ** homogeneity(gen), q), in_domain=False)
        if kind == "q_inf":
            return Request("probe_q_inf", (rng.choice(GENERATORS), rng.uniform(-2.0, 2.0), math.inf), in_domain=False)
        return Request("probe_R_inf", (math.inf, q), in_domain=False)

    def execute(self, req: Request):
        """The response is the returned value, or the exception raised."""
        try:
            return _NUMERIC_CALLS[req.kind](*req.args)
        except Exception as exc:  # recorded and judged by the checker
            return exc

    def checker(self) -> "Checker":
        return Checker(self._check)

    def _check(self, req: Request, resp, state: dict) -> Verdict:
        if not req.in_domain:
            return _check_probe(req, resp)
        if isinstance(resp, Exception):
            return Verdict(False, f"{type(resp).__name__}: {resp}")
        try:
            return _NUMERIC_CHECKS[req.kind](req.args, resp)
        except (TypeError, ValueError, IndexError) as exc:
            return Verdict(False, f"malformed response: {exc}")


def _flow(gen, param, q):
    matrix = flows.closed_flow(gen, param, q)
    return matrix, flows.invariance_residual(matrix)


def _series(gen, param, q):
    return flows.evaluate_flow(flows.FlowSpec(gen, param, q), "series")


def _mp(gen, param, q, prec):
    matrix = flows.closed_flow(gen, param, q, prec=prec)
    return matrix, flows.invariance_residual(matrix, prec=prec)


def _kernel(R, q):
    return fmt.kernel_matrix(R, q), fmt.kr_weights(R, q)


def _group_law(R, Rp, q):
    return flows.group_law_residual(GeneratorId.T1, R, Rp, q, prec=KERNEL_PREC)


def _commute(R, Rp, q):
    return fmt.kernel_matrix(R, q, prec=KERNEL_PREC), fmt.kernel_matrix(Rp, q, prec=KERNEL_PREC)


def _radial(R, rs):
    volume = 4.0 * math.pi * R**3 / 3.0
    hat = lambda q: fmt.step_hat(R, q) if q > 0 else volume
    return [fmt.inverse_ft_radial(hat, r) for r in rs]


_NUMERIC_CALLS = {
    "flow": _flow,
    "series": _series,
    "mp": _mp,
    "mayer": lambda Ra, Rb, q: fmt.mayer_bond(Ra, Rb, q),
    "kernel": _kernel,
    "group_law": _group_law,
    "commute": _commute,
    "radial": _radial,
    "probe_overflow": _flow,
    "probe_q_inf": _flow,
    "probe_R_inf": lambda R, q: fmt.kr_weights(R, q),
}


def _finite_matrix(m) -> np.ndarray:
    a = np.array([[float(x) for x in row] for row in m], dtype=float)
    if a.shape != (4, 4):
        raise ValueError(f"matrix of shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("non-finite matrix entry")
    return a


def _rel(reference: np.ndarray, other: np.ndarray) -> float:
    return float(np.abs(reference - other).max()) / (1.0 + float(np.abs(reference).max()))


def _oracle(gen, param, q) -> np.ndarray:
    return flows.expm_oracle(get_generator(resolve_id(gen)), param, q, 1e-13)


_METRIC = np.fliplr(np.eye(4))


def _check_flow(args, resp) -> Verdict:
    matrix, residual = resp
    a = _finite_matrix(matrix)
    rel = _rel(a, _oracle(*args))
    if not rel <= FLOW_REL_TOL:
        return Verdict(False, f"closed form vs oracle rel {rel:.3e} at {args}")
    residual = float(residual)
    recomputed = float(np.abs(a.T @ _METRIC @ a - _METRIC).max())
    scale = (1.0 + float(np.abs(a).max())) ** 2
    if not abs(residual - recomputed) <= 1e-12 * scale:
        return Verdict(False, f"invariance residual {residual!r}, recomputed {recomputed!r}")
    return Verdict(True)


def _check_series(args, resp) -> Verdict:
    if resp.method != "series":
        return Verdict(False, f"method {resp.method!r}")
    closed = _finite_matrix(flows.closed_flow(*args))
    rel = _rel(closed, _finite_matrix(resp.matrix))
    if not rel <= FLOW_REL_TOL:
        return Verdict(False, f"series vs closed form rel {rel:.3e} at {args}")
    return Verdict(True)


def _check_mp(args, resp) -> Verdict:
    matrix, residual = resp
    rel = _rel(_finite_matrix(matrix), _oracle(*args[:3]))
    if not rel <= FLOW_REL_TOL:
        return Verdict(False, f"mpmath closed form vs oracle rel {rel:.3e} at {args}")
    if not float(residual) <= SUITE_RESIDUAL_TOL:
        return Verdict(False, f"isometric flow breaks the metric by {float(residual):.3e} at {args}")
    return Verdict(True)


def _check_mayer(args, bond) -> Verdict:
    Ra, Rb, q = args
    step = fmt.step_hat(Ra + Rb, q)
    if not abs(float(bond) - step) / (1.0 + abs(step)) <= MAYER_REL_TOL:
        return Verdict(False, f"Mayer identity: bond {bond!r}, step {step!r} at {args}")
    return Verdict(True)


def _kernel_column_off(kernel, weights) -> float:
    w = np.asarray(weights, dtype=float)
    if w.shape != (4,) or not np.isfinite(w).all():
        raise ValueError("weights are not 4 finite numbers")
    return float(np.abs(_finite_matrix(kernel)[:, 0] - w).max())


def _check_kernel(args, resp) -> Verdict:
    if not _kernel_column_off(*resp) <= KERNEL_COLUMN_TOL:
        return Verdict(False, f"K_R column identity fails at {args}")
    return Verdict(True)


def _check_group_law(args, residual) -> Verdict:
    if not float(residual) <= SUITE_RESIDUAL_TOL:
        return Verdict(False, f"additivity residual {float(residual):.3e} at {args}")
    return Verdict(True)


def _check_commute(args, resp) -> Verdict:
    R, Rp, q = args
    a, b = resp
    for radius, kernel in ((R, a), (Rp, b)):
        # float kr_weights loses about 1e-12 to cancellation at small q
        w = fmt.kr_weights(radius, q)
        if not _kernel_column_off(kernel, w) <= FLOW_REL_TOL * (1.0 + float(np.abs(w).max())):
            return Verdict(False, f"prec={KERNEL_PREC} kernel is not K_R at R={radius}, q={q}")
    with mpmath.workdps(COMMUTE_DPS):
        comm = max(
            abs(sum(a[i][k] * b[k][j] for k in range(4)) - sum(b[i][k] * a[k][j] for k in range(4)))
            for i in range(4)
            for j in range(4)
        )
    if not float(comm) <= SUITE_RESIDUAL_TOL:
        return Verdict(False, f"commutator {float(comm):.3e} at {args}")
    return Verdict(True)


def _check_radial(args, resp) -> Verdict:
    R, rs = args
    if len(resp) != len(rs):
        return Verdict(False, "profile lost points")
    for r, value in zip(rs, resp):
        expected = 1.0 if r < R else 0.0
        if not abs(value - expected) <= PROFILE_TOL:
            return Verdict(False, f"profile {value!r} at r={r} (R={R})")
    return Verdict(True)


_NUMERIC_CHECKS = {
    "flow": _check_flow,
    "series": _check_series,
    "mp": _check_mp,
    "mayer": _check_mayer,
    "kernel": _check_kernel,
    "group_law": _check_group_law,
    "commute": _check_commute,
    "radial": _check_radial,
}


def _check_probe(req: Request, resp) -> Verdict:
    if not isinstance(resp, Exception):
        return Verdict(False, f"out-of-domain {req.args} returned a value")
    if not isinstance(resp, ValueError):
        return Verdict(False, f"out-of-domain {req.args} raised {type(resp).__name__}: {resp}")
    message = str(resp)
    if message in _GENERIC_LIBM or not _PROBE_WORDS[req.kind.removeprefix("probe_")].search(message):
        return Verdict(False, f"out-of-domain {req.args}: message {message!r} does not name the problem")
    return Verdict(True)


# ---------------------------------------------------------------------------


class Checker:
    """Judges responses of one run and counts them.

    ``failed`` counts every request whose outcome was wrong; ``wrong`` counts
    only in-domain requests that returned a wrong answer, so ``correct`` is
    False exactly when the program computed something incorrectly.
    """

    def __init__(self, judge):
        self._judge = judge
        self._state: dict = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures = {"in_domain": [], "out_of_domain": []}

    def check(self, req: Request, resp) -> Verdict:
        verdict = self._judge(req, resp, self._state)
        self.attempted += 1
        if not verdict.ok:
            self.failed += 1
            self.wrong += req.in_domain
            examples = self.failures["in_domain" if req.in_domain else "out_of_domain"]
            if len(examples) < 10:
                examples.append(f"{req.kind} {req.args!r:.160}: {verdict.detail}")
        return verdict

    @property
    def correct(self) -> bool:
        return self.wrong == 0


WORKLOADS = {w.name: w for w in (VerifyWorkload(), NumericWorkload())}
