"""The verify criteria: each grid, fold and bound, written once.

Each check runs one suite of `fmspace verify` and returns a CheckRecord with
every measured value next to its bound; an exact statement is a count held
to zero.  The tables and jeffrey checks both count the published cells that
do not multiply out, over every structure table and over the shift tensor
alone, in one record format.  The flows, kernel, symmetry and metric checks
state the paper's claims as exact counts only: `verify` evaluates no float
flow, runs no series oracle and loads no mpmath.

Each check takes the `Facts` of its pass: the exact facts that more than one
check reads, each formed once in the pass.  The jeffrey check reads the
shift products that the tables check formed, and the kernel check T1's
certificate from the flows check.  `fmspace verify` builds one Facts per
call and drops it when the call returns; a check called alone builds its
own, so nothing is kept between passes.

The float evaluator's own measures (closed forms against the oracle, the
float invariance residuals, the float weights against prec 50) are one
record outside `verify`, `float_evaluator`, which Tier-1, `scripts/bench.py`
and `scripts/flow_oracle_report.py` read.  The CLI renders the records and
the acceptance tests assert on them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import algebra
from .algebra import TableVerification, verify_reference_tables
from .catalog import (
    ISOMETRIC_IDS,
    METAMORPHIC_IDS,
    SHIFT_IDS,
    GeneratorId,
    get_generator,
    homogeneity_order,
    symmetry_class,
    symmetry_space_dimensions,
)
from .certificate import certify
from .flows import (
    GRID_POINTS,
    ORACLE_TOL,
    FlowDiscrepancy,
    _fold_max,
    closed_flow,
    expm_oracle,
    invariance_residual,
    reference_discrepancies,
)
from .fmt import jeffrey_identities, kr_weights, mayer_bond, step_hat, step_profile
from .matrices import IDENTITY, METRIC

RADII = (0.3, 1.0, 2.7)  # the mayer grid, and the float weights'
WAVE_NUMBERS = (0.01, 0.5, 1.0, math.pi, 10.0)
KERNEL_PREC = 50  # decimal digits of the reference weights; their differences from the float ones take 20 more
PROFILE_RADII = (0.0, 0.5, 1.5, 2.0)  # where the profile check reads the unit step


@dataclass(frozen=True)
class Measure:
    """A measured value and its bound: at most the bound, or above it if `above`; NaN fails both."""

    value: float
    bound: float
    above: bool = False

    @property
    def ok(self) -> bool:
        return self.value > self.bound if self.above else self.value <= self.bound


@dataclass(frozen=True)
class CheckRecord:
    """One verify suite: its name, the detail line `verify` prints, and each measure by name."""

    name: str
    detail: str
    measures: dict[str, Measure]

    @property
    def ok(self) -> bool:
        return all(m.ok for m in self.measures.values())


@dataclass(frozen=True)
class FlowsRecord(CheckRecord):
    """The flows record, with the exact discrepancies that the errata ledger prints."""

    discrepancies: tuple[FlowDiscrepancy, ...] = ()


@dataclass(frozen=True)
class FloatRecord(CheckRecord):
    """The float evaluator's record, which `float_evaluator` returns and no `verify` suite prints."""

    # (generator, worst rel vs oracle, worst float64 invariance residual) on GRID_POINTS
    rows: tuple[tuple[GeneratorId, float, float], ...] = ()


class Facts:
    """The exact facts of one verify pass, each formed on first use and kept for the pass alone.

    product(x, y) is the catalog product x y (`algebra._product`) and
    certify(gid) a closed form's certificate (`certificate.certify`).  A
    fault planted between two passes shows in the second, which builds a
    new Facts.
    """

    def __init__(self):
        self.product = functools.cache(algebra._product)
        self.certify = functools.cache(certify)


def _detail(passed: str, measures: dict[str, Measure]) -> str:
    """`passed` if every measure holds its bound, else each failing measure with its bound."""
    failing = [(k, m) for k, m in measures.items() if not m.ok]
    return "; ".join(f"{k} {m.value:.2e}, bound {'>' if m.above else '<='} {m.bound:g}" for k, m in failing) or passed


def _table_record(name: str, report: TableVerification) -> CheckRecord:
    """The cells checked and the mismatches held to zero, each failing cell on its own line."""
    lines = [f"{report.cells_checked} cells, {len(report.mismatches)} mismatches", *map(str, report.mismatches)]
    return CheckRecord(name, "\n    ".join(lines), {"mismatches": Measure(len(report.mismatches), 0)})


def tables(facts: Optional[Facts] = None) -> CheckRecord:
    return _table_record("tables", verify_reference_tables(product=(facts or Facts()).product))


def symmetry(facts: Optional[Facts] = None) -> CheckRecord:
    """The counter-transpose class and homogeneity order of each generator, and the dimensions of the two classes.

    The six isometric generators are counter-antisymmetric (M X^t M = -X);
    the nine metamorphic ones and t0..t3 are counter-symmetric
    (M X^t M = X) and nonzero (the zero matrix reads as isometric).  That
    states exactly that their flows break the metric: d/dtau (F^t M F) at
    tau = 0 is X^t M + M X = M (X^c + X) = 2 M X, which is not 0.
    """
    problems = []
    for ids, expected in ((ISOMETRIC_IDS, "isometric"), (METAMORPHIC_IDS + SHIFT_IDS, "metamorphic")):
        problems += [f"{g.value} not {expected}" for g in ids if symmetry_class(get_generator(g)).value != expected]
    for gid in GeneratorId:
        expected = int(gid.value[1]) if gid.value[1].isdigit() else 0
        if homogeneity_order(get_generator(gid)) != expected:
            problems.append(f"{gid.value} homogeneity order != {expected}")
    dims = symmetry_space_dimensions()
    if dims != (6, 10):
        problems.append(f"symmetry space dims {dims} != (6, 10)")
    detail = "; ".join(problems) or "15 generators and t0..t3 classified, dims (6, 10)"
    return CheckRecord("symmetry", detail, {"misclassified": Measure(len(problems), 0)})


def jeffrey(facts: Optional[Facts] = None) -> CheckRecord:
    return _table_record("jeffrey", jeffrey_identities((facts or Facts()).product))


# The errata ledger's one published entry that differs from the generated closed form, and by how much
LEDGER = {FlowDiscrepancy(GeneratorId.B2, (3, 1), "(q^2 - q^-2) sinh(tau q^2)")}


def flows(facts: Optional[Facts] = None) -> FlowsRecord:
    """Every closed form is exp(tau X), the isometric ones keep the metric, and the published forms diff to the ledger, exactly.

    The 20 certificates (`certificate.certify`) count the entries of
    F(0) - 1 and of dF/dtau - X F that do not reduce to 0, and for the six
    isometric generators those of F^t M F - M.  The 15 published templates
    are diffed against the certificates' own F (`reference_discrepancies`),
    and every entry that differs off LEDGER, or by another difference, or
    a LEDGER entry that does not differ, counts.  A generator without a closed form (a catalog
    matrix off its published form) is named in the detail and counts all
    16 entries of F, and again for an isometric one.
    """
    facts = facts or Facts()
    certificates, formless = {}, []
    for gid in GeneratorId:
        try:
            certificates[gid] = facts.certify(gid)
        except ValueError:
            formless.append(gid)
    not_exp = sum(c.at_zero + c.ode for c in certificates.values()) + 16 * len(formless)
    not_isometric = sum(certificates[gid].isometry if gid in certificates else 16 for gid in ISOMETRIC_IDS)
    discrepancies = tuple(reference_discrepancies(certificates))
    off_ledger = set(discrepancies) ^ LEDGER
    measures = {
        "closed forms not exp(tau X) (exact)": Measure(not_exp, 0),
        "isometric flows not metric-preserving (exact)": Measure(not_isometric, 0),
        "published entries off the ledger (exact)": Measure(len(off_ledger), 0),
    }
    detail = _detail("20 closed forms certified, isometry, published forms diffed", measures)
    if formless:
        detail = f"no closed form for {', '.join(gid.value for gid in formless)}; {detail}"
    return FlowsRecord("flows", detail, measures, discrepancies)


def mayer(facts: Optional[Facts] = None) -> CheckRecord:
    """The Mayer-bond identity on the grid, and its q -> 0 volume limit for every radius pair."""
    worst = limit = 0.0
    for Ra in RADII:
        for Rb in RADII:
            for q in WAVE_NUMBERS:
                step = step_hat(Ra + Rb, q)
                worst = _fold_max(worst, abs(mayer_bond(Ra, Rb, q) - step) / (1.0 + abs(step)))
            volume = 4.0 * math.pi * (Ra + Rb) ** 3 / 3.0
            limit = _fold_max(limit, abs(mayer_bond(Ra, Rb, 1e-6) - volume) / volume)
    measures = {"bond vs step rel": Measure(worst, 1e-10), "volume limit rel": Measure(limit, 1e-8)}
    return CheckRecord("mayer", _detail(f"worst rel {worst:.2e}; q->0 volume limit ok", measures), measures)


def kernel(facts: Optional[Facts] = None) -> CheckRecord:
    """Column 0 of K_R = exp(R t1) is the weight vector, and K_R is a one-parameter group in R, exactly.

    T1's certificate (`certificate.certify`, the flows check's in a verify
    pass) shows that its closed form, whose column 0 is the weight vector
    (`flows._weights`), is exp(R t1), so K_R K_R' = K_{R+R'} = K_R' K_R for
    every R, R' and q.  The certificate's entries that do not reduce to 0
    are counted.
    """
    certificate = (facts or Facts()).certify(GeneratorId.T1)
    measures = {"kernel not a one-parameter group (exact)": Measure(certificate.failures, 0)}
    return CheckRecord("kernel", _detail("column, additivity, commutation, exact", measures), measures)


def metric(facts: Optional[Facts] = None) -> CheckRecord:
    """M^2 = 1 and tr M = 0, exactly: so M's eigenvalues are +-1, two of each."""
    trace = sum(METRIC[i, i] for i in range(4))
    measures = {
        "nonzero entries of M^2 - 1": Measure(len(list((METRIC @ METRIC - IDENTITY).entries())), 0),
        "nonzero tr M": Measure(int(bool(trace)), 0),
    }
    return CheckRecord("metric", _detail("M^2 = 1 and tr M = 0 exact: eigenvalues -1, -1, 1, 1", measures), measures)


def profile(facts: Optional[Facts] = None) -> CheckRecord:
    """The unit-sphere step, transformed back to real space, inside and outside the sphere."""
    worst = 0.0
    for f, expected in zip(step_profile(1.0, PROFILE_RADII), (1.0, 1.0, 0.0, 0.0)):
        worst = _fold_max(worst, abs(f - expected))
    measures = {"worst deviation": Measure(worst, 5e-3)}
    return CheckRecord("profile", _detail(f"worst deviation {worst:.2e}", measures), measures)


# The verify suites, in the order `verify --suite all` runs them.
CHECKS = {
    "tables": tables,
    "symmetry": symmetry,
    "jeffrey": jeffrey,
    "flows": flows,
    "mayer": mayer,
    "kernel": kernel,
    "metric": metric,
    "profile": profile,
}


def float_evaluator() -> FloatRecord:
    """The float evaluator's measures, which no `verify` suite states and Tier-1 holds.

    Each float64 closed flow (`flows.closed_flow`) at each point of
    GRID_POINTS against the series oracle at ORACLE_TOL, as
    max |closed - oracle| / (1 + max |closed|), and its float64 invariance
    residual; the least of the metamorphic and shift generators' worst
    residuals, which must stay above 0.1; and the float weight vector
    against the prec-50 one at each radius and wave number of the kernel
    grid.  The folds keep a NaN.
    """
    import mpmath

    rows = []
    for gid in GeneratorId:
        rel = residual = 0.0
        for q, p in GRID_POINTS:
            closed = closed_flow(gid, p, q)
            oracle = expm_oracle(get_generator(gid), p, q, ORACLE_TOL)
            rel = _fold_max(rel, float(np.abs(closed - oracle).max()) / (1.0 + float(np.abs(closed).max())))
            residual = _fold_max(residual, invariance_residual(closed))
        rows.append((gid, rel, residual))
    # the least of the metamorphic and shift maxima: the NaN-keeping max fold, negated
    least = -functools.reduce(_fold_max, (-r for gid, _rel, r in rows if gid in METAMORPHIC_IDS + SHIFT_IDS))
    column = 0.0
    with mpmath.workdps(KERNEL_PREC + 20):
        for R in RADII:
            for q in WAVE_NUMBERS:
                for w, exact in zip(kr_weights(R, q).tolist(), kr_weights(R, q, prec=KERNEL_PREC)):
                    column = _fold_max(column, float(abs(w - exact)))
    measures = {
        "closed form vs oracle rel": Measure(functools.reduce(_fold_max, (rel for _g, rel, _r in rows)), 1e-9),
        "least metric-breaking residual": Measure(least, 0.1, above=True),
        "column vs weights": Measure(column, 1e-12),
    }
    detail = _detail("20 float flows vs oracle on the grid, float weights vs prec 50", measures)
    return FloatRecord("float evaluator", detail, measures, tuple(rows))
