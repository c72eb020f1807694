"""The verify criteria: each grid, fold and bound, written once.

Each check runs one suite of `fmspace verify` and returns a CheckRecord with
every measured value next to its bound; an exact statement is a count held
to zero.  The tables and jeffrey checks both count the published cells that
do not multiply out, over every structure table and over the shift tensor
alone, in one record format.  The CLI renders the records, the acceptance
tests assert on them, and `scripts/flow_oracle_report.py` prints the flows
record.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

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
from .flows import FlowDiscrepancy, _fold_max, grid_flows, invariance_residuals, reference_discrepancies
from .fmt import jeffrey_identities, kr_weights, mayer_bond, step_hat, step_profile
from .matrices import IDENTITY, METRIC, metric_eigenvalues

RADII = (0.3, 1.0, 2.7)  # the mayer and kernel grids
WAVE_NUMBERS = (0.01, 0.5, 1.0, math.pi, 10.0)
KERNEL_PREC = 50  # decimal digits of the kernels; their differences from the weights take 20 more
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
    """The flows record, with what the errata ledger and the oracle report print."""

    # (generator, worst rel vs oracle, worst float64 invariance residual) on the grid
    rows: tuple[tuple[GeneratorId, float, float], ...] = ()
    discrepancies: tuple[FlowDiscrepancy, ...] = ()


def _detail(passed: str, measures: dict[str, Measure]) -> str:
    """`passed` if every measure holds its bound, else each failing measure with its bound."""
    failing = [(k, m) for k, m in measures.items() if not m.ok]
    return "; ".join(f"{k} {m.value:.2e}, bound {'>' if m.above else '<='} {m.bound:g}" for k, m in failing) or passed


def _table_record(name: str, report: TableVerification) -> CheckRecord:
    """The cells checked and the mismatches held to zero, each failing cell on its own line."""
    lines = [f"{report.cells_checked} cells, {len(report.mismatches)} mismatches", *map(str, report.mismatches)]
    return CheckRecord(name, "\n    ".join(lines), {"mismatches": Measure(len(report.mismatches), 0)})


def tables() -> CheckRecord:
    return _table_record("tables", verify_reference_tables())


def symmetry() -> CheckRecord:
    problems = []
    for ids, expected in ((ISOMETRIC_IDS, "isometric"), (METAMORPHIC_IDS, "metamorphic")):
        problems += [f"{g.value} not {expected}" for g in ids if symmetry_class(get_generator(g)).value != expected]
    for gid in GeneratorId:
        expected = int(gid.value[1]) if gid.value[1].isdigit() else 0
        if homogeneity_order(get_generator(gid)) != expected:
            problems.append(f"{gid.value} homogeneity order != {expected}")
    dims = symmetry_space_dimensions()
    if dims != (6, 10):
        problems.append(f"symmetry space dims {dims} != (6, 10)")
    detail = "; ".join(problems) or "15 generators classified, dims (6, 10)"
    return CheckRecord("symmetry", detail, {"misclassified": Measure(len(problems), 0)})


def jeffrey() -> CheckRecord:
    return _table_record("jeffrey", jeffrey_identities())


def flows() -> FlowsRecord:
    """Closed forms vs the series oracle, exact isometry, metric breaking, errata.

    Each float64 flow of the grid and its oracle are evaluated once, for the
    oracle deviation, the float64 invariance residual of its generator and
    the discrepancy scan of the published forms.  A generator's 20 oracle
    deviations are taken as one array operation over its stacked flows.
    Isometry is exact: the certificates of the six isometric closed forms
    (`certificate.certify`) show each is exp(tau X) and keeps the metric at
    every tau and q, and the entries that do not reduce to 0 are counted.
    A generator without a closed form (a catalog matrix off its published
    form) is named in the detail; its flows are NaN, and an isometric one
    counts all 16 entries as not reducing to 0.
    """
    evaluated = grid_flows(GeneratorId)
    closed = np.array([c for c, _o in evaluated.values()])
    oracle = np.array([o for _c, o in evaluated.values()])
    # max |closed - oracle| / (1 + max |closed|) at each point; numpy's max keeps a NaN, as _fold_max does
    rel = (np.abs(closed - oracle).max(axis=(2, 3)) / (1.0 + np.abs(closed).max(axis=(2, 3)))).max(axis=1)
    residual = invariance_residuals(closed.reshape(-1, 4, 4)).reshape(len(evaluated), -1).max(axis=1)
    rows = list(zip(evaluated, rel.tolist(), residual.tolist()))
    # grid_flows marks a generator without a closed form by an all-NaN closed stack
    formless = [gid for gid, r, _res in rows if r != r and np.isnan(evaluated[gid][0]).all()]
    not_isometric = sum(16 if gid in formless else certify(gid).failures for gid in ISOMETRIC_IDS)
    # the least of the metamorphic and shift maxima: the NaN-keeping max fold, negated
    least = -functools.reduce(_fold_max, (-r for gid, _rel, r in rows if gid in METAMORPHIC_IDS + SHIFT_IDS))
    discrepancies = tuple(reference_discrepancies(evaluated=evaluated))
    off_ledger = {(d.gen, d.entry) for d in discrepancies} ^ {(GeneratorId.B2, (3, 1))}
    measures = {
        "closed form vs oracle rel": Measure(functools.reduce(_fold_max, (rel for _g, rel, _r in rows)), 1e-9),
        "isometric flows not metric-preserving (exact)": Measure(not_isometric, 0),
        "least metric-breaking residual": Measure(least, 0.1, above=True),
        "discrepancy cells off the ledger": Measure(len(off_ledger), 0),
    }
    detail = _detail("20 flows vs oracle, isometry, discrepancy scan", measures)
    if formless:
        detail = f"no closed form for {', '.join(gid.value for gid in formless)}; {detail}"
    return FlowsRecord("flows", detail, measures, tuple(rows), discrepancies)


def mayer() -> CheckRecord:
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


def kernel() -> CheckRecord:
    """Column 0 of K_R = exp(R t1) is the weight vector; K_R is a one-parameter group in R.

    The float weight vector is held against the prec-50 one at each radius
    and wave number; T1's certificate (`certificate.certify`) shows that
    the weight vector is column 0 of exp(R t1), its closed form exactly, so
    K_R K_R' = K_{R+R'} = K_R' K_R for every R, R' and q.  The certificate's
    entries that do not reduce to 0 are counted.
    """
    import mpmath

    column = 0.0
    with mpmath.workdps(KERNEL_PREC + 20):
        for R in RADII:
            for q in WAVE_NUMBERS:
                for w, exact in zip(kr_weights(R, q).tolist(), kr_weights(R, q, prec=KERNEL_PREC)):
                    column = _fold_max(column, float(abs(w - exact)))
    measures = {
        "column vs weights": Measure(column, 1e-12),
        "kernel not a one-parameter group (exact)": Measure(certify(GeneratorId.T1).failures, 0),
    }
    return CheckRecord("kernel", _detail("column, additivity, commutation", measures), measures)


def metric() -> CheckRecord:
    eigs = metric_eigenvalues()
    deviation = functools.reduce(_fold_max, (abs(e - t) for e, t in zip(eigs, (-1.0, -1.0, 1.0, 1.0))))
    measures = {
        "eigenvalue deviation": Measure(deviation, 1e-12),
        "nonzero entries of M^2 - 1": Measure(len(list((METRIC @ METRIC - IDENTITY).entries())), 0),
    }
    detail = f"eigenvalues {[format(float(e), '.6g') for e in eigs]}, M^2 = 1 exact"
    return CheckRecord("metric", _detail(detail, measures), measures)


def profile() -> CheckRecord:
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
