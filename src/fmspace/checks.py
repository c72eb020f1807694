"""The verify criteria: each grid, fold and bound, written once.

Each check runs one suite of `fmspace verify` and returns a CheckRecord with
every measured value next to its bound; an exact statement is a count held
to zero.  The tables and jeffrey checks both count the published cells that
do not multiply out, over every structure table and over the shift tensor
alone, in one record format.  The other six checks state the paper's claims
as exact counts only: `verify` does no float work, evaluates no flow, runs
no series oracle and loads no mpmath.  One line each:

- flows: the 20 certificates and the published templates' exact diff;
- kernel: T1's certificate makes K_R = exp(R t1) a one-parameter group;
- mayer: T1's certificate, t1^c = t1 and M e0 = e3 give
  w(Ra)^t M w(Rb) = w3(Ra + Rb), and t1 = N at q = 0 with N^4 = 0 gives its
  volume limit 4 pi (Ra + Rb)^3 / 3;
- profile: T1's certificate, t1's row 3 = e2^t and w2 = 4 pi R sin(qR) / q
  give w3(0) = 0 and dw3/dR = 4 pi R^2 sinc(qR), the unit step's transform;
- symmetry and metric: the counter-transpose classes, M^2 = 1 and tr M = 0.

Each check takes the `Facts` of its pass: the exact facts that more than one
check reads, each formed once in the pass.  The jeffrey check reads the
shift products that the tables check formed, and the kernel, mayer and
profile checks T1's certificate from the flows check.  `fmspace verify`
builds one Facts per call and drops it when the call returns; a check
called alone builds its own, so nothing is kept between passes.

The float evaluator's own measures (closed forms against the oracle, the
float invariance residuals, the float weights and bond against prec 50, the
bond's volume limit, the windowed step profile) are one record outside
`verify`, `float_evaluator`, which Tier-1, `scripts/bench.py` and
`scripts/flow_oracle_report.py` read.  The CLI renders the records and the
acceptance tests assert on them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
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
from .certificate import certify, entry_is
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
from .fmt import jeffrey_identities, kr_weights, mayer_bond, step_profile
from .matrices import IDENTITY, METRIC, Mat4
from .ring import RingElem

RADII = (0.3, 1.0, 2.7)  # the float evaluator's weights and bond grid
WAVE_NUMBERS = (0.01, 0.5, 1.0, math.pi, 10.0)
KERNEL_PREC = 50  # decimal digits of the reference weights; their differences from the float ones take 20 more
PROFILE_RADII = (0.0, 0.5, 1.5, 2.0)  # where the float evaluator reads the unit step's profile


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


# The sphere's four Minkowski functionals (1, R, 4 pi R^2, 4 pi R^3 / 3): the coefficient of R^k at (k, k)
_MINKOWSKI = Mat4.from_entries([(0, 0, 1), (1, 1, 1), (2, 2, 4, 0, 1), (3, 3, Fraction(4, 3), 0, 1)])
_E0, _E3 = Mat4.from_entries([(0, 0, 1)]), Mat4.from_entries([(3, 0, 1)])  # e0 and e3, as column 0


def mayer(facts: Optional[Facts] = None) -> CheckRecord:
    """The bond w(Ra)^t M w(Rb) = w3(Ra + Rb) and its q -> 0 volume limit, each implied by exact counts.

    Bond: T1's certificate gives w(R) = K(R) e0 with K(R) = exp(R t1), so
    K(Ra) K(Rb) = K(Ra + Rb); t1^c = M t1^t M = t1 gives K(R)^t M = M K(R);
    and M e0 = e3: so w(Ra)^t M w(Rb) = e3^t K(Ra + Rb) e0 = w3(Ra + Rb) for
    every Ra, Rb and q.  Counted: T1's certificate failures and the nonzero
    entries of t1^c - t1 and of M e0 - e3.
    Volume limit: t1 has no negative power of q and is N at q = 0, with
    N^4 = 0 and exp(R N) e0 = (1, R, 4 pi R^2, 4 pi R^3 / 3), the sphere's
    Minkowski functionals, so the bond tends to 4 pi (Ra + Rb)^3 / 3.
    Counted: the entries of t1 with a negative power of q, and the nonzero
    entries of N^4 and of sum_k R^k / k! N^k e0 - (1, R, 4 pi R^2, 4 pi R^3 / 3),
    a polynomial in R per row, held with the coefficient of R^k in column k.
    """
    certificate = (facts or Facts()).certify(GeneratorId.T1)
    t1 = get_generator(GeneratorId.T1)
    t1c, m_e0 = t1.counter_transpose() - t1, METRIC @ _E0 - _E3
    not_bond = certificate.failures + len(list(t1c.entries())) + len(list(m_e0.entries()))
    singular = sum(any(j < 0 for j, _k, _c in x.terms()) for _r, _c, x in t1.entries())
    n = Mat4.from_entries((r, c, coef, 0, k) for r, c, x in t1.entries() for j, k, coef in x.terms() if j == 0)
    powers = [_E0]  # N^k e0 for k = 0..3, as column 0
    while len(powers) < 4:
        powers.append(n @ powers[-1])
    series = Mat4.from_entries(
        (r, k, Fraction(coef, math.factorial(k)), j, m) for k, power in enumerate(powers) for r, _c, x in power.entries() for j, m, coef in x.terms()
    )
    rows_off = {r for r, _c, _x in (series - _MINKOWSKI).entries()}
    n2 = n @ n
    measures = {
        "bond identity not implied (exact)": Measure(not_bond, 0),
        "volume limit not implied (exact)": Measure(singular + len(list((n2 @ n2).entries())) + len(rows_off), 0),
    }
    return CheckRecord("mayer", _detail("bond = step of the summed radii, q->0 volume limit, exact", measures), measures)


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
    """w3 is the Fourier transform of the unit step of range R, so the step comes back from it, exactly.

    T1's certificate gives w3(0) = F(0)'s (3, 0) entry = 0 and, with t1's
    row 3 equal to e2^t, dw3/dR = (t1 F)'s (3, 0) entry = w2 = 4 pi R sin(qR) / q
    = 4 pi R^2 sinc(qR): so w3 = int_0^R 4 pi r^2 sinc(qr) dr, the 3D
    transform of the step, and Fourier inversion gives the step back.
    Counted: T1's certificate failures, the nonzero entries of t1's row 3
    minus e2^t, and 1 if F's (2, 0) entry is not 4 pi R sin(qR) / q.
    """
    certificate = (facts or Facts()).certify(GeneratorId.T1)
    row3 = [c for r, c, _x in (get_generator(GeneratorId.T1) - Mat4.from_entries([(3, 2, 1)])).entries() if r == 3]
    w2 = entry_is(certificate, 2, 0, ("trig", RingElem.qpow(1)), lambda R, q, pi, cos, sin: 4 * pi * R * sin / q)
    measures = {"step transform not implied (exact)": Measure(certificate.failures + len(row3) + (not w2), 0)}
    return CheckRecord("profile", _detail("w3 = transform of the unit step, exact", measures), measures)


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
    residuals, which must stay above 0.1; the float weight vector against
    the prec-50 one at each radius and wave number of the kernel grid; the
    float bond of each radius pair at each of those wave numbers against
    the prec-50 w3 of the summed radii, as |bond - w3| / (1 + |w3|), and
    at q = 1e-6 against the volume 4 pi (Ra + Rb)^3 / 3, relative; and the
    step profile of the unit sphere at PROFILE_RADII against 1 inside and
    0 outside.  The folds keep a NaN.
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
    column = bond = limit = deviation = 0.0
    with mpmath.workdps(KERNEL_PREC + 20):  # the radii's sums and the differences from prec 50 are exact
        for R in RADII:
            for q in WAVE_NUMBERS:
                for w, exact in zip(kr_weights(R, q).tolist(), kr_weights(R, q, prec=KERNEL_PREC)):
                    column = _fold_max(column, float(abs(w - exact)))
        for Ra in RADII:
            for Rb in RADII:
                for q in WAVE_NUMBERS:
                    step = kr_weights(mpmath.mpf(Ra) + mpmath.mpf(Rb), q, prec=KERNEL_PREC)[3]
                    bond = _fold_max(bond, float(abs(mayer_bond(Ra, Rb, q) - step) / (1 + abs(step))))
                volume = 4.0 * math.pi * (Ra + Rb) ** 3 / 3.0
                limit = _fold_max(limit, abs(mayer_bond(Ra, Rb, 1e-6) - volume) / volume)
    for f, expected in zip(step_profile(1.0, PROFILE_RADII), (1.0, 1.0, 0.0, 0.0)):
        deviation = _fold_max(deviation, abs(f - expected))
    measures = {
        "closed form vs oracle rel": Measure(functools.reduce(_fold_max, (rel for _g, rel, _r in rows)), 1e-9),
        "least metric-breaking residual": Measure(least, 0.1, above=True),
        "column vs weights": Measure(column, 1e-12),
        "bond vs step rel": Measure(bond, 1e-10),
        "volume limit rel": Measure(limit, 1e-8),
        "worst deviation": Measure(deviation, 5e-3),
    }
    detail = _detail("20 float flows vs oracle on the grid, float weights and bond vs prec 50, volume limit, step profile", measures)
    return FloatRecord("float evaluator", detail, measures, tuple(rows))
