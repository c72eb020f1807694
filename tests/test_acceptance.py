"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (visible with `pytest -s` or on
failure); timing bounds are asserted alongside the numeric tolerances.
"""

import functools
import math
import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from fmspace import checks
from fmspace.algebra import Decomposition, decompose
from fmspace.catalog import BASIS_IDS, GeneratorId, ISOMETRIC_IDS, METAMORPHIC_IDS, SHIFT_IDS, get_generator
from fmspace.flows import GRID_POINTS, _fold_max, closed_flow, invariance_residual, max_abs
from fmspace.fmt import kernel_matrix, mayer_bond
from fmspace.matrices import METRIC, commutator, eval_mat
from fmspace.ring import RingElem


def _report(number: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    return ok


def _held(record, name: str, bound: float, above: bool = False) -> float:
    """The measured value, once the registry is seen to hold it to this test's own bound."""
    m = record.measures[name]
    assert (m.bound, m.above) == (bound, above), f"{record.name}: the bound of {name!r} changed"
    return m.value


@pytest.fixture(scope="module")
def flows_check():
    """The flows record, which criteria 3 and 4 share, and the seconds it took."""
    start = time.perf_counter()
    record = checks.flows()
    return record, time.perf_counter() - start


@pytest.fixture(scope="module")
def float_record():
    """The float evaluator's record, which no `verify` suite prints: criteria 3, 4, 5, 6 and 10 hold its measures."""
    return checks.float_evaluator()


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    record = checks.tables()
    elapsed = time.perf_counter() - start
    mismatches = _held(record, "mismatches", 0)
    ok = record.ok and mismatches == 0 and elapsed < 5.0
    assert _report(1, ok, f"structure tables regenerated, {record.detail}, {elapsed:.2f}s"), record.detail


def test_criterion_2_symmetry_classes():
    record = checks.symmetry()
    ok = record.ok and _held(record, "misclassified", 0) == 0
    assert _report(2, ok, "6 isometric odd, 9 metamorphic even under counter-mirroring, exact"), record.detail


def _isometric_residual_at_prec_60() -> float:
    """The largest prec-60 invariance residual of the 6 isometric flows on the flows grid, 120 flows."""
    return functools.reduce(_fold_max, (
        float(invariance_residual(closed_flow(gid, p, q, prec=60), prec=60)) for gid in ISOMETRIC_IDS for q, p in GRID_POINTS
    ), 0.0)


def test_criterion_3_isometry_of_flows(flows_check, float_record):
    record, elapsed = flows_check
    not_isometric = _held(record, "isometric flows not metric-preserving (exact)", 0)
    # the 9 metamorphic generators and t0..t3 are counter-symmetric and nonzero: their flows break the metric, exactly
    misclassified = _held(checks.symmetry(), "misclassified", 0)
    least = _held(float_record, "least metric-breaking residual", 0.1, above=True)
    non_iso = set(METAMORPHIC_IDS + SHIFT_IDS)
    breakers = sum(1 for gid, _rel, residual in float_record.rows if gid in non_iso and residual > 0.1)
    worst_iso = _isometric_residual_at_prec_60()
    ok = not_isometric == 0 and misclassified == 0 and worst_iso <= 1e-11 and least > 0.1 and breakers == 13 and elapsed < 2.0
    assert _report(
        3, ok, f"isometry certified exactly ({not_isometric} entries off), metric breaking classified exactly "
        f"({misclassified} off), prec-60 residual max {worst_iso:.2e} (<= 1e-11), {breakers}/13 non-isometric "
        f"float flows exceed 0.1, {elapsed:.2f}s"
    ), record.detail


def test_criterion_4_closed_form_vs_oracle(flows_check, float_record):
    record, elapsed = flows_check
    not_exp = _held(record, "closed forms not exp(tau X) (exact)", 0)
    worst = _held(float_record, "closed form vs oracle rel", 1e-9)
    # the published (3,1) entry of the order-2 boost transform differs from
    # the generated one, by exactly the ledger's difference, and no other entry does
    (b2,) = record.discrepancies
    in_errata = (b2.gen, b2.entry, b2.difference) == (GeneratorId.B2, (3, 1), "(q^2 - q^-2) sinh(tau q^2)")
    off_ledger = _held(record, "published entries off the ledger (exact)", 0)
    ok = not_exp == 0 and worst <= 1e-9 and in_errata and off_ledger == 0 and elapsed < 5.0
    assert _report(
        4, ok, f"20 closed forms certified exactly ({not_exp} entries off), float flows vs series oracle, "
        f"worst rel {worst:.2e} (<= 1e-9); published B2 (3,1) entry differs by {b2.difference}, {elapsed:.2f}s"
    ), record.detail


def test_criterion_5_mayer_identities(float_record):
    record = checks.mayer()
    not_bond = _held(record, "bond identity not implied (exact)", 0)
    not_limit = _held(record, "volume limit not implied (exact)", 0)
    worst = _held(float_record, "bond vs step rel", 1e-10)
    worst_limit = _held(float_record, "volume limit rel", 1e-8)
    ok = not_bond == 0 and not_limit == 0 and worst <= 1e-10 and worst_limit <= 1e-8
    assert _report(
        5, ok, f"bond = summed-radius step and its q->0 volume limit implied exactly ({not_bond} and {not_limit} off); "
        f"float bond vs prec-50 step, worst rel {worst:.2e} (<= 1e-10); q->0 volume limit worst rel {worst_limit:.2e} (<= 1e-8)"
    ), record.detail


@pytest.fixture(scope="module")
def kernel_group_law():
    """(additivity, commutation) residuals of K_R = exp(R t1) at prec 50 over the kernel grid, products at 70 digits.

    K_{R+R'} is taken at the exact sum of the two binary radii, not at a
    float sum: 0.3 + 2.7 rounds.  The 45 products K_R K_R' give the
    additivity residual against K_{R+R'} and, for R < R', against K_R' K_R
    the commutator; mpf subtraction rounds symmetrically, so the 3 pairs
    R < R' at each q give the same commutator as all 9.
    """
    import mpmath

    additivity = commutation = 0.0
    with mpmath.workdps(checks.KERNEL_PREC + 20):
        radii = [mpmath.mpf(R) for R in checks.RADII]
        sums = {R + Rp for R in radii for Rp in radii}
        k = {(R, q): kernel_matrix(R, q, prec=checks.KERNEL_PREC) for R in {*radii, *sums} for q in checks.WAVE_NUMBERS}
        product = {(R, Rp, q): k[R, q] @ k[Rp, q] for R in radii for Rp in radii for q in checks.WAVE_NUMBERS}
        for (R, Rp, q), ab in product.items():
            additivity = _fold_max(additivity, float(max_abs(ab - k[R + Rp, q])))
            if R < Rp:
                commutation = _fold_max(commutation, float(max_abs(ab - product[Rp, R, q])))
    return additivity, commutation


def test_criterion_6_kernel_identities(kernel_group_law, float_record):
    record = checks.kernel()
    worst_col = _held(float_record, "column vs weights", 1e-12)
    not_a_group = _held(record, "kernel not a one-parameter group (exact)", 0)
    worst_add, worst_comm = kernel_group_law
    ok = worst_col <= 1e-12 and not_a_group == 0 and worst_add <= 1e-11 and worst_comm <= 1e-11
    assert _report(
        6, ok, f"kernel column vs weights {worst_col:.2e} (<= 1e-12), one-parameter group exact "
        f"({not_a_group} entries off); at prec 50 additivity {worst_add:.2e} (<= 1e-11), "
        f"commutation {worst_comm:.2e} (<= 1e-11)"
    ), record.detail


def test_kernel_additivity_is_exact_at_prec_50(kernel_group_law):
    """K_R K_R' against K_{R+R'} at the exact radius sum: 50-digit agreement, not float64 rounding of R + R'."""
    assert kernel_group_law[0] < 1e-40


def test_criterion_7_shift_algebra():
    record = checks.jeffrey()
    ok = record.ok and _held(record, "mismatches", 0) == 0
    assert _report(
        7, ok, "shift products (t1.t1 = 8pi t2, t1.t3 = -q^4/(8pi) 1, ...), all [t_mu, t_nu] = 0, "
        f"four decompositions of t_nu, each cell exact: {record.detail}"
    ), record.detail


def test_criterion_8_lie_algebra_properties():
    start = time.perf_counter()
    ids = list(ISOMETRIC_IDS) + list(METAMORPHIC_IDS)
    gens = {gid: get_generator(gid) for gid in ids}
    pair_comm = {}
    for a, b in combinations(ids, 2):
        pair_comm[(a, b)] = commutator(gens[a], gens[b])

    def comm_of(a, b):
        if (a, b) in pair_comm:
            return pair_comm[(a, b)]
        return -pair_comm[(b, a)]

    jacobi_ok = True
    n_triples = 0
    for x, y, z in combinations(ids, 3):
        n_triples += 1
        total = (
            commutator(gens[x], comm_of(y, z))
            + commutator(gens[y], comm_of(z, x))
            + commutator(gens[z], comm_of(x, y))
        )
        if not total.is_zero:
            jacobi_ok = False
            break

    triplets = (
        (GeneratorId.F1, GeneratorId.F2, GeneratorId.F3),
        (GeneratorId.H1, GeneratorId.H2, GeneratorId.F3P),
        (GeneratorId.P0, GeneratorId.P3, GeneratorId.P3P),
    )
    triplet_ok = all(
        commutator(gens[a], gens[b]).is_zero for tr in triplets for a in tr for b in tr
    )

    cross_pairs = (
        (GeneratorId.B0, GeneratorId.B0P),
        (GeneratorId.B0, GeneratorId.B1),
        (GeneratorId.B0P, GeneratorId.B2),
        (GeneratorId.B1, GeneratorId.B2),
        (GeneratorId.D1, GeneratorId.D2),
        (GeneratorId.B0, GeneratorId.D1),
        (GeneratorId.B1, GeneratorId.D2),
        (GeneratorId.B2, GeneratorId.D1),
        (GeneratorId.B0P, GeneratorId.D2),
    )
    cross_ok = all(commutator(gens[a], gens[b]).is_zero for a, b in cross_pairs)

    rng = random.Random(1729)
    roundtrip_ok = True
    for _ in range(100):
        coeffs = {
            gid: RingElem.monomial(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)) or Fraction(1),
                rng.randint(-6, 6),
                rng.randint(-2, 2),
            )
            for gid in rng.sample(list(BASIS_IDS), k=rng.randint(1, 6))
        }
        dec = Decomposition(coeffs)
        if decompose(dec.reconstruct()) != dec:
            roundtrip_ok = False
            break

    elapsed = time.perf_counter() - start
    ok = jacobi_ok and triplet_ok and cross_ok and roundtrip_ok and elapsed < 20.0
    assert _report(
        8,
        ok,
        f"Jacobi on {n_triples} triples, 3 commuting triplets, cross-family "
        f"commutation, 100 decompose/reconstruct roundtrips, all exact, {elapsed:.2f}s",
    )


def test_criterion_9_metric_facts():
    record = checks.metric()
    square_ok = _held(record, "nonzero entries of M^2 - 1", 0) == 0
    trace_ok = _held(record, "nonzero tr M", 0) == 0
    # the float measure of the same fact: numpy's symmetric eigensolver on M
    eigs = np.linalg.eigvalsh(eval_mat(METRIC, 1.0)).tolist()
    deviation = functools.reduce(_fold_max, (abs(e - t) for e, t in zip(eigs, (-1.0, -1.0, 1.0, 1.0))))
    ok = square_ok and trace_ok and deviation <= 1e-12
    assert _report(
        9, ok, f"M @ M = 1 and tr M = 0 exact; numpy's eigenvalues {{-1, -1, 1, 1}} within {deviation:.2e} (<= 1e-12)"
    ), record.detail


def test_criterion_10_real_space_spot_check(float_record):
    start = time.perf_counter()
    record = checks.profile()
    elapsed = time.perf_counter() - start
    not_step = _held(record, "step transform not implied (exact)", 0)
    worst = _held(float_record, "worst deviation", 5e-3)
    ok = not_step == 0 and worst <= 5e-3 and elapsed < 5.0
    assert _report(
        10,
        ok,
        f"w3 is the unit step's transform, exactly ({not_step} off); windowed inverse transform of the unit-sphere step, "
        f"worst deviation {worst:.2e} (<= 5e-3), {elapsed:.2f}s",
    ), record.detail


def test_every_measure_is_a_plain_number(float_record):
    """Each measured value of every check and of the float record is an int or a float, never a numpy scalar."""
    records = [check() for check in checks.CHECKS.values()] + [float_record]
    for record in records:
        for key, measure in record.measures.items():
            assert type(measure.value) in (int, float), (record.name, key, type(measure.value))


def test_the_float_record_holds_its_bounds(float_record):
    """The float evaluator's measures, which `verify` no longer states, each within its bound."""
    assert float_record.ok, float_record.detail
    assert list(float_record.measures) == [
        "closed form vs oracle rel", "least metric-breaking residual", "column vs weights",
        "bond vs step rel", "volume limit rel", "worst deviation",
    ]


@pytest.mark.parametrize("name, fake, measure", [
    ("mayer_bond", lambda Ra, Rb, q: math.nan if q == 0.5 else mayer_bond(Ra, Rb, q), "bond vs step rel"),
    ("step_profile", lambda R, radii, **kw: [math.nan] * len(radii), "worst deviation"),
], ids=["mayer", "profile"])
def test_float_record_fails_on_nan(monkeypatch, name, fake, measure):
    """A NaN bond or profile point fails the float record: the folds keep it."""
    monkeypatch.setattr(checks, name, fake)
    record = checks.float_evaluator()
    assert not record.ok
    assert math.isnan(record.measures[measure].value)
    assert f"{measure} nan, bound <= " in record.detail


def test_float_record_reports_a_failed_volume_limit(monkeypatch):
    real = checks.mayer_bond
    monkeypatch.setattr(checks, "mayer_bond", lambda Ra, Rb, q: real(Ra, Rb, q) * (2 if q == 1e-6 else 1))
    record = checks.float_evaluator()
    assert not record.ok
    assert record.detail == "volume limit rel 1.00e+00, bound <= 1e-08"
