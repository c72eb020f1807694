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

from fmspace.algebra import Decomposition, decompose, verify_reference_tables
from fmspace.catalog import (
    BASIS_IDS,
    GeneratorId,
    ISOMETRIC_IDS,
    METAMORPHIC_IDS,
    SHIFT_IDS,
    get_generator,
)
from fmspace.flows import (
    STANDARD_PARAM_GRID,
    STANDARD_Q_GRID,
    _fold_max,
    closed_flow,
    expm_oracle,
    group_law_residual,
    invariance_residual,
    printed_flow,
    reference_discrepancies,
)
from fmspace.fmt import inverse_ft_radial, jeffrey_identities, kernel_matrix, kr_weights, mayer_bond, step_hat
from fmspace.matrices import IDENTITY, METRIC, commutator, counter_transpose, metric_eigenvalues
from fmspace.ring import RingElem

MAYER_RADII = (0.3, 1.0, 2.7)
MAYER_QS = (0.01, 0.5, 1.0, math.pi, 10.0)


def _report(number: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    return ok


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    report = verify_reference_tables()
    elapsed = time.perf_counter() - start
    ok = report.ok and elapsed < 5.0
    assert _report(
        1,
        ok,
        f"structure tables regenerated, {report.cells_checked} cells, "
        f"{len(report.mismatches)} mismatches, {elapsed:.2f}s",
    ), report.mismatches


def test_criterion_2_symmetry_classes():
    iso_ok = all(
        counter_transpose(get_generator(g)) == -get_generator(g) for g in ISOMETRIC_IDS
    )
    meta_ok = all(
        counter_transpose(get_generator(g)) == get_generator(g) for g in METAMORPHIC_IDS
    )
    ok = iso_ok and meta_ok
    assert _report(2, ok, "6 isometric odd, 9 metamorphic even under counter-mirroring, exact")


def test_criterion_3_isometry_of_flows():
    start = time.perf_counter()
    worst_iso = 0.0
    for gid in ISOMETRIC_IDS:
        for q in STANDARD_Q_GRID:
            for p in STANDARD_PARAM_GRID:
                r = float(invariance_residual(closed_flow(gid, p, q, prec=60), prec=60))
                worst_iso = _fold_max(worst_iso, r)
    non_iso = list(METAMORPHIC_IDS) + list(SHIFT_IDS)
    breakers = 0
    for gid in non_iso:
        best = functools.reduce(
            _fold_max,
            (
                float(invariance_residual(closed_flow(gid, p, q)))
                for q in STANDARD_Q_GRID
                for p in STANDARD_PARAM_GRID
            ),
        )
        if best > 0.1:
            breakers += 1
    elapsed = time.perf_counter() - start
    ok = worst_iso <= 1e-11 and breakers == 13 and elapsed < 2.0
    assert _report(
        3,
        ok,
        f"isometric residual max {worst_iso:.2e} (<= 1e-11), "
        f"{breakers}/13 non-isometric flows exceed 0.1, {elapsed:.2f}s",
    )


def test_criterion_4_closed_form_vs_oracle():
    start = time.perf_counter()
    worst = 0.0
    for gid in GeneratorId:
        for q in STANDARD_Q_GRID:
            for p in STANDARD_PARAM_GRID:
                closed = closed_flow(gid, p, q)
                oracle = expm_oracle(get_generator(gid), p, q, 1e-13)
                scale = 1.0 + float(np.abs(closed).max())
                worst = _fold_max(worst, float(np.abs(closed - oracle).max()) / scale)
    # the published (3,1) entry of the order-2 boost transform must fail
    p, q = 0.3, 2.0
    printed = printed_flow(GeneratorId.B2, p, q)
    oracle = expm_oracle(get_generator(GeneratorId.B2), p, q, 1e-13)
    scale = 1.0 + float(np.abs(oracle).max())
    published_fails = float(np.abs(printed - oracle).max()) > 1e-9 * scale
    in_errata = [(d.gen, d.entry) for d in reference_discrepancies()] == [
        (GeneratorId.B2, (3, 1))
    ]
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and published_fails and in_errata and elapsed < 5.0
    assert _report(
        4,
        ok,
        f"20 flows vs series oracle, worst rel {worst:.2e} (<= 1e-9); published "
        f"B2 (3,1) entry fails and is reported, {elapsed:.2f}s",
    )


def test_criterion_5_mayer_identities():
    worst = 0.0
    for Ra in MAYER_RADII:
        for Rb in MAYER_RADII:
            for q in MAYER_QS:
                lhs = mayer_bond(Ra, Rb, q)
                rhs = step_hat(Ra + Rb, q)
                worst = _fold_max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    worst_limit = 0.0
    for Ra in MAYER_RADII:
        for Rb in MAYER_RADII:
            volume = 4.0 * math.pi * (Ra + Rb) ** 3 / 3.0
            worst_limit = _fold_max(worst_limit, abs(mayer_bond(Ra, Rb, 1e-6) - volume) / volume)
    ok = worst <= 1e-10 and worst_limit <= 1e-8
    assert _report(
        5,
        ok,
        f"bilinear vs summed-radius step, worst rel {worst:.2e} (<= 1e-10); "
        f"q->0 volume limit worst rel {worst_limit:.2e} (<= 1e-8)",
    )


def test_criterion_6_kernel_identities():
    import mpmath

    worst_col = 0.0
    worst_add = 0.0
    worst_comm = 0.0
    for R in MAYER_RADII:
        for q in MAYER_QS:
            col = np.asarray(kernel_matrix(R, q))[:, 0]
            worst_col = _fold_max(worst_col, float(np.abs(col - kr_weights(R, q)).max()))
    for R in MAYER_RADII:
        for Rp in MAYER_RADII:
            for q in MAYER_QS:
                worst_add = _fold_max(
                    worst_add, float(group_law_residual(GeneratorId.T1, R, Rp, q, prec=50))
                )
                with mpmath.workdps(70):
                    a = kernel_matrix(R, q, prec=50)
                    b = kernel_matrix(Rp, q, prec=50)
                    comm = functools.reduce(
                        _fold_max,
                        (
                            abs(
                                sum(a[i][k] * b[k][j] for k in range(4))
                                - sum(b[i][k] * a[k][j] for k in range(4))
                            )
                            for i in range(4)
                            for j in range(4)
                        ),
                    )
                worst_comm = _fold_max(worst_comm, float(comm))
    ok = worst_col <= 1e-12 and worst_add <= 1e-11 and worst_comm <= 1e-11
    assert _report(
        6,
        ok,
        f"kernel column vs weights {worst_col:.2e} (<= 1e-12), additivity "
        f"{worst_add:.2e} (<= 1e-11), commutation {worst_comm:.2e} (<= 1e-11)",
    )


def test_criterion_7_shift_algebra():
    t = [get_generator(g) for g in SHIFT_IDS]
    checks = [
        t[1] @ t[1] == t[2].scale(RingElem.monomial(8, 0, 1)),
        t[1] @ t[3] == IDENTITY.scale(RingElem.monomial(Fraction(-1, 8), 4, -1)),
        all(commutator(t[i], t[j]).is_zero for i in range(4) for j in range(4)),
    ]
    report = jeffrey_identities()
    ok = all(checks) and report.ok
    assert _report(
        7,
        ok,
        "t1.t1 = 8pi t2, t1.t3 = -q^4/(8pi) 1, all [t_mu, t_nu] = 0, "
        "four decompositions exact (zero ring residual)",
    )


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
    eigs = metric_eigenvalues()
    eig_ok = functools.reduce(_fold_max, (abs(e - t) for e, t in zip(eigs, (-1.0, -1.0, 1.0, 1.0)))) <= 1e-12
    square_ok = (METRIC @ METRIC) == IDENTITY
    ok = eig_ok and square_ok
    assert _report(
        9, ok, "metric eigenvalues {-1, -1, 1, 1} within 1e-12; M @ M = 1 exact"
    )


def test_criterion_10_real_space_spot_check():
    start = time.perf_counter()
    hat = lambda q: step_hat(1.0, q) if q > 0 else 4.0 * math.pi / 3.0
    worst = 0.0
    for r, expected in ((0.0, 1.0), (0.5, 1.0), (1.5, 0.0), (2.0, 0.0)):
        worst = _fold_max(worst, abs(inverse_ft_radial(hat, r) - expected))
    elapsed = time.perf_counter() - start
    ok = worst <= 5e-3 and elapsed < 5.0
    assert _report(
        10,
        ok,
        f"inverse transform of the unit-sphere step, worst deviation "
        f"{worst:.2e} (<= 5e-3), {elapsed:.2f}s",
    )
