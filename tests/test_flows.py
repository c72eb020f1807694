import math
import random
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fmspace.catalog import (
    ALL_IDS,
    GeneratorId,
    ISOMETRIC_IDS,
    SHIFT_IDS,
    classify_square,
    get_generator,
    homogeneity_order,
)
from fmspace import checks, flows
from fmspace.certificate import certify
from fmspace.checks import KERNEL_PREC, RADII, WAVE_NUMBERS
from fmspace.flows import (
    GRID_POINTS,
    STANDARD_PARAM_GRID,
    STANDARD_Q_GRID,
    FlowSpec,
    closed_flow,
    evaluate_flow,
    expm_oracle,
    group_law_residual,
    invariance_residual,
    max_abs,
    reference_discrepancies,
)
from fmspace.fmt import kernel_matrix, kr_weights
from fmspace.matrices import Mat4, bilinear, eval_mat

DIAGONAL_IDS = (GeneratorId.ONE, GeneratorId.B0, GeneratorId.B0P, GeneratorId.P0, GeneratorId.T0)  # X = diag(+-1)


class TestClosedFlow:
    def test_b0_scaling(self):
        a = closed_flow(GeneratorId.B0, 0.5, 1.0)
        e = math.exp(0.5)
        assert np.allclose(a, np.diag([e, e, 1 / e, 1 / e]), rtol=1e-15)

    @pytest.mark.parametrize("gid", DIAGONAL_IDS, ids=lambda g: g.value)
    def test_diagonal_flow_is_its_exps_across_float64(self, gid):
        """diag(math.exp(s tau)) bit for bit for |tau| in [1e-7, 709] and any q; B0 and B0' keep the metric to two ulps of 1.

        C 1 + tau S X formed the decaying entries as cosh tau - sinh tau,
        0 once |tau| passed about 18, with a residual of 1.
        """
        rng = random.Random(f"diagonal-{gid.value}")
        for _ in range(2000):
            tau = rng.choice((-1, 1)) * 10 ** rng.uniform(-7.0, math.log10(709.0))
            q = 2.0 ** rng.uniform(-1074.0, 1023.9)
            got = closed_flow(gid, tau, q)
            assert got.tobytes() == np.array(_dense_diagonal_rows(gid, tau, math.exp)).tobytes(), (tau, q)
            if gid in ISOMETRIC_IDS:
                assert invariance_residual(got) <= 4.5e-16, (tau, q)

    def test_zero_parameter_is_identity(self):
        for gid in ALL_IDS:
            assert np.array_equal(closed_flow(gid, 0.0, 1.7), np.eye(4)), gid

    def test_d1_periodicity(self):
        q = 1.3
        a = closed_flow(GeneratorId.D1, 2 * math.pi / q, q)
        assert np.allclose(a, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("prec", [0, -3, 2.5, True])
    def test_refuses_a_prec_that_is_not_an_int_of_at_least_1(self, prec):
        """prec=0 once gave B1's (0, 0) entry as 1.5 (cosh 1 = 1.543...); each entry point names the prec, each time."""
        message = f"^prec must be an int of at least 1 decimal digit, got {re.escape(repr(prec))}$"
        for _ in range(2):  # a refusal is not cached
            with pytest.raises(ValueError, match=message):
                closed_flow("B1", 1.0, 1.0, prec=prec)
            with pytest.raises(ValueError, match=message):
                kernel_matrix(1.0, 1.0, prec=prec)
            with pytest.raises(ValueError, match=message):
                invariance_residual(closed_flow("B1", 1.0, 1.0), prec=prec)
            with pytest.raises(ValueError, match=message):
                group_law_residual("B1", 1.0, 0.5, 1.0, prec=prec)
        assert abs(closed_flow("B1", 1.0, 1.0, prec=1)[0, 0] - math.cosh(1.0)) < 0.01  # one digit, asked for

    def test_a_float_prec_equal_to_a_cached_int_is_still_refused(self):
        closed_flow("B1", 1.0, 1.0, prec=30)
        with pytest.raises(ValueError, match="got 30.0$"):
            closed_flow("B1", 1.0, 1.0, prec=30.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            closed_flow(GeneratorId.B0, 1.0, 0.0)
        with pytest.raises(ValueError):
            closed_flow(GeneratorId.B0, math.inf, 1.0)
        with pytest.raises(ValueError):
            closed_flow("nope", 1.0, 1.0)

    @pytest.mark.parametrize("param", [10**400, -10**400])
    def test_rejects_a_python_int_parameter_beyond_float64(self, param):
        """Such an int passes `x < inf`; it is refused as not finite, with or without prec."""
        for prec in (None, 30):
            with pytest.raises(ValueError, match=f"^flow parameter must be finite, got {param}$"):
                closed_flow(GeneratorId.B1, param, 1.0, prec=prec)

    def test_keeps_an_mpf_parameter_exact(self):
        import mpmath

        with mpmath.workdps(50):
            R = mpmath.mpf(0.3) + mpmath.mpf(2.7)  # the exact sum of two floats, which no float holds
        assert FlowSpec(GeneratorId.T1, R, 1.0).param is R

    def test_small_q_series_branch(self):
        # a tiny q^a * param: sinh(y) / y is 1 and the factor is param
        a = closed_flow(GeneratorId.B1, 1e-6, 1e-3)
        oracle = expm_oracle(get_generator(GeneratorId.B1), 1e-6, 1e-3, 1e-15)
        assert np.allclose(a, oracle, rtol=0, atol=1e-15)

    def test_flow_spec_object(self):
        spec = FlowSpec(GeneratorId.H2, 0.3, 2.0)
        assert np.array_equal(evaluate_flow(spec).matrix, closed_flow(GeneratorId.H2, 0.3, 2.0))

    @pytest.mark.parametrize("q", [math.inf, math.nan, -math.inf])
    def test_rejects_non_finite_wave_number(self, q):
        with pytest.raises(ValueError, match="wave number q"):
            FlowSpec(GeneratorId.T2, 1.0, q)

    @pytest.mark.parametrize("gid, param, q", [
        (GeneratorId.B1, 1000.0, 1.0),  # cosh overflows
        (GeneratorId.F3, 1.0, 1e120),  # q**3 overflows
        (GeneratorId.B0, -800.0, 1.0),  # exp overflows
        (GeneratorId.D1, 1e300, 1e10),  # cos of an argument that overflowed to inf
        (GeneratorId.T2, -1e10, 1.0),
        (GeneratorId.T3, 1e300, 1e5),
    ])
    def test_float64_overflow_is_a_value_error_pointing_to_prec(self, gid, param, q):
        """float64 refuses the point, naming it; prec, which `eval`'s message names as --prec, evaluates it."""
        subject = re.escape(f"exp({param!r} * {gid.value}) at q = {q!r}")
        with pytest.raises(ValueError, match=rf"^float64 (overflow|phase error) in {subject}"):
            closed_flow(gid, param, q)
        import mpmath

        assert all(mpmath.isfinite(x) for row in closed_flow(gid, param, q, prec=30) for x in row)

    @pytest.mark.parametrize("gid, param, q", [
        (GeneratorId.T1, 1e200, 1e-200),  # q^4 is below the normal floats
        (GeneratorId.T3, 1.0, 1e-110),
    ])
    def test_float64_underflow_is_a_value_error_pointing_to_prec(self, gid, param, q):
        with pytest.raises(ValueError, match="^" + re.escape(f"float64 underflow in exp({param!r} * {gid.value}) at q = {q!r}") + "$"):
            closed_flow(gid, param, q)
        import mpmath

        assert all(mpmath.isfinite(x) for row in closed_flow(gid, param, q, prec=30) for x in row)

    def test_overflowing_point_evaluates_through_mpmath(self):
        import mpmath

        rows = closed_flow(GeneratorId.B1, 1000.0, 1.0, prec=30)
        assert mpmath.isfinite(rows[0][0]) and rows[0][0] > mpmath.mpf("1e400")  # cosh(1000)

    def test_square_class_is_computed_once_per_generator(self, monkeypatch):
        calls = []

        def counting(x):
            calls.append(x)
            return classify_square(x)

        monkeypatch.setattr(flows, "classify_square", counting)
        flows._closed_form.cache_clear()
        for _ in range(3):
            for gid in ALL_IDS:
                closed_flow(gid, 0.4, 1.3)
                closed_flow(gid, -0.2, 0.7, prec=20)
        assert flows._closed_form.cache_info().misses == len(ALL_IDS)  # one closed form per generator, both precisions
        flows._closed_form.cache_clear()
        assert len(calls) == len({id(x) for x in calls}) == len(ALL_IDS) - 8  # T1..T3 and the diagonal five have their own forms

    def test_mp_mode_matches_float(self):
        rows = closed_flow(GeneratorId.F3, 0.7, 1.1, prec=40)
        a = closed_flow(GeneratorId.F3, 0.7, 1.1)
        assert max(abs(float(rows[i][j]) - a[i, j]) for i in range(4) for j in range(4)) < 1e-13


class TestOracle:
    def test_b0_agreement(self):
        a = closed_flow(GeneratorId.B0, 0.5, 1.0)
        o = expm_oracle(get_generator(GeneratorId.B0), 0.5, 1.0, 1e-12)
        assert np.abs(a - o).max() < 1e-11

    def test_zero_matrix_gives_identity(self):
        assert np.array_equal(expm_oracle(Mat4.zero(), 3.0, 1.0), np.eye(4))

    def test_t1_matches_kernel_closed_form(self):
        o = expm_oracle(get_generator(GeneratorId.T1), 1.0, 0.9, 1e-13)
        a = closed_flow(GeneratorId.T1, 1.0, 0.9)
        assert np.abs(a - o).max() < 1e-10

    def test_against_scipy(self):
        scipy = pytest.importorskip("scipy.linalg")
        from fmspace.matrices import eval_mat

        for gid in (GeneratorId.B2, GeneratorId.T1, GeneratorId.T3, GeneratorId.P3):
            z = 0.7 * eval_mat(get_generator(gid), 1.3)
            assert np.allclose(
                expm_oracle(get_generator(gid), 0.7, 1.3, 1e-13), scipy.expm(z), rtol=1e-10, atol=1e-12
            )

    def test_invalid_tol(self):
        with pytest.raises(ValueError):
            expm_oracle(Mat4.zero(), 1.0, 1.0, tol=0.0)

    @pytest.mark.parametrize("gid, param", [
        (GeneratorId.ONE, 1e308),  # finite norm, but 2^s is not a float64
        (GeneratorId.T1, 1e308),  # the norm itself is inf
        (GeneratorId.B1, 1e300),  # the squared-up result overflows
        (GeneratorId.B1, math.nan),
    ])
    def test_overflow_is_a_value_error(self, gid, param):
        with pytest.raises(ValueError, match="float64 overflow"):
            expm_oracle(get_generator(gid), param, 1.0)


def _scalar_taylor_oracle(x: Mat4, param: float, q: float, tol: float) -> np.ndarray:
    """The scalar scaling-and-squaring Taylor loop, point by point: the reference for expm_oracle's bits."""
    xq = np.zeros((4, 4))
    for r, c, entry in x.entries():
        xq[r, c] = entry.evaluate(q)
    z = param * xq
    norm = float(np.abs(z).sum(axis=0).max())
    s = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    z /= 2.0**s
    total = np.eye(4)
    term = np.eye(4)
    threshold = tol / 2.0**s
    for k in range(1, 80):
        term = term @ z / k
        total = total + term
        if float(np.abs(term).max()) < threshold:
            break
    for _ in range(s):
        total = total @ total
    return total


def _oracle_points():
    """The float record's 400 grid points, then 300 seeded draws over the envelope (see TestEnvelope)."""
    points = [(gid, p, q) for gid in ALL_IDS for q in STANDARD_Q_GRID for p in STANDARD_PARAM_GRID]
    rng = np.random.default_rng(20111)
    while len(points) < 700:
        gid = ALL_IDS[rng.integers(len(ALL_IDS))]
        q = 10.0 ** rng.uniform(-2.0, 1.0)
        param = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-7.0, 1.0) / q ** homogeneity_order(get_generator(gid))
        if abs(param) * float(np.abs(eval_mat(get_generator(gid), q)).sum(axis=0).max()) <= ENVELOPE_NORM:
            points.append((gid, float(param), q))
    return points


@pytest.mark.parametrize("tol", [1e-12, 1e-13])
def test_oracle_matches_the_scalar_loop_bit_for_bit(tol):
    for gid, param, q in _oracle_points():
        x = get_generator(gid)
        assert np.array_equal(expm_oracle(x, param, q, tol), _scalar_taylor_oracle(x, param, q, tol)), (x, param, q)


def _k_loop_residual(rows) -> float:
    """The residual as a loop: (A^t M A)[mu, nu] = sum_k A[k, mu] A[3 - k, nu], NaN kept."""
    residual = 0.0
    for mu in range(4):
        for nu in range(4):
            acc = 0.0
            for k in range(4):
                acc = acc + rows[k][mu] * rows[3 - k][nu]
            if mu + nu == 3:
                acc = acc - 1.0
            residual = math.nan if acc != acc else max(residual, abs(acc))  # max() keeps a NaN first argument
    return residual


class TestInvarianceResidual:
    def test_matches_the_k_loop_bitwise(self):
        rng = random.Random(8)
        for _ in range(300):
            gid = rng.choice(ALL_IDS)
            a = closed_flow(gid, rng.uniform(-2.5, 2.5), rng.uniform(0.05, 4.0))
            expected = _k_loop_residual(a.tolist())
            assert float(invariance_residual(a)).hex() == expected.hex(), gid
            assert float(invariance_residual(a.tolist())).hex() == expected.hex(), gid

    def test_overflowed_products_give_nan(self):
        # entry (0, 1) is 1e200 * -1e200 + 1e200 * 1e200 = -inf + inf
        a = np.zeros((4, 4))
        a[0, :2] = a[3, 0] = 1e200
        a[3, 1] = -1e200
        assert math.isnan(_k_loop_residual(a.tolist()))
        assert math.isnan(invariance_residual(a))

    def test_identity_is_zero(self):
        assert invariance_residual(np.eye(4)) == 0.0

    def test_nan_matrix_is_not_zero(self):
        assert math.isnan(invariance_residual(np.full((4, 4), math.nan)))

    @pytest.mark.parametrize("where", [(0, 0), (2, 1), (3, 3)])
    def test_one_nan_entry_propagates(self, where):
        a = np.eye(4)
        a[where] = math.nan
        assert math.isnan(invariance_residual(a))

    def test_infinite_entry_is_not_small(self):
        a = np.eye(4)
        a[1, 2] = math.inf
        assert not invariance_residual(a) <= 1.0

    def test_mp_nan_propagates(self):
        import mpmath

        rows = [[mpmath.mpf(int(i == j)) for j in range(4)] for i in range(4)]
        rows[1][1] = mpmath.nan
        assert mpmath.isnan(invariance_residual(rows, prec=30))

    def test_mp_infinite_entry_is_not_small(self):
        import mpmath

        rows = [[mpmath.mpf(int(i == j < 3)) for j in range(4)] for i in range(4)]
        rows[0][0] = mpmath.inf  # only ever multiplied by the zero row 3: inf * 0 is NaN, a skipped product 0
        assert not invariance_residual(rows, prec=30) <= 1.0

    def test_mp_residual_equals_the_dense_fold(self):
        """Skipping the products with a zero factor changes no value of the prec-60 grid."""
        import mpmath

        for gid in ALL_IDS:
            for q in STANDARD_Q_GRID:
                for p in STANDARD_PARAM_GRID:
                    a = closed_flow(gid, p, q, prec=60)
                    with mpmath.workdps(80):
                        dense = flows._invariance_impl(a)
                        assert dense == bilinear_residual(a), (gid, p, q)
                    assert invariance_residual(a, prec=60) == dense, (gid, p, q)

    def test_prec_lifts_a_float64_matrix_exactly(self):
        """With prec, a float64 matrix's residual is summed in mpf: that of the matrix as given, not of the prec flow."""
        import mpmath

        for gid, param in ((GeneratorId.B1, 20.0), (GeneratorId.B1, 0.5), (GeneratorId.D2, 1.3), (GeneratorId.F3, -0.7)):
            a = closed_flow(gid, param, 1.0)
            lifted = [[mpmath.mpf(x) for x in row] for row in a.tolist()]  # exact: a float has 53 bits
            assert invariance_residual(a, prec=60) == invariance_residual(lifted, prec=60), (gid, param)
        # float64 rounds cosh 20 and sinh 20 to the same number, so the matrix as given breaks the form by 1
        assert invariance_residual(closed_flow(GeneratorId.B1, 20.0, 1.0), prec=60) == 1
        assert invariance_residual(closed_flow(GeneratorId.B1, 20.0, 1.0, prec=60), prec=60) < 1e-40
        a = closed_flow(GeneratorId.B1, 0.5, 1.0)
        assert invariance_residual(a, prec=60) != invariance_residual(a)  # summed in mpf, not in float64

    def test_mpf_matrix_needs_prec(self):
        """Without prec, mpf entries would fold at mpmath's ambient 15 digits: 7.0 for a residual of 1e-45."""
        a = closed_flow(GeneratorId.B1, 20.0, 1.0, prec=60)
        for matrix in (a, a.tolist()):
            with pytest.raises(ValueError, match="needs prec"):
                invariance_residual(matrix)
        assert invariance_residual(a, prec=60) < 1e-40
        floats = closed_flow(GeneratorId.B1, 0.7, 1.2)
        assert invariance_residual(floats.astype(object)) == invariance_residual(floats)  # Python floats, no mpf

    def test_max_abs_propagates_nan(self):
        assert max_abs(np.eye(4)) == 1.0
        a = -np.eye(4)
        a[3, 0] = math.nan
        assert math.isnan(max_abs(a))
        a[3, 0] = -math.inf
        assert max_abs(a) == math.inf

    def test_isometric_flow_small_residual(self):
        assert invariance_residual(closed_flow(GeneratorId.B1, 0.7, 1.2)) <= 1e-12

    def test_p0_flow_breaks_metric_by_e2_minus_1(self):
        r = invariance_residual(closed_flow(GeneratorId.P0, 1.0, 1.0))
        assert r == pytest.approx(math.e**2 - 1, rel=1e-14)

    def test_float_isometry_moderate_arguments(self):
        # double precision keeps the residual tiny while cosh stays small
        for gid in ISOMETRIC_IDS:
            for q in (0.1, 0.5, 1.0):
                for p in (-0.5, 0.1, 1.5):
                    assert invariance_residual(closed_flow(gid, p, q)) <= 1e-12


class TestGroupLaw:
    def test_b2_additivity(self):
        assert group_law_residual(GeneratorId.B2, 0.3, 0.4, 1.1) <= 1e-11

    def test_zero_second_parameter(self):
        assert group_law_residual(GeneratorId.F2, 0.8, 0.0, 1.3) <= 1e-15

    def test_t1_additivity(self):
        assert group_law_residual(GeneratorId.T1, 0.8, 0.5, 0.7) <= 1e-11

    def test_mp_fold_propagates_nan(self, monkeypatch):
        import mpmath

        def nan_flow(gen, param, q, prec=None):
            rows = closed(gen, param, q, prec=prec)
            rows[2][3] = mpmath.nan
            return rows

        closed = flows.closed_flow
        monkeypatch.setattr(flows, "closed_flow", nan_flow)
        assert mpmath.isnan(group_law_residual(GeneratorId.T1, 0.3, 0.4, 1.0, prec=30))

    def test_mp_mode(self):
        # product entries ~1e37 cancel to ~1e5; 80 digits leaves ~1e-43 slack
        assert float(group_law_residual(GeneratorId.B2, -2.0, 1.5, 5.0, prec=80)) <= 1e-30


ENVELOPE_NORM = 1e4


def _log_uniform(low: float, high: float):
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: 10.0**e)


@st.composite
def _envelope_param(draw, gid, q):
    """A flow parameter with |param q^alpha| in [1e-7, 10] and ||param X(q)||_1 <= 1e4."""
    arg = draw(st.sampled_from((-1.0, 1.0))) * draw(_log_uniform(1e-7, 10.0))
    param = arg / q ** homogeneity_order(get_generator(gid))
    assume(abs(param) * float(np.abs(eval_mat(get_generator(gid), q)).sum(axis=0).max()) <= ENVELOPE_NORM)
    return param


_GENERATORS = st.sampled_from(ALL_IDS)
_WAVE_NUMBERS = _log_uniform(1e-2, 10.0)


class TestEnvelope:
    """Properties over the envelope of the benchmark's numeric draws.

    The envelope: q in [1e-2, 10]; a flow parameter with |param q^alpha| in
    [1e-7, 10], alpha the homogeneity order of the generator, and
    ||param X(q)||_1 <= 1e4; a radius in [0.3, 2.7].  Past that 1-norm the
    series oracle itself drifts from 60-digit mpmath by more than 1e-9, so
    it could not judge a closed form at the pinned tolerance.
    """

    @settings(max_examples=200, deadline=None)
    @given(st.data(), _GENERATORS, _WAVE_NUMBERS)
    def test_closed_form_matches_oracle(self, data, gid, q):
        param = data.draw(_envelope_param(gid, q))
        closed = closed_flow(gid, param, q)
        oracle = expm_oracle(get_generator(gid), param, q, 1e-13)
        assert float(np.abs(closed - oracle).max()) <= 1e-9 * (1.0 + float(np.abs(closed).max()))

    @settings(max_examples=200, deadline=None)
    @given(st.data(), _GENERATORS, _WAVE_NUMBERS)
    def test_float_group_law(self, data, gid, q):
        p1, p2 = data.draw(_envelope_param(gid, q)), data.draw(_envelope_param(gid, q))
        # the pinned 1e-11, relative to the size of the product's terms
        scale = 1.0 + float(np.abs(closed_flow(gid, p1, q)).max()) * float(np.abs(closed_flow(gid, p2, q)).max())
        assert group_law_residual(gid, p1, p2, q) <= 1e-11 * scale

    @settings(max_examples=200, deadline=None)
    @given(_log_uniform(0.3, 2.7), _WAVE_NUMBERS)
    def test_kernel_column_is_the_weight_vector(self, R, q):
        assume(R * float(np.abs(eval_mat(get_generator(GeneratorId.T1), q)).sum(axis=0).max()) <= ENVELOPE_NORM)
        assert float(np.abs(kernel_matrix(R, q)[:, 0] - kr_weights(R, q)).max()) <= 1e-12


class TestIsometricFlowGeometry:
    def test_determinants_one(self):
        # full grid in mp precision: a float determinant loses ~eps * |A|^2,
        # which passes 1e-10 only for small boost arguments
        import mpmath
        from itertools import permutations

        def det4(rows):
            total = 0
            for perm in permutations(range(4)):
                inversions = sum(
                    1 for i in range(4) for j in range(i + 1, 4) if perm[i] > perm[j]
                )
                term = -1 if inversions % 2 else 1
                for r, c in enumerate(perm):
                    term = term * rows[r][c]
                total = total + term
            return total

        # det error ~ |A|^4 * eps with |A| up to ~1e22 on this grid, so the
        # flow entries need ~120 digits for a 1e-10 determinant check
        for gid in ISOMETRIC_IDS:
            for q in STANDARD_Q_GRID:
                for p in STANDARD_PARAM_GRID:
                    rows = closed_flow(gid, p, q, prec=120)
                    with mpmath.workdps(140):
                        det = det4(rows)
                    assert abs(float(det - 1)) <= 1e-10, (gid, p, q)

    def test_determinants_one_float_moderate(self):
        for gid in ISOMETRIC_IDS:
            for q in (0.1, 0.5, 1.0):
                for p in STANDARD_PARAM_GRID:
                    a = closed_flow(gid, p, q)
                    if float(np.abs(a).max()) < 100.0:
                        assert abs(np.linalg.det(a) - 1.0) <= 1e-10, (gid, p, q)

    def test_scalar_product_preserved(self):
        rng = np.random.default_rng(71)
        for gid in ISOMETRIC_IDS:
            a = closed_flow(gid, 0.4, 1.2)
            for _ in range(50):
                u = rng.uniform(-2, 2, 4)
                v = rng.uniform(-2, 2, 4)
                lhs = bilinear(a @ u, a @ v)
                rhs = bilinear(u, v)
                assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)

    def test_shift_flows_commute(self):
        for ga in SHIFT_IDS:
            for gb in SHIFT_IDS:
                for q in STANDARD_Q_GRID:
                    for pa in STANDARD_PARAM_GRID:
                        for pb in STANDARD_PARAM_GRID:
                            a = closed_flow(ga, pa, q)
                            b = closed_flow(gb, pb, q)
                            assert float(np.abs(a @ b - b @ a).max()) <= 1e-10


class TestPublishedForms:
    def test_scan_finds_exactly_the_b2_entry(self):
        """The exact diff: B2's (3, 1) alone differs, published minus generated = (q^2 - q^-2) sinh(tau q^2)."""
        found = reference_discrepancies({gid: certify(gid) for gid in flows._PUBLISHED})
        assert found == list(checks.flows().discrepancies) == [flows.FlowDiscrepancy(GeneratorId.B2, (3, 1), "(q^2 - q^-2) sinh(tau q^2)")]
        assert set(found) == checks.LEDGER
        assert str(found[0]) == "B2 transform, entry (3, 1): published minus generated = (q^2 - q^-2) sinh(tau q^2)"

    def test_published_b2_entry_fails_oracle(self):
        # the published (3,1) entry q^2 sinh cannot reproduce the exponential
        q, p = 2.0, 0.1
        printed = published_flow(GeneratorId.B2, p, q)
        oracle = expm_oracle(get_generator(GeneratorId.B2), p, q, 1e-13)
        scale = 1.0 + float(np.abs(oracle).max())
        assert abs(printed[3, 1] - oracle[3, 1]) > 1e-9 * scale
        corrected = closed_flow(GeneratorId.B2, p, q)
        assert float(np.abs(corrected - oracle).max()) <= 1e-9 * scale

    def test_all_other_published_forms_match(self):
        for gid in set(flows._PUBLISHED) - {GeneratorId.B2}:
            for q in (0.5, 2.0):
                for p in (-0.5, 1.5):
                    a = closed_flow(gid, p, q)
                    b = published_flow(gid, p, q)
                    scale = 1.0 + float(np.abs(a).max())
                    assert float(np.abs(a - b).max()) <= 1e-12 * scale, gid


def _planted_templates():
    """(gid, entry, template) of every one-entry fault of the published templates: each sign flipped, and each power of q off by one."""
    for gid, (kind, *template) in flows._PUBLISHED.items():
        if kind == "diag":
            (signs,) = template
            for i in range(4):
                yield gid, (i, i), ("diag", tuple(-s if j == i else s for j, s in enumerate(signs)))
            continue
        order, smap = template
        for entry, (coef, qpow) in smap.items():
            yield gid, entry, (kind, order, {**smap, entry: (-coef, qpow)})
            yield gid, entry, (kind, order, {**smap, entry: (coef, qpow + 1)})


def test_every_planted_template_fault_is_off_the_ledger(monkeypatch):
    """A sign flipped or a wrong power of q in one published entry: the flows check counts it, and only that entry moves."""
    planted = list(_planted_templates())
    assert len(planted) == 3 * 4 + 12 * 4 * 2
    for gid, entry, template in planted:
        with monkeypatch.context() as m:
            m.setitem(flows._PUBLISHED, gid, template)
            record = checks.flows()
        assert record.measures["published entries off the ledger (exact)"].value > 0, (gid, entry, template)
        assert not record.ok
        moved = {(d.gen, d.entry) for d in set(record.discrepancies) ^ checks.LEDGER}
        assert moved == {(gid, entry)}, (gid, entry, template)
    assert checks.flows().ok


def test_evaluate_flow_methods():
    spec = FlowSpec(GeneratorId.D2, 0.4, 1.1)
    closed = evaluate_flow(spec, "closed")
    series = evaluate_flow(spec, "series")
    assert closed.method == "closed_form"
    assert series.method == "series"
    assert np.abs(closed.matrix - series.matrix).max() < 1e-11
    with pytest.raises(ValueError):
        evaluate_flow(spec, "magic")


def reference_t1_rows(chi, q, sin, cos, pi, terms=13):
    """exp(chi t1) as the transcription reads, each entry written out in full.

    Column 0 is the weight vector, with w3 by `terms` terms of its series
    4 pi chi^3 / 3 (1 - x^2 / 10 (1 - x^2 / 28 (1 - ...))) below |x| = |q chi| = 0.05.
    """
    x = q * chi
    s = sin(q * chi)
    c = cos(q * chi)
    w0 = c + x * s / 2
    w1 = (x * c + s) / (2 * q)
    w2 = 4 * pi * chi * s / q
    if abs(x) < 0.05:
        g = 1
        for j in reversed(range(terms - 1)):
            g = 1 - x * x * g / (2 * (j + 1) * (2 * j + 5))
        w3 = 4 * pi * chi**3 * g / 3
    else:
        w3 = 4 * pi * (s - x * c) / q**3
    return [
        [w0, (c * q**2 * chi - q * s) / 2, -(q**3) * s * chi / (16 * pi), (c * q**4 * chi - 3 * s * q**3) / (16 * pi)],
        [w1, c - q * s * chi / 2, -(3 * s * q + c * q**2 * chi) / (16 * pi), -(q**3) * s * chi / (16 * pi)],
        [w2, 4 * pi * (s + c * q * chi) / q, c - q * s * chi / 2, (c * q**2 * chi - s * q) / 2],
        [w3, 4 * pi * s * chi / q, (s + c * q * chi) / (2 * q), c + q * s * chi / 2],
    ]


T1_POINTS = [(1e-6, 1.0), (2.0, 4.9e-5), (-3.0, 1e-5), (0.7, 1.2)] + [
    (random.Random(k).uniform(-5.0, 5.0), 10 ** random.Random(k + 1).uniform(-6.0, 2.0)) for k in range(0, 600, 2)
]


def test_t1_flow_is_the_transcription_bit_for_bit():
    """closed_flow(T1) shares its repeated subexpressions; every entry keeps its bits."""
    for chi, q in T1_POINTS:
        expected = reference_t1_rows(chi, q, math.sin, math.cos, math.pi)
        got = closed_flow(GeneratorId.T1, chi, q).tolist()
        assert [x.hex() for row in got for x in row] == [x.hex() for row in expected for x in row], (chi, q)


def test_t1_mp_flow_is_the_transcription_bit_for_bit():
    import mpmath

    for chi, q in T1_POINTS[:60]:
        got = closed_flow(GeneratorId.T1, chi, q, prec=50)
        with mpmath.workdps(50):
            expected = reference_t1_rows(mpmath.mpf(chi), mpmath.mpf(q), mpmath.sin, mpmath.cos, +mpmath.mp.pi, terms=18)
        assert got.tolist() == expected, (chi, q)


# ---------------------------------------------------------------------------
# The sparse closed forms and the written-out residual against the dense formulas
# ---------------------------------------------------------------------------

SQUARE_CLASS_IDS = tuple(gid for gid in ALL_IDS if gid not in DIAGONAL_IDS + SHIFT_IDS)


def _dense_diagonal_rows(gid, tau, exp):
    """diag(exp(s_i tau)) of X = diag(s), every other entry 0 * exp(s_0 tau)."""
    signs = [get_generator(gid)[i, i].as_monomial()[0] for i in range(4)]
    diag = [exp(tau * s) for s in signs]
    return [[diag[i] if i == j else 0 * diag[0] for j in range(4)] for i in range(4)]


def _sinch(x, sinh):
    return sinh(x) / x if x else 1 + x


def _sinc(x, sin):
    return sin(x) / x if x else 1 + x


def _dense_square_class_rows(gid, tau, q, xq, fns):
    """cosh/cos * 1 + tau * sinch/sinc * X(q), all 16 products formed; fns = (cosh, sinh, cos, sin)."""
    cosh, sinh, cos, sin = fns
    square = classify_square(get_generator(gid))
    arg = tau * q**square.order
    if square.kind == "boost":
        diag, factor = cosh(arg), tau * _sinch(arg, sinh)
    else:
        diag, factor = cos(arg), tau * _sinc(arg, sin)
    rows = [[factor * xq[i][j] for j in range(4)] for i in range(4)]
    for i in range(4):
        rows[i][i] = rows[i][i] + diag
    return rows


def reference_t2_rows(chi, q, exp, pi):
    g = exp(-(q**2) * chi / (8 * pi))
    a = g * q**2 * chi / (8 * pi)
    b = -g * q**4 * chi / (64 * pi**2)
    zero = 0 * g
    return [[g + a, zero, b, zero], [zero, g - a, zero, b], [g * chi, zero, g - a, zero], [zero, g * chi, zero, g + a]]


def reference_t3_rows(chi, q, sin, cos, pi):
    theta = q**3 * chi / (8 * pi)
    C, S = cos(theta), sin(theta)
    return [
        [C - q**3 * S * chi / (16 * pi), -(8 * pi * q * S + C * q**4 * chi) / (16 * pi),
         q**5 * S * chi / (128 * pi**2), -(24 * pi * q**3 * S + C * q**6 * chi) / (128 * pi**2)],
        [S / (2 * q) - C * q**2 * chi / (16 * pi), C + q**3 * S * chi / (16 * pi),
         (-24 * pi * q * S + C * q**4 * chi) / (128 * pi**2), q**5 * S * chi / (128 * pi**2)],
        [-q * S * chi / 2, 4 * pi * S / q - C * q**2 * chi / 2,
         C + q**3 * S * chi / (16 * pi), -(8 * pi * q * S + C * q**4 * chi) / (16 * pi)],
        [4 * pi * S / q**3 + C * chi / 2, -q * S * chi / 2,
         S / (2 * q) - C * q**2 * chi / (16 * pi), C - q**3 * S * chi / (16 * pi)],
    ]


def dense_float_flow(gid, tau, q) -> np.ndarray:
    """exp(tau X_gid) at q as the dense formulas give it: every product formed, the zeros included."""
    if gid in DIAGONAL_IDS:
        rows = _dense_diagonal_rows(gid, tau, math.exp)
    elif gid == GeneratorId.T1:
        rows = reference_t1_rows(tau, q, math.sin, math.cos, math.pi)
    elif gid == GeneratorId.T2:
        rows = reference_t2_rows(tau, q, math.exp, math.pi)
    elif gid == GeneratorId.T3:
        rows = reference_t3_rows(tau, q, math.sin, math.cos, math.pi)
    else:
        xq = eval_mat(get_generator(gid), q).tolist()
        rows = _dense_square_class_rows(gid, tau, q, xq, (math.cosh, math.sinh, math.cos, math.sin))
    return np.array(rows, dtype=float)


def _sparse_points():
    """The standard grid, its negated parameters, small arguments |tau q^alpha| <= 1e-4, and seeded draws."""
    points = [(gid, p, q) for gid in ALL_IDS for q in STANDARD_Q_GRID for p in STANDARD_PARAM_GRID]
    points += [(gid, -p, q) for gid, p, q in points]
    for gid in ALL_IDS:
        alpha = homogeneity_order(get_generator(gid))
        for q in STANDARD_Q_GRID:
            for arg in (9.9e-5, -9.9e-5, 3e-7, -1e-12, 1e-4, -1e-4):
                points.append((gid, arg / q**alpha, q))
    rng = random.Random(1311)
    for _ in range(400):
        gid = rng.choice(ALL_IDS)
        q = 10 ** rng.uniform(-2.0, 1.0)
        arg = rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-7.0, 1.0)
        points.append((gid, arg / q ** homogeneity_order(get_generator(gid)), q))
    return points


class TestSparseClosedForm:
    def test_float_flow_is_the_dense_formula_bit_for_bit(self):
        negative_zeros = 0
        series = set()
        for gid, tau, q in _sparse_points():
            got = closed_flow(gid, tau, q)
            expected = dense_float_flow(gid, tau, q)
            assert got.dtype == np.float64 and got.shape == (4, 4) and got.flags.c_contiguous
            assert got.tobytes() == expected.tobytes(), (gid, tau, q)
            negative_zeros += int(np.count_nonzero((got == 0) & np.signbit(got)))
            if gid in SQUARE_CLASS_IDS and abs(tau * q ** classify_square(get_generator(gid)).order) < 1e-4:
                series.add(gid)
        assert negative_zeros > 1000  # the signed zeros of negative parameters are among the bits compared
        assert series == set(SQUARE_CLASS_IDS)  # and every generator's small arguments

    def test_mp_flow_is_the_dense_formula_entrywise(self):
        import mpmath

        fns = (mpmath.cosh, mpmath.sinh, mpmath.cos, mpmath.sin)
        for gid in SQUARE_CLASS_IDS + DIAGONAL_IDS[1:4]:
            for q in STANDARD_Q_GRID:
                for p in STANDARD_PARAM_GRID + (9.9e-5,):
                    got = closed_flow(gid, p, q, prec=60)
                    with mpmath.workdps(60):
                        tau, mq = mpmath.mpf(p), mpmath.mpf(q)
                        if gid in DIAGONAL_IDS:
                            expected = _dense_diagonal_rows(gid, tau, mpmath.exp)
                        else:
                            expected = _dense_square_class_rows(gid, tau, mq, eval_mat(get_generator(gid), mq), fns)
                    assert got.tolist() == expected, (gid, p, q)
                    assert all(type(x) is mpmath.mpf for x in got.flat)

    def test_shift_mp_flows_are_the_transcriptions(self):
        import mpmath

        for q in STANDARD_Q_GRID:
            for p in STANDARD_PARAM_GRID:
                with mpmath.workdps(50):
                    chi, mq, pi = mpmath.mpf(p), mpmath.mpf(q), +mpmath.mp.pi
                    t2 = reference_t2_rows(chi, mq, mpmath.exp, pi)
                    t3 = reference_t3_rows(chi, mq, mpmath.sin, mpmath.cos, pi)
                assert closed_flow(GeneratorId.T2, p, q, prec=50).tolist() == t2, (p, q)
                assert closed_flow(GeneratorId.T3, p, q, prec=50).tolist() == t3, (p, q)

    def test_mp_backend_keeps_each_precision_pi(self):
        """Flows at 30 and 60 digits, in turn, each with its own precision's pi (T3 has pi in every entry)."""
        import mpmath

        def t3_flows(prec):
            return [closed_flow(GeneratorId.T3, p, q, prec=prec).tolist() for q in STANDARD_Q_GRID for p in STANDARD_PARAM_GRID]

        def reference(prec):
            with mpmath.workdps(prec):
                pi = +mpmath.mp.pi
                return [reference_t3_rows(mpmath.mpf(p), mpmath.mpf(q), mpmath.sin, mpmath.cos, pi)
                        for q in STANDARD_Q_GRID for p in STANDARD_PARAM_GRID]

        flows._mp_backend.cache_clear()
        fresh = t3_flows(30)
        assert t3_flows(60) == reference(60)
        assert t3_flows(30) == fresh == reference(30)
        for prec in (30, 60):
            with mpmath.workdps(prec):
                assert flows._mp_backend(prec).pi == +mpmath.mp.pi

    def test_mp_product_is_the_sum_from_zero(self):
        import mpmath

        for R, Rp in ((0.3, 2.7), (-1.0, 0.5)):
            a = closed_flow(GeneratorId.T1, R, 1.3, prec=50)
            b = closed_flow(GeneratorId.T3, Rp, 1.3, prec=50)
            with mpmath.workdps(70):
                expected = [[sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)] for i in range(4)]
                assert (a @ b).tolist() == expected

    @pytest.mark.parametrize("gid", ALL_IDS)
    def test_mp_flow_is_an_array_of_mpf(self, gid):
        import mpmath

        got = closed_flow(gid, -0.7, 1.3, prec=30)
        assert isinstance(got, np.ndarray) and got.shape == (4, 4) and got.dtype == object
        assert all(type(x) is mpmath.mpf for x in got.flat)

    def test_mp_kernel_and_eval_mat_are_arrays_of_mpf(self):
        import mpmath

        with mpmath.workdps(50):
            arrays = [kernel_matrix(mpmath.mpf(0.3) + mpmath.mpf(2.7), 1.3, prec=50), kernel_matrix(1.5, 0.01, prec=50),
                      eval_mat(get_generator(GeneratorId.T1), mpmath.mpf(1.3)), eval_mat(Mat4.zero(), mpmath.mpf(2))]
        for got in arrays:
            assert isinstance(got, np.ndarray) and got.shape == (4, 4) and got.dtype == object
            assert all(type(x) is mpmath.mpf for x in got.flat)


def left_to_right_product(a: list, b: list) -> list:
    """a @ b for 4x4 rows of mpf at the ambient precision: each entry adds its four products left to right, from the first."""
    columns = list(zip(*b))
    return [[x0 * y0 + x1 * y1 + x2 * y2 + x3 * y3 for y0, y1, y2, y3 in columns] for x0, x1, x2, x3 in a]


def difference(a: list, b: list) -> list:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def largest(rows: list):
    return max(abs(x) for row in rows for x in row)


class TestObjectMatmul:
    """numpy's object matmul and subtraction of mpf flows have the bits of the left-to-right rule."""

    def test_group_law_residual_is_the_left_to_right_rule(self):
        import mpmath

        for R in RADII:
            for Rp in RADII:
                for q in WAVE_NUMBERS:
                    a, b, ab = (closed_flow(GeneratorId.T1, p, q, prec=KERNEL_PREC).tolist() for p in (R, Rp, R + Rp))
                    with mpmath.workdps(KERNEL_PREC + 20):
                        expected = largest(difference(left_to_right_product(a, b), ab))
                    got = group_law_residual(GeneratorId.T1, R, Rp, q, prec=KERNEL_PREC)
                    assert type(got) is mpmath.mpf and got == expected, (R, Rp, q)

    def test_kernel_check_is_the_left_to_right_rule(self):
        """Each product and difference of the kernel grid's group law at prec 50, entry by entry, held at 1e-11.

        The kernel check certifies the group law exactly (T1's certificate);
        these are the numeric additivity and commutation it held before.
        """
        import mpmath

        additivity = commutation = 0.0
        with mpmath.workdps(KERNEL_PREC + 20):
            radii = [mpmath.mpf(R) for R in RADII]
            sums = {R + Rp for R in radii for Rp in radii}
            k = {(R, q): kernel_matrix(R, q, prec=KERNEL_PREC) for R in {*radii, *sums} for q in WAVE_NUMBERS}
            pairs = [(R, Rp, q) for R in radii for Rp in radii for q in WAVE_NUMBERS]
            expected = {(R, Rp, q): left_to_right_product(k[R, q].tolist(), k[Rp, q].tolist()) for R, Rp, q in pairs}
            for R, Rp, q in pairs:
                ab = k[R, q] @ k[Rp, q]
                assert ab.tolist() == expected[R, Rp, q], (R, Rp, q)
                added = difference(expected[R, Rp, q], k[R + Rp, q].tolist())
                commuted = difference(expected[R, Rp, q], expected[Rp, R, q])
                assert (ab - k[R + Rp, q]).tolist() == added, (R, Rp, q)
                assert (ab - k[Rp, q] @ k[R, q]).tolist() == commuted, (R, Rp, q)
                additivity = max(additivity, float(largest(added)))
                commutation = max(commutation, float(largest(commuted)))
        assert additivity <= 1e-11 and commutation <= 1e-11


def _per_point_rows(oracle) -> list:
    """The float record's rows, folded point by point from `oracle`: (gen, worst rel vs oracle, worst float64 residual)."""
    rows = []
    for gid in GeneratorId:
        rel = residual = 0.0
        for q, p in GRID_POINTS:
            closed = closed_flow(gid, p, q)
            scale = 1.0 + float(np.abs(closed).max())
            rel = flows._fold_max(rel, float(np.abs(closed - oracle(get_generator(gid), p, q, flows.ORACLE_TOL)).max()) / scale)
            residual = flows._fold_max(residual, float(invariance_residual(closed)))
        rows.append((gid, rel.hex(), residual.hex()))
    return rows


@pytest.mark.parametrize("nan_at", [None, (GeneratorId.D1, (2.0, 0.1)), (GeneratorId.T3, (0.5, -2.0))])
def test_flows_rows_are_the_per_point_folds(monkeypatch, nan_at):
    """The float record's oracle deviations are the per-point fold over GRID_POINTS, and keep a NaN."""
    oracle = expm_oracle
    if nan_at is not None:
        gid, (q_nan, p_nan) = nan_at

        def oracle(x, p, q, tol):
            result = expm_oracle(x, p, q, tol)
            if x is get_generator(gid) and (q, p) == (q_nan, p_nan):
                result[1, 2] = math.nan
            return result

        monkeypatch.setattr(checks, "expm_oracle", oracle)
    rows = [(gid, rel.hex(), residual.hex()) for gid, rel, residual in checks.float_evaluator().rows]
    assert rows == _per_point_rows(oracle)
    assert [gid for gid, rel, _ in rows if rel == "nan"] == ([] if nan_at is None else [nan_at[0]])


def published_flow(gid, tau, q) -> np.ndarray:
    """The published transform of gid at one point, as the paper prints it: math's functions, Python's **."""
    kind, *template = flows._PUBLISHED[gid]
    if kind == "diag":
        return np.diag([math.exp(tau * s) for s in template[0]])
    order, smap = template
    arg = tau * q**order
    diag, s = (math.cosh(arg), math.sinh(arg)) if kind == "boost" else (math.cos(arg), math.sin(arg))
    out = np.eye(4) * diag
    for (r, c), (coef, qpow) in smap.items():
        out[r, c] = coef * q**qpow * s
    return out


def bilinear_residual(rows) -> float:
    """Max-norm of a^t M a - M through `bilinear` on each pair of columns; NaN if an entry is NaN."""
    columns = list(zip(*rows))
    entries = [abs(bilinear(u, v) - (mu + nu == 3)) for mu, u in enumerate(columns) for nu, v in enumerate(columns)]
    total = sum(entries)
    return total if total != total else max(entries)


def test_float_residual_is_the_bilinear_reference_by_repr():
    rng = random.Random(1312)
    pool = [0.0, -0.0, 1.0, -1.0, 0.5, 3e-9, 1e200, -1e200, 1e-300, math.inf, -math.inf, math.nan]
    matrices = [closed_flow(gid, p, q) for gid, p, q in _sparse_points()[::7]]
    for _ in range(500):
        matrices.append(np.array([rng.choice(pool) if rng.random() < 0.3 else rng.uniform(-3.0, 3.0) for _ in range(16)]).reshape(4, 4))
    kinds = set()
    for a in matrices:
        expected = repr(bilinear_residual(a.tolist()))
        kinds.add("nan" if expected == "nan" else "inf" if expected == "inf" else "finite")
        assert repr(invariance_residual(a)) == expected, a
        assert repr(invariance_residual(a.tolist())) == expected, a
    assert kinds == {"nan", "inf", "finite"}
