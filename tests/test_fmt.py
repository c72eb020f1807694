import dataclasses
import math
import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmspace import algebra, flows, fmt, reference_tables
from fmspace.algebra import decompose
from fmspace.catalog import SHIFT_IDS, GeneratorId, get_generator
from fmspace.checks import RADII, WAVE_NUMBERS
from fmspace.fmt import (
    inverse_ft_radial,
    jeffrey_identities,
    kernel_matrix,
    kr_weights,
    mayer_bond,
    step_hat,
    step_profile,
)
from fmspace.flows import expm_oracle, step_weight_array
from fmspace.matrices import eval_mat
from fmspace.ring import RingElem


class TestWeights:
    @pytest.mark.parametrize("prec", [0, -3, 2.5])
    def test_refuses_a_prec_that_is_not_an_int_of_at_least_1(self, prec):
        """prec=0 once gave w2 = 10.0 (4 pi sin 1 = 10.57...): the prec is named instead."""
        with pytest.raises(ValueError, match=f"^prec must be an int of at least 1 decimal digit, got {prec!r}$"):
            kr_weights(1.0, 1.0, prec=prec)

    def test_at_q_pi_radius_one(self):
        # s = 0, c = -1: w = (-1, -1/2, 0, 4/pi)
        w = kr_weights(1.0, math.pi)
        assert w[0] == pytest.approx(-1.0, abs=1e-15)
        assert w[1] == pytest.approx(-0.5, abs=1e-15)
        assert w[2] == pytest.approx(0.0, abs=1e-14)
        assert w[3] == pytest.approx(4.0 / math.pi, rel=1e-15)

    def test_small_q_limits(self):
        R = 2.0
        w = kr_weights(R, 1e-9)
        assert w[0] == pytest.approx(1.0, rel=1e-12)
        assert w[1] == pytest.approx(R, rel=1e-12)
        assert w[2] == pytest.approx(4 * math.pi * R**2, rel=1e-12)
        assert w[3] == pytest.approx(4 * math.pi * R**3 / 3, rel=1e-12)

    def test_scaling_relation(self):
        # w_nu(R, q) = R^nu * w_nu(1, qR)
        R, q = 1.7, 0.9
        w = kr_weights(R, q)
        ref = kr_weights(1.0, q * R)
        for nu in range(4):
            assert w[nu] == pytest.approx(R**nu * ref[nu], rel=1e-13)

    def test_series_and_direct_branches_agree(self):
        # reference values at 50 digits straddling w3's series switch at
        # x = 0.05, where the direct w3 formula loses about eps / x^2 = 9e-14
        import mpmath

        R = 1.0
        for q in (0.0499, 0.0501):
            with mpmath.workdps(50):
                x = mpmath.mpf(q) * R
                s, c = mpmath.sin(x), mpmath.cos(x)
                ref = [
                    c + x * s / 2,
                    (x * c + s) / (2 * q),
                    4 * mpmath.mp.pi * R * s / q,
                    4 * mpmath.mp.pi * (s - x * c) / mpmath.mpf(q) ** 3,
                ]
            w = kr_weights(R, q)
            for nu in range(4):
                assert abs(w[nu] - float(ref[nu])) <= 1e-12 * abs(float(ref[nu])), (q, nu)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kr_weights(0.0, 1.0)
        with pytest.raises(ValueError):
            kr_weights(-1.0, 1.0)
        with pytest.raises(ValueError):
            kr_weights(1.0, 0.0)

    @pytest.mark.parametrize("R, q, word", [
        (math.inf, 1.0, "radius"), (math.nan, 1.0, "radius"),
        (1.0, math.inf, "wave number"), (1.0, math.nan, "wave number"),
    ])
    def test_non_finite_inputs_name_the_problem(self, R, q, word):
        with pytest.raises(ValueError, match=word):
            kr_weights(R, q)

    def test_prec_weights_are_the_prec_kernel_column_bit_for_bit(self):
        import mpmath

        with mpmath.workdps(70):
            radius_sum = mpmath.mpf(0.3) + mpmath.mpf(2.7)
        cases = [(R, q, 50) for R in RADII for q in WAVE_NUMBERS] + [(radius_sum, 1.3, 50), (1.5, 1e-5, 60), (2, 3, 30), (1e-3, 1e12, 40)]
        for R, q, prec in cases:
            w = kr_weights(R, q, prec=prec)
            assert w.shape == (4,) and all(type(x) is mpmath.mpf for x in w), (R, q, prec)
            assert w.tolist() == kernel_matrix(R, q, prec=prec)[:, 0].tolist(), (R, q, prec)
        with pytest.raises(ValueError, match="radius must be positive"):
            kr_weights(0.0, 1.0, prec=30)
        with pytest.raises(ValueError, match="wave number q must be finite"):
            kr_weights(1.0, math.inf, prec=30)

    def test_q_cubed_underflow_is_a_value_error(self):
        with pytest.raises(ValueError, match=r"^float64 underflow in the weight vector at radius 1e\+200, q = 1e-200$"):
            kr_weights(1e200, 1e-200)


class TestStepHat:
    def test_volume_limit_radius_two(self):
        assert step_hat(2.0, 1e-9) == pytest.approx(32 * math.pi / 3, rel=1e-12)

    def test_at_q_pi(self):
        assert step_hat(1.0, math.pi) == pytest.approx(4.0 / math.pi, rel=1e-14)

    def test_equals_w3(self):
        for R in RADII:
            for q in WAVE_NUMBERS + (1e-7, 0.99e-4, 1.01e-4):
                assert step_hat(R, q) == kr_weights(R, q)[3]

    @pytest.mark.parametrize("R, q, word", [
        (math.inf, 1.0, "step range"), (-1.0, 1.0, "step range"),
        (1.0, math.inf, "wave number"), (1.0, math.nan, "wave number"),
    ])
    def test_domain_errors_name_the_problem(self, R, q, word):
        with pytest.raises(ValueError, match=word):
            step_hat(R, q)

    @pytest.mark.parametrize("call, words", [
        (lambda: kr_weights(10**400, 1.0), "radius must be finite"),
        (lambda: kr_weights(1.0, 10**400), "wave number q must be finite"),
        (lambda: kr_weights(10**400, 1.0, prec=30), "radius must be finite"),
        (lambda: mayer_bond(1.0, 10**400, 1.0), "radius must be finite"),
        (lambda: kernel_matrix(10**400, 1.0, prec=30), "flow parameter must be finite"),
        (lambda: step_profile(10**400, [0.0]), "step range must be finite"),
        (lambda: step_profile(1.0, [10**400]), "q \\* r overflows float64 at r = 1000"),
        (lambda: step_profile(1.0, [0.0], qmax=10**400), "need finite qmax > 0"),
    ])
    def test_a_python_int_beyond_float64_is_not_finite(self, call, words):
        with pytest.raises(ValueError, match=f"^{words}"):
            call()

    def test_matches_the_formula_written_out_bit_for_bit(self):
        """Value bits, or exception type and message, of step_hat and of the reference below."""
        rng = random.Random(9)
        draws = [(10 ** rng.uniform(-8, 3), 10 ** rng.uniform(-8, 4)) for _ in range(4000)]
        assert sum(abs(R * q) < 0.05 for R, q in draws) > 500  # both branches, many times
        threshold = [(R, x / R) for R in (1.0, 2.0, 0.5) for x in (math.nextafter(0.05, 0), 0.05, math.nextafter(0.05, 1))]
        special = [
            (1, 2), (True, 1), (2, True), (True, True), (3, 0.5),
            (10**400, 1.0), (1.0, 10**400), (1.0, 1e103), (1e-200, 1e103), (1e300, 1e10), (1e200, 1e-200),
            (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf), (-math.inf, 1.0),
            (0, 1.0), (1.0, 0), (0.0, 0.0), (False, 1.0), (-1.0, 1.0), (1.0, -2.5), (-0.0, 1.0),
        ]
        numbers = [
            (np.float64(1.3), np.float64(2.7)), (np.float32(1.3), 2.7), (1.3, np.float32(2.7)),
            (np.int64(2), np.int64(3)), (np.float64(1.3), 1e-5), (np.int64(1), np.float32(1e-6)),
            (Float(1.3), Float(2.7)), (Float(2.0), 1e-6), (Float(1e300), Float(1e10)),
            (np.float64(-1.0), 1.0), (1.0, np.float32("nan")), (np.float64(1e200), np.float64(1e-200)),
        ]
        for R, q in draws + threshold + special + numbers:
            assert outcome(step_hat, R, q) == outcome(reference_step_hat, R, q), (R, q)
        assert outcome(step_hat, 10**400, 1.0) == (ValueError, f"step range must be finite, got {10**400!r}")
        assert outcome(step_hat, 1.0, 10**400) == (ValueError, f"wave number q must be finite, got {10**400!r}")
        for R, q in draws[:50] + threshold + numbers[:8]:
            assert type(step_hat(R, q)) is float, (R, q)

    @pytest.mark.parametrize("R", [1e-6, 0.3, 1.0, 1.3, 2.7, 1e3])
    def test_both_branches_are_the_flows_formula_at_the_switch(self, R):
        """At the last q with qR below 0.05 and the first with qR at or above it, and
        three floats to each side, step_hat has the bits of _w3_series and of _step_direct."""
        q = flows._W3_SWITCH / R
        while q * R >= flows._W3_SWITCH:
            q = math.nextafter(q, 0)
        while math.nextafter(q, math.inf) * R < flows._W3_SWITCH:
            q = math.nextafter(q, math.inf)
        below, above = [q], [math.nextafter(q, math.inf)]
        for _ in range(3):
            below.append(math.nextafter(below[-1], 0))
            above.append(math.nextafter(above[-1], math.inf))
        for k in below:
            x = k * R
            assert x < flows._W3_SWITCH
            assert step_hat(R, k).hex() == flows._w3_series(R, x, math.pi, flows._FLOAT_BACKEND.w3_divisors).hex()
        for k in above:
            x = k * R
            assert x >= flows._W3_SWITCH
            direct = flows._step_direct(x, math.sin(x), math.cos(x), k**3, math.pi)
            assert step_hat(R, k).hex() == direct.hex()


class Float(float):
    """A float subclass: step_hat reads its value and returns a plain float."""


def reference_step_hat(Rtot, q):
    """step_hat written out: its checks, the weight column's float64 domain (q^4 and q^-4 normal,
    qR at most 1e-9 / (64 eps)), and w3 = 4 pi (sin x - x cos x) / q^3, x = qR, with 13 terms of
    its series 4 pi R^3 / 3 (1 - x^2 / 10 (1 - x^2 / 28 (1 - ...))) below x = 0.05."""
    for name, value in (("step range", Rtot), ("wave number q", q)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be {'finite' if value > 0 else 'positive'}, got {value!r}")
    try:
        R, k = float(Rtot), float(q)
    except OverflowError:  # an int beyond float64 is not finite either
        name, value = ("step range", Rtot) if Rtot > sys.float_info.max else ("wave number q", q)
        raise ValueError(f"{name} must be finite, got {value!r}") from None
    x = k * R
    subject = f"the step transform at radius {R!r}, q = {k!r}"
    if not 2.0**-255.5 <= k <= 2.0**255.5:
        raise ValueError(f"float64 {'underflow' if k < 1 else 'overflow'} in {subject}")
    if not x <= 1e-9 / (64 * 2.0**-52):
        raise ValueError(f"float64 phase error in {subject}: |q R| = {x:.6g} is above the phase bound 70368.7")
    if x < 0.05:
        t = x * x
        g = 1
        for j in reversed(range(12)):
            g = 1 - t * g / (2 * (j + 1) * (2 * j + 5))
        return 4 * math.pi * R**3 * g / 3
    return 4 * math.pi * (math.sin(x) - x * math.cos(x)) / k**3


def outcome(f, *args):
    try:
        value = f(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), value.hex()


class TestMayerBond:
    def test_equal_radii_closed_form(self):
        R, q = 1.0, 1.3
        expected = 4 * math.pi * (math.sin(2 * q * R) - 2 * q * R * math.cos(2 * q * R)) / q**3
        assert mayer_bond(R, R, q) == pytest.approx(expected, rel=1e-12)

    def test_bond_is_the_step_transform_to_50_digits(self):
        """The bond against 4 pi (sin x - x cos x) / q^3 at x = q (Ra + Rb), written here at 50 digits.

        The mayer check holds the bond against `step_hat`, which shares w3 with
        the weights, so a defect in w3 cancels there; here it cannot.  On the
        check's grid, and on seeded draws with x on both sides of w3's series
        switch, within the check's bound.
        """
        import mpmath

        points = [(Ra, Rb, q) for Ra in RADII for Rb in RADII for q in WAVE_NUMBERS]
        rng = random.Random(2011)
        for _ in range(200):
            Ra, Rb = 10 ** rng.uniform(-1.0, 0.5), 10 ** rng.uniform(-1.0, 0.5)
            points.append((Ra, Rb, flows._W3_SWITCH * 2 ** rng.uniform(-3.0, 3.0) / (Ra + Rb)))
        sides = {q * (Ra + Rb) < flows._W3_SWITCH for Ra, Rb, q in points}
        assert sides == {True, False}
        for Ra, Rb, q in points:
            with mpmath.workdps(50):
                k = mpmath.mpf(q)
                x = k * (mpmath.mpf(Ra) + mpmath.mpf(Rb))
                exact = 4 * mpmath.pi * (mpmath.sin(x) - x * mpmath.cos(x)) / k**3
                rel = abs(mayer_bond(Ra, Rb, q) - exact) / (1 + abs(exact))
            assert rel <= 1e-10, (Ra, Rb, q, rel)

    def test_volume_limit(self):
        assert mayer_bond(1.0, 0.5, 1e-6) == pytest.approx(4.5 * math.pi, rel=1e-10)
        assert mayer_bond(1.0, 0.5, 1e-6) == pytest.approx(14.137167, rel=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=0.2, max_value=3.0),
        st.floats(min_value=0.2, max_value=3.0),
        st.floats(min_value=0.05, max_value=12.0),
    )
    def test_symmetry(self, Ra, Rb, q):
        assert mayer_bond(Ra, Rb, q) == pytest.approx(mayer_bond(Rb, Ra, q), rel=1e-12, abs=1e-12)


class TestKernel:
    def test_kernel_is_t1_exponential(self):
        K = kernel_matrix(1.0, 0.8)
        o = expm_oracle(get_generator(GeneratorId.T1), 1.0, 0.8, 1e-13)
        assert float(np.abs(K - o).max()) <= 1e-10

    def test_near_zero_radius_is_identity(self):
        K = kernel_matrix(1e-12, 1.0)
        assert np.allclose(K, np.eye(4), atol=1e-10)

    def test_additivity_and_commutation(self):
        for R in (0.3, 1.0):
            for Rp in (0.5, 2.7):
                for q in (0.5, 1.0, math.pi, 10.0):
                    a = kernel_matrix(R, q)
                    b = kernel_matrix(Rp, q)
                    c = kernel_matrix(R + Rp, q)
                    assert float(np.abs(a @ b - c).max()) <= 1e-11, (R, Rp, q)
                    assert float(np.abs(a @ b - b @ a).max()) <= 1e-11

    def test_prec_50_kernel_is_the_exponential_of_the_catalog_t1(self):
        """The prec-50 kernel against mpmath.expm(R t1(q)) at 50 digits, relative to max(1, max |entry|).

        This ties the weight column the kernel check compares with to the
        catalog matrix, not to the transcription it is built from.
        """
        import mpmath

        t1 = get_generator(GeneratorId.T1)
        worst = 0
        with mpmath.workdps(50):
            for R in RADII:
                for q in WAVE_NUMBERS:
                    kernel = mpmath.matrix(kernel_matrix(R, q, prec=50))
                    reference = mpmath.expm(mpmath.mpf(R) * mpmath.matrix(eval_mat(t1, mpmath.mpf(q))))
                    scale = max(1, max(abs(x) for x in reference))
                    worst = max(worst, max(abs(x) for x in kernel - reference) / scale)
        assert worst <= 1e-45

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            kernel_matrix(0.0, 1.0)

    def test_rejects_infinite_radius(self):
        with pytest.raises(ValueError, match="radius"):
            kernel_matrix(math.inf, 1.0)


class TestJeffrey:
    """The shift tensor: 32 shift-table cells and the 4 published decompositions of t_nu."""

    def test_t0_decomposition(self):
        assert decompose(get_generator(GeneratorId.T0)).coeffs == {GeneratorId.ONE: RingElem.monomial(1)}

    def test_t2_decomposition_exact_coefficients(self):
        dec = decompose(get_generator(GeneratorId.T2))
        assert dec[GeneratorId.ONE] == RingElem.monomial(Fraction(-1, 8), 2, -1)
        assert dec[GeneratorId.P0] == RingElem.monomial(Fraction(1, 8), 2, -1)
        f2 = RingElem.monomial(Fraction(1, 2)) + RingElem.monomial(Fraction(1, 128), 0, -2)
        h2 = RingElem.monomial(Fraction(-1, 2)) + RingElem.monomial(Fraction(1, 128), 0, -2)
        assert dec[GeneratorId.F2] == f2
        assert dec[GeneratorId.H2] == h2
        assert set(dec.coeffs) == {GeneratorId.ONE, GeneratorId.P0, GeneratorId.F2, GeneratorId.H2}

    def test_decompositions_reconstruct(self):
        for gid in SHIFT_IDS:
            t = get_generator(gid)
            assert decompose(t).reconstruct() == t

    def test_identities_all_pass(self):
        report = jeffrey_identities()
        assert report.cells_checked == 36
        assert report.mismatches == []

    def test_decomposition_identity_prints_expected_and_generated(self, monkeypatch):
        spec = reference_tables.SHIFT_DECOMPOSITIONS
        cells = (("T0",), ("(F1 - H1)/2",)) + spec.cells[2:]  # t0 itself is not in One + 15
        monkeypatch.setattr(reference_tables, "SHIFT_DECOMPOSITIONS", dataclasses.replace(spec, cells=cells))
        assert [str(m) for m in jeffrey_identities().mismatches] == [
            "shift decompositions [T0, One]: expected T0, generated One",
            "shift decompositions [T1, One]: expected 1/2 F1 - 1/2 H1, generated 1/2 F1"
            " + (-1/(32 q^2 pi) + 2 pi/(q^2)) F3 - 1/2 H1 + (3/(32 q^2 pi) - 2 pi/(q^2)) F3p"
            " + (3/(32 q^2 pi) + 2 pi/(q^2)) P3 + (-1/(32 q^2 pi) - 2 pi/(q^2)) P3p",
        ]

    def test_passing_decompositions_decompose_nothing(self, monkeypatch):
        calls = []
        real = algebra.decompose
        monkeypatch.setattr(algebra, "decompose", lambda *a: calls.append(a) or real(*a))
        assert jeffrey_identities().ok
        assert calls == []

    def test_t3_squared(self):
        t3 = get_generator(GeneratorId.T3)
        expected = get_generator(GeneratorId.T0).scale(
            RingElem.monomial(Fraction(-1, 32), 6, -2)
        ) + get_generator(GeneratorId.T2).scale(RingElem.monomial(Fraction(-1, 8), 4, -1))
        assert t3 @ t3 == expected


def unit_step_hat(q):
    return step_hat(1.0, q) if q > 0 else 4 * math.pi / 3


def scalar_inverse_ft_radial(hat, r, qmax, n, window=True):
    """The composite Simpson rule as a plain loop over the grid, one radius."""
    if n % 2:
        n += 1
    h = qmax / n
    total = 0.0
    for i in range(n + 1):
        q = i * h
        x = q * r
        sinc = 1.0 - x * x / 6.0 if abs(x) < 1e-8 else math.sin(x) / x
        f = q * q * hat(q) * sinc
        if window:
            f *= math.exp(-18.0 * (q / qmax) ** 2)
        total += (1 if i in (0, n) else (4 if i % 2 else 2)) * f
    return total * h / 3.0 / (2.0 * math.pi**2)


class CountingHat:
    def __init__(self, hat):
        self.hat = hat
        self.calls = 0

    def __call__(self, q):
        self.calls += 1
        return self.hat(q)


class TestInverseTransform:
    def test_step_profile_spot_checks(self):
        hat = unit_step_hat
        for r, expected in ((0.0, 1.0), (0.5, 1.0), (1.5, 0.0), (2.0, 0.0)):
            assert inverse_ft_radial(hat, r) == pytest.approx(expected, abs=5e-3)

    @pytest.mark.parametrize("n", [400, 401])
    def test_matches_the_scalar_loop_bitwise(self, n):
        for r in (0.0, 1e-12, 0.37, 1.0, 2.5):
            expected = scalar_inverse_ft_radial(unit_step_hat, r, 30.0, n)
            assert inverse_ft_radial(unit_step_hat, r, qmax=30.0, n=n) == expected, r

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_blocks_carry_the_running_sum_bitwise(self, monkeypatch, block):
        radii = [0.0, 0.37, 2.5]
        expected = [scalar_inverse_ft_radial(unit_step_hat, r, 30.0, 400) for r in radii]
        monkeypatch.setattr(fmt, "_BLOCK", block)
        hat = CountingHat(unit_step_hat)
        assert inverse_ft_radial(hat, radii, qmax=30.0, n=400) == expected
        assert hat.calls == 401

    def test_list_of_radii_equals_one_call_per_radius_bitwise(self):
        radii = [0.0, 0.25, 0.999, 1.0, 1.75, 3.0]
        batch = inverse_ft_radial(unit_step_hat, radii, qmax=50.0, n=2000)
        assert isinstance(batch, list)
        single = [inverse_ft_radial(unit_step_hat, r, qmax=50.0, n=2000) for r in radii]
        assert all(type(x) is float for x in single)
        assert [x.hex() for x in batch] == [x.hex() for x in single]
        assert inverse_ft_radial(unit_step_hat, tuple(radii), qmax=50.0, n=2000) == batch
        assert inverse_ft_radial(unit_step_hat, np.array(radii), qmax=50.0, n=2000) == batch

    @pytest.mark.parametrize("radii", [0.5, [0.5], [0.0, 0.5, 1.5, 2.0], list(np.linspace(0, 3, 17))])
    def test_hat_is_sampled_once_per_grid_point(self, radii):
        for n, points in ((100, 101), (101, 103)):  # odd n is raised to even
            hat = CountingHat(unit_step_hat)
            inverse_ft_radial(hat, radii, qmax=20.0, n=n)
            assert hat.calls == points

    def test_second_call_on_a_grid_builds_no_window(self):
        fmt._window.cache_clear()
        inverse_ft_radial(unit_step_hat, 0.5, qmax=50.0, n=2000)
        first = fmt._window.cache_info()
        inverse_ft_radial(unit_step_hat, [0.0, 1.5], qmax=50.0, n=2000)
        step_profile(1.0, 0.5, qmax=50.0, n=2000)
        info = fmt._window.cache_info()
        assert (first.misses, first.hits) == (1, 0)
        assert (info.misses, info.hits) == (1, 2)
        assert info.maxsize == fmt._WINDOWS

    def test_memoised_window_is_read_only(self):
        inverse_ft_radial(unit_step_hat, 0.5, qmax=50.0, n=2000)
        gauss = fmt._window(50.0, 2000, 0, 2001)
        assert not gauss.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            gauss[0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            gauss *= 2.0

    def test_bits_hold_with_other_grids_called_in_between(self):
        radii = [0.0, 0.37, 2.5]
        expected = [x.hex() for x in (scalar_inverse_ft_radial(unit_step_hat, r, 30.0, 400) for r in radii)]
        fmt._window.cache_clear()
        for others in (1, fmt._WINDOWS + 1):  # the grid's window is reused, then evicted
            assert [x.hex() for x in inverse_ft_radial(unit_step_hat, radii, qmax=30.0, n=400)] == expected
            for k in range(others):
                inverse_ft_radial(unit_step_hat, radii, qmax=31.0 + k, n=400)
            assert step_profile(1.0, 0.37, qmax=30.0, n=400).hex() == expected[1]
        assert fmt._window.cache_info().hits >= 2

    def test_empty_radius_list(self):
        hat = CountingHat(unit_step_hat)
        assert inverse_ft_radial(hat, [], qmax=20.0, n=100) == []
        assert hat.calls == 0

    def test_nan_in_list_call_raises(self):
        hat = lambda q: math.nan if q > 5.0 else 1.0
        with pytest.raises(ValueError, match="NaN at q = 5.1"):
            inverse_ft_radial(hat, [0.0, 1.0], qmax=10.0, n=100)

    def test_negative_or_non_finite_radius_in_list_raises(self):
        for bad in (-0.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="r must be"):
                inverse_ft_radial(unit_step_hat, [0.0, bad, 1.0], qmax=10.0, n=10)

    def test_overflowing_q_times_r_raises(self):
        with pytest.raises(ValueError, match="overflows float64"):
            inverse_ft_radial(unit_step_hat, [0.0, 1e308], qmax=10.0, n=20)

    def test_a_grid_under_the_window_raises(self):
        """inverse_ft_radial refuses fewer than 20 panels as step_profile does: 8 panels read 0.38480 at r = 0, 2000 read 0.38022."""
        hat = lambda q: math.exp(-q * q / 4)
        for n in (2, 8, 18):
            with pytest.raises(ValueError, match=rf"^the radial transform needs at least 20 panels to resolve its window, got {n}$"):
                inverse_ft_radial(hat, 0.0, qmax=8.0, n=n)
        assert inverse_ft_radial(hat, 0.0, qmax=8.0, n=20) == pytest.approx(inverse_ft_radial(hat, 0.0, qmax=8.0, n=2000), rel=1e-6)

    def test_windowless_truncation_is_the_problem(self):
        # the bare truncated integral misses f(0) = 1 by order one, which is
        # why the quadrature carries the spectral window
        bare = scalar_inverse_ft_radial(unit_step_hat, 0.0, 200.0, 20000, window=False)
        assert abs(bare - 1.0) > 0.1

    def test_nan_propagates_as_error(self):
        with pytest.raises(ValueError):
            inverse_ft_radial(lambda q: math.nan, 1.0, qmax=10.0, n=10)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            inverse_ft_radial(lambda q: 0.0, -1.0)
        with pytest.raises(ValueError):
            inverse_ft_radial(lambda q: 0.0, 1.0, qmax=0.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_sample_raises(self, value):
        with pytest.raises(ValueError, match=f"hat returned {value} at q = 0.0"):
            inverse_ft_radial(lambda q: value, 1.0, qmax=10.0, n=20)
        with pytest.raises(ValueError, match="hat returned -inf at q = 5.0"):
            inverse_ft_radial(lambda q: -math.inf if q == 5.0 else 1.0, [0.0, 1.0], qmax=10.0, n=20)


def unit_step_volume(R):
    return lambda q: step_hat(R, q) if q > 0 else 4.0 * math.pi * R**3 / 3.0


class TestStepProfile:
    """step_profile against the scalar rule: the bits of every grid node's
    window (math.exp of pow) and spectrum (libm's pow for q^3) reach the sum."""

    # The default grid and a two-block one (100001 nodes > _BLOCK).  numpy's
    # ** 2 or np.power in the window differs from pow at 16 nodes of the
    # default grid; that reaches the sum at r = 1.4, 1.7 and 2.5, among others.
    @pytest.mark.parametrize("qmax, n, radii", [
        (200.0, 20000, (0.0, 0.5, 1.0, 1.4, 1.7, 2.0, 2.5)),
        (1e3, 100000, (0.0, 0.9, 2.0)),
    ])
    def test_matches_the_scalar_loop_and_the_hat_path_bitwise(self, qmax, n, radii):
        expected = [scalar_inverse_ft_radial(unit_step_hat, r, qmax, n) for r in radii]
        hat_path = inverse_ft_radial(unit_step_hat, radii, qmax=qmax, n=n)
        assert [x.hex() for x in hat_path] == [x.hex() for x in expected]
        step_path = step_profile(1.0, radii, qmax=qmax, n=n)
        assert [x.hex() for x in step_path] == [x.hex() for x in expected]

    @pytest.mark.parametrize("R", [1e-6, 0.3, 2.7])
    def test_step_spectrum_is_step_hat_at_every_node(self, R):
        """Below x = qR = 1e-4 the series runs: at R = 1e-6 that is q < 100 of the default grid."""
        q = np.arange(1, 20001) * (200.0 / 20000)
        array = step_weight_array(R, q)
        assert [x.hex() for x in array.tolist()] == [step_hat(R, k).hex() for k in q.tolist()]

    def test_series_branch_matches_the_scalar_loop_bitwise(self):
        radii = [0.0, 1e-6, 1.0, 1.4, 1.7, 2.5]
        expected = [scalar_inverse_ft_radial(unit_step_volume(1e-6), r, 200.0, 20000) for r in radii]
        assert [x.hex() for x in step_profile(1e-6, radii)] == [x.hex() for x in expected]

    def test_scalar_radius_gives_a_float(self):
        assert step_profile(0.7, 0.5, qmax=80.0, n=4001) == inverse_ft_radial(unit_step_volume(0.7), 0.5, qmax=80.0, n=4001)

    @pytest.mark.parametrize("R", [6e102, 5e102])
    def test_overflowing_volume_raises(self, R):
        """A radius whose volume 4 pi R^3 / 3 overflows is refused before anything is evaluated:
        on the default grid it aliases, and on a grid fine enough not to, q^4 underflows."""
        with pytest.raises(ValueError, match="^" + re.escape(f"the step profile at R = {R!r} would alias")):
            step_profile(R, [0.0, 1.0])
        with pytest.raises(ValueError, match="^" + re.escape(f"float64 underflow in the step transform at radius {R!r}, q = 1e-100") + "$"):
            step_profile(R, [0.0, 1.0], qmax=1e-100)

    def test_overflowing_spectrum_names_its_q(self):
        """q^4 overflows above 2^255.5: step_hat names that q, and a profile that would reach it aliases first."""
        with pytest.raises(ValueError, match=r"^float64 overflow in the step transform at radius 1.0, q = 1e\+119$"):
            step_hat(1.0, 1e119)
        with pytest.raises(ValueError, match="would alias"):
            step_profile(1.0, 0.0, qmax=1e120, n=20)

    def test_a_grid_that_would_alias_raises(self):
        """(R + max r) * h above 1 raises, with h from the panels rounded up to even."""
        for R, r in ((100.0, 220.0), (1.0, [0.0, 99.5]), (1e100, 1.0)):
            with pytest.raises(ValueError, match=r"would alias: .* lower --qmax or raise --panels"):
                step_profile(R, r)
        assert step_profile(1.0, [0.0, 99.0])[0] == pytest.approx(1.0, abs=5e-3)  # (R + max r) * h = 1
        assert step_profile(1.0, 0.0, qmax=20.0, n=19) == step_profile(1.0, 0.0, qmax=20.0, n=20)  # h = 1

    def test_a_grid_under_the_window_raises(self):
        """Fewer than 20 panels after rounding up to even raises (19 rounds up to 20, above)."""
        for n in (2, 8, 18):
            with pytest.raises(ValueError, match=rf"at least 20 panels to resolve its window, got {n}$"):
                step_profile(1.0, 0.0, qmax=1.0, n=n)

    @pytest.mark.parametrize("R", [0.0, -1.0, math.nan, math.inf])
    def test_range_must_be_positive_and_finite(self, R):
        with pytest.raises(ValueError, match="step range must be"):
            step_profile(R, 1.0)
