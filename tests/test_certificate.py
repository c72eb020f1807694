"""The exact certificate of the closed forms: every one holds with zero tolerance, and a planted fault fails it."""

import dataclasses
import functools
import math
from fractions import Fraction

import pytest

from fmspace import certificate, checks, flows
from fmspace.catalog import ALL_IDS, ISOMETRIC_IDS, GeneratorId, classify_square, get_generator
from fmspace.certificate import _TAU, Laurent, _at_zero, _backend, _reduce, _terms, certify
from fmspace.matrices import _Q, Mat4
from fmspace.ring import RingElem


@pytest.mark.parametrize("gid", ALL_IDS)
def test_every_closed_form_is_certified(gid):
    cert = certify(gid)
    assert (cert.at_zero, cert.ode, cert.failures) == (0, 0, 0)
    assert cert.isometry == (0 if gid in ISOMETRIC_IDS else None)


class TestLaurent:
    """Laurent terms are keyed (t, a, b, q_pow, pi_pow), with canonical int or Fraction coefficients."""

    def test_the_pythagorean_identities_reduce_to_zero(self):
        cos, sin = Laurent({(0, 1, 0, 0, 0): 1}), Laurent({(0, 0, 1, 0, 0): 1})
        tau = Laurent({(1, 0, 0, 0, 0): 1})
        q = RingElem.qpow(1)
        assert not _reduce(sin * sin + cos * cos - 1, "trig")
        assert not _reduce(tau * (cos * cos - sin * sin) - tau, "hyp")
        assert not _reduce(q * sin * sin * tau + tau * cos * cos * q - tau * q, "trig")
        assert _reduce(sin * sin, "trig").terms == {(0, 0, 0, 0, 0): 1, (0, 2, 0, 0, 0): -1}
        assert _reduce(sin * sin * q / 2, "trig").terms == {(0, 0, 0, 1, 0): Fraction(1, 2), (0, 2, 0, 1, 0): Fraction(-1, 2)}
        assert _reduce(sin * sin + cos * cos - 1, "hyp")  # cosh^2 + sinh^2 is not 1
        assert _reduce(sin * sin, "exp").terms == {(0, 0, 2, 0, 0): 1}  # exp has no relation

    def test_a_divisor_must_be_a_unit(self):
        tau = Laurent({(1, 0, 0, 0, 0): 1})
        q = RingElem.qpow(1)
        pi = RingElem.pipow(1)
        assert (tau / (tau * q * 2)).terms == {(0, 0, 0, -1, 0): Fraction(1, 2)}
        quotient = tau * 3 / (tau * pi * Fraction(3, 2))
        assert quotient.terms == {(0, 0, 0, 0, -1): 2} and type(quotient.terms[0, 0, 0, 0, -1]) is int
        for divisor in (tau + 1, Laurent({(0, 1, 0, 0, 0): 1}), q + 1, Laurent({}), 0):
            with pytest.raises(ValueError, match="a Laurent divisor must be a unit"):
                tau / divisor

    def test_the_backend_reads_one_phase(self):
        bk = _backend({})
        tau = Laurent({(1, 0, 0, 0, 0): 1})
        q = RingElem.qpow(1)
        assert bk.cos(tau * q * 2).terms == {(0, 1, 0, 0, 0): 1}
        assert bk.sin(2 * q * tau).terms == {(0, 0, 1, 0, 0): 1}  # the same phase and kind
        for other in (lambda: bk.sin(tau * 3), lambda: bk.cosh(tau * q * 2), lambda: bk.cos(tau * q * 2 + 1)):
            with pytest.raises(ValueError, match="one phase k tau, of one kind"):
                other()
        phase = {}
        _backend(phase).cos(tau * (q + 1))  # a rate of two terms is one RingElem
        assert phase == {"y": ("trig", q + 1)}
        with pytest.raises(ValueError, match="one phase k tau"):
            _backend({}).exp(tau * tau)


def test_w3_series_is_the_taylor_series_of_its_direct_form():
    """Horner's g = 1 - x^2 g / d over `_w3_divisors`, expanded in Fractions, for the float and prec-60 term counts.

    Each coefficient of x^(2j) is that of 3 (sin x - x cos x) / x^3, from the
    Taylor series of sin and cos, which is (-1)^j 6 (j + 1) / (2j + 3)!.
    """
    counts = {len(bk.w3_divisors) + 1 for bk in (flows._FLOAT_BACKEND, flows._mp_backend(60))}
    assert counts == {13, 22}
    for terms in counts:
        g = [Fraction(1)]  # the coefficients of g in x^2, from x^0 up
        for d in flows._w3_divisors(terms):
            g = [Fraction(1)] + [-c / d for c in g]
        assert len(g) == terms
        for j, coefficient in enumerate(g):
            taylor = 3 * (-1) ** (j + 1) * (Fraction(1, math.factorial(2 * j + 3)) - Fraction(1, math.factorial(2 * j + 2)))
            assert coefficient == taylor == Fraction((-1) ** j * 6 * (j + 1), math.factorial(2 * j + 3)), (terms, j)


def _plant(monkeypatch, gid, rows):
    """Make rows gid's closed form, for the certificate and every flow."""
    real = flows._closed_form
    monkeypatch.setattr(flows, "_closed_form", lambda g: (real(g)[0], rows) if g is gid else real(g))


def _flipped(mat: Mat4, at: tuple) -> Mat4:
    return Mat4([[-x if (r, c) == at else x for c, x in enumerate(row)] for r, row in enumerate(mat.rows)])


def _negated(rows, index: int):
    """rows with the sign of its flat entry index flipped."""

    def faulty(tau, q, bk):
        entries = rows(tau, q, bk)
        entries[index] = -entries[index]
        return entries

    return faulty


@pytest.mark.parametrize("gid", [GeneratorId.B1, GeneratorId.D2, GeneratorId.F3])
def test_a_flipped_sign_in_x_fails_the_certificate(monkeypatch, gid):
    mat = get_generator(gid)
    for r, c, _x in mat.entries():
        _plant(monkeypatch, gid, functools.partial(flows._square_rows, _flipped(mat, (r, c)), classify_square(mat)))
        cert = certify(gid)
        assert cert.ode > 0 and (cert.isometry is None or cert.isometry > 0), (r, c)


def _full_isometry_count(gid) -> int:
    """The entries of F^t M F - M that do not reduce to 0, counted over all 16 (mu, nu)."""
    phase = {}
    flat = [Laurent(_terms(x)) for x in flows._closed_form(gid)[1](_TAU, _Q, _backend(phase))]
    kind, _k = phase["y"]
    columns = [flat[c::4] for c in range(4)]
    return sum(
        bool(_reduce(u[0] * v[3] + u[1] * v[2] + u[2] * v[1] + u[3] * v[0] - int(mu + nu == 3), kind))
        for mu, u in enumerate(columns)
        for nu, v in enumerate(columns)
    )


@pytest.mark.parametrize("gid", ISOMETRIC_IDS)
def test_the_isometry_count_over_10_entries_is_the_count_over_16(monkeypatch, gid):
    """F^t M F is symmetric: its 10 entries with mu <= nu, those off the diagonal twice, count as all 16."""
    assert certify(gid).isometry == _full_isometry_count(gid) == 0
    real = flows._closed_form(gid)[1]
    mat = get_generator(gid)
    flips = [functools.partial(flows._square_rows, _flipped(mat, (r, c)), classify_square(mat)) for r, c, _x in mat.entries()]
    counts = []
    for rows in flips + [_negated(real, index) for index in range(16)]:
        _plant(monkeypatch, gid, rows)
        counts.append(certify(gid).isometry)
        assert counts[-1] == _full_isometry_count(gid)
    assert all(counts[: len(flips)])  # every flipped sign in X breaks the isometry


@pytest.mark.parametrize("gid", [GeneratorId.B1, GeneratorId.D2])
def test_a_flipped_sign_in_an_isometric_x_fails_verify(monkeypatch, gid):
    assert checks.flows().measures["isometric flows not metric-preserving (exact)"].value == 0
    mat = get_generator(gid)
    (r, c, _x), *_ = mat.entries()
    _plant(monkeypatch, gid, functools.partial(flows._square_rows, _flipped(mat, (r, c)), classify_square(mat)))
    record = checks.flows()  # certified afresh: a certificate of the first pass is not reused
    assert record.measures["isometric flows not metric-preserving (exact)"].value > 0
    assert not record.ok


@pytest.mark.parametrize("index", range(4))
def test_a_flipped_weight_entry_fails_t1_and_the_kernel_check(monkeypatch, index):
    real = flows._weights

    def weights(R, q, bk):
        column, s, c = real(R, q, bk)
        column[index] = -column[index]
        return column, s, c

    monkeypatch.setattr(flows, "_weights", weights)  # read by _t1_rows
    assert certify(GeneratorId.T1).failures > 0
    record = checks.kernel()
    assert record.measures["kernel not a one-parameter group (exact)"].value > 0
    assert not record.ok
    assert not checks.mayer().ok and not checks.profile().ok  # both read T1's certificate


@pytest.mark.parametrize("gid, template", [
    (GeneratorId.B1, ("rotation", 1)),  # another kind
    (GeneratorId.B1, ("boost", 2)),  # another order
    (GeneratorId.D2, ("rotation", 1)),
    (GeneratorId.B0, ("boost", 1)),  # a square template for a diagonal flow
], ids=["kind", "order", "d2-order", "b0-diag"])
def test_a_template_of_another_phase_differs_in_each_of_its_entries(monkeypatch, gid, template):
    """published_difference does not raise: each entry of the template differs, each side rendered in its own phase."""
    smap = flows._PUBLISHED[GeneratorId.B1][2] if gid is GeneratorId.B0 else flows._PUBLISHED[gid][2]
    monkeypatch.setitem(flows._PUBLISHED, gid, (*template, smap))
    diff = certificate.published_difference(certify(gid))
    assert [(r, c) for r, c, _text in diff] == sorted({*((i, i) for i in range(4)), *smap})
    kind = "cos" if template[0] == "rotation" else "cosh"
    y = "tau q" if template[1] == 1 else f"tau q^{template[1]}"
    assert all(text.startswith(f"{kind}({y}) - (") for r, c, text in diff if r == c)


def test_a_diagonal_template_in_the_phase_of_its_flow_differs_by_its_signs(monkeypatch):
    """A diag template reads exp(s tau) as A^s: one sign flipped differs in that entry only, exactly."""
    monkeypatch.setitem(flows._PUBLISHED, GeneratorId.B0, ("diag", (1, 1, -1, 1)))
    assert certificate.published_difference(certify(GeneratorId.B0)) == [(3, 3, "exp(tau) - exp(tau)^-1")]


def test_t1s_w2_entry_reads_in_its_symbols():
    """F's (2, 0) entry of T1 is 4 pi R sin(qR) / q, in the phase q tau of kind trig, and nothing else."""
    cert = certify(GeneratorId.T1)
    assert cert.flow[8].terms == {(1, 0, 1, -1, 1): 4}
    trig = ("trig", RingElem.qpow(1))
    assert certificate.entry_is(cert, 2, 0, trig, lambda R, q, pi, cos, sin: 4 * pi * R * sin / q)
    assert not certificate.entry_is(cert, 2, 0, trig, lambda R, q, pi, cos, sin: 4 * pi * R * cos / q)
    assert not certificate.entry_is(cert, 2, 0, ("hyp", RingElem.qpow(1)), lambda R, q, pi, cos, sin: 4 * pi * R * sin / q)
    # sin^2 + cos^2 = 1: an entry is compared after the reduction
    assert certificate.entry_is(cert, 2, 0, trig, lambda R, q, pi, cos, sin: 4 * pi * R * sin * (sin * sin + cos * cos) / q)


@pytest.mark.parametrize("index", range(16))
def test_a_flipped_sign_in_t3_rows_fails_the_certificate(monkeypatch, index):
    _plant(monkeypatch, GeneratorId.T3, _negated(flows._t3_rows, index))
    assert certify(GeneratorId.T3).failures > 0


def test_a_flipped_sign_in_t2s_exponential_fails_the_certificate(monkeypatch):
    def t2_rows(chi, q, bk):
        return flows._t2_rows(chi, q, dataclasses.replace(bk, exp=lambda y: bk.exp(-y)))

    _plant(monkeypatch, GeneratorId.T2, t2_rows)
    cert = certify(GeneratorId.T2)
    assert cert.at_zero == 0 and cert.ode > 0


# the twelve generators whose closed form is C 1 + tau S X(q), from their exact square
SQUARE_IDS = [gid for gid in ALL_IDS if getattr(flows._closed_form(gid)[1], "func", None) is flows._square_rows]


@pytest.mark.parametrize("gid", SQUARE_IDS)
def test_a_flipped_entry_of_a_square_class_x_fails_the_flows_check(monkeypatch, gid):
    """Each entry of X flipped in the closed form, the catalog's X kept: the flows check counts the closed form as not exp(tau X).

    A flip in the catalog itself leaves X^2 off +-q^(2 alpha) 1, so no closed
    form: `tests/test_cli.py::test_a_flipped_catalog_entry_fails_verify_with_every_suite_line`.
    """
    assert len(SQUARE_IDS) == 12
    mat = get_generator(gid)
    for r, c, _x in mat.entries():
        with monkeypatch.context() as m:
            m.setattr(flows, "_closed_form", lambda g, _real=flows._closed_form: (
                (_real(g)[0], functools.partial(flows._square_rows, _flipped(mat, (r, c)), classify_square(mat))) if g is gid else _real(g)
            ))
            record = checks.flows()
        assert record.measures["closed forms not exp(tau X) (exact)"].value > 0, (gid, r, c)
        assert not record.ok
    assert checks.flows().ok


def _d_dtau(p: Laurent, kind: str, k) -> Laurent:
    """d/dtau p on Laurent arithmetic, A and B functions of y = k tau: the tau derivative plus k times the y derivative."""
    A, B = Laurent({(0, 1, 0, 0, 0): 1}), Laurent({(0, 0, 1, 0, 0): 1})
    dA = {"trig": -B, "hyp": B, "exp": A}[kind]
    total = Laurent({})
    for (t, a, b, j, m), c in p.terms.items():
        if t:
            total = total + Laurent({(t - 1, a, b, j, m): c * t})
        if a:
            total = total + Laurent({(t, a - 1, b, j, m): c * a}) * dA * k
        if b:
            total = total + Laurent({(t, a, b - 1, j, m): c * b}) * A * k
    return total


def _fraction_counts(gid) -> tuple:
    """(at_zero, ode, isometry) of gid's certificate, on Laurent arithmetic with its Fractions and no denominator cleared."""
    phase = {}
    flat = [Laurent(_terms(x)) for x in flows._closed_form(gid)[1](_TAU, _Q, _backend(phase))]
    kind, k = phase["y"]
    at_zero = sum(_at_zero(f) != ({(0, 0): 1} if i % 5 == 0 else {}) for i, f in enumerate(flat))
    ode = [_d_dtau(f, kind, k) for f in flat]
    for r, j, x in certificate.get_generator(gid).entries():
        for c in range(4):
            ode[4 * r + c] = ode[4 * r + c] - flat[4 * j + c] * x
    not_ode = sum(bool(_reduce(entry, kind)) for entry in ode)
    return at_zero, not_ode, _full_isometry_count(gid) if gid in ISOMETRIC_IDS else None


def _third_of(rows, index: int):
    """rows with its flat entry index divided by 3."""

    def faulty(tau, q, bk):
        entries = rows(tau, q, bk)
        entries[index] = entries[index] / 3
        return entries

    return faulty


def test_a_third_in_a_rows_builder_counts_as_in_fractions(monkeypatch):
    """Every denominator of a pass is a power of two; a 1/3 planted in one entry of a closed form counts as a Fraction reference does."""
    for gid, rows in ((GeneratorId.T1, flows._t1_rows), (GeneratorId.T2, flows._t2_rows), (GeneratorId.B1, flows._closed_form(GeneratorId.B1)[1])):
        zero = [not entry for entry in rows(_TAU, _Q, _backend({}))]
        for index in range(16):
            _plant(monkeypatch, gid, _third_of(rows, index))
            cert = certify(gid)
            assert (cert.at_zero, cert.ode, cert.isometry) == _fraction_counts(gid), (gid, index)
            assert (cert.failures == 0) == zero[index], (gid, index)  # a third of 0 is 0


def test_a_third_in_a_catalog_matrix_counts_as_in_fractions(monkeypatch):
    """X with one entry divided by 3 fails T1's certificate as a Fraction reference counts it; X / 3 with the flow at tau / 3 passes.

    The last plants a 1/3 in the phase rate k = q / 3 as well as in F and X.
    """
    real = certificate.get_generator
    t1 = real(GeneratorId.T1)
    for r, c, _x in t1.entries():
        third = Mat4([[x * RingElem.rational(1, 3) if (i, j) == (r, c) else x for j, x in enumerate(row)] for i, row in enumerate(t1.rows)])
        monkeypatch.setattr(certificate, "get_generator", lambda g, _m=third: _m if g is GeneratorId.T1 else real(g))
        cert = certify(GeneratorId.T1)
        assert cert.ode > 0 and (cert.at_zero, cert.ode, cert.isometry) == _fraction_counts(GeneratorId.T1), (r, c)
    monkeypatch.setattr(certificate, "get_generator", lambda g: t1.scale(Fraction(1, 3)) if g is GeneratorId.T1 else real(g))
    _plant(monkeypatch, GeneratorId.T1, lambda tau, q, bk: flows._t1_rows(tau / 3, q, bk))
    cert = certify(GeneratorId.T1)
    assert cert.failures == 0 and cert.phase == ("trig", RingElem.monomial(Fraction(1, 3), 1))
    assert _fraction_counts(GeneratorId.T1) == (0, 0, None)
