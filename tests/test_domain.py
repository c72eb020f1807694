"""The float64 domain: every float answer is within its pinned bound of prec 60, or refused.

Seeded draws over the whole finite range of q, R and tau, and more densely
at each edge of `flows.float64_domain`: the phase bound, the e^|y| overflow
at ln(DBL_MAX) = 709.78, the smallest normal float (through the powers of
q) and w3's series switch at x = 0.05.

The measure is the float evaluator's max|f - ref| / (1 + max|ref|), taken in
the graded frame, where entry (mu, nu) is divided by q^(nu - mu) (w_nu by
q^-nu, the step and the bond by q^-3): every entry there is a function of
the phase alone.  Unscaled, one entry can hold the whole norm at an extreme
q, and near a zero of its function the input rounding of the phase alone
moves it further than 1e-9 of itself: T1 at qR = 4.4934 (a zero of w3) and
q = 1e-10 is 3.2e-6 off prec 60 unscaled, and within 1e-15 graded.  Below
|y| = 1 no entry crosses zero, and the unscaled measure is held as well.
"""

import math
import random

import mpmath
import numpy as np
import pytest

from fmspace.catalog import GeneratorId
from fmspace.flows import _LN_MAX, _Q_RANGE, _W3_SWITCH, PHASE_BOUND, WEIGHT_EXPONENTS, _closed_form, closed_flow
from fmspace.fmt import kernel_matrix, kr_weights, mayer_bond, step_hat

TOL = 1e-9  # the float flows bound (`closed form vs oracle rel`): flows, the kernel, the weights and the step
BOND_TOL = 1e-10  # the mayer check's bound
PREC = 60
LOG2_RANGE = (-1074.0, 1023.9)  # the positive finite float64 numbers


def _q_in(rng, power):
    """A q with q^power and q^-power normal, log-uniform."""
    lo, hi = _Q_RANGE[power]
    return 2.0 ** rng.uniform(math.log2(lo), math.log2(hi)) if power else 2.0 ** rng.uniform(*LOG2_RANGE)


def _draws(rng, form, count):
    """(tau, q) pairs for one form: the whole range, the phase's range, and each edge of the domain."""
    points = []
    for _ in range(count):
        points.append((rng.choice((-1, 1)) * 2.0 ** rng.uniform(*LOG2_RANGE), 2.0 ** rng.uniform(*LOG2_RANGE)))
        q = _q_in(rng, form.power)
        ys = [10 ** rng.uniform(-320, math.log10(PHASE_BOUND) + 1), PHASE_BOUND * 2 ** rng.uniform(-0.01, 0.01)]
        if form.growth is not None:
            room = _LN_MAX - form.headroom - form.growth * abs(math.log(q))
            if room > 2:
                ys.append(room + rng.uniform(-2.0, 2.0))
        if form.order == 1 and form.power == 4:  # T1 and the weight column: w3's series switch
            ys.append(_W3_SWITCH * 2 ** rng.uniform(-0.1, 0.1))
        points += [(rng.choice((-1, 1)) * y / (form.scale * q**form.order), q) for y in ys]
        if form.power:  # the smallest normal power, at either end of q's range
            q = 2.0 ** (rng.choice((-1, 1)) * (1022 / form.power + rng.uniform(-0.5, 0.5)))
            y = 10 ** rng.uniform(-3, 3)
            if math.isfinite(form.scale * q**form.order) and q**form.order:
                points.append((rng.choice((-1, 1)) * y / (form.scale * q**form.order), q))
    return [(tau, q) for tau, q in points if math.isfinite(tau) and 0 < q < math.inf]


def _phase(form, tau, q) -> float:
    with mpmath.workdps(30):
        return float(abs(form.scale * mpmath.mpf(tau) * mpmath.mpf(q) ** form.order))


def _measures(f, ref, q, power_of):
    """(graded, unscaled) max|f - ref| / (1 + max|ref|) over paired entries; power_of(i) is entry i's power of q."""
    with mpmath.workdps(PREC + 20):
        qm = mpmath.mpf(q)
        scale = [qm ** -power_of(i) for i in range(len(ref))]
        diff = [abs(mpmath.mpf(float(x)) - r) for x, r in zip(f, ref)]
        graded = max(d * s for d, s in zip(diff, scale)) / (1 + max(abs(r) * s for r, s in zip(ref, scale)))
        plain = max(diff) / (1 + max(abs(r) for r in ref))
    return float(graded), float(plain)


def _refused(call, subject: str):
    """The ValueError of an input outside the domain: it names the argument that puts it there."""
    with pytest.raises(ValueError) as info:
        call()
    message = str(info.value)
    assert subject in message, message
    assert message.startswith(("float64 overflow in ", "float64 underflow in ", "float64 phase error in ")), message


@pytest.mark.parametrize("gid", list(GeneratorId), ids=lambda g: g.value)
def test_float_flow_is_right_or_refused(gid):
    rng = random.Random(f"domain-{gid.value}")
    form = _closed_form(gid)[0]
    returned = 0
    for tau, q in _draws(rng, form, 60):
        try:
            f = closed_flow(gid, tau, q)
        except ValueError:
            _refused(lambda: closed_flow(gid, tau, q), f"exp({tau!r} * {gid.value}) at q = {q!r}")
            continue
        returned += 1
        assert f.dtype == np.float64 and np.isfinite(f).all(), (tau, q)
        ref = [x for row in closed_flow(gid, tau, q, prec=PREC) for x in row]
        graded, plain = _measures(f.ravel().tolist(), ref, q, lambda i: i % 4 - i // 4)
        assert graded <= TOL, (tau, q, graded)
        if _phase(form, tau, q) <= 1:
            assert plain <= TOL, (tau, q, plain)
    assert returned >= 60


def _column_reference(R, q):
    """The weight column at (R, q) to 60 digits, w3's cancellation of x^3 / 3 included; R may be an mpf."""
    digits = max(0, -int(mpmath.log10(mpmath.mpf(R) * q)))
    with mpmath.workdps(PREC + 3 * digits):
        R, q = mpmath.mpf(R), mpmath.mpf(q)
        x = q * R
        s, c = mpmath.sin(x), mpmath.cos(x)
        pi = mpmath.pi
        return [c + x * s / 2, (x * c + s) / (2 * q), 4 * pi * R * s / q, 4 * pi * (s - x * c) / q**3]


def _w3_measures(value, column, q):
    """(graded in the column's norm, unscaled) |value - w3| of a step or bond value against its column."""
    with mpmath.workdps(PREC):
        qm = mpmath.mpf(q)
        off = abs(mpmath.mpf(value) - column[3])
        graded = off * qm**3 / (1 + max(abs(v * qm**nu) for nu, v in enumerate(column)))
        return float(graded), float(off / (1 + abs(column[3])))


def test_weights_kernel_step_and_bond_are_right_or_refused():
    rng = random.Random("domain-weights")
    returned = 0
    for R, q in _draws(rng, WEIGHT_EXPONENTS, 400):
        R = abs(R)
        if not R:  # y / q underflowed: a radius of 0 is refused before the domain is read
            continue
        try:
            w = kr_weights(R, q)
        except ValueError:
            _refused(lambda: kr_weights(R, q), f"the weight vector at radius {R!r}, q = {q!r}")
            _refused(lambda: step_hat(R, q), f"the step transform at radius {R!r}, q = {q!r}")
            _refused(lambda: kernel_matrix(R, q), f"exp({R!r} * T1) at q = {q!r}")
            continue
        returned += 1
        column = _column_reference(R, q)
        small = R * q <= 1  # below x = 1 the unscaled measure holds too
        graded, plain = _measures(w.tolist(), column, q, lambda nu: -nu)
        assert np.isfinite(w).all() and graded <= TOL and (plain <= TOL or not small), (R, q, graded, plain)
        graded, plain = _w3_measures(step_hat(R, q), column, q)
        assert graded <= TOL and (plain <= TOL or not small), (R, q, graded, plain)
        kernel = kernel_matrix(R, q)
        ref = [v for row in closed_flow(GeneratorId.T1, R, q, prec=PREC) for v in row]
        graded, plain = _measures(kernel.ravel().tolist(), ref, q, lambda i: i % 4 - i // 4)
        assert np.isfinite(kernel).all() and graded <= TOL and (plain <= TOL or not small), (R, q, graded, plain)
        # the bond of two radii that sum to about R, against the step of their exact sum
        Ra = R * rng.uniform(0.05, 0.95)
        Rb = R - Ra
        if not (Ra > 0 and Rb > 0):
            continue
        bond = mayer_bond(Ra, Rb, q)
        total = mpmath.mpf(Ra) + mpmath.mpf(Rb)
        graded, plain = _w3_measures(bond, _column_reference(total, q), q)
        small = float(total * mpmath.mpf(q)) <= 1
        assert math.isfinite(bond) and graded <= BOND_TOL and (plain <= BOND_TOL or not small), (Ra, Rb, q, graded, plain)
    assert returned >= 600


def test_w3_series_is_the_quotient_to_a_few_eps():
    """Below x = 0.9, 4 pi g / 3 of the series is within 4.1e-16 of 4 pi (sin x - x cos x) / x^3, relative."""
    from fmspace.flows import _FLOAT_BACKEND, _w3_series

    rng = random.Random(16)
    worst = 0.0
    for x in [10 ** rng.uniform(-12, math.log10(0.9)) for _ in range(2000)] + [1e-300, 0.05, 0.9]:
        with mpmath.workdps(40 - 3 * int(math.log10(x))):  # digits for the cancellation of x^3 / 3
            xm = mpmath.mpf(x)
            exact = 4 * mpmath.pi * (mpmath.sin(xm) - xm * mpmath.cos(xm)) / xm**3
            worst = max(worst, float(abs(_w3_series(1.0, x, math.pi, _FLOAT_BACKEND.w3_divisors) - exact) / exact))
    assert worst <= 4.1e-16


def test_the_phase_bound_and_the_overflow_edge():
    """The stated constants: PHASE_BOUND = 1e-9 / (64 eps), and the e^|y| edge at ln(DBL_MAX)."""
    assert PHASE_BOUND == pytest.approx(7.0369e4, rel=1e-4)
    y = math.nextafter(_LN_MAX, 0)
    assert np.isfinite(closed_flow(GeneratorId.ONE, y, 1.0)).all()
    assert np.isfinite(closed_flow(GeneratorId.B1, -y, 1.0)).all()
    with pytest.raises(ValueError, match="float64 overflow in"):
        closed_flow(GeneratorId.ONE, _LN_MAX, 1.0)
    with pytest.raises(ValueError, match=r"float64 phase error in exp\(70368\.74417766402 \* D1\) at q = 1\.0: \|param q\^1\| = 70368\.7 is above the phase bound 70368\.7"):
        closed_flow(GeneratorId.D1, math.nextafter(PHASE_BOUND, math.inf), 1.0)
    assert np.isfinite(closed_flow(GeneratorId.D1, PHASE_BOUND, 1.0)).all()
