"""Hard-sphere weight functions, Mayer-bond identities, the shift kernel and tensor.

The four scalar weight functions of a sphere of radius R are, with
s = sin(qR) and c = cos(qR):

    w0 = c + qR s / 2
    w1 = (qR c + s) / (2 q)
    w2 = 4 pi R s / q
    w3 = 4 pi (s - qR c) / q^3

w3 is the Fourier transform of a unit step of range R; the bilinear form of
two weight vectors reproduces the step of the summed radii (the Mayer bond
up to sign), and exp(R * t1) is the shifting kernel whose first column is
the weight vector itself.  The shift tensor t0..t3 is checked cell by cell
against its published tables (`jeffrey_identities`).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import reference_tables
from .algebra import TableVerification, verify_reference_tables
from .catalog import GeneratorId
from .flows import _FLOAT_BACKEND, _Q_RANGE, _W3_SWITCH, PHASE_BOUND, STEP_EXPONENTS, WEIGHT_EXPONENTS, _mp_backend, _w3_series, _weights
from .flows import closed_flow, float64_domain, positive_finite_error, positive_float, step_weight_array
from .matrices import bilinear


def kr_weights(R: float, q: float, prec: Optional[int] = None) -> np.ndarray:
    """Weight vector (w0, w1, w2, w3) of a sphere of radius R at wave number q.

    Component w_nu carries units (length)^nu.  Below qR = 0.05, w3 evaluates
    by its series.  R and q must be positive and finite (an int beyond
    float64 is not), or a ValueError names the problem.  The array is
    float64, inside `flows.float64_domain` (or a ValueError), or of dtype
    object holding mpf when prec (decimal digits, an int of at least 1, or a
    ValueError) is given, with an mpf R
    or q kept exact, as `kernel_matrix` lifts them.  Either way it is
    column 0 of `kernel_matrix(R, q, prec)` with the same bits:
    `flows._weights` gives both, and T1's certificate (`certificate.certify`)
    shows that this column is column 0 of exp(R t1).
    """
    checked = positive_float("radius", R), positive_float("wave number q", q)
    if prec is None:
        R, q = checked
        float64_domain(WEIGHT_EXPONENTS, R, q)
        return np.array(_weights(R, q, _FLOAT_BACKEND)[0], dtype=float)
    import mpmath

    bk = _mp_backend(prec)  # first: it refuses a prec that is not an int >= 1
    with mpmath.workdps(prec):
        return np.array(_weights(mpmath.mpf(R), mpmath.mpf(q), bk)[0], dtype=object)


_FOUR_PI = 4 * math.pi  # the first product of flows._step_direct, so the same bits
_STEP_Q_MIN, _STEP_Q_MAX = _Q_RANGE[STEP_EXPONENTS.power]


def step_hat(Rtot: float, q: float) -> float:
    """Fourier transform 4 pi [sin(q R) - q R cos(q R)] / q^3 of a unit step.

    w3 of kr_weights(Rtot, q) alone, with the same bits: `flows._w3_series`
    below x = qR = 0.05, else `flows._step_direct` inline, as are the first
    two tests of `flows.float64_domain`.  Rtot and q must be positive and
    finite, and inside that domain, or a ValueError names the problem.
    """
    if not 0 < Rtot < math.inf:
        raise positive_finite_error("step range", Rtot)
    if not 0 < q < math.inf:
        raise positive_finite_error("wave number q", q)
    try:
        R, k = float(Rtot), float(q)
    except OverflowError:  # an int beyond float64: positive_float raises, naming it
        R, k = positive_float("step range", Rtot), positive_float("wave number q", q)
    x = k * R
    if not (x <= PHASE_BOUND and _STEP_Q_MIN <= k <= _STEP_Q_MAX):
        float64_domain(STEP_EXPONENTS, R, k)  # raises, naming the test that fails
    if x < _W3_SWITCH:  # x >= 0 here, so abs() is not needed
        return _w3_series(R, x, math.pi, _FLOAT_BACKEND.w3_divisors)
    return _FOUR_PI * (math.sin(x) - x * math.cos(x)) / k**3


def mayer_bond(Ra: float, Rb: float, q: float) -> float:
    """Bilinear form of two weight vectors; equals step_hat(Ra + Rb, q)."""
    return float(bilinear(kr_weights(Ra, q), kr_weights(Rb, q)))  # finite inside float64_domain


def kernel_matrix(R: float, q: float, prec: Optional[int] = None) -> np.ndarray:
    """Shifting kernel exp(R * t1) as a (4, 4) ndarray; column 0 is kr_weights(R, q).

    `closed_flow(T1, R, q, prec)`: float64, or dtype object holding mpf when
    prec is given, with an mpf R kept exact.  Satisfies K_R @ K_R' = K_{R+R'} = K_R' @ K_R.
    """
    if not 0 < R < math.inf:
        raise positive_finite_error("radius", R)
    return closed_flow(GeneratorId.T1, R, q, prec=prec)


def jeffrey_identities(product=None) -> TableVerification:
    """The shift tensor, held as the tables check holds a published cell: 36 cells, zero tolerance.

    The shift half-commutators and products in the shift basis (32 cells),
    and each t_nu in the One + 15 basis as the cell [T_nu, One] of a product
    table (4 cells).  Each cell is multiplied out, so a passing check
    decomposes nothing; the 32 shift-table cells are multiplied out once per
    process, shared with the tables check.  product is
    `algebra.verify_reference_tables`' ordered catalog product: in a verify
    pass, the cache the tables check filled (`checks.Facts`), so the shift
    products are formed once in the pass.
    """
    shift_tables = [s for s in reference_tables.TABLES if s.name.startswith("shift")]
    return verify_reference_tables([*shift_tables, reference_tables.SHIFT_DECOMPOSITIONS], product)


# Grid nodes per block of the radial transform: one block at the default n,
# and memory bounded for any n.
_BLOCK = 1 << 16
# Block windows kept by _window, each at most 8 B * _BLOCK = 512 KiB: a
# process usually transforms on one grid, and the default grid is one block.
_WINDOWS = 4
# The largest (R + max r) * h of a step profile.  Against grids 8x finer, over
# 20 to 20000 panels and r / R from 0 to 100, the profile is within 3.7e-10
# while this is at most 1.  Coarse grids go wrong first (1.2e-3 at 2 on 20
# panels, O(1) at 3 on 100), and past pi Simpson's rule aliases R + r on any grid.
_MAX_PHASE_STEP = 1.0
# The fewest panels of a radial transform, after rounding up to even.  At
# (R + r) * h = 1 the Gaussian window itself is under-resolved on fewer:
# against grids 8x finer, over r / R from 0 to 10, the error is 4.6e-3 on 8
# panels, 4.9e-5 on 12, 5.5e-8 on 16 and 3.7e-10 on 20.
_MIN_PANELS = 20


def inverse_ft_radial(
    hat: Callable[[float], float],
    r: Union[float, Sequence[float]],
    qmax: float = 200.0,
    n: int = 20000,
) -> Union[float, list]:
    """Radial inverse Fourier transform (2 pi^2)^-1 int_0^qmax q^2 hat(q) sinc(qr) dq.

    Composite Simpson with n panels, under a Gaussian spectral window
    exp(-18 (q/qmax)^2): the bare truncated integral of a slowly decaying
    hat oscillates with O(1/qmax)..O(1) truncation error, while the window
    turns truncation into a real-space smoothing of width ~6/qmax.  Fewer
    than _MIN_PANELS panels, after n is rounded up to even, raise
    ValueError: the window itself is under-resolved there.

    r is one radius (the result is a float) or a sequence of radii (the
    result is a list).  hat is called with one Python float at a time, once
    per grid point i * h, whatever the number of radii; a NaN or infinite
    value raises ValueError naming its q.  Each radius forms the integrand
    in the order of the scalar rule, q^2 hat(q) sinc(qr), times the window,
    times the Simpson weight, and adds the terms strictly left to right, so
    a radius gives the same bits alone or in a list, and the same bits as
    that rule written as a plain loop.  The grid is processed in blocks of
    _BLOCK nodes, carrying each running sum across blocks.  The window of a
    block is computed once and kept read-only, keyed on (qmax, n, block),
    for the _WINDOWS = 4 most recently used blocks (160 KiB at the default
    grid, at most 2 MiB), so a later call on the same grid evaluates no exp.
    `step_profile` is this transform of the unit step, with the spectrum
    taken as one array.
    """
    def spectrum(q: np.ndarray) -> np.ndarray:
        # (i * h).tolist() gives the floats k * h of the scalar rule
        return np.fromiter(map(hat, q.tolist()), dtype=float, count=q.size)

    return _radial(spectrum, r, qmax, n)


def step_profile(
    R: float,
    r: Union[float, Sequence[float]],
    qmax: float = 200.0,
    n: int = 20000,
) -> Union[float, list]:
    """Real-space profile of the unit step of range R, transformed back from its spectrum.

    This is inverse_ft_radial of step_hat(R, q), with the volume 4 pi R^3 / 3
    at q = 0, and it returns the same bits; the spectrum is evaluated as one
    array (`flows.step_weight_array`).  ValueError names a radius that is
    not positive and finite, then `_radial`'s refusals, a grid too coarse
    for the top frequency R + max r ((R + max r) * h above
    _MAX_PHASE_STEP, h = qmax / n with n rounded up to even), and an
    (R, qmax) outside `flows.float64_domain`.
    """
    R = positive_float("step range", R)

    def spectrum(q: np.ndarray) -> np.ndarray:  # called once _radial has checked qmax, n and r
        phase_step = (R + float(np.max(r, initial=0.0))) * qmax / (n + n % 2)
        if phase_step > _MAX_PHASE_STEP:
            raise ValueError(
                f"the step profile at R = {R!r} would alias: (R + max r) * qmax / panels = {phase_step:.6g} "
                f"is above {_MAX_PHASE_STEP:g}; lower --qmax or raise --panels"
            )
        # then every node q <= qmax is in the domain: a node on w3's direct branch has q >= 0.05 / R
        float64_domain(STEP_EXPONENTS, R, qmax)
        return step_weight_array(R, q)

    return _radial(spectrum, r, qmax, n)


def _radial(spectrum, r, qmax: float, n: int):
    """The Simpson/window/block core of inverse_ft_radial.

    spectrum maps an array of nodes to a new array of its values; the first
    NaN or infinite value raises ValueError.
    """
    scalar = np.ndim(r) == 0
    radii = [r] if scalar else list(r)
    if not 0 < qmax < math.inf:
        raise ValueError(f"need finite qmax > 0, got {qmax!r}")
    for x in radii:
        if not 0 <= x < math.inf:
            raise ValueError("r must be nonnegative" if x < 0 else f"r must be finite, got {x!r}")
    if n + n % 2 < _MIN_PANELS:
        raise ValueError(f"the radial transform needs at least {_MIN_PANELS} panels to resolve its window, got {n}")
    n += n % 2
    try:
        h = qmax / n
    except OverflowError:
        raise ValueError(f"need finite qmax > 0, got {qmax!r}") from None
    for x in radii:
        try:
            finite = math.isfinite(n * h * x)  # the largest q * r
        except OverflowError:  # an int r beyond float64
            finite = False
        if not finite:
            raise ValueError(f"q * r overflows float64 at r = {x!r}, qmax = {qmax!r}")
    if not radii:
        return []
    totals = [0.0] * len(radii)
    for start in range(0, n + 1, _BLOCK):
        i = np.arange(start, min(start + _BLOCK, n + 1))
        q = i * h
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sample is rejected below
            q2_hat = spectrum(q)
        bad = np.flatnonzero(~np.isfinite(q2_hat))
        if bad.size:
            value = float(q2_hat[bad[0]])
            raise ValueError(f"hat returned {'NaN' if math.isnan(value) else value} at q = {float(q[bad[0]])}")
        q2_hat *= q * q
        gauss = _window(qmax, n, start, start + q.size)
        weights = np.where(i % 2, 4.0, 2.0)  # Simpson weights 1, 4, 2, 4, ..., 2, 4, 1
        weights[(i == 0) | (i == n)] = 1.0
        for j, radius in enumerate(radii):
            if radius == 0:  # sinc(0) is the series' 1.0 at every node, and 1.0 * q2_hat is q2_hat
                terms = q2_hat * gauss
            else:
                x = q * radius
                with np.errstate(invalid="ignore"):  # 0/0 at q = 0 is replaced by the series
                    terms = np.sin(x)
                    terms /= x
                small = np.abs(x) < 1e-8
                xs = x[small]
                terms[small] = 1.0 - xs * xs / 6.0
                terms *= q2_hat
                terms *= gauss
            terms *= weights
            # carry the running sum in; cumsum adds left to right like the
            # scalar loop (sum() is pairwise)
            terms[0] += totals[j]
            totals[j] = float(np.cumsum(terms, out=terms)[-1])
    results = [total * h / 3.0 / (2.0 * math.pi**2) for total in totals]
    return results[0] if scalar else results


@functools.lru_cache(maxsize=_WINDOWS, typed=True)  # the key's types set the bits of h = qmax / n
def _window(qmax: float, n: int, start: int, stop: int) -> np.ndarray:
    """The Gaussian window exp(-18 (q/qmax)^2) at nodes start..stop-1 of n panels, read-only.

    math.exp of -18 pow(q / qmax, 2) per node, as the scalar rule rounds it:
    numpy's ** 2 and np.exp differ at some nodes.  The nodes stream from the
    array, with no list of Python floats.
    """
    q = np.arange(start, stop) * (qmax / n)
    gauss = np.fromiter(map(math.exp, -18.0 * np.float_power(q / qmax, 2)), dtype=float, count=q.size)
    gauss.flags.writeable = False
    return gauss
