"""Numeric one-parameter finite transforms, the published forms, and the series-exponential oracle.

Closed forms for the twelve boost/rotation generators come from the exact
square identity X@X = +/- q^(2a) * 1 (cosh/cos plus sinh/sin structure); the
diagonal and shift-generator transforms are transcribed closed forms.
`fmspace.certificate` proves each of them exp(tau X) exactly, by running its
rows through an exact backend, and `reference_discrepancies` diffs the
published transform matrices (`_PUBLISHED`), read as exact term maps,
against them: `verify` states the transform claims as exact counts.  An
independently coded scaling-and-squaring Taylor exponential
(`fmspace.oracle`, which this module re-exports) holds the float64 values
of the closed forms on GRID_POINTS, in the float evaluator's record that
Tier-1 reads (`fmspace.checks.float_evaluator`).

Each generator's closed form, its exponents and its rows, is decided once,
on the first flow that needs it (`_closed_form`); the boost/rotation class
of a square is computed exactly then.

All flows evaluate in float64 by default; passing `prec` (decimal digits)
evaluates through mpmath instead, for `eval --prec` and for references
beyond float64, such as large boost arguments where double precision
cannot even represent the difference between cosh and sinh.
`float64_domain` refuses, before any evaluation, a float64 flow that
float64 cannot hold to the flows bound; the residual folds carry a NaN
through instead of dropping it.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .catalog import ALL_IDS, GeneratorId, SquareClass, classify_square, get_generator
from .matrices import Mat4, entries_at
from .oracle import expm_oracle
from .ring import is_mpf

STANDARD_Q_GRID = (0.1, 0.5, 1.0, 2.0, 5.0)
STANDARD_PARAM_GRID = (-2.0, -0.5, 0.1, 1.5)
GRID_POINTS = tuple((q, p) for q in STANDARD_Q_GRID for p in STANDARD_PARAM_GRID)  # (q, param): the float grid's order
ORACLE_TOL = 1e-13  # the series oracle's truncation bound wherever it judges a closed form

_W3_SWITCH = 0.05  # below this |x|, w3 takes its series: the direct form would lose about eps / x^2


def _w3_divisors(terms: int) -> tuple:
    return tuple(2 * (j + 1) * (2 * j + 5) for j in reversed(range(terms - 1)))  # `_w3_series`'s, innermost first


@dataclass(frozen=True)
class _Backend:
    exp: Callable
    cos: Callable
    sin: Callable
    cosh: Callable
    sinh: Callable
    pi: object
    # `_w3_series`'s terms, enough for the backend's precision at |x| < _W3_SWITCH; none for the
    # exact backend (`fmspace.certificate`), where w3's direct form is exact
    w3_divisors: tuple


# 13 terms: below |x| = 0.9 the series is within 4.1e-16 of (sin x - x cos x) / x^3
_FLOAT_BACKEND = _Backend(math.exp, math.cos, math.sin, math.cosh, math.sinh, math.pi, _w3_divisors(13))


@functools.lru_cache(maxsize=32, typed=True)  # typed: a float prec equal to a cached int does not skip the check
def _mp_backend(prec: int) -> _Backend:
    """mpmath's backend with pi at prec decimal digits; built once per precision.

    A prec that is not an int of at least 1 raises a ValueError naming it,
    on every call, since a call that raises is not cached.
    """
    if type(prec) is not int or prec < 1:
        raise ValueError(f"prec must be an int of at least 1 decimal digit, got {prec!r}")
    import mpmath

    with mpmath.workdps(prec):
        pi = +mpmath.mp.pi
    # below the switch each term of the w3 series is at most x^2 / 10 < 10^-3.6 of the one before it
    divisors = _w3_divisors(max(13, prec // 3 + 2))
    return _Backend(mpmath.exp, mpmath.cos, mpmath.sin, mpmath.cosh, mpmath.sinh, pi, divisors)


def positive_finite_error(name: str, value) -> ValueError:
    """The error for a value that is not in (0, inf): NaN reads as not positive."""
    if not value > 0:
        return ValueError(f"{name} must be positive, got {value!r}")
    return ValueError(f"{name} must be finite, got {value!r}")


def positive_float(name: str, value) -> float:
    """float(value) of a value in (0, inf), or the ValueError naming it; an int beyond float64 is not finite."""
    if not 0 < value < math.inf:
        raise positive_finite_error(name, value)
    try:
        return float(value)
    except OverflowError:  # an int or Fraction, which `< inf` compares exactly and lets through
        raise positive_finite_error(name, value) from None


@dataclass(frozen=True, init=False)
class FlowSpec:
    """One-parameter flow: generator tag, flow parameter, wave number q > 0.

    The one check of a flow's inputs: the tag must name a generator, q must
    be positive and finite, and the parameter finite (an int beyond float64
    is not), both kept unconverted.  A GeneratorId is kept as it is; any
    other tag is looked up by value.
    """

    gen: GeneratorId
    param: float
    q: float

    def __init__(self, gen, param: float, q: float):
        if gen.__class__ is not GeneratorId:
            gen = GeneratorId(gen)
        if not 0 < q < math.inf:
            raise positive_finite_error("wave number q", q)
        try:
            finite = math.isfinite(param)
        except OverflowError:  # an int beyond float64
            finite = False
        if not finite:
            raise ValueError(f"flow parameter must be finite, got {param!r}")
        object.__setattr__(self, "gen", gen)
        object.__setattr__(self, "param", param)
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class FlowResult:
    matrix: np.ndarray
    method: str  # "closed_form" | "series"


PHASE_BOUND = 1e-9 / (64 * sys.float_info.epsilon)  # 7.04e4; see float64_domain
_LN_MAX = math.log(sys.float_info.max)  # 709.78: e^y overflows above it
# (q_min, q_max) of each largest power p: q^p and q^-p are normal float64 numbers
_Q_RANGE = ((0.0, math.inf),) + tuple((2.0 ** (-1022 / p), 2.0 ** (1022 / p)) for p in range(1, 7))


class Exponents(NamedTuple):
    """One closed form as `float64_domain` reads it; subject names it in a message, phase names y."""

    subject: str  # with {tau!r} and {q!r} fields
    phase: str
    order: int
    power: int
    growth: Optional[int] = None
    scale: float = 1.0
    headroom: float = 0.0


# The weight column is column 0 of the T1 flow, and takes its domain.
WEIGHT_EXPONENTS = Exponents("the weight vector at radius {tau!r}, q = {q!r}", "q R", 1, 4)
STEP_EXPONENTS = Exponents("the step transform at radius {tau!r}, q = {q!r}", "q R", 1, 4)


def float64_domain(form: Exponents, tau: float, q: float) -> None:
    """Refuse, with a ValueError naming the argument, a float64 form that cannot hold its answer.

    The one decision of the float64 domain, from the exponents alone, before
    anything is evaluated, for a flow exp(tau X) at q (`closed_flow`) and the
    weight column at radius tau = R (`fmt.kr_weights`, so `mayer_bond`,
    `kernel_matrix`, `step_profile` and `fmt.step_hat`, which writes the
    first two tests inline).  float64 evaluates only where all three hold:

    - Every power q^k that the formula forms is normal: q^power and
      q^-power lie in [2^-1022, 2^1022].  power is 0 for the five diagonal
      flows, 2 alpha for the twelve other boost and rotation flows of order
      alpha, 4 for T1, T2 and the weight column, 6 for T3.  R^3 in w3's
      series then stays finite, and where it is subnormal, w3 is off by
      less than 2^-1070.
    - The phase |y| = |scale tau q^order| (x = qR for the weights) is at
      most PHASE_BOUND = 1e-9 / (64 eps) = 7.04e4.  y is rounded before sin,
      cos, sinh or cosh reads it, so an entry q^(nu - mu) f(y) is off by
      about eps |y f'(y)|: divided by q^(nu - mu) (the graded frame), the
      normwise error is c eps |y|, with c at most 1.4 over 53000 seeded
      draws, |y| in [1, 6.3e4]: 2.1e-11 at the bound, 1/47 of the flows
      bound (tests/test_domain.py holds it).
    - A form that grows as e^|y| stays finite: |y| + growth |ln q| +
      headroom is under ln(DBL_MAX) = 709.78.  growth is 0 for the five
      diagonal flows and alpha for the boosts; T2 forms e^|y| q^4 beside
      (1 + |y|) 8 pi < 2^15.
    """
    lo, hi = _Q_RANGE[form.power]
    if lo <= q <= hi:
        y = abs(form.scale * tau * q**form.order)  # q^order is normal here; the product may be inf
        if not y <= PHASE_BOUND:
            subject = form.subject.format(tau=tau, q=q)
            raise ValueError(f"float64 phase error in {subject}: |{form.phase}| = {y:.6g} is above the phase bound {PHASE_BOUND:.6g}")
        if form.growth is None or y + form.growth * abs(math.log(q)) + form.headroom < _LN_MAX:
            return
    raise ValueError(f"float64 {'underflow' if q < lo else 'overflow'} in {form.subject.format(tau=tau, q=q)}")


@functools.cache
def _closed_form(gid: GeneratorId) -> tuple:
    """(Exponents, rows) of gid's closed form, decided once per generator.

    `float64_domain` reads the exponents; rows(tau, q, bk) gives the 16
    entries of exp(tau X(q)), row by row in one flat list, in bk's arithmetic:
    `_t1_rows`, `_t2_rows` or `_t3_rows` for a shift generator,
    `_diagonal_rows` for a matrix diag(+-1), else `_square_rows`.  A matrix
    whose square is not +-q^(2 alpha) 1 has none: ValueError.
    """
    subject = f"exp({{tau!r}} * {gid.value}) at q = {{q!r}}"
    if gid is GeneratorId.T1:
        return Exponents(subject, "param q", 1, 4), _t1_rows
    if gid is GeneratorId.T2:
        return Exponents(subject, "param q^2 / (8 pi)", 2, 4, growth=4, scale=1 / (8 * math.pi), headroom=math.log(2**15)), _t2_rows
    if gid is GeneratorId.T3:
        return Exponents(subject, "param q^3 / (8 pi)", 3, 6, scale=1 / (8 * math.pi)), _t3_rows
    mat = get_generator(gid)
    signs = tuple(1 if mat[i, i] == 1 else -1 for i in range(4))
    if mat == Mat4.from_entries((i, i, s) for i, s in enumerate(signs)):  # One, T0, B0, B0', P0: diag(+-1)
        return Exponents(subject, "param", 0, 0, growth=0), functools.partial(_diagonal_rows, signs)
    square = classify_square(mat)  # a boost or a rotation for each of the twelve (tests/test_catalog.py)
    if square.kind == "other":  # a catalog matrix off its published form
        raise ValueError(f"{gid.value} has no closed form: its square is not +-q^(2 alpha) times 1")
    form = Exponents(subject, f"param q^{square.order}", square.order, 2 * square.order, square.order if square.kind == "boost" else None)
    return form, functools.partial(_square_rows, mat, square)


def closed_flow(gen, param: float, q: float, prec: Optional[int] = None) -> np.ndarray:
    """Closed-form finite transform exp(param * X_gen) evaluated at q, as a (4, 4) ndarray.

    The array is float64, or of dtype object holding mpf when prec (decimal
    digits, an int of at least 1) is given, with the rows of `_closed_form`;
    the inputs are checked by `FlowSpec` and the prec by `_mp_backend`.  A
    float64 flow outside `float64_domain` raises a ValueError.
    """
    spec = FlowSpec(gen, param, q)
    form, rows = _closed_form(spec.gen)
    if prec is None:
        float64_domain(form, spec.param, spec.q)
        entries = rows(float(spec.param), float(spec.q), _FLOAT_BACKEND)
    else:
        import mpmath

        bk = _mp_backend(prec)  # first: it refuses a prec that is not an int >= 1
        with mpmath.workdps(prec):
            entries = rows(mpmath.mpf(spec.param), mpmath.mpf(spec.q), bk)
    return np.array(entries).reshape(4, 4)  # 16 Python floats make float64; 16 mpf, dtype object


def _diagonal_rows(signs: tuple, tau, q, bk: _Backend) -> list:
    """exp(tau X) for X = diag(signs), each sign +-1: e^(sign tau) on the diagonal, 0 * e^(first sign tau) off it.

    Each diagonal entry is its own exp, so a decaying one keeps its
    relative precision inside `float64_domain`; C 1 + tau S X would form it as
    cosh tau - sinh tau, which cancels to below one ulp once |tau|
    passes about 18.
    """
    diag = [bk.exp(tau * s) for s in signs]
    entries = [0 * diag[0]] * 16
    for i, e in zip((0, 5, 10, 15), diag):
        entries[i] = e
    return entries


def _square_rows(mat, square: SquareClass, tau, q, bk: _Backend) -> list:
    """exp(tau X) = C 1 + tau S X(q) for the twelve off-diagonal generators whose square is exact.

    C = cosh/cos and S = sinh(y)/y or sin(y)/y of y = tau q^order.  Only
    X(q)'s nonzero entries are evaluated (by `matrices.entries_at`, in
    float64 or mpf as q is) and scaled; every other entry is the one value
    `zero = factor * 0`, which is -0.0 in float64 when the factor is
    negative, exactly as the dense product gave it.  The diagonal then adds
    C to each of its four entries, zero or not.
    """
    arg = tau * q**square.order
    diag, odd = (bk.cosh(arg), bk.sinh(arg)) if square.kind == "boost" else (bk.cos(arg), bk.sin(arg))
    # sinh(y)/y and sin(y)/y do not cancel, down to the subnormals: only y = 0 needs its limit
    factor = tau * (odd / arg if arg else 1 + arg)
    entries = [factor * 0] * 16
    for r, c, x in entries_at(mat, q):
        entries[4 * r + c] = factor * x
    for i in (0, 5, 10, 15):
        entries[i] = entries[i] + diag
    return entries


def _weights(R, q, bk: _Backend) -> tuple:
    """(weight column, sin qR, cos qR) of R and q already lifted into the backend.

    The column is (w0, w1, w2, w3) of a sphere of radius R, column 0 of the
    T1 flow at parameter R, with w3 = 4 pi (s - x c) / q^3 for x = qR,
    s = sin x and c = cos x: the Fourier transform of a unit step of range
    R.  w3 cancels as x -> 0, so below |x| = _W3_SWITCH it takes
    `_w3_series`, in a backend that has one; w0, w1 and w2 do not cancel
    and have no series.
    """
    pi = bk.pi
    x = q * R
    s, c = bk.sin(x), bk.cos(x)
    w3 = _w3_series(R, x, pi, bk.w3_divisors) if bk.w3_divisors and abs(x) < _W3_SWITCH else _step_direct(x, s, c, q**3, pi)
    return [c + x * s / 2, (x * c + s) / (2 * q), 4 * pi * R * s / q, w3], s, c


def step_weight_array(R: float, q: np.ndarray) -> np.ndarray:
    """w3 of `_weights`, with the bits of its scalar call, at each of an array of q >= 0 in `float64_domain`.

    At q = 0 the series gives the volume 4 pi R^3 / 3.
    """
    x = q * R
    small = x < _W3_SWITCH
    w3 = np.empty_like(x)
    w3[small] = _w3_series(R, x[small], math.pi, _FLOAT_BACKEND.w3_divisors)
    x, q = x[~small], q[~small]
    # libm's pow, as the scalar q**3 rounds it (numpy's q**3 does not)
    w3[~small] = _step_direct(x, np.sin(x), np.cos(x), np.float_power(q, 3), math.pi)
    return w3


def _w3_series(R, x, pi, divisors: tuple):
    """w3 of `_weights` below |x| = _W3_SWITCH: 4 pi R^3 g / 3 with g = 3 (sin x - x cos x) / x^3.

    g = sum_j (-1)^j 6 (j + 1) / (2j + 3)! x^(2j) in Horner form: term j + 1
    is term j times -x^2 / d_j, d_j = 2 (j + 1) (2j + 5), and the integer
    `divisors` keep the coefficients exact for a float, mpf or array x.
    """
    t = x * x
    g = 1
    for d in divisors:
        g = 1 - t * g / d
    return 4 * pi * R**3 * g / 3


def _step_direct(x, s, c, cube, pi):
    """w3 of `_weights` from x = qR, sin x, cos x and q^3; `fmt.step_hat` inlines it."""
    return 4 * pi * (s - x * c) / cube


def _t1_rows(chi, q, bk: _Backend) -> list:
    """exp(chi t1), row by row: the weight column, then 12 entries of which 4 repeat, each computed once."""
    pi = bk.pi
    (w0, w1, w2, w3), s, c = _weights(chi, q, bk)
    q2 = q**2
    q3 = q**3
    pi16 = 16 * pi
    s3 = 3 * s
    cq2chi = c * q2 * chi
    cqchi = c * q * chi
    qschi2 = q * s * chi / 2
    a = (cq2chi - q * s) / 2  # (0, 1) and (2, 3)
    b = -q3 * s * chi / pi16  # (0, 2) and (1, 3)
    d = c - qschi2  # (1, 1) and (2, 2)
    return [
        w0, a, b, (c * q**4 * chi - s3 * q3) / pi16,
        w1, d, -(s3 * q + cq2chi) / pi16, b,
        w2, 4 * pi * (s + cqchi) / q, d, a,
        w3, 4 * pi * s * chi / q, (s + cqchi) / (2 * q), c + qschi2,
    ]


def _t2_rows(chi, q, bk: _Backend) -> list:
    """exp(chi t2), row by row."""
    pi = bk.pi
    g = bk.exp(-(q**2) * chi / (8 * pi))
    a = g * q**2 * chi / (8 * pi)
    b = -g * q**4 * chi / (64 * pi**2)
    zero = 0 * g
    return [
        g + a, zero, b, zero,
        zero, g - a, zero, b,
        g * chi, zero, g - a, zero,
        zero, g * chi, zero, g + a,
    ]


def _t3_rows(chi, q, bk: _Backend) -> list:
    """exp(chi t3), row by row."""
    pi = bk.pi
    theta = q**3 * chi / (8 * pi)
    C = bk.cos(theta)
    S = bk.sin(theta)
    return [
        # row 0
        C - q**3 * S * chi / (16 * pi),
        -(8 * pi * q * S + C * q**4 * chi) / (16 * pi),
        q**5 * S * chi / (128 * pi**2),
        -(24 * pi * q**3 * S + C * q**6 * chi) / (128 * pi**2),
        # row 1
        S / (2 * q) - C * q**2 * chi / (16 * pi),
        C + q**3 * S * chi / (16 * pi),
        (-24 * pi * q * S + C * q**4 * chi) / (128 * pi**2),
        q**5 * S * chi / (128 * pi**2),
        # row 2
        -q * S * chi / 2,
        4 * pi * S / q - C * q**2 * chi / 2,
        C + q**3 * S * chi / (16 * pi),
        -(8 * pi * q * S + C * q**4 * chi) / (16 * pi),
        # row 3
        4 * pi * S / q**3 + C * chi / 2,
        -q * S * chi / 2,
        S / (2 * q) - C * q**2 * chi / (16 * pi),
        C - q**3 * S * chi / (16 * pi),
    ]


# ---------------------------------------------------------------------------
# Published transform matrices, transcribed entry by entry.
# ---------------------------------------------------------------------------

# ("diag", signs): exp(tau * sign_i) on the diagonal.
# (kind, order, smap): cosh/cos on the diagonal and smap[(r, c)] = (coef, qpow)
# giving coef * q^qpow * sinh/sin(tau * q^order) off the diagonal.
_PUBLISHED: dict[GeneratorId, tuple] = {
    GeneratorId.B0: ("diag", (1, 1, -1, -1)),
    GeneratorId.B0P: ("diag", (1, -1, 1, -1)),
    GeneratorId.P0: ("diag", (1, -1, -1, 1)),
    # The published (3,1) entry carries q^2 where the generator forces q^-2;
    # kept as published so the exact diff flags it.
    GeneratorId.B2: ("boost", 2, {(0, 2): (-1, 2), (1, 3): (1, 2), (2, 0): (-1, -2), (3, 1): (1, 2)}),
    GeneratorId.D2: ("rotation", 2, {(0, 2): (-1, 2), (1, 3): (1, 2), (2, 0): (1, -2), (3, 1): (-1, -2)}),
    GeneratorId.B1: ("boost", 1, {(0, 1): (-1, 1), (1, 0): (-1, -1), (2, 3): (1, 1), (3, 2): (1, -1)}),
    GeneratorId.D1: ("rotation", 1, {(0, 1): (-1, 1), (1, 0): (1, -1), (2, 3): (1, 1), (3, 2): (-1, -1)}),
    GeneratorId.F1: ("rotation", 1, {(0, 1): (-1, 1), (1, 0): (1, -1), (2, 3): (-1, 1), (3, 2): (1, -1)}),
    GeneratorId.F2: ("rotation", 2, {(0, 2): (-1, 2), (1, 3): (-1, 2), (2, 0): (1, -2), (3, 1): (1, -2)}),
    GeneratorId.F3: ("boost", 3, {(0, 3): (-1, 3), (1, 2): (1, 1), (2, 1): (1, -1), (3, 0): (-1, -3)}),
    GeneratorId.H1: ("boost", 1, {(0, 1): (-1, 1), (1, 0): (-1, -1), (2, 3): (-1, 1), (3, 2): (-1, -1)}),
    GeneratorId.H2: ("boost", 2, {(0, 2): (-1, 2), (1, 3): (-1, 2), (2, 0): (-1, -2), (3, 1): (-1, -2)}),
    GeneratorId.F3P: ("boost", 3, {(0, 3): (-1, 3), (1, 2): (-1, 1), (2, 1): (-1, -1), (3, 0): (-1, -3)}),
    GeneratorId.P3: ("rotation", 3, {(0, 3): (-1, 3), (1, 2): (-1, 1), (2, 1): (1, -1), (3, 0): (1, -3)}),
    GeneratorId.P3P: ("rotation", 3, {(0, 3): (-1, 3), (1, 2): (1, 1), (2, 1): (-1, -1), (3, 0): (1, -3)}),
}


# ---------------------------------------------------------------------------
# Series-exponential oracle and residual diagnostics
# ---------------------------------------------------------------------------


def evaluate_flow(spec: FlowSpec, method: str = "closed") -> FlowResult:
    if method == "closed":
        return FlowResult(closed_flow(spec.gen, spec.param, spec.q), "closed_form")
    if method == "series":
        matrix = expm_oracle(get_generator(spec.gen), spec.param, spec.q)
        return FlowResult(matrix, "series")
    raise ValueError(f"unknown flow method {method!r}")


def _fold_max(worst, value):
    """max(worst, value), except that a NaN is kept once seen; max() drops it."""
    return value if value > worst or value != value else worst


def max_abs(a) -> float:
    """Largest |entry| of an array, at the ambient mpmath precision for mpf; NaN if any entry is NaN."""
    return functools.reduce(_fold_max, map(abs, np.ravel(a).tolist()))


# The form M's rows: entry (mu, nu) is 1 on the counter diagonal mu + nu = 3, else 0.
_FORM_ROWS = ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0))


def _invariance_impl(rows: list):
    """Max-norm of a^t . M . a - M over all 16 entries, NaN if any entry is NaN.

    Entry (mu, nu) is the bilinear form of column mu with column nu,
    u0 v3 + u1 v2 + u2 v1 + u3 v0, written out and added left to right as
    `matrices.bilinear` adds it; a value is a float or an mpf.
    """
    columns = list(zip(*rows))
    entries = [
        abs(u0 * v3 + u1 * v2 + u2 * v1 + u3 * v0 - m)
        for (u0, u1, u2, u3), form_row in zip(columns, _FORM_ROWS)
        for (v0, v1, v2, v3), m in zip(columns, form_row)
    ]
    total = sum(entries)  # NaN exactly when an entry is: they are all >= 0
    return total if total != total else max(entries)


def invariance_residual(a: np.ndarray, prec: Optional[int] = None) -> float:
    """Max-norm of a^t . M . a - M for a (4, 4) array a; zero exactly when a preserves the form.

    NaN if any entry of a^t . M . a is NaN.  A float64 a sums all 64
    products of the form's 16 entries into a Python float; with prec, a
    holds mpf, the products with an exact-zero factor are skipped
    (`_sparse_invariance`), and the residual is an mpf.

    Without prec, an a that holds mpf raises a ValueError: pass the prec
    the flow was built with, since mpmath rounds every product at the
    *ambient* precision, so the residual arithmetic must run inside a
    matching context or the cancellation is destroyed.  With prec, an entry that is not an mpf (a
    float64 a) is lifted to mpf exactly, so the residual is that of the
    matrix as given: a float64 flow keeps its float64 rounding.  A prec
    that is not an int of at least 1 raises a ValueError, as in `closed_flow`.
    """
    a = np.asarray(a)
    rows = a.tolist()
    if prec is not None:
        _mp_backend(prec)  # refuses a prec that is not an int >= 1; a valid one is cached
        import mpmath

        with mpmath.workdps(prec + 20):
            lifted = [[x if isinstance(x, mpmath.mpf) else mpmath.mpf(x) for x in row] for row in rows]
            return _sparse_invariance(lifted)
    if a.dtype.kind == "O" and any(map(is_mpf, a.flat)):
        raise ValueError("a matrix of mpf entries needs prec, the decimal digits it was built with")
    return _invariance_impl(rows)


def _sparse_invariance(rows: list):
    """_invariance_impl at the ambient mpmath precision, skipping the products with an exact-zero factor.

    A finite product with a zero factor is zero and leaves the sum as it is,
    so each sum starts from its first product of two nonzero factors.  An
    entry of a^t . M . a with no such product is 0 and is left out of the
    max, except on the counter diagonal, where it is |0 - 1| = 1.  A matrix
    entry that is NaN or inf sends the matrix through the dense fold
    instead, where it reaches the result (inf * 0 is NaN).
    """
    import mpmath

    nonzero = [[(nu, y) for nu, y in enumerate(row) if y] for row in rows]
    if not all(mpmath.isfinite(y) for row in nonzero for _, y in row):
        return _invariance_impl(rows)
    entries = []
    for mu, column in enumerate(zip(*rows)):
        sums = [None] * 4
        for k, x in enumerate(column):
            if x:
                for nu, y in nonzero[3 - k]:
                    p = x * y
                    sums[nu] = p if sums[nu] is None else sums[nu] + p
        counter = sums[3 - mu]  # the entry on the counter diagonal, where M is 1
        sums[3 - mu] = (0 if counter is None else counter) - 1
        entries += [abs(s) for s in sums if s is not None]
    return max(entries)  # all finite, and never empty: the counter diagonal's four are in


def group_law_residual(gen, p1: float, p2: float, q: float, prec: Optional[int] = None) -> float:
    """Max-norm of flow(p1) @ flow(p2) - flow(p1 + p2) for one generator; NaN propagates.

    With prec, the product and the difference round at prec + 20 digits:
    numpy's object matmul adds each entry's four products left to right,
    from the first.
    """
    a = closed_flow(gen, p1, q, prec=prec)
    b = closed_flow(gen, p2, q, prec=prec)
    ab = closed_flow(gen, p1 + p2, q, prec=prec)
    if prec is None:
        return max_abs(a @ b - ab)
    import mpmath

    with mpmath.workdps(prec + 20):
        return max_abs(a @ b - ab)


class FlowDiscrepancy(NamedTuple):
    """One entry where a published transform differs from the generated closed form, and the exact difference."""

    gen: GeneratorId
    entry: tuple[int, int]
    difference: str  # published minus generated, reduced (`certificate.published_difference`)

    def __str__(self):
        return f"{self.gen.value} transform, entry {self.entry}: published minus generated = {self.difference}"


def reference_discrepancies(certificates: dict) -> list[FlowDiscrepancy]:
    """Diff the published transform matrices against the generated closed forms, exactly, entry by entry.

    certificates maps a generator to its `certificate.certify` record, as
    the flows check holds them, so each F is built once.  Each template of
    `_PUBLISHED` is read as term maps in the symbols of the certificate's F,
    and F is subtracted from it (`certificate.published_difference`), so an
    entry is a discrepancy exactly when the difference does not reduce to 0.  A generator without a certificate (a catalog matrix off its
    published form has no closed form) has no entry.
    """
    from .certificate import published_difference

    return [
        FlowDiscrepancy(gid, (r, c), difference)
        for gid in sorted(_PUBLISHED, key=ALL_IDS.index)
        if gid in certificates
        for r, c, difference in published_difference(certificates[gid])
    ]
