"""Numeric one-parameter finite transforms and the series-exponential oracle.

Closed forms for the twelve boost/rotation generators come from the exact
square identity X@X = +/- q^(2a) * 1 (cosh/cos plus sinh/sin structure); the
diagonal and shift-generator transforms are transcribed closed forms.  An
independently coded scaling-and-squaring Taylor exponential validates all of
them (`fmspace.oracle`, which this module re-exports), and
`reference_discrepancies` diffs the generated closed forms against the
published transform matrices entry by entry.

The boost/rotation class of each generator's square is computed exactly,
once per generator, on the first flow that needs it.

All flows evaluate in float64 by default; passing `prec` (decimal digits)
evaluates through mpmath instead, which matters for isometry residuals of
large boost arguments where double precision cannot even represent the
difference between cosh and sinh.  A float64 flow that overflows or
underflows raises a ValueError that says so; the residual folds carry a NaN
through instead of dropping it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .catalog import ALL_IDS, GeneratorId, SquareClass, classify_square, get_generator
from .matrices import Mat4
from .oracle import expm_oracle, expm_oracles
from .ring import float_sum

STANDARD_Q_GRID = (0.1, 0.5, 1.0, 2.0, 5.0)
STANDARD_PARAM_GRID = (-2.0, -0.5, 0.1, 1.5)
ORACLE_TOL = 1e-13  # the series oracle's truncation bound wherever it judges a closed form
DISCREPANCY_TOL = 1e-6  # the relative deviation of a published entry that counts as a discrepancy

NumericMat = Union[np.ndarray, list]

_SMALL_ARG = 1e-4  # below this, sin(x)/x-style factors switch to series


@dataclass(frozen=True)
class _Backend:
    exp: Callable
    cos: Callable
    sin: Callable
    cosh: Callable
    sinh: Callable
    pi: object
    lift: Callable
    entries: Callable  # (Mat4, lifted q) -> [(row, col, value)] of the matrix's nonzero entries at q

    def sinch(self, x):
        """sinh(x)/x, series near zero."""
        if abs(x) < _SMALL_ARG:
            x2 = x * x
            return 1 + x2 / 6 + x2 * x2 / 120 + x2 * x2 * x2 / 5040
        return self.sinh(x) / x

    def sinc(self, x):
        """sin(x)/x, series near zero."""
        if abs(x) < _SMALL_ARG:
            x2 = x * x
            return 1 - x2 / 6 + x2 * x2 / 120 - x2 * x2 * x2 / 5040
        return self.sin(x) / x


def _float_entries(mat: Mat4, q: float) -> list:
    """The nonzero entries of mat at a float q, each its compiled terms summed by `float_sum`."""
    return [(r, c, float_sum(terms, q)) for r, c, terms in mat.float_terms]


def _mp_entries(mat: Mat4, q) -> list:
    """The nonzero entries of mat at an mpf q, each by `RingElem.evaluate` at the ambient precision."""
    return [(r, c, x.evaluate(q)) for r, c, x in mat.entries()]


_FLOAT_BACKEND = _Backend(math.exp, math.cos, math.sin, math.cosh, math.sinh, math.pi, float, _float_entries)


@functools.lru_cache(maxsize=32)
def _mp_backend(prec: int) -> _Backend:
    """mpmath's backend with pi at prec decimal digits; built once per precision."""
    import mpmath

    with mpmath.workdps(prec):
        pi = +mpmath.mp.pi
    return _Backend(mpmath.exp, mpmath.cos, mpmath.sin, mpmath.cosh, mpmath.sinh, pi, mpmath.mpf, _mp_entries)


def positive_finite_error(name: str, value) -> ValueError:
    """The error for a value that is not in (0, inf): NaN reads as not positive."""
    if not value > 0:
        return ValueError(f"{name} must be positive, got {value!r}")
    return ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True, init=False)
class FlowSpec:
    """One-parameter flow: generator tag, flow parameter, wave number q > 0.

    The one check of a flow's inputs: the tag must name a generator, q must
    be positive and finite, and the parameter finite.  A GeneratorId is
    kept as it is; any other tag is looked up by value.
    """

    gen: GeneratorId
    param: float
    q: float

    def __init__(self, gen, param: float, q: float):
        if gen.__class__ is not GeneratorId:
            gen = GeneratorId(gen)
        if not 0 < q < math.inf:
            raise positive_finite_error("wave number q", q)
        if not math.isfinite(param):
            raise ValueError(f"flow parameter must be finite, got {param!r}")
        object.__setattr__(self, "gen", gen)
        object.__setattr__(self, "param", param)
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class FlowResult:
    matrix: NumericMat
    method: str  # "closed_form" | "series"


def closed_flow(gen, param: float = None, q: float = None, prec: Optional[int] = None) -> NumericMat:
    """Closed-form finite transform exp(param * X_gen) evaluated at q.

    Accepts a FlowSpec or (gen, param, q).  Returns a float64 ndarray, or a
    nested list of mpf when prec (decimal digits) is given.  Both come from
    `_closed_rows`, which forms only the entries the closed form makes
    nonzero and fills the rest with one zero of the flow's own arithmetic.
    A float64 result with an entry that is not finite raises a ValueError.
    """
    spec = gen if isinstance(gen, FlowSpec) else FlowSpec(gen, param, q)
    if prec is None:
        try:
            entries = _closed_rows(spec, _FLOAT_BACKEND)
        except (OverflowError, ValueError, ZeroDivisionError) as exc:
            # with finite inputs, the one ValueError is libm's domain error on cos/sin of an
            # argument that overflowed to inf, and a zero division means a power of q underflowed to 0
            raise _range_error(spec, exc) from None
        if not all(map(math.isfinite, entries)):
            raise _range_error(spec)
        return np.array(entries).reshape(4, 4)  # every entry is a Python float: float64
    import mpmath

    with mpmath.workdps(prec):
        entries = _closed_rows(spec, _mp_backend(prec))
    return [entries[0:4], entries[4:8], entries[8:12], entries[12:16]]


# The end of a float64 range error: the way round it for a caller that can pass prec.
_PREC_HINT = "; pass prec (decimal digits) to evaluate through mpmath"


def _range_error(spec: FlowSpec, exc: Optional[Exception] = None) -> ValueError:
    event = "underflow" if isinstance(exc, ZeroDivisionError) else "overflow"
    return ValueError(f"float64 {event} in exp({spec.param!r} * {spec.gen.value}) at q = {spec.q!r}{_PREC_HINT}")


def _closed_rows(spec: FlowSpec, bk: _Backend) -> list:
    """The 16 entries of exp(param X(q)), row by row in one flat list, in bk's arithmetic.

    One, T0 and the shift transcriptions T1-T3 write every entry out.  For
    the other fifteen generators exp(param X) = C 1 + param S X(q), with
    C = cosh/cos and S = sinh(y)/y or sin(y)/y of y = param q^order, by the
    exact square of X.  Only X(q)'s nonzero entries are evaluated (through
    `float_sum`, or `RingElem.evaluate` for mpf) and scaled; every other
    entry is the one value `zero = factor * 0`, which is -0.0 in float64
    when the factor is negative, exactly as the dense product gave it.  The
    diagonal then adds C to each of its four entries, zero or not.
    """
    gid = spec.gen
    tau = bk.lift(spec.param)
    q = bk.lift(spec.q)
    if gid is GeneratorId.ONE or gid is GeneratorId.T0:
        e = bk.exp(tau)
        zero = 0 * e
        return [e, zero, zero, zero, zero, e, zero, zero, zero, zero, e, zero, zero, zero, zero, e]
    if gid is GeneratorId.T1:
        return _t1_rows(tau, q, bk)
    if gid is GeneratorId.T2:
        return _t2_rows(tau, q, bk)
    if gid is GeneratorId.T3:
        return _t3_rows(tau, q, bk)
    mat = get_generator(gid)
    square = _square_class(gid)  # a boost or a rotation for each of the fifteen (tests/test_catalog.py)
    arg = tau * q**square.order
    if square.kind == "boost":
        diag = bk.cosh(arg)
        factor = tau * bk.sinch(arg)
    else:
        diag = bk.cos(arg)
        factor = tau * bk.sinc(arg)
    entries = [factor * 0] * 16
    for r, c, x in bk.entries(mat, q):
        entries[4 * r + c] = factor * x
    for i in (0, 5, 10, 15):
        entries[i] = entries[i] + diag
    return entries


@functools.cache
def _square_class(gid: GeneratorId) -> SquareClass:
    """The exact square class of a catalog generator, classified on first use."""
    return classify_square(get_generator(gid))


def _weights(R, q, bk: _Backend) -> tuple:
    """(weight column, sin qR, cos qR) of R and q already lifted into the backend.

    The column is (w0, w1, w2, w3) of a sphere of radius R, column 0 of the
    T1 flow at parameter R, with w3 = 4 pi (s - x c) / q^3 for x = qR,
    s = sin x and c = cos x: the Fourier transform of a unit step of range
    R.  Below x = 1e-4 every entry evaluates by its series in x, and s and c
    are None.  `_step_series` and `_step_direct` are w3's formula;
    `step_weight_array` is the same w3 over an array of wave numbers, and
    `fmt.step_hat` holds an inline copy of `_step_direct` that bitwise tests
    tie to it.
    """
    pi = bk.pi
    x = q * R
    if abs(x) < _SMALL_ARG:
        w3 = _step_series(R, x, pi)
        x2 = x * x
        w0 = 1 - x2 * x2 / 24
        w1 = R * (1 - x2 / 3 + x2 * x2 / 40)
        w2 = 4 * pi * R * R * (1 - x2 / 6 + x2 * x2 / 120)
        return [w0, w1, w2, w3], None, None
    s = bk.sin(x)
    c = bk.cos(x)
    w3 = _step_direct(x, s, c, q**3, pi)
    w0 = c + x * s / 2
    w1 = (x * c + s) / (2 * q)
    w2 = 4 * pi * R * s / q
    return [w0, w1, w2, w3], s, c


def step_weight_array(R: float, q: np.ndarray) -> np.ndarray:
    """w3 of `_weights` at each of a float64 array of wave numbers, for a float R.

    Each node takes the branch of its scalar call and has its bits.  A node
    where the scalar call overflows comes out non-finite instead of raising.
    """
    x = q * R
    small = np.abs(x) < _SMALL_ARG
    direct = ~small
    w3 = np.empty_like(x)
    w3[small] = _step_series(R, x[small], math.pi)
    x, q = x[direct], q[direct]
    # libm's pow, as the scalar q**3 rounds it (numpy's q**3 does not)
    cube = np.float_power(q, 3)
    cube[np.isinf(cube)] = math.nan  # where the scalar q**3 raises
    w3[direct] = _step_direct(x, np.sin(x), np.cos(x), cube, math.pi)
    return w3


def _step_series(R, x, pi):
    """w3 of `_weights` below x = 1e-4: (4 pi / 3) R^3 (1 - x^2/10 + x^4/280)."""
    x2 = x * x
    return (4 * pi / 3) * R**3 * (1 - x2 / 10 + x2 * x2 / 280)


def _step_direct(x, s, c, cube, pi):
    """w3 of `_weights` from x = qR, sin x, cos x and q^3; `fmt.step_hat` inlines it."""
    return 4 * pi * (s - x * c) / cube


def _t1_rows(chi, q, bk: _Backend) -> list:
    """exp(chi t1), row by row: the weight column, then 12 entries of which 4 repeat, each computed once."""
    pi = bk.pi
    column, s, c = _weights(chi, q, bk)
    if s is None:  # the column took its series; the other entries have none
        s = bk.sin(q * chi)
        c = bk.cos(q * chi)
    w0, w1, w2, w3 = column
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
    # kept as published so the discrepancy scan can flag it.
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


def printed_flow(gen, param: float = None, q: float = None) -> np.ndarray:
    """The published finite-transform matrix, evaluated verbatim.

    For the shift generators and the identity the published form and the
    generated closed form coincide by construction.
    """
    if isinstance(gen, FlowSpec):
        spec = gen
    else:
        spec = FlowSpec(gen, param, q)
    template = _PUBLISHED.get(spec.gen)
    if template is None:
        return closed_flow(spec)
    tau, q = spec.param, spec.q
    if template[0] == "diag":
        return np.diag([math.exp(tau * s) for s in template[1]])
    kind, order, smap = template
    arg = tau * q**order
    diag, s = (math.cosh(arg), math.sinh(arg)) if kind == "boost" else (math.cos(arg), math.sin(arg))
    out = np.eye(4) * diag
    for (r, c), (coef, qpow) in smap.items():
        out[r, c] = coef * q**qpow * s
    return out


# ---------------------------------------------------------------------------
# Series-exponential oracle and residual diagnostics
# ---------------------------------------------------------------------------


def evaluate_flow(spec: FlowSpec, method: str = "closed") -> FlowResult:
    if method == "closed":
        return FlowResult(closed_flow(spec), "closed_form")
    if method == "series":
        matrix = expm_oracle(get_generator(spec.gen), spec.param, spec.q)
        return FlowResult(matrix, "series")
    raise ValueError(f"unknown flow method {method!r}")


def _as_rows(a) -> list:
    if isinstance(a, np.ndarray):
        return a.tolist()
    return a


def _fold_max(worst, value):
    """max(worst, value), except that a NaN is kept once seen; max() drops it."""
    return value if value > worst or value != value else worst


def max_abs(a) -> float:
    """Largest |entry|; NaN if any entry is NaN."""
    rows = _as_rows(a)
    return functools.reduce(_fold_max, (abs(x) for row in rows for x in row))


# The form M's rows: entry (mu, nu) is 1 on the counter diagonal mu + nu = 3, else 0.
_FORM_ROWS = ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0))


def _invariance_impl(rows: list):
    """Max-norm of a^t . M . a - M over all 16 entries, NaN if any entry is NaN.

    Entry (mu, nu) of a^t . M . a is the bilinear form of column mu with
    column nu, u0 v3 + u1 v2 + u2 v1 + u3 v0, written out and added left to
    right as `matrices.bilinear` adds it.
    """
    columns = list(zip(*rows))
    entries = [
        abs(u0 * v3 + u1 * v2 + u2 * v1 + u3 * v0 - m)
        for (u0, u1, u2, u3), form_row in zip(columns, _FORM_ROWS)
        for (v0, v1, v2, v3), m in zip(columns, form_row)
    ]
    total = sum(entries)  # NaN exactly when an entry is: they are all >= 0
    return total if total != total else max(entries)


def invariance_residual(a, prec: Optional[int] = None) -> float:
    """Max-norm of a^t . M . a - M; zero exactly when a preserves the form.

    NaN if any entry of a^t . M . a is NaN.  A float matrix sums all 64
    products of the form's 16 entries; with prec, the products with an
    exact-zero factor are skipped (`_sparse_invariance`).

    For mpf inputs pass the same prec the flow was built with: mpmath rounds
    every product at the *ambient* precision, so the residual arithmetic must
    run inside a matching context or the cancellation is destroyed.
    """
    rows = _as_rows(a)
    if prec is not None:
        import mpmath

        with mpmath.workdps(prec + 20):
            return _sparse_invariance(rows)
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
    """Max-norm of flow(p1) @ flow(p2) - flow(p1 + p2) for one generator; NaN propagates."""
    a = closed_flow(gen, p1, q, prec=prec)
    b = closed_flow(gen, p2, q, prec=prec)
    ab = closed_flow(gen, p1 + p2, q, prec=prec)
    if isinstance(a, np.ndarray):
        return float(np.abs(a @ b - ab).max())
    import mpmath

    with mpmath.workdps(prec + 20):
        return _mp_max_diff(_mp_product(a, b), ab)


def _mp_product(a: list, b: list) -> list:
    """a @ b for 4x4 nested lists of mpf, rounded at the ambient precision.

    Each entry adds its four products left to right, from the first.
    """
    columns = list(zip(*b))
    return [[x0 * y0 + x1 * y1 + x2 * y2 + x3 * y3 for y0, y1, y2, y3 in columns] for x0, x1, x2, x3 in a]


def _mp_max_diff(a: list, b: list):
    """Max-norm of a - b for 4x4 nested lists of mpf, at the ambient precision; NaN propagates."""
    return max_abs([[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])


@dataclass(frozen=True)
class FlowDiscrepancy:
    """One entry where the published transform disagrees with the closed form."""

    gen: GeneratorId
    entry: tuple[int, int]
    max_relative_deviation: float
    printed_matches_oracle: bool
    closed_matches_oracle: bool

    def __str__(self):
        side = "generated" if self.closed_matches_oracle else "published"
        return (
            f"{self.gen.value} transform, entry {self.entry}: published form deviates "
            f"(rel {self.max_relative_deviation:.3e}); series oracle agrees with the "
            f"{side} closed form"
        )


def grid_flows(gens) -> dict:
    """{(gen, q, param): (float64 closed flow, series oracle at ORACLE_TOL)} over the grid.

    Each flow is evaluated once, and all the oracles in one `expm_oracles` call.
    """
    keys = [(GeneratorId(g), q, p) for g in gens for q in STANDARD_Q_GRID for p in STANDARD_PARAM_GRID]
    closed = [closed_flow(gid, p, q) for gid, q, p in keys]
    oracles = expm_oracles([(get_generator(gid), p, q) for gid, q, p in keys], ORACLE_TOL)
    return dict(zip(keys, zip(closed, oracles)))


def reference_discrepancies(evaluated: Optional[dict] = None) -> list[FlowDiscrepancy]:
    """Diff the generated closed forms against the published matrices.

    Returns one record per (generator, entry) that deviates anywhere on the
    grid, with an oracle verdict on which side is correct.  `evaluated` is a
    `grid_flows` result that covers the published generators on the grid;
    by default they are evaluated here.
    """
    if evaluated is None:
        evaluated = grid_flows(_PUBLISHED)
    found: dict[tuple[GeneratorId, tuple[int, int]], FlowDiscrepancy] = {}
    for gid in _PUBLISHED:
        for q in STANDARD_Q_GRID:
            for param in STANDARD_PARAM_GRID:
                closed, oracle = evaluated[gid, q, param]
                printed = printed_flow(gid, param, q)
                scale = 1.0 + float(np.abs(closed).max())
                dev = np.abs(printed - closed) / scale
                for r, c in zip(*np.nonzero(dev > DISCREPANCY_TOL)):
                    key = (gid, (int(r), int(c)))
                    rel = float(dev[r, c])
                    if key in found and found[key].max_relative_deviation >= rel:
                        continue
                    printed_ok = bool(abs(printed[r, c] - oracle[r, c]) <= DISCREPANCY_TOL * scale)
                    closed_ok = bool(abs(closed[r][c] - oracle[r, c]) <= DISCREPANCY_TOL * scale)
                    found[key] = FlowDiscrepancy(gid, (int(r), int(c)), rel, printed_ok, closed_ok)
    return sorted(found.values(), key=lambda d: (list(ALL_IDS).index(d.gen), d.entry))
