"""The series-exponential oracle that the closed-form flows are judged by.

exp(param * X(q)) by scaling and squaring a Taylor series, coded apart from
the closed forms in `fmspace.flows`.  `expm_oracles` evaluates many points in
one stacked call, each slice with the bits of a one-point `expm_oracle`.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np

from .matrices import Mat4, eval_rows


# 2^s with s = ceil(log2(norm / 0.5)) must stay a float64: norm <= 2^1022.
# NaN and inf fail the comparison too.
_MAX_ORACLE_NORM = 2.0**1022
_EYE = np.eye(4)


def expm_oracle(x: Mat4, param: float, q: float, tol: float = 1e-12) -> np.ndarray:
    """Scaling-and-squaring Taylor evaluation of exp(param * X(q)): `expm_oracles` at one point.

    The argument is halved until its 1-norm is at most 0.5, the series is
    summed until the next term's norm drops below tol / 2^s, and the result
    is squared back up; truncation error is bounded by tol in max norm
    (relative to the result's scale).  A non-finite 1-norm, or a result that
    overflows float64, raises ValueError.
    """
    return expm_oracles([(x, param, q)], tol)[0]


def expm_oracles(points: Sequence[tuple], tol: float = 1e-12) -> np.ndarray:
    """expm_oracle at each (X, param, q) of points, stacked into shape (n, 4, 4).

    Each point keeps its own scaling exponent s, leaves the Taylor loop once
    its own term has converged and is squared s times, so every slice has the
    bits of a one-point call.  The first point that fails a stage (X(q)
    overflows, a 1-norm beyond scaling, a non-finite result) raises the
    ValueError a one-point call would.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    n = len(points)
    if not n:
        return np.empty((0, 4, 4))
    z = np.fromiter(_scaled_entries(points), float, 16 * n).reshape(n, 4, 4)
    norms = np.maximum.reduce(np.add.reduce(np.abs(z), axis=1), axis=1).tolist()
    for norm in norms:
        if not norm <= _MAX_ORACLE_NORM:
            raise ValueError(
                f"float64 overflow: the 1-norm of param * X(q) is {norm!r}, "
                "beyond what scaling and squaring can take"
            )
    s = [max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0 for norm in norms]
    # most squarings first, so the points still squaring at each step are a prefix
    permuted = any(map(operator.lt, s, s[1:]))
    if permuted:
        order = sorted(range(n), key=s.__getitem__, reverse=True)
        z, s = z[order], [s[i] for i in order]
    scale = [2.0**si for si in s]
    if s[0] == s[-1]:  # one scale for every point
        z /= scale[0]
    else:
        z /= np.array(scale)[:, None, None]
    total = _EYE[None].repeat(n, 0)
    # the points still summing: their indices into total, and their sums, terms, z and thresholds
    live, acc, term, threshold = list(range(n)), total, total.copy(), [tol / sc for sc in scale]
    work = np.empty_like(z)  # the outputs of each step go into place: fewer allocations per term
    for k in range(1, 80):
        np.divide(np.matmul(term, z, work), k, term)
        acc += term
        maxima = np.maximum.reduce(np.abs(term, work), axis=(1, 2)).tolist()
        if any(map(operator.lt, maxima, threshold)):
            done = list(map(operator.lt, maxima, threshold))
            if all(done):
                break
            total[[i for i, d in zip(live, done) if d]] = acc[done]
            keep = [not d for d in done]
            acc, term, z, work = acc[keep], term[keep], z[keep], work[keep]
            live, threshold = [i for i, d in zip(live, done) if not d], [t for t, d in zip(threshold, done) if not d]
    if acc is not total:
        total[live] = acc
    if s[0]:
        with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
            for _ in range(s[-1]):  # squarings of every point
                total = total @ total
            m = n
            for step in range(s[-1], s[0]):
                while s[m - 1] <= step:
                    m -= 1
                total[:m] = total[:m] @ total[:m]
    if permuted:
        total[order] = total.copy()
    if not np.isfinite(total).all():
        bad = next(i for i in range(n) if not np.isfinite(total[i]).all())
        raise ValueError(f"float64 overflow: exp(param * X(q)) is not finite at norm {norms[bad]!r}")
    return total


def _scaled_entries(points):
    """The entries of param * X(q), point by point and row by row, as floats."""
    for x, param, q in points:
        try:
            xq = eval_rows(x, q)
        except OverflowError:
            raise ValueError(f"float64 overflow: the entries of X(q) overflow at q = {q!r}") from None
        for row in xq:
            for v in row:
                yield param * v
