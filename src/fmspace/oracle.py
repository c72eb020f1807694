"""The series-exponential oracle that the closed-form flows are judged by.

exp(param * X(q)) by scaling and squaring a Taylor series, coded apart from
the closed forms in `fmspace.flows`.  `expm_oracles` evaluates many points in
one masked pass over the whole stack, each slice with the bits of a one-point
`expm_oracle`.  Every stage works on arrays: X(q) is evaluated once per
distinct (X, q) and scaled by the params as one array, the stopping test of
the Taylor loop compares each point's |term| with its own tol / 2^s as an
array and zeros the terms of the points it ends by mask (a one-point call
counts its 16 entries instead, which costs no more than a scalar test), and
the squaring steps that every point needs square the whole stack, while a
later step gathers, squares and scatters back only the points that still
need it.
"""

from __future__ import annotations

import math
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


# An overflow or invalid product in param * X(q) or in a squaring is reported
# by the checks on the 1-norm and on the result instead; the Taylor loop runs
# on norms at most 0.5 and raises neither.
@np.errstate(over="ignore", invalid="ignore")
def expm_oracles(points: Sequence[tuple], tol: float = 1e-12) -> np.ndarray:
    """expm_oracle at each (X, param, q) of points, stacked into shape (n, 4, 4).

    One masked pass over the stack: each point is divided by its own 2^s,
    every point runs the Taylor loop, and a point's term is zeroed once it
    first drops below tol / 2^s, which ends that point's sum (a zero term
    adds nothing); squaring step `step` squares only the points with
    s > step.  So every slice has the bits of a one-point call, and the
    first point in input order that fails a stage (X(q) overflows, a 1-norm
    beyond scaling, a non-finite result) raises the ValueError a one-point
    call would.  An inf or NaN in param * X(q) warns nothing: its 1-norm
    raises.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    z = _scaled_entries(points)
    norms = np.maximum.reduce(np.add.reduce(np.abs(z), axis=1), axis=1).tolist()
    for norm in norms:
        if not norm <= _MAX_ORACLE_NORM:
            raise ValueError(
                f"float64 overflow: the 1-norm of param * X(q) is {norm!r}, "
                "beyond what scaling and squaring can take"
            )
    s = [max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0 for norm in norms]
    exponents = np.array(s, int)
    scale = np.ldexp(1.0, exponents)[:, None, None]  # 2.0**s, exactly
    z /= scale
    threshold = tol / scale
    total = _EYE[None].repeat(len(z), 0)
    term = total.copy()
    work = np.empty_like(z)  # the outputs of each step go into place: fewer allocations per term
    below = np.empty(z.shape, bool)
    for k in range(1, 80):
        np.divide(np.matmul(term, z, work), k, term)
        total += term
        # a point is done when all 16 of its |term| are below its threshold,
        # which is max |term| < threshold; a NaN fails both
        np.less(np.abs(term, work), threshold, below)
        if len(z) == 1:  # one point: one count of its 16 entries, no row reduction
            if np.count_nonzero(below) == 16:
                break
            continue
        done = np.logical_and.reduce(below, axis=(1, 2))
        finished = np.count_nonzero(done)
        if finished:
            if finished == len(done):
                break
            # a zero term stays zero, and adding it keeps the bits of a sum, which never holds -0.0
            term[done] = 0.0
    # the steps that every point takes square the whole stack; the rest
    # gather, square and scatter back the points with s > step
    everyone = min(s, default=0)
    for _ in range(everyone):
        total = total @ total
    for step in range(everyone, max(s, default=0)):
        squared = (exponents > step).nonzero()[0]
        part = total[squared]
        total[squared] = part @ part
    finite = np.isfinite(total).all(axis=(1, 2)).tolist()
    if not all(finite):
        raise ValueError(f"float64 overflow: exp(param * X(q)) is not finite at norm {norms[finite.index(False)]!r}")
    return total


def _scaled_entries(points) -> np.ndarray:
    """param * X(q) at each point, as an (n, 4, 4) stack.

    X(q) is evaluated once per distinct matrix and q of the points, in the
    order of the points, and each is scaled by its params as one array
    (under the caller's errstate: an inf or NaN norm is reported there).
    """
    evaluated = {}  # (id(X), q) -> index of X(q) in values; the points hold each X for the whole call
    values = []
    index = []
    for x, _param, q in points:
        i = evaluated.get((id(x), q))
        if i is None:
            try:
                values.append(eval_rows(x, q))
            except OverflowError:
                raise ValueError(f"float64 overflow: the entries of X(q) overflow at q = {q!r}") from None
            i = evaluated[id(x), q] = len(values) - 1
        index.append(i)
    stack = np.array(values, float).reshape(-1, 4, 4)
    if len(values) < len(index):  # some point repeats an earlier (X, q); else index is 0, 1, ..., n - 1
        stack = stack[index]
    params = np.array([param for _x, param, _q in points], float)
    return stack * params[:, None, None]
