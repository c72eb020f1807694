"""The series-exponential oracle that the closed-form flows are judged by.

exp(param * X(q)) by scaling and squaring a Taylor series, coded apart from
the closed forms in `fmspace.flows`.  `expm_oracles` evaluates many points in
one masked pass over the whole stack, each slice with the bits of a one-point
`expm_oracle`: a converged series adds zero terms, and a squaring step
squares only the points that still need it.
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


def expm_oracles(points: Sequence[tuple], tol: float = 1e-12) -> np.ndarray:
    """expm_oracle at each (X, param, q) of points, stacked into shape (n, 4, 4).

    One masked pass over the stack: each point is divided by its own 2^s,
    every point runs the Taylor loop, and a point's term is zeroed once it
    first drops below tol / 2^s, which ends that point's sum; squaring step
    `step` squares the points with s > step.  So every slice has the bits of
    a one-point call, and the first point in input order that fails a stage
    (X(q) overflows, a 1-norm beyond scaling, a non-finite result) raises
    the ValueError a one-point call would.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    z = np.array(_scaled_entries(points), float).reshape(-1, 4, 4)
    norms = np.maximum.reduce(np.add.reduce(np.abs(z), axis=1), axis=1).tolist()
    for norm in norms:
        if not norm <= _MAX_ORACLE_NORM:
            raise ValueError(
                f"float64 overflow: the 1-norm of param * X(q) is {norm!r}, "
                "beyond what scaling and squaring can take"
            )
    s = [max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0 for norm in norms]
    scale = [2.0**si for si in s]
    z /= np.array(scale)[:, None, None]
    threshold = [tol / sc for sc in scale]
    total = _EYE[None].repeat(len(z), 0)
    term = total.copy()
    work = np.empty_like(z)  # the outputs of each step go into place: fewer allocations per term
    for k in range(1, 80):
        np.divide(np.matmul(term, z, work), k, term)
        total += term
        maxima = np.maximum.reduce(np.abs(term, work), axis=(1, 2)).tolist()
        if any(map(float.__lt__, maxima, threshold)):
            done = list(map(float.__lt__, maxima, threshold))
            if all(done):
                break
            # a zero term stays zero, and adding it keeps the bits of a sum, which never holds -0.0
            term[np.array(done)] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        exponents = np.array(s)[:, None, None]
        for step in range(max(s, default=0)):
            np.copyto(total, total @ total, where=exponents > step)
    finite = np.isfinite(total).all(axis=(1, 2)).tolist()
    if not all(finite):
        raise ValueError(f"float64 overflow: exp(param * X(q)) is not finite at norm {norms[finite.index(False)]!r}")
    return total


def _scaled_entries(points) -> list:
    """The entries of param * X(q), point by point and row by row, as one list.

    X(q) is evaluated once per distinct matrix and q of the points.
    """
    evaluated = {}  # (id(X), q) -> X(q)'s 16 entries; the points hold each X for the whole call
    out = []
    for x, param, q in points:
        xq = evaluated.get((id(x), q))
        if xq is None:
            try:
                xq = evaluated[id(x), q] = [v for row in eval_rows(x, q) for v in row]
            except OverflowError:
                raise ValueError(f"float64 overflow: the entries of X(q) overflow at q = {q!r}") from None
        out += [param * v for v in xq]
    return out
