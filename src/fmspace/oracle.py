"""The series-exponential oracle that the float closed-form flows are judged by.

exp(param * X(q)) by scaling and squaring a Taylor series, coded apart from
the closed forms in `fmspace.flows`.  It serves `eval --method series` and
the float evaluator's measures (`fmspace.checks.float_evaluator`, which
Tier-1 holds); `verify` runs no oracle, since `fmspace.certificate` proves
each closed form exp(tau X) exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .matrices import Mat4, eval_rows


# 2^s with s = ceil(log2(norm / 0.5)) must stay a float64: norm <= 2^1022.
# NaN and inf fail the comparison too.
_MAX_ORACLE_NORM = 2.0**1022


# An overflow or invalid product in param * X(q) or in a squaring is reported
# by the checks on the 1-norm and on the result instead; the Taylor loop runs
# on norms at most 0.5 and raises neither.
@np.errstate(over="ignore", invalid="ignore")
def expm_oracle(x: Mat4, param: float, q: float, tol: float = 1e-12) -> np.ndarray:
    """Scaling-and-squaring Taylor evaluation of exp(param * X(q)), a (4, 4) float64 array.

    The argument is halved until its 1-norm is at most 0.5, the series is
    summed until the largest |entry| of the next term drops below tol / 2^s
    (a NaN term never does), and the result is squared back up; truncation
    error is bounded by tol in max norm (relative to the result's scale).
    X(q) that overflows, a 1-norm beyond scaling (NaN and inf included) or a
    result that overflows float64 raises ValueError.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    try:
        z = param * np.array(eval_rows(x, q))
    except OverflowError:
        raise ValueError(f"float64 overflow: the entries of X(q) overflow at q = {q!r}") from None
    norm = float(np.abs(z).sum(axis=0).max())
    if not norm <= _MAX_ORACLE_NORM:
        raise ValueError(f"float64 overflow: the 1-norm of param * X(q) is {norm!r}, beyond what scaling and squaring can take")
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
    if not np.isfinite(total).all():
        raise ValueError(f"float64 overflow: exp(param * X(q)) is not finite at norm {norm!r}")
    return total
