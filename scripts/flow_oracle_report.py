#!/usr/bin/env python3
"""Grid report: closed-form flows vs the series exponential, plus the
discrepancy scan against the published transform matrices.
"""

from __future__ import annotations

import numpy as np

from fmspace.catalog import GeneratorId, get_generator
from fmspace.flows import (
    STANDARD_PARAM_GRID,
    STANDARD_Q_GRID,
    _fold_max,
    closed_flow,
    expm_oracle,
    invariance_residual,
    reference_discrepancies,
)


def main() -> int:
    print(f"{'generator':>9}  {'worst rel vs oracle':>20}  {'max invariance residual':>24}")
    for gid in GeneratorId:
        worst_rel = 0.0
        worst_inv = 0.0
        for q in STANDARD_Q_GRID:
            for p in STANDARD_PARAM_GRID:
                closed = closed_flow(gid, p, q)
                oracle = expm_oracle(get_generator(gid), p, q, 1e-13)
                scale = 1.0 + float(np.abs(closed).max())
                worst_rel = _fold_max(worst_rel, float(np.abs(closed - oracle).max()) / scale)
                worst_inv = _fold_max(worst_inv, float(invariance_residual(closed)))
        print(f"{gid.value:>9}  {worst_rel:>20.3e}  {worst_inv:>24.3e}")
    print()
    print("published-form discrepancies (series oracle as arbiter):")
    for d in reference_discrepancies():
        print(f"  {d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
