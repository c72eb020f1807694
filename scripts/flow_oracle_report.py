#!/usr/bin/env python3
"""Grid report: the float closed-form flows vs the series exponential, plus
the exact diff of the published transform matrices.

Prints the rows of the float evaluator's record (`fmspace.checks.float_evaluator`,
which Tier-1 holds) and the discrepancies of the `verify` flows check
(`fmspace.checks.flows`), each published entry minus the generated one.
"""

from __future__ import annotations

from fmspace import checks


def main() -> int:
    record = checks.float_evaluator()
    print(f"{'generator':>9}  {'worst rel vs oracle':>20}  {'max invariance residual':>24}")
    for gid, worst_rel, worst_inv in record.rows:
        print(f"{gid.value:>9}  {worst_rel:>20.3e}  {worst_inv:>24.3e}")
    print()
    print("published-form discrepancies (published minus generated, exact):")
    for d in checks.flows().discrepancies:
        print(f"  {d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
