#!/usr/bin/env python3
"""Grid report: closed-form flows vs the series exponential, plus the
discrepancy scan against the published transform matrices.

Prints the record of the `verify` flows check (`fmspace.checks.flows`).
"""

from __future__ import annotations

from fmspace import checks


def main() -> int:
    record = checks.flows()
    print(f"{'generator':>9}  {'worst rel vs oracle':>20}  {'max invariance residual':>24}")
    for gid, worst_rel, worst_inv in record.rows:
        print(f"{gid.value:>9}  {worst_rel:>20.3e}  {worst_inv:>24.3e}")
    print()
    print("published-form discrepancies (series oracle as arbiter):")
    for d in record.discrepancies:
        print(f"  {d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
