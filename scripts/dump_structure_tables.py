#!/usr/bin/env python3
"""Regenerate every structure table from the catalog and print it.

Usage: python scripts/dump_structure_tables.py [--json]
"""

from __future__ import annotations

import sys

from fmspace import reference_tables
from fmspace.algebra import build_reference_table
from fmspace.cli import _json_value


def main() -> int:
    as_json = "--json" in sys.argv[1:]
    for spec in reference_tables.TABLES:
        table = build_reference_table(spec)
        reversed_note = " (reversed operand order: cell [row, col] is op(col, row))"
        print(f"# {spec.name}" + (reversed_note if spec.op_order != "row_col" else ""))
        if as_json:
            print(_json_value(table.to_json_dict()))
        else:
            print(table.to_text())
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
