"""Hand-checked reference data for the structure-table verification suite.

Cells are written in a compact text form ('q^4 B0', '-P0 q^4', '0', ...) in
the exact row/column layout of the published reference tables, so the diff
against the generated tables is mechanical.  Do not reformat: reviewability
of this transcription is the point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from .algebra import Decomposition, TableKind
from .catalog import BASIS_IDS, GeneratorId
from .matrices import Mat4
from .ring import parse_linear

ISO_ORDER = ("B0", "B2", "D2", "B0'", "B1", "D1")
META_ORDER = ("F1", "F2", "F3", "H1", "H2", "F3'", "P0", "P3", "P3'")
SHIFT_ORDER = ("T0", "T1", "T2", "T3")

_NAMES = {gid.value for gid in GeneratorId}


@functools.lru_cache(maxsize=256)  # the shipped tables and decompositions hold 98 distinct texts
def parse_cell(text: str) -> Decomposition:
    """Parse a reference cell into a Decomposition (primes read as 'p').

    Each distinct text is parsed once per process, so a changed cell is
    parsed afresh and an unchanged one not at all.  The Decomposition is
    shared between callers: do not modify its coeffs.  `multiplied_cell`
    multiplies the parsed cell out, once per process as well.
    """
    combo = parse_linear(text.replace("'", "p"), names=_NAMES)
    return Decomposition({GeneratorId(k): v for k, v in combo.items()})


@functools.lru_cache(maxsize=256)  # the shipped tables and decompositions hold 183 distinct keys
def multiplied_cell(text: str, basis: Optional[tuple], divisor: int) -> Optional[Mat4]:
    """divisor * (sum of coefficient * generator) of a reference cell, or None if it names a generator outside basis.

    basis is a tuple of GeneratorIds, or None for One + the 15 generators.
    Each distinct (text, basis, divisor) is multiplied out once per process,
    so the jeffrey check's shift cells reuse what the tables check built.
    The Mat4 is immutable and shared between callers.
    """
    cell = parse_cell(text)
    if not cell.coeffs.keys() <= frozenset(BASIS_IDS if basis is None else basis):
        return None
    whole = cell.reconstruct()
    return whole if divisor == 1 else whole.scale(divisor)


@dataclass(frozen=True)
class TableSpec:
    name: str
    kind: TableKind
    row_names: tuple[str, ...]
    col_names: tuple[str, ...]
    cells: tuple[tuple[str, ...], ...]
    # "col_row" marks tables published with reversed operand order Y.X.
    op_order: str = "row_col"
    basis_names: Optional[tuple[str, ...]] = None


# Half-commutators [X,Y]/2 of the isometric generators: two closed families.
# The four (B_a, D_a) cells are published with opposite sign; matrix algebra
# on the published generators forces [B2,D2]/2 = -q^4 B0 and [B1,D1]/2 =
# -q^2 B0', so the corrected signs are kept here and the published values are
# recorded in PUBLISHED_TABLE_ERRATA below.
ISO_HALF_COMMUTATORS = (
    ("0",    "D2",      "B2",        "0",    "0",        "0"),
    ("-D2",  "0",       "-q^4 B0",   "0",    "0",        "0"),
    ("-B2",  "q^4 B0",  "0",         "0",    "0",        "0"),
    ("0",    "0",       "0",         "0",    "D1",       "B1"),
    ("0",    "0",       "0",         "-D1",  "0",        "-q^2 B0'"),
    ("0",    "0",       "0",         "-B1",  "q^2 B0'",  "0"),
)

# Plain products X.Y of the isometric generators; the cross-family block
# defines the nine metamorphic generators.  Same four-cell sign erratum as
# above (products differ from half-commutators only on the diagonal here).
ISO_PRODUCTS = (
    ("One",  "D2",       "B2",       "P0",  "H1",      "F1"),
    ("-D2",  "q^4 One",  "-q^4 B0",  "H2",  "F3",      "P3"),
    ("-B2",  "q^4 B0",   "-q^4 One", "F2",  "P3'",     "F3'"),
    ("P0",   "H2",       "F2",       "One", "D1",      "B1"),
    ("H1",   "F3",       "P3'",      "-D1", "q^2 One", "-q^2 B0'"),
    ("F1",   "P3",       "F3'",      "-B1", "q^2 B0'", "-q^2 One"),
)

ISO_HALF_ANTICOMMUTATORS = (
    ("One", "0",        "0",        "P0",  "H1",      "F1"),
    ("0",   "q^4 One",  "0",        "H2",  "F3",      "P3"),
    ("0",   "0",        "-q^4 One", "F2",  "P3'",     "F3'"),
    ("P0",  "H2",       "F2",       "One", "0",       "0"),
    ("H1",  "F3",       "P3'",      "0",   "q^2 One", "0"),
    ("F1",  "P3",       "F3'",      "0",   "0",       "-q^2 One"),
)

# Half-commutators among the nine metamorphic generators: each cell is zero
# or a monomial multiple of a single isometric generator.
META_HALF_COMMUTATORS = (
    ("0",         "0",        "0",        "q^2 B0'",  "0",        "-q^2 B2",  "-B1",  "-q^2 D2",  "0"),
    ("0",         "0",        "0",        "0",        "q^4 B0",   "-q^4 B1",  "-B2",  "0",        "-q^4 D1"),
    ("0",         "0",        "0",        "-q^2 D2",  "-q^4 D1",  "0",        "0",    "-q^6 B0'", "-q^6 B0"),
    ("-q^2 B0'",  "0",        "q^2 D2",   "0",        "0",        "0",        "-D1",  "0",        "q^2 B2"),
    ("0",         "-q^4 B0",  "q^4 D1",   "0",        "0",        "0",        "-D2",  "q^4 B1",   "0"),
    ("q^2 B2",    "q^4 B1",   "0",        "0",        "0",        "0",        "0",    "-q^6 B0",  "-q^6 B0'"),
    ("B1",        "B2",       "0",        "D1",       "D2",       "0",        "0",    "0",        "0"),
    ("q^2 D2",    "0",        "q^6 B0'",  "0",        "-q^4 B1",  "q^6 B0",   "0",    "0",        "0"),
    ("0",         "q^4 D1",   "q^6 B0",   "-q^2 B2",  "0",        "q^6 B0'",  "0",    "0",        "0"),
)

# Half-commutators of one isometric (row) with one metamorphic (column)
# generator; trailing q powers appear exactly as published.
MIXED_HALF_COMMUTATORS = (
    ("0",        "H2",       "P3'",     "0",        "F2",      "P3",       "0",    "F3'",      "F3"),
    ("-F3'",     "-P0 q^4",  "0",       "-P3'",     "0",       "-F1 q^4",  "-F2",  "0",        "-H1 q^4"),
    ("-P3",      "0",        "H1 q^4",  "-F3",      "P0 q^4",  "0",        "-H2",  "F1 q^4",   "0"),
    ("H1",       "0",        "P3",      "F1",       "0",       "P3'",      "0",    "F3",       "F3'"),
    ("-P0 q^2",  "-F3'",     "0",       "0",        "-P3",     "-F2 q^2",  "-F1",  "-H2 q^2",  "0"),
    ("0",        "-P3'",     "H2 q^2",  "P0 q^2",   "-F3",     "0",        "-H1",  "0",        "F2 q^2"),
)

# The four shift generators commute.
SHIFT_HALF_COMMUTATORS = tuple(("0",) * 4 for _ in range(4))

# Products of the shift generators, expressed in the shift basis itself.
SHIFT_PRODUCTS = (
    ("T0", "T1",                    "T2",                               "T3"),
    ("T1", "8pi T2",                "-q^2/(4pi) T1 + T3",               "-q^4/(8pi) T0"),
    ("T2", "-q^2/(4pi) T1 + T3",    "-q^4/(64pi^2) T0 - q^2/(4pi) T2",  "-q^4/(64pi^2) T1"),
    ("T3", "-q^4/(8pi) T0",         "-q^4/(64pi^2) T1",                 "-q^6/(32pi^2) T0 - q^4/(8pi) T2"),
)

META_PRODUCTS = (
    ("-q^2 One",  "-F3",       "q^2 F2",   "q^2 B0'",  "-P3'",      "-q^2 B2",  "-B1",   "-q^2 D2",  "q^2 H2"),
    ("-F3",       "-q^4 One",  "q^4 F1",   "-P3",      "q^4 B0",    "-q^4 B1",  "-B2",   "q^4 H1",   "-q^4 D1"),
    ("q^2 F2",    "q^4 F1",    "q^6 One",  "-q^2 D2",  "-q^4 D1",   "q^6 P0",   "F3'",   "-q^6 B0'", "-q^6 B0"),
    ("-q^2 B0'",  "-P3",       "q^2 D2",   "q^2 One",  "-F3'",      "-q^2 H2",  "-D1",   "-q^2 F2",  "q^2 B2"),
    ("-P3'",      "-q^4 B0",   "q^4 D1",   "-F3'",     "q^4 One",   "-q^4 H1",  "-D2",   "q^4 B1",   "-q^4 F1"),
    ("q^2 B2",    "q^4 B1",    "q^6 P0",   "-q^2 H2",  "-q^4 H1",   "q^6 One",  "F3",    "-q^6 B0",  "-q^6 B0'"),
    ("B1",        "B2",        "F3'",      "D1",       "D2",        "F3",       "One",   "P3'",      "P3"),
    ("q^2 D2",    "q^4 H1",    "q^6 B0'",  "-q^2 F2",  "-q^4 B1",   "q^6 B0",   "P3'",   "-q^6 One", "-q^6 P0"),
    ("q^2 H2",    "q^4 D1",    "q^6 B0",   "-q^2 B2",  "-q^4 F1",   "q^6 B0'",  "P3",    "-q^6 P0",  "-q^6 One"),
)

META_HALF_ANTICOMMUTATORS = (
    ("-q^2 One",  "-F3",       "q^2 F2",   "0",        "-P3'",     "0",        "0",    "0",        "q^2 H2"),
    ("-F3",       "-q^4 One",  "q^4 F1",   "-P3",      "0",        "0",        "0",    "q^4 H1",   "0"),
    ("q^2 F2",    "q^4 F1",    "q^6 One",  "0",        "0",        "q^6 P0",   "F3'",  "0",        "0"),
    ("0",         "-P3",       "0",        "q^2 One",  "-F3'",     "-q^2 H2",  "0",    "-q^2 F2",  "0"),
    ("-P3'",      "0",         "0",        "-F3'",     "q^4 One",  "-q^4 H1",  "0",    "0",        "-q^4 F1"),
    ("0",         "0",         "q^6 P0",   "-q^2 H2",  "-q^4 H1",  "q^6 One",  "F3",   "0",        "0"),
    ("0",         "0",         "F3'",      "0",        "0",        "F3",       "One",  "P3'",      "P3"),
    ("0",         "q^4 H1",    "0",        "-q^2 F2",  "0",        "0",        "P3'",  "-q^6 One", "-q^6 P0"),
    ("q^2 H2",    "0",         "0",        "0",        "-q^4 F1",  "0",        "P3",   "-q^6 P0",  "-q^6 One"),
)

# Products X.Y of one isometric (row) with one metamorphic (column) generator.
MIXED_PRODUCTS = (
    ("D1",        "H2",        "P3'",      "B1",      "F2",       "P3",       "B0'",  "F3'",      "F3"),
    ("-F3'",      "-P0 q^4",   "B1 q^4",   "-P3'",    "B0' q^4",  "-F1 q^4",  "-F2",  "D1 q^4",   "-H1 q^4"),
    ("-P3",       "-B0' q^4",  "H1 q^4",   "-F3",     "P0 q^4",   "-D1 q^4",  "-H2",  "F1 q^4",   "-B1 q^4"),
    ("H1",        "D2",        "P3",       "F1",      "B2",       "P3'",      "B0",   "F3",       "F3'"),
    ("-P0 q^2",   "-F3'",      "B2 q^2",   "B0 q^2",  "-P3",      "-F2 q^2",  "-F1",  "-H2 q^2",  "D2 q^2"),
    ("-B0 q^2",   "-P3'",      "H2 q^2",   "P0 q^2",  "-F3",      "-D2 q^2",  "-H1",  "-B2 q^2",  "F2 q^2"),
)

# The same pairs with reversed operand order Y.X (rows still label X).
MIXED_PRODUCTS_REVERSED = (
    ("D1",        "-H2",       "-P3'",      "B1",       "-F2",      "-P3",      "B0'",  "-F3'",     "-F3"),
    ("F3'",       "P0 q^4",    "B1 q^4",    "P3'",      "B0' q^4",  "F1 q^4",   "F2",   "D1 q^4",   "H1 q^4"),
    ("P3",        "-B0' q^4",  "-H1 q^4",   "F3",       "-P0 q^4",  "-D1 q^4",  "H2",   "-F1 q^4",  "-B1 q^4"),
    ("-H1",       "D2",        "-P3",       "-F1",      "B2",       "-P3'",     "B0",   "-F3",      "-F3'"),
    ("P0 q^2",    "F3'",       "B2 q^2",    "B0 q^2",   "P3",       "F2 q^2",   "F1",   "H2 q^2",   "D2 q^2"),
    ("-B0 q^2",   "P3'",       "-H2 q^2",   "-P0 q^2",  "F3",       "-D2 q^2",  "H1",   "-B2 q^2",  "-F2 q^2"),
)

MIXED_HALF_ANTICOMMUTATORS = (
    ("D1",        "0",         "0",        "B1",      "0",        "0",        "B0'",  "0",        "0"),
    ("0",         "0",         "B1 q^4",   "0",       "B0' q^4",  "0",        "0",    "D1 q^4",   "0"),
    ("0",         "-B0' q^4",  "0",        "0",       "0",        "-D1 q^4",  "0",    "0",        "-B1 q^4"),
    ("0",         "D2",        "0",        "0",       "B2",       "0",        "B0",   "0",        "0"),
    ("0",         "0",         "B2 q^2",   "B0 q^2",  "0",        "0",        "0",    "0",        "D2 q^2"),
    ("-B0 q^2",   "0",         "0",        "0",       "0",        "-D2 q^2",  "0",    "-B2 q^2",  "0"),
)

TABLES = (
    TableSpec("isometric half-commutators", "half_commutator", ISO_ORDER, ISO_ORDER, ISO_HALF_COMMUTATORS),
    TableSpec("isometric products", "product", ISO_ORDER, ISO_ORDER, ISO_PRODUCTS),
    TableSpec("isometric half-anticommutators", "half_anticommutator", ISO_ORDER, ISO_ORDER, ISO_HALF_ANTICOMMUTATORS),
    TableSpec("metamorphic half-commutators", "half_commutator", META_ORDER, META_ORDER, META_HALF_COMMUTATORS),
    TableSpec("mixed half-commutators", "half_commutator", ISO_ORDER, META_ORDER, MIXED_HALF_COMMUTATORS),
    TableSpec("shift half-commutators", "half_commutator", SHIFT_ORDER, SHIFT_ORDER, SHIFT_HALF_COMMUTATORS, basis_names=SHIFT_ORDER),
    TableSpec("shift products", "product", SHIFT_ORDER, SHIFT_ORDER, SHIFT_PRODUCTS, basis_names=SHIFT_ORDER),
    TableSpec("metamorphic products", "product", META_ORDER, META_ORDER, META_PRODUCTS),
    TableSpec("metamorphic half-anticommutators", "half_anticommutator", META_ORDER, META_ORDER, META_HALF_ANTICOMMUTATORS),
    TableSpec("mixed products", "product", ISO_ORDER, META_ORDER, MIXED_PRODUCTS),
    TableSpec("mixed products reversed", "product", ISO_ORDER, META_ORDER, MIXED_PRODUCTS_REVERSED, op_order="col_row"),
    TableSpec("mixed half-anticommutators", "half_anticommutator", ISO_ORDER, META_ORDER, MIXED_HALF_ANTICOMMUTATORS),
)

# Cells where the published tables disagree with exact multiplication of the
# published generator matrices (the latter win: every other table block and
# the published finite transforms are consistent with the matrices).  Each
# entry: (table name, row, col, published cell, matrix-algebra cell).
PUBLISHED_TABLE_ERRATA = (
    ("isometric half-commutators", "B2", "D2", "q^4 B0", "-q^4 B0"),
    ("isometric half-commutators", "D2", "B2", "-q^4 B0", "q^4 B0"),
    ("isometric half-commutators", "B1", "D1", "q^2 B0'", "-q^2 B0'"),
    ("isometric half-commutators", "D1", "B1", "-q^2 B0'", "q^2 B0'"),
    ("isometric products", "B2", "D2", "q^4 B0", "-q^4 B0"),
    ("isometric products", "D2", "B2", "-q^4 B0", "q^4 B0"),
    ("isometric products", "B1", "D1", "q^2 B0'", "-q^2 B0'"),
    ("isometric products", "D1", "B1", "-q^2 B0'", "q^2 B0'"),
)

# The four shift generators as combinations of the metamorphic generators
# (and the identity), in the closing closed-form equations: t_nu is the cell
# [T_nu, One] of a product table in the One + 15 basis.
SHIFT_DECOMPOSITIONS = TableSpec("shift decompositions", "product", SHIFT_ORDER, ("One",), (
    ("One",),
    ("(F1 - H1)/2 + 2pi (P3 - P3' + F3 - F3')/q^2"
     " + (3 P3 - P3' - F3 + 3 F3')/(32pi q^2)",),
    ("q^2 (P0 - One)/(8pi) + (F2 - H2)/2 + (F2 + H2)/(128pi^2)",),
    ("q^2 (F1 + H1)/(16pi) + (P3 + P3' - F3 - F3')/4"
     " + (3 P3 + P3' + F3 + 3 F3')/(256pi^2)",),
))
