"""Decomposition in the One + 15 generator basis and structure-table tooling.

The sixteen catalog matrices {One} + isometric + metamorphic form a complete
basis of the 4x4 matrix space that is orthogonal under the trace form: tr(X Y)
= 0 for two different basis matrices, and tr(X^2) = +-4 q^(2 alpha) is a unit
of the coefficient ring.  So the coefficient of X in T is tr(T X) / tr(X^2),
exact and without elimination; products and commutators of catalog matrices
land back in the span with single-monomial coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Literal, Optional, Sequence

from .catalog import BASIS_IDS, SHIFT_IDS, GeneratorId, get_generator, resolve_id
from .matrices import Mat4
from .ring import ZERO, RingElem, format_ring

TableKind = Literal["product", "half_commutator", "half_anticommutator"]

_HALF = RingElem.rational(1, 2)


class NotInSpanError(ValueError):
    """Raised when a matrix does not lie in the span of the requested basis."""

    def __init__(self, message: str, residual: Mat4):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class Decomposition:
    """Coefficients of a matrix in a named basis; absent ids mean zero."""

    coeffs: dict[GeneratorId, RingElem]

    def __post_init__(self):
        cleaned = {
            GeneratorId(k): v for k, v in self.coeffs.items() if not v.is_zero
        }
        object.__setattr__(self, "coeffs", cleaned)

    def __getitem__(self, gen_id: GeneratorId) -> RingElem:
        return self.coeffs.get(GeneratorId(gen_id), ZERO)

    def __eq__(self, other):
        if not isinstance(other, Decomposition):
            return NotImplemented
        return self.coeffs == other.coeffs

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def items(self):
        """(id, coefficient) pairs in canonical catalog order."""
        order = {gid: i for i, gid in enumerate(GeneratorId)}
        return sorted(self.coeffs.items(), key=lambda kv: order[kv[0]])

    def reconstruct(self) -> Mat4:
        total = Mat4.zero()
        for gid, coef in self.coeffs.items():
            total = total + get_generator(gid).scale(coef)
        return total

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for gid, coef in self.items():
            mono = coef.as_monomial()
            if mono is not None:
                negative = mono[0] < 0
                text = format_ring(-coef if negative else coef)
                piece = gid.value if text == "1" else f"{text} {gid.value}"
            else:
                negative = False
                piece = f"({format_ring(coef)}) {gid.value}"
            if not parts:
                parts.append(("-" if negative else "") + piece)
            else:
                parts.append(("- " if negative else "+ ") + piece)
        return " ".join(parts)

    def to_json_dict(self) -> dict:
        return {gid.value: coef.to_json_dict() for gid, coef in self.items()}

    @staticmethod
    def from_json_dict(d: dict) -> "Decomposition":
        return Decomposition(
            {resolve_id(k): RingElem.from_json_dict(v) for k, v in d.items()}
        )


@lru_cache(maxsize=None)
def _inverse_norm(gid: GeneratorId) -> RingElem:
    """1 / tr(X^2) of a basis matrix X; a monomial, since X^2 = +-q^(2 alpha) 1."""
    square = get_generator(gid) @ get_generator(gid)
    return sum((square[i, i] for i in range(4)), ZERO).invert_monomial()


@lru_cache(maxsize=None)
def _by_entry() -> dict:
    """(a, b) -> [(gid, X[b, a])] over the basis matrices X with X[b, a] != 0.

    The basis is complete, so every (a, b) has at least one basis matrix.
    """
    out: dict[tuple[int, int], list] = {}
    for gid in BASIS_IDS:
        for b, a, x in get_generator(gid).entries():
            out.setdefault((a, b), []).append((gid, x))
    return out


def decompose(t: Mat4, basis: Optional[Sequence[GeneratorId]] = None) -> Decomposition:
    """Exact coefficients of t in the given basis (default: One + 15).

    basis is None, a subset of BASIS_IDS (coefficients by trace projection)
    or a subset of SHIFT_IDS (coefficients read off column 0: T_mu is the
    only shift generator with an entry at (mu, 0), and that entry is 1).
    Anything else raises ValueError.  Raises NotInSpanError (carrying the
    residual) if t is outside the span of a restricted basis; the full
    16-element basis spans everything.
    """
    ids = BASIS_IDS if basis is None else tuple(GeneratorId(g) for g in basis)
    if set(ids) <= set(BASIS_IDS):
        # the coefficient of X is tr(t X) / tr(X^2) = sum of t[a, b] X[b, a] / tr(X^2)
        by_entry = _by_entry()
        traces: dict[GeneratorId, RingElem] = {}
        for a, b, tab in t.entries():
            for gid, x in by_entry[a, b]:
                p = tab * x
                acc = traces.get(gid)
                traces[gid] = p if acc is None else acc + p
        coeffs = {
            gid: traces[gid] * _inverse_norm(gid) for gid in ids if traces.get(gid)
        }
    elif set(ids) <= set(SHIFT_IDS):
        coeffs = {gid: t[SHIFT_IDS.index(gid), 0] for gid in ids}
    else:
        raise ValueError(
            "basis must be a subset of One + the 15 generators or of T0..T3, got "
            + ", ".join(gid.value for gid in ids)
        )
    dec = Decomposition(coeffs)
    residual = t - dec.reconstruct()
    if not residual.is_zero:
        raise NotInSpanError("matrix is not in the span of the requested basis", residual)
    return dec


def _table_op(kind: TableKind, x: Mat4, y: Mat4) -> Mat4:
    if kind == "product":
        return x @ y
    if kind == "half_commutator":
        return (x @ y - y @ x).scale(_HALF)
    if kind == "half_anticommutator":
        return (x @ y + y @ x).scale(_HALF)
    raise ValueError(f"unknown table kind {kind!r}")


@dataclass(frozen=True)
class StructureTable:
    kind: TableKind
    row_ids: tuple[GeneratorId, ...]
    col_ids: tuple[GeneratorId, ...]
    cells: tuple[tuple[Decomposition, ...], ...]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "rows": [gid.value for gid in self.row_ids],
            "cols": [gid.value for gid in self.col_ids],
            "cells": [[cell.to_json_dict() for cell in row] for row in self.cells],
        }

    def to_text(self) -> str:
        """Aligned text rendering in the published row/column layout."""
        header = [self.kind] + [gid.value for gid in self.col_ids]
        body = [
            [rid.value] + [str(cell) for cell in row]
            for rid, row in zip(self.row_ids, self.cells)
        ]
        widths = [
            max(len(line[i]) for line in [header] + body)
            for i in range(len(header))
        ]
        lines = []
        for line in [header] + body:
            lines.append("  ".join(s.ljust(w) for s, w in zip(line, widths)).rstrip())
        return "\n".join(lines)


def build_table(
    kind: TableKind,
    rows: Iterable[GeneratorId],
    cols: Iterable[GeneratorId],
    basis: Optional[Sequence[GeneratorId]] = None,
) -> StructureTable:
    """Decompose op(row, col) for every pair; exact, zero tolerance.

    Each ordered product is decomposed once, and a half-(anti)commutator
    cell follows from two of them by linearity.
    """
    return _build_table(kind, rows, cols, basis, {})


def _build_table(kind: TableKind, rows, cols, basis, products: dict) -> StructureTable:
    """build_table, with the product decompositions memoised in `products` by the caller.

    A product is decomposed in the whole family the basis belongs to (One +
    15 or T0..T3), once per memo; decompose is linear, so (d(x y) -+ d(y x))
    / 2 is a half-(anti)commutator cell.  When a cell leaves the basis, or a
    product is outside the family's span, op(x, y) itself is decomposed,
    which may still lie in the span (an isometric half-commutator in the
    isometric basis) or raise as before.
    """
    row_ids = tuple(GeneratorId(r) for r in rows)
    col_ids = tuple(GeneratorId(c) for c in cols)
    ids = frozenset(BASIS_IDS if basis is None else (GeneratorId(g) for g in basis))
    family = next((f for f in (BASIS_IDS, SHIFT_IDS) if ids <= set(f)), None)
    sign = _HALF_SIGNS.get(kind)
    if kind != "product" and sign is None:
        family = None  # an unknown kind: _table_op raises
    cells = []
    for x in row_ids:
        row = []
        for y in col_ids:
            cell = None if family is None else _product_decomposition(x, y, family, products)
            if sign is not None and cell is not None:
                yx = _product_decomposition(y, x, family, products)
                cell = None if yx is None else _half_combination(cell, yx, sign)
            if cell is None or not cell.coeffs.keys() <= ids:
                cell = decompose(_table_op(kind, get_generator(x), get_generator(y)), basis)
            row.append(cell)
        cells.append(tuple(row))
    return StructureTable(kind, row_ids, col_ids, tuple(cells))


_HALF_SIGNS = {"half_commutator": -1, "half_anticommutator": 1}


def _half_combination(xy: Decomposition, yx: Decomposition, sign: int) -> Decomposition:
    """(xy + sign * yx) / 2, coefficient by coefficient."""
    a, b = xy.coeffs, yx.coeffs
    return Decomposition(
        {g: (a.get(g, ZERO) + b.get(g, ZERO) if sign > 0 else a.get(g, ZERO) - b.get(g, ZERO)) * _HALF for g in a.keys() | b.keys()}
    )


def _product_decomposition(x: GeneratorId, y: GeneratorId, family: tuple, products: dict) -> Optional[Decomposition]:
    """decompose(x y, family), or None outside its span; memoised in products."""
    key = (x, y, family)
    if key not in products:
        try:
            products[key] = decompose(get_generator(x) @ get_generator(y), family)
        except NotInSpanError:
            products[key] = None
    return products[key]


# ---------------------------------------------------------------------------
# Verification against the shipped reference tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellMismatch:
    table: str
    kind: TableKind
    row: str
    col: str
    expected: str
    actual: str

    def __str__(self):
        return (
            f"{self.table} [{self.row}, {self.col}]: "
            f"expected {self.expected}, generated {self.actual}"
        )


@dataclass
class TableVerification:
    cells_checked: int = 0
    mismatches: list[CellMismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def build_reference_table(spec) -> StructureTable:
    """Generate a reference table's cells in its published row/column layout.

    A spec with op_order "col_row" is published with reversed operand order:
    its cell (row, col) holds op(col, row).
    """
    return _reference_table(spec, {})


def _reference_table(spec, products: dict) -> StructureTable:
    row_ids = tuple(resolve_id(n) for n in spec.row_names)
    col_ids = tuple(resolve_id(n) for n in spec.col_names)
    basis = tuple(resolve_id(n) for n in spec.basis_names) if spec.basis_names else None
    if spec.op_order == "row_col":
        return _build_table(spec.kind, row_ids, col_ids, basis, products)
    reversed_table = _build_table(spec.kind, col_ids, row_ids, basis, products)
    return StructureTable(spec.kind, row_ids, col_ids, tuple(zip(*reversed_table.cells)))


def verify_reference_tables(table_specs=None) -> TableVerification:
    """Regenerate every reference table from the catalog and diff the cells.

    Each distinct ordered product of the tables is decomposed once per call;
    nothing is kept between calls.
    """
    from . import reference_tables

    if table_specs is None:
        table_specs = reference_tables.TABLES
    report = TableVerification()
    products: dict = {}
    for spec in table_specs:
        generated = _reference_table(spec, products)
        for i, row_name in enumerate(spec.row_names):
            for j, col_name in enumerate(spec.col_names):
                report.cells_checked += 1
                expected = reference_tables.parse_cell(spec.cells[i][j])
                actual = generated.cells[i][j]
                if expected != actual:
                    report.mismatches.append(
                        CellMismatch(
                            spec.name,
                            spec.kind,
                            row_name,
                            col_name,
                            str(expected),
                            str(actual),
                        )
                    )
    return report
