"""Decomposition in the One + 15 generator basis and structure-table tooling.

The sixteen catalog matrices {One} + isometric + metamorphic form a complete
basis of the 4x4 matrix space that is orthogonal under the trace form: tr(X Y)
= 0 for two different basis matrices, and tr(X^2) = +-4 q^(2 alpha) is a unit
of the coefficient ring.  So the coefficient of X in T is tr(T X) / tr(X^2),
exact and without elimination; products and commutators of catalog matrices
land back in the span with single-monomial coefficients.

The reference tables are checked the other way round: each published cell is
multiplied out, divisor * sum of coefficient * generator, and compared with
the catalog's whole operation x y + sign * y x, so a passing check
decomposes nothing and halves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Literal, Optional, Sequence

from .catalog import BASIS_IDS, SHIFT_IDS, GeneratorId, get_generator, resolve_id
from .matrices import Mat4
from .ring import ZERO, RingElem, format_ring, signed_sum, sum_terms

TableKind = Literal["product", "half_commutator", "half_anticommutator"]


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
        pieces = []
        for gid, coef in self.items():
            mono = coef.as_monomial()
            if mono is None:
                pieces.append((False, f"({format_ring(coef)}) {gid.value}"))
            else:
                text = format_ring(-coef if mono[0] < 0 else coef)
                pieces.append((mono[0] < 0, gid.value if text == "1" else f"{text} {gid.value}"))
        return signed_sum(pieces)

    def to_json_dict(self) -> dict:
        return {gid.value: coef.to_json_dict() for gid, coef in self.items()}


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


def _product(x: GeneratorId, y: GeneratorId) -> Mat4:
    return get_generator(x) @ get_generator(y)


# Each table kind as one pair (sign, divisor): divisor * op(x, y) == x y + sign * y x.
# A product has no y x term.
_KINDS = {
    "product": (None, 1),
    "half_commutator": (-1, 2),
    "half_anticommutator": (1, 2),
}


def _kind(kind: TableKind) -> tuple:
    """(sign, divisor) of a table kind; ValueError for any other kind."""
    try:
        return _KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown table kind {kind!r}") from None


def _whole_terms(kind: TableKind, x: GeneratorId, y: GeneratorId, product=_product) -> dict:
    """The flat term map of divisor * op(x, y) = x y + sign * y x, with each ordered product taken from product(x, y)."""
    sign, _divisor = _kind(kind)
    xy = product(x, y)._terms
    return xy if sign is None else sum_terms(xy, product(y, x)._terms, sign < 0)


def _table_op(kind: TableKind, x: GeneratorId, y: GeneratorId, product=_product) -> Mat4:
    """op(x, y) of two catalog generators: the whole op over the kind's divisor."""
    whole = Mat4._of(_whole_terms(kind, x, y, product))
    divisor = _KINDS[kind][1]
    return whole if divisor == 1 else whole.scale(RingElem.rational(1, divisor))


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
    """decompose(op(row, col), basis) for every pair; exact, zero tolerance."""
    row_ids = tuple(GeneratorId(r) for r in rows)
    col_ids = tuple(GeneratorId(c) for c in cols)
    cells = tuple(tuple(decompose(_table_op(kind, x, y), basis) for y in col_ids) for x in row_ids)
    return StructureTable(kind, row_ids, col_ids, cells)


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


def _spec_ids(spec) -> tuple:
    """(row ids, column ids, basis ids or None for One + 15) of a reference table."""
    row_ids = tuple(resolve_id(n) for n in spec.row_names)
    col_ids = tuple(resolve_id(n) for n in spec.col_names)
    basis = tuple(resolve_id(n) for n in spec.basis_names) if spec.basis_names else None
    return row_ids, col_ids, basis


def _spec_operands(spec, x: GeneratorId, y: GeneratorId) -> tuple:
    """The operands of a reference table's cell (x, y), in the order its op takes them.

    A spec with op_order "col_row" is published with reversed operand order:
    its cell (x, y) holds op(y, x).
    """
    return (x, y) if spec.op_order == "row_col" else (y, x)


def build_reference_table(spec) -> StructureTable:
    """Generate a reference table's cells in its published row/column layout."""
    row_ids, col_ids, basis = _spec_ids(spec)
    cells = tuple(
        tuple(decompose(_table_op(spec.kind, *_spec_operands(spec, x, y)), basis) for y in col_ids)
        for x in row_ids
    )
    return StructureTable(spec.kind, row_ids, col_ids, cells)


def verify_reference_tables(table_specs=None, product=None) -> TableVerification:
    """Compare divisor * cell with the whole op x y + sign * y x of every published cell.

    Each table kind is one (sign, divisor) pair: a product is x y over 1,
    a half-commutator x y - y x over 2 and a half-anticommutator x y + y x
    over 2.  A cell holds when it names only generators of its table's basis
    and divisor * (sum of coefficient * generator) equals the whole op
    exactly.  The basis is linearly independent, so that is
    decompose(op(row, col), basis) == cell; only a failing cell is
    decomposed, for its message.  The published side is multiplied out once
    per process for each distinct (text, basis, divisor), by
    `reference_tables.multiplied_cell`.  product(x, y) gives each ordered
    product of the catalog: a verify pass shares one cache of `_product`
    between the tables and jeffrey checks (`checks.Facts`), and without
    one, each distinct product is formed once per call and nothing of it is
    kept.  A cell is compared as `Mat4`'s flat term map with the sum or
    difference of its two products' maps (`ring.sum_terms`), which builds
    no Mat4 and no RingElem.
    """
    from . import reference_tables

    if table_specs is None:
        table_specs = reference_tables.TABLES
    if product is None:
        product = lru_cache(maxsize=None)(_product)
    report = TableVerification()
    for spec in table_specs:
        row_ids, col_ids, basis = _spec_ids(spec)
        divisor = _kind(spec.kind)[1]
        for i, x in enumerate(row_ids):
            for j, y in enumerate(col_ids):
                report.cells_checked += 1
                operands = _spec_operands(spec, x, y)
                cell = reference_tables.multiplied_cell(spec.cells[i][j], basis, divisor)
                if cell is not None and cell._terms == _whole_terms(spec.kind, *operands, product):
                    continue
                report.mismatches.append(
                    CellMismatch(
                        spec.name,
                        spec.kind,
                        spec.row_names[i],
                        spec.col_names[j],
                        str(reference_tables.parse_cell(spec.cells[i][j])),
                        _generated_text(_table_op(spec.kind, *operands, product), basis),
                    )
                )
    return report


def _generated_text(op: Mat4, basis) -> str:
    """The decomposition of a failing cell's op in basis, or op's matrix where decompose has none.

    A catalog matrix off its published form can take op out of the span of
    the basis (NotInSpanError) or leave a basis matrix's tr(X^2) zero or no
    unit, and the mismatch still names the cell.
    """
    try:
        return str(decompose(op, basis))
    except (ValueError, ZeroDivisionError):  # NotInSpanError is a ValueError
        return repr(op)
