import random
from fractions import Fraction

import pytest

from fmspace.algebra import (
    Decomposition,
    NotInSpanError,
    build_reference_table,
    build_table,
    decompose,
    verify_reference_tables,
)
from fmspace.catalog import (
    BASIS_IDS,
    GeneratorId,
    ISOMETRIC_IDS,
    METAMORPHIC_IDS,
    SHIFT_IDS,
    get_generator,
    homogeneity_order,
    resolve_id,
)
from fmspace.fmt import jeffrey_identities
from fmspace.matrices import IDENTITY, commutator
from fmspace import reference_tables, ring
from fmspace.ring import RingElem, parse_ring


class TestDecompose:
    def test_commutator_b2_d2(self):
        # matrix algebra on the published generators forces the minus sign
        # (the published table carries +, recorded as an erratum)
        dec = decompose(commutator(get_generator(GeneratorId.B2), get_generator(GeneratorId.D2)))
        assert dec.coeffs == {GeneratorId.B0: RingElem.monomial(-2, 4, 0)}

    def test_identity(self):
        assert decompose(IDENTITY).coeffs == {GeneratorId.ONE: RingElem.monomial(1)}

    def test_b0_times_f2(self):
        dec = decompose(get_generator(GeneratorId.B0) @ get_generator(GeneratorId.F2))
        assert dec.coeffs == {GeneratorId.H2: RingElem.monomial(1)}

    def test_reconstruction_exact(self):
        rng = random.Random(41)
        for _ in range(30):
            coeffs = {
                gid: RingElem.monomial(
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                    rng.randint(-6, 6),
                    rng.randint(-2, 2),
                )
                for gid in rng.sample(list(BASIS_IDS), k=rng.randint(1, 5))
            }
            dec = Decomposition(coeffs)
            assert decompose(dec.reconstruct()) == dec

    def test_restricted_basis_not_in_span(self):
        for basis in ([GeneratorId.ONE], SHIFT_IDS):
            with pytest.raises(NotInSpanError) as err:
                decompose(get_generator(GeneratorId.B0), basis=basis)
            assert not err.value.residual.is_zero

    def test_restricted_basis_success(self):
        t1 = get_generator(GeneratorId.T1)
        t2 = get_generator(GeneratorId.T2)
        for basis in (SHIFT_IDS, [GeneratorId.T1, GeneratorId.T3]):
            dec = decompose(t1 @ t2, basis=basis)
            assert dec[GeneratorId.T3] == RingElem.monomial(1)
            assert dec[GeneratorId.T1] == RingElem.monomial(Fraction(-1, 4), 2, -1)

    @pytest.mark.parametrize("basis, words", [
        ([GeneratorId.ONE, GeneratorId.T1], "basis must be a subset"),
        (["B0", "X9"], "X9"),
    ])
    def test_basis_outside_both_families(self, basis, words):
        with pytest.raises(ValueError, match=words) as err:
            decompose(IDENTITY, basis=basis)
        assert not isinstance(err.value, NotInSpanError)

    def test_basis_is_trace_orthogonal(self):
        # the projection relies on tr(X Y) = 0 for X != Y and on tr(X^2) = +-4 q^(2 alpha)
        def trace(m):
            return sum((m[i, i] for i in range(4)), RingElem())

        for i, a in enumerate(BASIS_IDS):
            x = get_generator(a)
            for b in BASIS_IDS[i + 1 :]:
                assert trace(x @ get_generator(b)).is_zero, (a, b)
            c, j, k = trace(x @ x).as_monomial()
            assert (abs(c), j, k) == (4, 2 * homogeneity_order(x), 0), a

    def test_no_fraction_field(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("FieldElem constructed")

        monkeypatch.setattr(ring.FieldElem, "__init__", forbidden)
        assert verify_reference_tables().ok
        assert jeffrey_identities().ok


class TestBuildTable:
    def test_isometric_half_commutator_cell(self):
        table = build_table("half_commutator", ISOMETRIC_IDS, ISOMETRIC_IDS)
        i = ISOMETRIC_IDS.index(GeneratorId.B2)
        j = ISOMETRIC_IDS.index(GeneratorId.D2)
        assert table.cells[i][j].coeffs == {GeneratorId.B0: RingElem.monomial(-1, 4, 0)}

    def test_metamorphic_product_diagonal(self):
        table = build_table("product", [GeneratorId.F1], [GeneratorId.F1])
        assert table.cells[0][0].coeffs == {GeneratorId.ONE: RingElem.monomial(-1, 2, 0)}

    def test_commuting_triplet_cell_is_zero(self):
        table = build_table("half_commutator", [GeneratorId.F1], [GeneratorId.F2])
        assert table.cells[0][0].is_zero

    def test_json_rendering(self):
        table = build_table("product", [GeneratorId.B0], [GeneratorId.B1])
        d = table.to_json_dict()
        assert d["rows"] == ["B0"] and d["cols"] == ["B1"]
        assert "H1" in d["cells"][0][0]

    def test_text_rendering_layout(self):
        table = build_table("half_commutator", ISOMETRIC_IDS[:2], ISOMETRIC_IDS[:2])
        lines = table.to_text().splitlines()
        assert lines[0].split() == ["half_commutator", "B0", "B0p"]
        assert lines[1].startswith("B0")


class TestVerifyReferenceTables:
    def test_full_run_zero_mismatches(self):
        report = verify_reference_tables()
        assert report.cells_checked == 599
        assert report.mismatches == []

    def test_corrupted_cell_detected(self):
        import dataclasses

        spec = reference_tables.TABLES[0]
        cells = [list(row) for row in spec.cells]
        cells[0][1] = "-D2"  # truth is D2
        corrupted = dataclasses.replace(spec, cells=tuple(tuple(r) for r in cells))
        report = verify_reference_tables([corrupted])
        assert len(report.mismatches) == 1
        mismatch = report.mismatches[0]
        assert (mismatch.row, mismatch.col) == ("B0", "B2")
        assert mismatch.table == spec.name

    @pytest.mark.parametrize("name, row, col, wrong, message", [
        ("shift products", "T0", "T0", "One", "expected One, generated T0"),
        ("isometric products", "B0", "B0", "T0", "expected T0, generated One"),
    ])
    def test_same_matrix_wrong_name_is_a_mismatch(self, name, row, col, wrong, message):
        """One and T0 are the same matrix, but only one of them is in each table's basis."""
        import dataclasses

        spec = next(s for s in reference_tables.TABLES if s.name == name)
        i, j = spec.row_names.index(row), spec.col_names.index(col)
        assert get_generator(GeneratorId.ONE) == get_generator(GeneratorId.T0)
        cells = [list(r) for r in spec.cells]
        cells[i][j] = wrong
        report = verify_reference_tables([dataclasses.replace(spec, cells=tuple(map(tuple, cells)))])
        assert [str(m) for m in report.mismatches] == [f"{name} [{row}, {col}]: {message}"]

    @pytest.mark.parametrize("name, row, col, wrong, message", [
        ("isometric half-commutators", "B0", "B2", "-D2", "expected -D2, generated D2"),
        ("metamorphic half-anticommutators", "F1", "F2", "F3", "expected F3, generated -F3"),
        ("shift half-commutators", "T1", "T2", "T3", "expected T3, generated 0"),
    ])
    def test_a_wrong_half_op_cell_is_one_mismatch_with_the_halved_op(self, name, row, col, wrong, message):
        """The check compares 2 cell with x y -+ y x; the message still names the cell and (x y -+ y x) / 2."""
        import dataclasses

        spec = next(s for s in reference_tables.TABLES if s.name == name)
        i, j = spec.row_names.index(row), spec.col_names.index(col)
        cells = [list(r) for r in spec.cells]
        cells[i][j] = wrong
        report = verify_reference_tables([dataclasses.replace(spec, cells=tuple(map(tuple, cells)))])
        assert report.cells_checked == len(spec.row_names) * len(spec.col_names)
        assert [str(m) for m in report.mismatches] == [f"{name} [{row}, {col}]: {message}"]

    def test_empty_spec_list(self):
        report = verify_reference_tables([])
        assert report.cells_checked == 0
        assert report.ok


class TestAlgebraProperties:
    def test_closure_on_the_fifteen(self):
        # every commutator decomposes on the 15 generators alone (never One),
        # with single-monomial coefficients
        gens = list(ISOMETRIC_IDS) + list(METAMORPHIC_IDS)
        for i, ga in enumerate(gens):
            for gb in gens[i + 1 :]:
                dec = decompose(commutator(get_generator(ga), get_generator(gb)))
                assert dec[GeneratorId.ONE].is_zero
                for gid, coef in dec.items():
                    assert coef.is_monomial, (ga, gb, gid)

    def test_triplet_commutativity(self):
        triplets = (
            (GeneratorId.F1, GeneratorId.F2, GeneratorId.F3),
            (GeneratorId.H1, GeneratorId.H2, GeneratorId.F3P),
            (GeneratorId.P0, GeneratorId.P3, GeneratorId.P3P),
        )
        for triplet in triplets:
            for a in triplet:
                for b in triplet:
                    assert commutator(get_generator(a), get_generator(b)).is_zero

    def test_cross_family_isometric_commutation(self):
        pairs = (
            (GeneratorId.B0, GeneratorId.B0P),
            (GeneratorId.B0, GeneratorId.B1),
            (GeneratorId.B0P, GeneratorId.B2),
            (GeneratorId.B1, GeneratorId.B2),
            (GeneratorId.D1, GeneratorId.D2),
            (GeneratorId.B0, GeneratorId.D1),
            (GeneratorId.B1, GeneratorId.D2),
            (GeneratorId.B2, GeneratorId.D1),
            (GeneratorId.B0P, GeneratorId.D2),
        )
        for a, b in pairs:
            assert commutator(get_generator(a), get_generator(b)).is_zero, (a, b)

    def test_jacobi_spot(self):
        trio = (GeneratorId.B0, GeneratorId.F1, GeneratorId.P3)
        x, y, z = (get_generator(g) for g in trio)
        total = (
            commutator(x, commutator(y, z))
            + commutator(y, commutator(z, x))
            + commutator(z, commutator(x, y))
        )
        assert total.is_zero


@pytest.mark.parametrize(
    "table, row, col, published, generated",
    reference_tables.PUBLISHED_TABLE_ERRATA,
    ids=[f"{t} [{r}, {c}]" for t, r, c, _p, _g in reference_tables.PUBLISHED_TABLE_ERRATA],
)
def test_errata_entry_is_the_reference_cell_and_the_published_text_fails(table, row, col, published, generated):
    """The ledger's matrix-algebra text is the shipped cell and multiplies out to op(row, col); the published one does not."""
    import dataclasses

    specs = {spec.name: spec for spec in reference_tables.TABLES}
    assert table in specs
    spec = specs[table]
    assert row in spec.row_names and col in spec.col_names
    assert spec.cells[spec.row_names.index(row)][spec.col_names.index(col)] == generated

    def holds(text: str) -> bool:
        cell = dataclasses.replace(spec, row_names=(row,), col_names=(col,), cells=((text,),))
        return verify_reference_tables([cell]).ok

    assert holds(generated)
    assert not holds(published)


@pytest.mark.parametrize("spec", [*reference_tables.TABLES, reference_tables.SHIFT_DECOMPOSITIONS], ids=lambda spec: spec.name)
def test_build_reference_table_generates_the_published_cells(spec):
    """Products, half-commutators and half-anticommutators, each generated cell equal to the published one."""
    table = build_reference_table(spec)
    assert (table.kind, [g.value for g in table.row_ids]) == (spec.kind, [resolve_id(n).value for n in spec.row_names])
    assert table.cells == tuple(tuple(reference_tables.parse_cell(text) for text in row) for row in spec.cells)


def test_parse_cell_handles_postfix_powers():
    dec = reference_tables.parse_cell("-P0 q^4")
    assert dec.coeffs == {GeneratorId.P0: RingElem.monomial(-1, 4, 0)}


def _canonical(coef) -> bool:
    """An int when integral, else a Fraction that is not integral."""
    return type(coef) is int or (type(coef) is Fraction and coef.denominator != 1)


def _coefficients(x: RingElem):
    return [c for _j, _k, c in x.terms()]


class TestCanonicalCoefficients:
    def test_catalog_products_commutators_and_decompositions(self):
        ids = list(GeneratorId)
        seen = set()
        for a in ids:
            for b in ids:
                x, y = get_generator(a), get_generator(b)
                for m in (x, x @ y, commutator(x, y)):
                    entries = [entry for row in m.rows for entry in row]
                    coeffs = list(decompose(m).coeffs.values())
                    for value in entries + coeffs:
                        for c in _coefficients(value):
                            assert _canonical(c), (a, b, value, type(c))
                            seen.add(type(c))
        assert seen == {int, Fraction}

    def test_invert_monomial(self):
        for coef in (1, -1, 2, -8, Fraction(1, 8), Fraction(-3, 4), Fraction(8, 4)):
            x = RingElem.monomial(coef, 4, -1)
            inv = x.invert_monomial()
            assert all(_canonical(c) for c in _coefficients(inv)), coef
            assert x * inv == RingElem.monomial(1)
        for gid in GeneratorId:
            for _r, _c, entry in get_generator(gid).entries():
                assert all(_canonical(c) for c in _coefficients(entry.invert_monomial()))

    def test_parse_ring_and_json(self):
        for text in ("8/4 q^2", "(1/2 + 1/2) pi", "-q^4/(8pi)", "3/6", "4", "1/2 + 1/(128 pi^2)"):
            assert all(_canonical(c) for c in _coefficients(parse_ring(text))), text
        for cell in reference_tables.TABLES[0].cells[0]:
            for coef in reference_tables.parse_cell(cell).coeffs.values():
                assert all(_canonical(c) for c in _coefficients(coef)), cell
        d = {"terms": [
            {"num": "6", "den": "3", "q": 0, "pi": 0},
            {"num": "-5", "den": "1", "q": 2, "pi": 0},
            {"num": "2", "den": "6", "q": 2, "pi": 1},
        ]}
        x = RingElem.from_json_dict(d)
        assert [type(c) for c in _coefficients(x)] == [int, int, Fraction]
        assert x.to_json_dict()["terms"][0] == {"num": "2", "den": "1", "q": 0, "pi": 0}


# Ring operations of one warm verify_reference_tables() pass, plus 20% headroom.
# Measured: 1000 products and 1464 sums and differences, with each ordered
# catalog product computed once and each published cell multiplied out once
# per process (3368 and 1472 multiplying out every cell on each pass and
# halving each half-op; 14508 and 7920 decomposing all 599 cells; the dense
# layer made 24128 and 32248).
_MUL_CEILING = 1200
_ADD_CEILING = 1757


def test_reference_tables_ring_op_counts(monkeypatch):
    """A deterministic guard against dense loops returning to the exact layer."""
    assert verify_reference_tables().ok  # fill the per-generator and per-cell caches first
    counts = {"mul": 0, "add": 0}
    mul, add, sub = RingElem.__mul__, RingElem.__add__, RingElem.__sub__

    def counted_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    def counted_add(self, other):
        counts["add"] += 1
        return add(self, other)

    def counted_sub(self, other):
        counts["add"] += 1
        return sub(self, other)

    monkeypatch.setattr(RingElem, "__mul__", counted_mul)
    monkeypatch.setattr(RingElem, "__add__", counted_add)
    monkeypatch.setattr(RingElem, "__sub__", counted_sub)
    assert verify_reference_tables().ok
    assert counts["mul"] <= _MUL_CEILING, counts
    assert counts["add"] <= _ADD_CEILING, counts


_HALF = RingElem.rational(1, 2)
_OPS = {
    "product": lambda x, y: x @ y,
    "half_commutator": lambda x, y: (x @ y - y @ x).scale(_HALF),
    "half_anticommutator": lambda x, y: (x @ y + y @ x).scale(_HALF),
}


@pytest.mark.parametrize("kind", list(_OPS))
@pytest.mark.parametrize(
    "basis",
    [None, ISOMETRIC_IDS, METAMORPHIC_IDS, SHIFT_IDS, (GeneratorId.T1,), (GeneratorId.ONE, GeneratorId.B0)],
    ids=["full", "isometric", "metamorphic", "shift", "T1", "One,B0"],
)
def test_table_cells_match_direct_decomposition(kind, basis):
    """Every build_table cell is decompose(op(x, y), basis), or raises as it does."""
    for x in GeneratorId:
        for y in GeneratorId:
            op = _OPS[kind](get_generator(x), get_generator(y))
            try:
                expected = decompose(op, basis)
            except NotInSpanError as exc:
                with pytest.raises(NotInSpanError) as raised:
                    build_table(kind, (x,), (y,), basis)
                assert raised.value.residual == exc.residual, (x, y)
            else:
                assert build_table(kind, (x,), (y,), basis).cells == ((expected,),), (x, y)


@pytest.mark.parametrize("kind, basis, words", [
    ("sum", None, "unknown table kind"),
    ("product", (GeneratorId.B1, GeneratorId.T1), "basis must be a subset"),
])
def test_build_table_rejects_as_decompose_does(kind, basis, words):
    with pytest.raises(ValueError, match=words):
        build_table(kind, [GeneratorId.B1], [GeneratorId.B2], basis=basis)
