import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmspace.catalog import GeneratorId, get_generator
from fmspace.matrices import (
    IDENTITY,
    METRIC,
    Mat4,
    bilinear,
    commutator,
    entries_at,
    eval_mat,
)
from fmspace.ring import ZERO, RingElem


def random_mat(rng: random.Random) -> Mat4:
    entries = []
    for _ in range(rng.randint(1, 6)):
        entries.append(
            (
                rng.randrange(4),
                rng.randrange(4),
                Fraction(rng.randint(-5, 5), rng.randint(1, 5)),
                rng.randint(-4, 4),
                rng.randint(-1, 1),
            )
        )
    return Mat4.from_entries(entries)


class TestMatMul:
    def test_b0_squares_to_identity(self):
        b0 = get_generator(GeneratorId.B0)
        assert b0 @ b0 == IDENTITY

    def test_f1_f2_is_minus_f3(self):
        f1 = get_generator(GeneratorId.F1)
        f2 = get_generator(GeneratorId.F2)
        f3 = get_generator(GeneratorId.F3)
        assert f1 @ f2 == -f3

    def test_identity_neutral(self):
        rng = random.Random(3)
        for _ in range(20):
            x = random_mat(rng)
            assert x @ IDENTITY == x
            assert IDENTITY @ x == x


class TestCounterTranspose:
    def test_metric_is_fixed(self):
        assert METRIC.counter_transpose() == METRIC

    def test_b0_is_odd(self):
        b0 = get_generator(GeneratorId.B0)
        assert b0.counter_transpose() == -b0

    def test_f1_is_even(self):
        f1 = get_generator(GeneratorId.F1)
        assert f1.counter_transpose() == f1

    def test_entry_mirroring(self):
        x = Mat4.from_entries([(0, 1, 3, 2, 0)])
        assert x.counter_transpose()[2, 3] == RingElem.monomial(3, 2, 0)

    def test_matches_m_xt_m(self):
        rng = random.Random(9)
        for _ in range(25):
            x = random_mat(rng)
            assert x.counter_transpose() == METRIC @ x.transpose() @ METRIC

    def test_involution_and_antihomomorphism(self):
        rng = random.Random(13)
        for _ in range(25):
            x, y = random_mat(rng), random_mat(rng)
            assert x.counter_transpose().counter_transpose() == x
            assert (x @ y).counter_transpose() == y.counter_transpose() @ x.counter_transpose()


class TestCommutators:
    def test_b0_b2_commutator(self):
        b0 = get_generator(GeneratorId.B0)
        b2 = get_generator(GeneratorId.B2)
        d2 = get_generator(GeneratorId.D2)
        assert commutator(b0, b2) == d2.scale(2)

    def test_self_commutator_vanishes(self):
        rng = random.Random(17)
        for _ in range(20):
            x = random_mat(rng)
            assert commutator(x, x).is_zero

    def test_b0_b2_anticommutator_vanishes(self):
        b0 = get_generator(GeneratorId.B0)
        b2 = get_generator(GeneratorId.B2)
        assert (b0 @ b2 + b2 @ b0).is_zero


class TestBilinear:
    def test_null_direction_pair(self):
        u = (1.0, 0.0, 0.0, 1.0)
        assert bilinear(u, u) == 2.0

    def test_example_vector(self):
        u = (1.0, 2.0, 3.0, 4.0)
        assert bilinear(u, u) == 20.0

    def test_symmetry(self):
        rng = random.Random(23)
        for _ in range(50):
            u = [rng.uniform(-3, 3) for _ in range(4)]
            v = [rng.uniform(-3, 3) for _ in range(4)]
            assert bilinear(u, v) == pytest.approx(bilinear(v, u), rel=1e-14, abs=1e-14)

    def test_matches_matrix_form(self):
        m = eval_mat(METRIC, 1.0)
        rng = random.Random(29)
        for _ in range(20):
            u = np.array([rng.uniform(-3, 3) for _ in range(4)])
            v = np.array([rng.uniform(-3, 3) for _ in range(4)])
            assert bilinear(u, v) == pytest.approx(float(u @ m @ v), rel=1e-13)


class TestEvalMat:
    def test_metric_is_counter_diagonal_ones(self):
        for q in (0.3, 1.0, 7.0):
            m = eval_mat(METRIC, q)
            assert np.array_equal(m, np.fliplr(np.eye(4)))

    def test_b2_at_unit_q(self):
        m = eval_mat(get_generator(GeneratorId.B2), 1.0)
        expected = np.zeros((4, 4))
        expected[0, 2] = -1.0
        expected[1, 3] = 1.0
        expected[2, 0] = -1.0
        expected[3, 1] = 1.0
        assert np.array_equal(m, expected)

    def test_compiled_terms_keep_the_bits_of_the_term_loop(self):
        """eval_mat reads each matrix's compiled float terms; every entry keeps the bits of the plain loop."""
        import math

        rng = random.Random(7)
        mats = [get_generator(g) for g in GeneratorId] + [random_mat(rng) for _ in range(50)]
        for x in mats:
            for q in (1e-3, 0.37, 1.0, 2.0, 7.5, 1e3):
                reference = np.zeros((4, 4))
                for r, c, entry in x.entries():
                    for (j, k), coef in entry._terms.items():  # evaluation order is insertion order
                        reference[r, c] += float(coef) * q**j * math.pi**k
                assert np.array_equal(eval_mat(x, q), reference), (x, q)
                assert x.float_terms is x.float_terms  # compiled once

    def test_zero_matrix(self):
        assert np.array_equal(eval_mat(Mat4.zero(), 2.0), np.zeros((4, 4)))

    @pytest.mark.parametrize("q", [np.float32(1.3), np.int64(2), np.float64(0.7), 2, Fraction(13, 10)], ids=repr)
    def test_a_real_q_that_is_not_an_mpf_evaluates_as_its_float(self, q):
        for gid in GeneratorId:
            x = get_generator(gid)
            m = eval_mat(x, q)
            assert m.dtype == np.float64, gid
            assert np.array_equal(m, eval_mat(x, float(q))), gid
            for _r, _c, entry in x.entries():
                assert type(entry.evaluate(q)) is float and entry.evaluate(q) == entry.evaluate(float(q)), gid

    def test_nonpositive_q_rejected(self):
        with pytest.raises(ValueError):
            eval_mat(METRIC, 0.0)
        with pytest.raises(ValueError):
            eval_mat(METRIC, -1.5)


class TestMetricFacts:
    def test_m_squared_is_identity_exact(self):
        assert METRIC @ METRIC == IDENTITY

    def test_symmetric_and_traceless_exact(self):
        """With M^2 = 1 these fix the spectrum: real, each eigenvalue +/-1, and as many of each."""
        assert METRIC == METRIC.transpose()
        assert sum((METRIC[i, i] for i in range(4)), ZERO) == ZERO

    def test_signature_eigenvalues(self):
        """numpy's symmetric eigensolver on M, the float measure of the same fact."""
        assert np.linalg.eigvalsh(eval_mat(METRIC, 1.0)).tolist() == [-1.0, -1.0, 1.0, 1.0]


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(31)
        for _ in range(10):
            x = random_mat(rng)
            assert Mat4.from_json_dict(x.to_json_dict()) == x

    def test_unknown_key_is_refused(self):
        d = dict(get_generator(GeneratorId.B1).to_json_dict(), junk=1)
        with pytest.raises(ValueError, match="^unknown key 'junk' in a matrix"):
            Mat4.from_json_dict(d)


def test_entries_at_the_exact_q_are_the_exact_entries():
    t1 = get_generator(GeneratorId.T1)
    assert entries_at(t1, RingElem.qpow(1)) == list(t1.entries())
    with pytest.raises(ValueError, match="the ring's q itself"):
        entries_at(t1, RingElem.qpow(2))


def dense_matmul(x: Mat4, y: Mat4) -> Mat4:
    """Reference product: the plain triple loop over all 64 index triples."""
    return Mat4(
        [[sum((x[i, k] * y[k, j] for k in range(4)), ZERO) for j in range(4)] for i in range(4)]
    )


def dense_sub(x: Mat4, y: Mat4) -> Mat4:
    return Mat4([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(x.rows, y.rows)])


class TestSparseStorage:
    def test_matmul_matches_dense_reference(self):
        ids = list(GeneratorId)
        for a in ids:
            x = get_generator(a)
            for b in ids:
                y = get_generator(b)
                assert x @ y == dense_matmul(x, y), (a, b)
                assert commutator(x, y) == dense_sub(dense_matmul(x, y), dense_matmul(y, x)), (a, b)

    def test_explicit_zeros_compare_and_hash_equal(self):
        product = get_generator(GeneratorId.B0) @ get_generator(GeneratorId.F2)
        grid = [list(row) for row in product.rows]
        assert sum(x.is_zero for row in grid for x in row) == 12
        explicit = Mat4(grid)
        assert explicit == product and hash(explicit) == hash(product)
        assert Mat4([[ZERO] * 4] * 4) == Mat4.zero()
        assert hash(Mat4([[ZERO] * 4] * 4)) == hash(Mat4.zero())
        assert Mat4([[RingElem.monomial(1) if i == j else ZERO for j in range(4)] for i in range(4)]) == IDENTITY

    def test_json_with_unit_denominators_and_zero_entries(self):
        product = get_generator(GeneratorId.T1) @ get_generator(GeneratorId.B2)
        d = product.to_json_dict()
        terms = [t for row in d["rows"] for entry in row for t in entry["terms"]]
        assert any(t["den"] == "1" for t in terms)
        assert any(not entry["terms"] for row in d["rows"] for entry in row)
        d["rows"][0][0]["terms"].append({"num": "0", "den": "1", "q": 0, "pi": 0})
        for t in terms:
            t["num"], t["den"] = str(3 * int(t["num"])), str(3 * int(t["den"]))
        rebuilt = Mat4.from_json_dict(d)
        assert rebuilt == product and hash(rebuilt) == hash(product)

    def test_absent_entries_read_as_zero(self):
        b2 = get_generator(GeneratorId.B2)
        assert b2[0, 0] is ZERO and b2[3, 3] is ZERO
        assert b2[0, 2] == RingElem.monomial(-1, 4, 0)
        assert b2.rows[0] == (ZERO, ZERO, RingElem.monomial(-1, 4, 0), ZERO)
        assert all(len(row) == 4 for row in Mat4.zero().rows)
        assert all(x is ZERO for row in Mat4.zero().rows for x in row)
        assert [(r, c) for r, c, _x in b2.entries()] == [(0, 2), (1, 3), (2, 0), (3, 1)]

    def test_scale_by_zero_and_cancellation_store_nothing(self):
        b0 = get_generator(GeneratorId.B0)
        assert b0.scale(ZERO).is_zero and list(b0.scale(0).entries()) == []
        assert list((b0 - b0).entries()) == []
        assert list((b0 + (-b0)).entries()) == []


# A dense reference: a 4x4 grid of RingElem, with each operation written out
# entry by entry in RingElem arithmetic.  Entries come from a seeded pool of
# zeros and sums of up to three terms with Fraction coefficients.
def _pool_entry(rng: random.Random) -> RingElem:
    terms = [((rng.randint(-2, 2), rng.randint(-1, 1)), Fraction(rng.randint(-3, 3), rng.randint(1, 4))) for _ in range(rng.randint(1, 3))]
    return RingElem(terms)


_POOL = [ZERO] * 8 + [_pool_entry(random.Random(seed)) for seed in range(40)]
_ENTRY = st.sampled_from(_POOL)
_GRID = st.lists(st.lists(_ENTRY, min_size=4, max_size=4), min_size=4, max_size=4)


def _dense_ops(a: list, b: list, f: RingElem) -> dict:
    idx = range(4)
    return {
        "add": [[a[i][j] + b[i][j] for j in idx] for i in idx],
        "sub": [[a[i][j] - b[i][j] for j in idx] for i in idx],
        "neg": [[-a[i][j] for j in idx] for i in idx],
        "matmul": [[sum((a[i][k] * b[k][j] for k in idx), ZERO) for j in idx] for i in idx],
        "scale": [[a[i][j] * f for j in idx] for i in idx],
        "transpose": [[a[j][i] for j in idx] for i in idx],
        "counter_transpose": [[a[3 - j][3 - i] for j in idx] for i in idx],
    }


def _flat_ops(x: Mat4, y: Mat4, f: RingElem) -> dict:
    return {
        "add": x + y,
        "sub": x - y,
        "neg": -x,
        "matmul": x @ y,
        "scale": x.scale(f),
        "transpose": x.transpose(),
        "counter_transpose": x.counter_transpose(),
    }


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_GRID, _GRID, st.one_of(_ENTRY, st.integers(-2, 2), st.sampled_from((Fraction(1, 2), Fraction(-4, 3)))))
def test_flat_storage_is_the_dense_reference(a, b, factor):
    """Each operation of the flat term map gives the dense grid's entries, in canonical form; equal matrices hash equal."""
    x, y = Mat4(a), Mat4(b)
    f = factor if isinstance(factor, RingElem) else RingElem.monomial(factor)
    flat = _flat_ops(x, y, factor)
    for name, grid in _dense_ops(a, b, f).items():
        got = flat[name]
        assert got.rows == tuple(map(tuple, grid)), name
        assert got == Mat4(grid) and hash(got) == hash(Mat4(grid)), name
        assert got.is_zero == all(e.is_zero for row in grid for e in row), name
        assert [(r, c) for r, c, _e in got.entries()] == [(r, c) for r in range(4) for c in range(4) if grid[r][c]], name
        for _r, _c, entry in got.entries():
            for _j, _k, coef in entry.terms():
                assert coef != 0 and (type(coef) is int or (type(coef) is Fraction and coef.denominator != 1)), (name, coef)
    assert (x == y) == (a == b) and (x - y).is_zero == (a == b)
    if x == y:
        assert hash(x) == hash(y)


@pytest.fixture
def fresh_catalog():
    """Clear every per-process cache built from the catalog matrices, before and after the test."""
    from fmspace import algebra, catalog, reference_tables

    caches = (catalog.get_generator, reference_tables.multiplied_cell, algebra._inverse_norm, algebra._by_entry)

    def clear():
        for cache in caches:
            cache.cache_clear()

    clear()
    yield
    clear()


def test_a_negated_generator_fails_the_tables_check_with_its_mismatch_text(monkeypatch, capsys, fresh_catalog):
    """B1 planted as -B1: `verify --suite tables` prints the 72 mismatches that the term-by-row storage printed."""
    from pathlib import Path

    from fmspace import catalog, cli

    flipped = [(r, c, -coef, *pows) for r, c, coef, *pows in catalog._ENTRIES[GeneratorId.B1]]
    monkeypatch.setitem(catalog._ENTRIES, GeneratorId.B1, flipped)
    assert cli.main(["verify", "--suite", "tables"]) == 1
    expected = (Path(__file__).parent / "data" / "tables_minus_b1.txt").read_text()
    assert capsys.readouterr().out == expected
