from fractions import Fraction

import pytest

from fmspace.catalog import (
    ALL_IDS,
    BASIS_IDS,
    GeneratorId,
    ISOMETRIC_IDS,
    METAMORPHIC_IDS,
    SHIFT_IDS,
    SquareClass,
    SymmetryClass,
    classify_square,
    get_generator,
    homogeneity_order,
    resolve_id,
    symmetry_class,
    symmetry_space_dimensions,
)
from fmspace.matrices import IDENTITY, Mat4
from fmspace.ring import RingElem


def test_twenty_named_matrices():
    assert len(ALL_IDS) == 20
    assert len(BASIS_IDS) == 16
    assert len(ISOMETRIC_IDS) == 6
    assert len(METAMORPHIC_IDS) == 9
    assert len(SHIFT_IDS) == 4


def test_resolve_id_accepts_primes():
    assert resolve_id("B0'") is GeneratorId.B0P
    assert resolve_id("F3p") is GeneratorId.F3P
    assert resolve_id("one") is GeneratorId.ONE
    with pytest.raises(KeyError):
        resolve_id("Z9")


class TestGetGenerator:
    def test_one_is_identity(self):
        assert get_generator(GeneratorId.ONE) == IDENTITY

    def test_b0_is_diag(self):
        expected = Mat4.from_entries([(0, 0, 1), (1, 1, 1), (2, 2, -1), (3, 3, -1)])
        assert get_generator(GeneratorId.B0) == expected

    def test_t1_entries(self):
        t1 = get_generator(GeneratorId.T1)
        assert [t1[r, 0] for r in range(4)] == [
            RingElem(),
            RingElem.monomial(1),
            RingElem(),
            RingElem(),
        ]
        assert t1[0, 3] == RingElem.monomial(Fraction(-1, 8), 4, -1)
        assert t1[2, 1] == RingElem.monomial(8, 0, 1)
        assert t1[1, 2] == RingElem.monomial(Fraction(-1, 4), 2, -1)
        assert t1[3, 2] == RingElem.monomial(1)

    def test_t0_equals_identity_matrix(self):
        assert get_generator(GeneratorId.T0) == IDENTITY


class TestSymmetryClass:
    def test_all_isometric(self):
        for gid in ISOMETRIC_IDS:
            assert symmetry_class(get_generator(gid)) is SymmetryClass.ISOMETRIC

    def test_all_metamorphic(self):
        for gid in METAMORPHIC_IDS:
            assert symmetry_class(get_generator(gid)) is SymmetryClass.METAMORPHIC

    def test_mixed_sum_is_neither(self):
        x = get_generator(GeneratorId.B0) + get_generator(GeneratorId.F1)
        assert symmetry_class(x) is SymmetryClass.NEITHER

    def test_zero_matrix_convention(self):
        # zero satisfies both mirror conditions; reported isometric by convention
        assert symmetry_class(Mat4.zero()) is SymmetryClass.ISOMETRIC


EXPECTED_SQUARES = {
    GeneratorId.B0: ("boost", 0),
    GeneratorId.B0P: ("boost", 0),
    GeneratorId.B1: ("boost", 1),
    GeneratorId.B2: ("boost", 2),
    GeneratorId.D1: ("rotation", 1),
    GeneratorId.D2: ("rotation", 2),
    GeneratorId.F1: ("rotation", 1),
    GeneratorId.F2: ("rotation", 2),
    GeneratorId.F3: ("boost", 3),
    GeneratorId.H1: ("boost", 1),
    GeneratorId.H2: ("boost", 2),
    GeneratorId.F3P: ("boost", 3),
    GeneratorId.P0: ("boost", 0),
    GeneratorId.P3: ("rotation", 3),
    GeneratorId.P3P: ("rotation", 3),
}


class TestClassifySquare:
    def test_b2_is_boost_2(self):
        assert classify_square(get_generator(GeneratorId.B2)) == SquareClass("boost", 2)

    def test_d1_is_rotation_1(self):
        assert classify_square(get_generator(GeneratorId.D1)) == SquareClass("rotation", 1)

    def test_t1_is_other(self):
        # t1 @ t1 = 8 pi t2, not a multiple of the identity
        assert classify_square(get_generator(GeneratorId.T1)) == SquareClass("other")

    def test_full_expected_classification(self):
        for gid, (kind, order) in EXPECTED_SQUARES.items():
            assert classify_square(get_generator(gid)) == SquareClass(kind, order), gid

    def test_scaled_matrix_is_other(self):
        assert classify_square(get_generator(GeneratorId.B0).scale(2)) == SquareClass("other")


class TestHomogeneityOrder:
    def test_f3(self):
        assert homogeneity_order(get_generator(GeneratorId.F3)) == 3

    def test_t1(self):
        assert homogeneity_order(get_generator(GeneratorId.T1)) == 1

    def test_mixed_orders_is_none(self):
        x = get_generator(GeneratorId.B0) + get_generator(GeneratorId.B1)
        assert homogeneity_order(x) is None

    def test_subscripts_match(self):
        expected = {"One": 0, "T0": 0, "T1": 1, "T2": 2, "T3": 3}
        for gid in ALL_IDS:
            order = expected.get(gid.value, None)
            if order is None:
                order = int(gid.value[1])
            assert homogeneity_order(get_generator(gid)) == order, gid


def test_symmetry_space_dimensions():
    # six isometric parameters, ten metamorphic: the swapped pairs, and the
    # pairs plus the fixed points, of the permutation that counter_transpose
    # applies to the 16 coordinate matrices E_(mu,nu)
    image = {}
    for mu in range(4):
        for nu in range(4):
            ((r, c, x),) = Mat4.from_entries([(mu, nu, 1)]).counter_transpose().entries()
            assert x == RingElem.monomial(1)
            image[mu, nu] = (r, c)
    assert sorted(image.values()) == sorted(image)  # a permutation
    assert all(image[image[k]] == k for k in image)  # an involution
    fixed = sum(image[k] == k for k in image)
    pairs = (len(image) - fixed) // 2
    assert symmetry_space_dimensions() == (pairs, pairs + fixed) == (6, 10)
