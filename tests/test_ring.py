import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmspace import reference_tables
from fmspace.ring import (
    ONE,
    ZERO,
    FieldElem,
    RingElem,
    format_ring,
    parse_linear,
    parse_ring,
)

Q2 = RingElem.qpow(2)
Q4 = RingElem.qpow(4)


def ring_elements(max_terms=4, max_pow=6):
    coefs = st.fractions(
        min_value=Fraction(-9), max_value=Fraction(9), max_denominator=9
    )
    term = st.tuples(
        st.tuples(
            st.integers(min_value=-max_pow, max_value=max_pow),
            st.integers(min_value=-3, max_value=3),
        ),
        coefs,
    )
    return st.lists(term, max_size=max_terms).map(RingElem)


def random_monomial(rng: random.Random) -> RingElem:
    coef = Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 9))
    return RingElem.monomial(coef, rng.randint(-6, 6), rng.randint(-2, 2))


class TestAdd:
    def test_like_terms_merge(self):
        assert Q2 + Q2 == RingElem.monomial(2, 2, 0)

    def test_cancellation_gives_zero(self):
        a = RingElem.monomial(Fraction(1, 8), 4, -1)
        b = RingElem.monomial(Fraction(-1, 8), 4, -1)
        assert (a + b).is_zero
        assert a + b == ZERO

    def test_distinct_monomials_stay(self):
        x = Q2 + RingElem.pipow(-1)
        assert len(list(x.terms())) == 2
        # re-canonicalization is a no-op
        assert RingElem({(j, k): c for j, k, c in x.terms()}) == x

    def test_add_zero_identity(self):
        assert Q4 + ZERO == Q4


class TestMul:
    def test_exponent_addition(self):
        assert Q2 * Q4 == RingElem.qpow(6)

    def test_inverse_monomial(self):
        a = RingElem.monomial(Fraction(-1, 8), 4, -1)  # -q^4/(8 pi)
        b = RingElem.monomial(-8, -4, 1)  # -8 pi q^-4
        assert a * b == ONE

    def test_zero_annihilates(self):
        rng = random.Random(7)
        for _ in range(50):
            assert (random_monomial(rng) * ZERO).is_zero

    def test_mul_one_identity(self):
        assert Q2 * ONE == Q2


class TestEval:
    def test_q4_over_64pi2_at_2(self):
        a = RingElem.monomial(Fraction(1, 64), 4, -2)
        assert a.evaluate(2.0) == pytest.approx(16 / (64 * math.pi**2), rel=1e-14)
        assert a.evaluate(2.0) == pytest.approx(0.02533029591, rel=1e-9)

    def test_zero_evaluates_to_zero(self):
        assert ZERO.evaluate(1.7) == 0.0

    def test_plain_square(self):
        assert Q2.evaluate(1.5) == pytest.approx(2.25, abs=0)

    def test_homomorphism(self):
        rng = random.Random(11)
        for _ in range(200):
            a = random_monomial(rng) + random_monomial(rng)
            b = random_monomial(rng) + random_monomial(rng)
            for q in (0.5, 1.3, 2.0):
                lhs = (a * b).evaluate(q)
                rhs = a.evaluate(q) * b.evaluate(q)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_mpf_evaluation(self):
        import mpmath

        with mpmath.workdps(40):
            val = RingElem.monomial(1, 0, 2).evaluate(mpmath.mpf(1))
            assert abs(val - mpmath.mp.pi**2) < mpmath.mpf(10) ** -35

    def test_mpf_evaluation_is_every_term_in_full(self):
        """Leaving out a +-1 coefficient over 1 and pi**0 changes no bit of an mpf value."""
        import mpmath

        def in_full(x, q):
            pi = +mpmath.mp.pi
            total = mpmath.mpf(0)
            for (j, k), c in x._terms.items():
                total += mpmath.mpf(c.numerator) / c.denominator * q**j * pi**k
            return total

        rng = random.Random(13)
        coefs = (1, -1, 2, -3, Fraction(1, 3), Fraction(-5, 7))
        elements = [ZERO, ONE, -ONE, Q2, -Q4, RingElem.monomial(-1, -3, 1)]
        for _ in range(300):
            terms = [((rng.randint(-6, 6), rng.randint(-2, 2)), rng.choice(coefs)) for _ in range(rng.randint(1, 3))]
            elements.append(RingElem(terms))
        for dps in (15, 30, 60):
            with mpmath.workdps(dps):
                for q in (mpmath.mpf("0.37"), mpmath.mpf(1), mpmath.mpf("2.9")):
                    for x in elements:
                        got = x.evaluate(q)
                        assert type(got) is mpmath.mpf and got == in_full(x, q), (x, dps)


class TestFieldElem:
    def test_product_of_inverses(self):
        x = FieldElem(Q2) * FieldElem(ONE, Q2)
        assert x == FieldElem(ONE)

    def test_invert_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            FieldElem(ZERO).invert()

    def test_quotient_simplifies(self):
        # (q^4/(8 pi)) / (q^2/(4 pi)) = q^2/2, checked by cross-multiplication
        num = FieldElem(RingElem.monomial(Fraction(1, 8), 4, -1))
        den = FieldElem(RingElem.monomial(Fraction(1, 4), 2, -1))
        quotient = num / den
        expected = FieldElem(RingElem.monomial(Fraction(1, 2), 2, 0))
        assert quotient == expected
        assert quotient.num * expected.den == expected.num * quotient.den

    def test_cross_multiplication_equality(self):
        a = FieldElem(Q2 + ONE, Q4)
        b = FieldElem((Q2 + ONE) * Q2, Q4 * Q2)
        assert a == b

    def test_to_ring(self):
        a = FieldElem((Q2 + ONE) * Q4, Q2 + ONE)
        assert a.to_ring() == Q4
        b = FieldElem(ONE, Q2 + ONE)
        assert b.to_ring() is None


class TestDivideExact:
    def test_binomial_division(self):
        a = (Q2 + ONE) * (Q4 + RingElem.pipow(1))
        assert a.divide_exact(Q2 + ONE) == Q4 + RingElem.pipow(1)

    def test_laurent_shift_division(self):
        a = RingElem.qpow(-2) + ONE  # q^-2 (1 + q^2)
        b = Q2 + Q4  # q^2 (1 + q^2)
        assert a.divide_exact(b) == RingElem.qpow(-4)

    def test_not_divisible(self):
        assert ONE.divide_exact(Q2 + ONE) is None


@settings(max_examples=150)
@given(ring_elements(), ring_elements(), ring_elements())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_ring_axioms_thousand_random_triples():
    rng = random.Random(2024)
    for _ in range(1000):
        a = random_monomial(rng) + random_monomial(rng)
        b = random_monomial(rng) + random_monomial(rng)
        c = random_monomial(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestSerialization:
    def test_round_trip_and_canonical_order(self):
        x = RingElem.monomial(Fraction(-3, 7), 4, -2) + RingElem.monomial(2, -1, 0)
        d = x.to_json_dict()
        assert [(t["q"], t["pi"]) for t in d["terms"]] == [(-1, 0), (4, -2)]
        assert all(isinstance(t["num"], str) for t in d["terms"])
        assert RingElem.from_json_dict(d) == x

    def test_zero_round_trip(self):
        assert RingElem.from_json_dict(ZERO.to_json_dict()).is_zero

    def test_big_integers_survive(self):
        big = 10**30 + 7
        x = RingElem.monomial(Fraction(big, 3), 0, 0)
        assert RingElem.from_json_dict(x.to_json_dict()) == x

    def test_fields_are_integers_or_integer_strings(self):
        assert RingElem.from_json_dict({"terms": [{"num": -6, "den": "4", "q": -2, "pi": 1}]}) == RingElem.monomial(Fraction(-3, 2), -2, 1)
        for field, value in (("q", 1.5), ("q", "1"), ("pi", True), ("pi", 0.0), ("num", "1.5"), ("num", True),
                             ("num", " 1"), ("den", 2.0), ("den", "1e3"), ("den", None)):
            term = {"num": "1", "den": "1", "q": 0, "pi": 0, field: value}
            with pytest.raises(ValueError, match=f"^{field} must be an integer in ring term "):
                RingElem.from_json_dict({"terms": [term]})

    def test_a_second_term_with_the_same_powers_is_refused(self):
        """Two terms with one (q, pi) would read as the last alone: a wrong value, so a ValueError naming the second."""
        first, second = ({"num": num, "den": "1", "q": 0, "pi": 0} for num in ("1", "2"))
        with pytest.raises(ValueError, match=r"^a second term with q = 0, pi = 0 in ring term \{'num': '2'"):
            RingElem.from_json_dict({"terms": [first, second]})
        zero = {"num": "0", "den": "1", "q": 2, "pi": -1}
        with pytest.raises(ValueError, match="a second term with q = 2, pi = -1"):
            RingElem.from_json_dict({"terms": [zero, dict(zero, num="3")]})

    def test_unknown_keys_are_refused(self):
        term = {"num": "1", "den": "1", "q": 0, "pi": 0}
        with pytest.raises(ValueError, match=r"^unknown key 'junk' in ring term \{'num': '1'"):
            RingElem.from_json_dict({"terms": [dict(term, junk=0)]})
        with pytest.raises(ValueError, match=r"^unknown key 'extra' in ring element "):
            RingElem.from_json_dict({"terms": [term], "extra": []})


class TestPower:
    def test_powers_are_repeated_products(self):
        x = RingElem.monomial(Fraction(-3, 2), 1, -1) + RingElem.monomial(2, 0, 1)
        assert x**0 == ONE and x**1 == x and x**3 == x * x * x

    def test_a_negative_power_of_a_monomial_is_its_inverse_power(self):
        m = RingElem.monomial(Fraction(-3, 2), 1, -1)
        assert m**-2 == RingElem.monomial(Fraction(4, 9), -2, 2)
        with pytest.raises(ValueError, match="not a monomial"):
            (m + ONE) ** -1
        with pytest.raises(ZeroDivisionError):
            ZERO**-1


class TestParseFormat:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0", ZERO),
            ("q^2", Q2),
            ("-q^2/(4pi)", RingElem.monomial(Fraction(-1, 4), 2, -1)),
            ("1/2 + 1/(128 pi^2)", RingElem.monomial(Fraction(1, 2)) + RingElem.monomial(Fraction(1, 128), 0, -2)),
            ("8pi", RingElem.monomial(8, 0, 1)),
            ("2pi/q^2", RingElem.monomial(2, -2, 1)),
            ("-q^6/(32pi^2)", RingElem.monomial(Fraction(-1, 32), 6, -2)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_ring(text) == expected

    def test_format_round_trips(self):
        rng = random.Random(5)
        for _ in range(100):
            x = random_monomial(rng) + random_monomial(rng)
            assert parse_ring(format_ring(x)) == x

    def test_parse_linear(self):
        combo = parse_linear("q^4 B0 - 2 D2", names={"B0", "D2"})
        assert combo == {"B0": Q4, "D2": RingElem.rational(-2)}
        assert parse_linear("0", names={"B0"}) == {}

    def test_parse_linear_grouped(self):
        combo = parse_linear("(A - B)/2", names={"A", "B"})
        assert combo == {"A": RingElem.rational(1, 2), "B": RingElem.rational(-1, 2)}

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_ring("q^2 B0")
        with pytest.raises(ValueError):
            parse_linear("q^2", names={"B0"})
        with pytest.raises(ValueError):
            parse_linear("A B", names={"A", "B"})
        for text in ("2^3", "q^", "(q", "1.5", "q^2 B0'"):
            with pytest.raises(ValueError):
                parse_ring(text)
            with pytest.raises(ValueError):
                parse_linear(text, names={"B0"})

    def test_every_published_cell_parses_as_pinned(self):
        """Each distinct text of the tables, the shift decompositions and the errata, with its parse."""
        texts = [text for spec in (*reference_tables.TABLES, reference_tables.SHIFT_DECOMPOSITIONS)
                 for row in spec.cells for text in row]
        texts += [text for entry in reference_tables.PUBLISHED_TABLE_ERRATA for text in entry[3:5]]
        lines = (Path(__file__).parent / "data" / "parsed_cells.txt").read_text().splitlines()
        pinned = dict(json.loads(line) for line in lines)
        assert len(pinned) == len(lines) == 98
        assert list(pinned) == list(dict.fromkeys(texts))
        for text, expected in pinned.items():
            assert reference_tables.parse_cell.__wrapped__(text).to_json_dict() == expected, text
