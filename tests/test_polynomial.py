import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hppcheck.polynomial import (GroundSetMismatchError, Polynomial,
                                 PolynomialParseError, format_polynomial,
                                 parse_polynomial)

from conftest import random_multiaffine


def P(text, m=None):
    return parse_polynomial(text, m)


class TestArithmetic:
    def test_add_direct(self):
        assert P("y1 + y2", 2) + P("y1", 2) == P("2*y1 + y2", 2)

    def test_add_zero_identity(self):
        Z = P("y1*y2 + 3*y3", 3)
        assert Z + Polynomial.zero(3) == Z

    def test_add_cancellation(self):
        assert P("y3*y4", 4) + P("-1*y3*y4", 4) == Polynomial.zero(4)

    def test_binomial_square(self):
        assert P("y3 + y4", 4).square() == P("y3*y3 + 2*y3*y4 + y4*y4", 4)

    def test_mul_one_identity(self):
        Z = P("y1*y2 - 5/7*y3", 3)
        assert Z * Polynomial.one(3) == Z

    def test_certificate_term_square(self):
        got = P("y4*y6 - y5*y7", 7).square()
        want = P("y4*y4*y6*y6 - 2*y4*y5*y6*y7 + y5*y5*y7*y7", 7)
        assert got == want

    def test_ground_set_mismatch(self):
        with pytest.raises(GroundSetMismatchError):
            P("y1", 1) + P("y1", 2)
        with pytest.raises(GroundSetMismatchError):
            P("y1", 1) * P("y1", 2)

    def test_scalar_mul(self):
        assert P("y1 + y2", 2) * Fraction(1, 2) == P("1/2*y1 + 1/2*y2", 2)
        assert 3 * P("y1", 1) == P("3*y1", 1)


class TestContractDelete:
    def test_contract_direct(self):
        Z = P("y1*y2 + y1*y3 + y2*y3", 3)
        assert Z.contract(1) == P("y2 + y3", 3)

    def test_contract_absent_variable(self):
        assert P("y2*y3", 3).contract(1) == Polynomial.zero(3)

    def test_contract_derivative_rule(self):
        assert P("y1*y1*y2", 2).contract(1) == P("2*y1*y2", 2)

    def test_delete_direct(self):
        Z = P("y1*y2 + y1*y3 + y2*y3", 3)
        assert Z.delete(1) == P("y2*y3", 3)

    def test_delete_absent_variable(self):
        Z = P("y2 + y3", 3)
        assert Z.delete(1) == Z

    def test_delete_to_zero(self):
        assert P("y1", 1).delete(1) == Polynomial.zero(1)

    def test_decomposition_identity(self):
        # Z == Z^e + y_e * Z_e for multiaffine Z
        rng = random.Random(99)
        for _ in range(60):
            m = rng.randint(1, 8)
            Z = random_multiaffine(rng, m)
            for e in range(1, m + 1):
                ye = Polynomial.variable(m, e)
                assert Z == Z.delete(e) + ye * Z.contract(e)


class TestEval:
    def test_eval_simple(self):
        assert P("y1*y2 + y3", 3).eval_rational([1, 1, 1]) == 2

    def test_eval_difference_zero(self):
        assert P("y1 - y2", 2).eval_rational([5, 5]) == 0

    def test_eval_counts_bases(self):
        from hppcheck.catalog import uniform
        Z = uniform(2, 4).basis_polynomial()
        assert Z.eval_rational([1, 1, 1, 1]) == 6

    def test_eval_length_mismatch(self):
        with pytest.raises(GroundSetMismatchError):
            P("y1", 1).eval_rational([1, 2])


class TestPredicates:
    def test_multiaffine_and_positive(self):
        assert P("y1*y2 + y3", 3).is_multiaffine()

    def test_square_not_multiaffine(self):
        assert not P("y1*y1", 1).is_multiaffine()

    def test_negative_coefficient(self):
        assert P("y1 - y2", 2).is_multiaffine()

    def test_homogeneous(self):
        assert P("y1*y2 + y3*y4", 4).is_homogeneous()
        assert not P("y1*y2 + y3", 3).is_homogeneous()


class TestRingLaws:
    def test_laws_on_random_triples(self):
        rng = random.Random(4242)
        for _ in range(40):
            m = rng.randint(1, 5)
            a = random_multiaffine(rng, m)
            b = random_multiaffine(rng, m)
            c = random_multiaffine(rng, m)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a - a == Polynomial.zero(m)


class TestTextFormat:
    def test_grammar_example(self):
        p = P("1/2*y3*y7 + y4*y6 - y5*y7")
        assert p.m == 7
        assert p.coefficient((0, 0, 1, 0, 0, 0, 1)) == Fraction(1, 2)
        assert p.coefficient((0, 0, 0, 0, 1, 0, 1)) == -1

    def test_canonical_roundtrip(self):
        rng = random.Random(7)
        for _ in range(50):
            m = rng.randint(1, 6)
            p = random_multiaffine(rng, m)
            text = format_polynomial(p)
            assert parse_polynomial(text, m) == p
            # canonical text is a fixed point of parse/format
            assert format_polynomial(parse_polynomial(text, m)) == text

    def test_zero_roundtrip(self):
        assert format_polynomial(Polynomial.zero(3)) == "0"
        assert parse_polynomial("0", 3) == Polynomial.zero(3)

    def test_whitespace_insignificant(self):
        assert P(" y1+y2 ", 2) == P("y1 + y2", 2)

    def test_leading_sign(self):
        assert P("-y1 + y2", 2) == P("y2 - y1", 2)

    def test_repeated_factors_are_powers(self):
        assert dict(P("y1*y1*y1", 1).terms) == {(3,): 1}

    def test_parse_errors(self):
        for bad in ("", "y", "y1 +", "y1 * ", "1/0", "y1 & y2", "y0"):
            with pytest.raises(PolynomialParseError):
                parse_polynomial(bad)

    def test_out_of_range_variable(self):
        with pytest.raises(PolynomialParseError):
            parse_polynomial("y5", 3)

    def test_graded_lex_order(self):
        p = P("y2 + y1*y2 + 1 + y1*y1", 2)
        assert format_polynomial(p) == "y1*y1 + y1*y2 + y2 + 1"


class TestRelabeling:
    def test_permuted(self):
        p = P("y1*y2 + y3", 3)
        assert p.permuted([3, 1, 2]) == P("y3*y1 + y2", 3)

    def test_padded(self):
        p = P("y1", 1).padded(3)
        assert p == P("y1", 3)
        with pytest.raises(GroundSetMismatchError):
            P("y1*y2", 2).padded(1)


# -- property tests: ring operations build clean polynomials --------------------

M = 4
exponents = st.tuples(*[st.integers(0, 2)] * M)
rationals = st.one_of(st.integers(-9, 9),
                      st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)))
polynomials = st.dictionaries(exponents, rationals, max_size=6).map(
    lambda terms: Polynomial(M, terms))
points = st.lists(st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3)),
                  min_size=M, max_size=M)


def assert_clean(p):
    """p is what the validating constructor makes of its own terms: no zero
    coefficient, and every integral coefficient stored as int."""
    assert p == Polynomial(p.m, dict(p.terms))
    for exps, c in p.terms.items():
        assert len(exps) == p.m
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


class TestCleanCore:
    @given(polynomials, polynomials, rationals, points)
    def test_ring_operations(self, p, q, c, x):
        for r in (p, q, p + q, p - q, -p, p * q, p.scalar_mul(c), c * p):
            assert_clean(r)
        assert (p + q).eval_rational(x) == p.eval_rational(x) + q.eval_rational(x)
        assert (p * q).eval_rational(x) == p.eval_rational(x) * q.eval_rational(x)
        assert p.scalar_mul(c).eval_rational(x) == c * p.eval_rational(x)

    @given(polynomials, st.integers(1, M), st.permutations(range(1, M + 1)))
    def test_minors_and_relabeling(self, p, e, perm):
        for r in (p.contract(e), p.delete(e), p.permuted(perm), p.padded(M + 2)):
            assert_clean(r)
        assert p.permuted(perm).permuted(
            [perm.index(v) + 1 for v in range(1, M + 1)]) == p

    def test_integral_fraction_is_int(self):
        e = (1, 0, 2)
        p, q = Polynomial(3, {e: Fraction(3)}), Polynomial(3, {e: 3})
        assert p == q and hash(p) == hash(q) and str(p) == str(q) == "3*y1*y3*y3"
        assert type(p.coefficient(e)) is int
        assert type(Polynomial(3, {e: Fraction(1, 2)}).scalar_mul(2).coefficient(e)) is int
