import hashlib
import operator
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hppcheck.catalog import CATALOG_NAMES, entry
from hppcheck.certificate import (certificate_from_text, certificate_to_text,
                                  shipped_store_dir)
from hppcheck.polynomial import (MAX_EXPONENT, GroundSetMismatchError,
                                 Polynomial, PolynomialParseError,
                                 format_polynomial, mask_key, parse_polynomial,
                                 sum_of_products, weighted_square_sum)
from hppcheck.rayleigh import discriminant, rayleigh_diff

from conftest import (_mul_reference, _weighted_square_sum_reference,
                      random_multiaffine)


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

    @given(polynomials, st.integers(1, M))
    def test_minors_and_relabeling(self, p, e):
        for r in (p.contract(e), p.delete(e), p.padded(M + 2)):
            assert_clean(r)

    def test_integral_fraction_is_int(self):
        e = (1, 0, 2)
        p, q = Polynomial(3, {e: Fraction(3)}), Polynomial(3, {e: 3})
        assert p == q and hash(p) == hash(q) and str(p) == str(q) == "3*y1*y3*y3"
        assert type(p.coefficient(e)) is int
        assert type(Polynomial(3, {e: Fraction(1, 2)}).scalar_mul(2).coefficient(e)) is int


# -- packed keys against the tuple-keyed reference ------------------------------
#
# The kernel below keys terms by exponent tuples, the direct representation;
# it is the reference that every operation on packed keys must match.

def _ref_clean(terms):
    return {e: c if type(c) is int else int(c.numerator) if c.denominator == 1 else c
            for e, c in terms.items() if c}


def ref_add(s, t):
    out = dict(s)
    for exps, c in t.items():
        prev = out.get(exps)
        out[exps] = c if prev is None else prev + c
    return _ref_clean(out)


def ref_mul(s, t):
    out = {}
    right = list(t.items())
    for e1, c1 in s.items():
        for e2, c2 in right:
            key = tuple(map(operator.add, e1, e2))
            prev = out.get(key)
            out[key] = c1 * c2 if prev is None else prev + c1 * c2
    return _ref_clean(out)


def ref_contract(s, e):
    i = e - 1
    out = {}
    for exps, c in s.items():
        k = exps[i]
        if k:
            out[exps[:i] + (k - 1,) + exps[i + 1:]] = c * k
    return _ref_clean(out)


def ref_delete(s, e):
    return {exps: c for exps, c in s.items() if exps[e - 1] == 0}


def ref_neg(s):
    return {exps: -c for exps, c in s.items()}


def top(p):
    """The largest exponent in p's tuple view."""
    return max((max(exps, default=0) for exps in p.terms), default=0)


@st.composite
def polynomial_pairs(draw):
    """Two polynomials on m <= 8 variables with exponents 0..3; each may
    hold one term with an exponent 126..128, so products reach 254 and 255,
    and pass the cap at 256."""
    m = draw(st.integers(0, 8))
    exponents = st.tuples(*[st.integers(0, 3)] * m)

    def polynomial():
        terms = draw(st.dictionaries(exponents, rationals, max_size=6))
        if m and draw(st.booleans()):
            exps = list(draw(exponents))
            exps[draw(st.integers(0, m - 1))] = draw(st.integers(126, 128))
            terms[tuple(exps)] = draw(rationals)
        return Polynomial(m, terms)

    return polynomial(), polynomial()


def assert_matches(r, want):
    """r's terms are want's, in the same order (`sos_search` reads them in
    order), and the predicates read from the keys agree with the view."""
    assert list(r.terms.items()) == list(want.items())
    assert_clean(r)
    assert r.num_terms() == len(want) and r.is_zero() == (not want) == (not r)
    assert r.is_multiaffine() == all(e <= 1 for exps in want for e in exps)
    assert r.total_degree() == max((sum(exps) for exps in want), default=0)
    assert r.support_variables() == {i + 1 for exps in want
                                     for i, e in enumerate(exps) if e}
    same = Polynomial(r.m, want)
    assert r == same and hash(r) == hash(same)


class TestPackedKeys:
    @given(polynomial_pairs(), rationals)
    def test_ring_operations_match_reference(self, pair, c):
        p, q = pair
        s, t = p.terms, q.terms
        assert_matches(p + q, ref_add(s, t))
        assert_matches(p - q, ref_add(s, ref_neg(t)))
        assert_matches(-p, ref_neg(s))
        assert_matches(p.scalar_mul(c), _ref_clean({e: a * c for e, a in s.items()}))
        for a, b, x, y in ((p, q, s, t), (p, p, s, s), (p + q, p - q,
                                                        ref_add(s, t),
                                                        ref_add(s, ref_neg(t)))):
            if top(a) + top(b) > MAX_EXPONENT:
                with pytest.raises(ValueError):
                    a * b
            else:
                assert_matches(a * b, ref_mul(x, y))
        if 2 * top(p) > MAX_EXPONENT:
            with pytest.raises(ValueError):
                p.square()
            with pytest.raises(ValueError):
                p ** 2
        else:
            assert_matches(p.square(), ref_mul(s, s))
            assert_matches(p ** 2, ref_mul(ref_mul({(0,) * p.m: 1}, s), s))
        # terms that cancel: p*q - q*p and (p + q)*(p - q) - (p*p - q*q)
        if top(p) + top(q) <= MAX_EXPONENT and 2 * max(top(p), top(q)) <= MAX_EXPONENT:
            assert_matches(p * q - q * p, {})
            assert_matches((p + q) * (p - q) - (p * p - q * q), {})

    @given(polynomial_pairs())
    def test_minors_and_relabeling_match_reference(self, pair):
        p, q = pair
        s = p.terms
        for e in range(1, p.m + 1):
            assert_matches(p.contract(e), ref_contract(s, e))
            assert_matches(p.delete(e), ref_delete(s, e))
        assert_matches(p.padded(p.m + 2), {exps + (0, 0): c for exps, c in s.items()})
        assert (p == q) == (s == q.terms)
        assert (p == p.padded(p.m + 1)) is False

    def test_mask_key_packs_bit_i_into_byte_i(self):
        for mask in range(1 << 9):
            exps = tuple(mask >> i & 1 for i in range(9))
            assert mask_key(mask) == int.from_bytes(bytes(exps), "little")

    def test_exponent_cap(self):
        y1 = Polynomial.variable(1, 1)
        assert dict((y1 ** 255).terms) == {(255,): 1}
        with pytest.raises(ValueError):
            y1 ** 256
        with pytest.raises(ValueError):
            (y1 ** 128).square()
        with pytest.raises(ValueError):
            Polynomial(2, {(0, 256): 1})
        assert parse_polynomial("*".join(["y1"] * 255)) == y1 ** 255
        with pytest.raises(PolynomialParseError):
            parse_polynomial("*".join(["y1"] * 256))


# -- the product kernel against the tuple-keyed reference ----------------------

@st.composite
def product_terms(draw):
    """m <= 6 and up to four terms (c, p, q) on m variables with exponents
    0..3; q is sometimes p itself (the kernel's square)."""
    m = draw(st.integers(0, 6))
    exponents = st.tuples(*[st.integers(0, 3)] * m)

    def polynomial():
        return Polynomial(m, draw(st.dictionaries(exponents, rationals, max_size=6)))

    terms = []
    for _ in range(draw(st.integers(0, 4))):
        p = polynomial()
        terms.append((draw(rationals), p, p if draw(st.booleans()) else polynomial()))
    return m, terms


def ref_sum_of_products(m, terms):
    out = {}
    for c, p, q in terms:
        out = ref_add(out, {e: c * a for e, a in ref_mul(p.terms, q.terms).items()})
    return out


class TestSumOfProducts:
    @given(product_terms())
    def test_matches_reference(self, drawn):
        m, terms = drawn
        r = sum_of_products(m, terms)
        assert_clean(r)
        assert r == Polynomial(m, ref_sum_of_products(m, terms))
        # a second copy of every term with its sign flipped cancels it
        assert sum_of_products(m, terms + [(-c, q, p) for c, p, q in terms]).is_zero()
        for c, p, q in terms:
            # one term is a product, in __mul__'s key order
            want = _mul_reference(p, q)
            assert list(sum_of_products(m, [(1, p, q)])._keys.items()) \
                == list((p * q)._keys.items()) == list(want._keys.items())
            # the symmetric half of a square gives the full product's keys in
            # the full product's order
            copy = Polynomial(m, dict(p.terms))
            assert list(p.square()._keys.items()) \
                == list(_mul_reference(copy, copy)._keys.items())

    def test_zero_polynomial_and_empty_ground_set(self):
        x = P("y1*y2 - 1/2*y3", 3)
        zero = Polynomial.zero(3)
        assert sum_of_products(3, []) == zero
        assert sum_of_products(3, [(5, zero, x), (2, x, zero), (7, zero, zero)]) == zero
        assert sum_of_products(3, [(0, x, x)]) == zero
        three, half = Polynomial.constant(0, 3), Polynomial.constant(0, Fraction(1, 2))
        assert sum_of_products(0, [(2, three, half), (1, half, half)]) \
            == Polynomial.constant(0, Fraction(13, 4))
        assert sum_of_products(0, [(4, half, half), (-1, three, three)]) \
            == Polynomial.constant(0, -8)
        assert sum_of_products(0, []) == Polynomial.zero(0)

    def test_int_scaled_halves(self):
        # -4 * A * C with A holding halves: every coefficient comes out int
        A = P("1/2*y1 + 3/2*y2", 2)
        C = P("y1 - y2", 2)
        r = sum_of_products(2, [(-4, A, C), (1, C, C)])
        assert r == P("-y1*y1 - 6*y1*y2 + 7*y2*y2", 2)
        assert all(type(c) is int for c in r.terms.values())

    def test_mixed_ground_sets_raise(self):
        x3, x2 = P("y1 + y3", 3), P("y1 + y2", 2)
        for terms in ([(1, x3, x2)], [(1, x2, x3)], [(1, x3, x3), (1, x2, x2)]):
            with pytest.raises(GroundSetMismatchError):
                sum_of_products(3, terms)
        with pytest.raises(GroundSetMismatchError):
            sum_of_products(2, [(1, x3, x3)])

    def test_exponent_cap(self):
        y1 = Polynomial.variable(1, 1)
        high, low = y1 ** 128, y1 ** 127
        assert sum_of_products(1, [(1, high, low), (1, low, high)]) \
            == Polynomial(1, {(255,): 2})
        # checked for every term before any product is formed
        for terms in ([(1, high, high)], [(1, y1, y1), (1, low, high), (1, high, high)],
                      [(1, high, y1 ** 128)]):
            with pytest.raises(ValueError):
                sum_of_products(1, terms)


def test_weighted_square_sum_matches_reference_on_shipped_certificates():
    paths = sorted(shipped_store_dir().glob("*.cert"))
    assert len(paths) == 7
    for path in paths:
        cert = certificate_from_text(path.read_text())
        m = cert.ground_size()
        for size in (m, m + 2):
            N, D = weighted_square_sum(size, cert.terms)
            want, want_D = _weighted_square_sum_reference(size, cert.terms)
            assert D == want_D and N.m == size
            assert list(N._keys.items()) == list(want._keys.items())


# -- eval_rational over the integers against the Fraction loop -----------------

def ref_eval_rational(p, point):
    """The Fraction loop eval_rational once ran over the tuple view."""
    if len(point) != p.m:
        raise GroundSetMismatchError("point length does not match")
    vals = [Fraction(x) for x in point]
    total = Fraction(0)
    for exps, c in p.terms.items():
        term = c
        for v, e in zip(vals, exps):
            if e:
                term *= v ** e
        total += term
    return total


# zero, negative, rational and float coordinates
coordinates = st.one_of(
    st.just(0), st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.floats(-8, 8, allow_nan=False, width=32))


def assert_same_value(p, point):
    got, want = p.eval_rational(point), ref_eval_rational(p, point)
    assert got == want and type(got) is type(want) is Fraction


class TestEvalRationalReference:
    @given(polynomial_pairs(), st.data())
    def test_matches_fraction_loop(self, pair, data):
        # int and Fraction coefficients, m from 0 to 8, exponents to 128
        for p in pair:
            point = data.draw(st.lists(coordinates, min_size=p.m, max_size=p.m))
            assert_same_value(p, point)

    @given(st.integers(1, 4), st.data())
    def test_one_variable_at_max_exponent(self, m, data):
        exps = [0] * m
        exps[data.draw(st.integers(0, m - 1))] = MAX_EXPONENT
        terms = data.draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * m),
                                          rationals, max_size=4))
        terms[tuple(exps)] = data.draw(rationals.filter(bool))
        point = data.draw(st.lists(coordinates, min_size=m, max_size=m))
        assert_same_value(Polynomial(m, terms), point)

    def test_zero_polynomial_and_empty_ground_set(self):
        for p, point in ((Polynomial.zero(3), [Fraction(1, 2), -2, 0.25]),
                         (Polynomial.zero(0), []),
                         (Polynomial.constant(0, 5), []),
                         (Polynomial.constant(0, Fraction(-3, 4)), []),
                         (P("y1*y1*y2 - 1/6*y2", 3), [0, 0.5, -7])):
            assert_same_value(p, point)
        assert P("y1", 1).eval_rational([Fraction(-1, 3)]) == Fraction(-1, 3)

    def test_nonfinite_coordinates_raise_as_before(self):
        for bad, error in ((float("nan"), ValueError), (float("inf"), OverflowError)):
            for evaluate in (Polynomial.eval_rational, ref_eval_rational):
                with pytest.raises(error):
                    evaluate(P("y1 + y2", 2), [1, bad])


def output_text() -> str:
    """Every printed Rayleigh difference of every catalog matroid, one
    seeded discriminant per matroid, and every shipped certificate's text."""
    lines = []
    rng = random.Random(13)
    for name in CATALOG_NAMES:
        M = entry(name).matroid
        Z = M.basis_polynomial()
        for e, f in combinations(range(1, M.m + 1), 2):
            lines.append(f"{name} rdiff {e} {f}: {format_polynomial(rayleigh_diff(Z, e, f))}")
        live = [e for e in range(1, M.m + 1) if e not in M.loops()]
        triple = rng.sample(live, 3)
        lines.append(f"{name} disc {triple}: {format_polynomial(discriminant(Z, *triple))}")
    for path in sorted(shipped_store_dir().glob("*.cert")):
        lines.append(certificate_to_text(certificate_from_text(path.read_text())))
    return "\n".join(lines)


def test_output_text_is_pinned():
    # the digest of output_text() as the tuple-keyed implementation printed it
    digest = hashlib.sha256(output_text().encode()).hexdigest()
    assert digest == "2368b15a54c8125f3df743ce74f2b12d833d160bffa343fed0b959611f78baf9"
