import random
from itertools import permutations

import pytest

from hppcheck.catalog import uniform
from hppcheck.polynomial import Polynomial, parse_polynomial
from hppcheck.rayleigh import (discriminant, discriminant_symmetric_form,
                               quad_decompose, rayleigh_diff,
                               rayleigh_diff_multiaffine)

from conftest import random_multiaffine


def P(text, m=None):
    return parse_polynomial(text, m)


class TestRayleighDiff:
    def test_u12_constant(self):
        Z = uniform(1, 2).basis_polynomial()
        assert rayleigh_diff(Z, 1, 2) == Polynomial.one(2)

    def test_u23(self):
        Z = uniform(2, 3).basis_polynomial()
        assert rayleigh_diff(Z, 1, 2) == P("y3*y3", 3)

    def test_u24(self):
        Z = uniform(2, 4).basis_polynomial()
        assert rayleigh_diff(Z, 1, 2) == P("y3*y3 + y3*y4 + y4*y4", 4)

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError):
            rayleigh_diff(uniform(2, 4).basis_polynomial(), 2, 2)

    def test_minor_form_examples(self):
        # (y3+y4)^2 - y3*y4 parts assembled by hand
        Z = uniform(2, 4).basis_polynomial()
        assert Z.contract(1).delete(2) == P("y3 + y4", 4)
        assert Z.contract(1).contract(2) == Polynomial.one(4)
        assert Z.delete(1).delete(2) == P("y3*y4", 4)
        assert rayleigh_diff_multiaffine(Z, 1, 2) == P("y3*y3 + y3*y4 + y4*y4", 4)
        Z = uniform(2, 3).basis_polynomial()
        assert rayleigh_diff_multiaffine(Z, 1, 2) == P("y3*y3", 3)
        Z = uniform(1, 2).basis_polynomial()
        assert rayleigh_diff_multiaffine(Z, 1, 2) == Polynomial.one(2)

    def test_minor_form_requires_multiaffine(self):
        with pytest.raises(ValueError):
            rayleigh_diff_multiaffine(P("y1*y1 + y2", 2), 1, 2)

    def test_form_agreement_on_random_corpus(self):
        rng = random.Random(1212)
        checked = 0
        while checked < 200:
            m = rng.randint(2, 7)
            Z = random_multiaffine(rng, m)
            if Z.is_zero():
                continue
            e, f = rng.sample(range(1, m + 1), 2)
            assert rayleigh_diff(Z, e, f) == rayleigh_diff_multiaffine(Z, e, f)
            checked += 1


def coefficients_in(p, v):
    """Collect the terms of p by the power of y_v: {power: coefficient},
    each coefficient on p's ground set with y_v absent."""
    i = v - 1
    buckets = {}
    for exps, c in p.terms.items():
        rest = exps[:i] + (0,) + exps[i + 1:]
        bucket = buckets.setdefault(exps[i], {})
        bucket[rest] = bucket.get(rest, 0) + c
    return {k: Polynomial(p.m, d) for k, d in buckets.items()}


def extract_quadratic(Z, e, f, g):
    """Independent oracle: coefficients of y_g powers pulled straight out
    of the expanded Rayleigh difference."""
    delta = rayleigh_diff(Z, e, f)
    parts = coefficients_in(delta, g)
    zero = Polynomial.zero(Z.m)
    assert all(k <= 2 for k in parts)
    return parts.get(2, zero), parts.get(1, zero), parts.get(0, zero)


class TestQuadDecompose:
    def test_u24_against_extraction_oracle(self):
        Z = uniform(2, 4).basis_polynomial()
        dec = quad_decompose(Z, 1, 2, 3)
        A, B, C = extract_quadratic(Z, 1, 2, 3)
        assert (dec.A, dec.B, dec.C) == (A, B, C)
        assert dec.A == Polynomial.one(4)
        assert dec.B == P("y4", 4)
        assert dec.C == P("y4*y4", 4)

    def test_u23(self):
        Z = uniform(2, 3).basis_polynomial()
        dec = quad_decompose(Z, 1, 2, 3)
        assert dec.A == Polynomial.one(3)
        assert dec.B == Polynomial.zero(3)
        assert dec.C == Polynomial.zero(3)

    def test_absent_third_variable(self):
        # y_g absent: A = 0 and C equals the whole difference
        Z = P("y1*y2 + y1 + y2", 4)      # no y3, y4
        dec = quad_decompose(Z, 1, 2, 3)
        assert dec.A == Polynomial.zero(4)
        assert dec.C == rayleigh_diff(Z, 1, 2)

    def test_distinct_indices_required(self):
        Z = uniform(2, 4).basis_polynomial()
        with pytest.raises(ValueError):
            quad_decompose(Z, 1, 2, 2)

    def test_multiaffine_required(self):
        with pytest.raises(ValueError):
            quad_decompose(P("y1*y1 + y2 + y3", 3), 1, 2, 3)

    def test_minor_identities_on_corpus(self, proposition_corpus):
        # A == diff(Z_g) and C == diff(Z^g), exactly
        for Z, e, f, g in proposition_corpus[:60]:
            dec = quad_decompose(Z, e, f, g)
            assert dec.A == rayleigh_diff(Z.contract(g), e, f)
            assert dec.C == rayleigh_diff(Z.delete(g), e, f)


class TestDiscriminant:
    def test_u24(self):
        Z = uniform(2, 4).basis_polynomial()
        assert discriminant(Z, 1, 2, 3) == P("-3*y4*y4", 4)
        assert discriminant_symmetric_form(Z, 1, 2, 3) == P("-3*y4*y4", 4)

    def test_u23_zero(self):
        Z = uniform(2, 3).basis_polynomial()
        assert discriminant(Z, 1, 2, 3) == Polynomial.zero(3)

    def test_u13_constant_difference(self):
        Z = uniform(1, 3).basis_polynomial()
        assert discriminant(Z, 1, 2, 3) == Polynomial.zero(3)

    def test_single_term(self):
        Z = P("y1*y2*y3", 3)
        assert discriminant(Z, 1, 2, 3) == Polynomial.zero(3)
        assert discriminant_symmetric_form(Z, 1, 2, 3) == Polynomial.zero(3)

    def test_symmetry_and_expanded_form_spot(self):
        rng = random.Random(55)
        for _ in range(10):
            Z = random_multiaffine(rng, 5)
            if Z.is_zero():
                continue
            base = discriminant(Z, 1, 2, 3)
            for a, b, c in permutations((1, 2, 3)):
                assert discriminant(Z, a, b, c) == base
            assert discriminant_symmetric_form(Z, 1, 2, 3) == base
