import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from hppcheck import certificate
from hppcheck.catalog import CATALOG_NAMES, entry, uniform
from hppcheck.certificate import certificate_to_text
from hppcheck.polynomial import Polynomial, parse_polynomial
from hppcheck.rayleigh import (_eight_minors, discriminant,
                               discriminant_symmetric_form, quad_decompose,
                               rayleigh_diff, rayleigh_diff_multiaffine)
from hppcheck.sos_search import search_certificate

from conftest import (_diff_multiaffine_reference, _diff_reference,
                      _mul_reference, _sub_reference,
                      _weighted_square_sum_reference, random_multiaffine)


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


def minor_formula_quadratic(Z, e, f, g):
    """Reference: A, B, C of diff(Z, e, f) in y_g written in the eight
    contraction/deletion minors of multiaffine Z at {e, f, g}."""
    Ze, Zf, Zg = Z.contract(e), Z.contract(f), Z.contract(g)
    p_e_fg = Ze.delete(f).delete(g)
    p_fg_e = Zf.contract(g).delete(e)
    p_f_eg = Zf.delete(e).delete(g)
    p_eg_f = Ze.contract(g).delete(f)
    p_g_ef = Zg.delete(e).delete(f)
    p_ef_g = Ze.contract(f).delete(g)
    p_efg = Ze.contract(f).contract(g)
    p_del = Z.delete(e).delete(f).delete(g)
    A = p_eg_f * p_fg_e - p_efg * p_g_ef
    B = p_e_fg * p_fg_e + p_f_eg * p_eg_f - p_g_ef * p_ef_g - p_efg * p_del
    C = p_e_fg * p_f_eg - p_ef_g * p_del
    return A, B, C


def typed_terms(p):
    """p's terms with each coefficient's type, so int 1 and Fraction 1
    differ."""
    return [(exps, c, type(c)) for exps, c in p.sorted_terms()]


def catalog_triples():
    """(Z, e, f, g) for every 3-subset of each catalog matroid, each of
    its elements once in the role of g."""
    for name in CATALOG_NAMES:
        Z = entry(name).matroid.basis_polynomial()
        for e, f, g in combinations(range(1, Z.m + 1), 3):
            yield from ((Z, e, f, g), (Z, e, g, f), (Z, f, g, e))


class TestQuadDecompose:
    def test_equals_minor_formulas(self, proposition_corpus):
        # the corpus again with non-integral coefficients, so that
        # Fraction coefficients are compared too
        scaled = [(Z.scalar_mul(Fraction(2, 3)), e, f, g)
                  for Z, e, f, g in proposition_corpus[:50]]
        cases = [*proposition_corpus, *scaled, *catalog_triples()]
        for Z, e, f, g in cases:
            dec = quad_decompose(Z, e, f, g)
            ref = minor_formula_quadratic(Z, e, f, g)
            assert [typed_terms(p) for p in (dec.A, dec.B, dec.C)] \
                == [typed_terms(p) for p in ref], (Z, e, f, g)

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


# -- the product kernel against the products it replaced ------------------------
#
# The discriminant forms as they were written on `*` and `-`, run with the
# reference products of conftest patched in.

def _use_reference_products(monkeypatch):
    def mul(p, q):
        if isinstance(q, (int, Fraction)):
            return p.scalar_mul(q)
        return _mul_reference(p, q)

    monkeypatch.setattr(Polynomial, "__mul__", mul)
    monkeypatch.setattr(Polynomial, "__sub__", _sub_reference)
    monkeypatch.setattr(certificate, "weighted_square_sum",
                        _weighted_square_sum_reference)


def _discriminant_reference(Z, e, f, g):
    dec = quad_decompose(Z, e, f, g)
    return dec.B * dec.B - dec.A * dec.C * 4


def _symmetric_form_reference(Z, e, f, g):
    p1, p2, p3, p4, p5, p6, p7, p8 = _eight_minors(Z, e, f, g)
    q12, q34, q56, q78 = p1 * p2, p3 * p4, p5 * p6, p7 * p8
    return (
        q12 * q12 + q34 * q34 + q56 * q56 + q78 * q78
        - 2 * (q12 * q34) - 2 * (q12 * q56) - 2 * (q34 * q56)
        - 2 * ((q12 + q34 + q56) * q78)
        + 4 * (p1 * p3 * p5 * p7) + 4 * (p2 * p4 * p6 * p8)
    )


class TestProductKernelIdentity:
    def test_difference_forms_keep_keys_and_order(self):
        # sos_search.build_problem and _integer_zero_kernel read a target's
        # terms in order
        for name in CATALOG_NAMES:
            Z = entry(name).matroid.basis_polynomial()
            for e, f in combinations(range(1, Z.m + 1), 2):
                for got, want in ((rayleigh_diff(Z, e, f), _diff_reference(Z, e, f)),
                                  (rayleigh_diff_multiaffine(Z, e, f),
                                   _diff_multiaffine_reference(Z, e, f))):
                    assert list(got._keys.items()) == list(want._keys.items()), \
                        (name, e, f)

    def test_discriminants_match_reference(self, proposition_corpus, monkeypatch):
        rng = random.Random(4)
        cases = list(proposition_corpus)
        cases += [(Z.scalar_mul(Fraction(2, 3)), e, f, g)
                  for Z, e, f, g in proposition_corpus[:30]]
        for name in CATALOG_NAMES:
            Z = entry(name).matroid.basis_polynomial()
            cases += [(Z, *rng.sample(range(1, Z.m + 1), 3)) for _ in range(4)]
        got = [(discriminant(*case), discriminant_symmetric_form(*case))
               for case in cases]
        _use_reference_products(monkeypatch)
        for case, (disc, sym) in zip(cases, got):
            assert typed_terms(disc) == typed_terms(_discriminant_reference(*case))
            assert typed_terms(sym) == typed_terms(_symmetric_form_reference(*case))

    @pytest.mark.parametrize("name", ["F7m4", "W3p", "nP_d9"])
    def test_search_certificates_byte_identical(self, name, monkeypatch):
        ent = entry(name)
        Z = ent.matroid.basis_polynomial()
        cert = search_certificate(rayleigh_diff_multiaffine(Z, *ent.cert_pair))
        _use_reference_products(monkeypatch)
        want = search_certificate(_diff_multiaffine_reference(Z, *ent.cert_pair))
        assert cert is not None
        assert certificate_to_text(cert) == certificate_to_text(want)
