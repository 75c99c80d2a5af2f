from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hppcheck.catalog import entry
from hppcheck.certificate import (CertificateParseError,
                                  DuplicateCertificateError, SosCertificate,
                                  Verdict, certificate_from_text,
                                  certificate_to_text, format_fraction,
                                  load_store, shipped_store, verify)
from hppcheck.polynomial import (GroundSetMismatchError, Polynomial,
                                 parse_polynomial, weighted_square_sum)
from hppcheck.rayleigh import rayleigh_diff_multiaffine


def P(text, m=None):
    return parse_polynomial(text, m)


def cert_of(*terms, **kw):
    return SosCertificate(terms=tuple((Fraction(w), P(q, kw.get("m")))
                                      for w, q in terms), **{
        k: v for k, v in kw.items() if k != "m"})


class TestExpand:
    def test_single_square(self):
        c = cert_of(("1", "y3"), m=3)
        assert c.expand() == P("y3*y3", 3)

    def test_completing_the_square(self):
        c = cert_of(("1", "y3 + 1/2*y4"), ("3/4", "y4"), m=4)
        assert c.expand() == P("y3*y3 + y3*y4 + y4*y4", 4)

    def test_f7m4_expansion_shape(self):
        store = shipped_store()
        c = store.lookup("F7m4", (1, 2))
        exp = c.expand()
        assert exp.total_degree() == 4
        assert exp.is_homogeneous()

    def test_positive_weights_enforced(self):
        with pytest.raises(ValueError):
            SosCertificate(terms=((Fraction(-1), P("y1", 1)),))


class TestVerify:
    def test_roundtrip_always_passes(self):
        c = cert_of(("2/3", "y1 - y2"), ("1/5", "y2 + y3"), m=3)
        assert verify(c, c.expand()).passed

    def test_fail_pinpoints_monomial(self):
        c = cert_of(("1", "y3"), m=4)
        v = verify(c, P("y3*y4", 4))
        assert not v.passed
        assert v.monomial == (0, 0, 2, 0)
        assert v.expected == 0 and v.actual == 1
        assert "FAIL" in v.describe()

    def test_shipped_certificates_against_catalog(self):
        store = shipped_store()
        assert len(store) == 7
        for (name, pair), cert in store.by_key.items():
            M = entry(name).matroid
            target = rayleigh_diff_multiaffine(M.basis_polynomial(), *pair)
            assert verify(cert, target).passed, (name, pair)

    def test_expansion_degrees(self):
        # degree 2*(rank-1): 4 for the rank-3 entries, 6 for V8
        store = shipped_store()
        for (name, pair), cert in store.by_key.items():
            rank = entry(name).matroid.rank
            exp = cert.expand()
            assert exp.is_homogeneous()
            assert exp.total_degree() == 2 * (rank - 1), name


# -- integer expansion against the Fraction loop --------------------------------

def ref_expand(cert, m=None):
    """The Fraction loop SosCertificate.expand once ran: each weighted
    square through the Polynomial ring operations."""
    if m is None:
        m = cert.ground_size()
    total = Polynomial.zero(m)
    for w, q in cert.terms:
        total = total + q.padded(m).square().scalar_mul(w)
    return total


def ref_verify(cert, target):
    """verify as it once ran, on ref_expand."""
    if cert.ground_size() > target.m:
        expansion = ref_expand(cert)
        tgt = target.padded(expansion.m)
    else:
        expansion = ref_expand(cert, target.m)
        tgt = target
    if expansion == tgt:
        return Verdict(passed=True)
    exps, _ = (expansion - tgt).sorted_terms()[0]
    return Verdict(passed=False, monomial=exps, expected=tgt.coefficient(exps),
                   actual=expansion.coefficient(exps))


def assert_same_polynomial(got, want):
    """Equal terms with equal coefficient types, on the same ground set and
    with the same exponent bound."""
    assert (got.m, got._top) == (want.m, want._top)
    assert ({e: (c, type(c)) for e, c in got.terms.items()}
            == {e: (c, type(c)) for e, c in want.terms.items()})


def assert_same_verdict(cert, target):
    got, want = verify(cert, target), ref_verify(cert, target)
    assert got == want
    assert type(got.expected) is type(want.expected)
    assert type(got.actual) is type(want.actual)
    return got


coeffs = st.one_of(st.integers(-5, 5),
                   st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6)))
weights = st.one_of(st.integers(1, 4),
                    st.builds(Fraction, st.integers(1, 9), st.integers(1, 12)))


def exponents(m):
    return st.tuples(*[st.integers(0, 2)] * m)


@st.composite
def certificates(draw):
    """Up to four weighted squares; each q on its own ground set of at most
    m <= 5 variables, so expansion pads them."""
    m = draw(st.integers(0, 5))
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(0, m))
        q = Polynomial(k, draw(st.dictionaries(exponents(k), coeffs, max_size=5)))
        terms.append((draw(weights), q))
    return SosCertificate(terms=tuple(terms))


class TestIntegerExpansion:
    @given(certificates(), st.integers(0, 2))
    def test_expand_matches_fraction_loop(self, cert, extra):
        assert_same_polynomial(cert.expand(), ref_expand(cert))
        m = cert.ground_size() + extra
        assert_same_polynomial(cert.expand(m), ref_expand(cert, m))
        N, D = weighted_square_sum(m, cert.terms)
        assert D >= 1 and all(type(c) is int for c in N.terms.values())
        assert N == ref_expand(cert, m).scalar_mul(D)

    @given(certificates(), st.data())
    def test_verdict_matches_fraction_loop(self, cert, data):
        # the target's ground set may be narrower than the certificate's
        wide = cert.ground_size()
        mt = data.draw(st.integers(0, wide + 1))
        full = ref_expand(cert, max(wide, mt)).terms
        fit = {e[:mt]: c for e, c in full.items() if not any(e[mt:])}
        kind = data.draw(st.sampled_from(("exact", "perturbed", "random")))
        if kind == "random":
            terms = data.draw(st.dictionaries(exponents(mt), coeffs, max_size=6))
        else:
            terms = dict(fit)
            if kind == "perturbed":
                e = data.draw(exponents(mt))
                terms[e] = terms.get(e, 0) + data.draw(coeffs.filter(bool))
        target = Polynomial(mt, terms)
        verdict = assert_same_verdict(cert, target)
        if kind == "perturbed" and mt >= wide:
            assert not verdict.passed

    def test_wider_certificate(self):
        # q on five variables, target on three: the padded target can match
        c = cert_of(("1/2", "y1 - 2/3*y2"), m=5)
        assert assert_same_verdict(c, P("1/2*y1*y1 - 2/3*y1*y2 + 2/9*y2*y2", 3))
        v = assert_same_verdict(cert_of(("1", "y4"), m=5), P("y1*y1", 3))
        assert v.monomial == (2, 0, 0, 0, 0) and (v.expected, v.actual) == (1, 0)

    def test_shipped_certificates_match_fraction_loop(self):
        for (name, pair), cert in shipped_store().by_key.items():
            target = rayleigh_diff_multiaffine(entry(name).matroid.basis_polynomial(),
                                               *pair)
            assert_same_polynomial(cert.expand(), ref_expand(cert))
            assert assert_same_verdict(cert, target)
            off = target + Polynomial.constant(target.m, Fraction(1, 3))
            assert not assert_same_verdict(cert, off)

    def test_errors_match_fraction_loop(self):
        high = SosCertificate(terms=((Fraction(1), Polynomial(1, {(128,): 1})),))
        narrow = cert_of(("1", "y1 + y3"), m=3)
        for expand in (SosCertificate.expand, ref_expand):
            with pytest.raises(ValueError, match="above 255"):
                expand(high)
            with pytest.raises(GroundSetMismatchError):
                expand(narrow, 2)


class TestFilesAndStore:
    def test_bit_exact_roundtrip(self):
        c = cert_of(("1/2", "y4*y6 - y5*y7"), ("1", "y3"),
                    m=7, matroid_name="X", pair=(1, 2))
        text = certificate_to_text(c)
        back = certificate_from_text(text)
        assert certificate_to_text(back) == text
        assert back.terms == c.terms

    def test_format_fraction_int_or_fraction(self):
        assert format_fraction(3) == format_fraction(Fraction(3)) == "3"
        assert format_fraction(-7) == format_fraction(Fraction(-14, 2)) == "-7"
        assert format_fraction(Fraction(-1, 2)) == str(Fraction(-1, 2)) == "-1/2"

    def test_shipped_files_are_canonical(self):
        from hppcheck.certificate import shipped_store_dir
        for path in sorted(shipped_store_dir().glob("*.cert")):
            text = path.read_text()
            back = certificate_from_text(text, source=str(path))
            assert certificate_to_text(back) == text

    def test_lookup_examples(self):
        store = shipped_store()
        c = store.lookup("nP_d1", (2, 4))
        assert c is not None and len(c.terms) == 5
        assert store.lookup("V8", (3, 4)) is None
        assert store.lookup("V8", (2, 1)) is not None   # unordered pair

    def test_empty_directory(self, tmp_path):
        assert len(load_store(tmp_path)) == 0

    def test_duplicate_key_rejected(self, tmp_path):
        text = certificate_to_text(cert_of(("1", "y3"), m=3,
                                           matroid_name="A", pair=(1, 2)))
        (tmp_path / "a.cert").write_text(text)
        (tmp_path / "b.cert").write_text(text)
        with pytest.raises(DuplicateCertificateError) as info:
            load_store(tmp_path)
        assert isinstance(info.value, CertificateParseError)

    def test_parse_error_reports_source(self, tmp_path):
        path = tmp_path / "bad.cert"
        path.write_text("{ not json")
        with pytest.raises(CertificateParseError) as info:
            load_store(tmp_path)
        assert "bad.cert" in str(info.value)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(CertificateParseError):
            certificate_from_text(
                '{"matroid": "A", "pair": [1, 2], '
                '"terms": [{"weight": "0", "poly": "y3"}]}')

    def test_inline_target(self):
        text = ('{"target": "y3*y3", '
                '"terms": [{"weight": "1", "poly": "y3"}]}')
        c = certificate_from_text(text)
        assert c.target is not None
        assert verify(c, c.target).passed

    def test_cert_dir_env_override(self, tmp_path, monkeypatch):
        from hppcheck.certificate import shipped_store_dir
        monkeypatch.setenv("HPPCHECK_CERT_DIR", str(tmp_path))
        assert shipped_store_dir() == tmp_path
        assert len(shipped_store()) == 0
        monkeypatch.delenv("HPPCHECK_CERT_DIR")
        assert len(shipped_store()) == 7
