from fractions import Fraction

import pytest

from hppcheck.catalog import entry
from hppcheck.certificate import (CertificateParseError,
                                  DuplicateCertificateError, SosCertificate,
                                  certificate_from_text, certificate_to_text,
                                  format_fraction, load_store, shipped_store,
                                  verify)
from hppcheck.polynomial import parse_polynomial
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
