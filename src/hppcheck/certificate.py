"""Sum-of-squares certificates: representation, files, exact verification.

A certificate claims  sum_i w_i * q_i^2  ==  target  for positive rational
weights w_i and polynomials q_i.  Verification is exact; a mismatch is a
verdict (with the first differing monomial), never an exception.

The expansion is computed over the integers, by
`polynomial.weighted_square_sum`: an integer polynomial N and a positive
integer D with N == D * sum_i w_i * q_i^2.  `verify` compares N with
D * target, and `expand` returns N / D.

File format: JSON with fields

    {"matroid": "F7m4", "pair": [1, 2],
     "terms": [{"weight": "1/2", "poly": "y4*y6 - y5*y7"}, ...]}

``matroid``+``pair`` name a Rayleigh-difference target; standalone
certificates may instead carry an inline ``target`` polynomial.  The
serialization is canonical (fixed key order, canonical polynomial text)
and round-trips bit-exactly.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from hppcheck.polynomial import (Polynomial, PolynomialParseError,
                                 format_polynomial, parse_polynomial,
                                 weighted_square_sum)

CERT_SUFFIX = ".cert"


class CertificateParseError(ValueError):
    """Raised on malformed certificate files (includes file context)."""


class DuplicateCertificateError(CertificateParseError):
    """Raised when a store directory defines the same key twice."""


@dataclass(frozen=True)
class SosCertificate:
    """Weighted sum of squares with an optional named or inline target."""

    terms: tuple[tuple[Fraction, Polynomial], ...]
    matroid_name: str | None = None
    pair: tuple[int, int] | None = None
    target: Polynomial | None = None

    def __post_init__(self):
        for w, _ in self.terms:
            if w <= 0:
                raise ValueError(f"certificate weight {w} is not positive")

    def ground_size(self) -> int:
        m = max((q.m for _, q in self.terms), default=0)
        if self.pair:
            m = max(m, *self.pair)
        return m

    def expand(self, m: int | None = None) -> Polynomial:
        """Exact expansion sum_i w_i * q_i^2 on ground set of size m."""
        if m is None:
            m = self.ground_size()
        N, D = weighted_square_sum(m, self.terms)
        return N if D == 1 else N.scalar_mul(Fraction(1, D))

    def key(self) -> tuple[str, tuple[int, int]] | None:
        if self.matroid_name is None or self.pair is None:
            return None
        return (self.matroid_name, tuple(sorted(self.pair)))


@dataclass(frozen=True)
class Verdict:
    """Outcome of an exact verification."""

    passed: bool
    monomial: tuple[int, ...] | None = None   # first differing exponent tuple
    expected: int | Fraction | None = None    # target coefficient there
    actual: int | Fraction | None = None      # expansion coefficient there

    def __bool__(self) -> bool:
        return self.passed

    def describe(self) -> str:
        if self.passed:
            return "PASS"
        mono = Polynomial(len(self.monomial), {self.monomial: Fraction(1)})
        return (f"FAIL at monomial {format_polynomial(mono)}: "
                f"target has {self.expected}, expansion has {self.actual}")


def verify(cert: SosCertificate, target: Polynomial) -> Verdict:
    """PASS iff the expansion equals target exactly.

    On failure, reports the graded-lex-first differing monomial with both
    coefficients.
    """
    # a variable outside the target's ground set can never match
    m = max(cert.ground_size(), target.m)
    tgt = target.padded(m)
    N, D = weighted_square_sum(m, cert.terms)
    if N == (tgt if D == 1 else tgt.scalar_mul(D)):
        return Verdict(passed=True)
    expansion = cert.expand(m)
    diff = expansion - tgt
    exps, _ = diff.sorted_terms()[0]
    return Verdict(passed=False, monomial=exps,
                   expected=tgt.coefficient(exps),
                   actual=expansion.coefficient(exps))


# -- files -------------------------------------------------------------------


def certificate_to_text(cert: SosCertificate) -> str:
    payload: dict = {}
    if cert.matroid_name is not None:
        payload["matroid"] = cert.matroid_name
    if cert.pair is not None:
        payload["pair"] = list(cert.pair)
    if cert.target is not None:
        payload["target"] = format_polynomial(cert.target)
    payload["terms"] = [{"weight": format_fraction(w),
                         "poly": format_polynomial(q)}
                        for w, q in cert.terms]
    return json.dumps(payload, indent=2) + "\n"


def certificate_from_text(text: str, source: str = "<string>") -> SosCertificate:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateParseError(
            f"{source}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(payload, dict):
        raise CertificateParseError(f"{source}: certificate must be a JSON object")
    raw_terms = payload.get("terms")
    if not isinstance(raw_terms, list) or not raw_terms:
        raise CertificateParseError(f"{source}: 'terms' must be a nonempty list")
    terms = []
    for i, item in enumerate(raw_terms):
        try:
            w = _parse_fraction(item["weight"])
            q = parse_polynomial(item["poly"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise CertificateParseError(
                f"{source}: term {i + 1}: {exc}") from exc
        if w <= 0:
            raise CertificateParseError(
                f"{source}: term {i + 1}: weight {w} is not positive")
        terms.append((w, q))
    m = max(q.m for _, q in terms)
    name = payload.get("matroid")
    if name is not None and not isinstance(name, str):
        raise CertificateParseError(f"{source}: 'matroid' must be a string")
    pair = payload.get("pair")
    if pair is not None:
        if not (isinstance(pair, list) and len(pair) == 2
                and all(type(x) is int and x >= 1 for x in pair)
                and pair[0] != pair[1]):
            raise CertificateParseError(
                f"{source}: 'pair' must be two distinct positive integers")
        pair = tuple(pair)
        m = max(m, *pair)
    target = payload.get("target")
    if target is not None:
        if not isinstance(target, str):
            raise CertificateParseError(f"{source}: 'target' must be a string")
        try:
            target = parse_polynomial(target)
        except PolynomialParseError as exc:
            raise CertificateParseError(f"{source}: target: {exc}") from exc
        m = max(m, target.m)
    # put every polynomial on the common ground set
    terms = tuple((w, q.padded(m)) for w, q in terms)
    if target is not None:
        target = target.padded(m)
    return SosCertificate(terms=terms, matroid_name=name, pair=pair,
                          target=target)


def format_fraction(x: int | Fraction) -> str:
    """The text of a rational, "n" or "n/d", as certificates and reports
    write it."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _parse_fraction(text: str) -> Fraction:
    text = str(text).strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(text))


# -- store -------------------------------------------------------------------


@dataclass
class CertificateStore:
    """Certificates keyed by (matroid name, sorted pair)."""

    by_key: dict[tuple[str, tuple[int, int]], SosCertificate] = field(
        default_factory=dict)

    def lookup(self, matroid_name: str, pair: tuple[int, int]) -> SosCertificate | None:
        return self.by_key.get((matroid_name, tuple(sorted(pair))))

    def pairs_for(self, matroid_name: str) -> list[tuple[int, int]]:
        return sorted(p for (nm, p) in self.by_key if nm == matroid_name)

    def __len__(self) -> int:
        return len(self.by_key)


def load_store(directory: str | os.PathLike) -> CertificateStore:
    """Load every *.cert file in a directory (sorted order); the
    directory must exist."""
    store = CertificateStore()
    root = Path(directory)
    if not root.is_dir():
        raise FileNotFoundError(f"no certificate directory {directory}")
    for path in sorted(root.glob(f"*{CERT_SUFFIX}")):
        cert = certificate_from_text(path.read_text(), source=str(path))
        key = cert.key()
        if key is None:
            raise CertificateParseError(
                f"{path}: store certificates need 'matroid' and 'pair'")
        if key in store.by_key:
            raise DuplicateCertificateError(
                f"{path}: duplicate certificate for {key[0]} pair {key[1]}")
        store.by_key[key] = cert
    return store


def shipped_store_dir() -> Path:
    """Directory holding the certificates shipped with the package."""
    override = os.environ.get("HPPCHECK_CERT_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "data" / "certs"


def shipped_store() -> CertificateStore:
    return load_store(shipped_store_dir())
