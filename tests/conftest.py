import random
from fractions import Fraction

import pytest
from hypothesis import settings

from math import gcd, lcm

from hppcheck import sos_search
from hppcheck.polynomial import (MAX_EXPONENT, GroundSetMismatchError,
                                 Polynomial, _clean)

# property tests draw the same examples on every run and never time out
settings.register_profile("hppcheck", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("hppcheck")

# the Fano plane F7: its seven lines are its rank-3 non-bases
FANO_LINES = ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7),
              (3, 4, 7), (3, 5, 6))


def random_multiaffine(rng: random.Random, m: int, density: float = 0.4) -> Polynomial:
    """Random multiaffine polynomial, integer coefficients in [-9, 9]."""
    terms = {}
    for mask in range(2 ** m):
        if rng.random() < density:
            c = rng.randint(-9, 9)
            if c:
                exps = tuple((mask >> i) & 1 for i in range(m))
                terms[exps] = Fraction(c)
    return Polynomial(m, terms)


def count_jacobi(monkeypatch):
    """Count `jacobi_eigh` calls (one per search iteration) from now on."""
    calls = [0]
    eigh = sos_search.jacobi_eigh

    def counted(A):
        calls[0] += 1
        return eigh(A)

    monkeypatch.setattr(sos_search, "jacobi_eigh", counted)
    return calls


def compress_out(p: Polynomial, e: int) -> Polynomial:
    """Drop an absent variable from the ground set, shifting higher labels
    down by one (the matroid minor relabeling on the polynomial side)."""
    i = e - 1
    out = {}
    for exps, c in p.terms.items():
        assert exps[i] == 0, f"variable {e} still present"
        out[exps[:i] + exps[i + 1:]] = c
    return Polynomial(p.m - 1, out)


@pytest.fixture(scope="session")
def proposition_corpus():
    """Shared random corpus for the discriminant/quadratic-decomposition
    property suites: >= 200 multiaffine polynomials with a chosen triple."""
    rng = random.Random(20240613)
    corpus = []
    while len(corpus) < 200:
        m = rng.randint(3, 7)
        Z = random_multiaffine(rng, m, density=0.35)
        if Z.is_zero():
            continue
        e, f, g = rng.sample(range(1, m + 1), 3)
        corpus.append((Z, e, f, g))
    return corpus


# -- the exact layer's products before `sum_of_products` ------------------------
#
# `Polynomial.__mul__` and `__sub__` as they were, one dict and one clean per
# operation, and `weighted_square_sum` with its own square loop: identity
# tests compare the kernel's results, key order included, with these.

def _mul_reference(p: Polynomial, q: Polynomial) -> Polynomial:
    p._check_m(q)
    top = p._top + q._top
    if top > MAX_EXPONENT:
        raise ValueError(f"product could have an exponent above {MAX_EXPONENT}")
    out = {}
    get = out.get
    right = list(q._keys.items())
    for k1, c1 in p._keys.items():
        for k2, c2 in right:
            k = k1 + k2
            prev = get(k)
            out[k] = c1 * c2 if prev is None else prev + c1 * c2
    return Polynomial._trusted(p.m, _clean(out), top)


def _sub_reference(p: Polynomial, q: Polynomial) -> Polynomial:
    p._check_m(q)
    out = dict(p._keys)
    get = out.get
    for k, c in q._keys.items():
        prev = get(k)
        out[k] = -c if prev is None else prev - c
    return Polynomial._trusted(p.m, _clean(out), max(p._top, q._top))


def _weighted_square_sum_reference(m, terms):
    scaled = []
    top = 0
    for w, q in terms:
        if q.m > m:
            raise GroundSetMismatchError(
                f"cannot shrink ground set from {q.m} to {m}")
        top = max(top, 2 * q._top)
        if top > MAX_EXPONENT:
            raise ValueError(
                f"product could have an exponent above {MAX_EXPONENT}")
        coeffs = q._keys
        L = lcm(*(c.denominator for c in coeffs.values() if type(c) is not int))
        if L > 1:
            coeffs = {k: c.numerator * (L // c.denominator)
                      for k, c in coeffs.items()}
        a, b = Fraction(w).as_integer_ratio()
        scaled.append((a, b * L * L, coeffs))
    D = lcm(*(b // gcd(a, b) for a, b, _ in scaled))
    out = {}
    get = out.get
    for a, b, coeffs in scaled:
        c = a * D // b
        items = list(coeffs.items())
        for j, (k1, u1) in enumerate(items):
            cu = c * u1
            k = k1 + k1
            out[k] = get(k, 0) + cu * u1
            cu += cu
            for k2, u2 in items[j + 1:]:
                k = k1 + k2
                out[k] = get(k, 0) + cu * u2
    return Polynomial._trusted(m, {k: c for k, c in out.items() if c}, top), D


def _diff_reference(Z: Polynomial, e: int, f: int) -> Polynomial:
    """`rayleigh_diff` built from the reference products."""
    Ze = Z.contract(e)
    return _sub_reference(_mul_reference(Ze, Z.contract(f)),
                          _mul_reference(Ze.contract(f), Z))


def _diff_multiaffine_reference(Z: Polynomial, e: int, f: int) -> Polynomial:
    """`rayleigh_diff_multiaffine` built from the reference products."""
    Ze = Z.contract(e)
    return _sub_reference(_mul_reference(Ze.delete(f), Z.contract(f).delete(e)),
                          _mul_reference(Ze.contract(f), Z.delete(e).delete(f)))
