import random
from fractions import Fraction

import pytest
from hypothesis import settings

from hppcheck import sos_search
from hppcheck.polynomial import Polynomial

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
