"""An independent exact oracle for the benchmark's correctness checks.

Nothing here imports hppcheck.  Matroids arrive as basis lists,
polynomials as ``{exponent tuple: coefficient}`` dicts, and certificates
as the text of their JSON files, read with this module's own parser of the
polynomial grammar.  Every value is computed exactly, with integers and
plain ``fractions``, at seeded random integer points, so an identity the
program claims is tested by evaluation rather than by the program's own
algebra.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction

Point = list  # 1-indexed values are point[i - 1]
Terms = dict  # {exponent tuple: Fraction}


# -- points -------------------------------------------------------------------


def random_points(rng: random.Random, m: int, count: int) -> list[Point]:
    """Integer points with coordinates in [-60, 60] without 0.  Two
    different polynomials of degree d agree at such a point with
    probability at most d/120 (Schwartz-Zippel), and integers keep the
    exact arithmetic cheap."""
    return [[rng.choice([-1, 1]) * rng.randint(1, 60) for _ in range(m)]
            for _ in range(count)]


# -- polynomials as term dicts -------------------------------------------------


_TERM = re.compile(r"\s*([+-]?)\s*([^+-]+)")


def parse_poly(text: str) -> Terms:
    """Read the polynomial grammar: ``coeff ('*' var)* | var ('*' var)*``
    joined by ``+`` and ``-``; powers are repeated factors."""
    terms: dict[tuple[int, ...], Fraction] = {}
    text = text.strip()
    if text == "0":
        return {}
    raw: list[tuple[Fraction, dict[int, int]]] = []
    pos = 0
    while pos < len(text):
        match = _TERM.match(text, pos)
        if match is None or match.end() == pos:
            raise ValueError(f"cannot read polynomial text at {pos}: {text!r}")
        pos = match.end()
        coeff = Fraction(-1 if match.group(1) == "-" else 1)
        powers: dict[int, int] = {}
        for factor in match.group(2).strip().split("*"):
            factor = factor.strip()
            if factor.startswith("y"):
                v = int(factor[1:])
                powers[v] = powers.get(v, 0) + 1
            else:
                coeff *= Fraction(factor)
        raw.append((coeff, powers))
    m = max((max(p) for _, p in raw if p), default=0)
    for coeff, powers in raw:
        exps = tuple(powers.get(v, 0) for v in range(1, m + 1))
        terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return {e: c for e, c in terms.items() if c != 0}


def evaluate(terms: Terms, point: Point) -> Fraction:
    total = Fraction(0)
    for exps, coeff in terms.items():
        value = 1
        for x, k in zip(point, exps):
            if k:
                value *= x ** k
        total += coeff * value
    return total


def derivative_value(terms: Terms, point: Point, variables: tuple[int, ...]) -> Fraction:
    """Value of the mixed partial derivative in the given distinct variables."""
    total = Fraction(0)
    for exps, coeff in terms.items():
        value = 1
        for i, (x, k) in enumerate(zip(point, exps), start=1):
            if i in variables:
                if k == 0:
                    value = 0
                    break
                value *= k * x ** (k - 1)
            elif k:
                value *= x ** k
        if value:
            total += coeff * value
    return total


def rayleigh_of_terms(terms: Terms, e: int, f: int, point: Point) -> Fraction:
    """Z_e*Z_f - Z_ef*Z at a point, for any polynomial Z."""
    return (derivative_value(terms, point, (e,)) * derivative_value(terms, point, (f,))
            - derivative_value(terms, point, (e, f)) * evaluate(terms, point))


def quadratic_parts(terms: Terms, e: int, f: int, g: int,
                    point: Point) -> tuple[Fraction, Fraction, Fraction]:
    """(A, B, C) of the pair difference as A*t^2 + B*t + C in y_g = t,
    recovered by interpolating at t = -1, 0, 1 (Z multiaffine)."""
    def at(t: int) -> Fraction:
        moved = list(point)
        moved[g - 1] = t
        return rayleigh_of_terms(terms, e, f, moved)

    minus, zero, plus = at(-1), at(0), at(1)
    a = (plus + minus) / 2 - zero
    b = (plus - minus) / 2
    return a, b, zero


# -- matroids as basis lists ----------------------------------------------------


def basis_derivative(bases, point: Point, removed: tuple[int, ...] = ()) -> Fraction:
    """Z_S at a point for the basis polynomial Z, S = removed: the sum over
    bases containing S of the product of their other elements."""
    total = 0
    need = set(removed)
    for basis in bases:
        if not need.issubset(basis):
            continue
        value = 1
        for i in basis:
            if i not in need:
                value *= point[i - 1]
        total += value
    return total


def rayleigh_of_bases(bases, e: int, f: int, point: Point) -> Fraction:
    return (basis_derivative(bases, point, (e,)) * basis_derivative(bases, point, (f,))
            - basis_derivative(bases, point, (e, f)) * basis_derivative(bases, point))


def minor_bases(bases, op: str, e: int) -> list[tuple[int, ...]]:
    """One-element deletion or contraction, survivors relabeled to 1..m-1."""
    def shift(b):
        return tuple(x if x < e else x - 1 for x in b if x != e)
    if op == "delete":
        return sorted(shift(b) for b in bases if e not in b)
    return sorted(shift(b) for b in bases if e in b)


def relabeled_bases(bases, perm) -> list[tuple[int, ...]]:
    return sorted(tuple(sorted(perm[x - 1] for x in b)) for b in bases)


def reduced_bases(bases) -> list[tuple[int, ...]]:
    """Strip loops (compressing labels), then contract every coloop."""
    used = sorted(set().union(*bases))
    rename = {old: new for new, old in enumerate(used, start=1)}
    out = [tuple(rename[x] for x in b) for b in bases]
    coloops = set.intersection(*(set(b) for b in out))
    for c in sorted(coloops, reverse=True):
        out = minor_bases(out, "contract", c)
    return out


# -- the four checks ------------------------------------------------------------


def check_certificate(cert_text: str, bases, pair: tuple[int, int],
                      points: list[Point]) -> str | None:
    """None when sum w_i*q_i^2 equals the pair difference at every point and
    every weight is positive; otherwise the reason it does not."""
    payload = json.loads(cert_text)
    weighted = [(Fraction(t["weight"]), parse_poly(t["poly"]))
                for t in payload["terms"]]
    if not weighted:
        return "certificate has no terms"
    for w, _ in weighted:
        if w <= 0:
            return f"weight {w} is not positive"
    for point in points:
        lhs = sum((w * evaluate(q, point) ** 2 for w, q in weighted), Fraction(0))
        rhs = rayleigh_of_bases(bases, *pair, point)
        if lhs != rhs:
            return f"sum of squares {lhs} != difference {rhs} at {point}"
    return None


def check_counterexample(bases, pair, point, value) -> str | None:
    """None when the pair difference at the point equals value and is < 0."""
    actual = rayleigh_of_bases(bases, *pair, list(point))
    if actual != value:
        return f"difference at the point is {actual}, claimed {value}"
    if actual >= 0:
        return f"difference at the point is {actual}, not negative"
    return None


def check_values(name: str, claimed: Terms, expected, points: list[Point]) -> str | None:
    """None when the claimed polynomial takes the expected value (a function
    of the point) at every point."""
    for point in points:
        got = evaluate(claimed, point)
        want = expected(point)
        if got != want:
            return f"{name}: {got} != {want} at {point}"
    return None


# -- self-test --------------------------------------------------------------------


def self_test(cert_text: str, bases, pair: tuple[int, int],
              points: list[Point]) -> list[str]:
    """Problems with the oracle itself: it must accept a good certificate,
    reject the same certificate with one weight changed, and reject a
    claimed counterexample at a point where the difference is positive."""
    problems = []
    if check_certificate(cert_text, bases, pair, points) is not None:
        problems.append("oracle rejects a good certificate")
    payload = json.loads(cert_text)
    w = Fraction(payload["terms"][0]["weight"])
    payload["terms"][0]["weight"] = str(w + 1)
    if check_certificate(json.dumps(payload), bases, pair, points) is None:
        problems.append("oracle accepts a certificate with one weight changed")
    m = max(max(b) for b in bases)
    ones = [1] * m
    positive = rayleigh_of_bases(bases, *pair, ones)
    if positive <= 0:
        problems.append("self-test point does not give a positive difference")
    elif check_counterexample(bases, pair, ones, positive) is None:
        problems.append("oracle accepts a counterexample where the difference "
                        "is positive")
    return problems
