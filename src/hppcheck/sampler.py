"""Randomized falsification and heuristic half-plane evidence.

`falsify` hunts for real points where some pair's Rayleigh difference goes
negative (on the positive orthant or on all of real space).  Floating
point only screens candidates: every reported counterexample is an exact
rational point whose difference re-evaluates exactly negative, so there
are no false refutations.  `hpp_evidence` samples complex half-plane
points and reports the minimum modulus seen; random sampling essentially
never hits a complex zero, so it claims nothing unless an exact rational
zero is found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from hppcheck.polynomial import Polynomial
# rayleigh_diff is unused here, but perfbench/tracing.py wraps sampler.rayleigh_diff
from hppcheck.rayleigh import rayleigh_diff, rayleigh_diff_multiaffine

RAYLEIGH = "RAYLEIGH"
STRONG_RAYLEIGH = "STRONG_RAYLEIGH"
HPP_EVIDENCE = "HPP_EVIDENCE"
STABLE_EVIDENCE = "STABLE_EVIDENCE"

_MODES = (RAYLEIGH, STRONG_RAYLEIGH, HPP_EVIDENCE, STABLE_EVIDENCE)

# coordinate descent per pair: start points, and steps taken from each
RESTARTS = 50
STEPS = 500


@dataclass(frozen=True)
class SampleConfig:
    mode: str = STRONG_RAYLEIGH
    trials: int = 100_000
    box: tuple[float, float] | None = None   # per-coordinate bounds
    seed: int = 0
    descent: bool = True

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        lo, hi = self.bounds()
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"box bounds must be finite, got {lo} {hi}")
        if lo >= hi:
            raise ValueError(f"box needs lo < hi, got {lo} {hi}")
        # falsify draws from [lo, hi], hpp_evidence at widest from [-|hi|, |hi|]
        width = hi - lo if self.mode in (RAYLEIGH, STRONG_RAYLEIGH) else 2 * abs(hi)
        if not math.isfinite(width):
            raise ValueError(f"box {lo} {hi} is wider than a float can hold")
        if self.mode == RAYLEIGH and lo <= 0:
            raise ValueError("RAYLEIGH mode boxes must lie in the open "
                             "positive orthant")

    def bounds(self) -> tuple[float, float]:
        return self.box or default_box(self.mode)


def default_box(mode: str) -> tuple[float, float]:
    if mode == RAYLEIGH:
        return (0.1, 10.0)
    return (-10.0, 10.0)


@dataclass(frozen=True)
class Counterexample:
    pair: tuple[int, int]
    point: tuple[Fraction, ...]
    value: Fraction                 # exact, strictly negative


@dataclass(frozen=True)
class EvidenceReport:
    mode: str
    trials: int
    min_modulus: float
    point: tuple[complex, ...]
    exact_zero: tuple[tuple[Fraction, Fraction], ...] | None = None


class _CompiledPoly:
    """Vectorized evaluation of a polynomial at real or complex points."""

    def __init__(self, p: Polynomial):
        self.m = p.m
        items = p.sorted_terms()
        self.exps = np.array([e for e, _ in items],
                             dtype=np.int64).reshape(len(items), p.m)
        self.coeffs = np.array([float(c) for _, c in items], dtype=float)
        # (variable, its exponent column, its degree) for each variable
        # that occurs
        self.live = [(j, col, int(col.max()))
                     for j, col in enumerate(self.exps.T) if col.any()]

    def monomials(self, points: np.ndarray, skip: int = -1) -> np.ndarray:
        """points: (N, m) -> monomial values (N, T), leaving out variable
        `skip`.  Each variable's powers come from one (N, degree + 1)
        table filled by repeated multiplication and gathered by its
        exponent column; the factors multiply in ascending variable order.
        Real or complex points."""
        out = None
        for j, col, degree in self.live:
            if j == skip:
                continue
            x = points[:, j]
            table = np.empty((points.shape[0], degree + 1), dtype=points.dtype)
            table[:, 0] = 1
            table[:, 1] = x
            for k in range(2, degree + 1):
                table[:, k] = table[:, k - 1] * x
            if out is None:
                out = table[:, col]
            else:
                out *= table[:, col]
        if out is None:
            return np.ones((points.shape[0], len(self.coeffs)),
                           dtype=points.dtype)
        return out

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """points: (N, m) -> values: (N,)"""
        return self.monomials(points) @ self.coeffs

    def eval_one(self, point: np.ndarray) -> float:
        return float((self.monomials(point[None, :]) @ self.coeffs)[0])


def _exact_candidate(delta: Polynomial, pair: tuple[int, int],
                     point: Sequence[float]) -> Counterexample | None:
    """Snap a float point to rationals and confirm negativity exactly."""
    for snap in (1 << 10, 1 << 20, None):
        if snap is None:
            rat = [Fraction(float(x)) for x in point]   # exact dyadic
        else:
            rat = [Fraction(float(x)).limit_denominator(snap) for x in point]
        value = delta.eval_rational(rat)
        if value < 0:
            return Counterexample(pair=pair, point=tuple(rat), value=value)
    return None


def _descend(comp: _CompiledPoly, points: np.ndarray, lo: float, hi: float,
             steps: int) -> np.ndarray:
    """Cyclic coordinate descent from every start, (R, m) points, at once.
    Each coordinate update solves the exact one-variable quadratic
    restriction within the box: of lo, hi and the vertex, in that order,
    the first minimum wins."""
    pts = np.array(points, dtype=float)
    # per-variable split of terms by that variable's exponent
    split = [(np.flatnonzero(col == 2), np.flatnonzero(col == 1))
             for col in comp.exps.T]
    for step in range(steps):
        j = step % comp.m
        quad, lin = split[j]
        others = comp.monomials(pts, skip=j)
        others *= comp.coeffs
        # np.take keeps each row contiguous, so a row sums in the same
        # order as a one-dimensional sum
        a = np.take(others, quad, axis=1).sum(axis=1)
        b = np.take(others, lin, axis=1).sum(axis=1)
        f_lo = a * lo * lo + b * lo
        f_hi = a * hi * hi + b * hi
        hi_wins = f_hi < f_lo
        best = np.where(hi_wins, hi, lo)
        f_best = np.where(hi_wins, f_hi, f_lo)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            v = -b / (2 * a)
            f_v = a * v * v + b * v
        vertex_wins = (a > 0) & (lo < v) & (v < hi) & (f_v < f_best)
        pts[:, j] = np.where(vertex_wins, v, best)
    return pts


def falsify(Z: Polynomial, config: SampleConfig) -> Counterexample | None:
    """Scan pairs for an exactly negative Rayleigh difference.

    Pairs are scanned in lexicographic order; the first exact
    counterexample wins, so output is deterministic for a fixed seed.
    """
    if config.mode not in (RAYLEIGH, STRONG_RAYLEIGH):
        raise ValueError("falsify needs RAYLEIGH or STRONG_RAYLEIGH mode")
    if not Z.is_multiaffine():
        raise ValueError("pair-difference falsification requires a "
                         "multiaffine polynomial")
    lo, hi = config.bounds()
    m = Z.m
    chunk = 4096
    for pair_index, (e, f) in enumerate(combinations(range(1, m + 1), 2)):
        delta = rayleigh_diff_multiaffine(Z, e, f)
        if delta.is_zero():
            continue
        comp = _CompiledPoly(delta)
        rng = np.random.default_rng([config.seed, pair_index])
        best_points: list[tuple[float, np.ndarray]] = []
        done = 0
        while done < config.trials:
            n = min(chunk, config.trials - done)
            pts = rng.uniform(lo, hi, size=(n, m))
            vals = comp.eval_many(pts)
            done += n
            order = np.argsort(vals)
            for idx in order[:4]:
                best_points.append((float(vals[idx]), pts[idx].copy()))
            neg = np.where(vals < 0)[0]
            for idx in neg[:16]:
                found = _exact_candidate(delta, (e, f), pts[idx])
                if found is not None:
                    return found
        if config.descent:
            best_points.sort(key=lambda t: t[0])
            starts = [p for _, p in best_points[:RESTARTS]]
            while len(starts) < RESTARTS:
                starts.append(rng.uniform(lo, hi, size=m))
            ends = _descend(comp, starts, lo, hi, STEPS) if starts else []
            for pt in ends:
                if comp.eval_one(pt) < 0:
                    found = _exact_candidate(delta, (e, f), pt)
                    if found is not None:
                        return found
    return None


def _eval_gaussian(Z: Polynomial,
                   point: Sequence[tuple[Fraction, Fraction]]) -> tuple[Fraction, Fraction]:
    """Exact evaluation at a Gaussian-rational point; returns (re, im)."""
    total_re, total_im = Fraction(0), Fraction(0)
    for exps, coeff in Z.terms.items():
        re, im = coeff, Fraction(0)
        for (pr, pi), e in zip(point, exps):
            for _ in range(e):
                re, im = re * pr - im * pi, re * pi + im * pr
        total_re += re
        total_im += im
    return total_re, total_im


def hpp_evidence(Z: Polynomial, config: SampleConfig) -> EvidenceReport:
    """Minimum |Z| over sampled half-plane points; heuristic evidence only.

    HPP_EVIDENCE samples Re(y) > 0, STABLE_EVIDENCE samples Im(y) > 0.
    The report never claims falsification unless an exact rational complex
    zero is found (which random sampling will essentially never produce).
    """
    if config.mode not in (HPP_EVIDENCE, STABLE_EVIDENCE):
        raise ValueError("hpp_evidence needs HPP_EVIDENCE or STABLE_EVIDENCE mode")
    lo, hi = config.bounds()
    poslo = max(lo, 0.05)
    m = Z.m
    comp = _CompiledPoly(Z)
    rng = np.random.default_rng([config.seed, 0])
    comp_min = float("inf")
    arg_min: tuple[complex, ...] = tuple(complex(1, 0) for _ in range(m))
    exact_zero = None
    chunk = 2048
    done = 0
    while done < config.trials:
        n = min(chunk, config.trials - done)
        pos = rng.uniform(poslo, max(poslo + 1e-6, hi), size=(n, m))
        sym = rng.uniform(-abs(hi), abs(hi), size=(n, m))
        if config.mode == HPP_EVIDENCE:
            pts = pos + 1j * sym
        else:
            pts = sym + 1j * pos
        done += n
        mods = np.abs(comp.eval_many(pts))
        mods[np.isnan(mods)] = np.inf   # NaN never wins, as point by point
        i = int(np.argmin(mods))        # the chunk's first minimum
        if mods[i] < comp_min:
            comp_min = float(mods[i])
            row = pts[i]
            arg_min = tuple(complex(x) for x in row)
            if comp_min == 0.0:
                cand = tuple(
                    (Fraction(float(x.real)).limit_denominator(1 << 20),
                     Fraction(float(x.imag)).limit_denominator(1 << 20))
                    for x in row)
                re, im = _eval_gaussian(Z, cand)
                if re == 0 and im == 0:
                    exact_zero = cand
    return EvidenceReport(mode=config.mode, trials=config.trials,
                          min_modulus=comp_min, point=arg_min,
                          exact_zero=exact_zero)
