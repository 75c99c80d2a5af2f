"""Randomized falsification and heuristic half-plane evidence.

`falsify` hunts for real points where some pair's Rayleigh difference goes
negative (on the positive orthant or on all of real space).  Floating
point only screens candidates: every reported counterexample is an exact
rational point whose difference re-evaluates exactly negative, so there
are no false refutations.  Each pair's search is a scan of random points
and then a cyclic coordinate descent (`_descend`) from the lowest of them.
The scan's kernel (`_CompiledPoly.eval_many`) is term-major and
row-blocked: it builds each block's monomials as a (T, rows) array and
takes the points in blocks of rows = max(64, BLOCK_ENTRIES // T // 64 * 64)
rows, so a block stays in cache; blocks of a multiple of 64 rows give bit
for bit the values of one matrix-vector product over all the points.
Those last bits depend on the BLAS thread count: OpenBLAS splits a large
product's rows between its threads, and rows at the end of a share can
round apart, so for one seed the float screen, and so which rows are
re-checked or descended from, may differ between machines with different
core counts (the benchmark pins one thread).  Exact soundness is
unaffected: every reported point is re-checked exactly.  Each
chunk keeps its four lowest rows by a linear-time partial pick
(`_lowest_rows`), in the order of a stable sort.  In the descent, each
step minimises the exact one-variable quadratic restriction on the
box, steps only the variables the difference holds, forms that quadratic
from the terms holding the variable alone, and the descent stops at an
exact fixed point (a whole cycle that changes no bit).  `hpp_evidence`
samples complex half-plane points and reports the minimum modulus seen;
random sampling essentially never hits a complex zero, so it claims
nothing unless an exact rational zero is found.
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

# monomials per row block of `_CompiledPoly.eval_many`: 512 KB of float64,
# so a block and its gather buffer stay in a core's L2 cache
BLOCK_ENTRIES = 1 << 16


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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
    """Vectorized evaluation of a polynomial at real or complex points:
    term-major monomials (`monomials`), summed in row blocks
    (`eval_many`)."""

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

    def monomials(self, points: np.ndarray,
                  work: np.ndarray | None = None) -> np.ndarray:
        """points: (N, m) -> monomial values (N, T), built term-major.

        Each variable's powers come from one (degree + 1, N) table filled
        by repeated multiplication and gathered by its exponent column;
        the factors multiply in ascending variable order.  The (T, N)
        product is returned transposed, so each term's column is
        contiguous (an F-ordered matrix).  `work`, when given, is a
        (2, >= T * N) array of the points' dtype that holds the product
        and each gather, so a caller that loops over blocks allocates
        them once.  Real or complex points."""
        n, terms = points.shape[0], len(self.coeffs)
        if work is None:
            work = np.empty((2, terms * n), dtype=points.dtype)
        out = work[0, :terms * n].reshape(terms, n)
        gathered = work[1, :terms * n].reshape(terms, n)
        first = True
        for j, col, degree in self.live:
            x = points[:, j]
            table = np.empty((degree + 1, n), dtype=points.dtype)
            table[0] = 1
            table[1] = x
            for k in range(2, degree + 1):
                table[k] = table[k - 1] * x
            # every index is in range, so "clip" is a plain gather that
            # writes straight into its output
            if first:
                np.take(table, col, axis=0, out=out, mode="clip")
                first = False
            else:
                np.take(table, col, axis=0, out=gathered, mode="clip")
                out *= gathered
        if first:
            out[...] = 1
        return out.T

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """points: (N, m) -> values: (N,).  A value past the float range
        is inf or nan, without a warning: this is only a screen.

        The points go through `monomials` in blocks of
        rows = max(64, BLOCK_ENTRIES // T // 64 * 64) rows, so that a
        block's monomial matrix stays in cache while every variable
        multiplies into it, and the block buffers are allocated once per
        call (fresh ones would page-fault on every block).  Each value is
        bit for bit that of one product over all N rows: the product is a
        BLAS gemv on the F-ordered matrix, which takes rows in SIMD groups
        and its leftover rows apart, and blocks of a multiple of 64 rows
        put every row in the same place of its group as the one product
        does.  The last block ends where the one product ends, with the
        same leftover."""
        n, terms = points.shape[0], len(self.coeffs)
        rows = max(64, BLOCK_ENTRIES // max(terms, 1) // 64 * 64)
        starts = list(range(0, n, rows))
        if len(starts) > 1 and n - starts[-1] < 64:
            # a product of a few rows is summed in another order (numpy
            # takes one row as a dot product; two or three rows were seen
            # to round apart too), so a short last block joins the one
            # before
            starts.pop()
        work = np.empty((2, terms * min(n, rows + 63)), dtype=points.dtype)
        values = np.empty(n, dtype=np.result_type(points.dtype,
                                                  self.coeffs.dtype))
        with np.errstate(over="ignore", invalid="ignore"):
            for start, stop in zip(starts, starts[1:] + [n]):
                block = self.monomials(points[start:stop], work)
                values[start:stop] = block @ self.coeffs
        return values

    def eval_one(self, point: np.ndarray) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            return float((self.monomials(point[None, :]) @ self.coeffs)[0])


def _lowest_rows(vals: np.ndarray, k: int) -> np.ndarray:
    """The rows of the k lowest values, ordered by (value, row):
    `np.argsort(vals, kind="stable")[:k]`.  A partition finds the k-th
    lowest value in linear time, and only the rows not above it are
    sorted: k of them unless values tie or are nan.  nan sorts last, so
    a nan k-th value keeps every row."""
    if len(vals) <= k:
        return np.argsort(vals, kind="stable")
    kth = vals[np.argpartition(vals, k - 1)[k - 1]]
    rows = np.flatnonzero(~(vals > kth))
    return rows[np.argsort(vals[rows], kind="stable")[:k]]


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


def _line_min(a: np.ndarray, b: np.ndarray, lo: float,
              hi: float) -> np.ndarray:
    """Per row, where a*t*t + b*t is least on [lo, hi]: of lo, hi and the
    vertex, in that order, the first minimum wins."""
    f_lo = a * lo * lo + b * lo
    f_hi = a * hi * hi + b * hi
    hi_wins = f_hi < f_lo
    best = np.where(hi_wins, hi, lo)
    f_best = np.where(hi_wins, f_hi, f_lo)
    v = -b / (2 * a)
    f_v = a * v * v + b * v
    vertex_wins = (a > 0) & (lo < v) & (v < hi) & (f_v < f_best)
    return np.where(vertex_wins, v, best)


def _descend(comp: _CompiledPoly, points: np.ndarray, lo: float, hi: float,
             steps: int) -> np.ndarray:
    """Cyclic coordinate descent from every start, (R, m) points, at once.

    Step `step` updates coordinate j = step % m to the minimiser of the
    exact one-variable quadratic restriction a*y_j**2 + b*y_j within the
    box (`_line_min`).  Each step computes only what it reads:

    - a variable that the polynomial does not hold has a = b = 0, so its
      step would write lo, and no step reads its column: such columns are
      set to lo once (those with j < steps) and their steps skipped;
    - a and b are row sums over the terms holding y_j; each term's product
      over the other occurring variables is formed in ascending variable
      order from a stacked power table (1, y, y**2, ...), and multiplying
      by an exact 1.0 for a variable the term lacks changes no bit, so the
      products are those of `monomials`;
    - a step's new column depends only on the other columns, so once a
      whole cycle of steps leaves every bit of every row unchanged, the
      points are an exact fixed point and the descent stops.
    """
    live = [j for j, _, _ in comp.live]
    plans = {}
    for slot, (j, col, _) in enumerate(comp.live):
        terms = np.flatnonzero((col == 1) | (col == 2))
        rows = [r for r in range(len(live)) if r != slot]
        exps = comp.exps[np.ix_(terms, [live[r] for r in rows])]
        plans[j] = (slot, np.array(rows, dtype=np.intp)[:, None], exps.T,
                    comp.coeffs[terms], np.flatnonzero(col[terms] == 2),
                    np.flatnonzero(col[terms] == 1))
    degree = max((d for _, _, d in comp.live), default=1)
    pts = np.array(points, dtype=float)
    bits = pts.view(np.uint64)
    pts[:, [j for j in range(min(comp.m, steps)) if j not in plans]] = lo
    powers = np.empty((len(pts), len(live), degree + 1))
    powers[:, :, 0] = 1
    powers[:, :, 1] = pts[:, live]
    quiet = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(2, degree + 1):
            powers[:, :, k] = powers[:, :, k - 1] * powers[:, :, 1]
        for step in range(steps):
            if quiet == len(plans):
                break
            j = step % comp.m
            if j not in plans:
                continue
            slot, rows, exps, coeffs, quad, lin = plans[j]
            others = np.multiply.reduce(powers[:, rows, exps], axis=1)
            others *= coeffs
            # np.take keeps each row contiguous, so a row sums in the same
            # order as a one-dimensional sum
            a = np.take(others, quad, axis=1).sum(axis=1)
            b = np.take(others, lin, axis=1).sum(axis=1)
            new = _line_min(a, b, lo, hi)
            if np.array_equal(new.view(np.uint64), bits[:, j]):
                quiet += 1
                continue
            quiet = 0
            pts[:, j] = new
            powers[:, slot, 1] = new
            for k in range(2, degree + 1):
                powers[:, slot, k] = powers[:, slot, k - 1] * new
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
            for idx in _lowest_rows(vals, 4):
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
