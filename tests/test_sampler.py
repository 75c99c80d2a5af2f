from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import FANO_LINES
from hppcheck import sampler
from hppcheck.catalog import resolve_name, uniform
from hppcheck.matroid import Matroid
from hppcheck.polynomial import Polynomial, parse_polynomial
from hppcheck.rayleigh import rayleigh_diff_multiaffine
from hppcheck.sampler import (HPP_EVIDENCE, RAYLEIGH, STABLE_EVIDENCE,
                              STRONG_RAYLEIGH, Counterexample, SampleConfig,
                              _CompiledPoly, _descend, _lowest_rows, falsify,
                              hpp_evidence)


def descent_size(monkeypatch, restarts, steps):
    """Set the descent's start points and steps per pair."""
    monkeypatch.setattr(sampler, "RESTARTS", restarts)
    monkeypatch.setattr(sampler, "STEPS", steps)


def P(text, m=None):
    return parse_polynomial(text, m)


def matroid(name):
    """A catalog matroid, the Fano plane F7, or the dual of either (a
    trailing `*`)."""
    if name.endswith("*"):
        return matroid(name[:-1]).dual()
    if name == "F7":
        return Matroid.from_nonbases(7, 3, FANO_LINES)
    return resolve_name(name)


def nonzero_differences(name):
    """((e, f), Delta_ef) for every pair whose difference is not zero."""
    Z = matroid(name).basis_polynomial()
    for e, f in combinations(range(1, Z.m + 1), 2):
        delta = rayleigh_diff_multiaffine(Z, e, f)
        if not delta.is_zero():
            yield (e, f), delta


def _monomials_reference(comp, points):
    """The kernel that the row-blocked one replaced: one (N, degree + 1)
    power table per variable, gathered by `table[:, col]` into the whole
    (N, T) matrix (F-ordered), then one matrix-vector product."""
    out = None
    for j, col, degree in comp.live:
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
        out = np.ones((points.shape[0], len(comp.coeffs)), dtype=points.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        return out @ comp.coeffs


def _parent_sampler(monkeypatch):
    """Put the reference kernel and a full argsort of each chunk into
    `sampler`, as they were before the row blocks and the partial pick."""
    monkeypatch.setattr(_CompiledPoly, "eval_many", _monomials_reference)
    monkeypatch.setattr(sampler, "_lowest_rows",
                        lambda vals, k: np.argsort(vals)[:k])


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64),
                          np.asarray(b).view(np.uint64))


def eval_complex(Z, point):
    """Z at a complex point, term by term in Python complex arithmetic."""
    total = 0j
    for exps, c in Z.terms.items():
        term = complex(c)
        for v, e in zip(point, exps):
            if e:
                term *= complex(v) ** e
        total += term
    return total


def _descend_reference(comp, point, lo, hi, steps):
    """The scalar coordinate descent that the batched `_descend` replaced:
    one start, one coordinate step at a time."""
    m = comp.m
    pt = point.copy()
    for step in range(steps):
        j = step % m
        col = comp.exps[:, j]
        others = np.ones(len(comp.coeffs))
        for k in range(m):
            if k == j:
                continue
            ck = comp.exps[:, k]
            nz = ck > 0
            if nz.any():
                others[nz] *= pt[k] ** ck[nz]
        others *= comp.coeffs
        a = others[col == 2].sum()
        b = others[col == 1].sum()
        candidates = [lo, hi]
        if a > 0:
            v = -b / (2 * a)
            if lo < v < hi:
                candidates.append(v)
        best = min(candidates, key=lambda t: a * t * t + b * t)
        pt[j] = best
    return pt


def _descend_batched_reference(comp, points, lo, hi, steps):
    """The batched descent before it skipped absent variables, restricted
    each step to the terms holding y_j and stopped at a fixed point: every
    step builds every monomial without y_j and takes the y_j**2 and y_j
    columns."""
    pts = np.array(points, dtype=float)
    split = [(np.flatnonzero(col == 2), np.flatnonzero(col == 1))
             for col in comp.exps.T]
    for step in range(steps):
        j = step % comp.m
        quad, lin = split[j]
        others = np.ones((len(pts), len(comp.coeffs)))
        first = True
        for k, col, degree in comp.live:
            if k == j:
                continue
            table = np.empty((len(pts), degree + 1))
            table[:, 0] = 1
            table[:, 1] = pts[:, k]
            for e in range(2, degree + 1):
                table[:, e] = table[:, e - 1] * pts[:, k]
            if first:
                others = table[:, col]
                first = False
            else:
                others *= table[:, col]
        others *= comp.coeffs
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


def _descent_starts(m, lo, hi, seed):
    """Seeded starts, then rows at the box's two corners and at 0."""
    starts = np.random.default_rng(seed).uniform(lo, hi, size=(4, m))
    return np.vstack([starts, np.full(m, lo), np.full(m, hi), np.zeros(m)])


def _min_modulus_reference(Z, config):
    """The per-point loop that `hpp_evidence` replaced: the same draws,
    each point evaluated with `eval_complex`."""
    lo, hi = config.bounds()
    poslo = max(lo, 0.05)
    rng = np.random.default_rng([config.seed, 0])
    best, arg = float("inf"), None
    done = 0
    while done < config.trials:
        n = min(2048, config.trials - done)
        pos = rng.uniform(poslo, max(poslo + 1e-6, hi), size=(n, Z.m))
        sym = rng.uniform(-abs(hi), abs(hi), size=(n, Z.m))
        pts = pos + 1j * sym if config.mode == HPP_EVIDENCE else sym + 1j * pos
        done += n
        for row in pts:
            mod = abs(eval_complex(Z, list(row)))
            if mod < best:
                best, arg = mod, tuple(complex(x) for x in row)
    return best, arg


@st.composite
def _polynomials_and_dyadic_points(draw):
    """Integer polynomials with exponents 0-2, where some variables may not
    occur, and points whose coordinates are multiples of 1/8 in [-2, 2]:
    every float product and sum is then exact."""
    m = draw(st.integers(1, 4))
    occurs = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    exps = st.tuples(*[st.integers(0, 2) if on else st.just(0)
                       for on in occurs])
    terms = draw(st.dictionaries(exps, st.integers(-9, 9).filter(bool),
                                 min_size=1, max_size=12))
    rows = draw(st.lists(st.lists(st.integers(-16, 16), min_size=m,
                                  max_size=m), min_size=1, max_size=6))
    return Polynomial(m, terms), [[Fraction(k, 8) for k in row] for row in rows]


class TestConfig:
    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            SampleConfig(mode="BOGUS")

    def test_rayleigh_box_must_be_positive(self):
        with pytest.raises(ValueError):
            SampleConfig(mode=RAYLEIGH, box=(-1.0, 1.0))

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            SampleConfig(trials=0)

    @pytest.mark.parametrize("kwargs", [
        {"box": (float("nan"), 1.0)},
        {"box": (-1.0, float("inf"))},
        {"mode": RAYLEIGH, "box": (float("inf"), float("inf"))},
        {"mode": HPP_EVIDENCE, "box": (1.0, float("nan"))},
        {"box": (5.0, 1.0)},
        {"box": (2.0, 2.0)},
        {"box": (-1e308, 1e308)},
        {"mode": HPP_EVIDENCE, "box": (0.0, 1e308)},
        {"mode": STABLE_EVIDENCE, "box": (1.0, 1.5e308)},
        {"seed": -1},
    ], ids=["nan_lo", "inf_hi", "rayleigh_inf", "hpp_nan_hi", "lo_above_hi",
            "empty_box", "range_overflows", "hpp_range_overflows",
            "stable_range_overflows", "negative_seed"])
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            SampleConfig(**kwargs)

    def test_evidence_box_may_reach_far_below_zero(self):
        # hpp_evidence draws from [max(lo, 0.05), hi] and [-|hi|, |hi|]
        # only, so a vast lo is no overflow there
        config = SampleConfig(mode=HPP_EVIDENCE, trials=10, box=(-1e308, 1.0))
        assert hpp_evidence(parse_polynomial("y1 + y2"), config).min_modulus > 0

    def test_zero_restarts_and_steps_allowed(self, monkeypatch):
        Z = uniform(2, 3).basis_polynomial()
        for restarts, steps in ((0, 10), (3, 0)):
            descent_size(monkeypatch, restarts, steps)
            assert falsify(Z, SampleConfig(trials=200)) is None


class TestFalsify:
    def test_u24_has_no_counterexample(self, monkeypatch):
        Z = uniform(2, 4).basis_polynomial()
        descent_size(monkeypatch, 8, 120)
        config = SampleConfig(mode=STRONG_RAYLEIGH, trials=100_000, seed=1,
                              descent=True)
        assert falsify(Z, config) is None

    def test_np_is_refuted_exactly(self, monkeypatch):
        Z = resolve_name("nP").basis_polynomial()
        descent_size(monkeypatch, 10, 100)
        config = SampleConfig(mode=STRONG_RAYLEIGH, trials=20_000, seed=0,
                              descent=True)
        counter = falsify(Z, config)
        assert counter is not None
        delta = rayleigh_diff_multiaffine(Z, *counter.pair)
        assert delta.eval_rational(list(counter.point)) == counter.value
        assert counter.value < 0

    def test_determinism(self):
        Z = resolve_name("nP").basis_polynomial()
        config = SampleConfig(mode=STRONG_RAYLEIGH, trials=5_000, seed=42,
                              descent=False)
        a = falsify(Z, config)
        b = falsify(Z, config)
        assert a == b

    def test_rayleigh_mode_smoke(self):
        Z = P("y1*y2 + y3*y4 + y1*y4", 4)
        config = SampleConfig(mode=RAYLEIGH, trials=2_000, seed=3,
                              descent=False)
        result = falsify(Z, config)
        # behavior defined and deterministic; record the outcome shape
        assert result is None or isinstance(result, Counterexample)

    def test_requires_multiaffine(self):
        with pytest.raises(ValueError):
            falsify(P("y1*y1 + y2", 2),
                    SampleConfig(mode=STRONG_RAYLEIGH, trials=10))

    def test_wrong_mode_rejected(self):
        with pytest.raises(ValueError):
            falsify(P("y1 + y2", 2), SampleConfig(mode=HPP_EVIDENCE, trials=10))


class TestKernel:
    @given(_polynomials_and_dyadic_points())
    @example((Polynomial(1, {(2,): 3}), [[Fraction(-3, 8)]]))
    @example((Polynomial(3, {(1, 0, 2): -7}), [[Fraction(1, 2), 2, -2]]))
    @example((Polynomial(2, {(0, 0): 4}), [[1, Fraction(-1, 8)]]))
    def test_matches_exact_evaluation(self, case):
        Z, rows = case
        comp = _CompiledPoly(Z)
        points = np.array(rows, dtype=float)
        want = [float(Z.eval_rational(row)) for row in rows]
        assert comp.eval_many(points).tolist() == want
        assert [comp.eval_one(pt) for pt in points] == want

    def test_complex_points(self):
        Z = P("2*y1*y1*y3 - y2 + 5", 3)
        point = [1 + 2j, -0.5j, 3 - 1j]
        value = _CompiledPoly(Z).eval_many(np.array([point]))[0]
        assert abs(value - eval_complex(Z, point)) < 1e-12


class TestBlockedKernel:
    """`eval_many` evaluates row blocks, each a multiple of 64 rows but the
    last, and returns the reference kernel's values bit for bit."""

    @pytest.mark.parametrize("name",
                             ["nP", "V8", "F7m4", "F7", "U_2_4", "W3pe"])
    def test_every_pair_bit_for_bit(self, name):
        for pair, delta in nonzero_differences(name):
            comp = _CompiledPoly(delta)
            rng = np.random.default_rng(list(pair))
            # 1696 rows: the last chunk of 100,000 trials
            for n in (4096, 1696, 1001, 63, 7, 1):
                points = rng.uniform(-10.0, 10.0, size=(n, delta.m))
                want = _monomials_reference(comp, points)
                assert same_bits(comp.eval_many(points), want), (pair, n)
            assert same_bits(comp.eval_one(points[0]), want[0])

    @pytest.mark.parametrize("name", ["U_2_4", "F7m4"])
    def test_complex_rows_bit_for_bit(self, name):
        # the evidence modes' path: the basis polynomial at complex rows,
        # 2048 a chunk, 904 the last chunk of 5,000 trials
        Z = resolve_name(name).basis_polynomial()
        comp = _CompiledPoly(Z)
        rng = np.random.default_rng(9)
        for n in (2048, 904, 7, 1):
            points = (rng.uniform(0.05, 10.0, size=(n, Z.m))
                      + 1j * rng.uniform(-10.0, 10.0, size=(n, Z.m)))
            assert same_bits(comp.eval_many(points),
                             _monomials_reference(comp, points)), n

    @pytest.mark.parametrize("n", [4096, 1696, 1001, 640, 639, 577, 63])
    def test_blocks_are_multiples_of_64_rows(self, monkeypatch, n):
        # nP's Delta_12 has 112 terms, so its blocks hold 576 rows; a last
        # block shorter than 64 rows joins the block before
        comp = _CompiledPoly(dict(nonzero_differences("nP"))[(1, 2)])
        sizes = []
        monomials = _CompiledPoly.monomials

        def spy(self, points, *args):
            sizes.append(len(points))
            return monomials(self, points, *args)

        monkeypatch.setattr(_CompiledPoly, "monomials", spy)
        points = np.random.default_rng(n).uniform(-10.0, 10.0, size=(n, 9))
        values = comp.eval_many(points)
        assert sum(sizes) == n
        assert all(size == 576 for size in sizes[:-1])
        assert len(sizes) == 1 or 64 <= sizes[-1] < 576 + 64
        assert len(sizes) == max(1, (n + 576 - 64) // 576)
        assert same_bits(values, _monomials_reference(comp, points))

    @pytest.mark.parametrize("terms", [{}, {(0, 0): 3}],
                             ids=["zero", "constant"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_variable_free_polynomials(self, terms, dtype):
        # T = 0 and T = 1 without a live variable; 70,000 rows of the
        # constant take two blocks of 65,536 and 4,464 rows
        comp = _CompiledPoly(Polynomial(2, terms))
        for n in (70_000, 5, 1):
            points = np.ones((n, 2), dtype=dtype)
            values = comp.eval_many(points)
            assert values.dtype == _monomials_reference(comp, points).dtype
            assert values.tolist() == [sum(terms.values())] * n
        if dtype is float:
            assert comp.eval_one(points[0]) == sum(terms.values())


class TestLowestRows:
    """`_lowest_rows(vals, k)` is `np.argsort(vals, kind="stable")[:k]`."""

    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, float("inf"),
                                     -float("inf"), float("nan")]),
                    min_size=1, max_size=40))
    @example([float("nan")] * 6)
    @example([1.0, float("nan"), float("nan"), float("nan"), float("nan")])
    @example([2.0, 2.0, 2.0, 2.0, 2.0, 1.0])
    def test_matches_stable_argsort(self, values):
        vals = np.array(values)
        for k in (1, 4):
            assert _lowest_rows(vals, k).tolist() == \
                np.argsort(vals, kind="stable")[:k].tolist()

    @pytest.mark.parametrize("n", [1, 3, 4, 5, 4096])
    def test_random_chunks(self, n):
        vals = np.random.default_rng(n).normal(size=n)
        vals[::3] = vals[0]          # ties
        assert _lowest_rows(vals, 4).tolist() == \
            np.argsort(vals, kind="stable")[:4].tolist()


class TestSameOutputsAsReference:
    """`falsify` with the row-blocked kernel and the partial pick returns
    what it returns with the reference kernel and a full argsort."""

    @pytest.mark.parametrize("name", ["nP", "nP*", "F7", "F7*", "U_2_3"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_falsify(self, monkeypatch, name, seed):
        Z = matroid(name).basis_polynomial()
        config = SampleConfig(mode=STRONG_RAYLEIGH, trials=20_000, seed=seed)
        got = falsify(Z, config)
        _parent_sampler(monkeypatch)
        assert falsify(Z, config) == got

    @pytest.mark.parametrize("name", ["nP", "F7", "U_2_3"])
    def test_falsify_positive_orthant(self, monkeypatch, name):
        # nP holds no counterexample on the positive box: every pair's
        # scan and descent runs to the end
        descent_size(monkeypatch, 10, 100)
        Z = matroid(name).basis_polynomial()
        config = SampleConfig(mode=RAYLEIGH, trials=20_000, seed=0)
        got = falsify(Z, config)
        _parent_sampler(monkeypatch)
        assert falsify(Z, config) == got

    @pytest.mark.parametrize("name", ["U_2_4", "F7m4", "V8", "nP", "W3pe"])
    @pytest.mark.parametrize("mode", [HPP_EVIDENCE, STABLE_EVIDENCE])
    def test_hpp_evidence(self, monkeypatch, name, mode):
        Z = resolve_name(name).basis_polynomial()
        config = SampleConfig(mode=mode, trials=5_000, seed=4)
        got = hpp_evidence(Z, config)
        _parent_sampler(monkeypatch)
        want = hpp_evidence(Z, config)
        assert got.point == want.point
        assert same_bits(got.min_modulus, want.min_modulus)
        assert got == want

    @pytest.mark.parametrize("trials", [1, 3, 4, 5, 4101])
    @pytest.mark.parametrize("mode, name", [(STRONG_RAYLEIGH, "nP"),
                                            (RAYLEIGH, "F7")])
    def test_short_chunks(self, monkeypatch, trials, mode, name):
        # a chunk of at most four rows is sorted whole; 4101 trials end
        # with a chunk of five
        descent_size(monkeypatch, 6, 60)
        Z = matroid(name).basis_polynomial()
        config = SampleConfig(mode=mode, trials=trials, seed=1)
        got = falsify(Z, config)
        _parent_sampler(monkeypatch)
        assert falsify(Z, config) == got


class TestBatchedDescent:
    """The batched descent against the scalar reference, start by start.

    On the real box the descent of these differences reaches flat
    directions: a coordinate whose exact quadratic and linear coefficients
    vanish, or nearly so, at the current point.  Which of lo, hi or the
    vertex wins there is decided by the last bits of the monomials, which
    differ between the reference's `x ** e` and the kernel's products.  So
    on the real box the comparison runs one sweep, before such a point can
    form; the positive box has no flat directions here and runs 90 steps.
    """

    @pytest.mark.parametrize("name", ["F7m4", "nP"])
    @pytest.mark.parametrize("box, steps", [((-10.0, 10.0), None),
                                            ((0.1, 10.0), 90)],
                             ids=["real", "positive"])
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_matches_scalar_reference(self, name, box, steps, seed):
        Z = resolve_name(name).basis_polynomial()
        comp = _CompiledPoly(rayleigh_diff_multiaffine(Z, 1, 2))
        lo, hi = box
        steps = steps or comp.m     # None: one sweep
        starts = np.random.default_rng(seed).uniform(lo, hi, size=(5, comp.m))
        before = starts.copy()
        ends = _descend(comp, starts, lo, hi, steps)
        assert np.array_equal(starts, before)
        for start, end in zip(starts, ends):
            want = _descend_reference(comp, start, lo, hi, steps)
            np.testing.assert_allclose(end, want, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("name", ["F7m4", "nP"])
    def test_rows_are_independent(self, name):
        # each row of a batch ends where it ends when run alone
        Z = resolve_name(name).basis_polynomial()
        comp = _CompiledPoly(rayleigh_diff_multiaffine(Z, 1, 2))
        starts = np.random.default_rng(5).uniform(-10, 10, size=(6, comp.m))
        ends = _descend(comp, starts, -10.0, 10.0, 200)
        for start, end in zip(starts, ends):
            alone = _descend(comp, start[None, :], -10.0, 10.0, 200)[0]
            assert np.array_equal(end, alone)


class TestDescentMatchesBatchedReference:
    """The descent's end points are those of the batched reference, bit for
    bit: live variables only, per-variable term subsets and the exact
    fixed-point stop change what a step computes, not what it writes."""

    @pytest.mark.parametrize("name", ["U_2_3", "U_2_4", "F7m4", "nP"])
    @pytest.mark.parametrize("box", [(-10.0, 10.0), (0.1, 10.0)],
                             ids=["real", "positive"])
    def test_every_pair_bit_for_bit(self, name, box):
        Z = resolve_name(name).basis_polynomial()
        lo, hi = box
        for e, f in combinations(range(1, Z.m + 1), 2):
            delta = rayleigh_diff_multiaffine(Z, e, f)
            if delta.is_zero():
                continue
            comp = _CompiledPoly(delta)
            starts = _descent_starts(Z.m, lo, hi, 100 * e + f)
            ends = _descend(comp, starts, lo, hi, 500)
            want = _descend_batched_reference(comp, starts, lo, hi, 500)
            assert np.array_equal(ends.view(np.uint64),
                                  want.view(np.uint64)), (e, f)

    @pytest.mark.parametrize("steps", [2, 3, 500])
    def test_absent_columns_end_at_lo(self, steps):
        # Delta_34 of U_2_4 lacks y3 and y4: a column that the descent's
        # steps reach (j < steps) ends at lo, and one they miss keeps its
        # start
        Z = uniform(2, 4).basis_polynomial()
        comp = _CompiledPoly(rayleigh_diff_multiaffine(Z, 3, 4))
        starts = _descent_starts(4, -10.0, 10.0, 7)
        ends = _descend(comp, starts, -10.0, 10.0, steps)
        reached = [j for j in (2, 3) if j < steps]
        missed = [j for j in (2, 3) if j >= steps]
        assert (ends[:, reached] == -10.0).all()
        assert np.array_equal(ends[:, missed], starts[:, missed])
        want = _descend_batched_reference(comp, starts, -10.0, 10.0, steps)
        assert np.array_equal(ends.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("box", [(-10.0, 10.0), (0.1, 10.0)],
                             ids=["real", "positive"])
    def test_u23_stops_after_its_first_cycle(self, monkeypatch, box):
        # every difference of U_2_3 is the square of the third variable:
        # the first step moves that column to the minimiser, the next
        # writes the same bits, and the descent ends there.  From 0.0 on
        # the real box the minimiser is the vertex -0.0: a changed bit,
        # though 0.0 == -0.0
        counted = [0]
        line_min = sampler._line_min

        def counting(*args):
            counted[0] += 1
            return line_min(*args)

        monkeypatch.setattr(sampler, "_line_min", counting)
        Z = uniform(2, 3).basis_polynomial()
        lo, hi = box
        for e, f in combinations(range(1, 4), 2):
            comp = _CompiledPoly(rayleigh_diff_multiaffine(Z, e, f))
            for starts in (_descent_starts(3, lo, hi, e + f), np.zeros((2, 3))):
                counted[0] = 0
                ends = _descend(comp, starts, lo, hi, 500)
                assert counted[0] == 2
                want = _descend_batched_reference(comp, starts, lo, hi, 500)
                assert np.array_equal(ends.view(np.uint64),
                                      want.view(np.uint64))


class TestHomogeneity:
    def test_difference_scales_with_degree(self):
        # for homogeneous Z of rank r, diff(lam*y) = lam^(2r-2) * diff(y)
        Z = resolve_name("V8").basis_polynomial()
        delta = rayleigh_diff_multiaffine(Z, 1, 2)
        point = [Fraction(k % 5 - 2, 3) for k in range(8)]
        lam = Fraction(7, 2)
        scaled = [lam * x for x in point]
        assert delta.eval_rational(scaled) == \
            lam ** 6 * delta.eval_rational(point)


class TestEvidence:
    def test_u12_min_modulus_bounded_away(self):
        Z = uniform(1, 2).basis_polynomial()
        config = SampleConfig(mode=HPP_EVIDENCE, trials=3_000, seed=5)
        report = hpp_evidence(Z, config)
        # |y1 + y2| >= Re(y1) + Re(y2) >= 2 * (smallest sampled real part)
        assert report.min_modulus >= 2 * 0.05 - 1e-9
        assert report.exact_zero is None

    def test_all_ones_counts_bases(self):
        for name in ("U_2_4", "F7m4", "V8"):
            M = resolve_name(name)
            Z = M.basis_polynomial()
            val = eval_complex(Z, [1 + 0j] * M.m)
            assert abs(val - M.num_bases()) < 1e-9

    def test_np_reports_without_claim(self):
        Z = resolve_name("nP").basis_polynomial()
        config = SampleConfig(mode=HPP_EVIDENCE, trials=500, seed=2)
        report = hpp_evidence(Z, config)
        assert report.min_modulus > 0
        assert report.exact_zero is None

    def test_stable_mode(self):
        Z = uniform(1, 2).basis_polynomial()
        config = SampleConfig(mode=STABLE_EVIDENCE, trials=500, seed=6)
        report = hpp_evidence(Z, config)
        assert report.mode == STABLE_EVIDENCE
        assert report.min_modulus > 0

    def test_wrong_mode_rejected(self):
        with pytest.raises(ValueError):
            hpp_evidence(P("y1", 1), SampleConfig(mode=RAYLEIGH, trials=10))

    @pytest.mark.parametrize("name", ["U_2_4", "F7m4"])
    @pytest.mark.parametrize("mode", [HPP_EVIDENCE, STABLE_EVIDENCE])
    def test_matches_per_point_reference(self, name, mode):
        Z = resolve_name(name).basis_polynomial()
        config = SampleConfig(mode=mode, trials=5_000, seed=4)
        report = hpp_evidence(Z, config)
        best, arg = _min_modulus_reference(Z, config)
        assert report.point == arg
        assert report.min_modulus == pytest.approx(best, rel=1e-12)

    @pytest.mark.parametrize("mode", [HPP_EVIDENCE, STABLE_EVIDENCE])
    def test_zero_polynomial_is_an_exact_zero(self, mode):
        report = hpp_evidence(Polynomial(2, {}),
                              SampleConfig(mode=mode, trials=50, seed=3))
        assert report.min_modulus == 0.0
        assert report.exact_zero is not None
        assert len(report.exact_zero) == 2


class TestNoFalseRefutations:
    def test_counterexamples_replay_exactly(self, monkeypatch):
        # every emitted counterexample re-verifies in rational arithmetic
        Z = resolve_name("nP").basis_polynomial()
        descent_size(monkeypatch, 5, 80)
        for seed in (0, 1, 2):
            config = SampleConfig(mode=STRONG_RAYLEIGH, trials=8_000,
                                  seed=seed, descent=True)
            counter = falsify(Z, config)
            if counter is None:
                continue
            delta = rayleigh_diff_multiaffine(Z, *counter.pair)
            value = delta.eval_rational(list(counter.point))
            assert value == counter.value and value < 0
