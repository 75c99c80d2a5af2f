from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hppcheck import sampler
from hppcheck.catalog import resolve_name, uniform
from hppcheck.polynomial import Polynomial, parse_polynomial
from hppcheck.rayleigh import rayleigh_diff_multiaffine
from hppcheck.sampler import (HPP_EVIDENCE, RAYLEIGH, STABLE_EVIDENCE,
                              STRONG_RAYLEIGH, Counterexample, SampleConfig,
                              _CompiledPoly, _descend, falsify, hpp_evidence)


def descent_size(monkeypatch, restarts, steps):
    """Set the descent's start points and steps per pair."""
    monkeypatch.setattr(sampler, "RESTARTS", restarts)
    monkeypatch.setattr(sampler, "STEPS", steps)


def P(text, m=None):
    return parse_polynomial(text, m)


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
    ], ids=["nan_lo", "inf_hi", "rayleigh_inf", "hpp_nan_hi", "lo_above_hi",
            "empty_box", "range_overflows", "hpp_range_overflows",
            "stable_range_overflows"])
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
