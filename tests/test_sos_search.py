import ast
import random
from fractions import Fraction
from itertools import combinations
from math import lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hppcheck import sos_search
from hppcheck.catalog import entry, resolve_name, uniform
from hppcheck.certificate import CertificateStore, certificate_to_text, verify
from hppcheck.checker import (INCONCLUSIVE, REFUTED, CheckOptions,
                              StrongRayleighChecker, replay_report)
from hppcheck.matroid import Matroid
from hppcheck.polynomial import Polynomial, parse_polynomial
from hppcheck.rayleigh import rayleigh_diff_multiaffine
from hppcheck.sos_search import (GramProblemError, UnsuitableTargetError,
                                 _extrapolated_step, _integer_zero_kernel,
                                 _nullspace, _project, _project_affine,
                                 _rotation_plan, _round_robin, _rref,
                                 _solution_space, build_face, build_problem,
                                 jacobi_eigh, ldlt_psd,
                                 rationalize_and_verify, search,
                                 search_certificate)

from conftest import FANO_LINES, count_jacobi

SRC = Path(__file__).resolve().parents[1] / "src" / "hppcheck"
SHIPPED = ["F7m4", "W3p", "W3pe", "P7p", "nP_d1", "nP_d9", "V8"]


def P(text, m=None):
    return parse_polynomial(text, m)


def cert_target(name):
    ent = entry(name)
    return rayleigh_diff_multiaffine(ent.matroid.basis_polynomial(),
                                     *ent.cert_pair)


def mono(b, m):
    exps = [0] * m
    for v in b:
        exps[v - 1] = 1
    return tuple(exps)


class TestBuildProblem:
    def test_u24_basis(self):
        target = P("y3*y3 + y3*y4 + y4*y4", 4)
        prob = build_problem(target)
        assert prob.basis == [mono((3,), 4), mono((4,), 4)]

    def test_f7m4_eight_monomials(self):
        # 10 multiaffine quadratics over the 5 support variables; the two
        # whose squares are absent from the target are left out
        Z = resolve_name("F7m4").basis_polynomial()
        target = rayleigh_diff_multiaffine(Z, 1, 2)
        prob = build_problem(target)
        assert len(prob.basis) == 8
        assert all(sum(b) == 2 for b in prob.basis)
        assert all(target.coefficient(tuple(2 * x for x in b)) != 0
                   for b in prob.basis)

    @pytest.mark.parametrize("name,size", [
        ("F7m4", 8), ("W3p", 8), ("W3pe", 9), ("P7p", 8), ("nP_d1", 12),
        ("nP_d9", 12), ("V8", 16)])
    def test_shipped_basis_sizes(self, name, size):
        assert build_problem(cert_target(name)).size == size

    def test_no_square_in_target_rejected(self):
        # neither y3^2 nor y4^2 occurs, so no basis monomial is kept
        with pytest.raises(GramProblemError, match="empty monomial basis"):
            build_problem(P("y3*y4", 4))

    def test_cross_term_outside_basis_rejected(self):
        # y4 is dropped (no y4^2), so y3*y4 is no product of the basis
        with pytest.raises(GramProblemError, match="not a product"):
            build_problem(P("y3*y3 + y3*y4", 4))

    def test_negative_pure_square_rejected(self):
        with pytest.raises(GramProblemError):
            build_problem(P("-1*y3*y3", 3))

    def test_odd_degree_rejected(self):
        with pytest.raises(UnsuitableTargetError):
            build_problem(P("y1*y2*y3", 3))

    def test_high_variable_degree_rejected(self):
        with pytest.raises(UnsuitableTargetError):
            build_problem(P("y1*y1*y1*y2", 2))

    def test_inhomogeneous_rejected(self):
        with pytest.raises(UnsuitableTargetError):
            build_problem(P("y1*y1 + y2", 2))

    @pytest.mark.parametrize("text", [
        "0*y1",
        # the shape is checked over every term before any sign
        "-1*y1*y1*y2*y2 + y3*y3*y3*y4", "y3*y3*y3*y4 - y1*y1*y2*y2"],
        ids=["zero", "negative_square_first", "negative_square_last"])
    def test_unsuitable_target(self, text):
        with pytest.raises(UnsuitableTargetError):
            build_problem(P(text, 4))

    @pytest.mark.parametrize("text", ["-1*y3*y3", "y3*y4", "y3*y3 + y3*y4"])
    def test_infeasible_targets_are_not_unsuitable(self, text):
        with pytest.raises(GramProblemError) as info:
            build_problem(P(text, 4))
        assert not isinstance(info.value, UnsuitableTargetError)


class TestSearch:
    def test_u24_gram_matrix(self):
        prob = build_problem(P("y3*y3 + y3*y4 + y4*y4", 4))
        G, vals, Q = search(prob)
        want = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert np.allclose(G, want, atol=1e-6)
        # the returned decomposition is the iterate's own
        assert np.linalg.norm((Q * vals) @ Q.T - G) < 1e-10

    def test_single_square_immediate(self):
        prob = build_problem(P("y3*y3", 3))
        G, vals, Q = search(prob)
        assert np.allclose(G, [[1.0]]) and np.allclose(vals, [1.0])

    def test_indefinite_target_fails(self):
        # the only Gram matrix is G = [[1, 2], [2, 1]], which is not PSD
        prob = build_problem(P("y3*y3 + 4*y3*y4 + y4*y4", 4))
        assert search(prob) is None

    def test_stall_gives_up(self, monkeypatch):
        # F7 lacks the half-plane property, so its (1, 2) difference has no
        # certificate; the search stalls from its first iterate on
        calls = count_jacobi(monkeypatch)
        Z = Matroid.from_nonbases(7, 3, FANO_LINES).basis_polynomial()
        prob = build_problem(rayleigh_diff_multiaffine(Z, 1, 2))
        assert search(prob) is None
        assert calls[0] <= sos_search.STALL_ITERATIONS + 1

    @given(st.data())
    def test_extrapolated_step_is_fejer_monotone(self, data):
        # a target v^T G* v over products of two of y1..y4, with G* = L L^T
        # for a random integer lower triangular L of nonzero diagonal, so
        # positive definite and often close to singular: G* is
        # affine-feasible and PSD, so no step may move the iterate farther
        # from it
        pairs = data.draw(st.lists(st.sampled_from(
            list(combinations(range(1, 5), 2))), min_size=1, max_size=6,
            unique=True).map(sorted))
        n = len(pairs)
        L = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=n * n,
                                        max_size=n * n))).reshape(n, n)
        L = np.tril(L, -1) + np.diag(data.draw(st.lists(
            st.integers(1, 3), min_size=n, max_size=n)))
        star = L @ L.T
        terms = {}
        for i, a in enumerate(pairs):
            for j, b in enumerate(pairs):
                prod = tuple(x + y for x, y in zip(mono(a, 4), mono(b, 4)))
                terms[prod] = terms.get(prod, 0) + int(star[i, j])
        prob = build_problem(Polynomial(4, terms))
        assert prob.basis == [mono(b, 4) for b in pairs]
        G = _project_affine(np.zeros((n, n)), prob)
        dist = np.linalg.norm(G - star)
        for _ in range(30):
            vals, Q = jacobi_eigh(G)
            G, lam = _extrapolated_step(G, vals, Q, prob)
            assert 1.0 <= lam <= sos_search.EXTRAPOLATION_CAP == 2.0
            new = np.linalg.norm(G - star)
            assert new <= dist + 1e-9
            dist = new


def _project_affine_loop(G, problem):
    """The projection as one Python step per group, kept as the reference."""
    out = G.copy()
    for pairs, rhs in problem.groups:
        ii = [i for i, _ in pairs]
        jj = [j for _, j in pairs]
        s = out[ii, jj].sum()
        out[ii, jj] += (float(rhs) - s) / len(pairs)
    return out


SPECIAL_KINDS = ["diagonal", "zero", "repeated", "equal_diagonal", "block",
                 "odd3", "odd5"]


def _special_input(kind):
    rng = np.random.default_rng(5)
    if kind == "diagonal":
        return np.diag([3.0, -1.0, 0.0, 2.0, 2.0, -7.5])
    if kind == "zero":
        return np.zeros((6, 6))
    if kind == "equal_diagonal":
        # tau == 0 in every pair of the first round
        A = np.ones((6, 6))
        A[0, 5] = A[5, 0] = -2.0
        return A
    if kind == "block":
        # exact zeros between the blocks: rounds mixing skipped pairs
        # (|A[p, q]| <= 1e-300) with rotated ones
        A = np.zeros((7, 7))
        for lo, hi in ((0, 3), (3, 7)):
            X = rng.normal(size=(hi - lo, hi - lo))
            A[lo:hi, lo:hi] = (X + X.T) / 2
        return A
    if kind == "repeated":
        # spectrum (2, 2, 2, -1, 5, 0) in a random orthonormal basis
        V, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        A = (V * [2.0, 2.0, 2.0, -1.0, 5.0, 0.0]) @ V.T
        return (A + A.T) / 2
    n = 3 if kind == "odd3" else 5
    A = rng.normal(size=(n, n))
    return (A + A.T) / 2


def _jacobi_reference(A):
    """The solver as it was with each round's (c, s) computed by numpy
    expressions over the round's pairs, kept as the reference that
    `jacobi_eigh` must match bit for bit."""
    A = np.array(A, dtype=float)
    n = A.shape[0]
    eye = np.eye(n)
    if n == 1:
        return A.diagonal().copy(), eye
    scale = max(1.0, float(np.abs(np.diagonal(A)).max()))
    plan = _rotation_plan(n)
    Q = eye
    with np.errstate(over="ignore"):
        for _ in range(sos_search.JACOBI_MAX_SWEEPS):
            # direct off-diagonal norm; the difference-of-sums form cancels
            # catastrophically once the matrix is nearly diagonal
            off = float(np.sqrt(((A - np.diag(np.diagonal(A))) ** 2).sum()))
            if off <= sos_search.JACOBI_TOLERANCE * scale:
                break
            for read, rot, zero in plan:
                app, aqq, apq = A.take(read)
                # each guard runs only in a round that needs it; written
                # `not x > bound`, so that a nan takes it too
                if not np.abs(apq).min() > 1e-300:
                    live = np.abs(apq) > 1e-300
                    if not live.any():
                        continue
                    # skip the pairs whose A[p, q] is negligible
                    app, aqq, apq = app[live], aqq[live], apq[live]
                    rot, zero = rot[np.tile(live, 4)], zero[np.tile(live, 2)]
                tau = (aqq - app) / (2.0 * apq)
                abs_tau = np.abs(tau)
                t = np.sign(tau) / (abs_tau + np.sqrt(1.0 + tau * tau))
                if not abs_tau.min() > 0.0:
                    t[tau == 0.0] = 1.0
                if not abs_tau.max() <= 1e100:
                    big = abs_tau > 1e100
                    t[big] = 1.0 / (2.0 * tau[big])
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                J = eye.copy()
                J.put(rot, np.concatenate((c, s, -s, c)))
                A = J.T @ A @ J
                A.put(zero, 0.0)
                Q = Q @ J
    return np.diagonal(A).copy(), Q


def _branch_input(kind):
    """A 4 x 4 input whose first rotation, of the pair (0, 3), takes one
    guard."""
    rng = np.random.default_rng(13)
    A = rng.normal(size=(4, 4))
    A = (A + A.T) / 2
    if kind == "huge_tau":
        # |tau| = 1 / (2e-250) > 1e100: t = 1 / (2 tau)
        A[0, 0], A[3, 3] = 0.0, 1.0
        A[0, 3] = A[3, 0] = 1e-250
    elif kind == "negative_zero_tau":
        # equal diagonal and A[p, q] < 0: tau == -0.0, so t = 1
        A[0, 0] = A[3, 3] = 2.0
        A[0, 3] = A[3, 0] = -1.5
    elif kind == "subnormal":
        # a subnormal A[p, q] is negligible: the pair is skipped, and the
        # other pair of its round, (1, 2), is rotated
        A[0, 3] = A[3, 0] = 5e-324
    elif kind == "nan":
        # a nan A[p, q] is skipped like a negligible one
        A[0, 3] = A[3, 0] = np.nan
    elif kind == "nan_tau":
        # a nan with its sign bit set, as x86 makes for inf - inf: tau is
        # that nan, and so are t, c, s and the rotated entries
        A[0, 0] = -np.nan
    elif kind == "inf":
        # tau = finite / inf == -0.0: t = 1, and the rotation makes nans
        A[0, 3] = A[3, 0] = np.inf
    else:
        A[3, 3] = -np.inf
    return A


class TestJacobi:
    def test_reconstruction_accuracy(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 31))
            A = rng.normal(size=(n, n))
            A = (A + A.T) / 2
            vals, Q = jacobi_eigh(A)
            assert np.linalg.norm((Q * vals) @ Q.T - A) < 1e-10

    def test_matches_numpy_spectrum(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(9, 9))
        A = (A + A.T) / 2
        vals, _ = jacobi_eigh(A)
        assert np.allclose(np.sort(vals), np.linalg.eigvalsh(A), atol=1e-10)

    @pytest.mark.parametrize("n", range(2, 14))
    def test_round_robin_covers_each_pair_once(self, n):
        rounds = _round_robin(n)
        assert len(rounds) == (n - 1 if n % 2 == 0 else n)
        for pairs in rounds:
            assert len(pairs) == n // 2
            assert all(p < q for p, q in pairs)
            assert len({i for pair in pairs for i in pair}) == 2 * len(pairs)
        seen = sorted(pair for pairs in rounds for pair in pairs)
        assert seen == list(combinations(range(n), 2))

    @pytest.mark.parametrize("kind", SPECIAL_KINDS)
    def test_special_inputs(self, kind):
        A = _special_input(kind)
        vals, Q = jacobi_eigh(A)
        assert np.linalg.norm((Q * vals) @ Q.T - A) < 1e-10
        assert np.linalg.norm(Q.T @ Q - np.eye(len(A))) < 1e-10
        assert np.allclose(np.sort(vals), np.linalg.eigvalsh(A), atol=1e-10)

    def test_warm_start_reconstructs(self):
        # the search decomposes Q.T @ G @ Q for the eigenbasis Q of the
        # previous, nearby iterate and multiplies the rotation back
        rng = np.random.default_rng(8)
        for n in (5, 8, 12):
            A = rng.normal(size=(n, n))
            A = (A + A.T) / 2
            E = 1e-3 * rng.normal(size=(n, n))
            B = A + (E + E.T) / 2
            _, Q = jacobi_eigh(A)
            vals, R = jacobi_eigh(Q.T @ B @ Q)
            Q2 = Q @ R
            assert np.linalg.norm((Q2 * vals) @ Q2.T - B) < 1e-10
            assert np.allclose(np.sort(vals), np.linalg.eigvalsh(B), atol=1e-10)


    @pytest.mark.parametrize("name", ["W3p", "nP_d9"])
    def test_project_affine_matches_loop(self, name):
        prob = build_problem(cert_target(name))
        rng = np.random.default_rng(21)
        for _ in range(5):
            G = rng.normal(size=(prob.size, prob.size))
            G = (G + G.T) / 2
            want = _project_affine_loop(G, prob)
            assert np.abs(_project_affine(G, prob) - want).max() < 1e-12


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                  b.view(np.uint64))


class TestJacobiBitIdentity:
    """`jacobi_eigh` computes each rotation on Python floats; its
    eigenvalues and Q are the numpy reference's, bit for bit."""

    def assert_same(self, A):
        with np.errstate(invalid="ignore"):
            want = _jacobi_reference(A)
            got = jacobi_eigh(A)
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])

    @pytest.mark.parametrize("n", range(1, 21))
    def test_random(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(3):
            A = rng.normal(size=(n, n))
            self.assert_same((A + A.T) / 2)

    @pytest.mark.parametrize("n", [2, 5, 8, 12, 17])
    def test_warm_start(self, n):
        rng = np.random.default_rng(200 + n)
        A = rng.normal(size=(n, n))
        A = (A + A.T) / 2
        _, Q = _jacobi_reference(A)
        for _ in range(3):
            E = 1e-3 * rng.normal(size=(n, n))
            A = A + (E + E.T) / 2
            self.assert_same(Q.T @ A @ Q)
            _, R = _jacobi_reference(Q.T @ A @ Q)
            Q = Q @ R

    @pytest.mark.parametrize("kind", SPECIAL_KINDS)
    def test_special_inputs(self, kind):
        self.assert_same(_special_input(kind))

    @pytest.mark.parametrize("kind", ["huge_tau", "negative_zero_tau",
                                      "subnormal", "nan", "nan_tau", "inf",
                                      "minus_inf_diagonal"])
    def test_branches(self, kind):
        self.assert_same(_branch_input(kind))

    def test_branch_inputs_reach_their_guard(self):
        def first_pair(kind):
            app, aqq, apq = _branch_input(kind).take(_rotation_plan(4)[0][0])
            return app[0], aqq[0], apq[0]

        app, aqq, apq = first_pair("huge_tau")
        assert abs((aqq - app) / (2.0 * apq)) > 1e100
        app, aqq, apq = first_pair("negative_zero_tau")
        tau = (aqq - app) / (2.0 * apq)
        assert tau == 0.0 and np.signbit(tau)
        assert 0.0 < first_pair("subnormal")[2] < np.finfo(float).tiny
        assert np.isnan(first_pair("nan")[2])
        app, aqq, apq = first_pair("nan_tau")
        assert np.signbit((aqq - app) / (2.0 * apq))
        assert np.isnan((aqq - app) / (2.0 * apq))
        app, aqq, apq = first_pair("inf")
        assert (aqq - app) / (2.0 * apq) == 0.0
        app, aqq, apq = first_pair("minus_inf_diagonal")
        assert (aqq - app) / (2.0 * apq) in (np.inf, -np.inf)

    # `search` itself: `search_certificate` decides these targets on their
    # zero face with no float iteration
    @pytest.mark.parametrize("name", ["W3p", "nP_d9"])
    def test_same_search(self, name, monkeypatch):
        problem = build_problem(cert_target(name))
        calls = count_jacobi(monkeypatch)
        got = search(problem)
        monkeypatch.setattr(sos_search, "jacobi_eigh", _jacobi_reference)
        reference = count_jacobi(monkeypatch)
        want = search(problem)
        assert calls[0] == reference[0] > 1
        assert all(_same_bits(a, b) for a, b in zip(got, want))

    def test_same_stall(self, monkeypatch):
        Z = Matroid.from_nonbases(7, 3, FANO_LINES).basis_polynomial()
        problem = build_problem(rayleigh_diff_multiaffine(Z, 1, 2))
        calls = count_jacobi(monkeypatch)
        assert search(problem) is None
        monkeypatch.setattr(sos_search, "jacobi_eigh", _jacobi_reference)
        reference = count_jacobi(monkeypatch)
        assert search(problem) is None
        assert calls[0] == reference[0] > 1


def test_no_library_eigensolver():
    # the eigendecompositions are hand-written Jacobi rotations;
    # numpy.linalg.eigvalsh may appear only as a test oracle
    banned = {"eig", "eigh", "eigvals", "eigvalsh"}
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in banned):
                found.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and any(
                    alias.name in banned for alias in node.names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found


def test_search_draws_no_random_numbers():
    # the search is deterministic: the same target always gets the same
    # certificate or None, so neither numpy's nor Python's generator is used
    path = SRC / "sos_search.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (isinstance(node, ast.Attribute) and node.attr == "random"
                and getattr(node.value, "id", None) in ("np", "numpy")):
            found.append(node.lineno)
        if isinstance(node, ast.Import) and any(
                "random" in alias.name.split(".") for alias in node.names):
            found.append(node.lineno)
        if isinstance(node, ast.ImportFrom) and (
                "random" in (node.module or "").split(".")
                or any(alias.name == "random" for alias in node.names)):
            found.append(node.lineno)
    assert not found


def _call_sites(name):
    """`file:top-level definition` of every call to `name` in src/."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and name in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)):
                    sites.append(f"{path.name}:{getattr(top, 'name', '')}")
    return sites


def test_one_ldlt_call_site():
    # one LDL^T-to-terms path: only the face projection factors exactly
    assert _call_sites("ldlt_psd") == ["sos_search.py:rationalize_and_verify"]


def test_one_jacobi_call_site():
    # one float pass: only the search decomposes, and the faces reuse the
    # decomposition it returns
    assert _call_sites("jacobi_eigh") == ["sos_search.py:search"]


def _integer_zero_kernel_object_dtype(problem, box=2, cap=400):
    """The kernel with the target evaluated in object-dtype arrays, kept as
    the reference for the int64 evaluation."""
    target = problem.target
    support = sorted(target.support_variables())
    if len(support) > 7:
        return []
    den = 1
    for c in target.terms.values():
        den = lcm(den, Fraction(c).denominator)
    t_exps = np.array(list(target.terms.keys()), dtype=np.int64)
    t_coef = np.array([int(c * den) for c in target.terms.values()],
                      dtype=object)
    grid = np.arange(-box, box + 1)
    pts = np.array(np.meshgrid(*([grid] * len(support)),
                               indexing="ij")).reshape(len(support), -1).T
    full = np.zeros((pts.shape[0], target.m), dtype=np.int64)
    for col, v in enumerate(support):
        full[:, v - 1] = pts[:, col]
    vals = np.zeros(pts.shape[0], dtype=object)
    for exps, coeff in zip(t_exps, t_coef):
        term = np.full(pts.shape[0], int(coeff), dtype=object)
        for j in range(target.m):
            if exps[j]:
                term = term * (full[:, j].astype(object) ** int(exps[j]))
        vals = vals + term
    zero_idx = [i for i in range(pts.shape[0])
                if vals[i] == 0 and full[i].any()]
    vectors, seen = [], set()
    for i in zero_idx[:cap]:
        x = full[i]
        vec = []
        for exps in problem.basis:
            v = 1
            for j in range(target.m):
                if exps[j]:
                    v *= int(x[j]) ** int(exps[j])
            vec.append(Fraction(v))
        if any(vec) and tuple(vec) not in seen:
            seen.add(tuple(vec))
            vectors.append(vec)
    return vectors


class TestIntegerZeroKernel:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_matches_object_dtype(self, name):
        # same vectors in the same order
        prob = build_problem(cert_target(name))
        kernel = _integer_zero_kernel(prob)
        assert kernel
        assert kernel == _integer_zero_kernel_object_dtype(prob)

    def test_rational_target(self):
        # denominators are cleared: 1/2 (y3 - y4)^2 vanishes on y3 == y4
        prob = build_problem(P("1/2*y3*y3 - y3*y4 + 1/2*y4*y4", 4))
        kernel = _integer_zero_kernel(prob)
        assert kernel == [[-2, -2], [-1, -1], [1, 1], [2, 2]]
        assert kernel == _integer_zero_kernel_object_dtype(prob)

    def test_overflow_bound_gives_no_face(self):
        # c (y3 - y4)^2 has bound sum |c| * 2^deg = 16 c, which must stay
        # below 2^63 for the int64 evaluation
        def square(c):
            return build_problem(P(f"{c}*y3*y3 - {2 * c}*y3*y4 + {c}*y4*y4", 4))
        assert _integer_zero_kernel(square(1 << 59)) == []
        fits = square(1 << 58)
        assert _integer_zero_kernel(fits) == [[-2, -2], [-1, -1], [1, 1], [2, 2]]
        assert _integer_zero_kernel(fits) == _integer_zero_kernel_object_dtype(fits)


class TestLdlt:
    def test_rejects_indefinite(self):
        A = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
        assert ldlt_psd(A) is None
        A = [[Fraction(-1)]]
        assert ldlt_psd(A) is None

    def test_accepts_psd_with_zero_block(self):
        A = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]]
        fact = ldlt_psd(A)
        assert fact is not None

    def test_factorization_reconstructs(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(1, 6)
            L = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                  if j < i else Fraction(i == j) for j in range(n)]
                 for i in range(n)]
            D = [Fraction(rng.randint(0, 5)) for _ in range(n)]
            A = [[sum(L[i][k] * D[k] * L[j][k] for k in range(n))
                  for j in range(n)] for i in range(n)]
            fact = ldlt_psd(A)
            assert fact is not None
            perm, L2, D2 = fact
            # P A P^T == L2 D2 L2^T exactly
            for i in range(n):
                for j in range(n):
                    lhs = A[perm[i]][perm[j]]
                    rhs = sum(L2[i][k] * D2[k] * L2[j][k] for k in range(n))
                    assert lhs == rhs

    def test_extraction_identity_on_random_psd(self):
        # exact LDL^T acceptance implies the weighted squares resum exactly:
        # a random rational PSD G is a Gram matrix of y^T G y, and the
        # only one: the whole-space face pins H = G and certifies it with
        # one term per nonzero pivot
        rng = random.Random(77)
        m = n = 4
        y = [Polynomial.variable(m, v) for v in range(1, m + 1)]
        checked = 0
        for _ in range(10):
            L = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                  if j < i else Fraction(i == j) for j in range(n)]
                 for i in range(n)]
            D = [Fraction(rng.randint(0, 4)) for _ in range(n)]
            G = [[sum(L[i][k] * D[k] * L[j][k] for k in range(n))
                  for j in range(n)] for i in range(n)]
            target = Polynomial.zero(m)
            for i in range(n):
                for j in range(n):
                    target = target + (y[i] * y[j]).scalar_mul(G[i][j])
            if any(G[i][i] == 0 for i in range(n)):
                continue     # a zero row drops its variable from the basis
            prob = build_problem(target)
            Gf = np.array([[float(x) for x in row] for row in G])
            face = build_face(prob, [])
            assert not face.N
            cert = rationalize_and_verify(Gf, prob, face)
            assert cert is not None
            assert verify(cert, target).passed
            assert cert.expand(m) == target
            assert len(cert.terms) == sum(d != 0 for d in ldlt_psd(G)[2])
            checked += 1
        assert checked >= 5


def _exact(values):
    return all(type(x) in (int, Fraction) for x in values)


def _affine_projection(C, b, x0):
    """The exact projection of x0 onto {C x = b}, through the face API."""
    space = _solution_space(C, b)
    return None if space is None else _project(*space, x0)


def _projection_by_normal_equations(C, b, x0):
    """Reference: x = x0 - C'^T y with (C' C'^T) y = C' x0 - b' over the
    independent rows C' x = b' of the RREF of [C | b]."""
    red, pivots = _rref([row + [rhs] for row, rhs in zip(C, b)])
    ncols = len(C[0])
    if ncols in pivots:
        return None
    C2 = [row[:-1] for row in red]
    b2 = [row[-1] for row in red]
    k = len(C2)
    if k == 0:
        return list(x0)
    gram = [[sum(C2[i][t] * C2[j][t] for t in range(ncols)) for j in range(k)]
            for i in range(k)]
    rhs = [sum(C2[i][t] * x0[t] for t in range(ncols)) - b2[i] for i in range(k)]
    red2, _ = _rref([gram[i] + [rhs[i]] for i in range(k)])
    y = [row[-1] for row in red2]
    return [x0[t] - sum(C2[i][t] * y[i] for i in range(k)) for t in range(ncols)]


class TestExactLinearAlgebra:
    def test_rref_integer_input_stays_exact(self):
        red, pivots = _rref([[2, 1]])
        assert (red, pivots) == ([[1, Fraction(1, 2)]], [0])
        assert _exact(red[0])

    def test_nullspace_integer_input_stays_exact(self):
        basis = _nullspace([[2, 1, 0], [0, 3, 3]], 3)
        assert basis == [[Fraction(1, 2), -1, 1]]
        assert _exact(basis[0])

    def test_affine_projection_integer_input_stays_exact(self):
        x = _affine_projection([[2, 0]], [1], [0, 0])
        assert x == [Fraction(1, 2), 0]
        assert _exact(x)
        assert _affine_projection([[1, 1], [2, 2]], [1, 3], [0, 0]) is None

    def test_ldlt_integer_input_stays_exact(self):
        perm, L, D = ldlt_psd([[2, 1], [1, 2]])
        assert (perm, L, D) == ([0, 1], [[1, 0], [Fraction(1, 2), 1]],
                                [2, Fraction(3, 2)])
        assert _exact(D) and all(_exact(row) for row in L)

    def test_affine_projection_matches_normal_equations(self):
        rng = random.Random(5)
        for _ in range(40):
            rows, ncols = rng.randint(1, 5), rng.randint(1, 6)
            C = [[rng.randint(-2, 2) for _ in range(ncols)] for _ in range(rows)]
            if rng.random() < 0.5:
                C.append([x + y for x, y in zip(C[0], C[-1])])  # dependent row
            x1 = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
            b = [sum(c * x for c, x in zip(row, x1)) for row in C]
            for _ in range(3):
                x0 = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                      for _ in range(ncols)]
                x = _affine_projection(C, b, x0)
                assert x == _projection_by_normal_equations(C, b, x0)
                assert all(sum(c * v for c, v in zip(row, x)) == rhs
                           for row, rhs in zip(C, b))


class TestRationalize:
    # the one rationalization path, on the whole space unless a kernel is
    # given; a target over y3, y4 pins H, so the faces below ignore G
    def test_u24_by_hand(self):
        prob = build_problem(P("y3*y3 + y3*y4 + y4*y4", 4))
        G = np.array([[1.0, 0.5], [0.5, 1.0]])
        cert = rationalize_and_verify(G, prob, build_face(prob, []))
        assert cert is not None
        assert cert.terms == (
            (Fraction(1), P("y3 + 1/2*y4", 4)),
            (Fraction(3, 4), P("y4", 4)),
        )

    def test_rank_one_exact(self):
        prob = build_problem(P("y3*y3", 3))
        cert = rationalize_and_verify(np.array([[1.0]]), prob,
                                      build_face(prob, []))
        assert cert is not None
        assert cert.terms == ((Fraction(1), P("y3", 3)),)

    def test_psd_loss_returns_none(self):
        # an affine-feasible but indefinite Gram matrix must be rejected
        prob = build_problem(P("y3*y3 + 4*y3*y4 + y4*y4", 4))
        G = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert rationalize_and_verify(G, prob, build_face(prob, [])) is None

    def test_kernel_face(self):
        # (y3 + y4)^2 has the kernel (1, -1); on its face H is 1 x 1
        prob = build_problem(P("y3*y3 + 2*y3*y4 + y4*y4", 4))
        G = np.array([[1.01, 0.98], [0.98, 1.02]])
        face = build_face(prob, [[1, -1]])
        assert len(face.B) == 1
        cert = rationalize_and_verify(G, prob, face)
        assert cert is not None
        assert cert.terms == ((Fraction(1), P("y3 + y4", 4)),)
        # a kernel that spans everything leaves no face
        assert build_face(prob, [[1, 0], [0, 1]]) is None

    def test_free_face_rounds_the_iterate(self):
        # over the basis y1 y2, y1 y3, y2 y3, ... the products y1 y2 * y3 y4,
        # y1 y3 * y2 y4 and y1 y4 * y2 y3 share a monomial, so the whole
        # space leaves H free and the rounding reads G
        pairs = list(combinations(range(1, 5), 2))
        star = np.eye(len(pairs)) + np.diag([0.5] * 5, 1) + np.diag([0.5] * 5, -1)
        terms = {}
        for i, a in enumerate(pairs):
            for j, b in enumerate(pairs):
                prod = tuple(x + y for x, y in zip(mono(a, 4), mono(b, 4)))
                terms[prod] = terms.get(prod, 0) + Fraction(star[i, j])
        target = Polynomial(4, terms)
        prob = build_problem(target)
        face = build_face(prob, [])
        assert face.N and len(face.B) == 6
        cert = rationalize_and_verify(star + 1e-7, prob, face)
        assert cert is not None and verify(cert, target).passed
        # moving the shared coefficient to y1 y2 * y3 y4 is another Gram
        # matrix of the same target, and gives another certificate
        other = star.copy()
        other[2, 3] = other[3, 2] = 0.0
        other[0, 5] = other[5, 0] = 0.5
        moved = rationalize_and_verify(other, prob, face)
        assert moved is not None and verify(moved, target).passed
        assert certificate_to_text(moved) != certificate_to_text(cert)


def _np_target(pair):
    return rayleigh_diff_multiaffine(resolve_name("nP").basis_polynomial(), *pair)


class TestZeroFace:
    """`search_certificate` starts on the face of the target's integer
    zeros, in exact arithmetic: an empty face, an inconsistent system or a
    pinned H is decided there, with no float iteration."""

    def test_empty_face(self, monkeypatch):
        # (y3 - y4)(y3 - 2 y4) vanishes on (1, 1) and (2, 1), which span
        # the space of the basis y3, y4
        prob = build_problem(P("y3*y3 - 3*y3*y4 + 2*y4*y4", 4))
        assert _nullspace(_integer_zero_kernel(prob), prob.size) == []
        calls = count_jacobi(monkeypatch)
        assert search_certificate(prob.target) is None
        assert calls[0] == 0

    def test_inconsistent_system(self, monkeypatch):
        # nP's (1, 4) difference: its zero face is not empty, but no Gram
        # matrix on it matches the target
        prob = build_problem(_np_target((1, 4)))
        kernel = _integer_zero_kernel(prob)
        assert _nullspace(kernel, prob.size)
        assert build_face(prob, kernel) is None
        calls = count_jacobi(monkeypatch)
        assert search_certificate(prob.target) is None
        assert calls[0] == 0

    def test_pinned_indefinite(self, monkeypatch):
        # no integer zeros, so the face is the whole space, and the one
        # Gram matrix [[1, 2], [2, 1]] is indefinite
        prob = build_problem(P("y3*y3 + 4*y3*y4 + y4*y4", 4))
        face = build_face(prob, _integer_zero_kernel(prob))
        assert face.N == [] and face.xp == [1, 2, 1]
        calls = count_jacobi(monkeypatch)
        assert search_certificate(prob.target) is None
        assert calls[0] == 0

    def test_pinned_psd_certifies(self, monkeypatch):
        # (y3 + y4)^2 + y5^2 vanishes on (1, -1, 0); its face has two rows
        target = P("y3*y3 + 2*y3*y4 + y4*y4 + y5*y5", 5)
        prob = build_problem(target)
        face = build_face(prob, _integer_zero_kernel(prob))
        assert len(face.B) == 2 and face.N == []
        calls = count_jacobi(monkeypatch)
        cert = search_certificate(target)
        assert calls[0] == 0
        assert cert is not None and verify(cert, target).passed
        assert cert.expand(5) == target

    @given(st.data())
    def test_planted_zero_always_certifies(self, data):
        # G = sum of d_k w_k w_k^T over rational w_k orthogonal to an integer
        # point x, so G is PSD with G x = 0, and x^T G x = 0: the target
        # y^T G y vanishes at x and always has a certificate
        n = data.draw(st.integers(2, 5))
        x = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)
                      .filter(any))
        norm = sum(a * a for a in x)
        G = [[Fraction(0)] * n for _ in range(n)]
        for _ in range(data.draw(st.integers(1, n))):
            w = [Fraction(a, b) for a, b in data.draw(st.lists(
                st.tuples(st.integers(-3, 3), st.integers(1, 3)),
                min_size=n, max_size=n))]
            along = sum(a * b for a, b in zip(w, x)) / norm
            w = [a - along * b for a, b in zip(w, x)]
            d = data.draw(st.integers(1, 4))
            for i in range(n):
                for j in range(n):
                    G[i][j] += d * w[i] * w[j]
        terms = {}
        for i in range(n):
            for j in range(n):
                prod = tuple(a + b for a, b in zip(mono((i + 1,), n),
                                                   mono((j + 1,), n)))
                terms[prod] = terms.get(prod, 0) + G[i][j]
        target = Polynomial(n, {e: c for e, c in terms.items() if c})
        assume(not target.is_zero())
        assert target.eval_rational(x) == 0
        cert = search_certificate(target)
        assert cert is not None and verify(cert, target).passed

    @pytest.mark.parametrize("refute", [False, True], ids=["plain", "refute"])
    def test_np_search_runs_no_float_iteration(self, refute, monkeypatch):
        # every pair of nP is decided on its zero face: INCONCLUSIVE from an
        # empty store, or REFUTED by an exact point with refute
        calls = count_jacobi(monkeypatch)
        M = resolve_name("nP")
        store = CertificateStore()
        report = StrongRayleighChecker(
            store, CheckOptions(search=True, refute=refute)).check(M, name="nP")
        assert calls[0] == 0
        assert replay_report(report, M, store)
        if not refute:
            assert report.verdict == INCONCLUSIVE
            return
        assert report.verdict == REFUTED
        just = report.justification
        assert just["kind"] == "counterexample"
        point = [Fraction(x) for x in just["point"]]
        value = Fraction(just["value"])
        assert value < 0
        assert _np_target(just["pair"]).eval_rational(point) == value


class TestEndToEnd:
    def test_u24_search_certificate(self):
        Z = uniform(2, 4).basis_polynomial()
        target = rayleigh_diff_multiaffine(Z, 1, 2)
        cert = search_certificate(target)
        assert cert is not None
        assert verify(cert, target).passed

    # from an empty store with default options.  Each target's zero face
    # (`_integer_zero_kernel`) has this many basis rows r and free
    # unknowns: six pin H and certify on it with no float iteration; V8's
    # leaves 21 unknowns free, and its iterate certifies on the near-null
    # eigenvector face
    ZERO_FACE = {"F7m4": (5, 0), "W3p": (4, 0), "W3pe": (6, 0), "P7p": (4, 0),
                 "nP_d1": (6, 0), "nP_d9": (4, 0), "V8": (14, 21)}
    # V8's iterations under the plain step G <- Y; the extrapolated step
    # takes at most 55 % of them
    PLAIN_ITERATIONS = {"V8": 1_781}

    @pytest.mark.parametrize("name", SHIPPED)
    def test_rederives_shipped_targets(self, name, monkeypatch):
        calls = count_jacobi(monkeypatch)
        faces = []

        def counted(*args):
            faces.append(args[2])
            return rationalize_and_verify(*args)

        monkeypatch.setattr(sos_search, "rationalize_and_verify", counted)
        target = cert_target(name)
        cert = search_certificate(target)
        assert cert is not None
        assert verify(cert, target).passed
        assert (len(faces[0].B), len(faces[0].N)) == self.ZERO_FACE[name]
        if name in self.PLAIN_ITERATIONS:
            assert len(faces) == 2
            assert 1 < calls[0] <= 0.55 * self.PLAIN_ITERATIONS[name]
        else:
            assert len(faces) == 1 and calls[0] == 0

    def test_same_certificate_every_run(self):
        target = cert_target("W3p")
        first, second = search_certificate(target), search_certificate(target)
        assert first is not None
        assert certificate_to_text(first) == certificate_to_text(second)

    def test_certificate_never_unverified(self):
        # the search returns None rather than an unverifiable certificate
        assert search_certificate(P("y3*y4", 4)) is None
        assert search_certificate(P("-1*y3*y3", 3)) is None

    # every pair of two matroids certifies from its first iterate within
    # TOLERANCE, including seven pairs whose search reaches a 1e-9 iterate
    # only later (within 4,000 iterations)
    @pytest.mark.parametrize("name,pair", [
        (name, pair) for name in ("W3p", "P7pp")
        for pair in combinations(range(1, 8), 2)])
    def test_every_pair_certifies(self, name, pair):
        target = rayleigh_diff_multiaffine(
            resolve_name(name).basis_polynomial(), *pair)
        cert = search_certificate(target)
        assert cert is not None
        assert verify(cert, target).passed
