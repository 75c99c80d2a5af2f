import ast
import random
from fractions import Fraction
from itertools import combinations
from math import lcm
from pathlib import Path

import numpy as np
import pytest

from hppcheck import sos_search
from hppcheck.catalog import entry, resolve_name, uniform
from hppcheck.certificate import certificate_to_text, verify
from hppcheck.matroid import Matroid
from hppcheck.polynomial import Polynomial, parse_polynomial
from hppcheck.rayleigh import rayleigh_diff_multiaffine
from hppcheck.sos_search import (GramProblemError, UnsuitableTargetError,
                                 _affine_projection, _integer_zero_kernel,
                                 _nullspace, _project_affine,
                                 _round_robin, _rref,
                                 build_problem, jacobi_eigh, ldlt_psd,
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


def _project_affine_loop(G, problem):
    """The projection as one Python step per group, kept as the reference."""
    out = G.copy()
    for pairs, rhs in problem.groups:
        ii = [i for i, _ in pairs]
        jj = [j for _, j in pairs]
        s = out[ii, jj].sum()
        out[ii, jj] += (float(rhs) - s) / len(pairs)
    return out


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

    @pytest.mark.parametrize("kind", ["diagonal", "zero", "repeated",
                                      "equal_diagonal", "block", "odd3",
                                      "odd5"])
    def test_special_inputs(self, kind):
        rng = np.random.default_rng(5)
        if kind == "diagonal":
            A = np.diag([3.0, -1.0, 0.0, 2.0, 2.0, -7.5])
        elif kind == "zero":
            A = np.zeros((6, 6))
        elif kind == "equal_diagonal":
            # tau == 0 in every pair of the first round
            A = np.ones((6, 6))
            A[0, 5] = A[5, 0] = -2.0
        elif kind == "block":
            # exact zeros between the blocks: rounds mixing skipped pairs
            # (|A[p, q]| <= 1e-300) with rotated ones
            A = np.zeros((7, 7))
            for lo, hi in ((0, 3), (3, 7)):
                X = rng.normal(size=(hi - lo, hi - lo))
                A[lo:hi, lo:hi] = (X + X.T) / 2
        elif kind == "repeated":
            # spectrum (2, 2, 2, -1, 5, 0) in a random orthonormal basis
            V, _ = np.linalg.qr(rng.normal(size=(6, 6)))
            A = (V * [2.0, 2.0, 2.0, -1.0, 5.0, 0.0]) @ V.T
            A = (A + A.T) / 2
        else:
            n = 3 if kind == "odd3" else 5
            A = rng.normal(size=(n, n))
            A = (A + A.T) / 2
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
        # a random rational PSD G is a Gram matrix of y^T G y, so the
        # whole-space face rounds it back exactly and certifies it with
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
            cert = rationalize_and_verify(Gf, prob, [])
            assert cert is not None
            assert verify(cert, target).passed
            assert cert.expand(m) == target
            assert len(cert.terms) == sum(d != 0 for d in ldlt_psd(G)[2])
            checked += 1
        assert checked >= 5


def _exact(values):
    return all(type(x) in (int, Fraction) for x in values)


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
    # the one rationalization path, on the whole space unless a kernel is given
    def test_u24_by_hand(self):
        prob = build_problem(P("y3*y3 + y3*y4 + y4*y4", 4))
        G = np.array([[1.0, 0.5], [0.5, 1.0]])
        cert = rationalize_and_verify(G, prob, [])
        assert cert is not None
        assert cert.terms == (
            (Fraction(1), P("y3 + 1/2*y4", 4)),
            (Fraction(3, 4), P("y4", 4)),
        )

    def test_rank_one_exact(self):
        prob = build_problem(P("y3*y3", 3))
        cert = rationalize_and_verify(np.array([[1.0]]), prob, [])
        assert cert is not None
        assert cert.terms == ((Fraction(1), P("y3", 3)),)

    def test_psd_loss_returns_none(self):
        # an affine-feasible but indefinite Gram matrix must be rejected
        prob = build_problem(P("y3*y3 + 4*y3*y4 + y4*y4", 4))
        G = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert rationalize_and_verify(G, prob, []) is None

    def test_kernel_face(self):
        # (y3 + y4)^2 has the kernel (1, -1); on its face H is 1 x 1
        prob = build_problem(P("y3*y3 + 2*y3*y4 + y4*y4", 4))
        G = np.array([[1.01, 0.98], [0.98, 1.02]])
        cert = rationalize_and_verify(G, prob, [[1, -1]])
        assert cert is not None
        assert cert.terms == ((Fraction(1), P("y3 + y4", 4)),)
        # a kernel that spans everything leaves no face
        assert rationalize_and_verify(G, prob, [[1, 0], [0, 1]]) is None


class TestEndToEnd:
    def test_u24_search_certificate(self):
        Z = uniform(2, 4).basis_polynomial()
        target = rayleigh_diff_multiaffine(Z, 1, 2)
        cert = search_certificate(target)
        assert cert is not None
        assert verify(cert, target).passed

    # from an empty store with default options.  The face each target
    # certifies on: F7m4 on the whole space (1); W3p, W3pe, P7p, nP_d1
    # and nP_d9 on the integer-zero face (2); V8 on the near-null
    # eigenvector face (3).
    FACE = {"F7m4": 1, "W3p": 2, "W3pe": 2, "P7p": 2, "nP_d1": 2,
            "nP_d9": 2, "V8": 3}

    @pytest.mark.parametrize("name", SHIPPED)
    def test_rederives_shipped_targets(self, name, monkeypatch):
        face = self.FACE[name]
        attempts = []

        def counted(*args):
            attempts.append(args[2])
            return rationalize_and_verify(*args)

        monkeypatch.setattr(sos_search, "rationalize_and_verify", counted)
        target = cert_target(name)
        cert = search_certificate(target)
        assert cert is not None
        assert verify(cert, target).passed
        assert len(attempts) == face and all(attempts[1:])

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
