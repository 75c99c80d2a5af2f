"""Numerical search for sum-of-squares certificates, exactly re-verified.

Pipeline: build a Gram-matrix problem over a multiaffine monomial basis,
run alternating projections between the coefficient-matching affine
subspace and the PSD cone (eigendecompositions via round-robin (Brent–Luk)
Jacobi rotations, warm-started from the previous iterate's eigenbasis,
written here, not a library call), then round the float Gram matrix to
rationals, repair the affine constraints exactly, test positive
semidefiniteness with an exact LDL^T factorization under symmetric
pivoting, and read certificate terms off the factors.  A certificate is
only ever emitted after it verifies exactly against the target, so the
float stage cannot leak into a proof.

Failure at any stage returns None; failure to find a certificate says
nothing about nonexistence.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Callable

import numpy as np

from hppcheck.certificate import SosCertificate, verify
from hppcheck.polynomial import Exponents, Polynomial


class GramProblemError(ValueError):
    """Raised when the target cannot have a Gram decomposition at all."""


@dataclass
class GramProblem:
    target: Polynomial
    basis: list[Exponents]                 # degree-d multiaffine exponent tuples
    groups: list[tuple[list[tuple[int, int]], Fraction]]
    # each group: (ordered index pairs of the Gram matrix, target coefficient)

    @property
    def size(self) -> int:
        return len(self.basis)

    def basis_polynomials(self) -> list[Polynomial]:
        return [Polynomial(self.target.m, {e: Fraction(1)}) for e in self.basis]

    @functools.cached_property
    def affine_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The groups as flat arrays for `_project_affine`: the flat Gram
        index and group id of every entry, then each group's size and
        target coefficient as floats."""
        n = self.size
        flat = [i * n + j for pairs, _ in self.groups for i, j in pairs]
        group = [g for g, (pairs, _) in enumerate(self.groups) for _ in pairs]
        size = [float(len(pairs)) for pairs, _ in self.groups]
        rhs = [float(rhs) for _, rhs in self.groups]
        return (np.array(flat, dtype=np.intp), np.array(group, dtype=np.intp),
                np.array(size), np.array(rhs))


def build_problem(target: Polynomial) -> GramProblem:
    """Set up target == v^T G v over the multiaffine monomial basis.

    The basis is every multiaffine monomial of half the target degree over
    the target's support variables.  Requires the target homogeneous of
    even degree with per-variable degree at most two; a negative
    pure-square coefficient is immediately infeasible since it pins a
    diagonal entry of any valid Gram matrix.
    """
    if target.is_zero():
        raise GramProblemError("zero target needs no certificate")
    if not target.is_homogeneous():
        raise GramProblemError("target must be homogeneous")
    deg = target.total_degree()
    if deg % 2:
        raise GramProblemError(f"target degree {deg} is odd")
    d = deg // 2
    for exps, coeff in target.terms.items():
        if any(e > 2 for e in exps):
            raise GramProblemError("target has a variable of degree > 2")
        if all(e % 2 == 0 for e in exps) and coeff < 0:
            raise GramProblemError(
                "negative pure-square coefficient: any Gram diagonal entry "
                "for it would be negative")
    support = sorted(target.support_variables())
    m = target.m
    basis: list[Exponents] = []
    for subset in combinations(support, d):
        exps = [0] * m
        for v in subset:
            exps[v - 1] = 1
        basis.append(tuple(exps))
    if not basis:
        raise GramProblemError("empty monomial basis")

    by_product: dict[Exponents, list[tuple[int, int]]] = {}
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            prod = tuple(a + b for a, b in zip(bi, bj))
            by_product.setdefault(prod, []).append((i, j))
    # every target monomial must be a product of two basis monomials
    for exps in target.terms:
        if exps not in by_product:
            raise GramProblemError(
                f"target monomial {exps} is not a product of basis monomials")
    groups = [(pairs, target.coefficient(prod))
              for prod, pairs in sorted(by_product.items())]
    return GramProblem(target=target, basis=basis, groups=groups)


# -- round-robin Jacobi eigendecomposition -------------------------------------


def _round_robin(n: int) -> list[list[tuple[int, int]]]:
    """One Jacobi sweep in the Brent–Luk parallel (round-robin) ordering.

    Returns the rounds as lists of pairs (p, q) with p < q: n - 1 rounds
    of n/2 disjoint pairs for even n.  Odd n runs the schedule for n + 1
    and drops the pairs holding the dummy index, which gives n rounds.
    Every pair p < q occurs exactly once per sweep.
    """
    m = n + n % 2
    rounds = []
    for r in range(m - 1):
        pairs = [(r, m - 1)] + [((r + k) % (m - 1), (r - k) % (m - 1))
                                for k in range(1, m // 2)]
        rounds.append(sorted((min(a, b), max(a, b)) for a, b in pairs
                             if max(a, b) < n))
    return rounds


@functools.cache
def _rotation_plan(n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Per round of `_round_robin(n)`, flat indices into an n x n matrix:
    the diagonal entries (p, p) and (q, q), the entries (p, q), the four
    entries of each rotation block, and the two entries zeroed after it.
    The arrays are read-only because every caller shares them."""
    plan = []
    for pairs in _round_robin(n):
        p, q = np.array(pairs, dtype=np.intp).T
        pp, qq, pq, qp = p * (n + 1), q * (n + 1), p * n + q, q * n + p
        arrays = (pp, qq, pq, np.concatenate((pp, pq, qp, qq)),
                  np.concatenate((pq, qp)))
        for a in arrays:
            a.flags.writeable = False
        plan.append(arrays)
    return tuple(plan)


def jacobi_eigh(A: np.ndarray, tol: float = 1e-13,
                max_sweeps: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by Jacobi rotations.

    Each sweep visits every pair (p, q) once in the round-robin
    (Brent–Luk) ordering of `_round_robin`; the disjoint rotations of one
    round are applied together as one block rotation J, A <- J^T A J.
    Returns (eigenvalues, Q) with A == Q @ diag(eigenvalues) @ Q.T up to
    rotation roundoff.  `search` warm-starts it: it passes Q.T @ G @ Q for
    the previous iterate's eigenbasis Q, which is nearly diagonal, and
    multiplies the returned rotation back onto Q.
    """
    A = np.array(A, dtype=float)
    n = A.shape[0]
    eye = np.eye(n)
    if n == 1:
        return A.diagonal().copy(), eye
    scale = max(1.0, float(np.abs(np.diagonal(A)).max()))
    plan = _rotation_plan(n)
    Q = eye
    with np.errstate(over="ignore"):
        for _ in range(max_sweeps):
            # direct off-diagonal norm; the difference-of-sums form cancels
            # catastrophically once the matrix is nearly diagonal
            off = float(np.sqrt(((A - np.diag(np.diagonal(A))) ** 2).sum()))
            if off <= tol * scale:
                break
            for pp, qq, pq, rot, zero in plan:
                apq = A.take(pq)
                live = np.abs(apq) > 1e-300
                if not live.all():
                    if not live.any():
                        continue
                    # skip the pairs whose A[p, q] is negligible
                    pp, qq, apq = pp[live], qq[live], apq[live]
                    rot, zero = rot[np.tile(live, 4)], zero[np.tile(live, 2)]
                tau = (A.take(qq) - A.take(pp)) / (2.0 * apq)
                t = np.sign(tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
                t[tau == 0.0] = 1.0
                big = np.abs(tau) > 1e100
                if big.any():
                    t[big] = 1.0 / (2.0 * tau[big])
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                J = eye.copy()
                J.put(rot, np.concatenate((c, s, -s, c)))
                A = J.T @ A @ J
                A.put(zero, 0.0)
                Q = Q @ J
    return np.diagonal(A).copy(), Q


def _reassemble_clipped(vals: np.ndarray, Q: np.ndarray) -> np.ndarray:
    clipped = np.maximum(vals, 0.0)
    out = (Q * clipped) @ Q.T
    return (out + out.T) / 2.0


def _project_affine(G: np.ndarray, problem: GramProblem) -> np.ndarray:
    flat, group, size, rhs = problem.affine_index
    entries = G.take(flat)
    sums = np.bincount(group, weights=entries, minlength=len(rhs))
    out = G.copy()
    # the groups partition their entries, so each flat index occurs once
    out.put(flat, entries + ((rhs - sums) / size)[group])
    return out


def search(problem: GramProblem, tolerance: float = 1e-9,
           max_iterations: int = 50_000, seed: int = 0) -> np.ndarray | None:
    """Alternating projections onto {A(G) = coeffs} and the PSD cone.

    Returns an affine-feasible G whose minimum eigenvalue exceeds
    -tolerance, or None.  Start point and stall jitter are seeded, so runs
    are reproducible.  Each decomposition is warm-started from the previous
    iterate's eigenbasis, except on the first iteration and after a jitter.
    """
    n = problem.size
    rng = np.random.default_rng([seed, n])
    G = _project_affine(np.zeros((n, n)), problem)
    best_eig = -np.inf
    stall = 0
    Q = None
    for _ in range(max_iterations):
        # G is affine-feasible here; one decomposition serves both the
        # convergence test and the PSD projection.  G moves little per
        # iteration, so in the previous eigenbasis it is nearly diagonal
        # and about one sweep does.
        if Q is None:
            vals, Q = jacobi_eigh(G)
        else:
            vals, rotation = jacobi_eigh(Q.T @ G @ Q)
            Q = Q @ rotation
        min_eig = float(vals.min())
        if min_eig > -tolerance:
            return G
        if min_eig > best_eig + 1e-14:
            best_eig = min_eig
            stall = 0
        else:
            stall += 1
            if stall >= 200:
                jitter = rng.normal(scale=max(-min_eig, 1e-6), size=(n, n))
                jitter = (jitter + jitter.T) / 2.0
                G = _project_affine(G + jitter, problem)
                best_eig = -np.inf
                stall = 0
                Q = None
                continue
        P = _reassemble_clipped(vals, Q)
        G = _project_affine(P, problem)
    return None


# -- exact rational LDL^T -------------------------------------------------------


def ldlt_psd(A: list[list[Fraction]]) -> tuple[list[int], list[list[Fraction]], list[Fraction]] | None:
    """P A P^T = L D L^T with symmetric (greatest-diagonal) pivoting.

    Returns (perm, L, D) when A is positive semidefinite, else None.  perm
    lists original indices in pivot order; L is unit lower triangular.
    """
    n = len(A)
    A = [list(row) for row in A]
    perm = list(range(n))
    L = [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
         for i in range(n)]
    D = [Fraction(0)] * n
    for k in range(n):
        p = max(range(k, n), key=lambda i: A[i][i])
        if A[p][p] < 0:
            return None
        if A[p][p] == 0:
            # PSD forces the whole trailing block to vanish
            for i in range(k, n):
                for j in range(k, n):
                    if A[i][j] != 0:
                        return None
            break
        if p != k:
            A[k], A[p] = A[p], A[k]
            for row in A:
                row[k], row[p] = row[p], row[k]
            perm[k], perm[p] = perm[p], perm[k]
            for j in range(k):
                L[k][j], L[p][j] = L[p][j], L[k][j]
        d = Fraction(A[k][k])
        D[k] = d
        for i in range(k + 1, n):
            L[i][k] = A[i][k] / d
        for i in range(k + 1, n):
            aik = A[i][k]
            if aik == 0:
                continue
            for j in range(k + 1, n):
                A[i][j] -= aik * A[k][j] / d
        for i in range(k + 1, n):
            A[i][k] = Fraction(0)
            A[k][i] = Fraction(0)
    return perm, L, D


def certificate_from_gram(Grat: list[list[Fraction]],
                          problem: GramProblem) -> SosCertificate | None:
    """Exact PSD test + certificate extraction from a rational Gram matrix."""
    fact = ldlt_psd(Grat)
    if fact is None:
        return None
    perm, L, D = fact
    monos = problem.basis_polynomials()
    terms = []
    n = problem.size
    for k in range(n):
        if D[k] == 0:
            continue
        q = Polynomial.zero(problem.target.m)
        for a in range(n):
            if L[a][k] != 0:
                q = q + monos[perm[a]].scalar_mul(L[a][k])
        terms.append((D[k], q))
    if not terms:
        return None
    cert = SosCertificate(terms=tuple(terms), target=problem.target)
    if not verify(cert, problem.target):
        return None
    return cert


def rationalize_and_verify(G: np.ndarray, problem: GramProblem,
                           denominator_bound: int) -> SosCertificate | None:
    """Round, repair the affine constraints exactly, test PSD, extract.

    Basis monomials whose pure-square target coefficient is zero are pinned
    to zero rows first (any PSD solution has them zero), which keeps the
    exact factorization away from forced boundary noise.
    """
    n = problem.size
    zero_rows = set()
    for i, exps in enumerate(problem.basis):
        square = tuple(2 * e for e in exps)
        if problem.target.coefficient(square) == 0:
            zero_rows.add(i)
    Grat: list[list[Fraction]] = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i in zero_rows or j in zero_rows:
                continue
            x = Fraction(float(G[i, j])).limit_denominator(denominator_bound)
            Grat[i][j] = x
            Grat[j][i] = x
    # exact affine repair, distributing the residual inside each group
    for pairs, rhs in problem.groups:
        free = [(i, j) for i, j in pairs
                if i not in zero_rows and j not in zero_rows]
        s = sum(Grat[i][j] for i, j in free) if free else Fraction(0)
        if not free:
            if rhs != 0:
                return None
            continue
        r = Fraction(rhs - s, len(free))
        if r != 0:
            for i, j in free:
                Grat[i][j] += r
    return certificate_from_gram(Grat, problem)


# -- exact facial reduction via target zeros ------------------------------------
#
# When the target touches zero on real points, every valid Gram matrix is
# singular there: target(x) = v(x)^T G v(x) = 0 with G PSD forces
# G v(x) = 0, where v(x) evaluates the basis monomials.  Small integer
# zeros therefore hand us exact kernel constraints; restricting to the
# kernel's orthogonal complement turns a boundary-touching problem into
# one with relative interior, which rounds robustly.


def _integer_zero_kernel(problem: GramProblem,
                         box: int = 2, cap: int = 400) -> list[list[Fraction]]:
    """Exact kernel vectors from integer zeros of the target."""
    target = problem.target
    support = sorted(target.support_variables())
    if len(support) > 7:
        return []
    t_exps = np.array(list(target.terms.keys()), dtype=np.int64)
    t_coef = np.array([int(c) if c.denominator == 1 else 0
                       for c in target.terms.values()], dtype=object)
    if any(c.denominator != 1 for c in target.terms.values()):
        # rational coefficients: clear denominators first
        den = 1
        for c in target.terms.values():
            den = lcm(den, c.denominator)
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
    vectors: list[list[Fraction]] = []
    seen: set[tuple] = set()
    for i in zero_idx[: cap]:
        x = full[i]
        vec = []
        for exps in problem.basis:
            v = 1
            for j in range(target.m):
                if exps[j]:
                    v *= int(x[j]) ** int(exps[j])
            vec.append(Fraction(v))
        if not any(vec):
            continue
        key = tuple(vec)
        if key in seen:
            continue
        seen.add(key)
        vectors.append(vec)
    return vectors


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat[:r], pivots


def _nullspace(rows: list[list[Fraction]], n: int) -> list[list[Fraction]]:
    """Rational basis of {x : rows @ x = 0} in dimension n."""
    if not rows:
        return [[Fraction(i == j) for i in range(n)] for j in range(n)]
    red, pivots = _rref(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def _affine_projection(C: list[list[Fraction]], b: list[Fraction]
                       ) -> Callable[[list[Fraction]], list[Fraction]] | None:
    """The exact Euclidean projection onto {x : C x = b}, as a function of
    the point x0; None when the system is inconsistent.

    Everything that does not depend on x0 is computed here, once: a
    particular solution xp (the RREF of [C | b] with the free variables
    zero), a basis N of the nullspace of C, scaled to integer columns,
    and the inverse of N^T N.  Projecting x0 is then
    xp + N (N^T N)^{-1} N^T (x0 - xp).
    """
    ncols = len(C[0])
    red, pivots = _rref([row + [rhs] for row, rhs in zip(C, b)])
    if pivots and pivots[-1] == ncols:
        return None          # 0 = 1 row: inconsistent
    xp = [Fraction(0)] * ncols
    for row, pc in zip(red, pivots):
        xp[pc] = row[-1]
    # scaling a column of N leaves the projection unchanged
    N = []
    for vec in _nullspace(C, ncols):
        scale = lcm(*(x.denominator for x in vec))
        N.append([int(x * scale) for x in vec])
    d = len(N)
    if d == 0:
        return lambda x0: list(xp)
    support = [[(t, x) for t, x in enumerate(vec) if x] for vec in N]
    gram = [[sum(x * N[j][t] for t, x in support[i]) for j in range(d)]
            for i in range(d)]
    inv, _ = _rref([gram[i] + [int(i == j) for j in range(d)] for i in range(d)])
    inv = [row[d:] for row in inv]

    def project(x0: list[Fraction]) -> list[Fraction]:
        u = [sum(x * (x0[t] - xp[t]) for t, x in nz) for nz in support]
        z = [sum(a * c for a, c in zip(row, u)) for row in inv]
        out = list(xp)
        for zi, nz in zip(z, support):
            for t, x in nz:
                out[t] += zi * x
        return out

    return project


def _rationalize_on_face(G: np.ndarray, problem: GramProblem,
                         kernel: list[list[Fraction]],
                         bounds: list[int]) -> SosCertificate | None:
    """Exact rationalization restricted to the kernel's orthocomplement.

    Writes G = B H B^T with B a rational nullspace basis of the kernel
    constraints, rounds the induced H at each denominator bound in turn,
    projects it exactly onto the (consistent by construction) coefficient
    constraints, and factors; returns the first certificate that verifies.
    Only the rounding depends on the bound, so everything else is built
    once.
    """
    n = problem.size
    B = _nullspace(kernel, n)        # columns (as vectors) of the face basis
    r = len(B)
    if r == 0:
        return None
    # rounded float H via least squares: H ~= (B^T B)^{-1} B^T G B (B^T B)^{-1}
    Bf = np.array([[float(x) for x in col] for col in B], dtype=float).T  # n x r
    M = Bf.T @ Bf
    try:
        Minv = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        return None
    Hf = Minv @ (Bf.T @ np.asarray(G, dtype=float) @ Bf) @ Minv
    Hf = (Hf + Hf.T) / 2.0
    # unknowns: upper triangle of H
    idx = [(p, q) for p in range(r) for q in range(p, r)]
    # constraints: sum over group pairs of (B H B^T)[i][j] = rhs
    C: list[list[Fraction]] = []
    b: list[Fraction] = []
    for pairs, rhs in problem.groups:
        row = [Fraction(0)] * len(idx)
        for i, j in pairs:
            for t, (p, q) in enumerate(idx):
                coeff = B[p][i] * B[q][j]
                if p != q:
                    coeff += B[q][i] * B[p][j]
                row[t] += coeff
        C.append(row)
        b.append(rhs)
    project = _affine_projection(C, b)
    if project is None:
        return None
    monos = problem.basis_polynomials()
    w_polys = []
    for a in range(r):
        poly = Polynomial.zero(problem.target.m)
        for i in range(n):
            if B[a][i] != 0:
                poly = poly + monos[i].scalar_mul(B[a][i])
        w_polys.append(poly)
    for bound in bounds:
        x0 = [Fraction(float(Hf[p, q])).limit_denominator(bound) for p, q in idx]
        sol = project(x0)
        H = [[Fraction(0)] * r for _ in range(r)]
        for t, (p, q) in enumerate(idx):
            H[p][q] = sol[t]
            H[q][p] = sol[t]
        fact = ldlt_psd(H)
        if fact is None:
            continue
        perm, L, D = fact
        terms = []
        for k in range(r):
            if D[k] == 0:
                continue
            q = Polynomial.zero(problem.target.m)
            for a in range(r):
                if L[a][k] != 0:
                    q = q + w_polys[perm[a]].scalar_mul(L[a][k])
            terms.append((D[k], q))
        if not terms:
            continue
        cert = SosCertificate(terms=tuple(terms), target=problem.target)
        if verify(cert, problem.target):
            return cert
    return None


def _reduced_problem(problem: GramProblem) -> GramProblem | None:
    """Drop basis monomials whose pure-square target coefficient is zero."""
    keep = [i for i, e in enumerate(problem.basis)
            if problem.target.coefficient(tuple(2 * x for x in e)) != 0]
    if len(keep) == len(problem.basis):
        return problem
    remap = {old: new for new, old in enumerate(keep)}
    basis = [problem.basis[i] for i in keep]
    groups = []
    for pairs, rhs in problem.groups:
        inside = [(remap[i], remap[j]) for i, j in pairs
                  if i in remap and j in remap]
        if not inside:
            if rhs != 0:
                return None
            continue
        groups.append((inside, rhs))
    if not basis:
        return None
    return GramProblem(target=problem.target, basis=basis, groups=groups)


def search_certificate(target: Polynomial, tolerance: float = 1e-9,
                       max_iterations: int = 50_000,
                       denominator_bound: int = 1 << 16,
                       denominator_cap: int = 1 << 32,
                       seed: int = 0) -> SosCertificate | None:
    """End-to-end search; returns an exactly verified certificate or None.

    Runs the float search on the pure-square-reduced problem, tries the
    direct round-and-repair path at doubling denominator bounds, and falls
    back to the exact zero-kernel face restriction for boundary targets.
    """
    try:
        problem = build_problem(target)
    except GramProblemError:
        return None
    reduced = _reduced_problem(problem)
    if reduced is None:
        return None
    G = search(reduced, tolerance=tolerance,
               max_iterations=min(max_iterations, 4000), seed=seed)
    loose = None
    if G is None:
        # keep a best-effort iterate for the kernel fallback; the exact
        # face projection only needs a rough starting point
        loose = search(reduced, tolerance=5e-4,
                       max_iterations=max_iterations, seed=seed)
        if loose is None:
            return None
    cand = G if G is not None else loose
    bounds = []
    bound = denominator_bound
    while bound <= denominator_cap:
        bounds.append(bound)
        bound *= 4
    for bound in bounds:
        cert = rationalize_and_verify(cand, reduced, bound)
        if cert is not None:
            return cert
    kernel = _integer_zero_kernel(reduced)
    if kernel:
        return _rationalize_on_face(cand, reduced, kernel, bounds)
    return None
