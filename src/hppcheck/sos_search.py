"""Numerical search for sum-of-squares certificates, exactly re-verified.

Pipeline: build a Gram-matrix problem over a multiaffine monomial basis,
run one pass of alternating projections between the coefficient-matching
affine subspace and the PSD cone (round-robin (Brent–Luk) Jacobi
rotations, warm-started, written here, not a library call) to the first
iterate within TOLERANCE of the cone, then rationalize on a face.  The
pass gives up at a stall; no step is random, so runs are reproducible.

There is one rationalization path, `rationalize_and_verify`: restrict the
float Gram matrix to a face {B^T H B} of the PSD cone, round H once (to
denominators at most DENOMINATOR_BOUND), project it exactly and
orthogonally onto the coefficient constraints (Peyrl & Parrilo 2008),
test positive semidefiniteness with an exact LDL^T factorization under
symmetric pivoting, and read certificate terms off the factors.  One
rounding gives up a face whose interior margin is below its 2^-16 error
but above a finer rounding's; no search so far has met such a face.
`search_certificate` tries three faces in a fixed order, each built only
when the one before it fails: the whole space, the kernel given by
integer zeros of the target, and the kernel spanned by the float
iterate's near-null eigenvectors.  Exact verification decides every
candidate (Permenter & Parrilo, partial facial reduction), so the float
stage cannot leak into a proof.

Failure at any stage returns None; failure to find a certificate says
nothing about nonexistence.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterator

import numpy as np

from hppcheck.certificate import SosCertificate, verify
from hppcheck.polynomial import Exponents, Polynomial

# the denominator bound a face's Gram matrix is rounded to, once
DENOMINATOR_BOUND = 1 << 16
# the search stops at the first iterate whose minimum eigenvalue is above
# -TOLERANCE, and gives up after STALL_ITERATIONS iterations in a row
# that do not raise the best one by 1e-14, or after MAX_ITERATIONS;
# eigenvalues below 2 * TOLERANCE are near-null
TOLERANCE = 5e-4
MAX_ITERATIONS = 50_000
STALL_ITERATIONS = 200
JACOBI_TOLERANCE = 1e-13       # relative off-diagonal norm at convergence
JACOBI_MAX_SWEEPS = 100
ZERO_BOX = 2                   # zeros are sought in [-ZERO_BOX, ZERO_BOX]
ZERO_CAP = 400                 # and at most this many are used


class GramProblemError(ValueError):
    """Raised when the target cannot have a Gram decomposition at all."""


class UnsuitableTargetError(GramProblemError):
    """The target is zero, not homogeneous, of odd degree or has a variable
    above degree 2: unsuitable input, not a proof that no certificate exists."""


@dataclass
class GramProblem:
    target: Polynomial
    basis: list[Exponents]                 # degree-d multiaffine exponent tuples
    groups: list[tuple[list[tuple[int, int]], Fraction]]
    # each group: (ordered index pairs of the Gram matrix, target coefficient)

    @property
    def size(self) -> int:
        return len(self.basis)

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
    """Set up target == v^T G v over a multiaffine monomial basis.

    The basis is every multiaffine monomial of half the target degree over
    the target's support variables whose square has a nonzero target
    coefficient: the square of a multiaffine monomial b arises only as
    b * b, so a zero coefficient pins G[b, b] = 0, and a PSD G then has a
    zero row at b.  Requires the target homogeneous of even degree with
    per-variable degree at most two; a negative pure-square coefficient
    is immediately infeasible since it pins a diagonal entry of any valid
    Gram matrix.
    """
    if target.is_zero():
        raise UnsuitableTargetError("zero target needs no certificate")
    if not target.is_homogeneous():
        raise UnsuitableTargetError("target must be homogeneous")
    deg = target.total_degree()
    if deg % 2:
        raise UnsuitableTargetError(f"target degree {deg} is odd")
    if any(e > 2 for exps in target.terms for e in exps):
        raise UnsuitableTargetError("target has a variable of degree > 2")
    d = deg // 2
    for exps, coeff in target.terms.items():
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
        if target.coefficient(tuple(2 * x for x in exps)) != 0:
            basis.append(tuple(exps))
    if not basis:
        raise GramProblemError("empty monomial basis: no square of a "
                               "multiaffine monomial is in the target")

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


def jacobi_eigh(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
        for _ in range(JACOBI_MAX_SWEEPS):
            # direct off-diagonal norm; the difference-of-sums form cancels
            # catastrophically once the matrix is nearly diagonal
            off = float(np.sqrt(((A - np.diag(np.diagonal(A))) ** 2).sum()))
            if off <= JACOBI_TOLERANCE * scale:
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


def _project_affine(G: np.ndarray, problem: GramProblem) -> np.ndarray:
    flat, group, size, rhs = problem.affine_index
    entries = G.take(flat)
    sums = np.bincount(group, weights=entries, minlength=len(rhs))
    out = G.copy()
    # the groups partition their entries, so each flat index occurs once
    out.put(flat, entries + ((rhs - sums) / size)[group])
    return out


def search(problem: GramProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Alternating projections onto {A(G) = coeffs} and the PSD cone.

    Returns the first affine-feasible iterate G whose minimum eigenvalue
    exceeds -TOLERANCE, with its eigendecomposition (vals, Q), or None at
    a stall or after MAX_ITERATIONS.  No step is random.  Each
    decomposition is warm-started from the previous iterate's eigenbasis
    (the identity on the first iteration).
    """
    n = problem.size
    G = _project_affine(np.zeros((n, n)), problem)
    best_eig = -np.inf
    stall = 0
    Q = np.eye(n)
    for _ in range(MAX_ITERATIONS):
        # G is affine-feasible here; one decomposition serves both the
        # stopping test and the PSD projection.  G moves little per
        # iteration, so in the previous eigenbasis it is nearly diagonal
        # and about one sweep does.
        vals, rotation = jacobi_eigh(Q.T @ G @ Q)
        Q = Q @ rotation
        min_eig = float(vals.min())
        if min_eig > -TOLERANCE:
            return G, vals, Q
        if min_eig > best_eig + 1e-14:
            best_eig = min_eig
            stall = 0
        else:
            stall += 1
            if stall >= STALL_ITERATIONS:
                return None
        P = (Q * np.maximum(vals, 0.0)) @ Q.T        # the PSD projection
        G = _project_affine((P + P.T) / 2.0, problem)
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




# -- exact rationalization on a face --------------------------------------------
#
# When the target touches zero on real points, every valid Gram matrix is
# singular there: target(x) = v(x)^T G v(x) = 0 with G PSD forces
# G v(x) = 0, where v(x) evaluates the basis monomials.  Such kernel
# vectors, exact or guessed, restrict the search to a face of the PSD cone;
# on the face a boundary-touching problem has relative interior, which
# rounds robustly.


def _integer_zero_kernel(problem: GramProblem) -> list[list[int]]:
    """Exact kernel vectors v(x) from the nonzero integer zeros x of the
    target in [-ZERO_BOX, ZERO_BOX] over its support variables (at most
    ZERO_CAP).

    The target is evaluated exactly in int64 after clearing denominators.
    A target whose bound sum |c| * ZERO_BOX^deg could overflow gets no
    vectors: that loses a face, never soundness.
    """
    target = problem.target
    support = [v - 1 for v in sorted(target.support_variables())]
    if len(support) > 7:
        return []
    den = lcm(*(c.denominator for c in target.terms.values()))
    coeffs = [int(c * den) for c in target.terms.values()]
    if sum(map(abs, coeffs)) * ZERO_BOX ** target.total_degree() >= 1 << 63:
        return []
    # int8 holds the grid and its squares in an eighth of the memory
    grid = np.arange(-ZERO_BOX, ZERO_BOX + 1, dtype=np.int8)
    pts = np.array(np.meshgrid(*([grid] * len(support)),
                               indexing="ij")).reshape(len(support), -1).T
    powers = [[pts[:, k] ** e for e in range(3)] for k in range(len(support))]
    vals = np.zeros(len(pts), dtype=np.int64)
    for exps, c in zip(target.terms, coeffs):
        term = np.full(len(pts), c, dtype=np.int64)
        for k, j in enumerate(support):
            if exps[j]:
                term *= powers[k][exps[j]]
        vals += term
    zeros = pts[(vals == 0) & pts.any(axis=1)][:ZERO_CAP]
    # v(x) for all zeros at once: the basis monomials are multiaffine
    mask = np.array([[exps[j] for j in support] for exps in problem.basis],
                    dtype=bool)
    images = np.where(mask, zeros[:, None, :], 1).prod(axis=2)
    vectors: list[list[int]] = []
    seen: set[tuple[int, ...]] = set()
    for vec in map(tuple, images.tolist()):
        if any(vec) and vec not in seen:
            seen.add(vec)
            vectors.append(list(vec))
    return vectors


def _eigenvector_kernel(vals: np.ndarray, Q: np.ndarray) -> list[list[Fraction]]:
    """Guessed kernel vectors: the eigenvectors of the iterate whose
    eigenvalues are below 2 * TOLERANCE, in reduced row echelon form
    (floats, partial pivoting), each entry rounded with limit_denominator(8).

    A certificate's kernel is often spanned by sparse vectors of small
    integers, and the near-null space of a loose iterate approximates it.
    """
    V = Q[:, vals < 2 * TOLERANCE].T.copy()
    rank = 0
    for c in range(V.shape[1]):
        if rank == len(V):
            break
        p = rank + int(np.abs(V[rank:, c]).argmax())
        if abs(V[p, c]) < 1e-6:
            continue
        V[[rank, p]] = V[[p, rank]]
        V[rank] /= V[rank, c]
        for i in range(len(V)):
            if i != rank:
                V[i] -= V[i, c] * V[rank]
        rank += 1
    return [[Fraction(float(x)).limit_denominator(8) for x in row]
            for row in V[:rank]]


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).
    Zero entries of the pivot row are skipped when it is scaled and
    subtracted, which is most of the work on sparse rows."""
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
        nonzero = [(t, x * inv) for t, x in enumerate(mat[r]) if x]
        for t, x in nonzero:
            mat[r][t] = x
        for i in range(nrows):
            f = mat[i][c]
            if i != r and f != 0:
                row = mat[i]
                for t, x in nonzero:
                    row[t] -= f * x
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat[:r], pivots


def _free_basis(red: list[list[Fraction]], pivots: list[int],
                n: int) -> list[list[Fraction]]:
    """Nullspace basis read off a reduced row echelon form with n unknown
    columns (any later column is ignored): one vector per free column."""
    pivot_set = set(pivots)
    basis = []
    for fc in range(n):
        if fc in pivot_set:
            continue
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def _nullspace(rows: list[list[Fraction]], n: int) -> list[list[Fraction]]:
    """Rational basis of {x : rows @ x = 0} in dimension n."""
    return _free_basis(*_rref(rows), n)


def _affine_projection(C: list[list[Fraction]], b: list[Fraction],
                       x0: list[Fraction]) -> list[Fraction] | None:
    """The exact Euclidean projection of x0 onto {x : C x = b}; None when
    the system is inconsistent.

    One RREF of [C | b] gives a particular solution xp (the free variables
    zero) and a basis N of the nullspace of C, scaled to integer columns.
    The projection is xp + N z, where z solves (N^T N) z = N^T (x0 - xp),
    by one more RREF.
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
    for vec in _free_basis(red, pivots, ncols):
        scale = lcm(*(x.denominator for x in vec))
        N.append([int(x * scale) for x in vec])
    if not N:
        return xp
    support = [[(t, x) for t, x in enumerate(vec) if x] for vec in N]
    normal = [[sum(x * col[t] for t, x in nz) for col in N]
              + [sum(x * (x0[t] - xp[t]) for t, x in nz)]
              for nz in support]
    # N^T N is positive definite, so the RREF is [I | z]
    solved, _ = _rref(normal)
    out = list(xp)
    for row, nz in zip(solved, support):
        for t, x in nz:
            out[t] += row[-1] * x
    return out


def rationalize_and_verify(G: np.ndarray, problem: GramProblem,
                           kernel: list[list[Fraction]]) -> SosCertificate | None:
    """Exact rationalization of G on the face of Gram matrices that vanish
    on the kernel; returns the certificate if it verifies, else None.

    Writes G = B^T H B with the rows of B a rational basis of the kernel's
    orthogonal complement (the whole space for an empty kernel).  The
    least-squares H is rounded once, to denominators at most
    DENOMINATOR_BOUND, projected exactly onto the coefficient constraints
    (consistent by construction), factored by `ldlt_psd`, and its
    certificate terms read off the factors.
    """
    n = problem.size
    B = _nullspace(kernel, n)        # rows: the face basis
    r = len(B)
    if r == 0:
        return None
    # rounded float H via least squares: H ~= (B B^T)^{-1} B G B^T (B B^T)^{-1}
    Bf = np.array([[float(x) for x in row] for row in B], dtype=float).T  # n x r
    M = Bf.T @ Bf
    try:
        Minv = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        return None
    Hf = Minv @ (Bf.T @ np.asarray(G, dtype=float) @ Bf) @ Minv
    Hf = (Hf + Hf.T) / 2.0
    # unknowns: upper triangle of H; constraints: for each group, the sum
    # of (B^T H B)[i][j] over its pairs equals rhs, built from the nonzero
    # entries of B only
    idx = [(p, q) for p in range(r) for q in range(p, r)]
    unknown = {pq: t for t, pq in enumerate(idx)}
    column = [[(p, B[p][i]) for p in range(r) if B[p][i]] for i in range(n)]
    C: list[list[Fraction]] = []
    b: list[Fraction] = []
    for pairs, rhs in problem.groups:
        row = [0] * len(idx)
        for i, j in pairs:
            for p, x in column[i]:
                for q, y in column[j]:
                    row[unknown[min(p, q), max(p, q)]] += x * y
        C.append(row)
        b.append(rhs)
    x0 = [Fraction(float(Hf[p, q])).limit_denominator(DENOMINATOR_BOUND)
          for p, q in idx]
    sol = _affine_projection(C, b, x0)
    if sol is None:
        return None
    H = [[Fraction(0)] * r for _ in range(r)]
    for t, (p, q) in enumerate(idx):
        H[p][q] = sol[t]
        H[q][p] = sol[t]
    fact = ldlt_psd(H)
    if fact is None:
        return None
    perm, L, D = fact
    # each row of B as a polynomial: its weights on the basis monomials
    w_polys = [Polynomial(problem.target.m,
                          {e: x for e, x in zip(problem.basis, row) if x})
               for row in B]
    terms = []
    for k in range(r):
        if D[k] == 0:
            continue
        q = Polynomial.zero(problem.target.m)
        for a in range(r):
            if L[a][k] != 0:
                q = q + w_polys[perm[a]].scalar_mul(L[a][k])
        terms.append((D[k], q))
    cert = SosCertificate(terms=tuple(terms), target=problem.target)
    return cert if verify(cert, problem.target) else None


def _face_kernels(problem: GramProblem, vals: np.ndarray, Q: np.ndarray
                  ) -> Iterator[list[list[Fraction]]]:
    """The kernels of the faces to try, in order, each built only when the
    one before it has failed: the whole space, then the target's integer
    zeros, then the near-null eigenvectors in (vals, Q).  An empty kernel
    after the first would repeat the whole space, so it is skipped."""
    yield []
    kernel = _integer_zero_kernel(problem)
    if kernel:
        yield kernel
    kernel = _eigenvector_kernel(vals, Q)
    if kernel:
        yield kernel


def search_certificate(target: Polynomial) -> SosCertificate | None:
    """End-to-end search; returns an exactly verified certificate or None.

    Makes one float pass, `search`, on the problem of `build_problem`: it
    stops at the first iterate within TOLERANCE of the PSD cone, since the
    exact face projection only needs a rough starting point.  The iterate,
    if any, is rationalized by `rationalize_and_verify` on three faces in a
    fixed order, each built only when the one before it fails:
      1. the whole space (empty kernel);
      2. the kernel of the target's integer zeros;
      3. the kernel of the iterate's near-null eigenvectors.
    Each face is rounded once, at `DENOMINATOR_BOUND`.
    """
    try:
        problem = build_problem(target)
    except GramProblemError:
        return None
    found = search(problem)
    if found is None:
        return None
    G, vals, Q = found
    for kernel in _face_kernels(problem, vals, Q):
        cert = rationalize_and_verify(G, problem, kernel)
        if cert is not None:
            return cert
    return None
