"""Minor-cofactor sums, the matrix pencil det(A - tB), and the normalized
inequality chain for symmetric PSD-ordered pairs.

For symmetric n x n matrices A, B the sums

    S_m = sum over row-sets I, column-sets J, |I| = |J| = m, of
          det(B[I, J]) * (-1)^{sum I + sum J} * det(A[I^c, J^c])

are exactly the coefficients of det(A - tB) = sum_m (-1)^m S_m t^m, with
S_0 = det(A) and S_n = det(B).  When A >= B >= 0 (as quadratic forms) the
normalized sequence S_m / C(n, m) is non-increasing in m, and for B positive
definite the pencil roots are real and lie in [1, inf).

minor_sums computes every S_m as this direct minor expansion.  One Laplace
recursion along the first row builds all m x m minors of A and B from the
(m - 1) x (m - 1) ones, for 0 < m < n, one column of the expansion at a
time: a gather of the entries, a gather of the smaller minors, a product
and a signed sum; S_0 and S_n are LAPACK's det(A) and det(B), which keep
relative accuracy where B is nearly singular.  It never reads the pencil's
coefficients, so it stays independent of pencil_poly (one DFT of
det(A - tB) at the n + 1 roots of unity) and the two check each other.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .forms import _symmetric
from .poly import UnivariatePolynomial, _circle_coefficients

MAX_N = 8
PSD_TOL_REL = 1e-10
# B counts as singular for pencil_roots below this share of its largest
# eigenvalue; the Vieta identity is checked when B's least eigenvalue
# exceeds PD_CUTOFF times its largest
SINGULAR_REL_TOL = 1e-10
PD_CUTOFF = 1e-6


class HypothesisError(ValueError):
    """A pair fails the PSD-ordering hypotheses; the message names the culprit."""


@dataclass(frozen=True)
class SymmetricMatrixPair:
    """Pair of symmetric n x n matrices, n in [2, 8]."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        n = A.shape[0] if A.ndim == 2 else 0
        if not (2 <= n <= MAX_N):
            raise ValueError(f"A must be n x n with n in [2, {MAX_N}], got {A.shape}")
        A, B = _symmetric(A, n, "A"), _symmetric(self.B, n, "B")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def check_hypotheses(self) -> np.ndarray:
        """Raise HypothesisError unless B >= 0 and A - B >= 0; returns the
        eigenvalues of B, ascending."""
        tol = PSD_TOL_REL * max(float(np.linalg.norm(self.A, 2)),
                                float(np.linalg.norm(self.B, 2)))
        wB = np.linalg.eigvalsh(self.B)
        if wB[0] < -tol:
            raise HypothesisError(
                f"B is not positive semidefinite (min eigenvalue {wB[0]:.3e})")
        wAB = np.linalg.eigvalsh(self.A - self.B)
        if wAB[0] < -tol:
            raise HypothesisError(
                f"A - B is not positive semidefinite (min eigenvalue {wAB[0]:.3e})")
        return wB

    def shifted(self, eps: float) -> "SymmetricMatrixPair":
        I = np.eye(self.n)
        return SymmetricMatrixPair(self.A + eps * I, self.B + eps * I)


@dataclass(frozen=True)
class MinorSums:
    """s[m] = S_m for m = 0..n; s[0] = det(A), s[n] = det(B)."""

    s: tuple[float, ...]


@functools.lru_cache(maxsize=None)
def _laplace_tables(n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For m-subsets I, J of range(n) in combinations order: the flat
    indices, at [k, I, J], of M[I[0], J[k]] in an n x n matrix and of the
    minor (I[1:], J without J[k]) in the order-(m - 1) table, which the
    Laplace step multiplies, one column k at a time; and the sign
    (-1)^(sum I + sum J) at [I, J]."""
    prev = {S: i for i, S in enumerate(itertools.combinations(range(n), m - 1))}
    subsets = list(itertools.combinations(range(n), m))
    first, rest = np.array([(S[0], prev[S[1:]]) for S in subsets]).T[:, :, None]
    drop = np.array([[prev[S[:k] + S[k + 1:]] for S in subsets] for k in range(m)])
    parity = np.array([sum(S) for S in subsets])
    tables = (first * n + np.array(subsets).T[:, None, :],
              rest * len(prev) + drop[:, None, :],
              (-1.0) ** np.add.outer(parity, parity))
    for a in tables:
        a.flags.writeable = False
    return tables


def minor_sums(pair: SymmetricMatrixPair) -> MinorSums:
    """S_0..S_n: the proper minors of B and A from one Laplace recursion,
    the full-order ones from LAPACK."""
    n = pair.n
    M = np.stack((pair.B, pair.A)).reshape(2, -1)
    minors = [np.ones((2, 1, 1))]
    for m in range(1, n):
        at_M, at_D, _ = _laplace_tables(n, m)
        D = minors[-1].reshape(2, -1)
        acc = M.take(at_M[0], axis=1) * D.take(at_D[0], axis=1)
        for k in range(1, m):
            term = M.take(at_M[k], axis=1) * D.take(at_D[k], axis=1)
            if k % 2:
                acc -= term
            else:
                acc += term
        minors.append(acc)
    # the complement of the i-th m-subset is the (C - 1 - i)-th (n - m)-subset
    inner = [float(np.vdot(_laplace_tables(n, m)[2],
                           minors[m][0] * minors[n - m][1][::-1, ::-1]))
             for m in range(1, n)]
    # np.linalg.det sums the logs of LAPACK's LU pivots, so a pivot that
    # underflows to 0 warns "divide by zero", though the det (+-0) is exact
    with np.errstate(divide="ignore"):
        return MinorSums((float(np.linalg.det(pair.A)), *inner,
                          float(np.linalg.det(pair.B))))


def minor_sum(pair: SymmetricMatrixPair, m: int) -> float:
    """S_m over all (I, J) minors of B against signed complements in A."""
    n = pair.n
    try:
        m = operator.index(m)
    except TypeError:
        raise ValueError(f"m must be an integer, got {m!r}") from None
    if not (0 <= m <= n):
        raise ValueError(f"m must be in [0, {n}], got {m}")
    return minor_sums(pair).s[m]


def pencil_poly(pair: SymmetricMatrixPair) -> UnivariatePolynomial:
    """Coefficients of det(A - tB), from its values at the n + 1 roots of
    unity."""
    return UnivariatePolynomial(tuple(_circle_coefficients(
        lambda t: np.linalg.det(pair.A - t[:, None, None] * pair.B), pair.n)))


def pencil_roots(pair: SymmetricMatrixPair) -> np.ndarray:
    """Roots of det(A - tB) for B positive definite, sorted ascending.

    They are the eigenvalues of the symmetric generalized problem A v = t B v,
    reduced by the Cholesky factor B = L L^T to those of L^-1 A L^-T.
    A singular B is not shifted silently; apply pair.shifted(eps) explicitly.
    """
    return _pencil_roots(pair, np.linalg.eigvalsh(pair.B))


def _pencil_roots(pair: SymmetricMatrixPair, wB: np.ndarray) -> np.ndarray:
    """pencil_roots(pair), given the eigenvalues wB of pair.B, ascending."""
    if wB[0] <= SINGULAR_REL_TOL * abs(wB[-1]):
        raise HypothesisError(
            f"B is singular to tolerance (min eigenvalue {wB[0]:.3e}); "
            "shift the pair with pair.shifted(eps) and retry")
    L = np.linalg.cholesky(pair.B)
    C = np.linalg.solve(L, np.linalg.solve(L, pair.A).T)
    return np.linalg.eigvalsh(0.5 * (C + C.T))


def _elementary_symmetric(roots: np.ndarray) -> np.ndarray:
    """e_0..e_n of the given values, by the recurrence."""
    e = np.zeros(len(roots) + 1)
    e[0] = 1.0
    for r in roots:
        e[1:] = e[1:] + r * e[:-1]
    return e


@dataclass(frozen=True)
class ChainReport:
    """Outcome of the normalized minor-sum chain check."""

    n: int
    sums: tuple[float, ...]
    min_slack: float           # min over k < m of S_k/C(n,k) - S_m/C(n,m)
    scale: float               # max |S_m|, slack normalizer
    vieta_checked: bool
    vieta_residual: float      # max relative residual of S_m = det(B) e_{n-m}
    roots: tuple[float, ...] | None

    @property
    def passed(self) -> bool:
        return self.min_slack >= -1e-9 * self.scale


def minor_chain_check(pair: SymmetricMatrixPair) -> ChainReport:
    """Verify S_m/C(n,m) <= S_k/C(n,k) for 1 <= k < m <= n under A >= B >= 0.

    Also verifies, when B is positive definite (min eigenvalue above
    PD_CUTOFF times its largest), that S_m = det(B) * e_{n-m}(pencil roots)
    to 1e-8 relative.  Every tolerance is relative, so scaling the pair by
    2^k scales the sums by 2^(nk) and changes no outcome.
    """
    wB = pair.check_hypotheses()
    n = pair.n
    sums = minor_sums(pair).s
    normalized = [sums[m] / math.comb(n, m) for m in range(n + 1)]
    slacks = [normalized[k] - normalized[m]
              for k in range(1, n + 1) for m in range(k + 1, n + 1)]
    min_slack = min(slacks) if slacks else 0.0
    scale = max(abs(s) for s in sums)

    vieta_checked = False
    vieta_residual = 0.0
    roots = None
    if wB[0] > PD_CUTOFF * wB[-1]:
        r = _pencil_roots(pair, wB)
        roots = tuple(float(t) for t in r)
        e = _elementary_symmetric(r)
        worst = 0.0
        for m in range(n + 1):
            predicted = sums[n] * e[n - m]
            denom = max(abs(sums[m]), abs(predicted))
            worst = max(worst, abs(sums[m] - predicted) / denom)
        vieta_checked = True
        vieta_residual = worst
    return ChainReport(n=n, sums=sums, min_slack=float(min_slack), scale=scale,
                       vieta_checked=vieta_checked, vieta_residual=vieta_residual,
                       roots=roots)


def random_ordered_pair(n: int, rng: np.random.Generator) -> SymmetricMatrixPair:
    """Seeded pair with B = G^T G and A = B + H^T H from Gaussian factors."""
    G = rng.standard_normal((n, n))
    H = rng.standard_normal((n, n))
    B = G.T @ G
    A = B + H.T @ H
    return SymmetricMatrixPair(A, B)
