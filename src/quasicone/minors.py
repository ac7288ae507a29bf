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
recursion along the first row builds the m x m minors of A and B from the
(m - 1) x (m - 1) ones, for 0 < m < n, over the packed pairs I <= J only,
since det M[I, J] = det M[J, I] for symmetric M: per order, one gather of
the signed entries, one of the smaller minors, a product and a sum over
the expansion columns.  S_m pairs each packed minor of B with the
complementary one of A, weighted by its sign and doubled off the
diagonal.  S_0 and S_n are LAPACK's det(A) and det(B), from one stacked
call, which keep relative accuracy where B is nearly singular.  It never
reads the pencil's coefficients, so it stays independent of pencil_poly
(one DFT of det(A - tB) at the n + 1 roots of unity) and the two check
each other.

minor_chain_check takes the eigenvalues of A, B and A - B from one stacked
symmetric eigen-solve, so a check makes five LAPACK calls and no SVD: that
solve, the stacked det, a Cholesky factor of B, its inverse and the
reduced pencil's eigen-solve.  It takes the sums on the pair scaled into
its frame by an exact 2^-k, as det_report does for the det.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .forms import _symmetric, frame_exponent
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
        """Raise HypothesisError unless B >= 0 and A - B >= 0, to PSD_TOL_REL
        times the larger of A's and B's spectral radii (their 2-norms), from
        one eigen-solve of the stack (A, B, A - B); returns the eigenvalues
        of B, ascending."""
        w = np.linalg.eigvalsh(np.array((self.A, self.B, self.A - self.B)))
        tol = PSD_TOL_REL * float(abs(w[:2]).max())
        _, wB, wAB = w
        if wB[0] < -tol:
            raise HypothesisError(
                f"B is not positive semidefinite (min eigenvalue {wB[0]:.3e})")
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
def _laplace_tables(n: int, m: int) -> tuple[np.ndarray, ...]:
    """The Laplace step and the pairing of order m, on packed pairs: the
    pairs (I, J), I <= J, of m-subsets of range(n) in combinations order,
    taken row by row over the upper triangle.  At [k, P] for the pair P:
    the row of (-1)^k M[I[0], J[k]] in the stack of M's n^2 entries over
    their negatives, and the packed index, in the order-(m - 1) table, of
    the minor (I[1:], J without J[k]), which a symmetric M holds at the
    pair (min, max) of its two subsets.  At [P]: the weight
    (-1)^(sum I + sum J), doubled off the diagonal, since the pair (J, I)
    adds the same term to S_m; and the packed index of the complement pair
    (J^c, I^c) in the order-(n - m) table."""
    prev = {S: i for i, S in enumerate(itertools.combinations(range(n), m - 1))}
    subsets = list(itertools.combinations(range(n), m))
    I, J = np.triu_indices(len(subsets))
    rest = np.array([prev[S[1:]] for S in subsets])
    drop = np.array([[prev[S[:k] + S[k + 1:]] for S in subsets] for k in range(m)])
    members = np.array(subsets)
    parity = members.sum(axis=1)
    odd = (parity[I] + parity[J]) % 2
    # the complement of the i-th m-subset is the (C - 1 - i)-th (n - m)-subset
    last = len(subsets) - 1
    tables = (members[I, 0] * n + members[J].T + (np.arange(m) % 2 * n * n)[:, None],
              _packed(rest[I], drop[:, J], len(prev)),
              np.where(odd, -1.0, 1.0) * np.where(I == J, 1.0, 2.0),
              _packed(last - J, last - I, len(subsets)))
    for a in tables:
        a.flags.writeable = False
    return tables


def _packed(i: np.ndarray, j: np.ndarray, c: int) -> np.ndarray:
    """The index of the pair (min(i, j), max(i, j)) in the upper triangle
    of a c x c array, taken row by row."""
    p, q = np.minimum(i, j), np.maximum(i, j)
    return (p * (2 * c - 1 - p) >> 1) + q


def minor_sums(pair: SymmetricMatrixPair) -> MinorSums:
    """S_0..S_n: the proper minors of B and A from one Laplace recursion
    over packed pairs, the full-order ones from LAPACK."""
    return MinorSums(_minor_sums(np.array((pair.B, pair.A))))


def _minor_sums(M: np.ndarray) -> tuple[float, ...]:
    n = M.shape[-1]                            # M = (B, A)
    entries = M.reshape(2, -1).T               # (n^2, 2): B's and A's side by side
    signed = np.concatenate((entries, -entries))
    minors = [np.ones((1, 2))]
    for m in range(1, n):
        at_M, at_D = _laplace_tables(n, m)[:2]
        # the columns of the expansion, summed in order k = 0..m - 1
        minors.append((signed.take(at_M, axis=0)
                       * minors[-1].take(at_D, axis=0)).sum(axis=0))
    inner = []
    for m in range(1, n):
        weight, complement = _laplace_tables(n, m)[2:]
        inner.append(float(np.vdot(
            weight, minors[m][:, 0] * minors[n - m][:, 1].take(complement))))
    # np.linalg.det sums the logs of LAPACK's LU pivots, so a pivot that
    # underflows to 0 warns "divide by zero", though the det (+-0) is exact
    with np.errstate(divide="ignore"):
        det_B, det_A = np.linalg.det(M).tolist()
    return (det_A, *inner, det_B)


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
    An indefinite B raises HypothesisError.  A singular B is not shifted
    silently; apply pair.shifted(eps) explicitly.
    """
    return _pencil_roots(pair, np.linalg.eigvalsh(pair.B))


def _pencil_roots(pair: SymmetricMatrixPair, wB: np.ndarray) -> np.ndarray:
    """pencil_roots(pair), given the eigenvalues wB of pair.B, ascending."""
    tol = SINGULAR_REL_TOL * abs(wB[-1])
    if wB[0] < -tol:
        raise HypothesisError(
            f"B is not positive definite (min eigenvalue {wB[0]:.3e})")
    if wB[0] <= tol:
        raise HypothesisError(
            f"B is singular to tolerance (min eigenvalue {wB[0]:.3e}); "
            "shift the pair with pair.shifted(eps) and retry")
    Li = np.linalg.inv(np.linalg.cholesky(pair.B))
    C = Li @ pair.A @ Li.T
    return np.linalg.eigvalsh(0.5 * (C + C.T))


def _elementary_symmetric(roots: tuple[float, ...]) -> list[float]:
    """e_0..e_n of the given values, by the recurrence."""
    e = [1.0] + [0.0] * len(roots)
    for i, r in enumerate(roots):
        for j in range(i + 1, 0, -1):
            e[j] += r * e[j - 1]
    return e


@dataclass(frozen=True)
class ChainReport:
    """Outcome of the normalized minor-sum chain check."""

    n: int
    sums: tuple[float, ...]
    min_slack: float           # min over k < m of S_k/C(n,k) - S_m/C(n,m)
    scale: float               # max |S_m|, slack normalizer
    passed: bool               # min_slack >= -1e-9 scale, in the frame
    vieta_checked: bool
    vieta_residual: float      # max relative residual of S_m = det(B) e_{n-m}
    roots: tuple[float, ...] | None


def minor_chain_check(pair: SymmetricMatrixPair) -> ChainReport:
    """Verify S_m/C(n,m) <= S_k/C(n,k) for 1 <= k < m <= n under A >= B >= 0.

    Also verifies, when B is positive definite (min eigenvalue above
    PD_CUTOFF times its largest), that S_m = det(B) * e_{n-m}(pencil roots)
    to 1e-8 relative.  Both are decided on the pair scaled by 2^-k into its
    frame (forms.frame_exponent), where no S_m underflows or overflows, so
    2^j times the pair gets its outcome; sums, min_slack and scale are
    scaled back by 2^(nk), into its own frame, where they may read 0 or inf.
    """
    wB = pair.check_hypotheses()
    n = pair.n
    M = np.array((pair.B, pair.A))
    k = frame_exponent(M)
    sums = _minor_sums(np.ldexp(M, -k))
    s = np.array(sums)
    # rounded subtraction is monotone, so the least a_k - a_m over k < m is
    # (least a_k over k < m) - a_m, bit for bit
    a = s / [math.comb(n, m) for m in range(n + 1)]
    min_slack = float((np.minimum.accumulate(a[1:-1]) - a[2:]).min())
    scale = float(abs(s).max())
    passed = min_slack >= -1e-9 * scale

    vieta_checked = False
    vieta_residual = 0.0
    roots = None
    if wB[0] > PD_CUTOFF * wB[-1]:
        r = _pencil_roots(pair, wB)
        roots = tuple(r.tolist())
        predicted = s[n] * np.array(_elementary_symmetric(roots)[::-1])
        with np.errstate(invalid="ignore"):
            residual = np.abs(s - predicted) / np.maximum(np.abs(s), np.abs(predicted))
        # a 0/0, where both sides underflow, leaves the worst residual as it is
        vieta_residual = float(np.fmax.reduce(residual, initial=0.0))
        vieta_checked = True
    with np.errstate(over="ignore"):
        *sums, min_slack, scale = np.ldexp((*sums, min_slack, scale), n * k).tolist()
    return ChainReport(n=n, sums=tuple(sums), min_slack=min_slack, scale=scale,
                       passed=passed, vieta_checked=vieta_checked,
                       vieta_residual=vieta_residual, roots=roots)


def random_ordered_pair(n: int, rng: np.random.Generator) -> SymmetricMatrixPair:
    """Seeded pair with B = G^T G and A = B + H^T H from Gaussian factors."""
    G = rng.standard_normal((n, n))
    H = rng.standard_normal((n, n))
    B = G.T @ G
    A = B + H.T @ H
    return SymmetricMatrixPair(A, B)
