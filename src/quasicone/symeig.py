"""Batched eigen-solves for symmetric 3x3 matrices.

The hot paths of the certification engines evaluate the smallest eigenvalue
(and its eigenvector) of tens of thousands of 3x3 symmetric matrices per
call, in stacks of a dozen rows (the probes' refinements) to tens of
thousands (the lattice).  Both functions read only the upper triangle, as
six rows of n entries (the structure-of-arrays layout), and apply each step
to stacked rows at once, so that a small stack pays few numpy calls.  Any
(n, 3, 3) stack is accepted; the transposed view of (3, 3, n) storage, as
the certification engines build their stacks, gives those six rows as
contiguous row copies, where a C-contiguous stack needs strided gathers.
eigmin3 returns its eigenvectors as the (n, 3) view of the (3, n) rows it
computes them in.

Eigenvalues come from the closed-form trigonometric solve of the
characteristic polynomial (Smith, CACM 1961): with q = tr M / 3 and
p^2 = |M - q I|_F^2 / 6, l_k = q + 2 p cos(phi + 2 pi k / 3), where
cos(3 phi) = det(M - q I) / (2 p^3) and phi lies in [0, pi / 3].  A nearly
repeated lower pair l1 ~ l2 sits at cos(3 phi) -> 1, where arccos loses
half the digits of its argument and dl1/dphi = -sqrt(3) p, so l1 errs by up
to about eps span^2 / (l2 - l1), and by sqrt(eps) span at a double root
(span = l3 - l1).  A nearly repeated upper pair sits at cos(3 phi) -> -1,
where dl1/dphi = -2 p sin(pi) vanishes: the phi error enters l1 only
squared, so l1 stays within a few eps span, while l2 and l3 lose up to
sqrt(eps) span.  LAPACK (eigvalsh) therefore runs only on the rows of
eigvals3 whose lower gap l2 - l1 is below 1e-6 span.

The eigenvector of l1 is the largest column of adj(M - l1 I), whose
columns are the cross products of the rows of M - l1 I.  By Cayley-Hamilton
it equals the spectral projector

    adj(M - l1 I) = (M - l2 I)(M - l3 I) = (l2 - l1)(l3 - l1) v v^T,

but needs l1 alone and no product M M (Kopp, Int. J. Mod. Phys. C 19,
2008).  Its rounding error, about eps |M|^2, is divided by
(l2 - l1)(l3 - l1), so eigmin3 sends to eigh the rows where
l2 - l1 <= 1e-7 span (the adjugate nearly vanishes) or the chosen column is
below 1e-12 span^2.
"""

from __future__ import annotations

import numpy as np

# the diagonal, then the upper off-diagonal, of a row-major 3x3 matrix
_DIAG_UPPER = np.array([0, 4, 8, 1, 2, 5])
# adj(B) of a symmetric B, entries (00, 11, 22, 01, 02, 12), as u w - x z:
# the rows of _ADJ index u, w, x and z among the rows of _upper(B)
_ADJ = np.array([[1, 0, 0, 4, 3, 3], [2, 2, 1, 5, 5, 4],
                 [5, 4, 3, 3, 4, 0], [5, 4, 3, 2, 1, 5]])
# column j of the adjugate, as indices into those six entries; the table is
# symmetric, so row i also lists component i of the three columns
_COLUMNS = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])
_COLUMN_INDEX = np.arange(3)[:, None]


def _upper(M: np.ndarray) -> np.ndarray:
    """The upper triangle of a stack (n, 3, 3) as a structure of arrays, six
    contiguous rows (m00, m11, m22, m01, m02, m12) of n entries."""
    return M.reshape(len(M), 9).T[_DIAG_UPPER]


def _adjugate(B: np.ndarray) -> np.ndarray:
    """adj(M), in the same layout, of symmetric M given as upper rows B."""
    u, w, x, z = _ADJ
    adj = B[u]
    adj *= B[w]
    adj -= B[x] * B[z]
    return adj


def eigvals3(M: np.ndarray, upper: np.ndarray | None = None) -> np.ndarray:
    """Eigenvalues, ascending, of a stack of symmetric 3x3 matrices (n,3,3),
    as an (n, 3) array.  upper, if given, is the stack's upper triangle as
    gathered by _upper(M), which eigmin3 reuses; it is left unchanged.

    The smallest eigenvalue is accurate on every row.  The upper two lose
    up to sqrt(eps) span where they nearly coincide, because those rows keep
    the trigonometric solve.  Its readers: the scan's lattice pass reads
    only the smallest, eigmin3 only the lower gap and the span, and the
    extreme point's lattice stage the one largest in magnitude, so its ray
    bound may err by about sqrt(eps) relative there (its sweeps take
    theirs, accurate, from eigmin3 of -C^2).
    """
    M = np.asarray(M, dtype=float)
    single = M.ndim == 2
    if single:
        M = M[None]
    C = _upper(M) if upper is None else upper
    sq = np.abs(C)
    scale = sq.max(axis=0)
    np.maximum(scale, 1e-300, out=scale)
    q = C[:3].sum(axis=0)
    q /= 3.0
    D = C[:3] - q                               # M - q I
    np.multiply(D, D, out=sq[:3])
    np.multiply(C[3:], C[3:], out=sq[3:])
    p = sq[:3].sum(axis=0)
    off = sq[3:].sum(axis=0)
    off *= 2.0
    p += off
    p /= 6.0
    np.sqrt(p, out=p)
    isotropic = p <= 1e-14 * scale
    # (M - q I) / p, into sq; isotropic rows, reset below, by p + 1
    denom = p + isotropic
    np.divide(D, denom, out=sq[:3])
    np.divide(C[3:], denom, out=sq[3:])
    c00, c11, c22, c01, c02, c12 = sq
    # r = det(C) / 2 = cos(3 phi)
    r = c11 * c22
    r -= c12 * c12
    r *= c00
    t = c01 * c22
    t -= c12 * c02
    t *= c01
    r -= t
    t = c01 * c12
    t -= c11 * c02
    t *= c02
    r += t
    r *= 0.5
    np.minimum(r, 1.0, out=r)
    np.maximum(r, -1.0, out=r)
    phi = np.arccos(r, out=r)
    phi /= 3.0
    p *= 2.0
    lam = np.empty((3, len(M)))
    lo, mid, hi = lam
    np.cos(phi, out=hi)
    hi *= p
    hi += q
    phi += 2.0 * np.pi / 3.0
    np.cos(phi, out=lo)
    lo *= p
    lo += q
    np.multiply(q, 3.0, out=mid)
    mid -= hi
    mid -= lo

    # a nearly repeated lower pair costs l1 up to sqrt(eps) span: redo those
    # rows with LAPACK (a nearly repeated upper pair leaves l1 accurate)
    bad = mid - lo < 1e-6 * (hi - lo)
    if isotropic.any():
        lam[:, isotropic] = q[isotropic]
        bad &= ~isotropic
    if bad.any():
        lam[:, bad] = np.linalg.eigvalsh(M[bad]).T
    return lam.T[0] if single else lam.T


def eigmin3(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest eigenvalue and a unit eigenvector for a stack (n,3,3).

    The eigenvector is the largest column of adj(M - l1 I); rows where the
    smallest eigenvalue is nearly repeated (the adjugate nearly vanishes)
    use LAPACK.  Eigenvalues of the other rows are eigvals3's, computed from
    the same upper-triangle gather as the adjugate.  The vectors
    come back as the (n, 3) transposed view of (3, n) rows.
    """
    M = np.asarray(M, dtype=float)
    single = M.ndim == 2
    if single:
        M = M[None]
    B = _upper(M)
    lam = eigvals3(M, B)
    l1 = lam[:, 0]
    span = lam[:, 2] - l1
    np.maximum(span, 1e-300, out=span)
    gap = lam[:, 1] - l1
    B[:3] -= l1                                 # M - l1 I
    adj = _adjugate(B)
    sq = np.multiply(adj, adj, out=B)
    c0, c1, c2 = _COLUMNS
    norms2 = sq[c0] + sq[c1]
    norms2 += sq[c2]                            # squared column norms (3, n)
    # the largest column, the first on ties, as one-hot weights: products
    # with 1 and 0 are exact, so v is that column to the last bit
    n0, n1, n2 = norms2
    nv = np.maximum(n0, n1)
    best = np.maximum(n1 > n0, 2 * (n2 > nv))
    np.maximum(nv, n2, out=nv)
    np.sqrt(nv, out=nv)
    onehot = best == _COLUMN_INDEX
    v = adj[c0] * onehot[0]
    v += adj[c1] * onehot[1]
    v += adj[c2] * onehot[2]
    v /= nv + (nv == 0.0)
    bad = gap <= 1e-7 * span
    bad |= nv <= 1e-12 * span * span
    if bad.any():
        evals, evecs = np.linalg.eigh(M[bad])
        l1[bad] = evals[:, 0]
        v[:, bad] = evecs[:, :, 0].T
    if single:
        return l1[0], v[:, 0]
    return l1, v.T
