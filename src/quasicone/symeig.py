"""Batched eigen-solves for symmetric 3x3 matrices.

The hot paths of the certification engines evaluate the smallest eigenvalue
(and its eigenvector) of tens of thousands of 3x3 symmetric matrices per
call.  Eigenvalues come from the closed-form trigonometric solve of the
characteristic polynomial (Smith, CACM 1961).  The eigenvector of l1 is the
largest column of the spectral projector

    P = (M - l2 I)(M - l3 I) = M M - (l2 + l3) M + l2 l3 I,

whose columns all lie along it.  LAPACK runs on two kinds of rows only:
eigvals3 sends rows whose relative discriminant is below 1e-12 (two nearly
repeated roots, where the arccos loses up to sqrt(eps) digits) to eigvalsh,
and eigmin3 sends rows where l2 - l1 <= 1e-7 (l3 - l1) (P nearly vanishes)
or the chosen column is below 1e-12 (l3 - l1)^2 to eigh.  The projector's
rounding error grows as eps |M|^2 / (l2 - l1), so just above that line the
eigenvector residual reaches about 1e-8 |M|.
"""

from __future__ import annotations

import numpy as np

DISC_REL_CUTOFF = 1e-12


def eigvals3(M: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of a stack of symmetric 3x3 matrices (n,3,3)."""
    M = np.asarray(M, dtype=float)
    single = M.ndim == 2
    if single:
        M = M[None]
    a00 = M[:, 0, 0]; a11 = M[:, 1, 1]; a22 = M[:, 2, 2]
    a01 = M[:, 0, 1]; a02 = M[:, 0, 2]; a12 = M[:, 1, 2]
    q = (a00 + a11 + a22) / 3.0
    b00 = a00 - q; b11 = a11 - q; b22 = a22 - q
    p2 = b00 * b00 + b11 * b11 + b22 * b22 + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12)
    p = np.sqrt(p2 / 6.0)
    scale = np.maximum.reduce([np.abs(a00), np.abs(a11), np.abs(a22),
                               np.abs(a01), np.abs(a02), np.abs(a12)])
    isotropic = p <= 1e-14 * np.maximum(scale, 1e-300)
    ps = np.where(isotropic, 1.0, p)
    c00 = b00 / ps; c11 = b11 / ps; c22 = b22 / ps
    c01 = a01 / ps; c02 = a02 / ps; c12 = a12 / ps
    half_det = 0.5 * (c00 * (c11 * c22 - c12 * c12)
                      - c01 * (c01 * c22 - c12 * c02)
                      + c02 * (c01 * c12 - c11 * c02))
    r = np.clip(half_det, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    hi = q + 2.0 * p * np.cos(phi)
    lo = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    mid = 3.0 * q - hi - lo
    lam = np.stack([lo, mid, hi], axis=-1)
    lam[isotropic] = q[isotropic, None]

    # near-degenerate discriminant: nearly repeated roots, redo with LAPACK
    span = np.maximum(hi - lo, 1e-100)  # cube must not underflow to zero
    disc_rel = (((hi - mid) * (mid - lo) * (hi - lo)) / span**3) ** 2
    bad = (~isotropic) & (disc_rel < DISC_REL_CUTOFF)
    if np.any(bad):
        lam[bad] = np.linalg.eigvalsh(M[bad])
    return lam[0] if single else lam


def eigmin3(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest eigenvalue and a unit eigenvector for a stack (n,3,3).

    The eigenvector is the largest column of M M - (l2 + l3) M + l2 l3 I;
    rows where the smallest eigenvalue is nearly repeated (projector
    ill-defined) use LAPACK.  Eigenvalues of the other rows are eigvals3's.
    """
    M = np.asarray(M, dtype=float)
    single = M.ndim == 2
    if single:
        M = M[None]
    n = M.shape[0]
    lam = eigvals3(M)
    l1 = lam[:, 0]; l2 = lam[:, 1]; l3 = lam[:, 2]
    P = M @ M - (l2 + l3)[:, None, None] * M
    P.reshape(n, 9)[:, ::4] += (l2 * l3)[:, None]
    norms2 = np.einsum("nij,nij->nj", P, P)   # squared column norms
    jbest = np.argmax(norms2, axis=1)
    rows = np.arange(n)
    v = P[rows, :, jbest]
    nv = np.sqrt(norms2[rows, jbest])
    span = np.maximum(l3 - l1, 1e-300)
    gap = l2 - l1
    bad = (gap <= 1e-7 * span) | (nv <= 1e-12 * span * span)
    safe = np.where(nv > 0.0, nv, 1.0)
    v = v / safe[:, None]
    if np.any(bad):
        w, V = np.linalg.eigh(M[bad])
        lam_bad = lam[bad]
        lam_bad[:, 0] = w[:, 0]
        lam[bad] = lam_bad
        v[bad] = V[:, :, 0]
    if single:
        return lam[0, 0], v[0]
    return lam[:, 0], v
