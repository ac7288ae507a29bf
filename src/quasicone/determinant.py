"""Symbolic acoustic determinants, the reduced-form closed form, the
perfect-square test, and the pencil proportionality check det(T - lam T1).

The square test is exact and does not depend on the coordinates: a square
p = s^2 of a cubic s determines s through the first three orders of
sqrt(p)'s power series about any point where p > 0, so the test expands
about the largest of a fixed set of unit vectors, fits the cubic to the
series there, and checks root^2 against p coefficient by coefficient."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .forms import AcousticMatrix, QuadraticForm, ReducedOrthotropicForm, acoustic_matrix
from .poly import (HomogeneousPolynomial, monomial_exponents, poly_combine,
                   poly_eval_many, poly_mul)

# monomial support of the reduced-form determinant: pure sextics, the six
# quartic-quadratic mixtures, and the central monomial
REDUCED_DET_SUPPORT = (
    (6, 0, 0), (0, 6, 0), (0, 0, 6),
    (4, 2, 0), (2, 4, 0), (4, 0, 2), (2, 0, 4), (0, 4, 2), (0, 2, 4),
    (2, 2, 2),
)


@dataclass(frozen=True)
class DetReport:
    """Determinant analysis results bundled for serialization."""

    det: HomogeneousPolynomial
    closed_form_residual: Optional[float]
    is_perfect_square: bool
    square_root: Optional[HomogeneousPolynomial]

    def to_json(self) -> dict:
        return {
            "det": self.det.to_json(),
            "closed_form_residual": self.closed_form_residual,
            "is_perfect_square": self.is_perfect_square,
            "square_root": self.square_root.to_json() if self.square_root else None,
        }


def acoustic_det(t: AcousticMatrix) -> HomogeneousPolynomial:
    """Symbolic 3x3 determinant by cofactor expansion along the first row."""
    e = t.entries

    def mul(p, q):
        return poly_mul(p, q)

    def sub(p, q):
        return poly_combine(p, q, 1.0, -1.0)

    c00 = sub(mul(e[1][1], e[2][2]), mul(e[1][2], e[2][1]))
    c01 = sub(mul(e[1][0], e[2][2]), mul(e[1][2], e[2][0]))
    c02 = sub(mul(e[1][0], e[2][1]), mul(e[1][1], e[2][0]))
    det = sub(mul(e[0][0], c00), mul(e[0][1], c01))
    return poly_combine(det, mul(e[0][2], c02), 1.0, 1.0)


def reduced_det_closed_form(r: ReducedOrthotropicForm) -> HomogeneousPolynomial:
    """The ten-coefficient sextic determinant of the reduced form's acoustic
    matrix, written out directly."""
    a = r.a
    a11, a22, a33 = a[0, 0], a[1, 1], a[2, 2]
    a12, a13, a23 = a[0, 1], a[0, 2], a[1, 2]
    b, c, d = r.b, r.c, r.d
    terms = {
        (6, 0, 0): a11 * b * c,
        (0, 6, 0): a22 * b * d,
        (0, 0, 6): a33 * c * d,
        (4, 2, 0): a11 * b * d + a11 * a22 * c + b * b * c - a12 * a12 * c,
        (2, 4, 0): a22 * b * c + a11 * a22 * d + b * b * d - a12 * a12 * d,
        (4, 0, 2): a11 * c * d + a11 * a33 * b + c * c * b - a13 * a13 * b,
        (2, 0, 4): a33 * b * c + a11 * a33 * d + c * c * d - a13 * a13 * d,
        (0, 4, 2): a22 * c * d + a22 * a33 * b + d * d * b - a23 * a23 * b,
        (0, 2, 4): a33 * b * d + a22 * a33 * c + d * d * c - a23 * a23 * c,
        (2, 2, 2): (a11 * a22 * a33 + 2 * a12 * a13 * a23
                    - a11 * a23 * a23 - a22 * a13 * a13 - a33 * a12 * a12
                    + a11 * d * d + a22 * c * c + a33 * b * b + 2 * b * c * d),
    }
    return HomogeneousPolynomial(6, terms)


_SEXTIC_EXPS = monomial_exponents(6)   # 28 monomials
_CUBIC_EXPS = monomial_exponents(3)    # 10 monomials

SQUARE_REL_TOL = 1e-8
# a fixed set of unit vectors: the anchor of the square-root expansion is
# the one where p is largest, and the root is fitted to its values on all
_ANCHORS = np.random.default_rng(2).standard_normal((40, 3))
_ANCHORS /= np.linalg.norm(_ANCHORS, axis=1, keepdims=True)
_CUBIC_FIT = np.linalg.pinv(
    np.prod(_ANCHORS[:, None, :] ** np.array(_CUBIC_EXPS), axis=2))


def perfect_square_test(
        p: HomogeneousPolynomial) -> tuple[bool, Optional[HomogeneousPolynomial]]:
    """Decide whether a sextic is the square of a cubic form.

    Let a be the anchor point where p is largest.  If p = s^2 with s cubic
    and s(a) > 0, then s(a + h) = S0 + S1 + S2 + S3 exactly (s is a cubic),
    where, with P_k = D^k p(a)[h, ..., h] / k!,

        S0 = sqrt(P0), S1 = P1 / 2S0, S2 = (P2 - S1^2) / 2S0,
        S3 = (P3 - 2 S1 S2) / 2S0.

    The cubic is fitted by least squares to these values at the anchors, and
    p is called a square when root^2 matches every coefficient of p to
    SQUARE_REL_TOL * max |p|.  No step depends on the coordinates of y.
    Returns (flag, root); the root's first nonzero graded-lex coefficient is
    positive.
    """
    if p.degree != 6:
        raise ValueError(f"perfect_square_test needs a sextic, got degree {p.degree}")
    if p.is_zero():
        return True, HomogeneousPolynomial.zero(3)
    vals = poly_eval_many(p, _ANCHORS)
    k = int(np.argmax(vals))
    if vals[k] <= 0.0:
        return False, None

    a = _ANCHORS[k]
    grad = p.gradient()
    hess = [g.gradient() for g in grad]
    D1 = np.array([g(a) for g in grad])
    D2 = np.array([[h(a) for h in row] for row in hess])
    D3 = np.array([[[t(a) for t in h.gradient()] for h in row] for row in hess])
    H = _ANCHORS - a
    P1 = H @ D1
    P2 = np.einsum("ni,ij,nj->n", H, D2, H) / 2.0
    P3 = np.einsum("ni,nj,nk,ijk->n", H, H, H, D3) / 6.0
    S0 = np.sqrt(vals[k])
    S1 = P1 / (2.0 * S0)
    S2 = (P2 - S1 * S1) / (2.0 * S0)
    S3 = (P3 - 2.0 * S1 * S2) / (2.0 * S0)
    s = _CUBIC_FIT @ (S0 + S1 + S2 + S3)

    # canonical sign: first nonzero cubic coefficient positive
    for v in s:
        if abs(v) > 1e-12 * max(np.max(np.abs(s)), 1e-300):
            if v < 0:
                s = -s
            break
    root = HomogeneousPolynomial(3, dict(zip(_CUBIC_EXPS, s)))
    gap = poly_combine(poly_mul(root, root), p, 1.0, -1.0).max_coeff()
    if gap <= SQUARE_REL_TOL * p.max_coeff():
        return True, root
    return False, None


# a pencil sample is proportional when its residual is at most this
PENCIL_REL_TOL = 1e-9


@dataclass(frozen=True)
class PencilIdentityReport:
    """Per-sample proportionality of det(T - lam T1) against det(T)."""

    lambdas: tuple[float, ...]
    residuals: tuple[float, ...]
    scalings: tuple[float, ...]      # fitted mu per sample
    proportional: bool
    gamma: Optional[float]           # cubic 1 - gamma lam + beta lam^2 - alpha lam^3
    beta: Optional[float]
    alpha: Optional[float]

    def to_json(self) -> dict:
        return {
            "lambdas": list(self.lambdas),
            "residuals": list(self.residuals),
            "scalings": list(self.scalings),
            "proportional": self.proportional,
            "cubic": None if self.gamma is None else
                     {"gamma": self.gamma, "beta": self.beta, "alpha": self.alpha},
        }


def pencil_identity_check(q: QuadraticForm, q1: QuadraticForm,
                          lam_samples: Sequence[float]) -> PencilIdentityReport:
    """Test det(T - lam T1) = mu(lam) * det(T) at the given samples.

    The residual per sample is the best-scaling coefficient distance
    min_mu |det(T - lam T1) - mu det(T)| relative to the larger coefficient
    magnitude.  When every sample is proportional, the cubic
    mu(lam) = 1 - gamma lam + beta lam^2 - alpha lam^3 is fitted.
    """
    lam_samples = [float(t) for t in lam_samples]
    det_t = acoustic_det(acoustic_matrix(q))
    if det_t.is_zero():
        raise ValueError("det(T) is identically zero; proportionality undefined")
    base = np.array([det_t.coefficient(e) for e in _SEXTIC_EXPS])
    base_norm2 = float(base @ base)

    residuals = []
    scalings = []
    for lam in lam_samples:
        mixed = QuadraticForm(q.gram - lam * q1.gram)
        det_lam = acoustic_det(acoustic_matrix(mixed))
        vec = np.array([det_lam.coefficient(e) for e in _SEXTIC_EXPS])
        mu = float(vec @ base) / base_norm2
        resid = vec - mu * base
        scale = 1.0 + max(float(np.max(np.abs(vec))), abs(mu) * float(np.max(np.abs(base))))
        residuals.append(float(np.max(np.abs(resid))) / scale)
        scalings.append(mu)

    proportional = all(r <= PENCIL_REL_TOL for r in residuals)
    gamma = beta = alpha = None
    if proportional and len(lam_samples) >= 4:
        V = np.vander(np.array(lam_samples), 4, increasing=True)
        coefs, *_ = np.linalg.lstsq(V, np.array(scalings), rcond=None)
        # mu(lam) = c0 + c1 lam + c2 lam^2 + c3 lam^3 with c0 = 1
        gamma, beta, alpha = -float(coefs[1]), float(coefs[2]), -float(coefs[3])
    return PencilIdentityReport(
        lambdas=tuple(lam_samples), residuals=tuple(residuals),
        scalings=tuple(scalings), proportional=proportional,
        gamma=gamma, beta=beta, alpha=alpha)


def det_report(q: QuadraticForm,
               reduced: Optional[ReducedOrthotropicForm] = None) -> DetReport:
    """Symbolic determinant plus closed-form cross-check and square test."""
    det = acoustic_det(acoustic_matrix(q))
    residual = None
    if reduced is not None:
        closed = reduced_det_closed_form(reduced)
        scale = 1.0 + max(det.max_coeff(), closed.max_coeff())
        residual = poly_combine(det, closed, 1.0, -1.0).max_coeff() / scale
    flag, root = perfect_square_test(det)
    return DetReport(det=det, closed_form_residual=residual,
                     is_perfect_square=flag, square_root=root)
