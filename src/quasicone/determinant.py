"""Symbolic acoustic determinants, the reduced-form closed form, the
perfect-square test, and the pencil proportionality check det(T - lam T1).

T(y) is held as its Gram tensor (forms.acoustic_matrix), and the sextic
det T(y) is the one symbolic object built from it, as the vector of its 28
coefficients: each entry T_ik(y) is folded to its six quadratic
coefficients, and the six signed products T_0s0 T_1s1 T_2s2 over the
permutations s are binned onto the sextic monomials, for one form or a
stack, so integer Grams give exact coefficients.

The square test is exact and does not depend on the coordinates: a square
p = s^2 of a cubic s determines s through the first three orders of
sqrt(p)'s power series about any point where p > 0, so the test expands
about the largest of a fixed set of unit vectors, fits the cubic to the
series there, and checks root^2 against p coefficient by coefficient.
p's values at the anchors and its series along every ray from one of them
are fixed linear maps of its coefficient vector: tables of the monomials'
values and of their Taylor coefficients along the rays, built on first use
and cached."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .forms import (QuadraticForm, ReducedOrthotropicForm, acoustic_matrix,
                    frame_exponent, gram_tensor)
from .poly import (HomogeneousPolynomial, monomial_exponents, monomial_table,
                   poly_combine)

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


def acoustic_det(t: np.ndarray) -> HomogeneousPolynomial:
    """det T(y) from T's (3, 3, 3, 3) coefficient tensor, as acoustic_matrix
    returns it, by one tensor contraction."""
    if np.shape(t) != (3, 3, 3, 3):
        raise ValueError(f"acoustic_det needs a (3, 3, 3, 3) tensor, got {np.shape(t)}")
    return HomogeneousPolynomial(6, dict(zip(_SEXTIC_EXPS, _det_coefficients(t))))


@functools.lru_cache(maxsize=None)
def _det_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The 0/1 matrix that folds the index pairs (j, l) of y_j y_l onto
    _QUADRATIC_EXPS; the six permutations of range(3) and their signs; and
    the 0/1 matrix that bins the 6^3 products of three quadratic monomials
    onto _SEXTIC_EXPS."""
    unit, quad = np.eye(3, dtype=int), np.array(_QUADRATIC_EXPS)
    fold = _bins(unit[:, None] + unit[None, :], _QUADRATIC_EXPS)
    perms = np.array(list(itertools.permutations(range(3))))
    signs = np.array([(b - a) * (c - a) * (c - b) / 2 for a, b, c in perms])
    bins = _bins(quad[:, None, None] + quad[None, :, None] + quad[None, None, :],
                 _SEXTIC_EXPS)
    return _frozen(fold, perms, signs, bins)


def _bins(exps: np.ndarray, onto: list) -> np.ndarray:
    """The 0/1 matrix with a 1 at [r, c] where the r-th exponent triple of
    exps, in C order, is the monomial onto[c]."""
    index = {e: i for i, e in enumerate(onto)}
    return np.eye(len(onto))[[index[tuple(e)] for e in exps.reshape(-1, 3).tolist()]]


def _frozen(*tables: np.ndarray) -> tuple[np.ndarray, ...]:
    """The tables, read-only: a cache hands the same arrays to every caller."""
    for a in tables:
        a.flags.writeable = False
    return tables


def _det_coefficients(G4: np.ndarray) -> np.ndarray:
    """Coefficients of det T(y) in _SEXTIC_EXPS order, for one tensor G4 or
    a stack; an overflow is left as inf or NaN.  Each T_ik(y) is folded to
    its six quadratic coefficients, and det T = sum over permutations s of
    sign(s) T_0s0 T_1s1 T_2s2, whose 6^3 coefficient products are binned."""
    fold, perms, signs, bins = _det_tables()
    T = np.reshape(G4, np.shape(G4)[:-2] + (9,)) @ fold
    rows = T[..., np.arange(3), perms, :]            # (..., permutation, i, 6)
    with np.errstate(over="ignore", invalid="ignore"):
        prods = (rows[..., 0, :, None, None] * rows[..., 1, None, :, None]
                 * rows[..., 2, None, None, :])
        return (signs @ prods.reshape(prods.shape[:-3] + (-1,))) @ bins


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


_QUADRATIC_EXPS = monomial_exponents(2)  # 6 monomials
_CUBIC_EXPS = monomial_exponents(3)      # 10 monomials
_SEXTIC_EXPS = monomial_exponents(6)     # 28 monomials

SQUARE_REL_TOL = 1e-8
# a fixed set of unit vectors: the anchor of the square-root expansion is
# the one where p is largest, and the root is fitted to its values on all
_ANCHORS = np.random.default_rng(2).standard_normal((40, 3))
_ANCHORS /= np.linalg.norm(_ANCHORS, axis=1, keepdims=True)


@functools.lru_cache(maxsize=None)
def _anchor_values() -> np.ndarray:
    """(40, 28): the sextic monomials at _ANCHORS, so p's values there are
    _anchor_values() @ c for p's coefficient vector c."""
    return _frozen(monomial_table(_ANCHORS, _SEXTIC_EXPS))[0]


@functools.lru_cache(maxsize=None)
def _ray_series(k: int) -> np.ndarray:
    """(3, 40, 28): the t, t^2 and t^3 coefficients of each sextic monomial
    along the rays a + t h, h = b - a, from a = _ANCHORS[k] to every anchor
    b; P1..P3 of p along the rays are _ray_series(k) @ c.  The t^d
    coefficient of y^e is the sum over |j| = d of C(e, j) a^(e - j) h^j,
    C(e, j) = C(e_1, j_1) C(e_2, j_2) C(e_3, j_3): the monomials of degree
    1 to 3 at the h times fixed weights."""
    j, binomials, rest = _taylor_tables()
    a, H = _ANCHORS[k], _ANCHORS - _ANCHORS[k]
    a_part = monomial_table(a[None], rest).reshape(rest.shape[:2])
    return _frozen(monomial_table(H, j) @ (binomials * a_part))[0]


@functools.lru_cache(maxsize=None)
def _taylor_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exponents j of degree 1 to 3; C(e, j) at [d - 1, j, e] for the
    sextic exponents e, zero where j > e or |j| != d; and the exponents
    max(e - j, 0) at [j, e]."""
    j = np.array([x for d in (1, 2, 3) for x in monomial_exponents(d)])
    e = np.array(_SEXTIC_EXPS)
    binomials = np.prod(np.frompyfunc(math.comb, 2, 1)(e, j[:, None]), axis=2)
    by_degree = (j.sum(axis=1) == np.arange(1, 4)[:, None])[:, :, None] * binomials
    return _frozen(j, by_degree.astype(float), np.maximum(e - j[:, None], 0))


@functools.lru_cache(maxsize=None)
def _cubic_tables() -> tuple[np.ndarray, np.ndarray]:
    """The least-squares fit of a cubic's coefficients to its values at
    _ANCHORS, and the 0/1 matrix that bins s (x) s onto _SEXTIC_EXPS, so a
    cubic's square is outer(s, s).ravel() @ _cubic_tables()[1]."""
    cubic = np.array(_CUBIC_EXPS)
    fit = np.linalg.pinv(monomial_table(_ANCHORS, cubic))
    square = _bins(cubic[:, None] + cubic[None, :], _SEXTIC_EXPS)
    return _frozen(fit, square)


def perfect_square_test(
        p: HomogeneousPolynomial) -> tuple[bool, Optional[HomogeneousPolynomial]]:
    """Decide whether a sextic is the square of a cubic form.

    Let a be the anchor point where p is largest.  If p = s^2 with s cubic
    and s(a) > 0, then s(a + h) = S0 + S1 + S2 + S3 exactly (s is a cubic),
    where P_k = D^k p(a)[h, ..., h] / k! is the t^k coefficient of
    p(a + t h), P0 = p(a) and P1..P3 from p's coefficients through the
    Taylor tables of _ray_series,

        S0 = sqrt(P0), S1 = P1 / 2S0, S2 = (P2 - S1^2) / 2S0,
        S3 = (P3 - 2 S1 S2) / 2S0.

    The cubic is fitted by least squares to these values at the anchors, and
    p is called a square when root^2 matches every coefficient of p to
    SQUARE_REL_TOL * max |p|.  No step depends on the coordinates of y.
    p's values and series are fixed linear maps of its 28 coefficients,
    and root^2 is one of the root's outer square, so the test runs on
    coefficient vectors throughout.
    Returns (flag, root); the root's first nonzero graded-lex coefficient is
    positive.
    """
    if p.degree != 6:
        raise ValueError(f"perfect_square_test needs a sextic, got degree {p.degree}")
    flag, s = _square_root(np.array([p.terms.get(e, 0.0) for e in _SEXTIC_EXPS]))
    return flag, None if s is None else HomogeneousPolynomial(3, dict(zip(_CUBIC_EXPS, s)))


def _square_root(c: np.ndarray) -> tuple[bool, Optional[np.ndarray]]:
    """perfect_square_test on the coefficient vector c of a sextic, in
    _SEXTIC_EXPS order; the root is its coefficient vector."""
    if not c.any():
        return True, np.zeros(len(_CUBIC_EXPS))
    vals = _anchor_values() @ c
    k = int(np.argmax(vals))
    if vals[k] <= 0.0:
        return False, None

    P1, P2, P3 = _ray_series(k) @ c
    S0 = np.sqrt(vals[k])
    S1 = P1 / (2.0 * S0)
    S2 = (P2 - S1 * S1) / (2.0 * S0)
    S3 = (P3 - 2.0 * S1 * S2) / (2.0 * S0)
    fit, square = _cubic_tables()
    s = fit @ (S0 + S1 + S2 + S3)

    # canonical sign: first nonzero cubic coefficient positive
    lead = np.flatnonzero(np.abs(s) > 1e-12 * max(np.max(np.abs(s)), 1e-300))
    if lead.size and s[lead[0]] < 0:
        s = -s
    gap = np.max(np.abs(np.outer(s, s).ravel() @ square - c))
    if gap <= SQUARE_REL_TOL * np.max(np.abs(c)):
        return True, s
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
    mu(lam) = 1 - gamma lam + beta lam^2 - alpha lam^3 is fitted.  Both
    Grams are scaled by one exact 2^-k, which leaves every mu unchanged,
    and all the dets come from one contraction of the stacked Grams.
    """
    lam_samples = [float(t) for t in lam_samples]
    k = max(frame_exponent(q.gram), frame_exponent(q1.gram))
    g, g1 = np.ldexp(q.gram, -k), np.ldexp(q1.gram, -k)
    dets = _det_coefficients(gram_tensor(
        g - np.array([0.0, *lam_samples])[:, None, None] * g1))
    if not np.all(np.isfinite(dets)):
        raise ValueError("a coefficient of det(T - lam T1) is not finite")
    base, vecs = dets[0], dets[1:]
    if not base.any():
        raise ValueError("det(T) is identically zero; proportionality undefined")

    mu = vecs @ base / (base @ base)
    gap = np.max(np.abs(vecs - mu[:, None] * base), axis=1)
    scale = np.maximum(np.max(np.abs(vecs), axis=1), np.abs(mu) * np.max(np.abs(base)))
    residuals = [float(r / s) if s else 0.0 for r, s in zip(gap, scale)]
    scalings = [float(u) for u in mu]

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
    """Symbolic determinant plus closed-form cross-check and square test.

    The det is built, and the square test run, on the Gram scaled by
    2^-2k, k = ceil(e/2) for the Gram's exponent e, so that a tiny Q's det
    does not underflow to a zero sextic, which would pass as a square.  The
    det and the root are reported in Q's frame, scaled back exactly by 2^6k
    and 2^3k; a det coefficient that overflows there raises ValueError."""
    k = (frame_exponent(q.gram) + 1) // 2
    coefs = _det_coefficients(np.ldexp(acoustic_matrix(q), -2 * k))
    with np.errstate(over="ignore"):
        det = HomogeneousPolynomial(6, dict(zip(_SEXTIC_EXPS, np.ldexp(coefs, 6 * k))))
    residual = None
    if reduced is not None:
        closed = reduced_det_closed_form(reduced)
        scale = max(det.max_coeff(), closed.max_coeff())
        gap = poly_combine(det, closed, 1.0, -1.0).max_coeff()
        residual = gap / scale if scale else 0.0
    flag, s = _square_root(coefs)
    root = None if s is None else HomogeneousPolynomial(
        3, dict(zip(_CUBIC_EXPS, np.ldexp(s, 3 * k))))
    return DetReport(det=det, closed_form_residual=residual,
                     is_perfect_square=flag, square_root=root)
