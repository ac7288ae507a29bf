"""Sparse arithmetic for homogeneous polynomials in three variables.

A homogeneous polynomial is stored as a map from exponent triples to real
coefficients.  Degrees 2, 3 and 6 are the ones that actually occur here
(acoustic-matrix entries, square-root candidates, determinants), but the
arithmetic is degree-agnostic.  All values are immutable once constructed;
coefficients below 1e-14 of the largest one are pruned so supports stay
sparse, and an inf or NaN one raises ValueError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

NVARS = 3

# Relative magnitude under which a coefficient is treated as an exact zero.
PRUNE_REL = 1e-14


def _graded_lex_key(exp: tuple[int, int, int]) -> tuple:
    # graded lexicographic: total degree first, then lex with y1 > y2 > y3
    return (sum(exp), tuple(-e for e in exp))


@functools.cache
def _exponent(exp) -> tuple[int, int, int]:
    """exp as a triple of non-negative ints, checked once per distinct key."""
    out = tuple(int(e) for e in exp)
    if len(out) != NVARS or any(e < 0 for e in out):
        raise ValueError(f"bad exponent {out}")
    return out


class DegreeMismatchError(ValueError):
    """Raised when combining polynomials of different degrees."""


@dataclass(frozen=True)
class HomogeneousPolynomial:
    """Homogeneous polynomial in y1, y2, y3 with double coefficients.

    ``terms`` maps exponent triples (summing to ``degree``) to nonzero
    coefficients.  The zero polynomial of any degree has an empty map.
    """

    degree: int
    terms: Mapping[tuple[int, int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be non-negative")
        cleaned = {}
        cutoff = PRUNE_REL * max(map(abs, self.terms.values()), default=0.0)
        for exp, coef in self.terms.items():
            exp = _exponent(exp)
            if sum(exp) != self.degree:
                raise ValueError(
                    f"exponent {exp} does not sum to degree {self.degree}")
            c = float(coef)
            if not math.isfinite(c):
                raise ValueError(f"coefficient of {exp} is {c}, not finite")
            if c != 0.0 and abs(c) > cutoff:
                cleaned[exp] = c
        object.__setattr__(self, "terms", cleaned)

    @staticmethod
    def zero(degree: int) -> "HomogeneousPolynomial":
        return HomogeneousPolynomial(degree, {})

    @staticmethod
    def monomial(exp: Sequence[int], coef: float = 1.0) -> "HomogeneousPolynomial":
        exp = tuple(int(e) for e in exp)
        return HomogeneousPolynomial(sum(exp), {exp: float(coef)})

    def is_zero(self) -> bool:
        return not self.terms

    def max_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def sorted_terms(self) -> list[tuple[tuple[int, int, int], float]]:
        return sorted(self.terms.items(), key=lambda t: _graded_lex_key(t[0]))

    def __call__(self, point) -> float:
        return poly_eval(self, point)

    def scale(self, alpha: float) -> "HomogeneousPolynomial":
        return HomogeneousPolynomial(
            self.degree, {e: alpha * c for e, c in self.terms.items()})

    def coefficient(self, exp: Sequence[int]) -> float:
        return self.terms.get(tuple(int(e) for e in exp), 0.0)

    def gradient(self) -> list["HomogeneousPolynomial"]:
        """Partial derivatives, one polynomial per variable."""
        if self.degree == 0:
            return [HomogeneousPolynomial.zero(0) for _ in range(NVARS)]
        parts: list[dict] = [{} for _ in range(NVARS)]
        for exp, coef in self.terms.items():
            for v in range(NVARS):
                if exp[v] > 0:
                    de = list(exp)
                    de[v] -= 1
                    key = tuple(de)
                    parts[v][key] = parts[v].get(key, 0.0) + exp[v] * coef
        return [HomogeneousPolynomial(self.degree - 1, p) for p in parts]

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "terms": [{"exp": list(e), "coef": c} for e, c in self.sorted_terms()],
        }

    @staticmethod
    def from_json(obj: dict) -> "HomogeneousPolynomial":
        terms = {tuple(t["exp"]): float(t["coef"]) for t in obj["terms"]}
        return HomogeneousPolynomial(int(obj["degree"]), terms)

    def pretty(self, names=("y1", "y2", "y3"), order=None) -> str:
        """Human-readable rendering, graded-lex unless an explicit monomial
        order is given."""
        items = self.sorted_terms() if order is None else [
            (e, self.terms[e]) for e in order if e in self.terms]
        if not items:
            return "0"
        chunks = []
        for exp, coef in items:
            mono = "*".join(
                f"{names[v]}^{e}" if e > 1 else names[v]
                for v, e in enumerate(exp) if e > 0) or "1"
            sign = "-" if coef < 0 else "+"
            mag = abs(coef)
            body = mono if abs(mag - 1.0) < 1e-15 and mono != "1" else f"{mag:g}*{mono}"
            chunks.append(f"{sign} {body}")
        out = " ".join(chunks)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]


def poly_eval(p: HomogeneousPolynomial, point) -> float:
    """Evaluate p at a 3-vector."""
    x, y, z = float(point[0]), float(point[1]), float(point[2])
    total = 0.0
    for (e1, e2, e3), coef in p.terms.items():
        total += coef * x**e1 * y**e2 * z**e3
    return total


def monomial_table(points: np.ndarray, exps: Sequence) -> np.ndarray:
    """The (n, len(exps)) values of the monomials y^e, e in exps, at an
    (n, 3) array of real or complex points, from each coordinate's powers
    by repeated multiplication."""
    points = np.asarray(points)
    exps = np.reshape(np.asarray(exps, dtype=int), (-1, NVARS))
    # powers[v, e] holds coordinate v to the e at every point
    powers = np.ones((NVARS, exps.max(initial=0) + 1, len(points)),
                     np.result_type(points, float))
    for e in range(1, powers.shape[1]):
        np.multiply(powers[:, e - 1], points.T, out=powers[:, e])
    return (powers[0].take(exps[:, 0], axis=0) * powers[1].take(exps[:, 1], axis=0)
            * powers[2].take(exps[:, 2], axis=0)).T


def poly_eval_many(p: HomogeneousPolynomial, points: np.ndarray) -> np.ndarray:
    """Evaluate p at an (n, 3) array of real or complex points: one matmul
    of the monomial table with the coefficients."""
    return monomial_table(points, list(p.terms)) @ np.fromiter(
        p.terms.values(), float, len(p.terms))


def poly_combine(p: HomogeneousPolynomial, q: HomogeneousPolynomial,
                 alpha: float, beta: float) -> HomogeneousPolynomial:
    """alpha*p + beta*q; p and q must share a degree."""
    if p.degree != q.degree:
        raise DegreeMismatchError(
            f"cannot combine degree {p.degree} with degree {q.degree}")
    terms = {e: alpha * c for e, c in p.terms.items()}
    for e, c in q.terms.items():
        terms[e] = terms.get(e, 0.0) + beta * c
    return HomogeneousPolynomial(p.degree, terms)


def poly_mul(p: HomogeneousPolynomial, q: HomogeneousPolynomial) -> HomogeneousPolynomial:
    """Product polynomial; the exponent maps are convolved."""
    terms: dict[tuple[int, int, int], float] = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            key = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            terms[key] = terms.get(key, 0.0) + c1 * c2
    return HomogeneousPolynomial(p.degree + q.degree, terms)


def poly_equal_within(p: HomogeneousPolynomial, q: HomogeneousPolynomial,
                      tol: float) -> bool:
    """Coefficient-wise comparison over the union of supports.

    True iff max |p_e - q_e| <= tol * (1 + max coefficient magnitude).
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    if p.degree != q.degree:
        return False
    scale = 1.0 + max(p.max_coeff(), q.max_coeff())
    return poly_combine(p, q, 1.0, -1.0).max_coeff() <= tol * scale


@dataclass(frozen=True)
class UnivariatePolynomial:
    """Dense univariate polynomial; coefficients[k] multiplies t^k."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        coefs = [float(c) for c in self.coefficients]
        while coefs and coefs[-1] == 0.0:
            coefs.pop()
        object.__setattr__(self, "coefficients", tuple(coefs))

    @property
    def degree(self) -> int:
        return max(len(self.coefficients) - 1, 0)

    def __call__(self, t: float) -> float:
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * t + c
        return acc

    def to_json(self) -> dict:
        return {"coefficients": list(self.coefficients)}


def _circle_coefficients(f, degree: int) -> np.ndarray:
    """Coefficients c_0..c_degree, along axis 0, of real polynomials in t
    from their values f(t), stacked along axis 0, at the degree + 1 roots of
    unity: one DFT, so each errs by about eps * max |f| on the circle."""
    t = np.exp(2j * np.pi * np.arange(degree + 1) / (degree + 1))
    return np.fft.fft(f(t), axis=0).real / (degree + 1)


def monomial_exponents(degree: int) -> list[tuple[int, int, int]]:
    """All exponent triples of the given total degree, graded-lex order."""
    out = []
    for e1 in range(degree, -1, -1):
        for e2 in range(degree - e1, -1, -1):
            out.append((e1, e2, degree - e1 - e2))
    return sorted(out, key=_graded_lex_key)
