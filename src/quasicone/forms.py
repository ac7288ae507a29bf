"""Quadratic forms on 3x3 matrices and their orthotropic parameterizations.

A form Q is carried by its 9x9 symmetric Gram matrix in the fixed row-major
vectorization (i, j) -> 3*(i-1) + j (1-based), so Q(xi) = vec(xi) . G . vec(xi).
The module provides the Voigt orthotropic constructor, biquadratic
evaluation Q(x (x) y), the acoustic matrix T(y) with x T(y) x^T = Q(x (x) y),
held as its coefficient tensor (a view of the Gram, T_ik(y) =
y_j G4[i, k, j, l] y_l), the Null-Lagrangian (2x2 minor) basis, and a
catalog of historically significant forms.

The shear-paired, single-shear and transposed single-shear (the layout of
xi^T, which odd axis permutations make of single-shear) 9-parameter
layouts live in one table (LAYOUT_PARAMS, _COUPLINGS, _SHEARS) that the
layout builders and detect_shear_layout all read.  Q(x (x) y), all that
quasiconvexity sees, does not change under the minors, so the detector
reads a Gram modulo null Lagrangians, and reduced_view, the reduction to
the shear-paired layout, reads off it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

SYM_REL_TOL = 1e-12


def vec_index(i: int, j: int) -> int:
    """Row-major vectorization index for 0-based entry (i, j)."""
    return 3 * i + j


class FormError(ValueError):
    """Malformed or inconsistent form data."""


def frame_exponent(a) -> int:
    """The exponent e of a's frame, 2^(e-1) <= max |a| < 2^e (0 for a zero
    array): a scaled by 2^-e has its largest entry in [1/2, 1), exactly."""
    return math.frexp(float(np.abs(a).max()))[1]


def _symmetric(m, n: int, name: str) -> np.ndarray:
    """m as a read-only n x n float array, checked finite and symmetric to
    SYM_REL_TOL.  Entry pairs that differ are averaged, halving first so
    that no sum overflows; equal pairs keep their bits."""
    m = np.asarray(m, dtype=float)
    if m.shape != (n, n):
        raise FormError(f"{name} must be {n}x{n}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise FormError(f"{name} entries must be finite")
    if np.max(np.abs(m - m.T)) > SYM_REL_TOL * max(float(np.max(np.abs(m))), 1e-300):
        raise FormError(f"{name} must be symmetric")
    m = np.where(m == m.T, m, 0.5 * m + 0.5 * m.T)
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class QuadraticForm:
    """Quadratic form on 3x3 matrices via its 9x9 symmetric Gram matrix."""

    gram: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gram", _symmetric(self.gram, 9, "gram"))

    def __call__(self, xi: np.ndarray) -> float:
        v = np.asarray(xi, dtype=float).reshape(9)
        return float(v @ self.gram @ v)

    def norm(self) -> float:
        """Frobenius norm, on the Gram scaled by a power of two so that no
        square overflows or underflows (bitwise np.linalg.norm otherwise)."""
        e = frame_exponent(self.gram)
        return float(np.ldexp(np.linalg.norm(np.ldexp(self.gram, -e)), e))

    def scaled(self, alpha: float) -> "QuadraticForm":
        return QuadraticForm(alpha * self.gram)


def gram_tensor(gram: np.ndarray) -> np.ndarray:
    """G4[..., i, k, j, l] = gram[..., (i,j), (k,l)], the layout used by
    T(y), as a view of one 9x9 Gram or of a stack of them."""
    return gram.reshape(gram.shape[:-2] + (3, 3, 3, 3)).swapaxes(-3, -2)


@dataclass(frozen=True)
class OrthotropicCoefficients:
    """The nine Voigt constants of an orthotropic elasticity tensor."""

    C11: float
    C22: float
    C33: float
    C12: float
    C13: float
    C23: float
    C44: float
    C55: float
    C66: float


@dataclass(frozen=True)
class ReducedOrthotropicForm:
    """Null-Lagrangian-reduced orthotropic form.

    Q(xi) = sum a_ij xi_ii xi_jj + b (xi12^2 + xi21^2)
            + c (xi13^2 + xi31^2) + d (xi23^2 + xi32^2)
    """

    a: np.ndarray
    b: float
    c: float
    d: float

    def __post_init__(self):
        object.__setattr__(self, "a", _symmetric(self.a, 3, "a"))
        for name in "bcd":
            v = float(getattr(self, name))
            if not np.isfinite(v):
                raise FormError(f"{name} must be finite, got {v}")
            object.__setattr__(self, name, v)

    def parameter_vector(self) -> np.ndarray:
        """(a11, a22, a33, a12, a13, a23, b, c, d), in LAYOUT_PARAMS order."""
        a = self.a
        return np.array([a[0, 0], a[1, 1], a[2, 2], a[0, 1], a[0, 2], a[1, 2],
                         self.b, self.c, self.d])


@dataclass(frozen=True)
class NullLagrangianCoeffs:
    """Weights for the nine 2x2 minors, (row-pair, col-pair) graded-lex order."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float).reshape(9)
        if not np.all(np.isfinite(c)):
            raise FormError("minor weights must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)


# index pairs {1,2},{1,3},{2,3} in 0-based form, lex order
_PAIRS = [(0, 1), (0, 2), (1, 2)]


def minor_gram_basis() -> list[np.ndarray]:
    """Gram matrices of the nine 2x2 minors, in NullLagrangianCoeffs order.

    The minor for rows {i,j}, cols {k,l} (i<j, k<l) is
    xi_ik xi_jl - xi_il xi_jk.
    """
    basis = []
    for (i, j) in _PAIRS:
        for (k, l) in _PAIRS:
            N = np.zeros((9, 9))
            N[vec_index(i, k), vec_index(j, l)] += 0.5
            N[vec_index(j, l), vec_index(i, k)] += 0.5
            N[vec_index(i, l), vec_index(j, k)] -= 0.5
            N[vec_index(j, k), vec_index(i, l)] -= 0.5
            basis.append(N)
    return basis


_MINOR_BASIS = np.array(minor_gram_basis())


def _off_minors(G: np.ndarray) -> np.ndarray:
    """G less its projection onto the orthonormal Gram basis of the minors."""
    return G - np.einsum("k,kij->ij", np.einsum("kij,ij->k", _MINOR_BASIS, G),
                         _MINOR_BASIS)


# ---------------------------------------------------------------------------
# the orthotropic layout table

LAYOUT_PARAMS = ("a11", "a22", "a33", "a12", "a13", "a23", "s1", "s2", "s3")
# a_ij weights xi_ii xi_jj (twice, via the symmetric pair, when i != j)
_COUPLINGS = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]
# the entries xi_ij whose squares each shear weight s1, s2, s3 multiplies
_SHEARS = {
    "paired": [((0, 1), (1, 0)), ((0, 2), (2, 0)), ((1, 2), (2, 1))],
    "single": [((0, 1),), ((1, 2),), ((2, 0),)],
    "transposed": [((1, 0),), ((2, 1),), ((0, 2),)],
}


@functools.cache
def _layout_tables() -> dict:
    """Per layout, its (9, 9, 9) stack of Gram matrices B_k and the flat
    Gram index of each B_k's first entry, where theta_k is read; built
    once, read-only."""
    tables = {}
    for layout, shears in _SHEARS.items():
        basis = np.zeros((9, 9, 9))
        for k, (i, j) in enumerate(_COUPLINGS):
            p, r = vec_index(i, i), vec_index(j, j)
            basis[k, p, r] = basis[k, r, p] = 1.0
        for k, entries in enumerate(shears, start=6):
            for (i, j) in entries:
                basis[k, vec_index(i, j), vec_index(i, j)] = 1.0
        first = np.array([np.flatnonzero(B)[0] for B in basis])
        for a in (basis, first):
            a.setflags(write=False)
        tables[layout] = basis, first
    return tables


def shear_layout_basis(layout: str) -> np.ndarray:
    """The (9, 9, 9) stack of Gram matrices B_k of a layout, Gram = sum
    theta_k B_k with theta in LAYOUT_PARAMS order, as a fresh array."""
    if layout not in _SHEARS:
        raise FormError(f"unknown layout {layout!r}")
    return _layout_tables()[layout][0].copy()


def form_from_theta(layout: str, theta: np.ndarray) -> QuadraticForm:
    return QuadraticForm(np.einsum("k,kij->ij", np.asarray(theta, float),
                                   shear_layout_basis(layout)))


# a layout fits a Gram to this share of its largest entry
LAYOUT_REL_TOL = 1e-10
# the cross entry G[ij, ji] that the minor xi_ii xi_jj - xi_ij xi_ji moves onto a_ij
_CROSS = [9 * vec_index(i, j) + vec_index(j, i) for (i, j) in _COUPLINGS[3:]]


def detect_shear_layout(q: QuadraticForm):
    """Classify a Gram, modulo null Lagrangians, as shear-paired,
    single-shear, or neither.

    Returns (layout, theta), theta in LAYOUT_PARAMS order, or (None, None).
    A layout reads theta at its basis matrices' first entries, adding to
    each coupling a_ij (i != j) its cross entry G[ij, ji] (_CROSS), and
    fits when the part of G - sum theta_k B_k off the minors is at most
    LAYOUT_REL_TOL * max |G|, judged in the frame 2^-e (frame_exponent);
    paired is tried first, and a coupling that overflows fits no layout.
    Shears that all lie within that tolerance snap to exactly 0 (as paired),
    unless the single-shear layout fits with a shear above it.
    """
    G = q.gram
    e = frame_exponent(G)
    tol = LAYOUT_REL_TOL * math.ldexp(float(np.max(np.abs(G))), -e)
    snapped = None
    for layout, (basis, first) in _layout_tables().items():
        theta = G.ravel()[first]
        with np.errstate(over="ignore", invalid="ignore"):
            theta[3:6] += G.ravel()[_CROSS]
            off = _off_minors(np.ldexp(G - np.einsum("k,kij->ij", theta, basis), -e))
        if not np.max(np.abs(off)) <= tol:
            continue
        if np.any(np.abs(np.ldexp(theta[6:], -e)) > tol):
            return layout, theta
        if layout == "paired":
            snapped = np.concatenate([theta[:6], np.zeros(3)])
    return (None, None) if snapped is None else ("paired", snapped)


def reduced_view(q: QuadraticForm) -> ReducedOrthotropicForm | None:
    """The reduced form that agrees with Q on every rank one, read off
    detect_shear_layout, or None unless Q is shear-paired modulo minors."""
    layout, theta = detect_shear_layout(q)
    return (ReducedOrthotropicForm(theta[[[0, 3, 4], [3, 1, 5], [4, 5, 2]]], *theta[6:])
            if layout == "paired" else None)


def form_from_voigt(c: OrthotropicCoefficients) -> QuadraticForm:
    """Gram of sum C_ij xi_ii xi_jj + C44 (xi23+xi32)^2 + C55 (xi31+xi13)^2
    + C66 (xi12+xi21)^2: the paired layout with shears (C66, C55, C44) plus
    the cross terms 2 C xi_ij xi_ji."""
    shears = [c.C66, c.C55, c.C44]
    G = form_from_theta("paired", [c.C11, c.C22, c.C33, c.C12, c.C13, c.C23,
                                   *shears]).gram.copy()
    G.flat[_CROSS] = G.T.flat[_CROSS] = shears
    return QuadraticForm(G)


def form_from_reduced(r: ReducedOrthotropicForm) -> QuadraticForm:
    return form_from_theta("paired", r.parameter_vector())


def form_from_single_shear(a: np.ndarray, b: float, c: float, d: float) -> QuadraticForm:
    """Gram of sum a_ij xi_ii xi_jj + b xi12^2 + c xi23^2 + d xi31^2.

    The non-paired shear layout; a is checked as in ReducedOrthotropicForm.
    """
    return form_from_theta(
        "single", ReducedOrthotropicForm(a, b, c, d).parameter_vector())


def biquadratic_eval(q: QuadraticForm, x, y) -> float:
    """Q(x (x) y) for 3-vectors x, y."""
    v = np.outer(np.asarray(x, float), np.asarray(y, float)).ravel()
    return float(v @ q.gram @ v)


def reduce_modulo_null_lagrangians(c: OrthotropicCoefficients) -> ReducedOrthotropicForm:
    """reduced_view of the Voigt form, whose cross terms move onto the
    couplings, a12 = C12 + C66, a13 = C13 + C55 and a23 = C23 + C44; a
    coupling that overflows is a FormError."""
    reduced = reduced_view(form_from_voigt(c))
    if reduced is None:
        raise FormError("a Voigt coupling C_ij + C_kk overflows")
    return reduced


def add_null_lagrangian(q: QuadraticForm, n: NullLagrangianCoeffs) -> QuadraticForm:
    """Q plus a weighted combination of the nine 2x2 minors."""
    return QuadraticForm(q.gram + np.einsum("k,kij->ij", n.coeffs, _MINOR_BASIS))


def acoustic_matrix(q: QuadraticForm) -> np.ndarray:
    """T(y), with x T(y) x^T = Q(x (x) y), as its read-only (3, 3, 3, 3)
    coefficient tensor G4: T_ik(y) = sum_{j,l} y_j G4[i, k, j, l] y_l."""
    return gram_tensor(q.gram)


# ---------------------------------------------------------------------------
# catalog

def _linear(i: int, j: int) -> np.ndarray:
    v = np.zeros(9)
    v[vec_index(i, j)] = 1.0
    return v


# Choi (shear weight 2) and Choi-Lam (shear weight 1) share this block
_CHOI_A = np.array([[1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])


def _gram_serre(eps: float) -> np.ndarray:
    G = np.zeros((9, 9))
    for v in (_linear(0, 0) - _linear(1, 2) - _linear(2, 1),
              _linear(0, 1) - _linear(2, 0) + _linear(0, 2),
              _linear(1, 0) - _linear(0, 2) - _linear(2, 0),
              _linear(1, 1),
              _linear(2, 2)):
        G += np.outer(v, v)
    return G - eps * np.eye(9)


CATALOG_INFO = {
    "convex_identity": "Q(xi) = |xi|^2, the convex reference form",
    "choi": "Choi's quasiconvex-not-polyconvex biquadratic form (Choi 1975)",
    "choi_lam": "Choi-Lam extreme positive semidefinite biquadratic form "
                "(Choi and Lam 1977); single-shear layout, determinant is the "
                "AM-GM sextic",
    "serre": "Serre's quasiconvex-not-polyconvex family (Serre 1980); "
             "parameter eps subtracts eps*|xi|^2",
    "reduced": "shear-paired 9-parameter orthotropic form; parameters "
               "a (3x3 symmetric), b, c, d",
}


def catalog(name: str, **params) -> QuadraticForm:
    """Built-in forms by frozen identifier.

    serre takes the eps parameter (default 0); reduced takes a, b, c, d.
    A parameter that the named form does not take is a FormError.
    """
    extra = set(params) - {"serre": {"eps"}, "reduced": set("abcd")}.get(name, set())
    if name in CATALOG_INFO and extra:
        raise FormError(f"catalog form {name!r} takes no {', '.join(sorted(extra))}")
    if name == "convex_identity":
        return QuadraticForm(np.eye(9))
    if name == "choi":
        return form_from_single_shear(_CHOI_A, 2.0, 2.0, 2.0)
    if name == "choi_lam":
        return form_from_single_shear(_CHOI_A, 1.0, 1.0, 1.0)
    if name == "serre":
        return QuadraticForm(_gram_serre(float(params.get("eps", 0.0))))
    if name == "reduced":
        if len(params) < 4:
            raise FormError("catalog('reduced') needs a, b, c, d parameters")
        return form_from_reduced(ReducedOrthotropicForm(
            np.asarray(params["a"], float), params["b"], params["c"], params["d"]))
    raise FormError(f"unknown catalog form {name!r}")


# ---------------------------------------------------------------------------
# JSON schema: {"kind": "gram"|"voigt"|"reduced"|"catalog", ...}

_UPPER_TRI = [(p, r) for p in range(9) for r in range(p, 9)]


def form_to_json(q: QuadraticForm) -> dict:
    return {
        "kind": "gram",
        "upper_triangle": [float(q.gram[p, r]) for (p, r) in _UPPER_TRI],
    }


_VOIGT_KEYS = ["C11", "C22", "C33", "C12", "C13", "C23", "C44", "C55", "C66"]


def _fields(obj: dict, keys) -> list:
    try:
        return [obj[k] for k in keys]
    except KeyError as exc:
        raise FormError(f"{obj['kind']} form missing field {exc}") from exc


def form_from_json(obj: dict) -> QuadraticForm:
    if not isinstance(obj, dict):
        raise FormError(f"form must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind == "gram":
        vals = obj["upper_triangle"]
        if len(vals) != 45:
            raise FormError(f"gram upper triangle needs 45 entries, got {len(vals)}")
        G = np.zeros((9, 9))
        for (p, r), v in zip(_UPPER_TRI, vals):
            G[p, r] = v
            G[r, p] = v
        return QuadraticForm(G)
    if kind == "voigt":
        return form_from_voigt(OrthotropicCoefficients(
            *map(float, _fields(obj, _VOIGT_KEYS))))
    if kind == "reduced":
        return catalog("reduced", **dict(zip("abcd", _fields(obj, "abcd"))))
    if kind == "catalog":
        return catalog(obj.get("name"), **{k: v for k, v in obj.items()
                                           if k not in ("kind", "name")})
    raise FormError(f"unknown form kind {kind!r}")
