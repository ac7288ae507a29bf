"""Quadratic forms on 3x3 matrices and their orthotropic parameterizations.

A form Q is carried by its 9x9 symmetric Gram matrix in the fixed row-major
vectorization (i, j) -> 3*(i-1) + j (1-based), so Q(xi) = vec(xi) . G . vec(xi).
The module provides the Voigt orthotropic constructor, the reduction modulo
Null-Lagrangians to the 9-parameter shear-paired layout, biquadratic
evaluation Q(x (x) y), the acoustic matrix T(y) with x T(y) x^T = Q(x (x) y),
the Null-Lagrangian (2x2 minor) basis, and a catalog of historically
significant forms.

The shear-paired, single-shear and transposed single-shear (the layout of
xi^T, which odd axis permutations make of single-shear) 9-parameter
layouts live in one table (LAYOUT_PARAMS, _COUPLINGS, _SHEARS) that the
layout builders and detect_shear_layout all read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import HomogeneousPolynomial

SYM_REL_TOL = 1e-12


def vec_index(i: int, j: int) -> int:
    """Row-major vectorization index for 0-based entry (i, j)."""
    return 3 * i + j


class FormError(ValueError):
    """Malformed or inconsistent form data."""


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
        e = np.frexp(np.max(np.abs(self.gram)))[1]
        return float(np.ldexp(np.linalg.norm(np.ldexp(self.gram, -e)), e))

    def scaled(self, alpha: float) -> "QuadraticForm":
        return QuadraticForm(alpha * self.gram)

    def gram_tensor(self) -> np.ndarray:
        return gram_tensor(self.gram)


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

    def diagonal_block(self) -> np.ndarray:
        return np.array([
            [self.C11, self.C12, self.C13],
            [self.C12, self.C22, self.C23],
            [self.C13, self.C23, self.C33],
        ])


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


def shear_layout_basis(layout: str) -> np.ndarray:
    """The (9, 9, 9) stack of Gram matrices B_k of a layout, Gram = sum
    theta_k B_k with theta in LAYOUT_PARAMS order."""
    if layout not in _SHEARS:
        raise FormError(f"unknown layout {layout!r}")
    basis = np.zeros((9, 9, 9))
    for k, (i, j) in enumerate(_COUPLINGS):
        p, r = vec_index(i, i), vec_index(j, j)
        basis[k, p, r] = basis[k, r, p] = 1.0
    for k, entries in enumerate(_SHEARS[layout], start=6):
        for (i, j) in entries:
            basis[k, vec_index(i, j), vec_index(i, j)] = 1.0
    return basis


def form_from_theta(layout: str, theta: np.ndarray) -> QuadraticForm:
    return QuadraticForm(np.einsum("k,kij->ij", np.asarray(theta, float),
                                   shear_layout_basis(layout)))


# a layout fits a Gram to this share of its largest entry
LAYOUT_REL_TOL = 1e-10


def detect_shear_layout(q: QuadraticForm):
    """Classify a Gram as shear-paired, single-shear, or neither.

    Returns (layout, theta), theta in LAYOUT_PARAMS order, or (None, None).
    A layout reads theta at its basis matrices' first entries and fits when
    max |G - sum theta_k B_k| <= LAYOUT_REL_TOL * max |G|; paired is tried
    first.
    Shears that all lie within that tolerance snap to exactly 0 (as paired),
    unless the single-shear layout fits with a shear above it.
    """
    G = q.gram
    tol = LAYOUT_REL_TOL * max(float(np.max(np.abs(G))), 1e-300)
    snapped = None
    for layout in _SHEARS:
        basis = shear_layout_basis(layout)
        theta = G.ravel()[[np.flatnonzero(B)[0] for B in basis]]
        if np.max(np.abs(G - np.einsum("k,kij->ij", theta, basis))) > tol:
            continue
        if np.any(np.abs(theta[6:]) > tol):
            return layout, theta
        if layout == "paired":
            snapped = np.concatenate([theta[:6], np.zeros(3)])
    return (None, None) if snapped is None else ("paired", snapped)


def form_from_voigt(c: OrthotropicCoefficients) -> QuadraticForm:
    """Gram of sum C_ij xi_ii xi_jj + C44 (xi23+xi32)^2 + C55 (xi31+xi13)^2
    + C66 (xi12+xi21)^2: the paired layout with shears (C66, C55, C44) plus
    the cross terms 2 C xi_ij xi_ji."""
    G = form_from_theta("paired", [c.C11, c.C22, c.C33, c.C12, c.C13, c.C23,
                                   c.C66, c.C55, c.C44]).gram.copy()
    for w, (i, j) in [(c.C66, (0, 1)), (c.C55, (0, 2)), (c.C44, (1, 2))]:
        p, q = vec_index(i, j), vec_index(j, i)
        G[p, q] = G[q, p] = w
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
    """Equivalent shear-paired form agreeing with the Voigt form on rank ones.

    Each shear cross term 2*C66*xi12*xi21 equals 2*C66*xi11*xi22 modulo the
    minor xi11 xi22 - xi12 xi21, which moves the shear weight onto the
    diagonal couplings: a12 = C12 + C66, a13 = C13 + C55, a23 = C23 + C44.
    The identification is checked exactly rather than trusted: two forms
    agree on every rank one iff their Gram difference is a combination of
    the nine minors, so the difference, with its projection onto their
    orthonormal Gram basis removed, must vanish to 1e-11 of max |G_voigt|.
    """
    a = np.array([
        [c.C11, c.C12 + c.C66, c.C13 + c.C55],
        [c.C12 + c.C66, c.C22, c.C23 + c.C44],
        [c.C13 + c.C55, c.C23 + c.C44, c.C33],
    ])
    reduced = ReducedOrthotropicForm(a=a, b=c.C66, c=c.C55, d=c.C44)
    G = form_from_voigt(c).gram
    err = np.max(np.abs(_off_minors(G - form_from_reduced(reduced).gram)))
    if err > 1e-11 * np.max(np.abs(G)):
        raise FormError("reduction check failed: the forms differ by more "
                        f"than a null Lagrangian ({err:.3e})")
    return reduced


def add_null_lagrangian(q: QuadraticForm, n: NullLagrangianCoeffs) -> QuadraticForm:
    """Q plus a weighted combination of the nine 2x2 minors."""
    G = q.gram.copy()
    for w, N in zip(n.coeffs, _MINOR_BASIS):
        if w != 0.0:
            G += w * N
    return QuadraticForm(G)


@dataclass(frozen=True)
class AcousticMatrix:
    """Symmetric 3x3 matrix of degree-2 polynomials with x T(y) x^T = Q(x (x) y)."""

    entries: tuple  # 3x3 nested tuple of HomogeneousPolynomial, degree 2
    tensor: np.ndarray  # G4[i,k,j,l] with T_ik(y) = y_j G4[i,k,j,l] y_l

    def entry(self, i: int, k: int) -> HomogeneousPolynomial:
        return self.entries[i][k]

    def evaluate(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return np.einsum("j,ikjl,l->ik", y, self.tensor, y)


def acoustic_matrix(q: QuadraticForm) -> AcousticMatrix:
    """T_ik(y) = sum_{j,l} gram[(i,j),(k,l)] y_j y_l, symmetrized."""
    G4 = q.gram_tensor()
    rows = []
    for i in range(3):
        row = []
        for k in range(3):
            terms: dict[tuple[int, int, int], float] = {}
            for j in range(3):
                for l in range(j, 3):
                    coef = G4[i, k, j, l] + (G4[i, k, l, j] if l > j else 0.0)
                    if coef != 0.0:
                        exp = [0, 0, 0]
                        exp[j] += 1
                        exp[l] += 1
                        key = tuple(exp)
                        terms[key] = terms.get(key, 0.0) + coef
            row.append(HomogeneousPolynomial(2, terms))
        rows.append(tuple(row))
    return AcousticMatrix(entries=tuple(rows), tensor=G4)


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


def _voigt_from_json(obj: dict) -> OrthotropicCoefficients:
    return OrthotropicCoefficients(*map(float, _fields(obj, _VOIGT_KEYS)))


def reduced_from_json(obj: dict) -> ReducedOrthotropicForm | None:
    """The shear-paired reduced view of a voigt or reduced form object (the
    Null-Lagrangian reduction for voigt), or None for other kinds."""
    kind = obj.get("kind")
    if kind == "voigt":
        return reduce_modulo_null_lagrangians(_voigt_from_json(obj))
    if kind == "reduced":
        a, b, c, d = _fields(obj, "abcd")
        return ReducedOrthotropicForm(np.asarray(a, float), b, c, d)
    return None


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
        return form_from_voigt(_voigt_from_json(obj))
    if kind == "reduced":
        return form_from_reduced(reduced_from_json(obj))
    if kind == "catalog":
        return catalog(obj.get("name"), **{k: v for k, v in obj.items()
                                           if k not in ("kind", "name")})
    raise FormError(f"unknown form kind {kind!r}")
