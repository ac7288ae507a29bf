"""Numerical certification engines.

lattice_scan computes min over unit y of lambda_min(T(y)) on a
deterministic spherical Fibonacci lattice: one GEMM builds every lattice
acoustic matrix and one values-only eigvals3 solves them all.  Only the
lattice's basins are refined: the local minima among its SEED_POOL lowest
points (within seed radius, as lines), the only lattice points whose
eigenvectors are computed (one eigmin3), start a safeguarded Riemannian
Newton iteration on S^2 x S^2 (Absil, Mahony & Sepulchre, Optimization
Algorithms on Matrix Manifolds, 2008) with a backtracking line search
whose halvings, and one extrapolated 3x step, are all tried in one
stacked eigen-solve per step.  It converges quadratically at a simple
minimum; at the quartic-flat rank-one zeros of the theorem's extremal
forms, where a Newton step only shrinks the distance to 2/3 (Decker,
Keller & Kelley, SIAM J. Numer. Anal. 20, 1983), the 3x step lands on
the zero.  Vectors are stored components first,
as (3, n) rows.  An acoustic stack is one GEMM, a transposed 9x9
reshaping of the Gram tensor times the nine rows v_j v_l of v (x) v
(_acoustic_stack), into (3, 3, n) storage, whose (n, 3, 3) transposed
view eigmin3 solves, returning the eigenvectors as the (n, 3) view of
(3, n) rows.  lattice_scan is pure: each call makes one lattice pass, and
its LatticeScan, read-only, is shared by the margin report and the probes
built on top of it.  Only quasiconvexity_margin and rank_one_zeros keep a
scan, one entry in _kept_scan, so that the pair on one form scans it once:

  * milton_extremality_probe: largest coefficient eps such that Q - eps*l^2
    stays quasiconvex, maximized over unit rank-one directions l, in closed
    form per sample.  Quadratic forms losing quasiconvexity under every
    convex subtraction ("extremal") show max eps ~ 0.
  * extreme_point_probe: largest distance delta from theta/2, along unit
    directions d in the form's 9-parameter shear layout (modulo minors)
    orthogonal to theta, such that Q1 = theta/2 + delta d and Q - Q1 both stay
    quasiconvex, in closed form per sample (a 3x3 pencil's spectral
    radius, from one eigmin3 of -C^2 per sweep step).  An extreme point
    of the cone shows max delta ~ 0.
  * extremal_polynomial_probe: exact extremality test of the sextic
    det T(y), built on the scan's 2^-e-scaled Gram: the scan's rank-one
    zeros, snapped to rationals, give gradient rows over the Newton
    polytope N(det) (a 2-D hull), ranked exactly in Python integers;
    nullspace 1 proves the sextic extremal, a perfect square included.
  * polyconvexity_test: brackets phi* = max lambda_min(Gram - minor
    combination) with a log-det barrier method in numpy, each centring
    started from the central path's tangent predictor: a primal value
    below phi* and a re-checked dual bound above it.  Only the dual bound
    can refute polyconvexity.

Milton and the extreme point run one search, _ray_search, and one
verdict, _ray_verdict, and differ only in their closed-form bound, their
sweep, their two lines and the split of Q that they validate.  Each
sample admits the coefficient along a direction up to a closed-form bound,
and the least bound is an upper bound on the sampled coefficient.  The
samples are the zero pool (LatticeScan.zero_pool: the refined zeros of Q
plus geometric radius sweeps along the transverse-Hessian eigendirections
at each zero, where eps^2-deep dips hide from plain descent), the probe
lattice, and exact alternating sweeps from the most binding lattice points,
run until each direction's bound settles (_refine).  A direction leaves
these stages as soon as its bound is at or below the probe's consistent
line, where no later stage can change the verdict.  Both take
_probe_directions and GUARD_REL as slack and floor, and report method
"sampled" and witness["diagnostics"], validation_scans included.

Every floor is a constant in the scan's frame, the Gram scaled by 2^-e:
cfg.tol is tol 2^e on Q's values (the ray probes read it only through
require_quasiconvex), so Q and alpha Q get the same verdicts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .determinant import _SEXTIC_EXPS, acoustic_det
from .forms import (_MINOR_BASIS, LAYOUT_PARAMS, _off_minors, QuadraticForm,
                    detect_shear_layout, form_from_theta, frame_exponent,
                    gram_tensor, shear_layout_basis)
from .symeig import _COLUMNS, _adjugate, _upper, eigmin3, eigvals3

# noise floor of a refined margin evaluation, relative to the Gram scale;
# the probes certify non-quasiconvexity only below this
GUARD_REL = 16.0 * np.finfo(float).eps

# basin seeding of a scan: the SEED_POOL lowest lattice points are the
# candidates, and at most SEED_CAP of them, each with no lower candidate
# within SEED_RADIUS lattice spacings sqrt(2 pi / n) as lines, are refined
SEED_POOL = 256
SEED_CAP = 48
SEED_RADIUS = 2.3
# fixed work cap: Newton steps per scan
NEWTON_ITERS = 40
# Newton safeguards, relative to the form's scale: the least eigenvalue of
# the Levenberg-shifted Hessian, the longest tangent step (radians), the
# step halvings tried, all at once, before a seed is left where it is, and
# the value decrease below which a step counts as rounding
NEWTON_SHIFT = 1e-12
NEWTON_STEP_MAX = 0.25
NEWTON_BACKTRACKS = 8
NEWTON_TOL = np.finfo(float).eps
# the ray probes' refinement: from its second pair of half-sweeps on, a
# direction stops once its bound, in the scan's frame, could fall by no
# more than REFINE_TOL of itself, or GUARD_REL (rounding noise), by the
# last pair, were its sweeps to keep the pace of the pair just run
REFINE_TOL = 1e-6
# the step lengths tried at once: 3, the Newton step corrected for a
# quartic-flat zero (f ~ t^4, where the plain step lands at 2t/3), then
# 1, 1/2, ..., 2^-NEWTON_BACKTRACKS
_STEPS = np.concatenate([[3.0], 2.0 ** -np.arange(NEWTON_BACKTRACKS + 1)])
# grid^2 lattice points; one scan at 512 takes ~40 s and ~300 MB (2-vCPU VM)
MAX_GRID_RESOLUTION = 512

MILTON_CONSISTENT_MAX = 1e-6
MILTON_REFUTED_MIN = 1e-4
EXTREME_POINT_REL = 1e-5
POLYCONVEX_REFUTED_MAX = -1e-5
# polyconvexity barrier: path step, duality gap target (relative to the
# projected Gram), Newton stopping rule (the squared decrement's rounding
# floor reaches ~1e-10 at the final t), and the slack of the dual re-check
BARRIER_MU = 20.0
BARRIER_GAP_REL = 1e-10
BARRIER_DECREMENT_TOL = 1e-8
BARRIER_MAX_NEWTON = 50
DUAL_CHECK_TOL = 1e-12
CLUSTER_ANGLE = 1e-3
MAX_REPORTED_MINIMIZERS = 12


class PreconditionError(ValueError):
    """A probe was handed a form violating its preconditions."""


@dataclass(frozen=True)
class CertifyConfig:
    grid_resolution: int = 96
    tol: float = 1e-9  # relative: a floor of tol 2^e, for the scan's e
    seed: int = 0
    probe_directions: int = 256

    def __post_init__(self):
        for name, low in (("grid_resolution", 8), ("seed", 0), ("probe_directions", 1)):
            value = getattr(self, name)
            if type(value) is not int or value < low:  # bool excluded
                raise ValueError(f"{name} must be an integer >= {low}")
        if self.grid_resolution > MAX_GRID_RESOLUTION:
            raise ValueError(f"grid_resolution must be <= {MAX_GRID_RESOLUTION}")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MarginReport:
    """Minimum of lambda_min(T(y)) over the unit sphere with its minimizers,
    and as diagnostics the scan's deterministic work counters (lattice
    points, basin seeds refined, Newton steps run) and the exponent e of its
    frame, 2^(e-1) <= max |gram| < 2^e, so a caller can gate at -tol 2^e."""

    margin: float
    minimizers: tuple  # tuples (y, x, value), unit vectors as tuples
    diagnostics: dict

    def to_json(self) -> dict:
        return {
            "margin": self.margin,
            "minimizers": [
                {"y": list(y), "x": list(x), "value": v}
                for (y, x, v) in self.minimizers
            ],
            "diagnostics": dict(self.diagnostics),
        }


@dataclass(frozen=True)
class ProbeReport:
    kind: str
    value: float
    witness: dict
    verdict: str  # consistent | refuted | inconclusive

    def to_json(self) -> dict:
        return {"kind": self.kind, "value": self.value,
                "witness": self.witness, "verdict": self.verdict}


# ---------------------------------------------------------------------------
# sphere lattice

@functools.cache
def sphere_lattice(resolution: int) -> np.ndarray:
    """Spherical Fibonacci lattice of resolution^2 points in canonical sign
    (first nonzero coordinate positive), rounded to 12 decimals and
    renormalized, rows in lexicographic order (one lexsort, first
    coordinate first), read-only, built once per resolution.  No point is
    removed: the rounded rows are distinct, so the order is total, and it
    fixes which points the probes' top-k refinements pick."""
    n = resolution * resolution
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    pts = np.round(canonical_sign(pts), 12)
    pts = pts[np.lexsort(pts.T[::-1])]
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    pts.setflags(write=False)
    return pts


def canonical_sign(V: np.ndarray) -> np.ndarray:
    """Flip rows so the first coordinate above 1e-12 in magnitude is positive."""
    V = np.asarray(V, dtype=float)
    W = np.atleast_2d(V)
    big = np.abs(W) > 1e-12
    lead = np.take_along_axis(W, np.argmax(big, axis=1)[:, None], axis=1)[:, 0]
    return (W * np.where(big.any(axis=1), np.sign(lead), 1.0)[:, None]).reshape(V.shape)


def _acoustic_stack(V: np.ndarray, K: np.ndarray) -> np.ndarray:
    """sum_{j,l} V[j, n] V[l, n] K[j, l, ...] for every column of V, (3, n)
    rows.  K reshaped to (9, m), transposed, multiplies the nine rows
    v_j v_l of v (x) v in one GEMM, into (K's trailing shape) + (n,)
    storage.  Returns its transposed view, (n,) + K's trailing shape, so
    that a 3x3 stack's reshape(-1, 3, 3) and reshape(-1, 9).T stay views.
    With the gram tensor G4[i, k, j, l], K = G4 contracts x (giving S(x),
    the y block) and K = G4.transpose(2, 3, 0, 1) contracts y (giving T(y),
    the x block)."""
    n = V.shape[1]
    trail = K.shape[2:]
    out = K.reshape(9, -1).T @ (V[:, None] * V[None]).reshape(9, n)
    return out.reshape(trail + (n,)).transpose(len(trail), *range(len(trail)))


@dataclass(frozen=True, eq=False)
class LatticeScan:
    """One scan of a form over sphere_lattice(cfg.grid_resolution), in the
    frame of the Gram scaled by 2^-e to largest entry in [1/2, 1): its
    contiguous gram tensor G4, scaled; the lattice's smallest eigenvalues
    (values only, from eigvals3), the refined basin seeds (X, Y, vals)
    after newton_steps Newton steps, and the sampled margin min(vals,
    lattice_lam), all three scaled back by 2^e.  X and Y (seeds, 3) are
    views of components-first rows.  lattice_scan makes every array
    read-only, since the probes of one form, and _kept_scan, share one scan;
    so is zero_pool, built on first use."""

    form: QuadraticForm
    cfg: CertifyConfig
    margin: float
    e: int
    G4: np.ndarray
    lattice_lam: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    vals: np.ndarray
    newton_steps: int

    @functools.cached_property
    def zero_pool(self) -> np.ndarray:
        """_zero_pool of this scan, built once and read-only, so that Milton
        and the extreme point share it."""
        P9 = _zero_pool(self)
        P9.setflags(write=False)
        return P9

    def require_quasiconvex(self, who: str) -> None:
        if self.margin < -math.ldexp(self.cfg.tol, self.e):
            raise PreconditionError(
                f"{who} requires a quasiconvex form (margin {self.margin:.3e})")

    def _seeds_below(self, floor: float, cap: int = 10**9) -> list:
        near = self.vals <= floor
        return _cluster_pairs(self.X[near], self.Y[near], self.vals[near], cap=cap)

    def margin_report(self) -> MarginReport:
        """Minimizers: refined pairs within tol 2^e of the margin, clustered
        at angular distance 1e-3, at most 12."""
        kept = self._seeds_below(self.margin + math.ldexp(self.cfg.tol, self.e),
                                 MAX_REPORTED_MINIMIZERS)
        minimizers = tuple(
            (tuple(float(u) for u in y), tuple(float(u) for u in x), v)
            for (y, x, v) in kept)
        return MarginReport(margin=self.margin, minimizers=minimizers, diagnostics={
            "lattice_points": len(self.lattice_lam),
            "seeds": len(self.vals),
            "newton_steps": self.newton_steps,
            "exponent": self.e})

    def rank_one_zeros(self) -> list:
        """Clustered unit pairs (x, y) with Q(x (x) y) <= tol 2^e.

        Requires the form to be quasiconvex within tolerance.
        """
        self.require_quasiconvex("rank_one_zeros")
        return [(tuple(float(u) for u in x), tuple(float(u) for u in y))
                for (y, x, _) in self._seeds_below(math.ldexp(self.cfg.tol, self.e))]


def lattice_scan(q: QuadraticForm, cfg: CertifyConfig = CertifyConfig()) -> LatticeScan:
    """Scan q: lambda_min(T(y)) at every point y of
    sphere_lattice(cfg.grid_resolution), values only (eigvals3), then the
    lattice's basin seeds (_basin_seeds), whose eigenvectors x and start
    values come from one eigmin3 on at most SEED_CAP rows, refined by
    _newton.  Only the seeds need an eigenvector, and the smallest
    eigenvalue of eigvals3 is accurate on every row, so the lattice pass
    sends no row to LAPACK for an eigenvector, not even where T(y) is
    isotropic.  The margin is the least value seen, lattice or refined.

    The scan runs on the Gram scaled by 2^-e to largest entry in [1/2, 1),
    and the values are scaled back by 2^e; G4 stays in that frame for the
    probes.  Both scalings are exact, so the fixed floors of the
    refinement are relative to the form, Q and 2Q follow bitwise-equal
    paths, and no square overflows.  Every call makes one lattice pass;
    only the two wrappers below keep a scan (_kept_scan)."""
    e = frame_exponent(q.gram)
    G4 = np.ascontiguousarray(np.ldexp(gram_tensor(q.gram), -e))
    Y0 = np.ascontiguousarray(sphere_lattice(cfg.grid_resolution).T)
    T = _acoustic_stack(Y0, G4.transpose(2, 3, 0, 1))
    lam = eigvals3(T)[:, 0]
    seeds = _basin_seeds(Y0, lam)
    vals, X = eigmin3(T[seeds])
    X, Y, vals, steps = _newton(G4, X.T, Y0[:, seeds], vals)
    for a in (lam, vals):
        np.ldexp(a, e, out=a)
    margin = float(min(np.min(vals), np.min(lam)))
    scan = LatticeScan(q, cfg, margin, e, G4, lam, X.T, Y.T, vals, steps)
    for a in (G4, lam, scan.X, scan.Y, vals):
        a.setflags(write=False)
    return scan


def _basin_seeds(Y0: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Indices of the lattice's basin seeds, for lattice points Y0 (3, n)
    with values lam: of the SEED_POOL lowest points, taken in (lam, index)
    order, those with no earlier point of the pool within SEED_RADIUS
    lattice spacings as lines, at most SEED_CAP.  Every lower neighbour of
    a pool point is in the pool, so each seed is a local minimum of the
    lattice within that radius.  A point is shadowed when the first pool
    point near it, as a line, is an earlier one (each point is near
    itself), read off the (pool x pool) Gram in row blocks of 32: each
    block is a GEMM of a contiguous copy of P.T (P.T @ P itself would go
    to SYRK, several times slower at this size) into 64 KiB, not a
    512 KiB Gram per scan."""
    m = min(SEED_POOL, len(lam))
    # the points up to the m-th lowest value, ties included, in index order
    pool = np.flatnonzero(lam <= np.partition(lam, m - 1)[m - 1])
    pool = pool[np.argsort(lam[pool], kind="stable")[:m]]
    P = Y0[:, pool]
    cos_r = math.cos(SEED_RADIUS * math.sqrt(2.0 * math.pi / len(lam)))
    PT = np.ascontiguousarray(P.T)
    first = np.concatenate([np.argmax(np.abs(PT[s:s + 32] @ P) >= cos_r, axis=1)
                            for s in range(0, len(pool), 32)])
    return pool[first >= np.arange(len(pool))][:SEED_CAP]


def _tangent_bases(Z: np.ndarray) -> np.ndarray:
    """Orthonormal tangent bases (s, 3, 2) of the unit vectors Z, (3, s)
    rows, branch-free (Duff et al., J. Comput. Graph. Tech. 6(1), 2017)."""
    z0, z1, z2 = Z
    sign = np.copysign(1.0, z2)
    a = -1.0 / (sign + z2)
    b = z0 * z1 * a
    B = np.empty((len(z0), 3, 2))
    B[:, 0, 0] = 1.0 + sign * z0 * z0 * a
    B[:, 1, 0] = sign * b
    B[:, 2, 0] = -sign * z0
    B[:, 0, 1] = b
    B[:, 1, 1] = sign + z1 * z1 * a
    B[:, 2, 1] = -z1
    return B


def _transverse_hessian(G4: np.ndarray, X: np.ndarray, Y: np.ndarray):
    """Riemannian gradient and Hessian of f(x, y) = Q(x (x) y) on the
    product of spheres at s unit pairs, X and Y (3, s) rows, in tangent
    bases U and V (s, 3, 2) of x and y: g (s, 4) and H (s, 4, 4).  H is the
    tangent block of the Euclidean Hessian [[2T(y), K], [K^T, 2S(x)]] with
    the sphere-curvature term -2f I on its diagonal blocks (x^T grad_x f =
    y^T grad_y f = 2f), which vanishes at a zero.  Returns (g, H, U, V)."""
    x, y = X.T, Y.T
    U, V = _tangent_bases(X), _tangent_bases(Y)
    T = _acoustic_stack(Y, G4.transpose(2, 3, 0, 1))
    S = _acoustic_stack(X, G4)
    Tx = T @ x[:, :, None]
    Sy = S @ y[:, :, None]
    f2 = 2.0 * (x[:, None] @ Tx)[:, 0, 0]
    # K[p, q] = d^2 Q / dx_p dy_q
    K = 2.0 * (np.einsum("pkql,ks,ls->spq", G4, X, Y)
               + np.einsum("pkjq,js,ks->spq", G4, Y, X))
    Ut, Vt = U.transpose(0, 2, 1), V.transpose(0, 2, 1)
    g = 2.0 * np.concatenate([Ut @ Tx, Vt @ Sy], axis=1)[:, :, 0]
    H = np.empty((len(x), 4, 4))
    H[:, :2, :2] = 2.0 * Ut @ T @ U
    H[:, 2:, 2:] = 2.0 * Vt @ S @ V
    H[:, :2, 2:] = Ut @ K @ V
    H[:, 2:, :2] = H[:, :2, 2:].transpose(0, 2, 1)
    H[:, range(4), range(4)] -= f2[:, None]
    return g, H, U, V


def _newton(G4: np.ndarray, X: np.ndarray, Y: np.ndarray, vals: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Safeguarded Riemannian Newton descent of f(x, y) = Q(x (x) y) from s
    unit pairs X, Y (3, s) with values vals (s,), each x an eigenvector of
    lambda_min(T(y)); G4 is the gram tensor of a form scaled to largest
    entry in [1/2, 1), so the fixed floors are relative to the form.

    Each step solves (H + mu I) d = -g in the tangent bases
    (_transverse_hessian), with the Levenberg shift mu >= 0 that lifts the
    least eigenvalue to NEWTON_SHIFT and |d| capped at NEWTON_STEP_MAX,
    retracts y by normalizing y + s V d_y and re-solves x exactly: the new
    value is lambda_min(T(y)) from eigmin3.  The trial lengths s are
    _STEPS: 3, then the NEWTON_BACKTRACKS + 1 halvings 2^-k.  All of them,
    for all live seeds, are one acoustic stack and one eigmin3, so a step
    costs one eigen-solve.  Each seed takes the least k whose value falls,
    as halving one at a time would (scaling by 2^-k is exact, so the trial
    points are the same), or the 3x trial where its value is no higher
    than that and than the start, else stays where it is, so values never
    rise per seed.  At a quartic-flat zero, f ~ t^4, the Newton step lands
    at 2t/3 and the 3x step on the zero, where values fall below rounding,
    so the 3x trial there often only ties; at a simple minimum it
    overshoots and is not taken.  A seed stops, frozen, after the first
    step that lowers its value by no more than NEWTON_TOL; the iteration
    ends when none is left or after NEWTON_ITERS steps.  Returns the
    refined (X, Y, vals), components first, and the steps run."""
    Ky = G4.transpose(2, 3, 0, 1)
    X, Y, vals = X.copy(), Y.copy(), vals.copy()
    live = np.arange(len(vals))
    steps = 0
    while len(live) and steps < NEWTON_ITERS:
        steps += 1
        g, H, _, V = _transverse_hessian(G4, X[:, live], Y[:, live])
        w, W = np.linalg.eigh(H)
        w += np.maximum(0.0, NEWTON_SHIFT - w[:, :1])
        # d = -W diag(1 / w) W^T g, then capped in length
        d = -(W @ ((g[:, None] @ W)[:, 0] / w)[:, :, None])[:, :, 0]
        d *= np.minimum(1.0, NEWTON_STEP_MAX / np.maximum(
            np.linalg.norm(d, axis=1), 1e-300))[:, None]
        dy = (V @ d[:, 2:, None])[:, :, 0].T
        # every step length of every live seed, seed by seed, (3, live * 10)
        Yt = (Y[:, live, None] + dy[:, :, None] * _STEPS).reshape(3, -1)
        Yt /= np.linalg.norm(Yt, axis=0)
        vt, Xt = eigmin3(_acoustic_stack(Yt, Ky))
        before, r = vals[live], np.arange(len(live))
        v = vt.reshape(len(live), -1)
        # each seed takes its longest halving that lowers its value, or the
        # 3x trial where that is no higher than both; a seed with neither
        # stays
        k = 1 + np.argmax(v[:, 1:] < before[:, None], axis=1)
        k[v[:, 0] <= np.minimum(v[r, k], before)] = 0
        took = (k == 0) | (v[r, k] < before)
        t, i = r[took] * len(_STEPS) + k[took], live[took]
        X[:, i], Y[:, i], vals[i] = Xt.T[:, t], Yt[:, t], vt[t]
        live = live[before - vals[live] > NEWTON_TOL]
    return X, Y, vals, steps


def _cluster_pairs(X: np.ndarray, Y: np.ndarray, vals: np.ndarray,
                   angle: float = CLUSTER_ANGLE, cap: int = 10**9):
    """Greedy angular clustering of canonical-signed (y, x) pairs, best first:
    a pair is kept unless it lies within angle, in both y and x taken as
    lines (v ~ -v, min(|a - b|, |a + b|)), of a pair kept before it.  Each
    kept pair drops its whole neighbourhood from the remaining candidates
    in one step."""
    Xc = canonical_sign(X)
    Yc = canonical_sign(Y)
    rest = np.lexsort((Xc[:, 2], Xc[:, 1], Xc[:, 0],
                       Yc[:, 2], Yc[:, 1], Yc[:, 0], vals))

    def near_line(V, v):
        return np.minimum(np.linalg.norm(V - v, axis=1),
                          np.linalg.norm(V + v, axis=1)) < angle

    kept = []
    while len(rest) and len(kept) < cap:
        i, rest = rest[0], rest[1:]
        kept.append((Yc[i], Xc[i], float(vals[i])))
        rest = rest[~(near_line(Yc[rest], Yc[i]) & near_line(Xc[rest], Xc[i]))]
    return kept


@functools.lru_cache(maxsize=1)
def _kept_scan(gram: bytes, cfg: CertifyConfig) -> LatticeScan:
    """lattice_scan of the form with these Gram bytes, the last one kept,
    so that the two wrappers below, called on one form and config, scan it
    once."""
    return lattice_scan(QuadraticForm(np.frombuffer(gram).reshape(9, 9)), cfg)


def quasiconvexity_margin(q: QuadraticForm, cfg: CertifyConfig = CertifyConfig()) -> MarginReport:
    """Margin = min over unit y of lambda_min(T(y)); reports minimizer
    pairs.  Reads the kept scan of q and cfg (_kept_scan)."""
    return _kept_scan(q.gram.tobytes(), cfg).margin_report()


def rank_one_zeros(q: QuadraticForm, cfg: CertifyConfig = CertifyConfig()) -> list:
    """The scan's rank_one_zeros(), read off the kept scan of q and cfg
    (_kept_scan), so it reuses the scan of a quasiconvexity_margin(q, cfg)
    just before."""
    return _kept_scan(q.gram.tobytes(), cfg).rank_one_zeros()


# ---------------------------------------------------------------------------
# zero-structure pool

_POOL_RADII = np.geomspace(1e-5, 0.32, 28)


def _zero_pool(scan: LatticeScan):
    """(P, 9) rank-one sample matrix around the refined zeros of the scanned
    form; P = 0 when it has no rank-one zeros.

    At each zero the transverse Hessian is diagonalized and geometric radius
    sweeps are laid along every eigendirection; the eps^2-deep dips of
    Q - eps*l^2 live on those curves.
    """
    reps = scan._seeds_below(math.ldexp(1e-10, scan.e), 12)
    if not reps:
        return np.zeros((0, 9))
    Y0, X0 = (np.array([r[k] for r in reps]) for k in (0, 1))
    _, H, U, V = _transverse_hessian(scan.G4, X0.T, Y0.T)
    W = np.linalg.eigh(H)[1]
    radii = np.concatenate([_POOL_RADII, -_POOL_RADII])[:, None]

    def sweeps(Z, D):
        """The zeros Z (r, 3), then the unit points Z + rho D[:, :, k] for
        every eigendirection k of D (r, 3, 4) and signed radius rho."""
        P = Z[:, None, None] + radii * D.transpose(0, 2, 1)[:, :, None]
        P /= np.linalg.norm(P, axis=-1)[..., None]
        return np.concatenate([Z, P.reshape(-1, 3)])

    Xp = sweeps(X0, U @ W[:, :2])
    Yp = sweeps(Y0, V @ W[:, 2:])
    return (Xp[:, :, None] * Yp[:, None, :]).reshape(len(Xp), 9)


def _pool_quadratic(P9: np.ndarray, gram: np.ndarray) -> np.ndarray:
    return np.einsum("pi,ij,pj->p", P9, gram, P9)


# lattice rows per chunk of the probes' lattice stages: each takes
# LOCKSTEP_ROWS // n directions at a time (n lattice points), which bounds
# its memory and keeps each stack near eigvals3's fastest size
LOCKSTEP_ROWS = 1 << 14
# both ray probes sample sphere_lattice(PROBE_GRID), whatever the scan's grid
PROBE_GRID = 32


def _probe_directions(axes: np.ndarray, cfg: CertifyConfig) -> np.ndarray:
    """cfg.probe_directions unit directions in the span of the unit rows
    of axes (9, 9): half seeded random combinations of the axes, half
    axis-aligned (the axes in order, then seeded in-pair mixes of them)."""
    rng = np.random.default_rng(cfg.seed)
    n_rand = cfg.probe_directions // 2
    R = (rng.standard_normal((n_rand, 1, 9)) @ axes)[:, 0]
    # a mix pairs axis i with axis j = (i + step) % 9, one of the other eight
    i, step, t = np.array([(rng.integers(0, 9), rng.integers(1, 9),
                            rng.uniform(0.0, 2.0 * np.pi))
                           for _ in range(cfg.probe_directions - n_rand - 9)]
                          ).reshape(-1, 3).T
    i, j, t = i.astype(int), (i + step).astype(int) % 9, t[:, None]
    W = np.concatenate([R, np.cos(t) * axes[i] + np.sin(t) * axes[j]])
    # stacked products, bitwise the norm of one direction at a time
    W /= np.sqrt(W[:, None] @ W[:, :, None])[:, 0]
    return np.concatenate([W[:n_rand], axes[:cfg.probe_directions - n_rand],
                           W[n_rand:]])


def _refine(half_sweep, V: np.ndarray, sampled: np.ndarray, cap: int, line: float
            ) -> tuple[np.ndarray, int, int]:
    """The ray probes' refinement: pairs of exact alternating half-sweeps
    from the k lattice points V (3, c, k) of each of c directions, whose
    bounds before it, from the pool and the lattice, are sampled (c,).
    half_sweep(s, live, V) runs half-sweep s (0, 1, ...) of the directions
    live from their points V (3, len(live), k) and returns their bounds
    (len(live), k) and next points; half-sweep 0 starts on the lattice,
    whose bound there is its own, so it is not counted.  A direction's
    refined bound is the least it has met, and its bound the lesser of
    that and sampled.  After each pair a direction leaves the batch, its
    rows dropped as _newton drops frozen seeds, once its bound is at or
    below line; from the second pair on, also once its bound could fall by
    no more than REFINE_TOL of itself, or GUARD_REL, were the refined bound
    to fall as much as in this pair in each pair left (at least one): its
    fall by the cap, when the falls do not grow.  The loop ends when no
    direction is live or after cap pairs.  Every direction keeps its k >= 2
    columns, so its rows round the same whichever directions are live
    beside it.  Returns the refined bounds (c,), the pairs run and the
    directions still moving at the cap."""
    refine, live = np.full(len(sampled), np.inf), np.arange(len(sampled))
    for pair in range(1, cap + 1):
        before = refine[live]
        for s in (2 * pair - 2, 2 * pair - 1):
            r, V = half_sweep(s, live, V)
            if s:
                refine[live] = np.minimum(refine[live], np.min(r, axis=1))
        after, held = refine[live], sampled[live]
        bound = np.minimum(held, after)
        moving = bound > line
        if pair > 1:
            # nan where the refined bound stays inf: not moving
            with np.errstate(invalid="ignore"):
                fall = bound - np.minimum(
                    held, after - max(cap - pair, 1) * (before - after))
            moving &= fall > np.maximum(REFINE_TOL * bound, GUARD_REL)
        live, V = live[moving], V[:, moving]
        if not len(live):
            break
    return refine, pair, len(live)


def _ray_search(dirs: np.ndarray, Y: np.ndarray, pool_num: np.ndarray,
                pool_rows: np.ndarray, den, lattice_table, half_sweep,
                k: int, cap: int, line: float) -> tuple[np.ndarray, dict]:
    """The ray probes' search over unit directions dirs (c, 9), in the
    scan's frame, in three stages: each direction's least bound over the
    pool, pool_num / den(d . pool_rows) per column of pool_rows (9, P), 0
    where pool_num <= 0; over the probe lattice Y (3, n),
    lattice_bound(dirs[j]) (len(j), n) for LOCKSTEP_ROWS // n directions
    at a time, lattice_table() building the probe's table and returning
    lattice_bound; and over _refine's sweeps from its k least lattice
    bounds, at most cap pairs, half_sweep(s, d, V) sweeping directions d
    from their points V (3, len(d), k).  A direction leaves at the
    consistent line: once its bound is at or below line, no later stage
    runs for it, and lattice_table() runs only when some direction reaches
    the lattice.  Bounds only fall, so such a direction is read consistent
    whatever the later stages would find, and only the largest bound
    above the line, found in full, can refute.  Returns the bounds (c,)
    and the witness diagnostics of the search."""
    c, n = len(dirs), Y.shape[1]
    step = max(1, LOCKSTEP_ROWS // n)
    pool, lattice, refine = np.empty(c), np.full(c, np.inf), np.full(c, np.inf)
    for s in range(0, c, step):
        j = slice(s, s + step)
        # stacked matrix products, whose bits do not depend on the chunk
        d = den((dirs[j, None] @ pool_rows)[:, 0])
        with np.errstate(divide="ignore", invalid="ignore"):
            pool[j] = np.min(np.where(pool_num > 0, pool_num / d, 0), 1, initial=np.inf)
    reach = np.flatnonzero(pool > line)
    top = np.empty((len(reach), k), dtype=int)
    lattice_bound = lattice_table() if len(reach) else None
    for s in range(0, len(reach), step):
        r = lattice_bound(dirs[reach[s:s + step]])
        lattice[reach[s:s + step]] = np.min(r, axis=1)
        top[s:s + step] = np.argpartition(r, k - 1, axis=1)[:, :k]
    sampled = np.minimum(pool, lattice)
    on = sampled[reach] > line
    swept, sweeps, unsettled = reach[on], 0, 0
    if len(swept):
        refine[swept], sweeps, unsettled = _refine(
            lambda s, live, V: half_sweep(s, dirs[swept[live]], V),
            Y[:, top[on]], sampled[swept], cap, line)
    bounds = np.stack([pool, lattice, refine])
    binding = np.bincount(np.argmin(bounds, axis=0), minlength=3)
    return np.min(bounds, axis=0), {
        "directions": c, "lattice_points": n, "pool_points": pool_rows.shape[1],
        "lattice_directions": len(reach), "refined_directions": len(swept),
        "refinement_starts": len(swept) * k, "refinement_sweeps": sweeps,
        "refinement_unsettled": unsettled,
        "binding": dict(zip(("pool", "lattice", "refine"), binding.tolist()))}


def _ray_verdict(star: np.ndarray, e: int, consistent: float, refuted: float,
                 halves, cfg: CertifyConfig):
    """The ray probes' verdict from their bounds star (c,), in Q's units,
    e the scan's exponent.  The witness j is the first direction within
    max(1e-12 2^e, 1e-4 max) of the largest bound, which rounding cannot
    swap.  A largest bound at or below the consistent line is consistent.
    Otherwise trials from t = (1 - 1e-4) star[j], off the sampled boundary,
    run while t is above the refuted line, shrinking by 0.7 at most 23
    times: refuted once full scans of every Gram of halves(j, t) clear
    -GUARD_REL 2^e, else inconclusive.  After a failing Gram, the rest are
    scanned only at the last trial.  Returns the verdict, j, the last
    trial's t and margins (None when none ran) and the full scans run."""
    top = float(np.max(star))
    j = int(np.argmax(star >= top - max(math.ldexp(1e-12, e), 1e-4 * top)))
    t, floor, scans = (1 - 1e-4) * float(star[j]), -math.ldexp(GUARD_REL, e), 0
    if top <= consistent or t <= refuted:
        return "consistent" if top <= consistent else "inconclusive", j, None, None, 0
    for step in range(24):
        last = step == 23 or 0.7 * t <= refuted
        margins = []
        for gram in halves(j, t):
            margins.append(lattice_scan(QuadraticForm(gram), cfg).margin)
            if margins[-1] < floor and not last:
                break
        scans += len(margins)
        passed = min(margins) >= floor
        if passed or last:
            return "refuted" if passed else "inconclusive", j, t, margins, scans
        t *= 0.7


# ---------------------------------------------------------------------------
# milton extremality


def _shifted_adjugate(U: np.ndarray, shift: float) -> tuple[np.ndarray, np.ndarray]:
    """adj(A) and det(A), zeroed where A is not positive definite, of
    A = M + shift I, for M given as symeig's upper rows U, shifted in place."""
    U[:3] += shift
    adj = _adjugate(U)
    det = U[0] * adj[0] + U[3] * adj[3] + U[4] * adj[4]
    return adj, np.where((U[0] > 0) & (adj[2] > 0) & (det > 0), det, 0.0)


def _rank_one_bound(adj: np.ndarray, det: np.ndarray, m: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The largest eps with A - eps m m^T >= 0 (A from _shifted_adjugate, m
    (3, ...)): det A / m^T adj(A) m, 0 where A is not positive definite, inf
    where m^T adj(A) m = 0; and w = adj(A) m, argmin of x^T A x / (m^T x)^2.
    Elementwise, so the bits do not depend on the batch."""
    cols = adj[_COLUMNS]
    w = cols[0] * m[0] + cols[1] * m[1] + cols[2] * m[2]
    quad = m[0] * w[0] + m[1] * w[1] + m[2] * w[2]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(det > 0, np.where(quad > 0, det / quad, np.inf), 0), w


def milton_extremality_probe(scan: LatticeScan) -> ProbeReport:
    """Max over unit rank-one directions l of sup{eps : Q - eps l^2 quasiconvex}.

    With l = <M, .> and m = M y, Q - eps l^2 has acoustic matrix
    T(y) - eps m m^T, so a sample bounds eps*(l) by the exact eps where
    lambda_min >= -guard stops holding there: _rank_one_bound of
    A = T(y) + guard I, and (Q + guard) / l^2 on the pool.  _ray_search
    takes eps*(l) over directions whose axes are the Gram's eigenvectors,
    sweeping from each direction's 16 lowest lattice points, at most 14
    pairs, exactly in x (x ~ adj(A) m), then in y (S(x), p = M^T x); a
    direction leaves at 1e-6, the consistent line in the scan's frame, and
    the adjugates of the lattice are built only if one reaches it.
    _ray_verdict validates Q - eps l^2, with lines 1e-6 2^e and 1e-4 2^e;
    value is the largest eps*.
    """
    scan.require_quasiconvex("milton probe")
    q, cfg, e, G4 = scan.form, scan.cfg, scan.e, scan.G4
    P9 = scan.zero_pool
    pool_q = _pool_quadratic(P9, G4.swapaxes(1, 2).reshape(9, 9)) + GUARD_REL
    Y = np.ascontiguousarray(sphere_lattice(PROBE_GRID).T)
    Ky = G4.transpose(2, 3, 0, 1)
    dirs = _probe_directions(np.linalg.eigh(q.gram)[1].T, cfg)

    def lattice_table():
        adj, det = _shifted_adjugate(_upper(_acoustic_stack(Y, Ky)), GUARD_REL)
        return lambda d: _rank_one_bound(
            adj[:, None], det, (d.reshape(-1, 3, 3) @ Y).transpose(1, 0, 2))[0]

    def half_sweep(s, d, V):
        # even s: from y (T(y), m = M y) to x; odd s: from x (S(x),
        # p = M^T x) to y
        M = d.reshape(-1, 3, 3)
        M = M.transpose(0, 2, 1) if s % 2 else M
        U = _upper(_acoustic_stack(V.reshape(3, -1), G4 if s % 2 else Ky))
        table = _shifted_adjugate(U.reshape(6, *V.shape[1:]), GUARD_REL)
        r, W = _rank_one_bound(*table, (M @ V.transpose(1, 0, 2)).transpose(1, 0, 2))
        return r, W / np.maximum(np.linalg.norm(W, axis=0), 1e-300)

    bound, diagnostics = _ray_search(dirs, Y, pool_q, P9.T, np.square, lattice_table,
                                     half_sweep, 16, 14, MILTON_CONSISTENT_MAX)
    eps_star = np.ldexp(bound, e)
    n_rand = cfg.probe_directions // 2
    eigen_table = [{"direction": [float(u) for u in dirs[j]],
                    "eps_star": float(eps_star[j])}
                   for j in range(n_rand, min(n_rand + 9, len(dirs)))]
    verdict, j, t, margins, scans = _ray_verdict(
        eps_star, e, math.ldexp(MILTON_CONSISTENT_MAX, e), math.ldexp(MILTON_REFUTED_MIN, e),
        lambda j, t: [q.gram - t * np.outer(dirs[j], dirs[j])], cfg)
    witness = {
        "method": "sampled",
        "direction": [float(u) for u in dirs[j]],
        "eps_star": float(eps_star[j]),
        "eigen_directions": eigen_table,
        "diagnostics": diagnostics | {"validation_scans": scans},
    }
    if t is not None:
        witness.update(validation_eps=t, validation_margin=margins[0])
    return ProbeReport(kind="milton", value=float(np.max(eps_star)),
                       witness=witness, verdict=verdict)


# ---------------------------------------------------------------------------
# extreme point probe

def _inverse_cholesky(a00, a11, a22, a01, a02, a12):
    """L^-1 for the closed-form Cholesky factor of symmetric A = L L^T,
    given as its upper rows: the rows of the lower triangle of L^-1,
    ((d0,), (m10, d1), (m20, m21, d2)), and whether A is positive definite,
    its three pivots positive.  A pivot that is not is taken as 1, so that
    the outputs stay finite."""

    def root(p):
        return np.sqrt(np.where(p > 0, p, 1.0))

    l00 = root(a00)
    l10, l20 = a01 / l00, a02 / l00
    p1 = a11 - l10 * l10
    l11 = root(p1)
    l21 = (a12 - l20 * l10) / l11
    p2 = a22 - l20 * l20 - l21 * l21
    l22 = root(p2)
    d0, d1, d2 = 1.0 / l00, 1.0 / l11, 1.0 / l22
    rows = ((d0,), (-l10 * d0 * d1, d1),
            ((l10 * l21 - l11 * l20) * d0 * d1 * d2, -l21 * d1 * d2, d2))
    return rows, (a00 > 0) & (p1 > 0) & (p2 > 0)


def _whiten(A: np.ndarray, B: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """L^-1 B L^-T for the closed-form Cholesky factor of A = L L^T
    (_inverse_cholesky), for stacks A and B (n, 3, 3); L^-1 (n, 3, 3); and
    whether each A is positive definite."""
    rows, pd = _inverse_cholesky(*_upper(A))
    Li = np.zeros((len(A), 3, 3))
    for i, row in enumerate(rows):
        for j, l in enumerate(row):
            Li[:, i, j] = l
    return Li @ B @ Li.swapaxes(1, 2), Li, pd


def _whitened_basis(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """-L^-1 B_k L^-T, _whiten's pencils negated, of the stacks A = S[:, 0]
    and B_k = S[:, k], k = 1..9, of S (n, 10, 3, 3), _acoustic_stack's view
    of (10, 3, 3, n) storage: as the rows (9, 9n) whose row k is the n
    pencils of B_k, each a row-major 3x3; and whether each A is positive
    definite.  Built components first: L^-1 is the rows of _inverse_cholesky,
    each entry of L^-1 B, then of (L^-1 B) L^-T, is a sum over a row of its
    lower triangle of (9, 3, n) or (9, n) rows of the storage, and each of
    the six upper entries is written straight into the rows, and mirrored."""
    Li, pd = _inverse_cholesky(*_upper(S[:, 0]))

    def lower_dot(row, terms):
        # summed in place: fewer (9, 3, n) temporaries to map and fault in
        out = row[0] * terms[0]
        for l, t in zip(row[1:], terms[1:]):
            out += l * t
        return out

    # rows a of the basis stacks, (9, 3, n), then rows i of L^-1 B
    LB = [lower_dot(row, S.transpose(2, 1, 3, 0)[:, 1:]) for row in Li]
    C = np.empty((9, len(pd), 3, 3))
    for i in range(3):
        for j in range(i, 3):
            C[:, :, i, j] = C[:, :, j, i] = -lower_dot(Li[j], LB[i].swapaxes(0, 1))
    return C.reshape(9, -1), pd


def _ray_bound(rho: np.ndarray, pd: np.ndarray) -> np.ndarray:
    """The largest delta with A +- delta B >= 0, for rho the spectral
    radius of L^-1 B L^-T (_whiten): 1 / rho (inf at rho = +-0), and 0
    where A is not positive definite."""
    with np.errstate(divide="ignore"):
        return np.where(pd, 1.0 / np.abs(rho), 0.0)


def _pencil_step(C: np.ndarray, Li: np.ndarray, pd: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """For whitened pencils C = L^-1 B L^-T (m, 3, 3) with L^-1 and pd from
    _whiten: min over x of x^T A x / |x^T B x|, as _ray_bound, and its
    minimizer x = L^-T u, u an eigenvector of an eigenvalue of C largest
    in magnitude, unit, as (3, m) rows.  One eigmin3 of -C^2 gives both,
    whichever side binds: its eigenvalues are -lambda_i(C)^2, so the least
    is -rho^2, rho the spectral radius, with eigenvector v.  Where C has
    both +rho and -rho, v may be any mix a u+ + b u- of their eigenvectors
    (B = e1 e2^T + e2 e1^T and A = I give v = e1, with x^T B x = 0), so u
    is (C +- rho I) v = 2 rho a u+ or -2 rho b u-, the larger, picked by
    the sign of v^T C v = rho (a^2 - b^2); it is v itself where C = 0.  A C
    near rank one, eigenvalues (0, 0, rho), gives -C^2 the lower gap
    rho^2, so no row reaches LAPACK."""
    mu, V = eigmin3(-(C @ C))
    rho = np.sqrt(np.maximum(-mu, 0.0))
    CV = (C @ V[:, :, None])[:, :, 0]
    U = CV + np.where(np.sum(V * CV, axis=1) >= 0.0, rho, -rho)[:, None] * V
    zero = ~U.any(axis=1)
    U[zero] = V[zero]
    x = (Li.swapaxes(1, 2) @ U[:, :, None])[:, :, 0].T
    x /= np.linalg.norm(x, axis=0)
    return _ray_bound(rho, pd), x


def extreme_point_probe(scan: LatticeScan) -> ProbeReport:
    """Search the scanned form's 9-parameter shear layout, modulo minors,
    for a splitting 0 <= Q1 <= Q (quasiconvex order) far from the ray {alpha Q}.

    Q1 = theta/2 + delta d and Q - Q1 = theta/2 - delta d, for unit d
    orthogonal to theta, are mirror images about theta/2, so in the scan's
    frame (theta 2^-e) at a sample y both stay above the floor -guard
    exactly while A +- delta T_d(y) >= 0, A = T_theta(y)/2 + guard I: for
    delta <= 1 / rho(L^-1 T_d L^-T), A = L L^T (0 where A is not positive
    definite; _whiten, _ray_bound), and (Q_theta/2 + guard) / |Q_d| on the
    pool.  _ray_search takes delta*(d) as the least bound, capped at
    8 |theta| and scaled back by 2^e; the axes of the directions d are the
    layout axes projected off theta, largest theta_k first, which meet
    splittings random directions miss.  T_d is linear in d, so the nine
    whitened basis stacks of the lattice are built once, components first
    (_whitened_basis), and only if a direction reaches the lattice stage,
    and a chunk of directions is one GEMM and one eigvals3.  Its sweeps
    start at each direction's 12 most binding lattice points, at most 16
    pairs (_pencil_step, in x with T(y), then in y with S(x)).  A direction
    leaves the search at 1e-5 |theta 2^-e|, the consistent line.

    _ray_verdict validates Q1 and Q - Q1, with 1e-5 |theta_q| as both
    lines.  value and distance are the validated delta when refuted;
    otherwise value is (1 - 1e-4) max delta* and distance the witness
    direction's own (1 - 1e-4) delta*.  theta_witness is
    theta/2 + distance d.
    """
    q, cfg, e = scan.form, scan.cfg, scan.e
    layout, theta = detect_shear_layout(q)
    if layout is None:
        raise PreconditionError(
            "extreme point probe requires a shear-paired or single-shear "
            "orthotropic Gram layout")
    for k in (0, 1, 2, 6, 7, 8):
        if theta[k] <= 0:
            raise PreconditionError(
                f"strict positivity violated: parameter {LAYOUT_PARAMS[k]} "
                f"= {theta[k]:g}")

    scan.require_quasiconvex("extreme point probe")

    basis = shear_layout_basis(layout)
    u = np.ldexp(theta, -e)
    norm_u = float(np.linalg.norm(u))
    # the consistent line, in the scan's frame
    line = EXTREME_POINT_REL * norm_u
    axes = (np.eye(9) - np.outer(u, u / (u @ u)))[np.argsort(-theta, kind="stable")]
    D = _probe_directions(axes / np.linalg.norm(axes, axis=1)[:, None], cfg)

    # gram tensors of theta 2^-e / 2 + guard I, whose T(y) at a unit y is
    # A, then of the basis; Ky contracts y (T(y)), Kx contracts x (S(x))
    A9 = np.tensordot(np.ldexp(0.5 * theta, -e), basis, axes=1) + GUARD_REL * np.eye(9)
    G10 = gram_tensor(np.concatenate([A9[None], basis]))
    Ky, Kx = G10.transpose(3, 4, 0, 1, 2), G10.transpose(1, 2, 0, 3, 4)
    # p^T B_k p at the pool rows p, summed over each B_k's nonzero entries
    P9 = scan.zero_pool
    k, i, j = np.nonzero(basis)
    pool_rows = np.zeros((9, len(P9)))
    np.add.at(pool_rows, k, basis[k, i, j, None] * P9.T[i] * P9.T[j])
    Y = np.ascontiguousarray(sphere_lattice(PROBE_GRID).T)

    def lattice_table():
        # rows of -C, same rho: along a positive-theta axis C is rank one
        # minus c I, a repeated pair that eigvals3 keeps in closed form only
        # on top
        W, pd = _whitened_basis(_acoustic_stack(Y, Ky))

        def lattice_bound(d):
            lam = eigvals3((d[:, None] @ W).reshape(-1, 3, 3))
            return _ray_bound(np.maximum(lam[:, 2], -lam[:, 0]).reshape(len(d), -1), pd)
        return lattice_bound

    def half_sweep(s, d, V):
        # each point's own T_d (even s, from y) or S_d (odd s, from x),
        # whitened
        S = _acoustic_stack(V.reshape(3, -1), Kx if s % 2 else Ky)
        Bd = (np.repeat(d, V.shape[2], axis=0)[:, None]
              @ S[:, 1:].reshape(-1, 9, 9)).reshape(-1, 3, 3)
        r, x = _pencil_step(*_whiten(S[:, 0], Bd))
        return r.reshape(V.shape[1:]), x.reshape(V.shape)

    bound, diagnostics = _ray_search(D, Y, _pool_quadratic(P9, A9), pool_rows, np.abs,
                                     lattice_table, half_sweep, 12, 16, line)
    delta_star = np.ldexp(np.minimum(bound, 8.0 * norm_u), e)

    def halves(j, t):
        q1 = form_from_theta(layout, 0.5 * theta + t * D[j]).gram
        return q1, q.gram - q1

    line = math.ldexp(line, e)    # in Q's units
    verdict, j, t, margins, scans = _ray_verdict(delta_star, e, line, line, halves, cfg)
    # a split within the witness direction's own bound, unless validated
    value, distance = (t, t) if verdict == "refuted" else (
        (1 - 1e-4) * float(np.max(delta_star)), (1 - 1e-4) * float(delta_star[j]))
    m1, m2 = margins or (None, None)
    witness = {
        "method": "sampled",
        "layout": layout,
        "theta_q": [float(u) for u in theta],
        "direction": [float(u) for u in D[j]],
        "delta_star": float(delta_star[j]),
        "theta_witness": [float(u) for u in 0.5 * theta + distance * D[j]],
        "distance": float(distance),
        "margin_q1": m1,
        "margin_complement": m2,
        "diagnostics": diagnostics | {"validation_scans": scans},
    }
    return ProbeReport(kind="extreme_point", value=float(value),
                       witness=witness, verdict=verdict)


# ---------------------------------------------------------------------------
# extremal polynomial probe

# rank-one zero directions are snapped to rationals of at most this denominator
SNAP_DENOMINATOR = 64


def _snap(y) -> tuple[Fraction, ...]:
    """y scaled so its largest coordinate is +-1, snapped to rationals and
    signed so that its first nonzero coordinate is positive (z ~ -z)."""
    y = np.asarray(y) / np.max(np.abs(y))
    z = [Fraction(float(u)).limit_denominator(SNAP_DENOMINATOR) for u in y]
    sign = 1 if next(u for u in z if u) > 0 else -1
    return tuple(sign * u for u in z)


def _monomial_rows(exps, z) -> list[list[int]]:
    """Gradient rows of the monomials exps at the snapped zero z, one per
    variable, exact in integers: z is scaled by the lcm L of its
    denominators, which scales every row by L^5 and changes neither which
    rows vanish against p nor their rank.  Their value row is redundant: by
    Euler's identity, sum_v z_v d_v m(z) = 6 m(z) for every sextic
    monomial m."""
    L = math.lcm(*(u.denominator for u in z))
    z = [u.numerator * (L // u.denominator) for u in z]
    return [[e[v] * z[0] ** (e[0] - (v == 0)) * z[1] ** (e[1] - (v == 1))
             * z[2] ** (e[2] - (v == 2)) if e[v] else 0 for e in exps]
            for v in range(3)]


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _newton_polytope(support) -> list[tuple[int, int, int]]:
    """Sextic exponents in the convex hull of support.  Exponents lie in the
    plane e1 + e2 + e3 = 6, so (e1, e2) are exact 2-D coordinates: the hull
    is Andrew's monotone chain, counter-clockwise (a point or a segment when
    the support is), and a point is in it iff it lies left of or on every
    edge and within the hull's bounding box, in integer cross products."""
    pts = sorted({e[:2] for e in support})
    if not pts:
        return []

    def chain(seq):
        h = []
        for p in seq:
            while len(h) >= 2 and _cross(h[-2], h[-1], p) <= 0:
                h.pop()
            h.append(p)
        return h[:-1]

    hull = chain(pts) + chain(pts[::-1]) or pts
    xs, ys = zip(*hull)
    edges = list(zip(hull, hull[1:] + hull[:1]))
    return [e for e in _SEXTIC_EXPS
            if min(xs) <= e[0] <= max(xs) and min(ys) <= e[1] <= max(ys)
            and all(_cross(a, b, e) >= 0 for a, b in edges)]


def _exact_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination:
    each step replaces row i by (p r_i - r_i[col] top) / p_prev, p the
    pivot and p_prev the one before, a division that is exact, so every
    entry stays an integer minor of the rows."""
    rows = [r for r in rows if any(r)]
    rank, prev = 0, 1
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        p = top[col]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            rows[i] = [(p * u - f * t) // prev for u, t in zip(rows[i], top)]
        rank, prev = rank + 1, p
    return rank


def extremal_polynomial_probe(scan: LatticeScan) -> ProbeReport:
    """Exact extremality test of p = det T(y) of the scanned form.

    For a quasiconvex form T(y) >= 0, so p >= 0 and p vanishes exactly
    where lambda_min(T(y)) does: the y parts of the scan's rank-one zeros
    are p's zeros.  Each is scaled to largest coordinate +-1, snapped to a
    rational of denominator <= 64, and kept only if grad p vanishes there
    exactly (double coefficients are exact rationals), which by Euler's
    identity makes p vanish too.  Any R with 0 <= R <= p vanishes with its
    gradient at those zeros and has its Newton polytope inside N(p)
    (Reznick, Duke Math. J. 1978), for every p >= 0, squares included, so
    the exact nullspace of the gradient rows over the monomials of N(p)
    contains every such R.  Nullspace 1 (the span of p) proves p
    extremal: consistent, method "exact".  Otherwise inconclusive with the
    nullspace dimension as value.  The arithmetic is in Python integers:
    the coefficients times their common power-of-two denominator, each
    zero times the lcm of its denominators.

    p is built from the scan's tensor G4, the Gram scaled by 2^-e, which
    is exact, so scaling Q by a power of two leaves the report unchanged,
    bit for bit, while Q's entries stay normal doubles (choi_lam from
    2^-1000 to 2^1000).  A decimal scale rounds p's coefficients, and a
    rounded coefficient can move p off its rational zeros (choi_lam at
    1e-3 gets a (2,2,2) coefficient of -3.0000000000000004e-09), which
    the probe soundly reads as inconclusive.  p >= 0 itself rests on the
    scan's sampled margin.
    """
    scan.require_quasiconvex("extremal polynomial probe")
    p = acoustic_det(scan.G4)
    cols = _newton_polytope(p.terms)
    # the coefficients, doubles, times their common power-of-two denominator
    ratios = [float(p.coefficient(e)).as_integer_ratio() for e in cols]
    den = max((d for _, d in ratios), default=1)
    coeffs = [a * (den // d) for a, d in ratios]
    candidates = scan.rank_one_zeros()
    zeros = []
    rows = []
    for z in sorted({_snap(y) for (_, y) in candidates}):
        zrows = _monomial_rows(cols, z)
        if all(sum(c * u for c, u in zip(coeffs, r)) == 0 for r in zrows):
            zeros.append(z)
            rows += zrows
    dim = len(cols) - _exact_rank(rows)
    witness = {"method": "exact",
               "zeros": [[str(u) for u in z] for z in zeros],
               "newton_polytope": [list(e) for e in cols],
               "candidates": len(candidates), "exact_zeros": len(zeros),
               "nullspace_dim": dim}
    return ProbeReport(kind="extremal_polynomial", value=float(dim),
                       witness=witness,
                       verdict="consistent" if dim == 1 else "inconclusive")


# ---------------------------------------------------------------------------
# polyconvexity

# the LMI matrices of max s s.t. M0 - sum u_k N_k - s I > 0: minors, then I
_LMI_STACK = np.concatenate([_MINOR_BASIS, np.eye(9)[None]])


def _lmi(M0: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M0 - sum x_i A_i."""
    return M0 - np.einsum("i,ijk->jk", x, _LMI_STACK)


def _center(M0: np.ndarray, x: np.ndarray, t: float
            ) -> tuple[np.ndarray, np.ndarray, int]:
    """Damped Newton on -t s - log det(M0 - sum x_i A_i), x = (u, s).

    The barrier is self-concordant, so the damped step 1/(1 + lambda) stays
    strictly feasible and needs no line search (Boyd & Vandenberghe,
    Convex Optimization, section 9.6).  Returns x, the barrier's Hessian H
    of the last Newton system and the steps taken.
    """
    for steps in range(1, BARRIER_MAX_NEWTON + 1):
        w, V = np.linalg.eigh(_lmi(M0, x))
        r = 1.0 / np.sqrt(w)
        # A_i in the frame where X = I: B_i = X^-1/2 A_i X^-1/2
        B = ((V.T @ _LMI_STACK @ V) * np.outer(r, r)).reshape(10, 81)
        g = B[:, ::10].sum(axis=1)  # traces
        g[9] -= t
        H = B @ B.T
        dx = -np.linalg.solve(H, g)
        dec2 = float(-g @ dx)  # squared Newton decrement
        # full steps once lambda < 1/4, where Newton converges quadratically
        x = x + (dx if dec2 < 0.0625 else dx / (1.0 + math.sqrt(dec2)))
        if dec2 <= BARRIER_DECREMENT_TOL:
            break
    return x, H, steps


def _dual_point(M0: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Z = X^-1 / tr X^-1 projected off span{N_k}: trace 1, minor-orthogonal,
    and PSD when x is well centred."""
    Xi = np.linalg.inv(_lmi(M0, x))
    Z = _off_minors(Xi / np.trace(Xi))
    return (Z + Z.T) / 2


def _dual_checks(Z: np.ndarray) -> dict:
    return {"min_eig": float(np.linalg.eigvalsh(Z)[0]),
            "minor_residual": float(np.max(np.abs(
                np.einsum("kij,ij->k", _MINOR_BASIS, Z)))),
            "trace_residual": float(abs(np.trace(Z) - 1.0))}


def polyconvexity_test(q: QuadraticForm,
                       cfg: CertifyConfig = CertifyConfig()) -> ProbeReport:
    """Bracket phi* = max_c lambda_min(Gram - sum c_k N_k) over minor weights.

    A log-det barrier method (Boyd & Vandenberghe, Convex Optimization,
    section 11) solves max s s.t. Gram - sum c_k N_k - s I > 0, a 9x9 LMI
    in 10 variables, from the Frobenius projection c_proj of the Gram onto
    the minor span.  The N_k are orthonormal and traceless, so every
    iterate depends only on the projected Gram and a minor shift merely
    translates c.  Each centred iterate gives a primal value
    lambda_min(Gram - sum c_k N_k) <= phi* and a dual point Z (PSD, trace 1,
    <N_k, Z> = 0) with phi* <= <Gram, Z>; Z is re-checked before use, and
    the lowest re-checked bound is kept.  Between centrings t grows by
    BARRIER_MU, and x first takes the predictor step along the central
    path's tangent, dx/dt = H^-1 e_s (H the barrier Hessian of the last
    Newton system), scaled by (1 - 1/BARRIER_MU) t, the path's move from
    t to BARRIER_MU t where x(t) ~ x* - v/t, and halved until the LMI is
    strictly positive definite.

    The method runs on the Gram scaled by 2^-e to largest entry in
    [1/2, 1), as lattice_scan does, which is exact, so that its floors and
    thresholds are relative to the form.  (Not relative to the minor-free
    part M0 = Gram - sum c_proj_k N_k alone: the projection leaves rounding
    noise of ~eps max |Gram| in M0, which that scale would blow up to O(1)
    on a rotated null Lagrangian, refuting a polyconvex form.)  Verdict,
    on the scaled values: consistent = polyconvex (primal >= -tol); refuted
    = not polyconvex (re-checked dual bound < -1e-5); otherwise
    inconclusive.  value, primal, dual_bound, gap and coefficients are
    scaled back by 2^e.
    """
    G = q.gram
    c_proj = np.einsum("kij,ij->k", _MINOR_BASIS, G)
    M0 = _off_minors(G)
    e = frame_exponent(G)
    G, c_proj, M0 = (np.ldexp(a, -e) for a in (G, c_proj, M0))
    scale = 1.0 + float(np.linalg.norm(M0))
    x = np.zeros(10)
    x[9] = float(np.linalg.eigvalsh(M0)[0]) - scale
    t = float(np.sum(1.0 / np.linalg.eigvalsh(M0 - x[9] * np.eye(9))))
    newton_steps = 0
    dual, Z_best, checks_best = math.inf, None, None
    while True:
        x, H, steps = _center(M0, x, t)
        newton_steps += steps
        Z = _dual_point(M0, x)
        bound = float(np.sum(G * Z))
        checks = _dual_checks(Z)
        if bound < dual and max(-checks["min_eig"], checks["minor_residual"],
                                checks["trace_residual"]) <= DUAL_CHECK_TOL:
            dual, Z_best, checks_best = bound, Z, checks
        if 9.0 / t <= BARRIER_GAP_REL * scale:
            break
        # predictor: the central path has dx/dt = H^-1 e_s, and near the
        # optimum x(t) ~ x* - v/t, so from t to mu t it moves about
        # (1 - 1/mu) t dx/dt (the first-order step in t, (mu - 1) t dx/dt,
        # overshoots that mu-fold); halved until the LMI stays strictly
        # positive definite
        dx = (1.0 - 1.0 / BARRIER_MU) * t * np.linalg.solve(H, np.eye(10)[9])
        while np.linalg.eigvalsh(_lmi(M0, x + dx))[0] <= 0.0:
            dx *= 0.5
        x = x + dx
        t *= BARRIER_MU

    c = c_proj + x[:9]
    value = float(np.linalg.eigvalsh(
        G - np.einsum("k,kij->ij", c, _MINOR_BASIS))[0])
    if value >= -cfg.tol:
        verdict, poly_flag = "consistent", True
    elif dual < POLYCONVEX_REFUTED_MAX:
        verdict, poly_flag = "refuted", False
    else:
        verdict, poly_flag = "inconclusive", None
    value, dual = math.ldexp(value, e), math.ldexp(dual, e)
    witness = {"method": "barrier",
               "coefficients": [float(u) for u in np.ldexp(c, e)],
               "primal": value, "polyconvex": poly_flag,
               "newton_steps": newton_steps}
    if Z_best is None:
        witness.update(dual_bound=None, gap=None, dual_matrix=None,
                       dual_checks=None)
    else:
        witness.update(dual_bound=dual, gap=dual - value,
                       dual_matrix=Z_best.tolist(), dual_checks=checks_best)
    return ProbeReport(kind="polyconvexity", value=value,
                       witness=witness, verdict=verdict)
