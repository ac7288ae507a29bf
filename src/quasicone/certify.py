"""Numerical certification engines.

lattice_scan computes min over unit y of lambda_min(T(y)) on a
deterministic spherical Fibonacci lattice: one GEMM builds every lattice
acoustic matrix and one values-only eigvals3 solves them all.  Only the
lattice's basins are refined: the local minima among its SEED_POOL lowest
points (within seed radius, as lines), the only lattice points whose
eigenvectors are computed (one eigmin3), start a safeguarded Riemannian
Newton iteration on S^2 x S^2 (Absil, Mahony & Sepulchre, Optimization
Algorithms on Matrix Manifolds, 2008) with a backtracking line search
whose halvings are all tried in one stacked eigen-solve per step, which
converges quadratically at a simple minimum and linearly at the
quartic-flat rank-one zeros of the theorem's extremal forms, where
alternating descent is sublinear.  Vectors are stored components first,
as (3, n) rows.  An acoustic stack is one GEMM, a transposed 9x9
reshaping of the Gram tensor times the nine rows v_j v_l of v (x) v
(_acoustic_stack), into (3, 3, n) storage, whose (n, 3, 3) transposed
view eigmin3 solves, returning the eigenvectors as the (n, 3) view of
(3, n) rows.  Each form is scanned once: lattice_scan keeps its last
scan, read-only, and returns it again for the same Gram and config, so
quasiconvexity_margin then rank_one_zeros scan once, and the LatticeScan
is shared by the margin report and the probes built on top of it:

  * milton_extremality_probe: largest coefficient eps such that Q - eps*l^2
    stays quasiconvex, maximized over unit rank-one directions l, in closed
    form per sample.  Quadratic forms losing quasiconvexity under every
    convex subtraction ("extremal") show max eps ~ 0.
  * extreme_point_probe: largest distance delta from theta/2, along unit
    directions d in the form's own 9-parameter shear layout orthogonal to
    theta, such that Q1 = theta/2 + delta d and Q - Q1 both stay
    quasiconvex, in closed form per sample (a 3x3 pencil's spectral
    radius, from one eigmin3 of -C^2 per sweep step).  An extreme point
    of the cone shows max delta ~ 0.
  * extremal_polynomial_probe: exact extremality test of the sextic
    det T(y), built on the scan's 2^-e-scaled Gram: the scan's rank-one
    zeros, snapped to rationals, give gradient rows over the Newton
    polytope N(det), ranked in exact arithmetic; nullspace 1 proves the
    sextic extremal, a perfect square included.
  * polyconvexity_test: brackets phi* = max lambda_min(Gram - minor
    combination) with a log-det barrier method in numpy: a primal value
    below phi* and a re-checked dual bound above it.  Only the dual bound
    can refute polyconvexity.

Violations of depth ~eps^2 hide in tiny dips near degenerate rank-one zeros
where plain descent overshoots; Milton and the extreme point therefore
also bound their coefficient on a structured pool: the refined zeros of Q
plus geometric radius sweeps along the transverse-Hessian eigendirections
at each zero.  Neither searches: each sample (pool point, lattice point,
or a point of a few exact alternating sweeps from the most binding lattice
points) admits the coefficient up to a closed-form bound, and the least
bound is validated by full scans.  Both report their work counters as
witness["diagnostics"].

Every floor is a constant in the scan's frame, the Gram scaled by 2^-e:
cfg.tol is tol 2^e on Q's values, so Q and alpha Q get the same verdicts.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from .determinant import _SEXTIC_EXPS, acoustic_det
from .forms import (_MINOR_BASIS, LAYOUT_PARAMS, _off_minors, QuadraticForm,
                    acoustic_matrix, detect_shear_layout, form_from_theta,
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
_HALVINGS = 2.0 ** -np.arange(NEWTON_BACKTRACKS + 1)
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
        if not 8 <= self.grid_resolution <= MAX_GRID_RESOLUTION:
            raise ValueError(
                f"grid_resolution must be in [8, {MAX_GRID_RESOLUTION}]")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.probe_directions < 1:
            raise ValueError("probe_directions must be >= 1")

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MarginReport:
    """Minimum of lambda_min(T(y)) over the unit sphere with its minimizers,
    and the scan's deterministic work counters as diagnostics: lattice
    points, basin seeds refined, and Newton steps run."""

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

_LATTICE_CACHE: dict[int, np.ndarray] = {}


def sphere_lattice(resolution: int) -> np.ndarray:
    """Spherical Fibonacci lattice of resolution^2 points in canonical sign
    (first nonzero coordinate positive), rows sorted.  The sort removes no
    point; its row order fixes which points the probes' top-k refinements
    pick."""
    if resolution in _LATTICE_CACHE:
        return _LATTICE_CACHE[resolution]
    n = resolution * resolution
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    pts = canonical_sign(pts)
    pts = np.unique(np.round(pts, 12), axis=0)
    norms = np.linalg.norm(pts, axis=1)
    pts = pts / norms[:, None]
    pts.setflags(write=False)
    _LATTICE_CACHE[resolution] = pts
    return pts


def canonical_sign(V: np.ndarray) -> np.ndarray:
    """Flip rows so the first coordinate above 1e-12 in magnitude is positive."""
    V = np.array(V, dtype=float, copy=True)
    single = V.ndim == 1
    if single:
        V = V[None]
    sign = np.ones(V.shape[0])
    undecided = np.ones(V.shape[0], dtype=bool)
    for k in range(V.shape[1]):
        col = V[:, k]
        pick = undecided & (np.abs(col) > 1e-12)
        sign[pick] = np.sign(col[pick])
        undecided &= ~pick
    out = V * sign[:, None]
    return out[0] if single else out


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
    contiguous gram tensor G4 and the lattice acoustic matrices T, both
    scaled; the lattice's smallest eigenvalues (values only, from eigvals3),
    the refined basin seeds (X, Y, vals) after newton_steps Newton steps,
    and the sampled margin min(vals, lattice_lam), all three scaled back by
    2^e.  T (n, 3, 3) is the transposed view of (3, 3, n) storage, and X
    and Y (seeds, 3) are views of components-first rows.  lattice_scan
    makes every array read-only, since it may hand the scan out again."""

    form: QuadraticForm
    cfg: CertifyConfig
    margin: float
    e: int
    G4: np.ndarray
    T: np.ndarray
    lattice_lam: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    vals: np.ndarray
    newton_steps: int

    def require_quasiconvex(self, who: str) -> None:
        if self.margin < -math.ldexp(self.cfg.tol, self.e):
            raise PreconditionError(
                f"{who} requires a quasiconvex form (margin {self.margin:.3e})")

    def margin_report(self) -> MarginReport:
        """Minimizers: refined pairs within tol 2^e of the margin, clustered
        at angular distance 1e-3, at most 12."""
        margin, vals = self.margin, self.vals
        near = vals <= margin + math.ldexp(self.cfg.tol, self.e)
        kept = _cluster_pairs(self.X[near], self.Y[near], vals[near],
                              cap=MAX_REPORTED_MINIMIZERS)
        minimizers = tuple(
            (tuple(float(u) for u in y), tuple(float(u) for u in x), v)
            for (y, x, v) in kept)
        return MarginReport(margin=margin, minimizers=minimizers, diagnostics={
            "lattice_points": len(self.lattice_lam),
            "seeds": len(vals),
            "newton_steps": self.newton_steps})

    def rank_one_zeros(self) -> list:
        """Clustered unit pairs (x, y) with Q(x (x) y) <= tol 2^e.

        Requires the form to be quasiconvex within tolerance.
        """
        self.require_quasiconvex("rank_one_zeros")
        near = self.vals <= math.ldexp(self.cfg.tol, self.e)
        kept = _cluster_pairs(self.X[near], self.Y[near], self.vals[near])
        return [(tuple(float(u) for u in x), tuple(float(u) for u in y))
                for (y, x, _) in kept]


# the last scan and its key (Gram bytes, cfg): a form asked about twice in
# a row, as by quasiconvexity_margin then rank_one_zeros, is scanned once
_last_scan: tuple = (None, None)


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
    and the values are scaled back by 2^e; G4 and T stay in that frame for
    the probes.  Both scalings are exact, so the fixed floors of the
    refinement are relative to the form, Q and 2Q follow bitwise-equal
    paths, and no square overflows.

    The last scan is kept: a call with a bitwise-equal Gram and an equal
    cfg returns that same LatticeScan, whose arrays are all read-only, so
    no reader can change what the next caller gets."""
    global _last_scan
    key = (q.gram.tobytes(), cfg)
    if _last_scan[0] == key:
        return _last_scan[1]
    e = math.frexp(float(np.max(np.abs(q.gram))))[1]
    G4 = np.ascontiguousarray(np.ldexp(q.gram_tensor(), -e))
    Y0 = np.ascontiguousarray(sphere_lattice(cfg.grid_resolution).T)
    T = _acoustic_stack(Y0, G4.transpose(2, 3, 0, 1))
    lam = eigvals3(T)[:, 0]
    seeds = _basin_seeds(Y0, lam)
    vals, X = eigmin3(T[seeds])
    X, Y, vals, steps = _newton(G4, X.T, Y0[:, seeds], vals)
    for a in (lam, vals):
        np.ldexp(a, e, out=a)
    margin = float(min(np.min(vals), np.min(lam)))
    scan = LatticeScan(q, cfg, margin, e, G4, T, lam, X.T, Y.T, vals, steps)
    for a in (G4, T, lam, scan.X, scan.Y, vals):
        a.setflags(write=False)
    _last_scan = (key, scan)
    return scan


def _basin_seeds(Y0: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Indices of the lattice's basin seeds, for lattice points Y0 (3, n)
    with values lam: of the SEED_POOL lowest points, taken in (lam, index)
    order, those with no earlier point of the pool within SEED_RADIUS
    lattice spacings as lines, at most SEED_CAP.  Every lower neighbour of
    a pool point is in the pool, so each seed is a local minimum of the
    lattice within that radius; one (pool x pool) Gram decides them all,
    a point being shadowed when the first pool point near it, as a line,
    is an earlier one (each point is near itself)."""
    m = min(SEED_POOL, len(lam))
    # the points up to the m-th lowest value, ties included, in index order
    pool = np.flatnonzero(lam <= np.partition(lam, m - 1)[m - 1])
    pool = pool[np.argsort(lam[pool], kind="stable")[:m]]
    P = Y0[:, pool]
    cos_r = math.cos(SEED_RADIUS * math.sqrt(2.0 * math.pi / len(lam)))
    shadowed = np.argmax(np.abs(P.T @ P) >= cos_r, axis=1) < np.arange(len(pool))
    return pool[~shadowed][:SEED_CAP]


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
    retracts y by normalizing y + 2^-k V d_y and re-solves x exactly: the
    new value is lambda_min(T(y)) from eigmin3.  All NEWTON_BACKTRACKS + 1
    halvings k of all live seeds are one acoustic stack and one eigmin3, so
    a step costs one eigen-solve; each seed takes the least k whose value
    falls, else stays where it is, so values never rise per seed.  Scaling
    by 2^-k is exact, so the trial points are those of halving one at a
    time.  A seed stops, frozen, after the first step that lowers its value
    by no more than NEWTON_TOL; the iteration ends when none is left or
    after NEWTON_ITERS steps.  Returns the refined (X, Y, vals), components
    first, and the steps run."""
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
        # every halving of every live seed's step, seed by seed, (3, live * 9)
        Yt = (Y[:, live, None] + dy[:, :, None] * _HALVINGS).reshape(3, -1)
        Yt /= np.linalg.norm(Yt, axis=0)
        vt, Xt = eigmin3(_acoustic_stack(Yt, Ky))
        before = vals[live]
        better = vt.reshape(len(live), -1) < before[:, None]
        # each seed that can takes its longest step that lowers its value
        took = np.flatnonzero(better.any(axis=1))
        t = took * len(_HALVINGS) + np.argmax(better[took], axis=1)
        i = live[took]
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


def quasiconvexity_margin(q: QuadraticForm, cfg: CertifyConfig = CertifyConfig()) -> MarginReport:
    """Margin = min over unit y of lambda_min(T(y)); reports minimizer pairs."""
    return lattice_scan(q, cfg).margin_report()


def rank_one_zeros(q: QuadraticForm, cfg: CertifyConfig = CertifyConfig()) -> list:
    """lattice_scan(q, cfg).rank_one_zeros(), which reuses the scan of a
    quasiconvexity_margin(q, cfg) just before."""
    return lattice_scan(q, cfg).rank_one_zeros()


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
    near = scan.vals <= math.ldexp(1e-10, scan.e)
    if not np.any(near):
        return np.zeros((0, 9))
    reps = _cluster_pairs(scan.X[near], scan.Y[near], scan.vals[near], cap=12)
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


# ---------------------------------------------------------------------------
# milton extremality

def _probe_directions(q: QuadraticForm, cfg: CertifyConfig) -> np.ndarray:
    """Unit 9-vector directions: half seeded random, half Gram-eigenvector
    aligned (the eigenvectors themselves, then seeded in-pair mixes)."""
    rng = np.random.default_rng(cfg.seed)
    n_rand = cfg.probe_directions // 2
    R = rng.standard_normal((n_rand, 9))
    R /= np.linalg.norm(R, axis=1)[:, None]
    V = np.linalg.eigh(q.gram)[1].T
    mixes = [(rng.integers(0, 9, size=2), rng.uniform(0.0, 2.0 * np.pi))
             for _ in range(cfg.probe_directions - n_rand - 9)]
    ij = np.array([m[0] for m in mixes], dtype=int).reshape(-1, 2)
    t = np.array([m[1] for m in mixes]).reshape(-1, 1)
    W = np.cos(t) * V[ij[:, 0]] + np.sin(t) * V[ij[:, 1]]
    # stacked products, bitwise the norm of one mix at a time
    W /= np.sqrt(W[:, None] @ W[:, :, None])[:, 0]
    return np.concatenate([R, V[:cfg.probe_directions - n_rand], W])


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
    T(y) - eps m m^T, so each sample bounds eps*(l) by the exact eps where
    lambda_min >= -guard stops holding there (_rank_one_bound of
    A = T(y) + guard I).  eps*(l) is the least bound over the pool
    ((Q + guard) / l^2), the scan's lattice (LOCKSTEP_ROWS (direction,
    point) pairs at a time) and 14 sweeps from each direction's 16 lowest
    lattice points, each exact in x (x ~ adj(A) m), then in y (S(x),
    p = M^T x), all on the scan's 2^-e-normalized Gram, as are guard =
    GUARD_REL and the thresholds.  refuted needs Q - (1 - 1e-4) eps* l^2
    (off the sampled boundary) to pass a full scan.
    """
    scan.require_quasiconvex("milton probe")
    q, cfg, e, G4 = scan.form, scan.cfg, scan.e, scan.G4
    P9 = _zero_pool(scan)
    pool_q = _pool_quadratic(P9, G4.swapaxes(1, 2).reshape(9, 9)) + GUARD_REL
    Y = np.ascontiguousarray(sphere_lattice(cfg.grid_resolution).T)
    adj, det = _shifted_adjugate(_upper(scan.T), GUARD_REL)

    dirs = _probe_directions(q, cfg)
    c, n, k = len(dirs), Y.shape[1], 16
    D = dirs.reshape(c, 3, 3)
    pool, lattice, top = np.empty(c), np.empty(c), np.empty((c, k), dtype=int)
    step = max(1, LOCKSTEP_ROWS // n)
    for s in range(0, c, step):
        j = slice(s, s + step)
        # stacked matrix products, whose bits do not depend on the batch
        l2 = (dirs[j, None] @ P9.T)[:, 0] ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            pool[j] = np.min(np.where(pool_q > 0, pool_q / l2, 0), 1, initial=np.inf)
        r = _rank_one_bound(adj[:, None], det, (D[j] @ Y).transpose(1, 0, 2))[0]
        lattice[j] = np.min(r, axis=1)
        top[j] = np.argpartition(r, k - 1, axis=1)[:, :k]
    # the first x step reads the lattice's table: refine binds only below it
    V, table, refine = Y[:, top], (adj[:, top], det[top]), np.full(c, np.inf)
    for Mk, K in ((D, G4), (D.transpose(0, 2, 1), G4.transpose(2, 3, 0, 1))) * 14:
        r, W = _rank_one_bound(*table, (Mk @ V.transpose(1, 0, 2)).transpose(1, 0, 2))
        refine = np.minimum(refine, np.min(r, axis=1))
        V = W / np.maximum(np.linalg.norm(W, axis=0), 1e-300)
        table = _shifted_adjugate(_upper(_acoustic_stack(
            V.reshape(3, -1), K)).reshape(6, c, k), GUARD_REL)
    bounds = np.stack([pool, lattice, refine])
    eps_star = np.ldexp(np.min(bounds, axis=0), e)
    binding = np.bincount(np.argmin(bounds, axis=0), minlength=3)

    n_rand = cfg.probe_directions // 2
    eigen_table = [{"direction": [float(u) for u in dirs[j]],
                    "eps_star": float(eps_star[j])}
                   for j in range(n_rand, min(n_rand + 9, c))]
    # the witness is the first direction within the validation back-off of
    # the max, so rounding noise in eps* cannot swap it
    value = float(np.max(eps_star))
    j_best = int(np.argmax(eps_star >= value - max(math.ldexp(1e-12, e), 1e-4 * value)))
    m_best, eps_best = dirs[j_best], float(eps_star[j_best])
    witness = {
        "direction": [float(u) for u in m_best],
        "eps_star": eps_best,
        "eigen_directions": eigen_table,
        "diagnostics": {
            "directions": c, "lattice_points": n, "pool_points": len(P9),
            "refinement_starts": c * k, "refinement_sweeps": 14,
            "binding": dict(zip(("pool", "lattice", "refine"), binding.tolist()))},
    }
    if value > math.ldexp(MILTON_REFUTED_MIN, e):
        check = QuadraticForm(q.gram - (1 - 1e-4) * eps_best * np.outer(m_best, m_best))
        witness["validation_margin"] = margin = lattice_scan(check, cfg).margin
        verdict = "refuted" if margin >= -math.ldexp(cfg.tol, e) else "inconclusive"
    elif value <= math.ldexp(MILTON_CONSISTENT_MAX, e):
        verdict = "consistent"
    else:
        verdict = "inconclusive"
    return ProbeReport(kind="milton", value=value, witness=witness,
                       verdict=verdict)


# ---------------------------------------------------------------------------
# extreme point probe

def _whiten(A: np.ndarray, B: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """L^-1 B L^-T for the closed-form Cholesky factor of A = L L^T, for
    stacks A (n, 3, 3) and B (n, ..., 3, 3); L^-1 (n, 3, 3); and whether
    each A is positive definite, its three pivots positive.  A pivot that
    is not is taken as 1, so that the outputs stay finite."""
    a00, a11, a22, a01, a02, a12 = _upper(A)

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
    Li = np.zeros((len(l00), 3, 3))
    Li[:, 0, 0], Li[:, 1, 1], Li[:, 2, 2] = d0, d1, d2
    Li[:, 1, 0] = -l10 * d0 * d1
    Li[:, 2, 1] = -l21 * d1 * d2
    Li[:, 2, 0] = (l10 * l21 - l11 * l20) * d0 * d1 * d2
    Lb = Li.reshape((len(Li),) + (1,) * (B.ndim - 3) + (3, 3))
    return Lb @ B @ Lb.swapaxes(-1, -2), Li, (a00 > 0) & (p1 > 0) & (p2 > 0)


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
    minimizer x = L^-T v, v the eigenvector of the eigenvalue of C largest
    in magnitude, unit, as (3, m) rows.  One eigmin3 of -C^2 gives both,
    whichever side binds: its eigenvalues are -lambda_i(C)^2, so the least
    is -rho^2, rho the spectral radius, with eigenvector v.  A C near rank
    one, eigenvalues (0, 0, rho), gives -C^2 the lower gap rho^2, so no row
    reaches LAPACK."""
    mu, V = eigmin3(-(C @ C))
    x = (Li.swapaxes(1, 2) @ V[:, :, None])[:, :, 0].T
    x /= np.linalg.norm(x, axis=0)
    return _ray_bound(np.sqrt(np.maximum(-mu, 0.0)), pd), x


def extreme_point_probe(scan: LatticeScan) -> ProbeReport:
    """Search the scanned form's 9-parameter shear layout for a splitting
    0 <= Q1 <= Q (in the quasiconvex order) far from the ray {alpha Q}.

    Q1 = theta/2 + delta d and Q - Q1 = theta/2 - delta d, for seeded unit
    d orthogonal to theta, are mirror images about theta/2, so in the
    scan's frame (theta 2^-e) at a sample y both stay above the floor -tol
    exactly while A +- delta T_d(y) >= 0, A = T_theta(y)/2 + tol I: for
    delta <= 1 / rho(L^-1 T_d L^-T), A = L L^T (0 where A is not positive
    definite; _whiten, _ray_bound).  delta*(d) is the least bound over the
    pool ((Q_theta/2 + tol) / |Q_d|), a grid-32 lattice (T_d is linear in
    d: the nine whitened basis stacks are built once, and LOCKSTEP_ROWS // n
    directions are one GEMM and one eigvals3) and 16 exact alternating
    sweeps from each direction's 12 most binding lattice points
    (_pencil_step, in x with T(y), then in y with S(x)), capped at 8 |theta|
    and scaled back by 2^e.  value is the distance, from (1 - 1e-4) delta*
    (off the sampled boundary) shrunk by 0.7 at most 23 times, at which
    full scans of Q1 and Q - Q1 both clear -tol 2^e, in the direction of
    the largest delta*.  Consistent (extreme point) when value stays below
    1e-5 * |theta_q|.
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
    norm_theta = math.ldexp(float(np.linalg.norm(np.ldexp(theta, -e))), e)
    floor = -math.ldexp(cfg.tol, e)
    rng = np.random.default_rng(cfg.seed)
    # orthonormal basis of the complement of theta, and unit directions in
    # it, as stacked products whose bits are those of one draw at a time
    Bperp = np.linalg.qr(np.concatenate(
        [theta[:, None] / norm_theta, rng.standard_normal((9, 8))], axis=1)
    )[0][:, 1:]
    Z = rng.standard_normal((cfg.probe_directions, 8))
    D = (Bperp @ Z[:, :, None])[:, :, 0]
    D /= np.sqrt(D[:, None] @ D[:, :, None])[:, 0]
    c, k = len(D), 12

    # gram tensors of theta 2^-e / 2 + tol I, whose T(y) at a unit y is A,
    # then of the basis; Ky contracts y (T(y)), Kx contracts x (S(x))
    A9 = np.tensordot(np.ldexp(0.5 * theta, -e), basis, axes=1) + cfg.tol * np.eye(9)
    G10 = gram_tensor(np.concatenate([A9[None], basis]))
    Ky, Kx = G10.transpose(3, 4, 0, 1, 2), G10.transpose(1, 2, 0, 3, 4)
    P9 = _zero_pool(scan)
    poolB = np.array([_pool_quadratic(P9, Bk) for Bk in basis])
    pool_num = _pool_quadratic(P9, A9)
    Y = np.ascontiguousarray(sphere_lattice(32).T)
    n = Y.shape[1]
    S = _acoustic_stack(Y, Ky)
    W, _, pd = _whiten(S[:, 0], S[:, 1:])
    W = W.transpose(1, 0, 2, 3).reshape(9, 9 * n)
    pool, lattice, top = np.empty(c), np.empty(c), np.empty((c, k), dtype=int)
    step = max(1, LOCKSTEP_ROWS // n)
    for s in range(0, c, step):
        j = slice(s, s + step)
        # stacked matrix products, whose bits do not depend on the batch
        qd = np.abs(D[j, None] @ poolB)[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            pool[j] = np.min(np.where(pool_num > 0, pool_num / qd, 0), 1,
                             initial=np.inf)
        lam = eigvals3((D[j, None] @ W).reshape(-1, 3, 3))
        r = _ray_bound(np.maximum(lam[:, 2], -lam[:, 0]).reshape(-1, n), pd)
        lattice[j] = np.min(r, axis=1)
        top[j] = np.argpartition(r, k - 1, axis=1)[:, :k]
    # each point's own T_d or S_d, whitened; the first x step only solves
    # x, its bound being the lattice's own
    V, Dk = Y[:, top.ravel()], np.repeat(D, k, axis=0)[:, None]
    refine = np.full(c, np.inf)
    for s, K in enumerate((Ky, Kx) * 16):
        S = _acoustic_stack(V, K)
        Bd = (Dk @ S[:, 1:].reshape(-1, 9, 9)).reshape(-1, 3, 3)
        r, V = _pencil_step(*_whiten(S[:, 0], Bd))
        if s:
            refine = np.minimum(refine, np.min(r.reshape(c, k), axis=1))
    bounds = np.stack([pool, lattice, refine])
    delta_star = np.minimum(np.ldexp(np.min(bounds, axis=0), e), 8.0 * norm_theta)
    binding = np.bincount(np.argmin(bounds, axis=0), minlength=3)

    # full-margin validation of the best direction; shrink toward the ray
    # until both margins clear.  Q - Q1 is scanned only when Q1 clears, or
    # at the last step, whose margins the witness reports either way
    j = int(np.argmax(delta_star))
    delta = (1 - 1e-4) * float(delta_star[j])
    value, witness_theta, m1, m2 = 0.0, 0.5 * theta, None, None
    for step in range(24 if delta > 0.0 else 0):
        th = 0.5 * theta + delta * D[j]
        q1 = form_from_theta(layout, th)
        m1 = lattice_scan(q1, cfg).margin
        if m1 >= floor or step == 23:
            m2 = lattice_scan(QuadraticForm(q.gram - q1.gram), cfg).margin
        if m1 >= floor and m2 >= floor:
            value, witness_theta = delta, th
            break
        delta *= 0.7
    witness = {
        "layout": layout,
        "theta_q": [float(u) for u in theta],
        "direction": [float(u) for u in D[j]],
        "delta_star": float(delta_star[j]),
        "theta_witness": [float(u) for u in witness_theta],
        "distance": float(value),
        "margin_q1": m1,
        "margin_complement": m2,
        "diagnostics": {
            "directions": c, "lattice_points": n, "pool_points": len(P9),
            "refinement_starts": c * k, "refinement_sweeps": 16,
            "binding": dict(zip(("pool", "lattice", "refine"), binding.tolist()))},
    }
    verdict = "consistent" if value <= EXTREME_POINT_REL * norm_theta else "refuted"
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


def _monomial_rows(exps, z) -> list[list[Fraction]]:
    """Exact gradient rows of the monomials exps at z, one per variable.
    Their value row is redundant: by Euler's identity, sum_v z_v d_v m(z)
    = 6 m(z) for every sextic monomial m."""
    def mono(e):
        return z[0] ** e[0] * z[1] ** e[1] * z[2] ** e[2]

    return [[e[v] * mono(tuple(k - (i == v) for i, k in enumerate(e)))
             if e[v] else Fraction(0) for e in exps] for v in range(3)]


def _newton_polytope(support) -> list[tuple[int, int, int]]:
    """Sextic exponents in the convex hull of support.  Exponents lie in the
    plane e1 + e2 + e3 = 6, so (e1, e2) are exact 2-D coordinates; a point
    is in the hull iff it lies in a triangle of support points, where a
    repeated vertex makes the triangle a segment or a point."""
    pts = [e[:2] for e in support]

    def in_triangle(p, a, b, c) -> bool:
        d = [(v[0] - u[0]) * (p[1] - u[1]) - (v[1] - u[1]) * (p[0] - u[0])
             for u, v in ((a, b), (b, c), (c, a))]
        return (not (min(d) < 0 < max(d))
                and all(min(a[i], b[i], c[i]) <= p[i] <= max(a[i], b[i], c[i])
                        for i in (0, 1)))

    return [e for e in _SEXTIC_EXPS if e in support or any(
        in_triangle(e[:2], *t) for t in combinations_with_replacement(pts, 3))]


def _exact_rank(rows: list[list[Fraction]]) -> int:
    """Rank by Gaussian elimination over the rationals."""
    rows = [r for r in rows if any(r)]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / top[col]
                rows[i] = [u - f * t for u, t in zip(rows[i], top)]
        rank += 1
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
    nullspace dimension as value.

    p is built from the scan's Gram scaled by 2^-e, which is exact, so
    scaling Q by a power of two leaves the report unchanged, bit for bit,
    while Q's entries stay normal doubles (choi_lam from 2^-1000 to
    2^1000).  A decimal scale rounds p's coefficients, and a
    rounded coefficient can move p off its rational zeros (choi_lam at
    1e-3 gets a (2,2,2) coefficient of -3.0000000000000004e-09), which
    the probe soundly reads as inconclusive.  p >= 0 itself rests on the
    scan's sampled margin.
    """
    scan.require_quasiconvex("extremal polynomial probe")
    p = acoustic_det(acoustic_matrix(
        QuadraticForm(np.ldexp(scan.form.gram, -scan.e))))
    cols = _newton_polytope(set(p.terms))
    coeffs = [Fraction(p.coefficient(e)) for e in cols]
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


def _center(M0: np.ndarray, x: np.ndarray, t: float) -> tuple[np.ndarray, int]:
    """Damped Newton on -t s - log det(M0 - sum x_i A_i), x = (u, s).

    The barrier is self-concordant, so the damped step 1/(1 + lambda) stays
    strictly feasible and needs no line search (Boyd & Vandenberghe,
    Convex Optimization, section 9.6).
    """
    for steps in range(1, BARRIER_MAX_NEWTON + 1):
        w, V = np.linalg.eigh(M0 - np.einsum("i,ijk->jk", x, _LMI_STACK))
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
    return x, steps


def _dual_point(M0: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Z = X^-1 / tr X^-1 projected off span{N_k}: trace 1, minor-orthogonal,
    and PSD when x is well centred."""
    Xi = np.linalg.inv(M0 - np.einsum("i,ijk->jk", x, _LMI_STACK))
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
    the lowest re-checked bound is kept.

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
    e = math.frexp(float(np.max(np.abs(G))))[1]
    G, c_proj, M0 = (np.ldexp(a, -e) for a in (G, c_proj, M0))
    scale = 1.0 + float(np.linalg.norm(M0))
    x = np.zeros(10)
    x[9] = float(np.linalg.eigvalsh(M0)[0]) - scale
    t = float(np.sum(1.0 / np.linalg.eigvalsh(M0 - x[9] * np.eye(9))))
    newton_steps = 0
    dual, Z_best, checks_best = math.inf, None, None
    while True:
        x, steps = _center(M0, x, t)
        newton_steps += steps
        Z = _dual_point(M0, x)
        bound = float(np.sum(G * Z))
        checks = _dual_checks(Z)
        if bound < dual and max(-checks["min_eig"], checks["minor_residual"],
                                checks["trace_residual"]) <= DUAL_CHECK_TOL:
            dual, Z_best, checks_best = bound, Z, checks
        if 9.0 / t <= BARRIER_GAP_REL * scale:
            break
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
