"""Numerical certification engines.

lattice_scan computes min over unit y of lambda_min(T(y)) on a
deterministic spherical Fibonacci lattice with batched alternating
refinement (each step minimizes the biquadratic exactly in one of x, y via
the 3x3 eigenproblem).  Vectors are stored components first, as (3, n)
rows.  A half-sweep is one GEMM, a transposed 9x9 reshaping of the Gram
tensor times the nine rows v_j v_l of v (x) v (_acoustic_stack), into
(3, 3, n) storage, plus one eigmin3 on its (n, 3, 3) transposed view,
which returns the eigenvectors as the (n, 3) view of (3, n) rows.  Each
form is scanned once; its LatticeScan is shared by the margin report and
the probes built on top of it:

  * milton_extremality_probe: largest coefficient eps such that Q - eps*l^2
    stays quasiconvex, maximized over unit rank-one directions l, by
    bisection.  Quadratic forms losing quasiconvexity under every convex
    subtraction ("extremal") show max eps ~ 0.
  * extreme_point_probe: searches the form's own 9-parameter shear layout
    for a quasiconvex splitting 0 <= Q1 <= Q off the ray {alpha Q}.
  * extremal_polynomial_probe: exact extremality test of the sextic
    det T(y): the scan's rank-one zeros, snapped to rationals, give value
    and gradient rows over the Newton polytope N(det), ranked in exact
    arithmetic; nullspace 1 proves the sextic extremal.
  * polyconvexity_test: brackets phi* = max lambda_min(Gram - minor
    combination) with a log-det barrier method in numpy: a primal value
    below phi* and a re-checked dual bound above it.  Only the dual bound
    can refute polyconvexity.

Violations of depth ~eps^2 hide in tiny dips near degenerate rank-one zeros
where plain descent overshoots; the probes therefore evaluate candidate
forms on a structured pool: the refined zeros of Q plus geometric radius
sweeps along the transverse-Hessian eigendirections at each zero.  Both
ray searches advance all their directions in lockstep: each step hands
every active direction's candidate Gram (c, 9, 9) to one batched check,
_clears (pool, lattice, top-k refinement), and all the brackets move
together, grown by _grow and then bisected by _bisect.  _clears builds
the candidates' lattice stacks itself, at most LOCKSTEP_ROWS rows at a
time (which bounds memory at any direction count): each chunk is one GEMM
of its gram tensors with the nine rows v_j v_l of the lattice, solved by
one eigvals3.  The refinement runs one eigmin3 per half-sweep over every
surviving candidate, each frozen once it converges, so a direction's
result does not depend on the batch it ran in.  Each ray probe reports
its work counters as witness["diagnostics"].
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from .determinant import _SEXTIC_EXPS, acoustic_det, perfect_square_test
from .forms import (LAYOUT_PARAMS, QuadraticForm, acoustic_matrix,
                    detect_shear_layout, form_from_theta, gram_tensor,
                    minor_gram_basis, shear_layout_basis)
from .symeig import eigmin3, eigvals3

# noise floor of a refined margin evaluation, relative to the Gram scale;
# bisection certifies non-quasiconvexity only below this
GUARD_REL = 16.0 * np.finfo(float).eps

# fixed work caps: refinement sweeps per scan, bisection steps per ray
REFINE_ITERS = 40
BISECTION_ITERS = 60
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
    tol: float = 1e-9
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
    points, refinement sweeps run and their cap."""

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


def _outer_rows(V: np.ndarray) -> np.ndarray:
    """The nine rows v_j v_l of v (x) v, (3, 3) + V.shape[1:], for vectors
    stored components first, V (3, ...), in C-contiguous storage."""
    return np.multiply(V[:, None], V[None], out=np.empty((3, 3) + V.shape[1:]))


def _acoustic_stack(V: np.ndarray, K: np.ndarray) -> np.ndarray:
    """sum_{j,l} V[j, ..., n] V[l, ..., n] K[..., j, l, ...] for every
    column of V, components first: V is (3, n) or (3, c, n), and K has the
    batch shape (c,) leading.  K reshaped to (9, m), transposed, multiplies
    the nine rows v_j v_l of v (x) v (_outer_rows) in one GEMM per batch
    index, into (K's trailing shape) + (..., n) storage.  Returns its
    transposed view, V.shape[1:] + K's trailing shape, so that a 3x3
    stack's reshape(-1, 3, 3) and reshape(-1, 9).T stay views.
    With the gram tensor G4[i, k, j, l], K = G4 contracts x (giving S(x),
    the y block) and K = G4.transpose(2, 3, 0, 1) contracts y (giving T(y),
    the x block)."""
    lead = V.shape[1:]
    batch = lead[:-1]
    W = _outer_rows(V)
    K9 = K.reshape(batch + (9, -1))
    out = np.empty(K9.shape[-1:] + lead)
    # swapaxes(0, -2) moves the (9, m) row axis behind the batch axis, if any
    np.matmul(K9.swapaxes(-1, -2), W.reshape((9,) + lead).swapaxes(0, -2),
              out=out.swapaxes(0, -2))
    trail = K.shape[len(batch) + 2:]
    out = out.reshape(trail + lead)
    return out.transpose(*range(len(trail), out.ndim), *range(len(trail)))


def _descend(G4: np.ndarray, X: np.ndarray, Y: np.ndarray, vals: np.ndarray,
             max_iters: int) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                      np.ndarray]:
    """Batched block descent of c forms (gram tensors G4, (c, 3, 3, 3, 3))
    from k starts each, vectors components first: y starts Y (3, c, k) with
    their solved x blocks X (3, c, k) and values vals (c, k).  A sweep
    minimizes exactly in y, then in x; each half-sweep is one batched GEMM
    (_acoustic_stack) and one eigmin3 over the rows of every live form,
    whose (3, n) eigenvector rows become the next X or Y without a copy.

    A form stops, frozen, after the first sweep in which no point's value
    falls by 1e-16 (1 + max |value|) or more, or after max_iters sweeps, so
    its result does not depend on the other forms of the batch.  Returns
    the refined (X, Y, values), whose values never rise per point, and the
    sweeps each form ran, (c,).
    """
    # contiguous, so that G4 and Ky both reshape to (c, 9, 9) as views
    G4 = np.ascontiguousarray(G4)
    Ky = G4.transpose(0, 3, 4, 1, 2)
    live = np.arange(len(vals))
    sweeps = np.zeros(len(vals), dtype=int)
    for _ in range(max_iters):
        if not len(live):
            break
        # while every form is live the arrays are used and rebound whole, so
        # a one-form scan copies nothing; rows are scattered only after a
        # full sweep has rebound them, so the caller's arrays are never
        # written
        whole = len(live) == len(vals)
        sel = slice(None) if whole else live
        shape = (3, len(live)) + Y.shape[2:]
        _, Yl = eigmin3(_acoustic_stack(X[:, sel], G4[sel]).reshape(-1, 3, 3))
        Yl = Yl.T.reshape(shape)
        new_vals, Xl = eigmin3(_acoustic_stack(Yl, Ky[sel]).reshape(-1, 3, 3))
        Xl, new_vals = Xl.T.reshape(shape), new_vals.reshape(shape[1:])
        improvement = np.max(vals[sel] - new_vals, axis=1)
        if whole:
            X, Y, vals = Xl, Yl, new_vals
        else:
            X[:, sel], Y[:, sel], vals[sel] = Xl, Yl, new_vals
        sweeps[live] += 1
        done = improvement < 1e-16 * (1.0 + np.max(np.abs(new_vals), axis=1))
        live = live[~done]
    return X, Y, vals, sweeps


@dataclass(frozen=True, eq=False)
class LatticeScan:
    """One scan of a form over sphere_lattice(cfg.grid_resolution): the
    lattice acoustic matrices T with their smallest eigenvalues and unit
    eigenvectors, the refined points (X, Y, vals) after sweeps refinement
    sweeps, and the sampled margin min(vals, lattice_lam).  T (n, 3, 3) is
    the transposed view of (3, 3, n) storage, and lattice_X, X and Y (n, 3)
    are views of (3, n) rows."""

    form: QuadraticForm
    cfg: CertifyConfig
    margin: float
    T: np.ndarray
    lattice_lam: np.ndarray
    lattice_X: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    vals: np.ndarray
    sweeps: int

    def require_quasiconvex(self, who: str) -> None:
        if self.margin < -self.cfg.tol:
            raise PreconditionError(
                f"{who} requires a quasiconvex form (margin {self.margin:.3e})")

    def margin_report(self) -> MarginReport:
        """Minimizers: refined pairs within tol of the margin, clustered at
        angular distance 1e-3, at most 12."""
        margin, vals = self.margin, self.vals
        near = vals <= margin + self.cfg.tol * (1.0 + abs(margin))
        kept = _cluster_pairs(self.X[near], self.Y[near], vals[near],
                              cap=MAX_REPORTED_MINIMIZERS)
        minimizers = tuple(
            (tuple(float(u) for u in y), tuple(float(u) for u in x), v)
            for (y, x, v) in kept)
        return MarginReport(margin=margin, minimizers=minimizers, diagnostics={
            "lattice_points": len(self.lattice_lam),
            "refinement_sweeps": self.sweeps,
            "refinement_sweep_cap": REFINE_ITERS})

    def rank_one_zeros(self) -> list:
        """Clustered unit pairs (x, y) with Q(x (x) y) <= tol.

        Requires the form to be quasiconvex within tolerance.
        """
        self.require_quasiconvex("rank_one_zeros")
        near = self.vals <= self.cfg.tol
        kept = _cluster_pairs(self.X[near], self.Y[near], self.vals[near])
        return [(tuple(float(u) for u in x), tuple(float(u) for u in y))
                for (y, x, _) in kept]


def lattice_scan(q: QuadraticForm, cfg: CertifyConfig = CertifyConfig()) -> LatticeScan:
    """Scan q: lambda_min(T(y)) and its eigenvector x at every point y of
    sphere_lattice(cfg.grid_resolution), then every point refined together
    by _descend, a one-form batch that runs until no point improves or for
    REFINE_ITERS sweeps.  The margin is the least value seen, lattice or
    refined."""
    G4 = q.gram_tensor()
    Y0 = np.ascontiguousarray(sphere_lattice(cfg.grid_resolution).T)
    T = _acoustic_stack(Y0, G4.transpose(2, 3, 0, 1))
    lam, X0 = eigmin3(T)
    X, Y, vals, sweeps = _descend(G4[None], X0.T[:, None], Y0[:, None],
                                  lam[None], REFINE_ITERS)
    margin = float(min(np.min(vals), np.min(lam)))
    return LatticeScan(q, cfg, margin, T, lam, X0, X[:, 0].T, Y[:, 0].T,
                       vals[0], int(sweeps[0]))


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
    """Scan q and return its LatticeScan.rank_one_zeros()."""
    return lattice_scan(q, cfg).rank_one_zeros()


# ---------------------------------------------------------------------------
# zero-structure pool

_POOL_RADII = np.geomspace(1e-5, 0.32, 28)


def _tangent_bases(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal tangent pairs (t1, t2) for each unit row of Z."""
    n = len(Z)
    a = np.zeros((n, 3))
    a[np.arange(n), np.argmin(np.abs(Z), axis=1)] = 1.0
    t1 = a - np.sum(a * Z, axis=1)[:, None] * Z
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    t2 = np.cross(Z, t1)
    return t1, t2


def _transverse_hessian(G4: np.ndarray, x0: np.ndarray, y0: np.ndarray):
    """4x4 Hessian of Q(x (x) y) on the product of spheres at a zero."""
    U, V = np.stack(_tangent_bases(np.stack([x0, y0])), axis=2)
    T = np.einsum("j,ikjl,l->ik", y0, G4, y0)
    S = np.einsum("i,ikjl,k->jl", x0, G4, x0)
    # K[p, q] = d^2 Q / dx_p dy_q
    K = 2.0 * (np.einsum("pkql,k,l->pq", G4, x0, y0)
               + np.einsum("pkjq,j,k->pq", G4, y0, x0))
    H = np.zeros((4, 4))
    H[:2, :2] = 2.0 * U.T @ T @ U
    H[2:, 2:] = 2.0 * V.T @ S @ V
    H[:2, 2:] = U.T @ K @ V
    H[2:, :2] = H[:2, 2:].T
    return H, U, V


def _zero_pool(scan: LatticeScan):
    """(P, 9) rank-one sample matrix around the refined zeros of the scanned
    form; P = 0 when it has no rank-one zeros.

    At each zero the transverse Hessian is diagonalized and geometric radius
    sweeps are laid along every eigendirection; the eps^2-deep dips of
    Q - eps*l^2 live on those curves.
    """
    G4 = scan.form.gram_tensor()
    zt = 1e-10 * (1.0 + scan.form.norm())
    near = scan.vals <= zt
    if not np.any(near):
        return np.zeros((0, 9))
    pool_x = []
    pool_y = []
    reps = _cluster_pairs(scan.X[near], scan.Y[near], scan.vals[near], cap=12)
    for (y0, x0, _) in reps:
        x0 = np.asarray(x0)
        y0 = np.asarray(y0)
        H, U, V = _transverse_hessian(G4, x0, y0)
        _, W = np.linalg.eigh(H)
        for k in range(4):
            xdir = U @ W[:2, k]
            ydir = V @ W[2:, k]
            for sgn in (1.0, -1.0):
                xx = x0[None, :] + sgn * _POOL_RADII[:, None] * xdir[None, :]
                yy = y0[None, :] + sgn * _POOL_RADII[:, None] * ydir[None, :]
                xx /= np.linalg.norm(xx, axis=1)[:, None]
                yy /= np.linalg.norm(yy, axis=1)[:, None]
                pool_x.append(xx)
                pool_y.append(yy)
        pool_x.append(x0[None, :])
        pool_y.append(y0[None, :])
    Xp = np.concatenate(pool_x)
    Yp = np.concatenate(pool_y)
    P9 = (Xp[:, :, None] * Yp[:, None, :]).reshape(len(Xp), 9)
    return P9


def _pool_quadratic(P9: np.ndarray, gram: np.ndarray) -> np.ndarray:
    return np.einsum("pi,ij,pj->p", P9, gram, P9)


# ---------------------------------------------------------------------------
# the probes' shared search kernel: one batched candidate check, lockstep
# bracket growth and bisection

# lattice rows per eigvals3 call in _clears: the lattice stage builds and
# solves LOCKSTEP_ROWS // n candidates at a time (n lattice points), which
# bounds its memory and keeps each stack near eigvals3's fastest size
LOCKSTEP_ROWS = 1 << 14


def _clears(grams: np.ndarray, pool_min: np.ndarray, Y: np.ndarray,
            floor: float, k: int, iters: int) -> tuple[np.ndarray, np.ndarray]:
    """Sampled quasiconvexity check of c candidate forms: Grams (c, 9, 9),
    pool_min (c,), each one's minimum over the zero-structure pool (inf for
    an empty pool), and the lattice points Y, (3, n) rows.  A candidate
    fails at the first stage whose minimum falls below floor: the pool, the
    lattice lambda_min (at most LOCKSTEP_ROWS rows at a time, each chunk
    one (9c' x 9) x (9 x n) GEMM of its gram tensors and the nine rows
    v_j v_l of Y into (3, 3, c', n) storage, and one eigvals3), then an
    iters-sweep refinement from its k lowest lattice points (one eigmin3
    per half-sweep over all survivors).

    Returns each candidate's stage (0 clears, 1 pool, 2 lattice, 3 refine)
    and its refined minimum (nan where the refinement did not run)."""
    G4 = gram_tensor(grams)
    c, n = len(G4), Y.shape[1]
    W = _outer_rows(Y).reshape(9, n)
    stage = np.zeros(c, dtype=int)
    refined = np.full(c, np.nan)
    stage[pool_min < floor] = 1
    live = np.flatnonzero(stage == 0)
    top = np.empty((c, k), dtype=int)
    step = max(1, LOCKSTEP_ROWS // n)
    for s in range(0, len(live), step):
        i = live[s:s + step]
        T = (G4[i].transpose(1, 2, 0, 3, 4).reshape(-1, 9) @ W).reshape(
            3, 3, len(i), n).transpose(2, 3, 0, 1)
        lam = eigvals3(T.reshape(-1, 3, 3))[:, 0].reshape(len(i), n)
        stage[i[np.min(lam, axis=1) < floor]] = 2
        top[i] = np.argpartition(lam, k - 1, axis=1)[:, :k]
    live = np.flatnonzero(stage == 0)
    if not len(live):
        return stage, refined
    Yk = Y[:, top[live]]
    vals, X = eigmin3(_acoustic_stack(
        Yk, G4[live].transpose(0, 3, 4, 1, 2)).reshape(-1, 3, 3))
    vals = _descend(G4[live], X.T.reshape(Yk.shape), Yk,
                    vals.reshape(len(live), k), iters)[2]
    refined[live] = np.min(vals, axis=1)
    stage[live[~(refined[live] >= floor)]] = 3
    return stage, refined


@dataclass
class _Work:
    """Deterministic work counters of a ray probe, reported as its
    diagnostics: ray points judged, lockstep batches (_clears calls, each
    on all the directions active at a step), candidate forms failing at
    each _clears stage, and bisection steps."""

    directions: int
    predicate_evaluations: int = 0
    lockstep_batches: int = 0
    failed_pool: int = 0
    failed_lattice: int = 0
    failed_refine: int = 0
    bisection_steps: int = 0

    def judge(self, *clears_args) -> np.ndarray:
        """One lockstep batch: _clears(*clears_args), counted.  A bool per
        candidate."""
        stage = _clears(*clears_args)[0]
        fails = np.bincount(stage, minlength=4)
        self.lockstep_batches += 1
        self.failed_pool += int(fails[1])
        self.failed_lattice += int(fails[2])
        self.failed_refine += int(fails[3])
        return stage == 0

    def to_json(self) -> dict:
        return {"directions": self.directions,
                "predicate_evaluations": self.predicate_evaluations,
                "lockstep_batches": self.lockstep_batches,
                "failed": {"pool": self.failed_pool,
                           "lattice": self.failed_lattice,
                           "refine": self.failed_refine},
                "bisection_steps": self.bisection_steps}


def _bisect(ok, lo: np.ndarray, hi: np.ndarray, abs_width: float,
            rel_width: float) -> np.ndarray:
    """Lockstep bisection of the brackets [lo[i], hi[i]]: for each, the
    largest lo found with ok, to a width of max(abs_width, rel_width * lo)
    or BISECTION_ITERS steps.  ok(i, x) judges the points x of the brackets
    i (an index array) together and returns a bool per point."""
    lo, hi = lo.copy(), hi.copy()
    for _ in range(BISECTION_ITERS):
        i = np.flatnonzero(hi - lo > np.maximum(abs_width, rel_width * lo))
        if not len(i):
            break
        mid = 0.5 * (lo[i] + hi[i])
        good = ok(i, mid)
        lo[i[good]] = mid[good]
        hi[i[~good]] = mid[~good]
    return lo


def _grow(ok, lo: np.ndarray, hi: np.ndarray, factor: float, steps: int,
          cap: float = np.inf) -> tuple[np.ndarray, np.ndarray]:
    """Lockstep growth of the brackets [lo[i], hi[i]] below cap: while hi
    is below cap and ok, lo moves up to hi and hi grows by factor, at most
    steps times.  ok is as in _bisect.  Returns the grown (lo, hi)."""
    lo, hi = lo.copy(), hi.copy()
    i = np.flatnonzero(hi < cap)
    for _ in range(steps):
        if not len(i):
            break
        i = i[ok(i, hi[i])]
        lo[i] = hi[i]
        hi[i] *= factor
        i = i[hi[i] < cap]
    return lo, hi


# ---------------------------------------------------------------------------
# milton extremality

def _probe_directions(q: QuadraticForm, cfg: CertifyConfig) -> np.ndarray:
    """Unit 9-vector directions: half seeded random, half Gram-eigenvector
    aligned (the eigenvectors themselves, then seeded in-pair mixes)."""
    rng = np.random.default_rng(cfg.seed)
    total = cfg.probe_directions
    n_rand = total // 2
    dirs = []
    R = rng.standard_normal((n_rand, 9))
    R /= np.linalg.norm(R, axis=1)[:, None]
    dirs.append(R)
    _, V = np.linalg.eigh(q.gram)
    eigcols = [V[:, k] for k in range(9)]
    aligned = []
    while len(aligned) < total - n_rand:
        if len(aligned) < 9:
            aligned.append(eigcols[len(aligned)])
        else:
            i, j = rng.integers(0, 9, size=2)
            t = rng.uniform(0.0, 2.0 * np.pi)
            v = np.cos(t) * eigcols[i] + np.sin(t) * eigcols[j]
            nv = np.linalg.norm(v)
            if nv > 1e-12:
                aligned.append(v / nv)
    dirs.append(np.array(aligned))
    return np.concatenate(dirs)


def milton_extremality_probe(scan: LatticeScan) -> ProbeReport:
    """Max over unit rank-one directions l of sup{eps : Q - eps l^2 quasiconvex}.

    eps*(l) is found by bisection, all directions in lockstep; the
    predicate is _clears on the zero-structure pool, the scan's lattice
    acoustic matrices T - eps*L and a top-16 refinement, certifying
    violation below the evaluation noise floor.  The max direction is
    re-verified with the full margin.
    """
    scan.require_quasiconvex("milton probe")
    q, cfg, margin0 = scan.form, scan.cfg, scan.margin
    G = q.gram
    guard = GUARD_REL * (1.0 + q.norm())
    P9 = _zero_pool(scan)
    pool_q = _pool_quadratic(P9, G)

    Ygrid = sphere_lattice(cfg.grid_resolution)
    Yrows = np.ascontiguousarray(Ygrid.T)
    Tgrid, Xgrid = scan.T, scan.lattice_X
    grid_q = np.einsum("nik,ni,nk->n", Tgrid, Xgrid, Xgrid)
    grid9 = (Xgrid[:, :, None] * Ygrid[:, None, :]).reshape(len(Ygrid), 9)

    dirs = _probe_directions(q, cfg)
    c = len(dirs)
    Ms = dirs.reshape(c, 3, 3)
    L = dirs[:, :, None] * dirs[:, None, :]
    # (P9 @ dirs[j]) ** 2 for every j, as row-vector products, whose bits
    # do not depend on the batch
    pool_l2 = (dirs[:, None] @ P9.T)[:, 0] ** 2
    lo, hi = np.empty(c), np.empty(c)
    qv = np.concatenate([pool_q, grid_q])
    for j, M in enumerate(Ms):
        # l(x (x) y) <= sigma_max(M) on unit pairs, so Q - eps l^2 stays
        # quasiconvex at least up to margin / sigma_max^2
        smax2 = float(np.linalg.svd(M, compute_uv=False)[0]) ** 2
        lo[j] = max(0.0, (margin0 - 2.0 * guard)) / max(smax2, 1e-300)
        # pointwise rank-one ratio bound Q/l^2 as the upper bracket, capped
        l2 = np.concatenate([pool_l2[j], (grid9 @ dirs[j]) ** 2])
        usable = l2 > 1e-18
        h = np.min(qv[usable] / l2[usable], initial=1e6)
        hi[j] = min(max(h * (1.0 + 1e-9) + 1e-15, 1e-15, lo[j] * 1.1), 1e6)

    work = _Work(c)

    def predicate(idx: np.ndarray, eps: np.ndarray) -> np.ndarray:
        """Does Q - eps[j] l_idx[j]^2 clear, for every j?"""
        work.predicate_evaluations += len(idx)
        pool_min = np.min(pool_q - eps[:, None] * pool_l2[idx], axis=1,
                          initial=np.inf)
        return work.judge(G - eps[:, None, None] * L[idx], pool_min, Yrows,
                          -guard, 16, 14)

    # grow each bracket by 4x while its upper end clears, up to the cap
    lo, hi = _grow(predicate, lo, hi, 4.0, 40, cap=1e6)
    capped = np.flatnonzero(hi >= 1e6)
    eps_star = np.zeros(c)
    if len(capped):
        eps_star[capped[predicate(capped, np.full(len(capped), 1e6))]] = 1e6
    rest = np.flatnonzero(eps_star == 0.0)
    before = work.predicate_evaluations
    eps_star[rest] = _bisect(lambda i, x: predicate(rest[i], x),
                             lo[rest], hi[rest], 1e-12, 1e-4)
    work.bisection_steps = work.predicate_evaluations - before

    n_rand = cfg.probe_directions // 2
    eigen_table = [{"direction": [float(u) for u in dirs[j]],
                    "eps_star": float(eps_star[j])}
                   for j in range(n_rand, min(n_rand + 9, c))]
    # the witness is the first direction within one bisection width of the
    # max, so rounding noise in eps* cannot swap it
    value = float(np.max(eps_star))
    j_best = int(np.flatnonzero(
        eps_star >= value - max(1e-12, 1e-4 * value))[0])
    m_best, eps_best = dirs[j_best], float(eps_star[j_best])
    witness = {
        "direction": [float(u) for u in m_best],
        "eps_star": eps_best,
        "eigen_directions": eigen_table,
        "diagnostics": work.to_json(),
    }
    if value > MILTON_REFUTED_MIN:
        check = QuadraticForm(G - eps_best * np.outer(m_best, m_best))
        witness["validation_margin"] = lattice_scan(check, cfg).margin
        verdict = "refuted"
    elif value <= MILTON_CONSISTENT_MAX:
        verdict = "consistent"
    else:
        verdict = "inconclusive"
    return ProbeReport(kind="milton", value=value, witness=witness,
                       verdict=verdict)


# ---------------------------------------------------------------------------
# extreme point probe

def extreme_point_probe(scan: LatticeScan) -> ProbeReport:
    """Search the scanned form's 9-parameter shear layout for a splitting
    0 <= Q1 <= Q (in the quasiconvex order) far from the ray {alpha Q}.

    The feasible set is convex, so each seeded start is a ray bisection in
    the orthogonal complement of the parameter ray, all starts in lockstep;
    value is the largest validated distance; feasibility is _clears on Q1,
    then on Q - Q1 for the Q1 that clear, over a grid-32 lattice.
    Consistent (extreme point) when value stays below 1e-5 * |theta_q|.
    """
    q, cfg = scan.form, scan.cfg
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
    norm_theta = float(np.linalg.norm(theta))
    theta_hat = theta / norm_theta
    P9 = _zero_pool(scan)
    G = q.gram

    # candidate forms are theta-combinations of 9 fixed basis Grams, so
    # their pool values are too
    Ylean = np.ascontiguousarray(sphere_lattice(32).T)
    poolB = np.array([_pool_quadratic(P9, Bk) for Bk in basis])

    rng = np.random.default_rng(cfg.seed)
    # orthonormal basis of the complement of theta_hat
    Bperp = np.linalg.qr(
        np.concatenate([theta_hat[:, None], rng.standard_normal((9, 8))], axis=1)
    )[0][:, 1:]
    D = []
    for _ in range(cfg.probe_directions):
        d = Bperp @ rng.standard_normal(8)
        nd = np.linalg.norm(d)
        if nd >= 1e-12:
            D.append(d / nd)
    D = np.array(D).reshape(-1, 9)
    work = _Work(len(D))

    def clears(th: np.ndarray) -> np.ndarray:
        # row-vector products, whose bits do not depend on the batch
        return work.judge(np.tensordot(th, basis, axes=1),
                          np.min(th[:, None] @ poolB, axis=(1, 2),
                                 initial=np.inf), Ylean, -cfg.tol, 12, 16)

    def feasible(idx: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """Do Q1 = theta/2 + delta[j] d_idx[j] and Q - Q1 both clear?"""
        work.predicate_evaluations += len(idx)
        th = 0.5 * theta + delta[:, None] * D[idx]
        ok = clears(th)
        if ok.any():
            ok[ok] = clears(theta - th[ok])
        return ok

    # grow each bracket by 2x while its upper end is feasible, at most 5 times
    lo, hi = _grow(feasible, np.zeros(len(D)),
                   np.full(len(D), 0.25 * norm_theta), 2.0, 5)
    before = work.predicate_evaluations
    lo = _bisect(feasible, lo, hi, max(1e-12, 1e-9 * norm_theta), 0.0)
    work.bisection_steps = work.predicate_evaluations - before
    best_delta = 0.0
    best_theta = 0.5 * theta
    if len(D) and lo.max() > 0.0:
        j = int(np.argmax(lo))
        best_delta = float(lo[j])
        best_theta = 0.5 * theta + best_delta * D[j]

    # full-margin validation of the best candidate; shrink toward the ray
    # until both margins clear
    value = 0.0
    witness_theta = best_theta
    m1 = m2 = None
    if best_delta > 0.0:
        delta_dir = (best_theta - 0.5 * theta) / best_delta
        delta = best_delta
        for _ in range(24):
            th = 0.5 * theta + delta * delta_dir
            q1 = form_from_theta(layout, th)
            m1 = lattice_scan(q1, cfg).margin
            m2 = lattice_scan(QuadraticForm(G - q1.gram), cfg).margin
            if m1 >= -cfg.tol and m2 >= -cfg.tol:
                value = delta
                witness_theta = th
                break
            delta *= 0.7
    witness = {
        "layout": layout,
        "theta_q": [float(u) for u in theta],
        "theta_witness": [float(u) for u in witness_theta],
        "distance": float(value),
        "margin_q1": m1,
        "margin_complement": m2,
        "diagnostics": work.to_json(),
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
    """Exact value row and three gradient rows of the monomials exps at z."""
    def mono(e):
        return z[0] ** e[0] * z[1] ** e[1] * z[2] ** e[2]

    rows = [[mono(e) for e in exps]]
    for v in range(3):
        rows.append([e[v] * mono(tuple(k - (i == v) for i, k in enumerate(e)))
                     if e[v] else Fraction(0) for e in exps])
    return rows


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
    rational of denominator <= 64, and kept only if p and grad p vanish
    there exactly (double coefficients are exact rationals).  Any R with
    0 <= R <= p vanishes with its gradient at those zeros and has its
    Newton polytope inside N(p) (Reznick, Duke Math. J. 1978), so the
    exact nullspace of the value and gradient rows over the monomials of
    N(p) contains every such R.  Nullspace 1 (the span of p) proves p
    extremal: consistent, method "exact".  Otherwise inconclusive with the
    nullspace dimension as value; a perfect square is inconclusive (-1).

    Verdict and value are unchanged when Q is scaled by a power of two,
    which scales p exactly (the candidate and zero counts follow the
    scan's absolute tol).  A decimal scale rounds p's coefficients, and a
    rounded coefficient can move p off its rational zeros (choi_lam at
    1e-3 gets a (2,2,2) coefficient of -3.0000000000000004e-09), which
    the probe soundly reads as inconclusive.  p >= 0 itself rests on the
    scan's sampled margin.
    """
    scan.require_quasiconvex("extremal polynomial probe")
    p = acoustic_det(acoustic_matrix(scan.form))
    flag, root = perfect_square_test(p)
    if flag:
        return ProbeReport(
            kind="extremal_polynomial", value=-1.0,
            witness={"perfect_square_root": root.to_json(),
                     "note": "perfect square; deferred to the square test"},
            verdict="inconclusive")

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

_MINOR_STACK = np.array(minor_gram_basis())
# the LMI matrices of max s s.t. M0 - sum u_k N_k - s I > 0: minors, then I
_LMI_STACK = np.concatenate([_MINOR_STACK, np.eye(9)[None]])


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
    Z = Xi / np.trace(Xi)
    Z = Z - np.einsum("k,kij->ij", np.einsum("kij,ij->k", _MINOR_STACK, Z),
                      _MINOR_STACK)
    return (Z + Z.T) / 2


def _dual_checks(Z: np.ndarray) -> dict:
    return {"min_eig": float(np.linalg.eigvalsh(Z)[0]),
            "minor_residual": float(np.max(np.abs(
                np.einsum("kij,ij->k", _MINOR_STACK, Z)))),
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

    Verdict: consistent = polyconvex (primal >= -tol); refuted = not
    polyconvex (re-checked dual bound < -1e-5); otherwise inconclusive.
    """
    G = q.gram
    c_proj = np.einsum("kij,ij->k", _MINOR_STACK, G)
    M0 = G - np.einsum("k,kij->ij", c_proj, _MINOR_STACK)
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
        G - np.einsum("k,kij->ij", c, _MINOR_STACK))[0])
    if value >= -cfg.tol:
        verdict, poly_flag = "consistent", True
    elif dual < POLYCONVEX_REFUTED_MAX:
        verdict, poly_flag = "refuted", False
    else:
        verdict, poly_flag = "inconclusive", None
    witness = {"method": "barrier", "coefficients": [float(u) for u in c],
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
