import dataclasses
import functools
import itertools
import json
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quasicone import certify, symeig
from quasicone.certify import (CLUSTER_ANGLE, CertifyConfig, PreconditionError,
                               _acoustic_stack, _cluster_pairs,
                               canonical_sign,
                               extremal_polynomial_probe, extreme_point_probe,
                               lattice_scan, milton_extremality_probe,
                               polyconvexity_test,
                               quasiconvexity_margin, rank_one_zeros,
                               sphere_lattice)
from quasicone.determinant import acoustic_det
from quasicone.forms import (NullLagrangianCoeffs, QuadraticForm,
                             ReducedOrthotropicForm, acoustic_matrix,
                             add_null_lagrangian, biquadratic_eval, catalog,
                             form_from_reduced, form_from_theta,
                             minor_gram_basis)
from quasicone.poly import monomial_exponents
from quasicone.symeig import eigmin3, eigvals3

FAST = CertifyConfig(grid_resolution=32, probe_directions=32, seed=7)


def test_config_validation():
    with pytest.raises(ValueError):
        CertifyConfig(grid_resolution=4)
    with pytest.raises(ValueError):
        CertifyConfig(grid_resolution=513)
    with pytest.raises(ValueError):
        CertifyConfig(tol=0.0)
    with pytest.raises(ValueError):
        CertifyConfig(probe_directions=0)


def test_lattice_deterministic_unit():
    Y = sphere_lattice(32)
    np.testing.assert_allclose(np.linalg.norm(Y, axis=1), 1.0, atol=1e-12)
    Y2 = sphere_lattice(32)
    assert Y is Y2  # cached


def test_margin_convex_identity():
    rep = quasiconvexity_margin(catalog("convex_identity"), FAST)
    assert rep.margin == pytest.approx(1.0, abs=1e-9)


def test_margin_choi_lam_zero_with_diagonal_minimizer():
    rep = quasiconvexity_margin(catalog("choi_lam"), FAST)
    assert abs(rep.margin) <= 1e-8
    u = np.ones(3) / np.sqrt(3)
    found = any(np.linalg.norm(np.abs(y) - u) < 1e-3
                and np.linalg.norm(np.abs(x) - u) < 1e-3
                for (y, x, v) in rep.minimizers)
    assert found


def test_margin_choi_zero():
    rep = quasiconvexity_margin(catalog("choi"), FAST)
    assert abs(rep.margin) <= 1e-8


def test_margin_minimizer_invariant():
    rep = quasiconvexity_margin(catalog("choi_lam"), FAST)
    for (y, x, v) in rep.minimizers:
        q = biquadratic_eval(catalog("choi_lam"), x, y)
        assert abs(q - rep.margin) <= 10 * FAST.tol * (1 + abs(rep.margin))


def test_margin_scaling_equivariance():
    # full-size config so the zeros converge far below the reporting cutoff
    cfg = CertifyConfig()
    q = catalog("choi")
    r1 = quasiconvexity_margin(q, cfg)
    r2 = quasiconvexity_margin(q.scaled(2.0), cfg)
    assert abs(r2.margin - 2.0 * r1.margin) <= 1e-10 * (1.0 + abs(r1.margin))
    # argmin invariance: the minimizer pair sets coincide
    assert len(r1.minimizers) == len(r2.minimizers)
    for (y1, x1, _), (y2, x2, _) in zip(r1.minimizers, r2.minimizers):
        assert np.linalg.norm(np.array(y1) - np.array(y2)) <= 1e-9
        assert np.linalg.norm(np.array(x1) - np.array(x2)) <= 1e-9
    q2 = catalog("serre", eps=0.0)
    m1 = quasiconvexity_margin(q2, FAST).margin
    m2 = quasiconvexity_margin(q2.scaled(3.0), FAST).margin
    assert abs(m2 - 3.0 * m1) <= 1e-10 * (1.0 + abs(m1))


def test_milton_refutes_any_positive_margin_form():
    rep = milton_extremality_probe(lattice_scan(catalog("serre", eps=0.0), FAST))
    assert rep.verdict == "refuted"
    assert rep.value > 1e-4


def test_margin_orthotropic_symmetry():
    # permuting coordinates permutes (a, b, c, d) consistently:
    # swap axes 1<->2 maps pair weights (b, c, d) -> (b, d, c)
    rng = np.random.default_rng(12)
    A = rng.uniform(0.5, 2.0, (3, 3))
    A = (A + A.T) / 2
    b, c, d = rng.uniform(0.5, 2.0, 3)
    P = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    A2 = P @ A @ P.T
    m1 = quasiconvexity_margin(
        form_from_reduced(ReducedOrthotropicForm(A, b, c, d)), FAST).margin
    m2 = quasiconvexity_margin(
        form_from_reduced(ReducedOrthotropicForm(A2, b, d, c)), FAST).margin
    assert abs(m1 - m2) <= 1e-9 * (1 + abs(m1))


def test_margin_monotone_under_quasiconvex_addition():
    q1 = catalog("choi_lam")
    q2 = QuadraticForm(q1.gram + np.eye(9))  # adds margin-1 convex form
    m1 = quasiconvexity_margin(q1, FAST).margin
    m2 = quasiconvexity_margin(q2, FAST).margin
    assert m2 >= m1 - 1e-12


def test_rank_one_zeros_identity_empty():
    assert rank_one_zeros(catalog("convex_identity"), FAST) == []


def test_rank_one_zeros_choi_lam_contains_diagonal():
    zeros = rank_one_zeros(catalog("choi_lam"), FAST)
    assert zeros
    u = np.ones(3) / np.sqrt(3)
    assert any(np.linalg.norm(np.abs(np.array(y)) - u) < 1e-2
               and np.linalg.norm(np.abs(np.array(x)) - u) < 1e-2
               for (x, y) in zeros)
    for (x, y) in zeros:
        assert biquadratic_eval(catalog("choi_lam"), x, y) <= FAST.tol


def test_rank_one_zeros_method_matches_wrapper():
    q = catalog("choi_lam")
    zeros = lattice_scan(q, FAST).rank_one_zeros()
    assert zeros and zeros == rank_one_zeros(q, FAST)


def test_rank_one_zeros_requires_quasiconvex():
    q = QuadraticForm(-np.eye(9))
    with pytest.raises(PreconditionError):
        rank_one_zeros(q, FAST)


def _rotation(rng):
    Q, R = np.linalg.qr(rng.standard_normal((3, 3)))
    return Q * np.sign(np.diag(R))


def _scan_form(kind, seed, shift):
    """A seeded Gram of the given kind, with a random minor shift if asked:
    PSD, indefinite, or choi / choi_lam in rotated coordinates (x -> R x,
    y -> S y), whose zeros are quartic-flat and irrational."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((9, 9))
    if kind == "psd":
        gram = A @ A.T / 9.0
    elif kind == "indefinite":
        gram = (A + A.T) / 2.0
    else:
        P = np.kron(_rotation(rng), _rotation(rng))
        gram = P.T @ catalog(kind).gram @ P
    q = QuadraticForm(gram)
    if shift:
        q = add_null_lagrangian(q, NullLagrangianCoeffs(rng.uniform(-2, 2, 9)))
    return q


def _alternating_descent(G4, X, Y, vals, max_iters):
    """Block descent from the starts Y (3, k) with their solved x blocks X
    (3, k) and values vals (k,): each sweep minimizes exactly in y, then in
    x, until no value falls by 1e-16 (1 + max |value|) or after max_iters
    sweeps.  Returns the refined values, which never rise per point."""
    Ky = G4.transpose(2, 3, 0, 1)
    for _ in range(max_iters):
        Y = eigmin3(_acoustic_stack(X, G4))[1].T
        new_vals, X = eigmin3(_acoustic_stack(Y, Ky))
        X = X.T
        improvement = np.max(vals - new_vals)
        vals = new_vals
        if improvement < 1e-16 * (1.0 + np.max(np.abs(new_vals))):
            break
    return vals


def _reference_margin(q, grid):
    """The margin of the full refinement that basin seeding replaces: every
    lattice point refined by up to 40 alternating sweeps."""
    G4 = q.gram_tensor()
    Y0 = np.ascontiguousarray(sphere_lattice(grid).T)
    lam, X0 = eigmin3(_acoustic_stack(Y0, G4.transpose(2, 3, 0, 1)))
    vals = _alternating_descent(G4, X0.T, Y0, lam, 40)
    return float(min(np.min(vals), np.min(lam)))


@settings(max_examples=24, deadline=None)
@given(kind=st.sampled_from(["psd", "indefinite", "choi", "choi_lam"]),
       seed=st.integers(0, 2**32 - 1), shift=st.booleans())
def test_basin_seeded_margin_matches_full_refinement(kind, seed, shift):
    q = _scan_form(kind, seed, shift)
    scan = lattice_scan(q, _GRID32)
    assert scan.margin <= _reference_margin(q, 32) + 1e-12 * (1.0 + q.norm())
    assert scan.margin >= np.linalg.eigvalsh(q.gram)[0] - _GRID32.tol
    # refined values never rise above their lattice seeds
    assert len(scan.vals) <= certify.SEED_CAP
    assert np.min(scan.vals) <= np.min(scan.lattice_lam)
    if kind in ("choi", "choi_lam"):
        assert abs(scan.margin) <= 1e-15 * q.norm()


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["psd", "indefinite", "choi_lam"]),
       k=st.integers(-900, 900))
def test_scan_follows_power_of_two_scaling_bitwise(kind, k):
    # the scan runs on the Gram scaled to largest entry in [1/2, 1), so Q
    # and 2^k Q take bitwise-equal paths, far beyond where squares of the
    # Gram's entries would overflow or underflow
    q = _scan_form(kind, 5, False)
    base = lattice_scan(q, _GRID32)
    scan = lattice_scan(QuadraticForm(np.ldexp(q.gram, k)), _GRID32)
    assert scan.margin == np.ldexp(base.margin, k)
    assert scan.vals.tobytes() == np.ldexp(base.vals, k).tobytes()
    assert scan.Y.tobytes() == base.Y.tobytes()
    assert scan.newton_steps == base.newton_steps
    # the frame the probes read: exponent, and G4 and T left in it
    assert scan.e == base.e + k
    assert scan.G4.flags.c_contiguous
    assert scan.G4.tobytes() == base.G4.tobytes()
    assert scan.T.tobytes() == base.T.tobytes()


# scans that lost a rank-one zero when the seeds went to Newton without
# the alternating pre-sweeps and with 4 step halvings: a seed next to a
# zero stalled, every halved step failing
@example(kind="choi_lam", seed=228, shift=True, grid=32)
@example(kind="choi_lam", seed=918, shift=True, grid=96)
@example(kind="choi", seed=567, shift=True, grid=32)
@example(kind="choi", seed=1372, shift=False, grid=96)
@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["choi", "choi_lam"]),
       seed=st.integers(0, 2**32 - 1), shift=st.booleans(),
       grid=st.sampled_from([32, 96]))
def test_scan_keeps_every_rank_one_zero_of_rotated_forms(kind, seed, shift, grid):
    # choi vanishes on the three axis lines and choi_lam at seven points,
    # all quartic-flat; rotations and minor shifts keep them
    q = _scan_form(kind, seed, shift)
    zeros = lattice_scan(q, CertifyConfig(grid_resolution=grid)).rank_one_zeros()
    assert len(zeros) == {"choi": 3, "choi_lam": 7}[kind]


def _zero_pool_loop(scan):
    """The per-zero, per-direction, per-sign loop that _zero_pool batches,
    on the same helpers: the zeros' rows in the order _zero_pool puts them
    (each zero, then its sweeps)."""
    G4 = scan.form.gram_tensor()
    near = scan.vals <= np.ldexp(1e-10, scan.e)
    reps = _cluster_pairs(scan.X[near], scan.Y[near], scan.vals[near], cap=12)
    zeros, sweeps = [], []
    for (y0, x0, _) in reps:
        _, H, U, V = certify._transverse_hessian(G4, x0[:, None], y0[:, None])
        W = np.linalg.eigh(H[0])[1]
        zeros.append((x0, y0))
        for k in range(4):
            for sgn in (1.0, -1.0):
                for r in certify._POOL_RADII:
                    x = x0 + sgn * r * (U[0] @ W[:2, k])
                    y = y0 + sgn * r * (V[0] @ W[2:, k])
                    sweeps.append((x / np.linalg.norm(x), y / np.linalg.norm(y)))
    return np.array([np.outer(x, y).ravel() for (x, y) in zeros + sweeps])


@pytest.mark.parametrize("name", ["choi", "choi_lam"])
def test_zero_pool_matches_per_zero_loop(name):
    scan = lattice_scan(catalog(name), _GRID32)
    P9 = certify._zero_pool(scan)
    ref = _zero_pool_loop(scan)
    assert P9.shape == ref.shape == (225 * len(scan.rank_one_zeros()), 9)
    # a one-zero GEMM and eigh round apart from the batch, and flip the sign
    # of an eigendirection, which swaps its +- sweeps: compare row sets
    for A, B in ((P9, ref), (ref, P9)):
        nearest = [np.min(np.linalg.norm(B - a, axis=1)) for a in A]
        assert max(nearest) <= 1e-12


def test_choi_reports_each_axis_zero_once():
    # the three axis lines are choi's zeros; e1 was missed and e3 reported
    # twice while the refinement left these quartic-flat zeros unconverged
    scan = lattice_scan(catalog("choi"), _GRID32)
    ys = [y for (_, y) in scan.rank_one_zeros()]
    ys += [y for (y, _, _) in scan.margin_report().minimizers]
    axes = sorted(int(np.argmax(np.abs(y))) for y in ys)
    assert axes == [0, 0, 1, 1, 2, 2]
    assert all(np.max(np.abs(y)) >= 1.0 - 1e-6 for y in ys)


# rows of a Newton step's stacked eigen-solve: every halving of every seed,
# 432 at grid 96, 21x below its 9,216-point lattice
_STEP_ROWS = certify.SEED_CAP * (certify.NEWTON_BACKTRACKS + 1)


def test_lattice_scan_refines_at_most_the_seed_cap():
    # a counter, not a timer: a grid-96 scan solves the lattice with one
    # values-only eigvals3, the seeds with one eigmin3 of at most SEED_CAP
    # rows, and each Newton step with one eigmin3 of at most _STEP_ROWS, so
    # a return to refining every lattice point, to eigenvectors over the
    # whole lattice, or to one solve per halving fails here
    n = len(sphere_lattice(96))
    rows = {}

    def spy(fn):
        def counted(M, *args):
            rows.setdefault(fn.__name__, []).append(len(M))
            return fn(M, *args)
        return counted

    with mock.patch.object(certify, "eigmin3", spy(eigmin3)), \
            mock.patch.object(certify, "eigvals3", spy(eigvals3)):
        for name in ("choi", "convex_identity"):
            rows.clear()
            scan = lattice_scan(catalog(name), CertifyConfig())
            assert rows["eigvals3"] == [n]
            assert 1 < len(rows["eigmin3"]) <= 1 + scan.newton_steps
            assert rows["eigmin3"][0] <= certify.SEED_CAP
            assert max(rows["eigmin3"]) <= _STEP_ROWS
    # 1,306 tied lattice points on T = I: the cap bounds the seeds
    assert len(scan.vals) == certify.SEED_CAP
    assert scan.margin_report().diagnostics["seeds"] == certify.SEED_CAP


def test_lattice_scan_sends_at_most_the_seed_cap_to_lapack():
    # T(y) = |y|^2 I on every lattice point of convex_identity: each row is
    # isotropic, where an eigenvector needs LAPACK, but the lattice's values
    # do not, so LAPACK sees only stacks of the seeds and of Newton's steps,
    # each step one stack of every halving of every seed
    rows = []

    def spy(fn):
        def counted(a, *args, **kw):
            rows.append(int(np.prod(np.shape(a)[:-2])))
            return fn(a, *args, **kw)
        return counted

    with mock.patch.object(np.linalg, "eigh", spy(np.linalg.eigh)), \
            mock.patch.object(np.linalg, "eigvalsh", spy(np.linalg.eigvalsh)):
        scan = lattice_scan(catalog("convex_identity"), CertifyConfig())
    assert abs(scan.margin - 1.0) <= 1e-15
    assert rows and max(rows) <= _STEP_ROWS


def test_margin_then_zeros_scan_the_form_once():
    # the margin-scan pair of calls: one lattice pass, both read the one
    # kept scan
    rows = []

    def counted(M, *args):
        rows.append(len(M))
        return eigvals3(M, *args)

    q = catalog("choi_lam")
    with mock.patch.object(certify, "eigvals3", counted):
        report = quasiconvexity_margin(q, CertifyConfig())
        zeros = rank_one_zeros(q, CertifyConfig())
        scan = lattice_scan(q, CertifyConfig())
    assert rows == [len(sphere_lattice(96))]
    assert report == scan.margin_report()
    assert zeros == scan.rank_one_zeros() and len(zeros) == 7


def test_kept_scan_needs_the_same_gram_bits_and_config():
    q = catalog("choi")
    scan = lattice_scan(q, _GRID32)
    assert lattice_scan(QuadraticForm(q.gram.copy()), _GRID32) is scan
    g = q.gram.copy()
    g[4, 4] = np.nextafter(g[4, 4], np.inf)     # one bit, still symmetric
    for other in ((QuadraticForm(g), _GRID32),
                  (q, dataclasses.replace(_GRID32, tol=2e-9)),
                  (q, dataclasses.replace(_GRID32, seed=1)),
                  (q, dataclasses.replace(_GRID32, grid_resolution=33))):
        rescan = lattice_scan(*other)
        assert rescan is not scan
        assert rescan.form.gram.tobytes() == other[0].gram.tobytes()
        assert rescan.cfg == other[1]
        scan = lattice_scan(q, _GRID32)


def test_kept_scan_is_read_only():
    scan = lattice_scan(catalog("choi_lam"), _GRID32)
    for name in ("G4", "T", "lattice_lam", "X", "Y", "vals"):
        a = getattr(scan, name)
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 0.0
        with pytest.raises(ValueError):
            a *= 2.0
    assert lattice_scan(catalog("choi_lam"), _GRID32) is scan


@pytest.mark.parametrize("kind, seed, grid",
                         [("choi_lam", 3, 32), ("psd", 4, 96), ("choi", 5, 96)])
def test_kept_scan_equals_a_fresh_scan_bitwise(kind, seed, grid):
    q, cfg = _scan_form(kind, seed, True), CertifyConfig(grid_resolution=grid)
    kept = lattice_scan(q, cfg)
    assert lattice_scan(q, cfg) is kept
    lattice_scan(catalog("choi"), cfg)          # replaces the kept scan
    fresh = lattice_scan(q, cfg)
    assert fresh is not kept
    for f in dataclasses.fields(certify.LatticeScan):
        a, b = getattr(kept, f.name), getattr(fresh, f.name)
        if f.name == "form":
            a, b = a.gram, b.gram
        if isinstance(a, np.ndarray):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


def _basin_seeds_tril(Y0, lam):
    """The reference for _basin_seeds' shadowing: a pool point is shadowed
    when any earlier pool point lies within the seed radius, as a line,
    read off the strict lower triangle of the pool's |Gram|."""
    m = min(certify.SEED_POOL, len(lam))
    pool = np.flatnonzero(lam <= np.partition(lam, m - 1)[m - 1])
    pool = pool[np.argsort(lam[pool], kind="stable")[:m]]
    P = Y0[:, pool]
    cos_r = np.cos(certify.SEED_RADIUS * np.sqrt(2.0 * np.pi / len(lam)))
    shadowed = np.tril(np.abs(P.T @ P) >= cos_r, -1).any(axis=1)
    return pool[~shadowed][:certify.SEED_CAP]


@pytest.mark.parametrize("grid", [16, 32, 96])
def test_basin_seeds_match_lower_triangle_shadowing(grid):
    Y0 = np.ascontiguousarray(sphere_lattice(grid).T)
    forms = [catalog(name) for name in ("choi", "choi_lam", "convex_identity",
                                        "serre")]
    forms += [_scan_form(kind, seed, seed % 2 == 0)
              for kind in ("psd", "indefinite", "choi", "choi_lam")
              for seed in range(3)]
    for q in forms:
        lam = eigvals3(_acoustic_stack(Y0, q.gram_tensor().transpose(2, 3, 0, 1)))[:, 0]
        assert np.array_equal(certify._basin_seeds(Y0, lam),
                              _basin_seeds_tril(Y0, lam))


def _eigmin3_lattice_scan(q, cfg):
    """The reference for lattice_scan's values-only lattice pass: one
    eigmin3 solves every lattice point, and its values pick the seeds and
    its vectors start Newton, on the same helpers."""
    e = np.frexp(np.max(np.abs(q.gram)))[1]
    G4 = np.ascontiguousarray(np.ldexp(q.gram_tensor(), -e))
    Y0 = np.ascontiguousarray(sphere_lattice(cfg.grid_resolution).T)
    T = _acoustic_stack(Y0, G4.transpose(2, 3, 0, 1))
    lam, X0 = eigmin3(T)
    seeds = certify._basin_seeds(Y0, lam)
    X, Y, vals, steps = certify._newton(G4, X0.T[:, seeds], Y0[:, seeds],
                                        lam[seeds])
    for a in (lam, vals):
        np.ldexp(a, e, out=a)
    margin = float(min(np.min(vals), np.min(lam)))
    return certify.LatticeScan(q, cfg, margin, int(e), G4, T, lam, X.T, Y.T,
                               vals, steps)


@settings(max_examples=24, deadline=None)
@given(kind=st.sampled_from(["psd", "indefinite", "choi", "choi_lam"]),
       seed=st.integers(0, 2**32 - 1), shift=st.booleans())
def test_values_only_lattice_pass_matches_eigmin3_lattice(kind, seed, shift):
    q = _scan_form(kind, seed, shift)
    scan = lattice_scan(q, _GRID32)
    ref = _eigmin3_lattice_scan(q, _GRID32)
    # 8 eps 2^e, for the scan's exponent e
    e = np.frexp(np.max(np.abs(q.gram)))[1]
    assert abs(scan.margin - ref.margin) <= np.ldexp(8.0 * np.finfo(float).eps, e)
    if ref.margin >= -np.ldexp(_GRID32.tol, e):
        assert len(scan.rank_one_zeros()) == len(ref.rank_one_zeros())
    else:
        assert scan.margin < -np.ldexp(_GRID32.tol, e)


def _newton_one_halving_at_a_time(G4, X, Y, vals):
    """The reference for _newton's stacked halvings: the same Newton step,
    then one eigmin3 per halving, each seed taking the first whose value
    falls."""
    Ky = G4.transpose(2, 3, 0, 1)
    X, Y, vals = X.copy(), Y.copy(), vals.copy()
    live, steps = np.arange(len(vals)), 0
    while len(live) and steps < certify.NEWTON_ITERS:
        steps += 1
        g, H, _, V = certify._transverse_hessian(G4, X[:, live], Y[:, live])
        w, W = np.linalg.eigh(H)
        w += np.maximum(0.0, certify.NEWTON_SHIFT - w[:, :1])
        d = -(W @ ((g[:, None] @ W)[:, 0] / w)[:, :, None])[:, :, 0]
        d *= np.minimum(1.0, certify.NEWTON_STEP_MAX / np.maximum(
            np.linalg.norm(d, axis=1), 1e-300))[:, None]
        dy = (V @ d[:, 2:, None])[:, :, 0].T
        before, k = vals[live], np.arange(len(live))
        for _ in range(certify.NEWTON_BACKTRACKS + 1):
            i = live[k]
            Yt = Y[:, i] + dy[:, k]
            Yt /= np.linalg.norm(Yt, axis=0)
            vt, Xt = eigmin3(_acoustic_stack(Yt, Ky))
            better = vt < vals[i]
            i = i[better]
            X[:, i], Y[:, i], vals[i] = Xt.T[:, better], Yt[:, better], vt[better]
            k = k[~better]
            if not len(k):
                break
            dy *= 0.5
        live = live[before - vals[live] > certify.NEWTON_TOL]
    return vals, steps


@pytest.mark.parametrize("kind, seed, grid", [
    ("psd", 0, 32), ("indefinite", 1, 96), ("choi", 2, 32), ("choi", 3, 96),
    ("choi_lam", 4, 32), ("choi_lam", 5, 96)])
def test_stacked_halvings_match_one_halving_at_a_time(kind, seed, grid,
                                                     monkeypatch):
    # the same trial points (2^-k scaling is exact), so only the GEMM's
    # column rounding can move a value: after one step and after the whole
    # search each seed is within 8 eps of the sequential search in the
    # scan's frame, never above its start; taking the shortest falling
    # halving in place of the longest moves the values further
    scan = lattice_scan(_scan_form(kind, seed, seed % 2 == 1),
                        CertifyConfig(grid_resolution=grid))
    Y0 = np.ascontiguousarray(sphere_lattice(grid).T)
    seeds = certify._basin_seeds(Y0, np.ldexp(scan.lattice_lam, -scan.e))
    vals, X = eigmin3(scan.T[seeds])
    start = (scan.G4, X.T, Y0[:, seeds], vals)
    *_, new, steps = certify._newton(*start)
    assert np.array_equal(np.ldexp(new, scan.e), scan.vals)
    assert steps == scan.newton_steps and np.all(new <= vals)
    for iters in (1, certify.NEWTON_ITERS):
        monkeypatch.setattr(certify, "NEWTON_ITERS", iters)
        ref, _ = _newton_one_halving_at_a_time(*start)
        new = certify._newton(*start)[2]
        assert np.max(np.abs(new - ref)) <= 8 * np.finfo(float).eps


def test_transverse_hessian_matches_finite_differences():
    # along the curves (x, y)(t) = normalized (x + t U a, y + t V b), f has
    # derivative g . d and second derivative d . H d at t = 0, as the
    # normalizing retraction is of second order
    rng = np.random.default_rng(4)
    A = rng.standard_normal((9, 9))
    G4 = QuadraticForm(A + A.T).gram_tensor()
    X, Y = rng.standard_normal((2, 3, 5))
    X /= np.linalg.norm(X, axis=0)
    Y /= np.linalg.norm(Y, axis=0)
    g, H, U, V = certify._transverse_hessian(G4, X, Y)
    d = rng.standard_normal((5, 4))
    h = 1e-4

    def f(t):
        x = X.T + t * (U @ d[:, :2, None])[:, :, 0]
        y = Y.T + t * (V @ d[:, 2:, None])[:, :, 0]
        x /= np.linalg.norm(x, axis=1)[:, None]
        y /= np.linalg.norm(y, axis=1)[:, None]
        return np.einsum("si,ikjl,sk,sj,sl->s", x, G4, x, y, y)

    f0, fp, fm = f(0.0), f(h), f(-h)
    np.testing.assert_allclose((fp - fm) / (2 * h), np.sum(g * d, axis=1),
                               rtol=1e-6, atol=1e-7)
    np.testing.assert_allclose((fp - 2 * f0 + fm) / h**2,
                               np.einsum("si,sij,sj->s", d, H, d),
                               rtol=1e-4, atol=1e-4)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([0, 1, 12, 1024]),
       shift=st.booleans(), log_scale=st.floats(-6.0, 6.0))
def test_acoustic_stack_matches_einsum(seed, n, shift, log_scale):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((9, 9))
    q = QuadraticForm(10.0 ** log_scale * (A + A.T))
    if shift:
        q = add_null_lagrangian(q, NullLagrangianCoeffs(
            10.0 ** log_scale * rng.uniform(-2.0, 2.0, 9)))
    G4 = q.gram_tensor()
    # vectors components first: (3, n) rows
    V = rng.standard_normal((3, n)) * rng.uniform(0.5, 2.0, n)
    # a stack of forms of norm |G| sharing the rows V, as a trailing K shape
    grams = np.stack([q.gram, q.norm() * minor_gram_basis()[seed % 9]])
    B4 = grams.reshape(2, 3, 3, 3, 3).transpose(0, 1, 3, 2, 4)
    # (stack, reference, the rows v the stack's entries are quadratic in)
    pairs = [(_acoustic_stack(V, G4.transpose(2, 3, 0, 1)),
              np.einsum("jn,ikjl,ln->nik", V, G4, V), V),   # T(y), the x block
             (_acoustic_stack(V, G4),
              np.einsum("in,ikjl,kn->njl", V, G4, V), V),   # S(x), the y block
             (_acoustic_stack(V, B4.transpose(3, 4, 0, 1, 2)),
              np.einsum("jn,kimjl,ln->nkim", V, B4, V), V)]
    for got, ref, rows in pairs:
        assert got.shape == ref.shape
        # a few ulp of |G| |v|^2 per row
        tol = 8 * np.finfo(float).eps * q.norm() * np.sum(rows * rows, axis=0)
        assert np.all(np.abs(got - ref) <= tol.reshape((n,) + (1,) * (got.ndim - 1)))
        # components first: each entry is one contiguous row over the n
        # points, so a stack copied back to row-major storage fails here
        assert got.reshape(n, got.size // max(n, 1)).T.flags.c_contiguous


def _line_gap(a, b):
    return min(np.linalg.norm(a - b), np.linalg.norm(a + b))


def _cluster_pairs_loop(X, Y, vals, angle=CLUSTER_ANGLE, cap=10**9):
    """The pairwise reference loop that _cluster_pairs replaces, comparing
    y and x as lines."""
    Xc = canonical_sign(X)
    Yc = canonical_sign(Y)
    order = np.lexsort((Xc[:, 2], Xc[:, 1], Xc[:, 0],
                        Yc[:, 2], Yc[:, 1], Yc[:, 0], vals))
    kept = []
    for i in order:
        y, x, v = Yc[i], Xc[i], float(vals[i])
        if not any(_line_gap(y, yk) < angle and _line_gap(x, xk) < angle
                   for (yk, xk, _) in kept):
            kept.append((y, x, v))
            if len(kept) >= cap:
                break
    return kept


@pytest.mark.parametrize("seed", range(6))
def test_cluster_pairs_matches_reference_loop(seed):
    rng = np.random.default_rng(seed)
    centres = rng.standard_normal((8, 2, 3))
    centres /= np.linalg.norm(centres, axis=2, keepdims=True)
    # each centre comes first in its cluster (value -1e-12); around it, chord
    # offsets of 0, 0.999 and 1.001 CLUSTER_ANGLE in y and in x, valued
    # 0 or 1e-12 so that ties go to the lexsort
    factors = np.array(list(itertools.product([0.0, 0.999, 1.001], repeat=2)))
    Y, X, vals = [], [], []
    for y0, x0 in centres:
        d = rng.standard_normal((len(factors), 2, 3))
        d *= CLUSTER_ANGLE * factors[:, :, None] / np.linalg.norm(
            d, axis=2, keepdims=True)
        Y += [y0, *(y0 + d[:, 0])]
        X += [x0, *(x0 + d[:, 1])]
        vals += [-1e-12, *rng.choice([0.0, 1e-12], len(factors))]
    Y, X, vals = np.array(Y), np.array(X), np.array(vals)
    signs = rng.choice([-1.0, 1.0], (2, len(Y), 1))  # canonical_sign undoes
    X, Y = signs[0] * X, signs[1] * Y
    full = _cluster_pairs_loop(X, Y, vals)
    # the 0 and 0.999 offsets join their centre, the 1.001 ones do not
    assert 8 + 8 <= len(full) <= 8 * 6
    for cap in (10**9, 5):
        got = _cluster_pairs(X, Y, vals, cap=cap)
        ref = _cluster_pairs_loop(X, Y, vals, cap=cap)
        assert len(got) == len(ref) == min(cap, len(full))
        for (y, x, v), (yr, xr, vr) in zip(got, ref):
            assert np.array_equal(y, yr) and np.array_equal(x, xr) and v == vr


def test_cluster_pairs_compares_lines_across_canonical_sign():
    # choi's e3 axis leaves the grid-32 scan as two refined zeros whose
    # tiny first coordinates put them on opposite sides of canonical_sign
    # (z < 0 and z > 0); as lines they are 3.9e-3 apart, so they stay two
    # clusters at CLUSTER_ANGLE and join at 5e-3
    Y = np.array([[3.4367e-4, 0.0, -0.99999994], [3.5524e-3, 0.0, 0.99999369]])
    X = np.array([[0.99999994, 0.0, -3.4367e-4], [0.99999369, 0.0, 3.5523e-3]])
    vals = np.array([2.8e-14, 9.6e-10])
    assert len(_cluster_pairs(X, Y, vals)) == 2
    kept = _cluster_pairs(X, Y, vals, angle=5e-3)
    assert len(kept) == 1 and kept[0][2] == 2.8e-14
    # the same straddle within CLUSTER_ANGLE joins at the default angle
    Y[1] = -Y[0] + [5e-4, 0.0, 0.0]
    X[1] = X[0] + [0.0, 2e-4, 0.0]
    assert canonical_sign(Y)[1, 2] > 0 > canonical_sign(Y)[0, 2]
    assert len(_cluster_pairs(X, Y, vals)) == 1
    ref = _cluster_pairs_loop(X, Y, vals)
    assert [v for (_, _, v) in ref] == [2.8e-14]


def _clears_reference(T, G4, pool, Y, floor, k, iters):
    """A candidate form's sampled quasiconvexity check, on the lattice
    points Y as (3, n) rows with the form's lattice stack T and pool values
    pool: the stage it stops at (0 clears, 1 pool, 2 lattice, 3 refine),
    its refined minimum (nan before the refinement) and its refinement
    sweeps, the refinement being iters alternating sweeps from its k lowest
    lattice points."""
    if len(pool) and np.min(pool) < floor:
        return 1, np.nan, 0
    lam = eigvals3(T)[:, 0]
    if np.min(lam) < floor:
        return 2, np.nan, 0
    Y = Y[:, np.argpartition(lam, k - 1)[:k]]
    Ky = G4.transpose(2, 3, 0, 1)
    vals, X = eigmin3(_acoustic_stack(Y, Ky))
    for sweeps in range(1, iters + 1):
        _, Y = eigmin3(_acoustic_stack(X.T, G4))
        new_vals, X = eigmin3(_acoustic_stack(Y.T, Ky))
        improvement = float(np.max(vals - new_vals))
        vals = new_vals
        if improvement < 1e-16 * (1.0 + float(np.max(np.abs(vals)))):
            break
    refined = float(np.min(vals))
    return (0 if refined >= floor else 3), refined, sweeps


def _sampled_stage(gram, P9, Y, floor, k, iters):
    """_clears_reference's stage for one candidate Gram, pool P9 (P, 9)."""
    G4 = QuadraticForm(gram).gram_tensor()
    T = _acoustic_stack(Y, G4.transpose(2, 3, 0, 1))
    return _clears_reference(T, G4, certify._pool_quadratic(P9, gram), Y,
                             floor, k, iters)[0]


def test_lockstep_row_cap_leaves_probe_reports_unchanged(monkeypatch):
    cfg = CertifyConfig(grid_resolution=32, probe_directions=4)
    identity = form_from_reduced(ReducedOrthotropicForm(np.eye(3), 1, 1, 1))
    scans = [lattice_scan(q, cfg) for q in (catalog("choi_lam"), identity)]
    # rows of each lattice-stage eigvals3 call, the only eigvals3 calls of
    # the two probes
    rows = []

    def eigvals3_spy(M):
        rows.append(len(M))
        return eigvals3(M)

    def reports():
        rows.clear()
        return [json.dumps(probe(s).to_json()) for s in scans
                for probe in (milton_extremality_probe, extreme_point_probe)]

    monkeypatch.setattr(certify, "eigvals3", eigvals3_spy)
    default = reports()
    n = len(sphere_lattice(32))
    assert max(rows) > n
    monkeypatch.setattr(certify, "LOCKSTEP_ROWS", 1)
    assert reports() == default
    assert set(rows) == {n}    # one candidate per lattice call


def test_probe_diagnostics_count_the_search():
    scan = lattice_scan(catalog("choi"),
                        CertifyConfig(grid_resolution=32, probe_directions=4))
    d = milton_extremality_probe(scan).witness["diagnostics"]
    assert d == {"directions": 4, "lattice_points": len(sphere_lattice(32)),
                 "pool_points": len(certify._zero_pool(scan)),
                 "refinement_starts": 4 * 16, "refinement_sweeps": 14,
                 "binding": d["binding"]}
    assert d["pool_points"] > 0
    assert set(d["binding"]) == {"pool", "lattice", "refine"}
    assert sum(d["binding"].values()) == 4
    d = extreme_point_probe(scan).witness["diagnostics"]
    assert d == {"directions": 4, "lattice_points": len(sphere_lattice(32)),
                 "pool_points": len(certify._zero_pool(scan)),
                 "refinement_starts": 4 * 12, "refinement_sweeps": 16,
                 "binding": d["binding"]}
    assert set(d["binding"]) == {"pool", "lattice", "refine"}
    assert sum(d["binding"].values()) == 4


def test_milton_refutes_convex_identity():
    rep = milton_extremality_probe(lattice_scan(catalog("convex_identity"), FAST))
    assert rep.verdict == "refuted"
    assert rep.value >= 0.99
    xi11 = [e for e in rep.witness["eigen_directions"]
            if abs(e["direction"][0]) > 0.999]
    assert xi11 and xi11[0]["eps_star"] >= 0.99
    assert rep.witness["validation_margin"] >= -1e-7


def test_milton_scaling_homogeneity():
    q = catalog("convex_identity")
    v1 = milton_extremality_probe(lattice_scan(q, FAST)).value
    v2 = milton_extremality_probe(lattice_scan(q.scaled(2.0), FAST)).value
    assert abs(v2 - 2.0 * v1) <= 1e-6 * (1.0 + v1)


def test_milton_choi_lam_consistent():
    rep = milton_extremality_probe(lattice_scan(catalog("choi_lam"), FAST))
    assert rep.verdict == "consistent"
    assert rep.value <= 1e-6


def test_milton_witness_direction_ignores_rounding_noise(monkeypatch):
    # choi_lam's eps* are all rounding noise (~1e-14); perturbing every
    # sample's bound and pool value, as reordering a float sum would, must
    # not move the reported direction
    scan = lattice_scan(catalog("choi_lam"),
                        CertifyConfig(grid_resolution=32, probe_directions=8))
    base = milton_extremality_probe(scan)
    bound, pool = certify._rank_one_bound, certify._pool_quadratic
    for seed in range(3):
        rng = np.random.default_rng(seed)

        def noise(a):
            return a * (1.0 + 1e-6 * rng.uniform(-1.0, 1.0, a.shape))

        def noisy_bound(*args):
            r, w = bound(*args)
            return noise(r) + 1e-15 * rng.random(r.shape), w

        with monkeypatch.context() as m:
            m.setattr(certify, "_rank_one_bound", noisy_bound)
            m.setattr(certify, "_pool_quadratic", lambda *a: noise(pool(*a)))
            rep = milton_extremality_probe(scan)
        assert rep.value != base.value    # the noise reached the max
        assert rep.verdict == base.verdict == "consistent"
        assert rep.witness["direction"] == base.witness["direction"]
        assert rep.value - rep.witness["eps_star"] <= 1e-12


def test_milton_runs_no_search(monkeypatch):
    # eps* and delta* are read off each sample in closed form: the only full
    # scans are the validations of the reported witness, and Milton makes
    # no candidate-form eigen-solve
    identity = form_from_reduced(ReducedOrthotropicForm(np.eye(3), 1, 1, 1))
    forms = {"convex_identity": catalog("convex_identity"),
             "choi_lam": catalog("choi_lam"), "identity": identity}
    scans = {name: lattice_scan(q, FAST) for name, q in forms.items()}
    calls, scanned, scanning = [], [], []

    def eigvals3_spy(*args, **kw):
        # a validation scan's own lattice pass is not a probe's solve
        if not scanning:
            calls.append("eigvals3")
        return eigvals3(*args, **kw)

    def scan_spy(q, cfg):
        scanned.append(q.gram)
        scanning.append(q)
        try:
            return lattice_scan(q, cfg)
        finally:
            scanning.pop()

    monkeypatch.setattr(certify, "lattice_scan", scan_spy)
    with monkeypatch.context() as m:
        m.setattr(certify, "eigvals3", eigvals3_spy)
        for name in ("convex_identity", "choi_lam"):
            scanned.clear()
            w = milton_extremality_probe(scans[name]).witness
            l = np.array(w["direction"])
            validated = [forms[name].gram - (1 - 1e-4) * w["eps_star"]
                         * np.outer(l, l)] if "validation_margin" in w else []
            assert len(scanned) == len(validated) == (name != "choi_lam")
            assert all(map(np.array_equal, scanned, validated))
    assert calls == []
    for name in ("identity", "choi_lam"):
        scanned.clear()
        rep = extreme_point_probe(scans[name])
        w = rep.witness
        theta, d = np.array(w["theta_q"]), np.array(w["direction"])
        # Q1 and Q - Q1 along the validation's shrink sequence
        deltas = [(1 - 1e-4) * w["delta_star"]]
        for _ in range(23):
            deltas.append(0.7 * deltas[-1])
        q1s = [form_from_theta(w["layout"], 0.5 * theta + t * d).gram
               for t in deltas]
        allowed = q1s + [forms[name].gram - g for g in q1s]
        assert 0 < w["delta_star"] and np.array_equal(scanned[0], q1s[0])
        assert all(any(np.array_equal(g, a) for a in allowed) for g in scanned)
        assert len(scanned) == 2 and rep.value == deltas[0]


def test_milton_refuted_needs_a_validated_witness(monkeypatch):
    scan = lattice_scan(catalog("convex_identity"), FAST)
    base = milton_extremality_probe(scan)
    assert base.verdict == "refuted"
    scans = []

    def failing_scan(q, cfg):
        s = lattice_scan(q, cfg)
        scans.append(s)
        return dataclasses.replace(s, margin=-1e-6)

    monkeypatch.setattr(certify, "lattice_scan", failing_scan)
    rep = milton_extremality_probe(scan)
    assert len(scans) == 1
    assert rep.verdict == "inconclusive"
    assert rep.witness["validation_margin"] == -1e-6
    assert (rep.value, rep.witness["eps_star"]) == (base.value,
                                                    base.witness["eps_star"])
    # the validated form is Q - (1 - 1e-4) eps* l^2 in the witness direction
    m = np.array(base.witness["direction"])
    np.testing.assert_array_equal(
        scans[0].form.gram, catalog("convex_identity").gram
        - (1.0 - 1e-4) * base.witness["eps_star"] * np.outer(m, m))


def test_milton_is_exact_at_1e200():
    cfg = CertifyConfig(grid_resolution=16, probe_directions=2)
    q = catalog("convex_identity")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = milton_extremality_probe(lattice_scan(q.scaled(1e200), cfg))
    ref = milton_extremality_probe(lattice_scan(q, cfg))
    assert big.verdict == ref.verdict == "refuted"
    assert abs(big.value - 1e200 * ref.value) <= 1e-12 * 1e200 * ref.value


def _shifted_bound(A, m):
    """_rank_one_bound of one matrix A and one vector m."""
    U = np.array(A, dtype=float)[None]
    adj, det = certify._shifted_adjugate(symeig._upper(U), 0.0)
    return certify._rank_one_bound(adj, det, np.asarray(m, dtype=float)[:, None])


def _eigvalsh_bound(A, m):
    """The largest eps with lambda_min(A - eps m m^T) >= 0, by bisection."""
    lo, hi = 0.0, 1.0
    while np.linalg.eigvalsh(A - hi * np.outer(m, m))[0] >= 0:
        lo, hi = hi, 2.0 * hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if np.linalg.eigvalsh(A - mid * np.outer(m, m))[0] >= 0:
            lo = mid
        else:
            hi = mid
    return lo


@settings(max_examples=60, deadline=None)
@given(B=arrays(float, (3, 3), elements=st.floats(-2.0, 2.0)),
       m=arrays(float, 3, elements=st.just(0.0) | st.floats(0.05, 2.0)
                | st.floats(-2.0, -0.05)),
       shift=st.floats(1e-3, 2.0))
def test_rank_one_bound_matches_eigvalsh_bisection(B, m, shift):
    A = B @ B.T + shift * np.eye(3)
    r, w = _shifted_bound(A, m)
    np.testing.assert_allclose(w[:, 0], np.linalg.det(A) * np.linalg.solve(A, m),
                               rtol=1e-9, atol=1e-9 * np.linalg.norm(A) ** 2)
    if not np.any(m):
        assert r[0] == np.inf
    else:
        assert r[0] == pytest.approx(_eigvalsh_bound(A, m), rel=1e-8)
    # not positive definite: no room at all
    for C in (-A, A - (np.linalg.eigvalsh(A)[0] + shift) * np.eye(3)):
        assert _shifted_bound(C, m)[0][0] == 0.0


def test_rank_one_bound_edge_cases():
    A = np.diag([1.0, 2.0, 4.0])
    assert _shifted_bound(A, np.zeros(3))[0][0] == np.inf
    assert _shifted_bound(A, [1.0, 0.0, 0.0])[0][0] == 1.0
    # singular counts as not positive definite: no room is claimed
    assert _shifted_bound(np.diag([1.0, 0.0, 4.0]), [1.0, 0.0, 0.0])[0][0] == 0.0
    assert _shifted_bound(np.diag([1.0, -1.0, -4.0]), [1.0, 0.0, 0.0])[0][0] == 0.0


def _probe_directions_loop(q, cfg):
    """The reference for _probe_directions: the in-pair mixes drawn and
    normalized one at a time, each as a pair (integers, uniform)."""
    rng = np.random.default_rng(cfg.seed)
    n_rand = cfg.probe_directions // 2
    R = rng.standard_normal((n_rand, 9))
    R /= np.linalg.norm(R, axis=1)[:, None]
    V = np.linalg.eigh(q.gram)[1].T
    aligned = list(V[:cfg.probe_directions - n_rand])
    while len(aligned) < cfg.probe_directions - n_rand:
        i, j = rng.integers(0, 9, size=2)
        t = rng.uniform(0.0, 2.0 * np.pi)
        v = np.cos(t) * V[i] + np.sin(t) * V[j]
        aligned.append(v / np.linalg.norm(v))
    return np.concatenate([R, aligned])


@pytest.mark.parametrize("n", [1, 4, 19, 20, 32, 256])
def test_probe_directions_match_one_draw_at_a_time(n):
    for name in ("choi", "choi_lam", "convex_identity", "serre"):
        for seed in (0, 1, 42):
            cfg = CertifyConfig(probe_directions=n, seed=seed)
            dirs = certify._probe_directions(catalog(name), cfg)
            assert dirs.shape == (n, 9)
            assert np.array_equal(dirs, _probe_directions_loop(catalog(name), cfg))


def _random_form(kind, rng):
    """A quasiconvex form with a positive margin: PSD, reduced orthotropic,
    or either shifted by a random minor combination."""
    if kind.startswith("psd"):
        A = rng.standard_normal((9, 9))
        q = QuadraticForm(A @ A.T / 9.0 + 0.05 * np.eye(9))
    else:
        A = rng.uniform(-1.0, 1.0, (3, 3))
        q = form_from_reduced(ReducedOrthotropicForm(
            A @ A.T + 0.5 * np.eye(3), *rng.uniform(0.5, 2.0, 3)))
    if kind.endswith("shifted"):
        q = add_null_lagrangian(q, NullLagrangianCoeffs(rng.uniform(-2, 2, 9)))
    return q


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), grid=st.sampled_from([16, 32]),
       kind=st.sampled_from(["psd", "reduced", "psd_shifted",
                             "reduced_shifted"]))
def test_milton_eps_star_is_the_sampled_threshold(seed, grid, kind):
    # one random direction l: Q - eps l^2 just below eps* clears the sampled
    # check (pool, lattice, top-16 refinement of 14 sweeps) at the noise
    # floor, and just above it fails there
    rng = np.random.default_rng(seed)
    q = _random_form(kind, rng)
    m = rng.standard_normal(9)
    m /= np.linalg.norm(m)
    scan = lattice_scan(q, CertifyConfig(grid_resolution=grid,
                                         probe_directions=1))
    with mock.patch.object(certify, "_probe_directions",
                           lambda *_: m[None]):
        eps = milton_extremality_probe(scan).witness["eps_star"]
    assert eps > 0
    P9 = certify._zero_pool(scan)
    Y = np.ascontiguousarray(sphere_lattice(grid).T)
    guard = np.ldexp(certify.GUARD_REL, scan.e)
    stage = [_sampled_stage(q.gram - f * eps * np.outer(m, m), P9, Y, -guard,
                            16, 14) for f in (1.0 - 1e-4, 1.0 + 1e-3)]
    assert stage[0] == 0 and stage[1] > 0


def test_milton_requires_quasiconvex():
    with pytest.raises(PreconditionError):
        milton_extremality_probe(lattice_scan(QuadraticForm(-np.eye(9)), FAST))


def test_extreme_point_identity_refuted():
    q = form_from_reduced(ReducedOrthotropicForm(np.eye(3), 1.0, 1.0, 1.0))
    rep = extreme_point_probe(lattice_scan(q, FAST))
    assert rep.verdict == "refuted"
    assert rep.witness["margin_q1"] >= -1e-9
    assert rep.witness["margin_complement"] >= -1e-9


def test_extreme_point_layout_and_positivity_preconditions():
    with pytest.raises(PreconditionError, match="layout"):
        extreme_point_probe(lattice_scan(catalog("serre", eps=0.0), FAST))
    a = np.eye(3)
    q = form_from_reduced(ReducedOrthotropicForm(a, 0.0, 1.0, 1.0))
    with pytest.raises(PreconditionError, match="s1"):
        extreme_point_probe(lattice_scan(q, FAST))


def test_extreme_point_accepts_reduced_voigt_equivalent():
    from quasicone.forms import OrthotropicCoefficients, reduce_modulo_null_lagrangians
    c = OrthotropicCoefficients(C11=2, C22=2, C33=2, C12=0.3, C13=0.3,
                                C23=0.3, C44=0.8, C55=0.8, C66=0.8)
    q = form_from_reduced(reduce_modulo_null_lagrangians(c))
    rep = extreme_point_probe(lattice_scan(q, FAST))
    assert rep.witness["layout"] == "paired"
    assert rep.verdict == "refuted"  # interior form, splittings abound


def test_extreme_point_scaling_invariance_of_verdict():
    q = form_from_reduced(ReducedOrthotropicForm(np.eye(3), 1.0, 1.0, 1.0))
    r1 = extreme_point_probe(lattice_scan(q, FAST))
    r2 = extreme_point_probe(lattice_scan(q.scaled(2.0), FAST))
    assert r1.verdict == r2.verdict == "refuted"


def test_extreme_point_verdict_at_1e200():
    # |theta| is taken on theta scaled by a power of two, so it does not
    # overflow to inf, which made the consistent threshold inf
    cfg = CertifyConfig(grid_resolution=16, probe_directions=2)
    q = form_from_reduced(ReducedOrthotropicForm(np.eye(3), 1.0, 1.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = extreme_point_probe(lattice_scan(q.scaled(1e200), cfg))
    ref = extreme_point_probe(lattice_scan(q, cfg))
    assert big.verdict == ref.verdict == "refuted"
    assert big.value > certify.EXTREME_POINT_REL * 1e200


def _pencil_bisection(A, B):
    """The largest delta with lambda_min(A +- delta B) >= 0, by bisection."""
    def ok(t):
        return min(np.linalg.eigvalsh(A + t * B)[0],
                   np.linalg.eigvalsh(A - t * B)[0]) >= 0

    lo, hi = 0.0, 1.0
    while ok(hi):
        lo, hi = hi, 2.0 * hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


@settings(max_examples=60, deadline=None)
@given(R=arrays(float, (3, 3), elements=st.floats(-2.0, 2.0)),
       B=arrays(float, (3, 3), elements=st.just(0.0) | st.floats(0.05, 2.0)
                | st.floats(-2.0, -0.05)),
       shift=st.floats(1e-3, 2.0))
def test_pencil_bound_matches_eigvalsh_bisection(R, B, shift):
    A = R @ R.T + shift * np.eye(3)
    B = B + B.T
    lowest = np.linalg.eigvalsh(A)[0]
    for M in (A, -A, A - (lowest + shift) * np.eye(3)):
        C, Li, pd = certify._whiten(M[None], B[None])
        # the lattice stage's bound (eigvals3) and the refinement's
        # (eigmin3 of -C^2, with its minimizer)
        lam = eigvals3(C)
        lattice = certify._ray_bound(np.maximum(lam[:, 2], -lam[:, 0]), pd)[0]
        refine, x = certify._pencil_step(C, Li, pd)
        if M is not A:
            # not positive definite: no room at all
            assert not pd[0] and lattice == refine[0] == 0.0
        elif not np.any(B):
            assert pd[0] and lattice == refine[0] == np.inf
        else:
            ref = _pencil_bisection(A, B)
            # eigvals3's lambda_max keeps sqrt(eps) of the span where the
            # upper pair nearly coincides
            assert lattice == pytest.approx(ref, rel=1e-7)
            assert refine[0] == pytest.approx(ref, rel=1e-8)
            x = x[:, 0]
            assert np.linalg.norm(x) == pytest.approx(1.0)
            assert x @ A @ x / abs(x @ B @ x) == pytest.approx(ref, rel=1e-8)


@pytest.mark.parametrize("cfg", [
    CertifyConfig(grid_resolution=32, probe_directions=4), CertifyConfig()])
def test_pencil_step_sends_no_row_to_lapack(monkeypatch, cfg):
    # choi_lam's pencils near rank one have eigenvalues (0, 0, rho), whose
    # nearly repeated lower pair the closed form leaves to LAPACK, while
    # -C^2 has eigenvalues (-rho^2, 0, 0) and the lower gap rho^2
    pencil_step = certify._pencil_step
    rows, inside = [], [False]

    def spy(fn):
        def counted(a, *args, **kw):
            if inside[0]:
                rows.append(int(np.prod(np.shape(a)[:-2])))
            return fn(a, *args, **kw)
        return counted

    def step(*args):
        inside[0] = True
        try:
            return pencil_step(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(certify, "_pencil_step", step)
    monkeypatch.setattr(np.linalg, "eigh", spy(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", spy(np.linalg.eigvalsh))
    rep = extreme_point_probe(lattice_scan(catalog("choi_lam"), cfg))
    assert rep.verdict == "consistent"
    assert rows == []


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_extreme_point_delta_star_is_the_sampled_threshold(seed):
    # the probe's one seeded direction d: Q1 = theta/2 + delta d and Q - Q1
    # both clear the sampled check (pool, grid-32 lattice, top-12
    # refinement of 16 sweeps) at the floor -2^e tol just below delta*, and
    # one of them fails there just above it
    q = _random_form("reduced", np.random.default_rng(seed))
    cfg = CertifyConfig(grid_resolution=32, probe_directions=1, seed=seed)
    scan = lattice_scan(q, cfg)
    w = extreme_point_probe(scan).witness
    theta, d = np.array(w["theta_q"]), np.array(w["direction"])
    assert 0 < w["delta_star"] < 8 * np.linalg.norm(theta)
    P9 = certify._zero_pool(scan)
    Y = np.ascontiguousarray(sphere_lattice(32).T)
    for f, clears in ((1 - 1e-4, True), (1 + 1e-3, False)):
        q1 = form_from_theta(w["layout"],
                             0.5 * theta + f * w["delta_star"] * d).gram
        stages = [_sampled_stage(g, P9, Y, -np.ldexp(cfg.tol, scan.e), 12, 16)
                  for g in (q1, q.gram - q1)]
        assert (max(stages) == 0) == clears


def test_extremal_polynomial_norm_cubed_inconclusive():
    # det T(y) = |y|^6 has no real zeros: no constraints on the 28 monomials
    rep = extremal_polynomial_probe(lattice_scan(catalog("convex_identity"),
                                                 FAST))
    assert rep.verdict == "inconclusive"
    assert rep.value == 28.0
    assert rep.witness["exact_zeros"] == 0


def _exact_zero_of(p, z):
    """Whether p and its gradient vanish at the rational point z, exactly."""
    return all(sum(Fraction(c) * z[0] ** e[0] * z[1] ** e[1] * z[2] ** e[2]
                   for e, c in f.terms.items()) == 0
               for f in [p] + p.gradient())


def test_extremal_polynomial_proves_a_perfect_square():
    # w1 xi11^2 + w2 xi22^2 + w3 xi33^2: det T(y) = w1 w2 w3 (y1 y2 y3)^2, a
    # square whose Newton polytope is one point, so it is extremal, and the
    # same exact rank proves it
    q = QuadraticForm(np.diag([1.0, 0, 0, 0, 2.0, 0, 0, 0, 3.0]))
    rep = extremal_polynomial_probe(lattice_scan(q, FAST))
    assert (rep.verdict, rep.value) == ("consistent", 1.0)
    w = rep.witness
    assert w["newton_polytope"] == [[2, 2, 2]]
    assert "perfect_square_root" not in w
    zeros = [tuple(Fraction(u) for u in z) for z in w["zeros"]]
    assert zeros and w["exact_zeros"] == len(zeros) <= w["candidates"]
    p = acoustic_det(acoustic_matrix(q))
    assert all(_exact_zero_of(p, z) for z in zeros)


def _integer_rank(rows):
    """Rank of an integer matrix by fraction-free elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            rows[i] = [rows[rank][col] * u - rows[i][col] * t
                       for u, t in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_extremal_polynomial_choi_lam_det():
    # Choi and Lam (1977): x^4 z^2 + x^2 y^4 + y^2 z^4 - 3 x^2 y^2 z^2 is
    # extremal, so the exact nullspace is span{p}
    q = catalog("choi_lam")
    p = acoustic_det(acoustic_matrix(q))
    rep = extremal_polynomial_probe(lattice_scan(q, FAST))
    assert rep.verdict == "consistent"
    assert rep.value == 1.0
    w = rep.witness
    assert w["method"] == "exact" and w["nullspace_dim"] == 1
    # every reported zero is an exact zero of p, the four (1, +-1, +-1) too
    zeros = [tuple(Fraction(u) for u in z) for z in w["zeros"]]
    assert w["exact_zeros"] == len(zeros) <= w["candidates"]
    assert {(1, s2, s3) for s2 in (1, -1) for s3 in (1, -1)} <= set(zeros)
    for z in zeros:
        assert sum(Fraction(c) * z[0] ** e[0] * z[1] ** e[1] * z[2] ** e[2]
                   for e, c in p.terms.items()) == 0
    # independent oracle: N(p) is the triangle on p's three outer vertices,
    # and the value and gradient rows at the four diagonal zeros alone have
    # integer rank 9 on it
    V = np.array([(4, 0, 2), (2, 4, 0), (0, 2, 4)]).T
    cols = [e for e in monomial_exponents(6)
            if np.all(np.linalg.solve(V, e) >= -1e-12)]
    assert len(cols) == 10
    assert [tuple(e) for e in w["newton_polytope"]] == cols
    rows = []
    for z in [(1, s2, s3) for s2 in (1, -1) for s3 in (1, -1)]:
        rows.append([z[0] ** e[0] * z[1] ** e[1] * z[2] ** e[2] for e in cols])
        for v in range(3):
            rows.append([e[v] * int(np.prod([z[i] ** (e[i] - (i == v))
                                             for i in range(3)]))
                         if e[v] else 0 for e in cols])
    assert len(cols) - _integer_rank(rows) == 1


def test_extremal_polynomial_choi_lam_grid_96():
    rep = extremal_polynomial_probe(lattice_scan(
        catalog("choi_lam"), CertifyConfig(grid_resolution=96)))
    assert rep.verdict == "consistent" and rep.value == 1.0


def test_extremal_polynomial_rejects_negative():
    # serre(0.05) has a negative sampled margin and a negative det somewhere
    with pytest.raises(PreconditionError, match="quasiconvex"):
        extremal_polynomial_probe(lattice_scan(catalog("serre", eps=0.05),
                                               FAST))


_GRID32 = CertifyConfig(grid_resolution=32)
_SIGNED_PERMUTATIONS = [np.eye(3)[list(perm)] * np.array(signs)[:, None]
                        for perm in itertools.permutations(range(3))
                        for signs in itertools.product((1, -1), repeat=3)]


def _y_transformed(gram, S):
    """Gram of the form whose acoustic matrix is T(S y)."""
    return np.einsum("iakb,aj,bl->ijkl", gram.reshape(3, 3, 3, 3),
                     S, S).reshape(9, 9)


def _probe_of(gram):
    return extremal_polynomial_probe(lattice_scan(QuadraticForm(gram),
                                                  _GRID32))


@functools.lru_cache(maxsize=None)
def _choi_lam_base():
    return _probe_of(catalog("choi_lam").gram)


@settings(max_examples=20, deadline=None)
@given(k=st.integers(-1000, 1000))
@example(k=27)
@example(k=350)
@example(k=-350)
@example(k=400)
@example(k=-400)
@example(k=1000)
@example(k=-1000)
def test_extremal_polynomial_invariant_under_power_of_two_scaling(k):
    # the probe builds det T(y) on the scan's 2^-e-scaled Gram, the same
    # bits at every 2^k, and the scan's zero cut 2^e tol scales with Q
    base = _choi_lam_base()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = _probe_of(2.0 ** k * catalog("choi_lam").gram)
    assert rep.to_json() == base.to_json()


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_extremal_polynomial_of_convex_identity_at_extreme_scales(scale):
    # det T(y) = |y|^6 times a scale whose cube over- or underflows: on the
    # scan's frame it is built exactly as at scale 1, with no zeros
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = _probe_of(scale * catalog("convex_identity").gram)
    assert (rep.verdict, rep.value) == ("inconclusive", 28.0)
    assert rep.witness["nullspace_dim"] == 28


@settings(max_examples=20, deadline=None)
@given(S=st.sampled_from(_SIGNED_PERMUTATIONS))
def test_extremal_polynomial_invariant_under_signed_axis_permutations(S):
    # the zero set of choi_lam's det is invariant as a set of lines
    base = _choi_lam_base()
    rep = _probe_of(_y_transformed(catalog("choi_lam").gram, S))
    assert (rep.verdict, rep.value) == (base.verdict, base.value) \
        == ("consistent", 1.0)
    assert rep.witness["zeros"] == base.witness["zeros"]


_generic_orthogonal = arrays(np.float64, (3, 3), elements=st.floats(-1.0, 1.0)) \
    .filter(lambda M: np.linalg.svd(M, compute_uv=False)[-1] >= 0.1) \
    .map(lambda M: np.linalg.qr(M)[0]) \
    .filter(lambda S: np.max(np.abs(S)) <= 0.999)


@settings(max_examples=20, deadline=None)
@given(S=_generic_orthogonal)
def test_extremal_polynomial_never_consistent_on_rotated_choi_lam(S):
    # a generic orthogonal change of y (no axis within 2.5 degrees of an
    # axis) makes the zeros irrational: near-zeros must never become a proof
    rep = _probe_of(_y_transformed(catalog("choi_lam").gram, S))
    assert rep.verdict == "inconclusive"


def _catalog(name, eps):
    """catalog(name), with the parameter eps for serre only."""
    return catalog(name, eps=eps) if name == "serre" else catalog(name)


def test_polyconvexity_identity():
    rep = polyconvexity_test(catalog("convex_identity"), FAST)
    assert rep.verdict == "consistent"
    assert rep.value >= 1.0 - 1e-6


def test_polyconvexity_single_minor():
    rep = polyconvexity_test(QuadraticForm(minor_gram_basis()[0]), FAST)
    assert rep.verdict == "consistent"
    assert rep.value >= -1e-8


def test_polyconvexity_choi_refuted():
    rep = polyconvexity_test(catalog("choi"), FAST)
    assert rep.verdict == "refuted"
    assert rep.value <= -1e-3


def test_polyconvexity_invariant_under_minor_shift():
    rng = np.random.default_rng(3)
    q = catalog("choi")
    base = polyconvexity_test(q, FAST)
    for _ in range(3):
        shifted = add_null_lagrangian(
            q, NullLagrangianCoeffs(rng.uniform(-2, 2, 9)))
        rep = polyconvexity_test(shifted, FAST)
        assert rep.verdict == base.verdict
        assert abs(rep.value - base.value) <= 1e-8 * (1 + abs(base.value))


def test_polyconvexity_witness_revalidates():
    rep = polyconvexity_test(catalog("choi"), FAST)
    c = np.array(rep.witness["coefficients"])
    M = catalog("choi").gram - sum(
        ck * Nk for ck, Nk in zip(c, minor_gram_basis()))
    assert np.linalg.eigvalsh(M)[0] == pytest.approx(rep.value, abs=1e-12)


def test_polyconvexity_serre_zero_consistent():
    # serre(0) is a sum of squares, hence convex and polyconvex
    rep = polyconvexity_test(catalog("serre", eps=0.0), FAST)
    assert rep.verdict == "consistent"
    assert rep.witness["method"] == "barrier"


@pytest.mark.parametrize("eps", [0.01, 0.05])
def test_polyconvexity_serre_positive_eps_refuted(eps):
    rep = polyconvexity_test(catalog("serre", eps=eps), FAST)
    assert rep.verdict == "refuted"
    assert rep.value == pytest.approx(-eps, abs=1e-8)


def test_polyconvexity_choi_dual_witness_rechecks():
    q = catalog("choi")
    rep = polyconvexity_test(q, FAST)
    w = rep.witness
    Z = np.array(w["dual_matrix"])
    np.testing.assert_array_equal(Z, Z.T)
    assert np.linalg.eigvalsh(Z)[0] >= -1e-12
    for N in minor_gram_basis():
        assert abs(np.sum(N * Z)) <= 1e-12
    assert np.trace(Z) == pytest.approx(1.0, abs=1e-12)
    bound = float(np.sum(q.gram * Z))
    assert bound == pytest.approx(w["dual_bound"], abs=1e-14)
    assert bound < -1e-5
    # weak duality: the primal value never exceeds the dual bound
    assert w["primal"] == rep.value <= bound
    assert w["gap"] == pytest.approx(bound - rep.value, abs=1e-14)
    assert 0 < w["newton_steps"]


@pytest.mark.parametrize("a, verdict", [(-3e-6, "inconclusive"),
                                        (-3e-5, "refuted")])
def test_polyconvexity_verdict_band(a, verdict):
    # phi* = a for diag(1 + a, a, ..., a), a unit-scale form: the first
    # coordinate is xi_11, on which every minor vanishes, so
    # Z = (I - e_1 e_1^T) / 8 is dual feasible with <G, Z> = a
    G = a * np.eye(9)
    G[0, 0] += 1.0
    rep = polyconvexity_test(QuadraticForm(G), FAST)
    assert rep.verdict == verdict
    # the bracket holds up to rounding in the eigensolve
    assert rep.value - 1e-15 <= a <= rep.witness["dual_bound"] + 1e-15
    assert rep.witness["gap"] <= 1e-9


@settings(max_examples=40, deadline=None)
@given(form=st.sampled_from([("choi", 0.0), ("choi_lam", 0.0), ("serre", 0.05),
                             ("serre", 0.0), ("convex_identity", 0.0)]),
       k=st.integers(-9, 9))
def test_polyconvexity_verdict_is_scale_invariant(form, k):
    q = _catalog(*form)
    base = polyconvexity_test(q, FAST)
    rep = polyconvexity_test(q.scaled(10.0 ** k), FAST)
    assert rep.verdict == base.verdict
    # to the barrier's duality gap, 1e-10 of the scale
    assert rep.value == pytest.approx(10.0 ** k * base.value, rel=1e-6,
                                      abs=1e-9 * 10.0 ** k)


def test_polyconvexity_independent_of_probe_directions():
    q = catalog("choi")
    reps = [polyconvexity_test(q, CertifyConfig(probe_directions=n))
            for n in (4, 256)]
    assert reps[0].to_json() == reps[1].to_json()


def test_probe_reports_serialize():
    rep = polyconvexity_test(catalog("convex_identity"), FAST)
    j = rep.to_json()
    assert j["kind"] == "polyconvexity"
    assert j["verdict"] in ("consistent", "refuted", "inconclusive")


# ---------------------------------------------------------------------------
# one frame: every floor is a constant on the Gram scaled by 2^-e

_TINY = CertifyConfig(grid_resolution=16, probe_directions=2)
_CATALOG = [("convex_identity", 0.0), ("choi", 0.0), ("choi_lam", 0.0),
            ("serre", 0.0), ("serre", 0.05)]


def _outcome(probe, scan):
    try:
        return probe(scan).verdict
    except PreconditionError as exc:
        return "precondition: " + str(exc).split(" (")[0]


@functools.lru_cache(maxsize=None)
def _scale_outcomes(name, eps, k):
    """require_quasiconvex, Milton and the extreme point on 10^k Q."""
    scan = lattice_scan(_catalog(name, eps).scaled(10.0 ** k), _TINY)
    try:
        scan.require_quasiconvex("scale test")
        quasiconvex = True
    except PreconditionError:
        quasiconvex = False
    return (quasiconvex, _outcome(milton_extremality_probe, scan),
            _outcome(extreme_point_probe, scan))


@settings(max_examples=40, deadline=None)
@given(form=st.sampled_from(_CATALOG), k=st.integers(-9, 9))
def test_margin_based_verdicts_are_scale_invariant(form, k):
    # Q and 10^k Q are quasiconvex, extremal and extreme points together
    assert _scale_outcomes(*form, k) == _scale_outcomes(*form, 0)


@pytest.mark.parametrize("scale", [1e-5, 1e-7, 1e-9, 1e-12, 1e-150])
def test_milton_refutes_convex_identity_at_every_scale(scale):
    # eps* = margin scales with Q; the thresholds are read in the frame
    cfg = CertifyConfig(grid_resolution=32, probe_directions=4)
    q = catalog("convex_identity").scaled(scale)
    rep = milton_extremality_probe(lattice_scan(q, cfg))
    assert rep.verdict == "refuted"
    assert rep.value >= 0.99 * scale


def test_probes_run_on_choi_lam_at_2_27():
    # a scan margin of rounding size, -1.5e-8 here, is no precondition
    # failure once the floor is 2^e tol
    cfg = CertifyConfig(grid_resolution=32, probe_directions=4)
    scan = lattice_scan(catalog("choi_lam").scaled(2.0 ** 27), cfg)
    assert -1e-7 < scan.margin < -cfg.tol
    for probe in (milton_extremality_probe, extreme_point_probe,
                  extremal_polynomial_probe):
        assert probe(scan).verdict == "consistent"


@pytest.mark.parametrize("scale", [1e-5, 1e-7, 1e-9, 1e-12])
def test_extreme_point_choi_lam_consistent_at_small_scales(scale):
    # the pencils' floor tol is relative to the form, so a small scale no
    # longer admits a splitting through the floor alone
    cfg = CertifyConfig(grid_resolution=32, probe_directions=4)
    q = catalog("choi_lam").scaled(scale)
    assert extreme_point_probe(lattice_scan(q, cfg)).verdict == "consistent"


_AXIS_PERMUTATIONS = [np.eye(3)[list(p)] for p in itertools.permutations(range(3))]


@functools.lru_cache(maxsize=None)
def _permuted_verdicts(name, eps, perm):
    """Milton, extreme point and polyconvexity on xi -> Q(P^T xi P)."""
    P = _AXIS_PERMUTATIONS[perm]
    K = np.kron(P.T, P.T)
    if name == "identity":
        q = form_from_reduced(ReducedOrthotropicForm(np.eye(3), 1.0, 1.0, 1.0))
    else:
        q = _catalog(name, eps)
    q = QuadraticForm(K.T @ q.gram @ K)
    scan = lattice_scan(q, _TINY)
    return (_outcome(milton_extremality_probe, scan),
            _outcome(extreme_point_probe, scan),
            _outcome(lambda s: polyconvexity_test(s.form, s.cfg), scan))


@settings(max_examples=30, deadline=None)
@given(form=st.sampled_from(_CATALOG + [("identity", 0.0)]),
       perm=st.integers(1, 5))
def test_verdicts_are_invariant_under_axis_permutations(form, perm):
    # a permutation of the axes maps the orthotropic cone onto itself; odd
    # ones turn the single-shear layout into its transpose
    assert _permuted_verdicts(*form, perm) == _permuted_verdicts(*form, 0)
