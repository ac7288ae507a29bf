import dataclasses
import functools
import itertools
import json
import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from quasicone.determinant import _SEXTIC_EXPS, acoustic_det
from quasicone.forms import (NullLagrangianCoeffs, QuadraticForm,
                             ReducedOrthotropicForm, acoustic_matrix,
                             add_null_lagrangian, biquadratic_eval, catalog,
                             detect_shear_layout, form_from_json,
                             form_from_reduced,
                             form_from_theta, gram_tensor, minor_gram_basis,
                             shear_layout_basis)
from quasicone.poly import monomial_exponents
from quasicone.symeig import eigmin3, eigvals3

FAST = CertifyConfig(grid_resolution=32, probe_directions=32, seed=7)


def test_config_validation():
    with pytest.raises(ValueError):
        CertifyConfig(grid_resolution=4)
    with pytest.raises(ValueError):
        CertifyConfig(grid_resolution=513)
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            CertifyConfig(tol=tol)
    with pytest.raises(ValueError):
        CertifyConfig(probe_directions=0)
    # integers only, bool excluded, and a seed numpy's RNG accepts: 32.5
    # would build a lattice of 1,057 points and echo 32.5
    for kw in ({"grid_resolution": 32.5}, {"grid_resolution": True},
               {"seed": -1}, {"seed": 1.0}, {"seed": False},
               {"probe_directions": 4.0}, {"probe_directions": True}):
        with pytest.raises(ValueError):
            CertifyConfig(**kw)


def test_lattice_deterministic_unit():
    Y = sphere_lattice(32)
    np.testing.assert_allclose(np.linalg.norm(Y, axis=1), 1.0, atol=1e-12)
    Y2 = sphere_lattice(32)
    assert Y is Y2  # cached


@pytest.mark.parametrize("grid", [*range(8, 65), 96, 128, 256, 512])
def test_lattice_rows_are_the_sorted_distinct_rounded_points(grid):
    # the rows and their order, bitwise, are those of the np.unique
    # reference: the sort removes no point, so the probes pick the same ones
    n = grid * grid
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    ref = np.unique(np.round(canonical_sign(pts), 12), axis=0)
    ref /= np.linalg.norm(ref, axis=1)[:, None]
    Y = sphere_lattice(grid)
    assert Y.shape == (n, 3) and Y.tobytes() == ref.tobytes()


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
    G4 = acoustic_matrix(q)
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
    # the frame the probes read: exponent, and G4 left in it
    assert scan.e == base.e + k
    assert scan.G4.flags.c_contiguous
    assert scan.G4.tobytes() == base.G4.tobytes()


@pytest.mark.parametrize("k", [-600, -3, 1, 700])
def test_margin_report_states_its_frame(k):
    # a caller of quasiconvexity_margin gates at -tol 2^e, as
    # require_quasiconvex does: Q and 2^k Q differ in e by exactly k
    q = catalog("choi_lam")
    base = quasiconvexity_margin(q, _GRID32).diagnostics
    diag = quasiconvexity_margin(QuadraticForm(np.ldexp(q.gram, k)), _GRID32).diagnostics
    assert base["exponent"] == lattice_scan(q, _GRID32).e == 1
    assert diag == {**base, "exponent": base["exponent"] + k}


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


# choi_lam's seven zero lines in y: the axes and the four diagonals
_CHOI_LAM_LINES = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1],
                            [1, 1, -1], [1, -1, 1], [-1, 1, 1]]) / np.sqrt(
                                [1, 1, 1, 3, 3, 3, 3])[:, None]


@pytest.mark.parametrize("grid", [32, 96])
@pytest.mark.parametrize("shift", [None, 0, 1, 2, 3])
def test_choi_lam_zeros_lie_on_the_exact_lines(grid, shift):
    # the axis zeros are quartic-flat: plain Newton stalled 1e-4 from them,
    # where the values fall below rounding, and the 3x trial lands on them
    # (a minor shift leaves every rank-one value, so every zero, in place)
    q = catalog("choi_lam")
    if shift is not None:
        rng = np.random.default_rng(shift)
        q = add_null_lagrangian(q, NullLagrangianCoeffs(rng.uniform(-2, 2, 9)))
    Y = np.array([y for (_, y) in lattice_scan(
        q, CertifyConfig(grid_resolution=grid)).rank_one_zeros()])
    gap = np.minimum(np.linalg.norm(Y[:, None] - _CHOI_LAM_LINES, axis=2),
                     np.linalg.norm(Y[:, None] + _CHOI_LAM_LINES, axis=2))
    assert len(Y) == 7
    assert sorted(np.argmin(gap, axis=1)) == list(range(7))
    assert np.max(np.min(gap, axis=1)) <= 1e-7


@pytest.mark.parametrize("grid", [32, 96])
@pytest.mark.parametrize("kind", ["choi", "choi_lam"])
def test_quartic_flat_scans_take_few_newton_steps(kind, grid):
    # a counter, not a timer: plain Newton took 12-20 steps on these forms,
    # converging linearly at their quartic-flat zeros, and 3-6 elsewhere
    scans = [lattice_scan(catalog(kind), CertifyConfig(grid_resolution=grid))]
    scans += [lattice_scan(_scan_form(kind, seed, False),
                           CertifyConfig(grid_resolution=grid))
              for seed in range(4)]
    assert max(s.newton_steps for s in scans) <= 8


def _zero_pool_loop(scan):
    """The per-zero loop that _zero_pool batches, on the same helpers and
    the scan's frame G4: each zero (x0, y0), its transverse Hessian's
    eigenvalues and its four unit sweep directions (U w_x, V w_y) in R^6."""
    near = scan.vals <= np.ldexp(1e-10, scan.e)
    reps = _cluster_pairs(scan.X[near], scan.Y[near], scan.vals[near], cap=12)
    out = []
    for (y0, x0, _) in reps:
        _, H, U, V = certify._transverse_hessian(scan.G4, x0[:, None],
                                                 y0[:, None])
        w, W = np.linalg.eigh(H[0])
        out.append((x0, y0, w, np.concatenate([U[0] @ W[:2], V[0] @ W[2:]]).T))
    return out


def _sweep_direction(rows, x0, y0, rho):
    """The unit direction (u_x, u_y) of a sweep row x (x) y at signed radius
    rho from the zero (x0, y0): with M = x y^T, M y0 / (x0^T M y0) is
    x / (x . x0) = x0 + rho u_x, and M^T x0 / (x0^T M y0) is y0 + rho u_y."""
    M = rows.reshape(-1, 3, 3)
    s = (x0 @ M @ y0)[:, None]
    return np.concatenate([M @ y0 / s - x0, x0 @ M / s - y0], axis=1) / rho[:, None]


@pytest.mark.parametrize("name", ["choi", "choi_lam"])
def test_zero_pool_matches_per_zero_loop(name):
    # the zeros' rows, then per zero 4 eigendirections x 56 signed radii.  An
    # eigh basis is fixed only up to sign, and only up to a rotation within
    # an exactly repeated eigenvalue (choi_lam's exact zeros have 1, 1 and
    # 0.4226, 0.4226), so compare each direction group's span, read off
    # the rows at the largest radius, and every row against its direction
    scan = lattice_scan(catalog(name), _GRID32)
    P9 = certify._zero_pool(scan)
    ref = _zero_pool_loop(scan)
    r = len(ref)
    assert r == len(scan.rank_one_zeros())
    assert P9.shape == (225 * r, 9)
    radii = np.concatenate([certify._POOL_RADII, -certify._POOL_RADII])
    n = len(radii)
    for i, (x0, y0, w, D) in enumerate(ref):
        assert np.max(np.abs(P9[i] - np.outer(x0, y0).ravel())) <= 1e-12
        sweeps = P9[r + 4 * n * i:r + 4 * n * (i + 1)].reshape(4, n, 9)
        far = np.argmax(radii)
        U = _sweep_direction(sweeps[:, far], x0, y0, radii[[far] * 4])
        for k in range(4):
            u = U[k]
            x, y = x0 + radii[:, None] * u[:3], y0 + radii[:, None] * u[3:]
            x /= np.linalg.norm(x, axis=1)[:, None]
            y /= np.linalg.norm(y, axis=1)[:, None]
            rebuilt = (x[:, :, None] * y[:, None]).reshape(n, 9)
            assert np.max(np.abs(sweeps[k] - rebuilt)) <= 1e-12
        for group in np.split(np.arange(4), 1 + np.flatnonzero(np.diff(w) > 1e-9)):
            assert len(group) < 4
            span = U[group].T @ U[group]
            assert np.max(np.abs(span - D[group].T @ D[group])) <= 1e-12


def test_zero_pool_is_built_once_per_scan(monkeypatch):
    calls = []

    def counted(scan):
        calls.append(scan)
        return zero_pool(scan)

    zero_pool = certify._zero_pool
    monkeypatch.setattr(certify, "_zero_pool", counted)
    scan = lattice_scan(catalog("choi"), CertifyConfig(grid_resolution=32,
                                                       probe_directions=4))
    milton_extremality_probe(scan)
    extreme_point_probe(scan)
    assert calls == [scan]
    assert not scan.zero_pool.flags.writeable
    np.testing.assert_array_equal(scan.zero_pool, zero_pool(scan))


class _PoolRows(Exception):
    """Carries the pool rows that the extreme point hands its search."""


def _search_pool_rows(dirs, Y, pool_num, pool_rows, *rest):
    raise _PoolRows(pool_rows)


@pytest.mark.parametrize("grid", [32, 96])
def test_layout_pool_quadratics_match_one_basis_at_a_time(grid):
    # the extreme point's nine pool quadratics, summed over each B_k's
    # nonzero entries, bitwise the per-basis einsum, on the catalog's pools
    # and every layout
    for name in ("choi", "choi_lam"):
        scan = lattice_scan(catalog(name), CertifyConfig(grid_resolution=grid))
        P9 = scan.zero_pool
        assert len(P9) > 0
        theta = detect_shear_layout(scan.form)[1]
        for layout in ("paired", "single", "transposed"):
            with mock.patch.object(certify, "detect_shear_layout",
                                   lambda q: (layout, theta)), \
                    mock.patch.object(certify, "_ray_search", _search_pool_rows), \
                    pytest.raises(_PoolRows) as rows:
                extreme_point_probe(scan)
            ref = np.array([certify._pool_quadratic(P9, B)
                            for B in shear_layout_basis(layout)])
            np.testing.assert_array_equal(rows.value.args[0], ref)


def _canonical_sign_loop(V):
    """The reference: columns in order, each row signed by its first
    coordinate above 1e-12 in magnitude, 1 where there is none."""
    V = np.array(V, dtype=float)
    sign, undecided = np.ones(len(V)), np.ones(len(V), dtype=bool)
    for col in V.T:
        pick = undecided & (np.abs(col) > 1e-12)
        sign[pick] = np.sign(col[pick])
        undecided &= ~pick
    return V * sign[:, None]


def test_canonical_sign_matches_the_column_loop():
    # bitwise, signed zeros included, on entries at and around the cut
    rng = np.random.default_rng(0)
    entries = np.array([0.0, -0.0, 1e-13, -1e-13, 1e-12, -1e-12, 2e-12, -2e-12,
                        0.5, -0.5])
    for _ in range(200):
        V = rng.choice(entries, (int(rng.integers(0, 6)), 3))
        assert canonical_sign(V).tobytes() == _canonical_sign_loop(V).tobytes()
        for v in V:
            assert canonical_sign(v).tobytes() == _canonical_sign_loop(v[None])[0].tobytes()


def test_choi_reports_each_axis_zero_once():
    # the three axis lines are choi's zeros; e1 was missed and e3 reported
    # twice while the refinement left these quartic-flat zeros unconverged
    scan = lattice_scan(catalog("choi"), _GRID32)
    ys = [y for (_, y) in scan.rank_one_zeros()]
    ys += [y for (y, _, _) in scan.margin_report().minimizers]
    axes = sorted(int(np.argmax(np.abs(y))) for y in ys)
    assert axes == [0, 0, 1, 1, 2, 2]
    assert all(np.max(np.abs(y)) >= 1.0 - 1e-6 for y in ys)


# rows of a Newton step's stacked eigen-solve: every trial step of every
# seed, 480 at grid 96, 19x below its 9,216-point lattice
_STEP_ROWS = certify.SEED_CAP * len(certify._STEPS)


def test_lattice_scan_refines_at_most_the_seed_cap():
    # a counter, not a timer: a grid-96 scan solves the lattice with one
    # values-only eigvals3, the seeds with one eigmin3 of at most SEED_CAP
    # rows, and each Newton step with one eigmin3 of at most _STEP_ROWS, so
    # a return to refining every lattice point, to eigenvectors over the
    # whole lattice, or to one solve per trial step fails here
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
    # each step one stack of every trial step of every seed
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


def _lattice_passes(fn):
    """fn() and the lattice passes it made, as eigvals3 calls (one per
    scan's lattice)."""
    rows = []

    def counted(M, *args):
        rows.append(len(M))
        return eigvals3(M, *args)

    with mock.patch.object(certify, "eigvals3", counted):
        return fn(), len(rows)


def test_margin_then_zeros_scan_the_form_once():
    # the margin-scan pair of calls: one lattice pass, both read the one
    # kept scan
    q = catalog("choi_lam")
    (report, zeros), passes = _lattice_passes(lambda: (
        quasiconvexity_margin(q, CertifyConfig()), rank_one_zeros(q, CertifyConfig())))
    assert passes == 1
    scan = lattice_scan(q, CertifyConfig())
    assert report == scan.margin_report()
    assert zeros == scan.rank_one_zeros() and len(zeros) == 7


def test_lattice_scan_keeps_no_scan():
    # lattice_scan is pure: two calls on one form make two lattice passes
    # and two equal scans; only the wrappers keep a scan
    q = catalog("choi")
    (a, b), passes = _lattice_passes(lambda: (lattice_scan(q, _GRID32),
                                              lattice_scan(q, _GRID32)))
    assert passes == 2 and a is not b
    assert a.margin_report() == b.margin_report()


def _kept_scans(fn):
    """fn() and the scans that lattice_scan made for it."""
    scans = []
    real = certify.lattice_scan

    def spy(q, cfg):
        scans.append(real(q, cfg))
        return scans[-1]

    with mock.patch.object(certify, "lattice_scan", spy):
        return fn(), scans


def test_kept_scan_needs_the_same_gram_bits_and_config():
    q = catalog("choi")
    _, scans = _kept_scans(lambda: (quasiconvexity_margin(q, _GRID32),
                                    rank_one_zeros(QuadraticForm(q.gram.copy()), _GRID32)))
    assert len(scans) == 1
    g = q.gram.copy()
    g[4, 4] = np.nextafter(g[4, 4], np.inf)     # one bit, still symmetric
    for other in ((QuadraticForm(g), _GRID32),
                  (q, dataclasses.replace(_GRID32, tol=2e-9)),
                  (q, dataclasses.replace(_GRID32, seed=1)),
                  (q, dataclasses.replace(_GRID32, grid_resolution=33))):
        _, scans = _kept_scans(lambda: (quasiconvexity_margin(*other),
                                        quasiconvexity_margin(q, _GRID32)))
        assert len(scans) == 2
        assert scans[0].form.gram.tobytes() == other[0].gram.tobytes()
        assert scans[0].cfg == other[1]


def test_kept_scan_is_read_only():
    q = catalog("choi_lam")
    _, (scan,) = _kept_scans(lambda: quasiconvexity_margin(q, _GRID32))
    for name in ("G4", "lattice_lam", "X", "Y", "vals"):
        a = getattr(scan, name)
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 0.0
        with pytest.raises(ValueError):
            a *= 2.0
    zeros, scans = _kept_scans(lambda: rank_one_zeros(q, _GRID32))
    assert scans == [] and zeros == scan.rank_one_zeros()


@pytest.mark.parametrize("kind, seed, grid",
                         [("choi_lam", 3, 32), ("psd", 4, 96), ("choi", 5, 96)])
def test_kept_scan_equals_a_fresh_scan_bitwise(kind, seed, grid):
    q, cfg = _scan_form(kind, seed, True), CertifyConfig(grid_resolution=grid)
    _, (kept,) = _kept_scans(lambda: (quasiconvexity_margin(q, cfg),
                                      quasiconvexity_margin(q, cfg)))
    # another form replaces the kept scan; lattice_scan itself keeps none
    _, scans = _kept_scans(lambda: (quasiconvexity_margin(catalog("choi"), cfg),
                                    quasiconvexity_margin(q, cfg)))
    for fresh in (scans[1], lattice_scan(q, cfg)):
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


@pytest.mark.parametrize("grid", [8, 9, 16, 32, 96])
def test_basin_seeds_match_lower_triangle_shadowing(grid):
    # at grids 8 and 9 the pool is the whole lattice, 64 or 81 points, and
    # its last row block is partial
    Y0 = np.ascontiguousarray(sphere_lattice(grid).T)
    forms = [catalog(name) for name in ("choi", "choi_lam", "convex_identity",
                                        "serre")]
    forms += [_scan_form(kind, seed, seed % 2 == 0)
              for kind in ("psd", "indefinite", "choi", "choi_lam")
              for seed in range(3)]
    for q in forms:
        lam = eigvals3(_acoustic_stack(Y0, acoustic_matrix(q).transpose(2, 3, 0, 1)))[:, 0]
        assert np.array_equal(certify._basin_seeds(Y0, lam),
                              _basin_seeds_tril(Y0, lam))


def _eigmin3_lattice_scan(q, cfg):
    """The reference for lattice_scan's values-only lattice pass: one
    eigmin3 solves every lattice point, and its values pick the seeds and
    its vectors start Newton, on the same helpers."""
    e = np.frexp(np.max(np.abs(q.gram)))[1]
    G4 = np.ascontiguousarray(np.ldexp(acoustic_matrix(q), -e))
    Y0 = np.ascontiguousarray(sphere_lattice(cfg.grid_resolution).T)
    T = _acoustic_stack(Y0, G4.transpose(2, 3, 0, 1))
    lam, X0 = eigmin3(T)
    seeds = certify._basin_seeds(Y0, lam)
    X, Y, vals, steps = certify._newton(G4, X0.T[:, seeds], Y0[:, seeds],
                                        lam[seeds])
    for a in (lam, vals):
        np.ldexp(a, e, out=a)
    margin = float(min(np.min(vals), np.min(lam)))
    return certify.LatticeScan(q, cfg, margin, int(e), G4, lam, X.T, Y.T,
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


def _newton_one_trial_at_a_time(G4, X, Y, vals):
    """The reference for _newton's stacked trials: the same Newton step,
    then one eigmin3 per trial, the 3x trial first, then the halvings until
    each seed has one whose value falls; a seed takes the 3x trial where it
    is no higher than that halving and its start, else that halving."""
    Ky = G4.transpose(2, 3, 0, 1)
    X, Y, vals = X.copy(), Y.copy(), vals.copy()
    live, steps = np.arange(len(vals)), 0

    def trial(i, dy):
        Yt = Y[:, i] + dy
        Yt /= np.linalg.norm(Yt, axis=0)
        vt, Xt = eigmin3(_acoustic_stack(Yt, Ky))
        return vt, Xt.T, Yt

    while len(live) and steps < certify.NEWTON_ITERS:
        steps += 1
        g, H, _, V = certify._transverse_hessian(G4, X[:, live], Y[:, live])
        w, W = np.linalg.eigh(H)
        w += np.maximum(0.0, certify.NEWTON_SHIFT - w[:, :1])
        d = -(W @ ((g[:, None] @ W)[:, 0] / w)[:, :, None])[:, :, 0]
        d *= np.minimum(1.0, certify.NEWTON_STEP_MAX / np.maximum(
            np.linalg.norm(d, axis=1), 1e-300))[:, None]
        dy = (V @ d[:, 2:, None])[:, :, 0].T
        before = vals[live]
        v3, X3, Y3 = trial(live, dy * 3.0)
        # the first falling halving of each seed, or its start
        vh, Xh, Yh = before.copy(), X[:, live], Y[:, live]
        k = np.arange(len(live))
        for _ in range(certify.NEWTON_BACKTRACKS + 1):
            vt, Xt, Yt = trial(live[k], dy[:, k])
            better = vt < before[k]
            j = k[better]
            vh[j], Xh[:, j], Yh[:, j] = vt[better], Xt[:, better], Yt[:, better]
            k = k[~better]
            if not len(k):
                break
            dy *= 0.5
        take3 = v3 <= vh
        i = live[take3]
        X[:, i], Y[:, i], vals[i] = X3[:, take3], Y3[:, take3], v3[take3]
        i = live[~take3]
        X[:, i], Y[:, i], vals[i] = Xh[:, ~take3], Yh[:, ~take3], vh[~take3]
        live = live[before - vals[live] > certify.NEWTON_TOL]
    return vals, steps


@pytest.mark.parametrize("kind, seed, grid", [
    ("psd", 0, 32), ("indefinite", 1, 96), ("choi", 2, 32), ("choi", 3, 96),
    ("choi_lam", 4, 32), ("choi_lam", 5, 96)])
def test_stacked_halvings_match_one_halving_at_a_time(kind, seed, grid,
                                                     monkeypatch):
    # the same trial points (2^-k scaling is exact, and 3x rounds alike in
    # both), so only the GEMM's column rounding can move a value: after one
    # step and after the whole search each seed is within 8 eps of the
    # sequential search in the scan's frame, never above its start; taking
    # the shortest falling halving in place of the longest moves the values
    # further
    scan = lattice_scan(_scan_form(kind, seed, seed % 2 == 1),
                        CertifyConfig(grid_resolution=grid))
    Y0 = np.ascontiguousarray(sphere_lattice(grid).T)
    seeds = certify._basin_seeds(Y0, np.ldexp(scan.lattice_lam, -scan.e))
    T = _acoustic_stack(Y0, scan.G4.transpose(2, 3, 0, 1))
    vals, X = eigmin3(T[seeds])
    start = (scan.G4, X.T, Y0[:, seeds], vals)
    *_, new, steps = certify._newton(*start)
    assert np.array_equal(np.ldexp(new, scan.e), scan.vals)
    assert steps == scan.newton_steps and np.all(new <= vals)
    for iters in (1, certify.NEWTON_ITERS):
        monkeypatch.setattr(certify, "NEWTON_ITERS", iters)
        ref, _ = _newton_one_trial_at_a_time(*start)
        new = certify._newton(*start)[2]
        assert np.max(np.abs(new - ref)) <= 8 * np.finfo(float).eps


def test_transverse_hessian_matches_finite_differences():
    # along the curves (x, y)(t) = normalized (x + t U a, y + t V b), f has
    # derivative g . d and second derivative d . H d at t = 0, as the
    # normalizing retraction is of second order
    rng = np.random.default_rng(4)
    A = rng.standard_normal((9, 9))
    G4 = acoustic_matrix(QuadraticForm(A + A.T))
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
    G4 = acoustic_matrix(q)
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
    G4 = acoustic_matrix(QuadraticForm(gram))
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
    # choi's four Milton bounds are pool bounds at or below the consistent
    # line 1e-6, so no direction reaches the lattice or the sweeps and
    # nothing is validated; two of its extreme point's directions leave at
    # the pool and two are swept, settling before the cap of 16 pairs, and
    # its first trial clears, Q1 then Q - Q1
    d = milton_extremality_probe(scan).witness["diagnostics"]
    assert d == {"directions": 4, "lattice_points": len(sphere_lattice(32)),
                 "pool_points": len(certify._zero_pool(scan)),
                 "lattice_directions": 0, "refined_directions": 0,
                 "refinement_starts": 0, "refinement_sweeps": 0,
                 "refinement_unsettled": 0,
                 "binding": {"pool": 4, "lattice": 0, "refine": 0},
                 "validation_scans": 0}
    assert d["pool_points"] > 0
    d = extreme_point_probe(scan).witness["diagnostics"]
    assert d == {"directions": 4, "lattice_points": len(sphere_lattice(32)),
                 "pool_points": len(certify._zero_pool(scan)),
                 "lattice_directions": 2, "refined_directions": 2,
                 "refinement_starts": 2 * 12, "refinement_sweeps": 6,
                 "refinement_unsettled": 0,
                 "binding": d["binding"], "validation_scans": 2}
    assert set(d["binding"]) == {"pool", "lattice", "refine"}
    assert sum(d["binding"].values()) == 4


def _fixed_refine(half_sweep, V, sampled, cap):
    """The ray probes' refinement before its stop rule, the reference for
    _refine: cap pairs of half-sweeps of every direction, the first
    half-sweep's bound (the lattice's own) not counted.  Returns each
    direction's refined bound after every pair, (cap, c)."""
    live, refine, after = np.arange(V.shape[1]), np.full(V.shape[1], np.inf), []
    for s in range(2 * cap):
        r, V = half_sweep(s, live, V)
        if s:
            refine = np.minimum(refine, np.min(r, axis=1))
        if s % 2:
            after.append(refine.copy())
    return np.array(after)


def _with_refine(monkeypatch, refine, probe, scan):
    """probe(scan) with certify._refine replaced by refine."""
    with monkeypatch.context() as m:
        m.setattr(certify, "_refine", refine)
        return probe(scan)


def _against_fixed_refinement(monkeypatch, probe, scan):
    """probe(scan) as it runs, and with the fixed-count refinement; the
    bound of every direction handed to _refine from both, in the scan's
    frame (the least of its pool, lattice and refined bounds), and whether
    the fixed-count refined bound falls in no later pair by more than in
    the pair where the direction stopped, the case in which the stop rule
    bounds what the remaining pairs could add, or None where no direction
    was handed to _refine; and the bounds of the other directions, with
    the search's consistent line."""
    found, rest = [], []
    refine, search = certify._refine, certify._ray_search

    def spy(half_sweep, V, sampled, cap, line):
        stop = np.zeros(V.shape[1], dtype=int)

        def counting(s, live, W):
            stop[live] = s // 2 + 1
            return half_sweep(s, live, W)

        out = refine(counting, V, sampled, cap, line)
        after = _fixed_refine(half_sweep, V, sampled, cap)
        j = np.arange(V.shape[1])
        # the stopped bound is the fixed loop's at the same pair, bit for bit
        assert np.array_equal(out[0], after[stop - 1, j])
        falls = after[:-1] - after[1:]
        steady = [np.all(falls[p - 1:, i] <= falls[p - 2, i]) for i, p in enumerate(stop)]
        found.append((np.minimum(sampled, out[0]), np.minimum(sampled, after[-1]),
                      np.array(steady)))
        return out

    def fixed(half_sweep, V, sampled, cap, line):
        return _fixed_refine(half_sweep, V, sampled, cap)[-1], cap, 0

    def searching(dirs, Y, pool_num, pool_rows, den, lattice_table, half_sweep, k, cap,
                  line):
        # the directions of the first half-sweep are those handed to _refine
        swept = []

        def recording(s, d, V):
            if s == 0:
                swept.append(d)
            return half_sweep(s, d, V)

        bounds, diagnostics = search(dirs, Y, pool_num, pool_rows, den, lattice_table,
                                     recording, k, cap, line)
        handed = np.zeros(len(dirs), dtype=bool)
        for d in swept:
            handed |= (dirs[:, None] == d[None]).all(axis=2).any(axis=1)
        assert handed.sum() == diagnostics["refined_directions"]
        rest.append((bounds[~handed], line))
        return bounds, diagnostics

    with monkeypatch.context() as m:
        m.setattr(certify, "_ray_search", searching)
        rep = _with_refine(monkeypatch, spy, probe, scan)
    return (rep, _with_refine(monkeypatch, fixed, probe, scan),
            found[0] if found else None, rest[0])


def _spd3(rng):
    A = rng.uniform(-1.0, 1.0, (3, 3))
    return A @ A.T + 0.5 * np.eye(3)


def _analyze_cycle_forms(seed):
    """The seeded reduced and Voigt forms of one cycle of the perfbench
    analyze workload at this seed, drawn as it draws them."""
    rng = np.random.default_rng(seed)
    b, c, d = rng.uniform(0.5, 2.0, 3)
    reduced = form_from_json({"kind": "reduced", "a": _spd3(rng).tolist(),
                              "b": b, "c": c, "d": d})
    blk, shear = _spd3(rng), rng.uniform(0.5, 2.0, 3)
    voigt = form_from_json({
        "kind": "voigt", "C11": blk[0, 0], "C22": blk[1, 1], "C33": blk[2, 2],
        "C12": blk[0, 1], "C13": blk[0, 2], "C23": blk[1, 2],
        "C44": shear[0], "C55": shear[1], "C66": shear[2]})
    return [reduced, voigt]


def _refinement_against_fixed_count(monkeypatch, q, cfg):
    """The reports of both ray probes on q, (as run, with the fixed-count
    refinement), after checking every direction's bound: a swept one may
    only stay above the fixed-count one, by at most REFINE_TOL of itself
    or GUARD_REL (the scan's frame), unless it left at the consistent line
    or the fixed loop's falls grow after the stop, where the sweeps sat at
    a saddle and left it later, which no rule reading the falls can
    foresee.  Every other direction's bound is at or below the line."""
    scan = lattice_scan(q, cfg)
    reports = []
    for probe in (milton_extremality_probe, extreme_point_probe):
        if probe is extreme_point_probe and detect_shear_layout(q)[0] is None:
            continue
        rep, ref, refined, (others, line) = _against_fixed_refinement(
            monkeypatch, probe, scan)
        # a direction that is not swept left at the line, on its pool or
        # lattice bound
        assert np.all(others <= line)
        if refined is not None:
            # a swept direction that left at the line may stay further above
            bound, reference, steady = refined
            assert np.all(reference <= bound)
            assert np.all((bound - reference <= np.maximum(
                certify.REFINE_TOL * bound, certify.GUARD_REL)) | ~steady | (bound <= line))
        reports.append((rep, ref))
    return reports


@pytest.mark.parametrize("name", ["choi_lam", "choi", "convex_identity", "serre"])
@pytest.mark.parametrize("cfg", [
    CertifyConfig(grid_resolution=32, probe_directions=4), CertifyConfig(seed=42)])
def test_refinement_matches_fixed_count_on_the_catalog(monkeypatch, name, cfg):
    for rep, ref in _refinement_against_fixed_count(monkeypatch, catalog(name), cfg):
        assert rep.verdict == ref.verdict


@pytest.mark.parametrize("seed", range(10))
def test_refinement_matches_fixed_count_on_analyze_cycles(monkeypatch, seed):
    for q in _analyze_cycle_forms(seed):
        for rep, ref in _refinement_against_fixed_count(
                monkeypatch, q, CertifyConfig(grid_resolution=32, probe_directions=4)):
            assert rep.verdict == ref.verdict


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(["choi", "choi_lam"]),
       d=st.lists(st.integers(-3, 4).map(lambda k: 2.0 ** k), min_size=6, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_refinement_matches_fixed_count_over_diagonal_changes(name, d, seed):
    # the search reads consistent exactly when the fixed count does.  Past
    # it, whether a validation scan clears can turn on rounding: on choi'
    # at (1/2, 8, 8; 16, 8, 16), seed 38008731, delta* moved by 5e-9 of
    # itself, and the fixed count read refuted (its first shrink cleared,
    # margins -2.8e-11 and -2.0e-10 against a floor of -2.3e-10) where the
    # stopped search read inconclusive (no shrink cleared)
    with pytest.MonkeyPatch.context() as monkeypatch:
        for rep, ref in _refinement_against_fixed_count(
                monkeypatch, _diagonal_change(name, d[:3], d[3:]),
                CertifyConfig(grid_resolution=32, probe_directions=4, seed=seed)):
            assert (rep.verdict == "consistent") == (ref.verdict == "consistent")


# choi's Milton directions all leave at the pool, so its sweeps are
# checked on the seeded reduced form alone
@pytest.mark.parametrize("q, probes", [
    (catalog("choi"), [extreme_point_probe]),
    (_analyze_cycle_forms(1)[0], [milton_extremality_probe, extreme_point_probe])],
    ids=["choi", "reduced"])
def test_refinement_stops_before_the_cap(q, probes):
    scan = lattice_scan(q, CertifyConfig(grid_resolution=32, probe_directions=4))
    for probe in probes:
        cap = 14 if probe is milton_extremality_probe else 16
        d = probe(scan).witness["diagnostics"]
        assert d["refined_directions"] > 0
        assert 2 <= d["refinement_sweeps"] < cap
        assert d["refinement_unsettled"] == 0


# witness entries that are values of the form, scaled with it
_SCALED_KEYS = {"value", "eps_star", "delta_star", "distance", "theta_q",
                "theta_witness", "margin_q1", "margin_complement",
                "validation_margin", "validation_eps"}


def _assert_scaled(a, b, k, key=None):
    """b is a, a probe report's JSON, with every value under a key of
    _SCALED_KEYS times 2^k, bit for bit, and every other entry equal."""
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for u in a:
            _assert_scaled(a[u], b[u], k, u)
    elif isinstance(a, list):
        assert len(a) == len(b)
        for u, v in zip(a, b):
            _assert_scaled(u, v, k, key)
    elif key in _SCALED_KEYS and a is not None:
        assert b == math.ldexp(a, k)
    else:
        assert b == a


@settings(max_examples=15, deadline=None)
@given(k=st.integers(-300, 300), name=st.sampled_from(["choi", "choi_lam", "reduced"]))
def test_refinement_stops_at_the_same_pair_at_every_power_of_two(k, name):
    # the stop rule reads the bounds in the scan's frame, so 2^k Q runs the
    # same sweeps: the same pairs, diagnostics and verdict, values times 2^k
    q = _analyze_cycle_forms(2)[0] if name == "reduced" else catalog(name)
    cfg = CertifyConfig(grid_resolution=32, probe_directions=4)
    for probe in (milton_extremality_probe, extreme_point_probe):
        a = probe(lattice_scan(q, cfg)).to_json()
        b = probe(lattice_scan(q.scaled(math.ldexp(1.0, k)), cfg)).to_json()
        _assert_scaled(a, b, k)


# choi's Milton directions all leave at the pool, so Milton's case is the
# seeded reduced form beside choi's extreme point
@pytest.mark.parametrize("milton_q, extreme_q", [
    (_analyze_cycle_forms(1)[0], catalog("choi")),
    (_analyze_cycle_forms(3)[1], _analyze_cycle_forms(3)[1])], ids=["choi", "voigt"])
def test_refined_bounds_do_not_depend_on_the_batch(monkeypatch, milton_q, extreme_q):
    # each direction's bounds at every half-sweep are bitwise the same
    # refined alone as beside directions that stop earlier, and no acoustic
    # stack of the refinement has one column, which numpy would hand to
    # GEMV, rounding it differently
    cfg = CertifyConfig(grid_resolution=32, probe_directions=4)
    refine, stack = certify._refine, certify._acoustic_stack
    for probe, q in ((milton_extremality_probe, milton_q), (extreme_point_probe, extreme_q)):
        scan = lattice_scan(q, cfg)
        calls = []
        _with_refine(monkeypatch, lambda *a: calls.append(a) or refine(*a),
                     probe, scan)
        half_sweep, V, sampled, cap, line = calls[0]
        widths = []

        def run(idx):
            rows = {}

            def recording(s, live, W):
                r, W = half_sweep(s, idx[live], W)
                rows.update(((s, j), r[i]) for i, j in enumerate(idx[live]))
                return r, W

            with monkeypatch.context() as m:
                m.setattr(certify, "_acoustic_stack",
                          lambda W, K: widths.append(W.shape[1]) or stack(W, K))
                refine(recording, V[:, idx], sampled[idx], cap, line)
            return rows

        together = run(np.arange(V.shape[1]))
        last = [max(s for s, i in together if i == j) for j in range(V.shape[1])]
        assert len(set(last)) > 1
        for j in range(V.shape[1]):
            alone = run(np.array([j]))
            assert alone.keys() == {key for key in together if key[1] == j}
            for key in alone:
                assert np.array_equal(alone[key], together[key])
        assert min(widths) == V.shape[2] >= 2


def _without_the_exit(monkeypatch, probe, scan):
    """probe(scan) with _ray_search given a consistent line of -inf, so that
    every direction runs every stage; and the line it was given, in the
    scan's frame."""
    search, lines = certify._ray_search, []

    def full(*args):
        lines.append(args[-1])
        return search(*args[:-1], -math.inf)

    with monkeypatch.context() as m:
        m.setattr(certify, "_ray_search", full)
        return probe(scan), lines[0]


def _exit_against_full_search(monkeypatch, q, cfg):
    """Both ray probes on q against themselves without the exit at the
    line.  Bounds only fall, so the verdicts agree, and a refuted or
    inconclusive report is the same, bit for bit, but for its search
    diagnostics and for Milton's eigen-direction table, whose directions
    below the line keep the bound they left with, at or below the line and
    at or above the full search's.  A consistent report's value may rise
    but stays at or below its line; its witness pick, the first direction
    within rounding of the largest bound, may then move, and stays at or
    below the line too."""
    scan = lattice_scan(q, cfg)
    for probe in (milton_extremality_probe, extreme_point_probe):
        if probe is extreme_point_probe and detect_shear_layout(q)[0] is None:
            continue
        rep, (ref, line) = probe(scan), _without_the_exit(monkeypatch, probe, scan)
        line = math.ldexp(line, scan.e)
        a, b = rep.to_json(), ref.to_json()
        wa, wb = a.pop("witness"), b.pop("witness")
        star = "eps_star" if probe is milton_extremality_probe else "delta_star"
        assert rep.verdict == ref.verdict
        assert wa["diagnostics"]["validation_scans"] == wb["diagnostics"]["validation_scans"]
        for ea, eb in zip(wa.pop("eigen_directions", []), wb.pop("eigen_directions", [])):
            assert ea["direction"] == eb["direction"]
            assert ea["eps_star"] == eb["eps_star"] or eb["eps_star"] <= ea["eps_star"] <= line
        del wa["diagnostics"], wb["diagnostics"]
        if rep.verdict == "consistent":
            assert ref.value <= rep.value <= line
            assert wa[star] <= line
        else:
            assert a == b and wa == wb


@pytest.mark.parametrize("name", ["choi_lam", "choi", "convex_identity", "serre"])
@pytest.mark.parametrize("cfg", [
    CertifyConfig(grid_resolution=32, probe_directions=4), CertifyConfig(seed=42)])
def test_search_exit_keeps_the_catalog_verdicts(monkeypatch, name, cfg):
    _exit_against_full_search(monkeypatch, catalog(name), cfg)


@pytest.mark.parametrize("seed", range(10))
def test_search_exit_keeps_the_analyze_cycle_verdicts(monkeypatch, seed):
    for q in _analyze_cycle_forms(seed):
        _exit_against_full_search(monkeypatch, q, CertifyConfig(
            grid_resolution=32, probe_directions=4))


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(["choi", "choi_lam"]),
       d=st.lists(st.integers(-3, 4).map(lambda k: 2.0 ** k), min_size=6, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_search_exit_keeps_the_verdicts_over_diagonal_changes(name, d, seed):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _exit_against_full_search(
            monkeypatch, _diagonal_change(name, d[:3], d[3:]),
            CertifyConfig(grid_resolution=32, probe_directions=4, seed=seed))


def test_choi_lam_search_ends_at_the_pool(monkeypatch):
    # choi_lam's pool bounds are rounding noise, far below both consistent
    # lines: no direction reaches the lattice or the sweeps, so neither
    # probe builds its lattice table or makes a 3x3 solve
    scan = lattice_scan(catalog("choi_lam"),
                        CertifyConfig(grid_resolution=32, probe_directions=4))
    assert len(scan.zero_pool)    # built once per scan, before the probes
    calls = []
    for name in ("_acoustic_stack", "_shifted_adjugate", "_whitened_basis",
                 "eigvals3", "eigmin3"):
        fn = getattr(certify, name)
        monkeypatch.setattr(certify, name, functools.partial(
            lambda fn, name, *a: calls.append(name) or fn(*a), fn, name))
    for probe in (milton_extremality_probe, extreme_point_probe):
        rep = probe(scan)
        d = rep.witness["diagnostics"]
        assert rep.verdict == "consistent"
        assert (d["lattice_directions"], d["refined_directions"],
                d["refinement_starts"], d["refinement_sweeps"]) == (0, 0, 0, 0)
        assert d["binding"] == {"pool": 4, "lattice": 0, "refine": 0}
    assert calls == []


def test_extreme_point_distance_is_the_witness_directions_own():
    # analyze choi_lam --seed 9 --grid 32: the witness pick lands, within
    # rounding, on a direction below the largest bound.  A consistent
    # report's distance and theta_witness are that direction's own
    # (1 - 1e-4) delta*, one split within its bound, while value stays
    # (1 - 1e-4) max delta*
    rep = extreme_point_probe(lattice_scan(catalog("choi_lam"),
                                           CertifyConfig(grid_resolution=32, seed=9)))
    w = rep.witness
    theta, d = np.array(w["theta_q"]), np.array(w["direction"])
    assert rep.verdict == "consistent"
    assert w["distance"] == (1 - 1e-4) * w["delta_star"] < rep.value
    assert w["theta_witness"] == list(0.5 * theta + w["distance"] * d)


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


def test_extreme_point_witness_direction_ignores_rounding_noise(monkeypatch):
    # at grid 32 with 4 directions choi's two shear axes tie, at delta*
    # 0.95794444651 and 0.95794444592; perturbing every sample's bound and
    # pool value by 1e-8 of itself, as reordering a float sum would, must
    # not move the reported direction, and the verdict stays refuted
    scan = lattice_scan(catalog("choi"),
                        CertifyConfig(grid_resolution=32, probe_directions=4))
    base = extreme_point_probe(scan)
    assert base.verdict == "refuted"
    bound, pool = certify._ray_bound, certify._pool_quadratic
    for seed in range(4):
        rng = np.random.default_rng(seed)

        def noise(a):
            return a * (1.0 + 1e-8 * rng.uniform(-1.0, 1.0, a.shape))

        with monkeypatch.context() as m:
            m.setattr(certify, "_ray_bound", lambda *a: noise(bound(*a)))
            m.setattr(certify, "_pool_quadratic", lambda *a: noise(pool(*a)))
            rep = extreme_point_probe(scan)
        # the noise reached the witness's bound
        assert rep.witness["delta_star"] != base.witness["delta_star"]
        assert rep.verdict == "refuted"
        assert rep.witness["direction"] == base.witness["direction"]


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
            validated = [forms[name].gram - w["validation_eps"]
                         * np.outer(l, l)] if "validation_margin" in w else []
            assert len(scanned) == len(validated) == (name != "choi_lam")
            assert all(map(np.array_equal, scanned, validated))
            assert w["diagnostics"]["validation_scans"] == len(scanned)
    assert calls == []
    for name in ("identity", "choi_lam"):
        scanned.clear()
        rep = extreme_point_probe(scans[name])
        w = rep.witness
        theta, d = np.array(w["theta_q"]), np.array(w["direction"])
        delta = (1 - 1e-4) * w["delta_star"]
        assert 0 < w["delta_star"] and w["distance"] == delta <= rep.value
        assert w["diagnostics"]["validation_scans"] == len(scanned)
        if name == "choi_lam":
            # a boundary form whose splittings are rounding: its bound is
            # below the threshold, and a consistent verdict rests on it
            # without a scan, with (1 - 1e-4) max delta* as value
            assert rep.verdict == "consistent" and scanned == []
            assert w["margin_q1"] is w["margin_complement"] is None
        else:
            # the identity's first trial clears: Q1, then Q - Q1
            q1 = form_from_theta(w["layout"], 0.5 * theta + delta * d).gram
            assert rep.verdict == "refuted" and rep.value == delta
            assert len(scanned) == 2
            assert np.array_equal(scanned[0], q1)
            assert np.array_equal(scanned[1], forms[name].gram - q1)


def test_milton_refuted_needs_a_validated_witness(monkeypatch):
    # convex_identity's eps* is far above the refute line; when no trial
    # clears its full scan the verdict is inconclusive after 24 trials,
    # eps shrunk by 0.7 from (1 - 1e-4) eps* each time, with value and
    # eps_star those of the search
    scan = lattice_scan(catalog("convex_identity"), FAST)
    base = milton_extremality_probe(scan)
    assert base.verdict == "refuted"
    scanned = []

    def failing_scan(q, cfg):
        scanned.append(q.gram)
        return dataclasses.replace(lattice_scan(q, cfg), margin=-1e-6)

    monkeypatch.setattr(certify, "lattice_scan", failing_scan)
    rep = milton_extremality_probe(scan)
    w = rep.witness
    assert rep.verdict == "inconclusive"
    assert (rep.value, w["eps_star"]) == (base.value, base.witness["eps_star"])
    assert len(scanned) == w["diagnostics"]["validation_scans"] == 24
    assert w["validation_margin"] == -1e-6
    eps = (1 - 1e-4) * w["eps_star"]
    for _ in range(23):
        eps *= 0.7
    assert w["validation_eps"] == eps
    # the last validated form is Q - eps l^2 in the witness direction
    m = np.array(w["direction"])
    np.testing.assert_array_equal(
        scanned[-1], catalog("convex_identity").gram - eps * np.outer(m, m))


def test_extreme_point_refuted_needs_a_validated_witness(monkeypatch):
    # the identity's splittings are far above the threshold; when no trial
    # clears its full scans the verdict is inconclusive, with the search's
    # own bound as value, after 24 trials of Q1 and the last one's Q - Q1
    identity = form_from_reduced(ReducedOrthotropicForm(np.eye(3), 1, 1, 1))
    scan = lattice_scan(identity, FAST)
    base = extreme_point_probe(scan)
    assert base.verdict == "refuted"
    scanned = []

    def failing_scan(q, cfg):
        scanned.append(q.gram)
        return dataclasses.replace(lattice_scan(q, cfg), margin=-1e-6)

    monkeypatch.setattr(certify, "lattice_scan", failing_scan)
    rep = extreme_point_probe(scan)
    w = rep.witness
    theta, d = np.array(w["theta_q"]), np.array(w["direction"])
    assert rep.verdict == "inconclusive"
    assert w["delta_star"] == base.witness["delta_star"]
    assert rep.value == w["distance"] == (1 - 1e-4) * w["delta_star"]
    assert w["theta_witness"] == list(0.5 * theta + rep.value * d)
    assert len(scanned) == w["diagnostics"]["validation_scans"] == 25
    assert w["margin_q1"] == w["margin_complement"] == -1e-6
    delta = rep.value
    for _ in range(23):
        delta *= 0.7
    last = form_from_theta(w["layout"], 0.5 * theta + delta * d).gram
    assert np.array_equal(scanned[-2], last)
    assert np.array_equal(scanned[-1], identity.gram - last)


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


def _probe_directions_loop(axes, cfg):
    """The reference for _probe_directions: every direction drawn and
    normalized one at a time, the in-pair mixes each as (axis, offset to
    the other axis, uniform)."""
    rng = np.random.default_rng(cfg.seed)
    n_rand = cfg.probe_directions // 2

    def unit(v):
        return v / np.linalg.norm(v)

    R = [unit(rng.standard_normal(9) @ axes) for _ in range(n_rand)]
    aligned = list(axes[:cfg.probe_directions - n_rand])
    while len(aligned) < cfg.probe_directions - n_rand:
        i = rng.integers(0, 9)
        j = (i + rng.integers(1, 9)) % 9
        t = rng.uniform(0.0, 2.0 * np.pi)
        aligned.append(unit(np.cos(t) * axes[i] + np.sin(t) * axes[j]))
    return np.array(R + aligned).reshape(-1, 9)


def _layout_axes(q):
    """The extreme point's axes: the layout axes projected off theta, unit,
    largest theta_k first."""
    theta = detect_shear_layout(q)[1]
    u = theta / np.linalg.norm(theta)
    axes = (np.eye(9) - np.outer(u, u))[np.argsort(-theta, kind="stable")]
    return axes / np.linalg.norm(axes, axis=1)[:, None]


@pytest.mark.parametrize("n", [1, 4, 19, 20, 32, 256])
def test_probe_directions_match_one_draw_at_a_time(n):
    # the Gram eigenvectors, Milton's axes, and the layout axes off theta,
    # the extreme point's; every direction is unit, and the extreme
    # point's stay orthogonal to theta
    for name in ("choi", "choi_lam", "convex_identity", "serre"):
        q = catalog(name)
        axes = [np.linalg.eigh(q.gram)[1].T]
        if name != "serre":
            axes.append(_layout_axes(q))
        for a in axes:
            for seed in (0, 1, 42):
                cfg = CertifyConfig(probe_directions=n, seed=seed)
                dirs = certify._probe_directions(a, cfg)
                assert dirs.shape == (n, 9)
                assert np.array_equal(dirs, _probe_directions_loop(a, cfg))
                np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0,
                                           rtol=0, atol=1e-15)
        if name != "serre":
            theta = detect_shear_layout(q)[1]
            assert np.max(np.abs(dirs @ theta)) <= 1e-15 * np.linalg.norm(theta)


def test_probe_directions_are_distinct_up_to_sign():
    # an in-pair mix of an axis with itself would be that axis again
    for name in ("choi", "choi_lam", "convex_identity"):
        q = catalog(name)
        for a in (np.linalg.eigh(q.gram)[1].T, _layout_axes(q)):
            for seed in (0, 9, 42):
                dirs = certify._probe_directions(
                    a, CertifyConfig(probe_directions=256, seed=seed))
                cos = np.abs(dirs @ dirs.T) - np.eye(len(dirs))
                assert np.max(cos) < 1.0 - 1e-9


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
    Y = np.ascontiguousarray(sphere_lattice(certify.PROBE_GRID).T)
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
    from quasicone.forms import (OrthotropicCoefficients, form_from_voigt,
                                 reduce_modulo_null_lagrangians)
    c = OrthotropicCoefficients(C11=2, C22=2, C33=2, C12=0.3, C13=0.3,
                                C23=0.3, C44=0.8, C55=0.8, C66=0.8)
    # the Voigt Gram itself is shear-paired modulo the minors
    for q in (form_from_reduced(reduce_modulo_null_lagrangians(c)), form_from_voigt(c)):
        rep = extreme_point_probe(lattice_scan(q, FAST))
        assert rep.witness["layout"] == "paired"
        assert rep.verdict == "refuted"  # interior form, splittings abound


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["choi_lam", "choi", "reduced identity"]),
       weights=st.lists(st.floats(-2.0, 2.0), min_size=9, max_size=9),
       grid=st.sampled_from([16, 32]), seed=st.integers(0, 2**32 - 1))
def test_extreme_point_verdict_is_invariant_under_minor_shifts(name, weights,
                                                               grid, seed):
    # Q + sum w_k N_k is Q on every rank one, so it is the same point of
    # the cone: the probe reads its layout modulo the minors and gives
    # Q's verdict
    q = (form_from_reduced(ReducedOrthotropicForm(np.eye(3), 1.0, 1.0, 1.0))
         if name == "reduced identity" else catalog(name))
    shifted = add_null_lagrangian(q, NullLagrangianCoeffs(weights))
    rep = extreme_point_probe(lattice_scan(shifted, CertifyConfig(
        grid_resolution=grid, probe_directions=4, seed=seed)))
    assert rep.verdict == ("consistent" if name == "choi_lam" else "refuted")


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


# C = B + B^T has eigenvalues +-rho, a tie where eigmin3 of -C^2 may
# return any mix of their eigenvectors, here e1 with x^T B x = 0
@example(R=np.zeros((3, 3)), B=np.diag([1.0, 0.0], 1), shift=1.0)
@example(R=np.zeros((3, 3)), B=np.diag([1.5, 0.0], 1), shift=1.0)
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
        # the lattice stage's bound (eigvals3 of -C) and the refinement's
        # (eigmin3 of -C^2, with its minimizer)
        lam = eigvals3(-C)
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


def _whiten_one_matrix_at_a_time(A, B):
    """L^-1 B L^-T as 3x3 products per matrix of B (n, 3, 3)."""
    Li = certify._whiten(A, B)[1]
    return np.array([l @ b @ l.T for l, b in zip(Li, B)])


def _layout_lattice_stacks(form):
    """The extreme point's lattice stacks of a catalog form or of the
    seeded _random_form "<kind> <seed>": (n, 10, 3, 3),
    A = T_theta(y)/2 + guard I, then the nine basis stacks T_k(y)."""
    name, _, seed = form.partition(" ")
    q = (_random_form(name, np.random.default_rng(int(seed))) if seed
         else catalog(name))
    layout, theta = detect_shear_layout(q)
    basis = shear_layout_basis(layout)
    A9 = np.tensordot(0.5 * theta, basis, axes=1) + certify.GUARD_REL * np.eye(9)
    G10 = gram_tensor(np.concatenate([A9[None], basis]))
    Y = np.ascontiguousarray(sphere_lattice(certify.PROBE_GRID).T)
    return _acoustic_stack(Y, G10.transpose(3, 4, 0, 1, 2))


_LAYOUT_FORMS = ["choi", "choi_lam", "convex_identity", "reduced 0", "reduced 1",
                 "reduced 2"]


@pytest.mark.parametrize("form", _LAYOUT_FORMS)
def test_whiten_matches_one_matrix_at_a_time(form):
    # each of the nine basis stacks T_k(y), then one direction's T_d(y),
    # against A = T_theta(y)/2 + guard I
    S = _layout_lattice_stacks(form)
    d = np.random.default_rng(5).standard_normal(9)
    for B in [*S.transpose(1, 0, 2, 3)[1:], np.tensordot(S[:, 1:], d, axes=(1, 0))]:
        C = certify._whiten(S[:, 0], B)[0]
        assert C.shape == B.shape
        np.testing.assert_array_equal(C, _whiten_one_matrix_at_a_time(S[:, 0], B))


@pytest.mark.parametrize("form", _LAYOUT_FORMS + ["reduced_shifted 3",
                                                  "reduced_shifted 4"])
def test_whitened_basis_matches_whiten_of_each_basis_stack(form):
    # the components-first table is -_whiten of the nine basis stacks, one
    # after another, as the rows [k, point, i, j], within rounding
    S = _layout_lattice_stacks(form)
    W, pd = certify._whitened_basis(S)
    whitened = [certify._whiten(S[:, 0], S[:, 1 + k]) for k in range(9)]
    ref = -np.stack([C for C, _, _ in whitened]).reshape(9, -1)
    assert W.shape == ref.shape
    assert np.max(np.abs(W - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert all(np.array_equal(pd, p) for _, _, p in whitened)


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
    # the probe's one direction d: Q1 = theta/2 + delta d and Q - Q1 both
    # clear the sampled check (pool, probe lattice, top-12 refinement of 16
    # sweeps) at the floor -2^e guard just below delta*, and one of them
    # fails there just above it
    q = _random_form("reduced", np.random.default_rng(seed))
    cfg = CertifyConfig(grid_resolution=32, probe_directions=1, seed=seed)
    scan = lattice_scan(q, cfg)
    w = extreme_point_probe(scan).witness
    theta, d = np.array(w["theta_q"]), np.array(w["direction"])
    assert 0 < w["delta_star"] < 8 * np.linalg.norm(theta)
    P9 = certify._zero_pool(scan)
    Y = np.ascontiguousarray(sphere_lattice(certify.PROBE_GRID).T)
    guard = np.ldexp(certify.GUARD_REL, scan.e)
    for f, clears in ((1 - 1e-4, True), (1 + 1e-3, False)):
        q1 = form_from_theta(w["layout"],
                             0.5 * theta + f * w["delta_star"] * d).gram
        stages = [_sampled_stage(g, P9, Y, -guard, 12, 16)
                  for g in (q1, q.gram - q1)]
        assert (max(stages) == 0) == clears


_TOLS = (1e-11, 1e-9, 1e-8, 1e-7)


def _extreme_point_over_tols(q, seed):
    """The extreme point at the CLI defaults, one report per tol of _TOLS,
    and the consistent threshold 1e-5 |theta|."""
    reps = [extreme_point_probe(lattice_scan(q, CertifyConfig(tol=t, seed=seed)))
            for t in _TOLS]
    return reps, certify.EXTREME_POINT_REL * np.linalg.norm(reps[0].witness["theta_q"])


@pytest.mark.parametrize("seed", [0, 9])
def test_choi_lam_extreme_point_does_not_follow_tol(seed):
    # the sextic probe proves choi_lam's det T(y) extremal, so the theorem
    # makes it an extreme point; with the tol slack its distance grew with
    # tol and read refuted from 1e-8 on.  Neither the pencils nor the
    # validation floors read tol: every report is the same, bit for bit
    reps, threshold = _extreme_point_over_tols(catalog("choi_lam"), seed)
    assert len({json.dumps(r.to_json()) for r in reps}) == 1
    assert reps[0].verdict == "consistent"
    assert reps[0].value <= 1e-3 * threshold


@pytest.mark.parametrize("seed", [0, 9])
def test_choi_extreme_point_finds_its_splitting_at_every_tol(seed):
    # choi = choi_lam + (xi12^2 + xi23^2 + xi31^2), two quasiconvex forms of
    # its own layout, is not an extreme point: the layout's shear axes meet
    # that splitting, at a distance that does not follow tol, where random
    # directions read the tol slack (consistent at 1e-11)
    reps, threshold = _extreme_point_over_tols(catalog("choi"), seed)
    assert len({json.dumps(r.to_json()) for r in reps}) == 1
    assert reps[0].verdict == "refuted"
    assert reps[0].value >= 1e3 * threshold
    # choi_lam with other extra shears, at the default tol
    layout, theta = detect_shear_layout(catalog("choi_lam"))
    for bcd in ((1, 1, 2), (3, 1, 1)):
        q = form_from_theta(layout, theta + np.concatenate([np.zeros(6), bcd]))
        rep = extreme_point_probe(lattice_scan(q, CertifyConfig(seed=seed)))
        assert rep.verdict == "refuted"
        assert rep.value >= 1e3 * certify.EXTREME_POINT_REL * np.linalg.norm(
            rep.witness["theta_q"])


def _diagonal_change(name, d1, d2):
    """Q(D1 xi D2) for the catalog form name: Gram P^T G P, P = D1 (x) D2,
    which keeps the single-shear layout and the extremality of det T(y)."""
    P = np.kron(np.diag(d1), np.diag(d2)).astype(float)
    return QuadraticForm(P.T @ catalog(name).gram @ P)


# ROADMAP's seven diagonal changes, on which choi' read consistent on
# three or four with the tol slack and random directions
_DIAGONAL_PAIRS = [((1, 2, 3), (1, 1, 1)), ((1, 1, 1), (2, 1, 1)),
                   ((1, 2, 1), (1, 1, 3)), ((2, 3, 5), (1, 7, 1)),
                   ((1.5, 1, 1), (1, 1, 1)), ((1, 1, 1), (1, 10, 1)),
                   ((1, 1, 1), (1, 30, 1))]


@pytest.mark.parametrize("d1, d2", _DIAGONAL_PAIRS)
def test_extreme_point_reads_diagonal_changes_of_choi(d1, d2):
    # a diagonal change is an automorphism of the cone within the layout:
    # choi_lam' stays an extreme point and choi' splits, at grid 32 with 4
    # directions, whose two axis-aligned ones are the largest theta_k
    for seed in (0, 7, 9):
        cfg = CertifyConfig(grid_resolution=32, probe_directions=4, seed=seed)
        lam = extreme_point_probe(lattice_scan(_diagonal_change("choi_lam", d1, d2), cfg))
        rep = extreme_point_probe(lattice_scan(_diagonal_change("choi", d1, d2), cfg))
        assert lam.verdict == "consistent"
        assert rep.verdict == "refuted"
        assert rep.value >= 0.01 * np.linalg.norm(rep.witness["theta_q"])


def _split_reach(layout_theta, extra):
    """How far the splitting Q = R + S reaches from theta/2 along the part
    of S orthogonal to theta: Q1 = theta/2 + t S_perp stays between 0 and
    Q, as a combination of R and S with nonnegative weights, for
    t <= min(1 / 2c, 1 / 2(1 - c)), c = <S, theta> / |theta|^2."""
    c = extra @ layout_theta / (layout_theta @ layout_theta)
    s_perp = extra - c * layout_theta
    return min(1 / (2 * c), 1 / (2 * (1 - c))) * np.linalg.norm(s_perp)


_RATIONAL = st.builds(Fraction, st.integers(1, 4), st.integers(1, 2))


@settings(max_examples=20, deadline=None)
@given(d=st.lists(_RATIONAL, min_size=6, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_extreme_point_property_over_diagonal_changes(d, seed):
    # over rational D1, D2 with entries in [1/2, 4]: choi_lam' reads
    # consistent within a tenth of its threshold, and choi' refuted at a
    # quarter of its known splitting's reach or more.  18 directions put
    # every layout axis among the sampled ones: with 4, the two
    # axis-aligned ones are the largest theta_k, couplings where D weights
    # the diagonal, and no coupling axis meets choi's splitting
    d1, d2 = [float(u) for u in d[:3]], [float(u) for u in d[3:]]
    cfg = CertifyConfig(grid_resolution=32, probe_directions=18, seed=seed)
    lam = extreme_point_probe(lattice_scan(_diagonal_change("choi_lam", d1, d2), cfg))
    rep = extreme_point_probe(lattice_scan(_diagonal_change("choi", d1, d2), cfg))
    theta, theta_lam = (np.array(r.witness["theta_q"]) for r in (rep, lam))
    assert lam.verdict == "consistent"
    assert lam.value <= 0.1 * certify.EXTREME_POINT_REL * np.linalg.norm(theta_lam)
    assert rep.verdict == "refuted"
    assert rep.value >= 0.25 * _split_reach(theta, theta - theta_lam)


def test_extreme_point_never_consistent_from_a_failed_validation():
    # choi' = choi(D1 xi D2) splits as choi does, but its validation
    # margins (about -1.3e-12 in Q's frame) stay below the floor at every
    # shrink; it read consistent with distance 0 while delta* / |theta| is
    # about 0.05
    rep = extreme_point_probe(lattice_scan(
        _diagonal_change("choi", (8, 0.25, 0.125), (0.5, 0.5, 8)), CertifyConfig()))
    assert rep.verdict != "consistent"
    assert rep.witness["diagnostics"]["validation_scans"] > 0


# ROADMAP item 1's two hand-checked paired boundary forms.  Neither is an
# extreme point: with d in the nullspace of the face rows at the zeros,
# full scans of theta/2 +- delta d clear the guard at delta = 0.26 |theta|
# and 0.34 |theta|
_BOUNDARY_THETAS = [
    (1.949093, 1.343348, 0.888297, -1.186166, -0.436449, -1.776487,
     0.329373, 0.592285, 0.787829),
    (1.731655, 1.972742, 1.765686, -1.954073, 2.951904, 1.580708,
     0.949205, 1.46347, 1.622371)]


@functools.cache
def _boundary_form(i):
    """_BOUNDARY_THETAS[i] - t (s1 + s2 + s3) and t, the largest t (as 50
    halvings of [-1e-5, 1e-5] find it) whose margin at the CLI defaults is
    >= 0.  The margin is concave in theta, so those t are an interval."""
    theta, shears = np.array(_BOUNDARY_THETAS[i]), np.repeat([0.0, 1.0], [6, 3])

    def margin(t):
        return lattice_scan(form_from_theta("paired", theta - t * shears)).margin

    lo, hi = -1e-5, 1e-5
    assert margin(lo) >= 0 > margin(hi)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if margin(mid) >= 0 else (lo, mid)
    return form_from_theta("paired", theta - lo * shears), lo


@pytest.mark.parametrize("i", [0, 1])
def test_boundary_forms_sit_on_the_boundary_with_four_zero_lines(i):
    # the listed theta are within 3e-7 of the boundary (8.6e-8 and 2.9e-7
    # along the shears); there the margin reads >= 0 with 4 zero lines
    q, t = _boundary_form(i)
    assert 0 < -t < 3e-7
    scan = lattice_scan(q)
    assert scan.margin >= 0
    assert len(scan.rank_one_zeros()) == 4


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1 step "
                   "2: the ray probes draw directions off the face at the zeros")
@pytest.mark.parametrize("probe", [milton_extremality_probe, extreme_point_probe])
@pytest.mark.parametrize("i", [0, 1])
def test_ray_probes_refute_the_boundary_forms(i, probe):
    # today each reads consistent: Milton at eps* 1.0e-10 and 4.7e-10, the
    # extreme point at delta 6.3e-12 and 7.3e-12
    assert probe(lattice_scan(_boundary_form(i)[0])).verdict == "refuted"


_DYADIC = st.integers(-3, 4).map(lambda k: 2.0 ** k)


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(["choi", "choi_lam"]),
       d=st.lists(_DYADIC, min_size=6, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_extreme_point_verdict_rests_on_its_own_numbers(name, d, seed):
    # over the dyadic D-family: consistent only on a search bound at or
    # below the threshold, with no scan; refuted only on a validated
    # distance above it, both margins clearing the floor
    scan = lattice_scan(_diagonal_change(name, d[:3], d[3:]), CertifyConfig(
        grid_resolution=32, probe_directions=4, seed=seed))
    rep = extreme_point_probe(scan)
    w = rep.witness
    u = np.ldexp(w["theta_q"], -scan.e)
    threshold = certify.EXTREME_POINT_REL * np.ldexp(np.linalg.norm(u), scan.e)
    bound = (1 - 1e-4) * w["delta_star"]
    floor = -np.ldexp(certify.GUARD_REL, scan.e)
    scans = w["diagnostics"]["validation_scans"]
    if rep.verdict == "consistent":
        # value is (1 - 1e-4) max delta*, at or above the witness's bound,
        # and distance the witness's own
        assert w["delta_star"] <= threshold and scans == 0
        assert bound == w["distance"] <= rep.value <= (1 - 1e-4) * threshold
    elif rep.verdict == "refuted":
        assert rep.value > threshold and scans >= 2
        assert min(w["margin_q1"], w["margin_complement"]) >= floor
    else:
        # a trial runs only from a bound above the threshold
        assert rep.verdict == "inconclusive"
        assert bound <= rep.value and (1 - 1e-4) * threshold <= rep.value
        assert scans == 0 if bound <= threshold else scans >= 2


@pytest.mark.parametrize("name", ["choi_lam", "choi", "convex_identity", "reduced"])
def test_extreme_point_sends_no_row_to_lapack(monkeypatch, name):
    # along a positive-theta axis the whitened pencil is rank one minus a
    # multiple of I; its repeated pair, on top in -C, keeps eigvals3's
    # closed form, so no 3x3 row of the probe's own solves (its validation
    # scans aside) reaches LAPACK
    q = (_random_form("reduced", np.random.default_rng(3)) if name == "reduced"
         else catalog(name))
    scan = lattice_scan(q, CertifyConfig(grid_resolution=32, probe_directions=4))
    rows, scanning = [], []

    def spy(fn):
        def counted(a, *args, **kw):
            if not scanning and np.shape(a)[-1] == 3:
                rows.append(int(np.prod(np.shape(a)[:-2])))
            return fn(a, *args, **kw)
        return counted

    def scan_spy(q, cfg):
        scanning.append(q)
        try:
            return lattice_scan(q, cfg)
        finally:
            scanning.pop()

    monkeypatch.setattr(certify, "lattice_scan", scan_spy)
    monkeypatch.setattr(np.linalg, "eigh", spy(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", spy(np.linalg.eigvalsh))
    rep = extreme_point_probe(scan)
    assert rep.witness["diagnostics"]["directions"] == 4
    assert rows == []


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


def _newton_polytope_triangles(support):
    """Sextic exponents in the convex hull of support: those in a triangle
    of support points, in (e1, e2), a repeated vertex making the triangle
    a segment or a point."""
    pts = [e[:2] for e in support]

    def in_triangle(p, a, b, c):
        d = [(v[0] - u[0]) * (p[1] - u[1]) - (v[1] - u[1]) * (p[0] - u[0])
             for u, v in ((a, b), (b, c), (c, a))]
        return (not (min(d) < 0 < max(d))
                and all(min(a[i], b[i], c[i]) <= p[i] <= max(a[i], b[i], c[i])
                        for i in (0, 1)))

    return [e for e in _SEXTIC_EXPS if e in support or any(
        in_triangle(e[:2], *t)
        for t in itertools.combinations_with_replacement(pts, 3))]


@settings(max_examples=200, deadline=None)
@given(support=st.sets(st.sampled_from(_SEXTIC_EXPS), max_size=8))
@example(support=set())
@example(support={(6, 0, 0)})
@example(support={(6, 0, 0), (0, 0, 6), (3, 0, 3)})
@example(support={(4, 0, 2), (2, 4, 0), (0, 2, 4), (2, 2, 2)})
def test_newton_polytope_hull_matches_triangle_enumeration(support):
    assert certify._newton_polytope(support) == _newton_polytope_triangles(support)


def _monomial_rows_fractions(exps, z):
    """Gradient rows of the monomials exps at the rational point z."""
    def mono(e):
        return z[0] ** e[0] * z[1] ** e[1] * z[2] ** e[2]

    return [[e[v] * mono(tuple(k - (i == v) for i, k in enumerate(e)))
             if e[v] else Fraction(0) for e in exps] for v in range(3)]


def _rank_fractions(rows):
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


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), zeros=st.integers(1, 7),
       support=st.sets(st.sampled_from(_SEXTIC_EXPS), min_size=1, max_size=8))
def test_integer_rank_matches_fraction_elimination(seed, zeros, support):
    # snapped zeros of small and large denominators: each integer row is the
    # rational row times L^5, L the lcm of the zero's denominators, and
    # the fraction-free rank is the rank over the rationals
    rng = np.random.default_rng(seed)
    cols = certify._newton_polytope(support)
    ints, fracs = [], []
    for _ in range(zeros):
        y = (rng.integers(-2, 3, 3) / rng.integers(1, 3, 3) if rng.random() < 0.5
             else rng.standard_normal(3))
        if not np.any(y):
            continue
        z = certify._snap(y)
        L = np.lcm.reduce([u.denominator for u in z])
        rows = certify._monomial_rows(cols, z)
        ref = _monomial_rows_fractions(cols, z)
        assert rows == [[u * int(L) ** 5 for u in r] for r in ref]
        assert all(type(u) is int for r in rows for u in r)
        ints += rows
        fracs += ref
    assert certify._exact_rank(ints) == _rank_fractions(fracs)


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


def _assert_sextic_reads_the_scans_frame(q):
    # the probe's p is det T(y) of scan.G4, bit for bit the det of the
    # rebuilt form 2^-e Q, so its witness is the one that form gives; 2^-e
    # itself overflows a double for a subnormal Gram, so Q is rebuilt by ldexp
    scan = lattice_scan(q, _GRID32)
    rebuilt = QuadraticForm(np.ldexp(q.gram, -scan.e))
    assert acoustic_det(scan.G4).terms == acoustic_det(acoustic_matrix(rebuilt)).terms


@pytest.mark.parametrize("name, scale", [
    ("choi", 1.0), ("choi_lam", 1.0), ("convex_identity", 1.0), ("serre", 1.0),
    ("choi_lam", 2.0 ** -600), ("choi_lam", 2.0 ** 600), ("choi_lam", 1e-5),
    ("choi_lam", 1e-3), ("choi_lam", 1e3), ("choi_lam", 1e4)])
def test_extremal_polynomial_reads_the_scans_frame(name, scale):
    _assert_sextic_reads_the_scans_frame(catalog(name).scaled(scale))


@settings(max_examples=20, deadline=None)
@given(X=arrays(np.float64, (9, 9), elements=st.floats(-1.0, 1.0)),
       s=st.integers(-5, 4))
@example(X=np.full((9, 9), 2.22507386e-311), s=0)
def test_extremal_polynomial_reads_the_scans_frame_of_any_gram(X, s):
    assume(np.any(X))
    _assert_sextic_reads_the_scans_frame(QuadraticForm(10.0 ** s * (X + X.T)))


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


def test_polyconvexity_predictor_saves_newton_steps():
    # the predictor starts each centring near the next central point: 76
    # Newton steps on choi_lam without it, 31 with it
    rep = polyconvexity_test(catalog("choi_lam"))
    assert rep.verdict == "refuted"
    assert rep.witness["newton_steps"] <= 60


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
