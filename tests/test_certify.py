import functools
import itertools
import json
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quasicone import certify
from quasicone.certify import (CLUSTER_ANGLE, CertifyConfig, PreconditionError,
                               _acoustic_stack, _clears, _cluster_pairs,
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
                             form_from_reduced, minor_gram_basis)
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
    # vectors components first: (3, n) rows, and (3, c, n) for c forms
    V = rng.standard_normal((3, n)) * rng.uniform(0.5, 2.0, n)
    # a stack of forms of norm |G| sharing the rows V, as a trailing K shape
    grams = np.stack([q.gram, q.norm() * minor_gram_basis()[seed % 9]])
    B4 = grams.reshape(2, 3, 3, 3, 3).transpose(0, 1, 3, 2, 4)
    Gc = np.stack([QuadraticForm(g).gram_tensor() for g in grams])
    Vc = rng.standard_normal((3, 2, n)) * rng.uniform(0.5, 2.0, (2, n))
    # (stack, reference, the rows v the stack's entries are quadratic in)
    pairs = [(_acoustic_stack(V, G4.transpose(2, 3, 0, 1)),
              np.einsum("jn,ikjl,ln->nik", V, G4, V), V),   # T(y), the x block
             (_acoustic_stack(V, G4),
              np.einsum("in,ikjl,kn->njl", V, G4, V), V),   # S(x), the y block
             (_acoustic_stack(V, B4.transpose(3, 4, 0, 1, 2)),
              np.einsum("jn,kimjl,ln->nkim", V, B4, V), V),
             # a batch of forms, each with its own rows, as _clears and
             # _descend build them
             (_acoustic_stack(Vc, Gc.transpose(0, 3, 4, 1, 2)),
              np.einsum("jcn,cikjl,lcn->cnik", Vc, Gc, Vc), Vc),
             (_acoustic_stack(Vc, Gc),
              np.einsum("icn,cikjl,kcn->cnjl", Vc, Gc, Vc), Vc)]
    for got, ref, rows in pairs:
        assert got.shape == ref.shape
        # a few ulp of |G| |v|^2 per row
        tol = 8 * np.finfo(float).eps * q.norm() * np.sum(rows * rows, axis=0)
        lead = rows.shape[1:]
        assert np.all(np.abs(got - ref)
                      <= tol.reshape(lead + (1,) * (got.ndim - len(lead))))
        # components first: each entry is one contiguous row over the lead
        # axes, so a stack copied back to row-major storage fails here
        size = int(np.prod(lead))
        assert got.reshape(size, got.size // max(size, 1)).T.flags.c_contiguous


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
    """The single-candidate check that the batched _clears replaces, on the
    lattice points Y as (3, n) rows: the stage it stops at (0 clears,
    1 pool, 2 lattice, 3 refine), its refined minimum (nan before the
    refinement) and its refinement sweeps."""
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


def _candidates(seed, c):
    """c Milton-style candidates Q - eps l^2 on the grid-16 lattice, Q one of
    choi_lam (flat zeros: refinements run every sweep), convex_identity and
    a random positive definite Gram (early stops), a quarter at eps = 0,
    with random pools of which a fifth go negative."""
    rng = np.random.default_rng(seed)
    Y = np.ascontiguousarray(sphere_lattice(16).T)
    A = rng.standard_normal((9, 9))
    bases = np.stack([catalog("choi_lam").gram, np.eye(9), A @ A.T / 9])
    dirs = rng.standard_normal((c, 9))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    eps = np.where(rng.random(c) < 0.25, 0.0, 10.0 ** rng.uniform(-14, 0, c))
    grams = bases[rng.integers(0, 3, c)] - eps[:, None, None] * (
        dirs[:, :, None] * dirs[:, None, :])
    G4 = np.stack([QuadraticForm(g).gram_tensor() for g in grams])
    T = np.stack([_acoustic_stack(Y, g.transpose(2, 3, 0, 1)) for g in G4])
    pools = rng.uniform(0.0, 1.0, (c, 5))
    pools[rng.random(c) < 0.2, 0] = -1.0
    return grams, T, G4, pools, Y


def _assert_clears_matches_reference(grams, T, G4, pools, Y, k, iters,
                                     floor=-1e-12):
    stage, refined = _clears(grams, np.min(pools, axis=1), Y, floor, k,
                             iters)
    ref = [_clears_reference(*a, Y, floor, k, iters)
           for a in zip(T, G4, pools)]
    assert stage.tolist() == [r[0] for r in ref]
    # bitwise: same bits, nan where the refinement did not run
    assert refined.tobytes() == np.array([r[1] for r in ref]).tobytes()
    return ref


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), c=st.integers(1, 12),
       k=st.sampled_from([4, 12, 16]), iters=st.sampled_from([1, 3, 14]),
       rows=st.sampled_from([1, 600, certify.LOCKSTEP_ROWS]))
def test_clears_matches_single_candidate_reference(seed, c, k, iters, rows):
    # rows: 1, 2 or all candidates per lattice-stage eigvals3 (grid 16)
    with mock.patch.object(certify, "LOCKSTEP_ROWS", rows):
        _assert_clears_matches_reference(*_candidates(seed, c), k, iters)


def test_clears_batch_spans_every_stage_and_sweep_count():
    batch = _candidates(3, 12)
    ref = _assert_clears_matches_reference(*batch, 8, 14)
    assert {r[0] for r in ref} == {0, 1, 2, 3}
    # the refined candidates stop after different sweep counts, so the
    # per-candidate early stop is exercised
    assert len({r[2] for r in ref if r[0] in (0, 3)}) >= 2
    # a refined minimum equal to the floor clears
    for r in ref:
        if r[0] == 3:
            assert _assert_clears_matches_reference(
                *batch, 8, 14, floor=r[1])[ref.index(r)][0] == 0


def test_lockstep_row_cap_leaves_probe_reports_unchanged(monkeypatch):
    cfg = CertifyConfig(grid_resolution=32, probe_directions=4)
    identity = form_from_reduced(ReducedOrthotropicForm(np.eye(3), 1, 1, 1))
    scans = [lattice_scan(q, cfg) for q in (catalog("choi_lam"), identity)]
    rows = []   # rows of each lattice-stage eigvals3 call

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
    assert set(rows) == {n}    # one candidate per call


def _grow_scalar(lo, hi, t, factor, steps, cap):
    """One bracket grown alone, as the probes' per-bracket loops did: the
    grown (lo, hi) and the points judged."""
    judged = 0
    for _ in range(steps):
        if not hi < cap:
            break
        judged += 1
        if not hi <= t:
            break
        lo, hi = hi, hi * factor
    return lo, hi, judged


@settings(max_examples=60, deadline=None)
@given(brackets=st.lists(st.tuples(
           # some upper ends that reach a cap exactly as they grow
           st.floats(1e-3, 1e3) | st.sampled_from([0.625, 2.5, 10.0, 62.5]),
           st.floats(1e-3, 1e5)), max_size=8),
       factor=st.sampled_from([2.0, 4.0]), steps=st.integers(0, 6),
       cap=st.sampled_from([np.inf, 10.0, 1e3]))
def test_grow_matches_per_bracket_loop(brackets, factor, steps, cap):
    hi0 = np.array([h for h, _ in brackets], dtype=float)
    t = np.array([t for _, t in brackets], dtype=float)
    lo0 = 0.5 * hi0
    judged = []

    def ok(i, x):
        judged.append(len(i))
        return x <= t[i]

    ref = [_grow_scalar(*b, factor, steps, cap) for b in zip(lo0, hi0, t)]
    lo, hi = certify._grow(ok, lo0, hi0, factor, steps, cap)
    assert lo.tolist() == [r[0] for r in ref]
    assert hi.tolist() == [r[1] for r in ref]
    # the same points judged, so predicate_evaluations cannot drift
    assert sum(judged) == sum(r[2] for r in ref)
    # the inputs are left as they were
    assert (lo0.tolist(), hi0.tolist()) == ([b[0] / 2 for b in brackets],
                                            [b[0] for b in brackets])


def test_probe_diagnostics_count_the_search():
    scan = lattice_scan(catalog("choi"),
                        CertifyConfig(grid_resolution=32, probe_directions=4))
    for probe, checks_per_point in ((milton_extremality_probe, 1),
                                    (extreme_point_probe, 2)):
        d = probe(scan).witness["diagnostics"]
        assert d["directions"] == 4
        assert 0 < d["bisection_steps"] < d["predicate_evaluations"]
        assert d["lockstep_batches"] <= d["predicate_evaluations"]
        assert d["bisection_steps"] <= 4 * certify.BISECTION_ITERS
        assert 0 < sum(d["failed"].values()) \
            <= checks_per_point * d["predicate_evaluations"]


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
    # choi_lam's eps* are all rounding noise (~1e-14); perturbing them, as
    # reordering a float sum would, must not move the reported direction
    scan = lattice_scan(catalog("choi_lam"),
                        CertifyConfig(grid_resolution=32, probe_directions=8))
    base = milton_extremality_probe(scan)
    bisect = certify._bisect
    for seed in range(3):
        rng = np.random.default_rng(seed)

        def noisy(*args):
            lo = bisect(*args)
            return (lo * (1.0 + 1e-6 * rng.uniform(-1.0, 1.0, len(lo)))
                    + 1e-15 * rng.random(len(lo)))

        with monkeypatch.context() as m:
            m.setattr(certify, "_bisect", noisy)
            rep = milton_extremality_probe(scan)
        assert rep.verdict == base.verdict == "consistent"
        assert rep.witness["direction"] == base.witness["direction"]
        assert rep.value - rep.witness["eps_star"] <= 1e-12


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


def test_extremal_polynomial_norm_cubed_inconclusive():
    # det T(y) = |y|^6 has no real zeros: no constraints on the 28 monomials
    rep = extremal_polynomial_probe(lattice_scan(catalog("convex_identity"),
                                                 FAST))
    assert rep.verdict == "inconclusive"
    assert rep.value == 28.0
    assert rep.witness["exact_zeros"] == 0


def test_extremal_polynomial_perfect_square_branch():
    # w1 xi11^2 + w2 xi22^2 + w3 xi33^2: det T(y) = w1 w2 w3 (y1 y2 y3)^2
    q = QuadraticForm(np.diag([1.0, 0, 0, 0, 2.0, 0, 0, 0, 3.0]))
    rep = extremal_polynomial_probe(lattice_scan(q, FAST))
    assert rep.verdict == "inconclusive"
    assert rep.value == -1.0
    assert "perfect_square_root" in rep.witness


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
@given(k=st.integers(-20, 20))
def test_extremal_polynomial_invariant_under_power_of_two_scaling(k):
    # 2^k scales det T(y) exactly; the candidate and zero counts follow the
    # scan's absolute tol, the verdict and N(p) do not
    base = _choi_lam_base()
    rep = _probe_of(2.0 ** k * catalog("choi_lam").gram)
    assert (rep.verdict, rep.value) == (base.verdict, base.value)
    for key in ("method", "newton_polytope", "nullspace_dim"):
        assert rep.witness[key] == base.witness[key]


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
    # phi* = a for a*I: Z = I/9 is dual feasible with <a*I, Z> = a
    rep = polyconvexity_test(QuadraticForm(a * np.eye(9)), FAST)
    assert rep.verdict == verdict
    # the bracket holds up to rounding in the eigensolve
    assert rep.value - 1e-15 <= a <= rep.witness["dual_bound"] + 1e-15
    assert rep.witness["gap"] <= 1e-9


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
