import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quasicone.certify import (CertifyConfig, PreconditionError,
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
