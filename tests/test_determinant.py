import subprocess
import sys
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quasicone import determinant, poly
from quasicone.determinant import (_ANCHORS, SQUARE_REL_TOL, acoustic_det,
                                   det_report, pencil_identity_check,
                                   perfect_square_test, reduced_det_closed_form)
from quasicone.forms import (NullLagrangianCoeffs, QuadraticForm,
                             ReducedOrthotropicForm, acoustic_matrix,
                             add_null_lagrangian, catalog, form_from_reduced)
from quasicone.poly import (HomogeneousPolynomial, monomial_exponents,
                            poly_combine, poly_equal_within, poly_eval_many,
                            poly_mul)

Mono = HomogeneousPolynomial.monomial
CUBIC_EXPS = monomial_exponents(3)


def _rotation(M):
    Q, R = np.linalg.qr(M)
    Q = Q * np.sign(np.diag(R))
    return Q * [1.0, 1.0, np.linalg.det(Q)]


def _rotated_gram(gram, R, S):
    """Gram of xi -> Q(R^T xi S); row-major vec(R^T xi S) = kron(R^T, S^T) vec(xi)."""
    P = np.kron(R.T, S.T)
    return P.T @ gram @ P


def _det(gram):
    return acoustic_det(acoustic_matrix(QuadraticForm(gram)))


def _compose(s, S):
    """The cubic y -> s(S y)."""
    rows = [HomogeneousPolynomial(1, {(1, 0, 0): S[i, 0], (0, 1, 0): S[i, 1],
                                      (0, 0, 1): S[i, 2]}) for i in range(3)]
    out = HomogeneousPolynomial.zero(3)
    for exp, coef in s.terms.items():
        term = Mono((0, 0, 0), coef)
        for i, e in enumerate(exp):
            for _ in range(e):
                term = poly_mul(term, rows[i])
        out = poly_combine(out, term, 1.0, 1.0)
    return out


def _square_gap(root, p):
    return poly_combine(poly_mul(root, root), p, 1.0, -1.0).max_coeff() / p.max_coeff()


_rotations = arrays(np.float64, (3, 3), elements=st.floats(-1.0, 1.0)).filter(
    lambda M: np.linalg.svd(M, compute_uv=False)[-1] >= 0.1).map(_rotation)
_cubics = st.lists(st.floats(-2.0, 2.0), min_size=10, max_size=10)


def _reduced_identity():
    return ReducedOrthotropicForm(np.eye(3), 1.0, 1.0, 1.0)


def test_acoustic_det_identity_is_norm_cubed():
    det = acoustic_det(acoustic_matrix(form_from_reduced(_reduced_identity())))
    assert det.coefficient((4, 2, 0)) == pytest.approx(3.0)
    assert det.coefficient((2, 2, 2)) == pytest.approx(6.0)
    assert det.coefficient((6, 0, 0)) == pytest.approx(1.0)


def test_acoustic_det_choi_lam():
    det = acoustic_det(acoustic_matrix(catalog("choi_lam")))
    want = {(4, 0, 2): 1.0, (2, 4, 0): 1.0, (0, 2, 4): 1.0, (2, 2, 2): -3.0}
    assert set(det.terms) == set(want)
    for e, c in want.items():
        assert det.coefficient(e) == pytest.approx(c, abs=1e-12)


def test_acoustic_det_zero_matrix():
    det = acoustic_det(acoustic_matrix(QuadraticForm(np.zeros((9, 9)))))
    assert det.is_zero()


def _cofactor_det(gram):
    """det T(y) by cofactor expansion along the first row, in dict-based
    polynomial arithmetic on entries built from the Gram alone: the
    reference for acoustic_det's contraction."""
    terms = [[{} for _ in range(3)] for _ in range(3)]
    for i, j, k, l in np.ndindex(3, 3, 3, 3):
        # gram[(i, j), (k, l)] y_j y_l is a term of T_ik
        exp = tuple(int(j == v) + int(l == v) for v in range(3))
        terms[i][k][exp] = terms[i][k].get(exp, 0.0) + gram[3 * i + j, 3 * k + l]
    e = [[HomogeneousPolynomial(2, t) for t in row] for row in terms]

    def minor(i, j, k, l):
        return poly_combine(poly_mul(e[1][i], e[2][j]), poly_mul(e[1][k], e[2][l]),
                            1.0, -1.0)

    det = poly_combine(poly_mul(e[0][0], minor(1, 2, 2, 1)),
                       poly_mul(e[0][1], minor(0, 2, 2, 0)), 1.0, -1.0)
    return poly_combine(det, poly_mul(e[0][2], minor(0, 1, 1, 0)), 1.0, 1.0)


def _integer_grams():
    rng = np.random.default_rng(8)
    for name in ("choi", "choi_lam", "convex_identity"):
        yield catalog(name).gram
    for d1, d2 in (((1, 2, 3), (1, 1, 1)), ((1, 2, 1), (1, 1, 3)),
                   ((2, 3, 5), (1, 7, 1)), ((1, 1, 1), (1, 30, 1))):
        P = np.kron(np.diag(d1), np.diag(d2)).astype(float)
        for name in ("choi", "choi_lam"):
            yield P.T @ catalog(name).gram @ P
    for _ in range(20):
        X = rng.integers(-3, 4, (9, 9))
        yield (X + X.T).astype(float)


def test_acoustic_det_equals_the_cofactor_expansion_on_integer_grams():
    # integer coefficients throughout: any order of summation is exact
    for gram in _integer_grams():
        assert _det(gram).terms == _cofactor_det(gram).terms


def test_acoustic_det_meets_the_cofactor_expansion_on_random_grams():
    rng = np.random.default_rng(4)
    for scale in (1.0, 1e-8, 1e8):
        for _ in range(30):
            X = scale * rng.standard_normal((9, 9))
            got, ref = _det(X + X.T), _cofactor_det(X + X.T)
            gap = poly_combine(got, ref, 1.0, -1.0).max_coeff()
            assert gap <= 1e-14 * ref.max_coeff()


def test_closed_form_identity_coefficients():
    closed = reduced_det_closed_form(_reduced_identity())
    assert closed.coefficient((4, 2, 0)) == pytest.approx(3.0)
    assert closed.coefficient((2, 2, 2)) == pytest.approx(6.0)


def test_closed_form_b_zero_kills_pure_sextics():
    r = ReducedOrthotropicForm(np.eye(3), 0.0, 1.0, 1.0)
    closed = reduced_det_closed_form(r)
    assert closed.coefficient((6, 0, 0)) == 0.0
    assert closed.coefficient((0, 6, 0)) == 0.0


def test_closed_form_matches_symbolic_campaign():
    rng = np.random.default_rng(99)
    for _ in range(100):
        A = rng.uniform(-2, 2, (3, 3))
        A = (A + A.T) / 2
        r = ReducedOrthotropicForm(A, *rng.uniform(1e-6, 2, 3))
        sym = acoustic_det(acoustic_matrix(form_from_reduced(r)))
        assert poly_equal_within(sym, reduced_det_closed_form(r), 1e-10)


# Grams I + X X^T / 9 with entries at most 2: T(y) >= |y|^2 I, so det T(y)
# >= |y|^6 and max |p| >= 1, which gives a relative tolerance its meaning
_pd_grams = arrays(np.float64, (9, 9), elements=st.floats(
    -1.0, 1.0, allow_subnormal=False)).map(lambda X: np.eye(9) + X @ X.T / 9)
_SAMPLES = np.random.default_rng(5).standard_normal((20, 3))
_SAMPLES /= np.linalg.norm(_SAMPLES, axis=1, keepdims=True)


def test_acoustic_det_names_a_wrong_shape():
    with pytest.raises(ValueError, match=r"got \(3, 3\)"):
        acoustic_det(np.zeros((3, 3)))


@settings(max_examples=50, deadline=None)
@given(gram=_pd_grams, k=st.integers(-100, 100))
@example(gram=form_from_reduced(
    ReducedOrthotropicForm(np.eye(3) * 1.3, 0.7, 0.9, 1.1)).gram, k=1)
def test_det_scaling_cubes(gram, k):
    # every coefficient of det T(y) for Q 2^k is 2^(3k) times Q's, bit for bit
    q = QuadraticForm(gram)
    det = acoustic_det(acoustic_matrix(q))
    scaled = acoustic_det(acoustic_matrix(q.scaled(2.0 ** k)))
    assert scaled.terms == {e: np.ldexp(c, 3 * k) for e, c in det.terms.items()}


@settings(max_examples=50, deadline=None)
@given(gram=_pd_grams, w=arrays(np.float64, 9, elements=st.floats(-2.0, 2.0)))
def test_det_is_unchanged_by_null_lagrangian_shifts(gram, w):
    q = QuadraticForm(gram)
    det = acoustic_det(acoustic_matrix(q))
    shifted = acoustic_det(acoustic_matrix(
        add_null_lagrangian(q, NullLagrangianCoeffs(w))))
    assert poly_combine(shifted, det, 1.0, -1.0).max_coeff() <= 1e-13 * det.max_coeff()


@settings(max_examples=50, deadline=None)
@given(gram=_pd_grams, R=_rotations, S=_rotations)
def test_det_follows_a_coordinate_change(gram, R, S):
    # Q'(xi) = Q(R^T xi S) has T'(y) = R T(S^T y) R^T, so det T'(y) = det T(S^T y)
    det = _det(gram)
    turned = _det(_rotated_gram(gram, R, S))
    gap = poly_eval_many(turned, _SAMPLES) - poly_eval_many(det, _SAMPLES @ S)
    assert np.max(np.abs(gap)) <= 1e-13 * det.max_coeff()


def test_perfect_square_binomial_cube_pair():
    s = poly_combine(Mono((3, 0, 0)), Mono((0, 3, 0)), 1.0, 1.0)
    flag, root = perfect_square_test(poly_mul(s, s))
    assert flag
    assert poly_equal_within(root, s, 1e-8) or poly_equal_within(
        root, s.scale(-1.0), 1e-8)


def test_perfect_square_random_cubics():
    rng = np.random.default_rng(12)
    exps = monomial_exponents(3)
    for _ in range(20):
        terms = {exps[i]: rng.uniform(-2, 2)
                 for i in rng.choice(len(exps), size=4, replace=False)}
        s = HomogeneousPolynomial(3, terms)
        if s.is_zero():
            continue
        flag, root = perfect_square_test(poly_mul(s, s))
        assert flag
        assert (poly_equal_within(root, s, 1e-7)
                or poly_equal_within(root, s.scale(-1.0), 1e-7))


@settings(max_examples=100, deadline=None)
@given(coefs=_cubics, S=_rotations)
def test_perfect_square_finds_rotated_squares(coefs, S):
    assume(max(map(abs, coefs)) >= 0.1)
    s = _compose(HomogeneousPolynomial(3, dict(zip(CUBIC_EXPS, coefs))), S)
    p = poly_mul(s, s)
    flag, root = perfect_square_test(p)
    assert flag
    assert _square_gap(root, p) <= 1e-8


@settings(max_examples=100, deadline=None)
@given(w=st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3),
       R=_rotations, S=_rotations)
def test_perfect_square_finds_rotated_diagonal_form_det(w, R, S):
    # Q = w1 xi11^2 + w2 xi22^2 + w3 xi33^2 under xi -> R^T xi S:
    # det T(y) = w1 w2 w3 ((S^T y)_1 (S^T y)_2 (S^T y)_3)^2
    gram = np.diag([w[0], 0, 0, 0, w[1], 0, 0, 0, w[2]])
    p = _det(_rotated_gram(gram, R, S))
    flag, root = perfect_square_test(p)
    assert flag
    assert _square_gap(root, p) <= 1e-8


@settings(max_examples=100, deadline=None)
@given(coefs=_cubics,
       noise=st.lists(st.floats(-1.0, 1.0), min_size=28, max_size=28),
       weight=st.sampled_from([0.0, 1e-3, 1.0]),
       log_scale=st.floats(-8.0, 8.0))
def test_perfect_square_flag_invariant_under_positive_scaling(
        coefs, noise, weight, log_scale):
    assume(max(map(abs, coefs)) >= 0.1)
    s = HomogeneousPolynomial(3, dict(zip(CUBIC_EXPS, coefs)))
    p = poly_combine(poly_mul(s, s),
                     HomogeneousPolynomial(6, dict(zip(monomial_exponents(6), noise))),
                     1.0, weight * s.max_coeff() ** 2)
    assume(not p.is_zero())
    assert (perfect_square_test(p.scale(10.0 ** log_scale))[0]
            == perfect_square_test(p)[0])


@settings(max_examples=50, deadline=None)
@given(R=_rotations, S=_rotations)
def test_rotated_choi_lam_det_is_not_a_square(R, S):
    p = _det(_rotated_gram(catalog("choi_lam").gram, R, S))
    flag, root = perfect_square_test(p)
    assert not flag and root is None


def test_perfect_square_rejects_choi_lam_det():
    det = acoustic_det(acoustic_matrix(catalog("choi_lam")))
    flag, _ = perfect_square_test(det)
    assert not flag


def test_perfect_square_support_rule():
    # strictly positive pure-sextic coefficients with reduced support
    r = ReducedOrthotropicForm(np.eye(3) + 0.1, 0.5, 0.6, 0.7)
    det = reduced_det_closed_form(r)
    flag, _ = perfect_square_test(det)
    assert not flag


def test_perfect_square_monomial():
    flag, root = perfect_square_test(Mono((6, 0, 0)))
    assert flag
    assert poly_equal_within(root, Mono((3, 0, 0)), 1e-9)


_dense_cubics = st.lists(st.tuples(st.floats(0.1, 1.0), st.booleans()),
                         min_size=10, max_size=10).map(
    lambda cs: [m if positive else -m for m, positive in cs])


@settings(max_examples=100, deadline=None)
@given(coefs=_dense_cubics)
def test_dense_cubic_square_is_found_and_a_central_bump_is_not(coefs):
    # every coefficient of s is nonzero; 1e-6 of max |s^2| on y1^2 y2^2 y3^2
    # is a hundred times the square test's tolerance
    s = HomogeneousPolynomial(3, dict(zip(CUBIC_EXPS, coefs)))
    p = poly_mul(s, s)
    flag, root = perfect_square_test(p)
    assert flag
    assert _square_gap(root, p) <= 1e-8
    bumped = poly_combine(p, Mono((2, 2, 2)), 1.0, 1e-6 * p.max_coeff())
    assert perfect_square_test(bumped) == (False, None)


def _eval_terms(p, points):
    """p at an (n, 3) array of real or complex points, one term at a time."""
    out = np.zeros(len(points), dtype=np.result_type(points, float))
    for (e1, e2, e3), coef in p.terms.items():
        out += coef * points[:, 0]**e1 * points[:, 1]**e2 * points[:, 2]**e3
    return out


def _reference_square_test(p):
    """The square test on dict polynomials, evaluated one term at a time:
    the reference for perfect_square_test's linear maps.  Returns the flag,
    the root and the gap |root^2 - p| / max |p| that the flag is read from."""
    if p.is_zero():
        return True, HomogeneousPolynomial.zero(3), 0.0
    vals = _eval_terms(p, _ANCHORS)
    k = int(np.argmax(vals))
    if vals[k] <= 0.0:
        return False, None, np.inf
    a, H = _ANCHORS[k], _ANCHORS - _ANCHORS[k]
    t = np.exp(2j * np.pi * np.arange(7) / 7)
    values = _eval_terms(p, (a + t[:, None, None] * H).reshape(-1, 3)).reshape(7, -1)
    _, P1, P2, P3 = (np.fft.fft(values, axis=0).real / 7)[:4]
    S0 = np.sqrt(vals[k])
    S1 = P1 / (2.0 * S0)
    S2 = (P2 - S1 * S1) / (2.0 * S0)
    S3 = (P3 - 2.0 * S1 * S2) / (2.0 * S0)
    fit = np.linalg.pinv(np.prod(_ANCHORS[:, None, :] ** np.array(CUBIC_EXPS), axis=2))
    s = fit @ (S0 + S1 + S2 + S3)
    for v in s:
        if abs(v) > 1e-12 * max(np.max(np.abs(s)), 1e-300):
            if v < 0:
                s = -s
            break
    root = HomogeneousPolynomial(3, dict(zip(CUBIC_EXPS, s)))
    gap = _square_gap(root, p)
    return gap <= SQUARE_REL_TOL, root if gap <= SQUARE_REL_TOL else None, gap


def _assert_matches_reference(p):
    flag, root = perfect_square_test(p)
    ref_flag, ref_root, _ = _reference_square_test(p)
    assert flag == ref_flag
    assert (root is None) == (ref_root is None)
    if root is not None:
        got = np.array([root.coefficient(e) for e in CUBIC_EXPS])
        want = np.array([ref_root.coefficient(e) for e in CUBIC_EXPS])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _square_campaign():
    """Dense cubic squares, the same with a central bump, dets of PSD
    Grams, the catalog dets and dets of rotated diagonal forms."""
    rng = np.random.default_rng(28)
    for _ in range(300):
        coefs = rng.uniform(0.1, 1.0, 10) * rng.choice([-1.0, 1.0], 10)
        s = HomogeneousPolynomial(3, dict(zip(CUBIC_EXPS, coefs)))
        p = poly_mul(s, s)
        yield p
        yield poly_combine(p, Mono((2, 2, 2)), 1.0, 1e-6 * p.max_coeff())
    for _ in range(200):
        X = rng.standard_normal((9, 9))
        yield _det(X @ X.T)
    for name in ("choi", "choi_lam", "convex_identity", "serre"):
        yield _det(catalog(name).gram)
    for _ in range(100):
        w = rng.uniform(0.5, 2.0, 3)
        R, S = (_rotation(M) for M in rng.standard_normal((2, 3, 3)))
        yield _det(_rotated_gram(np.diag([w[0], 0, 0, 0, w[1], 0, 0, 0, w[2]]), R, S))


def test_perfect_square_test_matches_the_dict_reference_on_a_campaign():
    flags = []
    for p in _square_campaign():
        _assert_matches_reference(p)
        flags.append(perfect_square_test(p)[0])
    # the squares and the rotated diagonal dets, and nothing else
    assert sum(flags) == 400 and len(flags) == 904


@settings(max_examples=100, deadline=None)
@given(coefs=_dense_cubics, S=_rotations,
       noise=st.lists(st.floats(-1.0, 1.0), min_size=28, max_size=28),
       weight=st.sampled_from([0.0, 1e-12, 1e-6, 1e-3, 1.0]))
def test_perfect_square_test_matches_the_dict_reference(coefs, S, noise, weight):
    s = _compose(HomogeneousPolynomial(3, dict(zip(CUBIC_EXPS, coefs))), S)
    p = poly_combine(poly_mul(s, s),
                     HomogeneousPolynomial(6, dict(zip(monomial_exponents(6), noise))),
                     1.0, weight * s.max_coeff() ** 2)
    # a gap within rounding of the tolerance may fall either way
    assume(abs(_reference_square_test(p)[2] / SQUARE_REL_TOL - 1.0) > 1e-6)
    _assert_matches_reference(p)


def test_square_test_builds_no_polynomial_arithmetic():
    # the square test and det_report run on coefficient vectors: neither
    # multiplies nor evaluates a HomogeneousPolynomial
    rng = np.random.default_rng(3)
    squares = []
    for _ in range(10):
        s = HomogeneousPolynomial(3, dict(zip(CUBIC_EXPS, rng.uniform(-1, 1, 10))))
        squares.append((s, poly_mul(s, s)))
    bumped = [poly_combine(p, Mono((2, 2, 2)), 1.0, 1e-6 * p.max_coeff())
              for _, p in squares]
    choi_lam = _det(catalog("choi_lam").gram)
    diag = QuadraticForm(np.diag([2.0, 0, 0, 0, 3.0, 0, 0, 0, 5.0]))
    with ExitStack() as stack:
        for module in (poly, determinant):
            for name in ("poly_mul", "poly_eval_many"):
                if hasattr(module, name):
                    stack.enter_context(mock.patch.object(
                        module, name, side_effect=AssertionError(name)))
        for (s, p), b in zip(squares, bumped):
            flag, root = perfect_square_test(p)
            assert flag and (poly_equal_within(root, s, 1e-7)
                             or poly_equal_within(root, s.scale(-1.0), 1e-7))
            assert perfect_square_test(b) == (False, None)
        assert perfect_square_test(choi_lam) == (False, None)
        assert perfect_square_test(HomogeneousPolynomial.zero(6))[0]
        rep = det_report(diag)
        assert rep.is_perfect_square
        assert rep.square_root.coefficient((1, 1, 1)) == pytest.approx(np.sqrt(30.0))
        assert not det_report(catalog("choi_lam")).is_perfect_square


def test_import_builds_no_symbolic_table():
    # the square test's, the det's and the Laplace step's tables are built
    # on first use, so importing the package stays cheap
    code = ("import quasicone\n"
            "from quasicone import determinant as d, minors as m\n"
            "caches = (d._anchor_values, d._ray_series, d._taylor_tables,\n"
            "          d._cubic_tables, d._det_tables, m._laplace_tables)\n"
            "print([f.cache_info().currsize for f in caches])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[0, 0, 0, 0, 0, 0]"


def test_ray_series_meets_the_dft_of_the_monomials_at_every_anchor():
    # the Taylor tables against the t, t^2, t^3 coefficients read off the
    # monomials' values at the 7th roots of unity along every ray
    t = np.exp(2j * np.pi * np.arange(7) / 7)
    for k, a in enumerate(_ANCHORS):
        points = a + t[:, None, None] * (_ANCHORS - a)
        values = poly.monomial_table(points.reshape(-1, 3), monomial_exponents(6))
        dft = (np.fft.fft(values.reshape(7, len(_ANCHORS), -1), axis=0).real / 7)[1:4]
        series = determinant._ray_series(k)
        assert series.shape == dft.shape
        assert np.max(np.abs(series - dft)) <= 1e-13 * np.max(np.abs(dft))


def test_perfect_square_degree_checked():
    with pytest.raises(ValueError):
        perfect_square_test(Mono((2, 0, 0)))


def test_pencil_identity_scaling_case():
    q = catalog("choi_lam")
    rep = pencil_identity_check(q, q.scaled(0.5), [0.1, 0.4, 0.9, 1.3, 1.8])
    assert rep.proportional
    assert rep.gamma == pytest.approx(1.5, abs=1e-9)
    assert rep.beta == pytest.approx(0.75, abs=1e-9)
    assert rep.alpha == pytest.approx(0.125, abs=1e-9)


def test_pencil_identity_zero_subtrahend():
    q = catalog("choi_lam")
    rep = pencil_identity_check(q, QuadraticForm(np.zeros((9, 9))),
                                [0.0, 0.5, 1.0, 2.0])
    assert rep.proportional
    assert rep.gamma == pytest.approx(0.0, abs=1e-12)
    assert rep.beta == pytest.approx(0.0, abs=1e-12)
    assert rep.alpha == pytest.approx(0.0, abs=1e-12)


def test_pencil_identity_fails_for_unrelated_forms():
    rep = pencil_identity_check(catalog("choi_lam"), catalog("convex_identity"),
                                [0.5])
    assert not rep.proportional
    assert rep.residuals[0] > 1e-3


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-60, 1e60])
def test_pencil_identity_is_relative_at_every_scale(scale):
    # both Grams share one 2^-e: two unrelated forms stay unrelated at
    # 1e-6, where a residual floored at 1 read them proportional, and the
    # check neither underflows at 1e-60 nor overflows at 1e60
    rng = np.random.default_rng(0)
    A, B = rng.standard_normal((2, 9, 9))
    lams = [0.5, 1.0]
    ref = pencil_identity_check(QuadraticForm(A + A.T), QuadraticForm(B + B.T), lams)
    rep = pencil_identity_check(QuadraticForm(scale * (A + A.T)),
                                QuadraticForm(scale * (B + B.T)), lams)
    assert not rep.proportional and rep.gamma is None
    np.testing.assert_allclose(rep.residuals, ref.residuals, rtol=1e-12)
    assert min(rep.residuals) > 0.4
    q = catalog("choi_lam").scaled(scale)
    rep = pencil_identity_check(q, q.scaled(0.5), [0.1, 0.4, 0.9, 1.3, 1.8, 2.0])
    assert rep.proportional
    assert rep.gamma == pytest.approx(1.5, abs=1e-9)
    assert rep.beta == pytest.approx(0.75, abs=1e-9)
    assert rep.alpha == pytest.approx(0.125, abs=1e-9)


def _pencil_reference(q, q1, lams):
    """mu and the residual per lambda, one cofactor expansion per sample."""
    k = np.frexp(max(np.max(np.abs(q.gram)), np.max(np.abs(q1.gram))))[1]
    g, g1 = np.ldexp(q.gram, -k), np.ldexp(q1.gram, -k)
    base = _det_vector(g)
    mus, residuals = [], []
    for lam in lams:
        vec = _det_vector(g - lam * g1)
        mu = vec @ base / (base @ base)
        scale = max(np.max(np.abs(vec)), abs(mu) * np.max(np.abs(base)))
        mus.append(mu)
        residuals.append(np.max(np.abs(vec - mu * base)) / scale)
    return mus, residuals


def _det_vector(gram):
    det = _cofactor_det(gram)
    return np.array([det.coefficient(e) for e in monomial_exponents(6)])


def test_pencil_identity_matches_a_per_sample_cofactor_reference():
    rng = np.random.default_rng(6)
    lams = [-1.5, 0.1, 0.4, 0.9, 1.3, 1.8]
    pairs = [(catalog("choi_lam"), catalog("choi_lam").scaled(0.5)),
             (catalog("choi"), catalog("convex_identity"))]
    for _ in range(10):
        X, Y = rng.standard_normal((2, 9, 9))
        pairs.append((QuadraticForm(X + X.T), QuadraticForm(Y + Y.T)))
    for q, q1 in pairs:
        rep = pencil_identity_check(q, q1, lams)
        mus, residuals = _pencil_reference(q, q1, lams)
        np.testing.assert_allclose(rep.scalings, mus, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(rep.residuals, residuals, rtol=1e-13, atol=1e-13)


def test_pencil_identity_raises_when_a_det_overflows():
    q = catalog("choi_lam")
    for lam in (1e120, 1e300):
        with pytest.raises(ValueError, match="not finite"):
            pencil_identity_check(q, q.scaled(0.5), [0.5, lam])


def test_pencil_identity_zero_det_errors():
    zero = QuadraticForm(np.zeros((9, 9)))
    with pytest.raises(ValueError):
        pencil_identity_check(zero, zero, [0.5])


def test_det_report_closed_form_residual():
    r = _reduced_identity()
    rep = det_report(form_from_reduced(r), r)
    assert rep.closed_form_residual == pytest.approx(0.0, abs=1e-12)
    assert not rep.is_perfect_square
    j = rep.to_json()
    assert j["square_root"] is None
    assert j["det"]["degree"] == 6


def _scaled_reduced(scale):
    a = np.array([[2.0, 0.3, -0.2], [0.3, 1.5, 0.4], [-0.2, 0.4, 1.8]])
    return ReducedOrthotropicForm(scale * a, scale, 0.7 * scale, 1.3 * scale)


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-30])
def test_det_report_closed_form_residual_is_relative_at_every_scale(scale):
    # a reduced view of twice the form has 8x its det: the gap is 7/8 of
    # the larger det at any scale, with no floor to hide it when small
    r = _scaled_reduced(scale)
    assert det_report(form_from_reduced(r), r).closed_form_residual <= 1e-12
    twice = det_report(form_from_reduced(r), _scaled_reduced(2.0 * scale))
    assert twice.closed_form_residual >= 0.5


def test_det_report_closed_form_residual_of_zero_dets_is_zero():
    r = ReducedOrthotropicForm(np.zeros((3, 3)), 0.0, 0.0, 0.0)
    assert det_report(form_from_reduced(r), r).closed_form_residual == 0.0


@pytest.mark.parametrize("scale", [1e-110, 1e-200])
def test_det_report_square_test_survives_underflow(scale):
    # det T(y) underflows to zero in Q's frame at these scales; a zero
    # sextic would pass as a square, so the test runs in the scaled frame
    assert not det_report(catalog("choi_lam").scaled(scale)).is_perfect_square
    diag = QuadraticForm(np.diag([2.0, 0, 0, 0, 3.0, 0, 0, 0, 5.0]) * scale)
    rep = det_report(diag)
    assert rep.is_perfect_square
    assert rep.square_root.coefficient((1, 1, 1)) == pytest.approx(
        np.sqrt(30.0) * scale ** 1.5, rel=1e-12)


@pytest.mark.parametrize("scale", [1e110, 1e200])
def test_det_report_raises_when_the_det_overflows(scale):
    # a det coefficient of inf is no zero det, and no perfect square
    with pytest.raises(ValueError, match="not finite"):
        det_report(catalog("choi_lam").scaled(scale))
