import numpy as np
import pytest

from quasicone.minors import SymmetricMatrixPair, pencil_poly
from quasicone.poly import (DegreeMismatchError, HomogeneousPolynomial,
                            UnivariatePolynomial, _circle_coefficients,
                            monomial_exponents, poly_combine,
                            poly_equal_within, poly_eval, poly_eval_many,
                            poly_mul)

Mono = HomogeneousPolynomial.monomial


def test_eval_single_monomial():
    p = Mono((6, 0, 0))
    assert poly_eval(p, (2, 0, 0)) == 64


def test_eval_zero_polynomial():
    z = HomogeneousPolynomial.zero(6)
    assert poly_eval(z, (3.0, -1.0, 2.0)) == 0.0


def test_eval_many_matches_a_term_by_term_sum():
    # one matmul of the monomial table against the coefficients, at real
    # and complex points, for every degree up to the sextic's
    rng = np.random.default_rng(7)
    real = rng.standard_normal((25, 3))
    points = (real, real + 1j * rng.standard_normal((25, 3)))
    for degree in range(7):
        exps = monomial_exponents(degree)
        p = HomogeneousPolynomial(degree, dict(zip(exps, rng.uniform(-2, 2, len(exps)))))
        for pts in points:
            terms = np.array([[c * np.prod(y ** np.array(e)) for e, c in p.terms.items()]
                              for y in pts])
            want = terms.sum(axis=1)
            got = poly_eval_many(p, pts)
            assert got.dtype == want.dtype
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(terms).sum(axis=1))
    zero = poly_eval_many(HomogeneousPolynomial.zero(6), points[1])
    assert zero.dtype == complex and not zero.any()


def test_eval_all_ones_reduced_det_at_ones():
    # det T for the convex all-ones reduced form is (y1^2+y2^2+y3^2)^3
    p = poly_mul(poly_mul(Mono((2, 0, 0)), Mono((0, 2, 0))), Mono((0, 0, 2)))
    q = Mono((2, 0, 0))
    s = poly_combine(poly_combine(Mono((2, 0, 0)), Mono((0, 2, 0)), 1, 1),
                     Mono((0, 0, 2)), 1, 1)
    cube = poly_mul(poly_mul(s, s), s)
    assert poly_eval(cube, (1, 1, 1)) == pytest.approx(27.0)


def test_combine_cancellation():
    p = Mono((3, 2, 1), 2.5)
    assert poly_combine(p, p, 1.0, -1.0).is_zero()


def test_combine_disjoint_supports():
    out = poly_combine(Mono((6, 0, 0)), Mono((0, 6, 0)), 2.0, 3.0)
    assert out.terms == {(6, 0, 0): 2.0, (0, 6, 0): 3.0}


def test_combine_scaling():
    # combine(det, alpha*det, 1, -1) leaves (1-alpha)*det termwise
    p = poly_combine(Mono((4, 2, 0), 1.5), Mono((2, 2, 2), -0.5), 1.0, 1.0)
    alpha = 0.375
    out = poly_combine(p, p.scale(alpha), 1.0, -1.0)
    assert poly_equal_within(out, p.scale(1.0 - alpha), 1e-14)


def test_combine_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        poly_combine(Mono((2, 0, 0)), Mono((3, 0, 0)), 1.0, 1.0)


def test_mul_monomials():
    assert poly_mul(Mono((3, 0, 0)), Mono((3, 0, 0))).terms == {(6, 0, 0): 1.0}


def test_mul_binomial_square():
    s = poly_combine(Mono((3, 0, 0)), Mono((0, 3, 0)), 1.0, 1.0)
    sq = poly_mul(s, s)
    assert sq.terms == {(6, 0, 0): 1.0, (3, 3, 0): 2.0, (0, 6, 0): 1.0}


def test_mul_triple_product():
    xyz = Mono((1, 1, 1))
    assert poly_mul(xyz, xyz).terms == {(2, 2, 2): 1.0}


def test_equal_within_reflexive_and_distinct():
    p = Mono((6, 0, 0))
    assert poly_equal_within(p, p, 0.0)
    assert not poly_equal_within(Mono((6, 0, 0)), Mono((0, 6, 0)), 1e-9)


def test_interpolation_cubic():
    coefs = _circle_coefficients(lambda t: (1 - t) ** 3, 3)
    np.testing.assert_allclose(coefs, (1.0, -3.0, 3.0, -1.0), rtol=0,
                               atol=1e-14)


def test_interpolation_constant():
    # one node, t = 1
    coefs = _circle_coefficients(lambda t: np.full(t.shape, 5.0), 0)
    assert coefs.tolist() == [5.0]


def test_interpolation_pencil_2x2():
    # det(diag(2,2) - t I) = (2-t)^2 = 4 - 4t + t^2
    pair = SymmetricMatrixPair(np.diag([2.0, 2.0]), np.eye(2))
    np.testing.assert_allclose(pencil_poly(pair).coefficients,
                               (4.0, -4.0, 1.0), rtol=0, atol=1e-14)


@pytest.mark.parametrize("coef", [np.inf, -np.inf, np.nan])
def test_non_finite_coefficient_raises(coef):
    # 1e-14 * inf is no pruning cutoff: inf and NaN are errors, named
    with pytest.raises(ValueError, match=r"\(2, 2, 2\) is (-?inf|nan)"):
        HomogeneousPolynomial(6, {(6, 0, 0): 1.0, (2, 2, 2): coef})


def test_univariate_trailing_zeros_trimmed():
    p = UnivariatePolynomial((1.0, 2.0, 0.0, 0.0))
    assert p.coefficients == (1.0, 2.0)
    assert p.degree == 1


def _random_poly(rng, degree, terms=5):
    exps = monomial_exponents(degree)
    idx = rng.choice(len(exps), size=min(terms, len(exps)), replace=False)
    return HomogeneousPolynomial(
        degree, {exps[i]: rng.uniform(-3, 3) for i in idx})


def test_combine_linearity_under_evaluation():
    rng = np.random.default_rng(101)
    for _ in range(200):
        p = _random_poly(rng, 4)
        q = _random_poly(rng, 4)
        a, b = rng.uniform(-2, 2, 2)
        z = rng.standard_normal(3)
        lhs = poly_eval(poly_combine(p, q, a, b), z)
        rhs = a * poly_eval(p, z) + b * poly_eval(q, z)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs) + abs(rhs))


def test_mul_commutative_distributive():
    rng = np.random.default_rng(55)
    for _ in range(100):
        p = _random_poly(rng, 2)
        q = _random_poly(rng, 3)
        r = _random_poly(rng, 3)
        assert poly_equal_within(poly_mul(p, q), poly_mul(q, p), 1e-12)
        lhs = poly_mul(p, poly_combine(q, r, 1.0, 1.0))
        rhs = poly_combine(poly_mul(p, q), poly_mul(p, r), 1.0, 1.0)
        assert poly_equal_within(lhs, rhs, 1e-12)


def test_interpolation_roundtrip_well_conditioned():
    # a batch of polynomials along a trailing axis comes back coefficient by
    # coefficient, and the fit agrees with the original off the circle
    rng = np.random.default_rng(3)
    for deg in (2, 4, 6, 9):
        coefs = rng.uniform(-2, 2, (deg + 1, 5))
        got = _circle_coefficients(
            lambda t: np.polynomial.polynomial.polyval(t, coefs).T, deg)
        assert got.shape == (deg + 1, 5)
        assert np.max(np.abs(got - coefs)) <= 1e-14 * np.max(np.abs(coefs))
        poly = UnivariatePolynomial(tuple(got[:, 0]))
        for t in np.linspace(0, 2, 17):
            want = float(np.polyval(coefs[::-1, 0], t))
            assert abs(poly(t) - want) <= 1e-10 * (1 + abs(want))


def test_json_roundtrip_graded_lex():
    p = HomogeneousPolynomial(
        6, {(0, 6, 0): 1.0, (6, 0, 0): 2.0, (2, 2, 2): -3.0})
    obj = p.to_json()
    exps = [tuple(t["exp"]) for t in obj["terms"]]
    assert exps == [(6, 0, 0), (2, 2, 2), (0, 6, 0)]
    assert poly_equal_within(HomogeneousPolynomial.from_json(obj), p, 0.0)


def test_gradient():
    p = Mono((3, 2, 1), 2.0)
    gx, gy, gz = p.gradient()
    assert gx.terms == {(2, 2, 1): 6.0}
    assert gy.terms == {(3, 1, 1): 4.0}
    assert gz.terms == {(3, 2, 0): 2.0}
