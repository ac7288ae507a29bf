import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasicone.forms import (FormError, NullLagrangianCoeffs,
                             OrthotropicCoefficients, QuadraticForm,
                             ReducedOrthotropicForm, acoustic_matrix,
                             add_null_lagrangian, biquadratic_eval, catalog,
                             detect_shear_layout, form_from_json,
                             form_from_reduced, form_from_single_shear,
                             form_from_theta, form_from_voigt, form_to_json,
                             gram_tensor, minor_gram_basis, reduce_modulo_null_lagrangians,
                             shear_layout_basis, vec_index)


def _voigt(**kw):
    base = dict(C11=0, C22=0, C33=0, C12=0, C13=0, C23=0, C44=0, C55=0, C66=0)
    base.update(kw)
    return OrthotropicCoefficients(**base)


def test_voigt_zero_form():
    q = form_from_voigt(_voigt())
    assert np.all(q.gram == 0)


def test_voigt_diagonal_only():
    q = form_from_voigt(_voigt(C11=1, C22=1, C33=1))
    xi = np.diag([1.0, 2.0, 3.0])
    assert q(xi) == pytest.approx(1 + 4 + 9)


def test_voigt_shear_weight_four():
    # C44 multiplies (xi23+xi32)^2, worth 4 at xi23=xi32=1
    q = form_from_voigt(_voigt(C44=1))
    xi = np.zeros((3, 3))
    xi[1, 2] = xi[2, 1] = 1.0
    assert q(xi) == pytest.approx(4.0)


def test_reduce_shear_moves_to_offdiagonal():
    r = reduce_modulo_null_lagrangians(_voigt(C11=1, C22=1, C33=1, C66=1))
    assert r.a[0, 1] == pytest.approx(1.0)
    assert r.b == pytest.approx(1.0)


def test_reduce_no_shear_keeps_diagonal_block():
    c = _voigt(C11=2, C22=3, C33=4, C12=0.5, C13=-0.25, C23=0.75)
    r = reduce_modulo_null_lagrangians(c)
    np.testing.assert_allclose(r.a, c.diagonal_block())
    assert (r.b, r.c, r.d) == (0.0, 0.0, 0.0)


def test_reduce_parameter_identification():
    c = _voigt(C11=1.5, C22=2.5, C33=3.5, C12=0.1, C13=0.2, C23=0.3,
               C44=0.4, C55=0.5, C66=0.6)
    r = reduce_modulo_null_lagrangians(c)
    assert (r.a[0, 0], r.a[1, 1], r.a[2, 2]) == (1.5, 2.5, 3.5)
    assert (r.b, r.c, r.d) == (0.6, 0.5, 0.4)


@pytest.mark.parametrize("scale", [1.0, 1e-20])
def test_reduce_rejects_a_wrong_reduction(monkeypatch, scale):
    # a reduction with the C66 and C55 shears swapped differs from the
    # Voigt form by more than a null Lagrangian; the check is relative to
    # the form, so it refuses that at every scale and passes the right one
    import quasicone.forms as forms
    c = OrthotropicCoefficients(*(scale * np.array(
        [1.5, 2.5, 3.5, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6])))
    reduce_modulo_null_lagrangians(c)
    right = forms.form_from_reduced
    monkeypatch.setattr(forms, "form_from_reduced", lambda r: right(
        ReducedOrthotropicForm(r.a, r.c, r.b, r.d)))
    with pytest.raises(FormError, match="null Lagrangian"):
        reduce_modulo_null_lagrangians(c)


def test_reduce_agrees_on_rank_ones():
    rng = np.random.default_rng(8)
    for _ in range(20):
        vals = rng.uniform(-1, 2, 9)
        c = OrthotropicCoefficients(*vals)
        r = reduce_modulo_null_lagrangians(c)
        qv = form_from_voigt(c)
        qr = form_from_reduced(r)
        for _ in range(10):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            a = biquadratic_eval(qv, x, y)
            b = biquadratic_eval(qr, x, y)
            assert abs(a - b) <= 1e-11 * (1 + abs(a) + abs(b))


def test_form_from_reduced_diag():
    q = form_from_reduced(ReducedOrthotropicForm(np.eye(3), 0, 0, 0))
    assert q(np.diag([1.0, 1.0, 1.0])) == pytest.approx(3.0)
    xi = np.zeros((3, 3))
    xi[0, 1] = 1.0
    assert q(xi) == 0.0


def test_form_from_reduced_choi_lam_style_at_identity():
    a = np.full((3, 3), -1.0)
    np.fill_diagonal(a, 1.0)
    q = form_from_reduced(ReducedOrthotropicForm(a, 1, 1, 1))
    assert q(np.eye(3)) == pytest.approx(-3.0)


def test_form_from_reduced_b_only():
    q = form_from_reduced(ReducedOrthotropicForm(np.zeros((3, 3)), 1, 0, 0))
    xi = np.zeros((3, 3))
    xi[0, 1] = 2.0
    xi[1, 0] = 3.0
    assert q(xi) == pytest.approx(4.0 + 9.0)


def test_add_null_lagrangian_zero_weights():
    q = catalog("choi")
    out = add_null_lagrangian(q, NullLagrangianCoeffs(np.zeros(9)))
    np.testing.assert_array_equal(out.gram, q.gram)


def test_add_null_lagrangian_first_minor_at_identity():
    n = np.zeros(9)
    n[0] = 1.0  # rows {1,2}, cols {1,2}: xi11 xi22 - xi12 xi21
    q = add_null_lagrangian(QuadraticForm(np.zeros((9, 9))),
                            NullLagrangianCoeffs(n))
    assert q(np.eye(3)) == pytest.approx(1.0)


def test_null_lagrangian_invariance_on_rank_ones():
    rng = np.random.default_rng(17)
    for _ in range(200):
        G = rng.standard_normal((9, 9))
        q = QuadraticForm((G + G.T) / 2)
        n = NullLagrangianCoeffs(rng.uniform(-2, 2, 9))
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        a = biquadratic_eval(q, x, y)
        b = biquadratic_eval(add_null_lagrangian(q, n), x, y)
        assert abs(a - b) <= 1e-11 * (1 + abs(a) + abs(b))


def test_biquadratic_choi_basis():
    assert biquadratic_eval(catalog("choi"), (1, 0, 0), (1, 0, 0)) == 1.0


def test_biquadratic_zero_x():
    assert biquadratic_eval(catalog("choi"), (0, 0, 0), (1, 2, 3)) == 0.0


def test_biquadratic_choi_lam_kernel_point():
    u = np.ones(3) / np.sqrt(3)
    assert abs(biquadratic_eval(catalog("choi_lam"), u, u)) < 1e-14


def test_gram_tensor_is_a_view_of_one_gram_or_a_stack():
    rng = np.random.default_rng(3)
    grams = rng.standard_normal((4, 9, 9))
    G4 = gram_tensor(grams)
    assert G4.shape == (4, 3, 3, 3, 3) and np.shares_memory(G4, grams)
    for g, g4 in zip(grams, G4):
        one = gram_tensor(g)
        assert np.shares_memory(one, g) and np.array_equal(one, g4)
        # G4[i, k, j, l] = gram[(i, j), (k, l)]
        for i, k, j, l in np.ndindex(3, 3, 3, 3):
            assert one[i, k, j, l] == g[vec_index(i, j), vec_index(k, l)]
    q = QuadraticForm(grams[0] + grams[0].T)
    assert np.array_equal(q.gram_tensor(), gram_tensor(q.gram))


def test_acoustic_matrix_identity_reduced():
    q = form_from_reduced(ReducedOrthotropicForm(np.eye(3), 1, 1, 1))
    t = acoustic_matrix(q)
    for i in range(3):
        for k in range(3):
            if i == k:
                assert t.entry(i, k).terms == {(2, 0, 0): 1.0, (0, 2, 0): 1.0,
                                               (0, 0, 2): 1.0}
            else:
                assert t.entry(i, k).is_zero()


def test_acoustic_matrix_general_reduced_t11():
    a = np.array([[2.0, 0.5, 0.25], [0.5, 3.0, 0.75], [0.25, 0.75, 4.0]])
    q = form_from_reduced(ReducedOrthotropicForm(a, 1.5, 2.5, 3.5))
    t11 = acoustic_matrix(q).entry(0, 0)
    assert t11.terms == {(2, 0, 0): 2.0, (0, 2, 0): 1.5, (0, 0, 2): 2.5}


def test_acoustic_matrix_zero_form():
    t = acoustic_matrix(QuadraticForm(np.zeros((9, 9))))
    assert all(t.entry(i, k).is_zero() for i in range(3) for k in range(3))


def test_acoustic_matrix_symmetry_exact():
    rng = np.random.default_rng(2)
    G = rng.standard_normal((9, 9))
    t = acoustic_matrix(QuadraticForm((G + G.T) / 2))
    for i in range(3):
        for k in range(3):
            assert t.entry(i, k).terms == t.entry(k, i).terms


def test_acoustic_matrix_reproduces_biquadratic():
    rng = np.random.default_rng(23)
    for _ in range(50):
        G = rng.standard_normal((9, 9))
        q = QuadraticForm((G + G.T) / 2)
        t = acoustic_matrix(q)
        for _ in range(20):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            lhs = biquadratic_eval(q, x, y)
            rhs = float(x @ t.evaluate(y) @ x)
            assert abs(lhs - rhs) <= 1e-11 * (1 + abs(lhs) + abs(rhs))


def test_catalog_choi_at_identity():
    assert catalog("choi")(np.eye(3)) == pytest.approx(-3.0)


def test_catalog_choi_lam_coefficients():
    G = catalog("choi_lam").gram
    for (i, j) in [(0, 1), (1, 2), (2, 0)]:
        assert G[vec_index(i, j), vec_index(i, j)] == 1.0
        assert G[vec_index(i, i), vec_index(j, j)] == -1.0
    assert G[vec_index(1, 0), vec_index(1, 0)] == 0.0


def test_catalog_choi_lam_two_constructions_agree():
    # explicit term-by-term Gram equals the single-shear constructor output
    G = np.zeros((9, 9))
    for i in range(3):
        G[vec_index(i, i), vec_index(i, i)] += 1.0
    for (i, j) in [(0, 1), (1, 2), (2, 0)]:
        G[vec_index(i, i), vec_index(j, j)] -= 1.0
        G[vec_index(j, j), vec_index(i, i)] -= 1.0
        G[vec_index(i, j), vec_index(i, j)] += 1.0
    a = np.full((3, 3), -1.0)
    np.fill_diagonal(a, 1.0)
    built = form_from_single_shear(a, 1.0, 1.0, 1.0)
    np.testing.assert_array_equal(built.gram, G)
    np.testing.assert_array_equal(catalog("choi_lam").gram, G)


def test_catalog_serre_at_e22():
    xi = np.zeros((3, 3))
    xi[1, 1] = 1.0
    assert catalog("serre", eps=0.0)(xi) == pytest.approx(1.0)


def test_catalog_unknown_name():
    with pytest.raises(FormError):
        catalog("unknown_form")


def test_catalog_rejects_parameters_the_form_does_not_take():
    # a parameter the named form ignores would silently give the plain form
    for name, params in [("choi", {"eps": 0.3}), ("convex_identity", {"b": 1.0}),
                         ("serre", {"a": np.eye(3).tolist()}),
                         ("serre", {"epsilon": 0.3}),
                         ("reduced", {"eps": 0.1, "a": np.eye(3).tolist(),
                                      "b": 1.0, "c": 1.0, "d": 1.0})]:
        with pytest.raises(FormError, match="takes no"):
            catalog(name, **params)
        with pytest.raises(FormError, match="takes no"):
            form_from_json({"kind": "catalog", "name": name, **params})
    assert np.array_equal(catalog("serre").gram, catalog("serre", eps=0.0).gram)
    assert np.array_equal(
        form_from_json({"kind": "catalog", "name": "serre", "eps": 0.3}).gram,
        catalog("serre", eps=0.3).gram)


def test_gram_symmetry_validated():
    for entry, value in [((0, 1), 1.0), ((0, 0), np.nan), ((3, 5), np.inf)]:
        G = np.zeros((9, 9))
        G[entry] = value
        with pytest.raises(FormError):
            QuadraticForm(G)


def test_huge_finite_gram_stays_finite():
    # the symmetrization halves before adding, so entries near the float
    # limit neither overflow nor change bits
    G = np.zeros((9, 9))
    G[0, 1] = G[1, 0] = 1.7e308
    G[2, 2] = -1.7e308
    G[3, 4], G[4, 3] = 1.7e308, np.nextafter(1.7e308, 0.0)
    gram = QuadraticForm(G).gram
    assert np.all(np.isfinite(gram))
    assert np.array_equal(gram, gram.T)
    assert gram[0, 1] == 1.7e308 and gram[2, 2] == -1.7e308
    assert gram[3, 4] in (1.7e308, np.nextafter(1.7e308, 0.0))


def test_reduced_form_rejects_non_finite():
    a = np.eye(3)
    for bad_a, bcd in [(np.where(np.eye(3) > 0, np.nan, 0.0), (1, 1, 1)),
                       (a + np.inf, (1, 1, 1)), (a, (np.nan, 1, 1)),
                       (a, (1, np.inf, 1)), (a, (1, 1, -np.inf))]:
        with pytest.raises(FormError):
            ReducedOrthotropicForm(bad_a, *bcd)


def test_minor_basis_orthonormal():
    basis = minor_gram_basis()
    assert len(basis) == 9
    for i, Ni in enumerate(basis):
        for j, Nj in enumerate(basis):
            want = 1.0 if i == j else 0.0
            assert float(np.sum(Ni * Nj)) == pytest.approx(want)


def test_minors_vanish_on_rank_ones():
    rng = np.random.default_rng(31)
    for N in minor_gram_basis():
        q = QuadraticForm(N)
        for _ in range(20):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            assert abs(biquadratic_eval(q, x, y)) < 1e-12


def test_form_json_roundtrip_gram():
    q = catalog("choi")
    q2 = form_from_json(form_to_json(q))
    np.testing.assert_allclose(q2.gram, q.gram, atol=0)


def test_form_json_voigt_and_reduced():
    obj = {"kind": "voigt", "C11": 1, "C22": 2, "C33": 3, "C12": 0.1,
           "C13": 0.2, "C23": 0.3, "C44": 0.4, "C55": 0.5, "C66": 0.6}
    q = form_from_json(obj)
    assert q(np.eye(3)) == pytest.approx(1 + 2 + 3 + 2 * (0.1 + 0.2 + 0.3))
    obj = {"kind": "reduced", "a": np.eye(3).tolist(), "b": 1, "c": 1, "d": 1}
    q = form_from_json(obj)
    assert q(np.eye(3)) == pytest.approx(3.0)


def test_form_json_bad_kind():
    with pytest.raises(FormError):
        form_from_json({"kind": "mystery"})


def test_detect_shear_layout():
    lay, theta = detect_shear_layout(
        form_from_reduced(ReducedOrthotropicForm(np.eye(3), 1, 2, 3)))
    assert lay == "paired"
    np.testing.assert_allclose(theta, [1, 1, 1, 0, 0, 0, 1, 2, 3])
    lay, theta = detect_shear_layout(catalog("choi_lam"))
    assert lay == "single"
    np.testing.assert_allclose(theta, [1, 1, 1, -1, -1, -1, 1, 1, 1])
    lay, _ = detect_shear_layout(catalog("serre", eps=0.0))
    assert lay is None
    # swapping two axes, xi -> P^T xi P, turns the single-shear layout into
    # its transpose, with the same parameters in the permuted order
    P = np.eye(3)[[1, 0, 2]]
    K = np.kron(P.T, P.T)
    lay, theta = detect_shear_layout(QuadraticForm(K.T @ catalog("choi_lam").gram @ K))
    assert lay == "transposed"
    np.testing.assert_array_equal(theta, [1, 1, 1, -1, -1, -1, 1, 1, 1])
    # shears within the tolerance (1e-10 * max |G| = 2e-10 here) of a
    # shear-free form snap to exactly 0; one shear above it is kept
    rng = np.random.default_rng(11)
    theta = np.array([2.0, 1.5, 1.2, 0.3, -0.2, 0.1, 0.0, 0.0, 0.0])
    for noise, snapped in [(1e-12, True), (1.9e-10, True), (2.1e-10, False)]:
        G = form_from_theta("paired", theta).gram.copy()
        G[vec_index(0, 1), vec_index(0, 1)] = noise
        G[vec_index(1, 0), vec_index(1, 0)] = noise
        G[vec_index(1, 2), vec_index(1, 2)] = 1e-12 * rng.standard_normal()
        G[vec_index(2, 1), vec_index(2, 1)] = G[vec_index(1, 2), vec_index(1, 2)]
        lay, theta2 = detect_shear_layout(QuadraticForm(G))
        assert lay == "paired"
        assert (theta2.tobytes() == theta.tobytes()) == snapped


def test_form_from_theta_roundtrip():
    rng = np.random.default_rng(4)
    for layout in ("paired", "single", "transposed"):
        theta = rng.uniform(0.2, 2.0, 9)
        q = form_from_theta(layout, theta)
        lay2, theta2 = detect_shear_layout(q)
        assert lay2 == layout
        np.testing.assert_allclose(theta2, theta, atol=1e-12)
    with pytest.raises(FormError):
        shear_layout_basis("bogus")


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(layout=st.sampled_from(["paired", "single", "transposed"]),
       theta=st.lists(_finite, min_size=9, max_size=9))
def test_layout_table_roundtrip_is_exact(layout, theta):
    theta = np.array(theta) + 0.0  # the Gram holds no negative zeros
    lay, got = detect_shear_layout(form_from_theta(layout, theta))
    if np.all(np.abs(theta[6:]) <= 1e-10 * np.max(np.abs(theta))):
        # shears within the detector's tolerance snap to exactly 0
        layout, theta[6:] = "paired", 0.0
    assert lay == layout
    assert got.tobytes() == theta.tobytes()
