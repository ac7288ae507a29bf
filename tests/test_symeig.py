import numpy as np

from quasicone.symeig import eigmin3, eigvals3


def test_matches_lapack_random():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((5000, 3, 3))
    A = (A + A.transpose(0, 2, 1)) / 2
    np.testing.assert_allclose(eigvals3(A), np.linalg.eigvalsh(A),
                               atol=1e-12, rtol=1e-10)


def test_degenerate_fallback():
    D = np.array([
        np.eye(3),
        np.diag([1.0, 1.0, 2.0]),
        np.diag([0.0, 1e-15, 1.0]),
        np.zeros((3, 3)),
        np.diag([5.0, 5.0, 5.0]),
    ])
    lam = eigvals3(D)
    np.testing.assert_allclose(lam[0], [1, 1, 1], atol=1e-15)
    np.testing.assert_allclose(lam[2], [0, 1e-15, 1], atol=1e-14)
    np.testing.assert_allclose(lam[3], [0, 0, 0], atol=0)


def _rotated_spectra(rng, spectra):
    """Symmetric matrices R diag(spectrum) R^T for random orthogonal R."""
    R = np.linalg.qr(rng.standard_normal((len(spectra), 3, 3)))[0]
    return np.einsum("nij,nj,nkj->nik", R, np.asarray(spectra, float), R)


def test_eigmin_eigenvector_residual():
    rng = np.random.default_rng(1)
    stacks = []
    for n in (1, 12, 16, 2000):
        A = rng.standard_normal((n, 3, 3))
        stacks.append((A + A.transpose(0, 2, 1)) / 2)
    # lower gap l2 - l1 at 0.9x and 1.1x the fallback line 1e-7 * span
    # (span = l3 - l1 = 2), then a coinciding upper pair l2 = l3
    factors = np.repeat([0.9, 1.1], 8)
    near_line = _rotated_spectra(
        rng, [[-1.0, -1.0 + f * 2e-7, 1.0] for f in factors])
    upper_pair = _rotated_spectra(rng, [[-1.0, 0.5, 0.5]] * 12)
    stacks += [near_line, upper_pair]
    for A in stacks:
        lam, v = eigmin3(A)
        res = np.linalg.norm(np.einsum("nij,nj->ni", A, v) - lam[:, None] * v,
                             axis=1)
        lam3 = eigvals3(A)
        gap = lam3[:, 1] - lam3[:, 0]
        fallback = gap <= 1e-7 * (lam3[:, 2] - lam3[:, 0])
        bound = 1e-12 * (1 + np.max(np.abs(A)))
        if A is near_line:
            # the projector's rounding error eps |M|^2 is divided by the
            # gap, so rows just above the line reach residuals near 1e-8 |M|
            assert np.array_equal(fallback, factors < 1.0)
            bound = np.where(fallback, bound, 64 * np.finfo(float).eps / gap)
        assert np.all(res < bound)
        np.testing.assert_allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)
        # rows that keep the projector vector keep eigvals3's eigenvalue
        assert np.array_equal(lam[~fallback], lam3[~fallback, 0])
        if A is upper_pair:
            assert not np.any(fallback)


def test_eigmin_single_matrix():
    lam, v = eigmin3(np.diag([3.0, -1.0, 2.0]))
    assert abs(lam - (-1.0)) < 1e-14
    np.testing.assert_allclose(np.abs(v), [0, 1, 0], atol=1e-13)


def test_scaling_homogeneity():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((500, 3, 3))
    A = (A + A.transpose(0, 2, 1)) / 2
    np.testing.assert_allclose(eigvals3(2.0 * A), 2.0 * eigvals3(A),
                               rtol=1e-12, atol=1e-13)
