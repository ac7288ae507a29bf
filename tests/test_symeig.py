from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quasicone import symeig
from quasicone.symeig import eigmin3, eigvals3

EPS = np.finfo(float).eps
# lower gaps l2 - l1, relative to the span l3 - l1, below which eigvals3
# redoes a row with eigvalsh and eigmin3 takes its vector from eigh
EIGVALS_LINE = 1e-6
EIGMIN_LINE = 1e-7


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


@st.composite
def _spectrum_kinds(draw):
    """(kind, spectrum, span, lower gap, seed): a coinciding or nearly
    coinciding upper pair, a lower pair at 0.9x or 1.1x one of the two
    fallback lines, or a triple root, each scaled by 2^k."""
    kind = draw(st.sampled_from(["upper", "lower", "triple"]))
    if kind == "upper":
        delta = draw(st.sampled_from([0.0] + [10.0 ** -e for e in range(2, 18)]))
        spectrum = [-1.0, 0.5, 0.5 + delta]
    elif kind == "lower":
        line = draw(st.sampled_from([EIGVALS_LINE, EIGMIN_LINE]))
        factor = draw(st.sampled_from([0.9, 1.1]))
        spectrum = [-1.0, -1.0 + factor * line * 2.0, 1.0]
    else:
        spectrum = [draw(st.sampled_from([-1.0, 0.0, 0.375, 1.0]))] * 3
    k = draw(st.integers(-40, 40))
    spectrum = np.ldexp(spectrum, k)
    span = spectrum[2] - spectrum[0]
    return (kind, spectrum, span, spectrum[1] - spectrum[0],
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=80, deadline=None)
@given(case=_spectrum_kinds())
def test_kernel_properties_on_rotated_spectra(case):
    kind, spectrum, span, gap, seed = case
    A = _rotated_spectra(np.random.default_rng(seed), [spectrum] * 8)
    ref = np.linalg.eigvalsh(A)[:, 0]
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as evh, \
            mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eh:
        lam = eigvals3(A)
        l1, v = eigmin3(A)
    # LAPACK runs only below the lines on the lower gap (and, for eigh, on
    # the triple root's isotropic rows); a nearly repeated upper pair
    # leaves l1 to the closed form
    assert evh.called == (kind == "lower" and gap < EIGVALS_LINE * span)
    assert eh.called == (kind == "triple" or (kind == "lower"
                                               and gap < EIGMIN_LINE * span))
    scale = max(span, np.max(np.abs(spectrum)))
    # rows kept by the closed form lose eps scale span / gap (the lower
    # pair's arccos, then the adjugate's rounding); LAPACK rows lose eps scale
    lam_bound = 16 * EPS * scale * (span / gap if gap > EIGVALS_LINE * span else 1.0)
    vec_bound = 16 * EPS * scale * (span / gap if gap > EIGMIN_LINE * span else 1.0)
    assert np.all(np.abs(lam[:, 0] - ref) <= lam_bound)
    assert np.all(np.abs(l1 - ref) <= lam_bound)
    assert np.all(np.abs(np.linalg.norm(v, axis=1) - 1.0) <= 8 * EPS)
    res = np.linalg.norm(np.einsum("nij,nj->ni", A, v) - l1[:, None] * v, axis=1)
    assert np.all(res <= vec_bound)


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([1, 12, 9216]), seed=st.integers(0, 2**32 - 1),
       kinds=st.sets(st.sampled_from(["isotropic", "lower"])))
def test_view_of_components_first_storage_is_bitwise_identical(n, seed, kinds):
    # random rows, then if drawn isotropic rows q I and rows whose lower
    # pair sits at half eigmin3's line, so that both kernels use LAPACK
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, 3, 3))
    A = (A + A.transpose(0, 2, 1)) / 2
    special = rng.permutation(n)[:max(2, n // 8)]
    iso = special[::2] if "isotropic" in kinds else special[:0]
    low = special[len(iso) and 1::2] if "lower" in kinds else special[:0]
    A[iso] = rng.standard_normal(len(iso))[:, None, None] * np.eye(3)
    if len(low):
        A[low] = _rotated_spectra(rng, [[-1.0, -1.0 + EIGMIN_LINE, 1.0]] * len(low))
    # the same values as the transposed view of (3, 3, n) storage
    view = np.ascontiguousarray(A.transpose(1, 2, 0)).transpose(2, 0, 1)
    assert np.array_equal(view, A)
    assert n == 1 or not view.flags.c_contiguous
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as evh, \
            mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eh:
        lam = eigvals3(A)
        l1, v = eigmin3(A)
    assert evh.called == (len(low) > 0)
    assert eh.called == (len(low) + len(iso) > 0)
    assert eigvals3(view).tobytes() == lam.tobytes()
    lv, vv = eigmin3(view)
    assert lv.tobytes() == l1.tobytes() and vv.tobytes() == v.tobytes()
    # the single-matrix path, on strided (3, 3) views
    for i in (0, n - 1):
        assert eigvals3(view[i]).tobytes() == eigvals3(A[i]).tobytes()
        ls, vs = eigmin3(view[i])
        lc, vc = eigmin3(A[i])
        assert ls.tobytes() == lc.tobytes() and vs.tobytes() == vc.tobytes()


def _eigmin3_two_gathers(M):
    """eigmin3 as it was before it shared eigvals3's gather: eigvals3, then
    a second upper-triangle gather for the adjugate, and eigh on the rows
    near a repeated l1."""
    lam = eigvals3(M)
    l1 = lam[:, 0].copy()
    span = np.maximum(lam[:, 2] - l1, 1e-300)
    gap = lam[:, 1] - l1
    B = symeig._upper(M)
    B[:3] -= l1
    u, w, x, z = symeig._ADJ
    adj = B[u] * B[w] - B[x] * B[z]
    sq = adj * adj
    c0, c1, c2 = symeig._COLUMNS
    n0, n1, n2 = sq[c0] + sq[c1] + sq[c2]
    nv = np.maximum(n0, n1)
    best = np.maximum(n1 > n0, 2 * (n2 > nv))
    nv = np.sqrt(np.maximum(nv, n2))
    onehot = best == np.arange(3)[:, None]
    v = adj[c0] * onehot[0]
    v += adj[c1] * onehot[1]
    v += adj[c2] * onehot[2]
    v /= nv + (nv == 0.0)
    bad = (gap <= 1e-7 * span) | (nv <= 1e-12 * span * span)
    if bad.any():
        evals, evecs = np.linalg.eigh(M[bad])
        l1[bad] = evals[:, 0]
        v[:, bad] = evecs[:, :, 0].T
    return l1, v.T


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([2, 12, 9216]), seed=st.integers(0, 2**32 - 1))
def test_eigmin3_gathers_once_and_matches_two_gathers(n, seed):
    # random rows with isotropic rows and rows at eigmin3's line mixed in
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, 3, 3))
    A = (A + A.transpose(0, 2, 1)) / 2
    special = rng.permutation(n)[:max(2, n // 8)]
    A[special[::2]] = (rng.standard_normal(len(special[::2]))[:, None, None]
                       * np.eye(3))
    A[special[1::2]] = _rotated_spectra(
        rng, [[-1.0, -1.0 + EIGMIN_LINE, 1.0]] * len(special[1::2]))
    view = np.ascontiguousarray(A.transpose(1, 2, 0)).transpose(2, 0, 1)
    ref = _eigmin3_two_gathers(A)
    for M in (A, view):
        with mock.patch.object(symeig, "_upper", wraps=symeig._upper) as up:
            l1, v = eigmin3(M)
        assert up.call_count == 1
        assert l1.tobytes() == ref[0].tobytes()
        assert np.ascontiguousarray(v).tobytes() == \
            np.ascontiguousarray(ref[1]).tobytes()
    # eigvals3 leaves the rows it is handed unchanged for eigmin3's adjugate
    C = symeig._upper(A)
    C0 = C.copy()
    assert eigvals3(A, C).tobytes() == eigvals3(A).tobytes()
    assert C.tobytes() == C0.tobytes()
