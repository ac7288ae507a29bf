import functools
import itertools
import math
import warnings
from contextlib import ExitStack
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quasicone.minors import (MAX_N, PD_CUTOFF, PSD_TOL_REL, HypothesisError,
                              SymmetricMatrixPair, minor_chain_check, minor_sum,
                              minor_sums, pencil_poly, pencil_roots,
                              random_ordered_pair)


def test_minor_sums_identity_binomial():
    pair = SymmetricMatrixPair(np.eye(3), np.eye(3))
    assert minor_sums(pair).s == (1.0, 3.0, 3.0, 1.0)


def test_minor_sum_hand_case_2x2():
    pair = SymmetricMatrixPair(np.diag([2.0, 2.0]), np.eye(2))
    # det(A - tB) = (2-t)^2 = 4 - 4t + t^2
    assert minor_sum(pair, 0) == pytest.approx(4.0)
    assert minor_sum(pair, 1) == pytest.approx(4.0)
    assert minor_sum(pair, 2) == pytest.approx(1.0)


def test_minor_sum_endpoints_are_determinants():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4, 5):
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        pair = SymmetricMatrixPair(A + A.T, B + B.T)
        assert minor_sum(pair, 0) == np.linalg.det(pair.A)
        assert minor_sum(pair, n) == np.linalg.det(pair.B)


def _integer_pair(n, rng):
    """Symmetric pair with entries in -4..4: every minor and every S_m is
    an integer that a double holds exactly."""
    X, Y = rng.integers(-2, 3, (2, n, n))
    return SymmetricMatrixPair(X + X.T, Y + Y.T)


def test_minor_sums_are_exact_on_small_integer_pairs():
    # the Laplace recursion adds integer products only, so 0 < m < n is
    # bitwise the exact rational S_m; the endpoints are LAPACK's dets
    rng = np.random.default_rng(11)
    for n in range(2, 9):
        for _ in range(4):
            pair = _integer_pair(n, rng)
            sums, ref = minor_sums(pair).s, _exact_pencil(pair)
            for m in range(1, n):
                assert Fraction(sums[m]) == (-1) ** m * ref[m], (n, m)
            assert sums[0] == np.linalg.det(pair.A)
            assert sums[n] == np.linalg.det(pair.B)


def test_minor_sums_meet_the_exact_rational_pencil():
    # every S_m within 1e-14 of the largest |S_m|, n = 2..8
    rng = np.random.default_rng(11)
    for n in range(2, MAX_N + 1):
        for _ in range(3):
            pair = random_ordered_pair(n, rng)
            ref = [(-1) ** m * c for m, c in enumerate(_exact_pencil(pair))]
            bound = Fraction(1e-14) * max(abs(c) for c in ref)
            sums = minor_sums(pair).s
            assert max(abs(Fraction(s) - r) for s, r in zip(sums, ref)) <= bound


def test_minor_sum_range_checked():
    pair = SymmetricMatrixPair(np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        minor_sum(pair, 3)
    with pytest.raises(ValueError):
        minor_sum(pair, -1)


def test_minor_sum_rejects_non_integral_m():
    pair = SymmetricMatrixPair(np.diag([2.0, 2.0]), np.eye(2))
    for bad in (1.5, 2.0, np.float64(1.0), "1", None):
        with pytest.raises(ValueError, match="m must be an integer"):
            minor_sum(pair, bad)
    assert minor_sum(pair, np.int64(1)) == minor_sum(pair, 1) == 4.0
    assert minor_sum(pair, np.uint8(2)) == 1.0


def test_pencil_poly_identity():
    pair = SymmetricMatrixPair(np.eye(3), np.eye(3))
    np.testing.assert_allclose(pencil_poly(pair).coefficients,
                               (1.0, -3.0, 3.0, -1.0), atol=1e-12)


def test_pencil_poly_zero_b():
    A = np.diag([2.0, 3.0, 4.0])
    pair = SymmetricMatrixPair(A, np.zeros((3, 3)))
    np.testing.assert_allclose(pencil_poly(pair).coefficients, (24.0,),
                               atol=1e-10)


def _exact_det(M):
    """det of a list of Fraction rows, by exact elimination."""
    n, det = len(M), Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if M[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            M[c], M[p], det = M[p], M[c], -det
        det *= M[c][c]
        for r in range(c + 1, n):
            f = M[r][c] / M[c][c]
            M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return det


def _exact_pencil(pair):
    """Coefficients of det(A - tB) in exact rationals: exact dets at
    t = 0..n, Newton's divided differences, then Horner on the Newton
    form."""
    n = pair.n
    A = [[Fraction(x) for x in row] for row in pair.A.tolist()]
    B = [[Fraction(x) for x in row] for row in pair.B.tolist()]
    dd = [_exact_det([[a - t * b for a, b in zip(ra, rb)]
                      for ra, rb in zip(A, B)]) for t in range(n + 1)]
    for k in range(1, n + 1):
        for i in range(n, k - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / k
    coefs = [dd[n]]
    for k in range(n - 1, -1, -1):
        coefs = [dd[k] - k * coefs[0]] + [
            a - k * b for a, b in zip(coefs, coefs[1:] + [0])]
    return coefs


def test_exact_pencil_reference_on_the_identity():
    pair = SymmetricMatrixPair(np.eye(3), np.eye(3))
    assert _exact_pencil(pair) == [1, -3, 3, -1]


def test_pencil_poly_meets_an_exact_rational_reference():
    # each coefficient within 1e-13 of the largest |S_m|, n = 2..8
    rng = np.random.default_rng(0)
    for n in range(2, 9):
        for _ in range(5):
            pair = random_ordered_pair(n, rng)
            ref = _exact_pencil(pair)
            got = pencil_poly(pair).coefficients
            got += (0.0,) * (n + 1 - len(got))
            bound = Fraction(1e-13) * max(abs(c) for c in ref)
            assert max(abs(Fraction(g) - r) for g, r in zip(got, ref)) <= bound


def test_pencil_poly_matches_signed_minor_sums():
    # the two independent computations are the oracle pair for each other
    rng = np.random.default_rng(42)
    for n in range(2, MAX_N + 1):
        for _ in range(20):
            pair = random_ordered_pair(n, rng)
            sums = minor_sums(pair).s
            coefs = list(pencil_poly(pair).coefficients)
            coefs += [0.0] * (n + 1 - len(coefs))
            scale = max(1.0, max(abs(s) for s in sums))
            for m in range(n + 1):
                assert abs(coefs[m] - (-1.0) ** m * sums[m]) <= 1e-9 * scale


def test_pencil_roots_equal_pair():
    pair = SymmetricMatrixPair(np.eye(3), np.eye(3))
    np.testing.assert_allclose(pencil_roots(pair), [1.0, 1.0, 1.0], atol=1e-12)


def test_pencil_roots_double_pair():
    rng = np.random.default_rng(6)
    G = rng.standard_normal((4, 4))
    B = G.T @ G + 0.5 * np.eye(4)
    pair = SymmetricMatrixPair(2.0 * B, B)
    np.testing.assert_allclose(pencil_roots(pair), np.full(4, 2.0), atol=1e-10)


def test_pencil_roots_localized_above_one():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        pair = random_ordered_pair(n, rng)
        if np.linalg.eigvalsh(pair.B)[0] <= 1e-6:
            continue
        assert pencil_roots(pair)[0] >= 1.0 - 1e-9


def test_pencil_roots_singular_b_instructs_shift():
    # B = 0, and B semidefinite to within its rounding
    for B in (np.zeros((2, 2)), np.diag([1.0, 1e-12]), np.diag([1.0, -1e-12])):
        pair = SymmetricMatrixPair(np.eye(2), B)
        with pytest.raises(HypothesisError, match="singular to tolerance.*shift"):
            pencil_roots(pair)


@pytest.mark.parametrize("B", [-np.eye(3), np.diag([1.0, -0.5, 2.0]),
                               np.diag([1.0, -1e-9, 1.0])])
def test_pencil_roots_names_an_indefinite_b(B):
    # no small shift makes such a B definite, so none is advised
    with pytest.raises(HypothesisError, match="B is not positive definite") as err:
        pencil_roots(SymmetricMatrixPair(np.eye(3), B))
    assert "shift" not in str(err.value)


def test_chain_identity_equality_case():
    rep = minor_chain_check(SymmetricMatrixPair(np.eye(3), np.eye(3)))
    assert rep.min_slack == pytest.approx(0.0, abs=1e-12)
    assert rep.passed


def test_chain_hand_case():
    rep = minor_chain_check(SymmetricMatrixPair(np.diag([2.0, 2.0]), np.eye(2)))
    # S_1/2 = 2, S_2/1 = 1, slack 1
    assert rep.min_slack == pytest.approx(1.0, abs=1e-12)


def test_chain_campaign_small():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        rep = minor_chain_check(random_ordered_pair(n, rng))
        assert rep.passed
        if rep.vieta_checked:
            assert rep.vieta_residual <= 1e-8



def test_chain_solves_each_symmetric_eigenproblem_once():
    # one stacked solve of (A, B, A - B) and one of the reduced pencil, no
    # SVD, and the report's roots are the ones pencil_roots gives on its own
    rng = np.random.default_rng(31)
    for n in range(3, 9):
        pair = random_ordered_pair(n, rng)
        with ExitStack() as stack:
            evh = stack.enter_context(mock.patch.object(
                np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh))
            for name in ("svd", "norm"):
                stack.enter_context(mock.patch.object(
                    np.linalg, name, side_effect=AssertionError(name)))
            rep = minor_chain_check(pair)
        assert rep.vieta_checked and evh.call_count == 2
        assert rep.roots == tuple(float(t) for t in pencil_roots(pair))


def test_chain_rejects_bad_hypotheses():
    with pytest.raises(HypothesisError, match="A - B"):
        minor_chain_check(SymmetricMatrixPair(np.eye(3), 2 * np.eye(3)))
    with pytest.raises(HypothesisError, match="B is not"):
        minor_chain_check(SymmetricMatrixPair(np.eye(3), -np.eye(3)))


@pytest.mark.parametrize("s", [1.0, 1e-6, 1e-11, 1e-30])
def test_chain_hypotheses_are_relative_at_every_scale(s):
    # A - B = -s/2 I is as far from PSD at s = 1e-11 as at s = 1
    with pytest.raises(HypothesisError, match="A - B"):
        minor_chain_check(SymmetricMatrixPair(0.5 * s * np.eye(3), s * np.eye(3)))
    rep = minor_chain_check(SymmetricMatrixPair(2.0 * s * np.eye(3), s * np.eye(3)))
    assert rep.passed and rep.vieta_checked
    assert rep.roots == pytest.approx((2.0, 2.0, 2.0), rel=1e-14)


def _drawn_pair(n, seed, shift_ab, shift_b):
    """A pair drawn as random_ordered_pair draws it, with A - B and B
    shifted by the given shares of their largest eigenvalue, so that
    either may fail its hypothesis or sit near the edge."""
    rng = np.random.default_rng(seed)
    G, H = rng.standard_normal((2, n, n))
    B = G.T @ G
    B = B - shift_b * np.linalg.eigvalsh(B)[-1] * np.eye(n)
    D = H.T @ H
    return SymmetricMatrixPair(B + D - shift_ab * np.linalg.eigvalsh(D)[-1] * np.eye(n), B)


def _chain_outcome(pair):
    try:
        rep = minor_chain_check(pair)
    except HypothesisError as exc:
        return str(exc).split(" (")[0], None
    return (rep.passed, rep.vieta_checked), rep.sums


_SHIFTS = [0.0, 1e-13, 1e-9, 1e-7, -1e-6, -1e-3]
_shifts = st.sampled_from(_SHIFTS)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, MAX_N), seed=st.integers(0, 2**32 - 1),
       shift_ab=_shifts, shift_b=_shifts, k=st.integers(-60, 60))
def test_chain_outcome_is_invariant_under_power_of_two_scaling(
        n, seed, shift_ab, shift_b, k):
    # the lemma is homogeneous: 2^k (A, B) raises the same error, or reads
    # the same passed and vieta_checked with every S_m scaled by 2^(nk):
    # bit for bit for 0 < m < n, and to rounding for det(A) and det(B),
    # which np.linalg.det takes as exp of the summed logs of LU pivots
    pair = _drawn_pair(n, seed, shift_ab, shift_b)
    outcome, sums = _chain_outcome(pair)
    scaled, scaled_sums = _chain_outcome(
        SymmetricMatrixPair(np.ldexp(pair.A, k), np.ldexp(pair.B, k)))
    assert scaled == outcome
    if sums is not None:
        want = np.ldexp(sums, n * k)
        assert scaled_sums[1:-1] == tuple(want[1:-1])
        np.testing.assert_allclose(scaled_sums[::n], want[::n], rtol=1e-13, atol=0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, MAX_N), seed=st.integers(0, 2**32 - 1),
       k=st.integers(-300, 300))
@example(n=5, seed=0, k=-300)
@example(n=8, seed=0, k=200)
def test_chain_is_decided_in_the_pairs_frame_at_every_scale(n, seed, k):
    # at 2^-300 the sums of a random pair underflow in its own frame, and
    # at 2^300 they overflow, but the sums are taken on the pair scaled
    # into its frame, which is the same pair bit for bit at every k (the
    # roots, from the pair as given, move by rounding)
    pair = random_ordered_pair(n, np.random.default_rng(seed))
    base = minor_chain_check(pair)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = minor_chain_check(
            SymmetricMatrixPair(np.ldexp(pair.A, k), np.ldexp(pair.B, k)))
    assert (rep.passed, rep.vieta_checked) == (base.passed, base.vieta_checked)
    assert rep.vieta_residual <= 1e-8


def test_chain_reports_an_ordered_pair_at_an_extreme_scale():
    # the sums are reported in the pair's own frame, 0.0 below its range
    # and inf above it, while the chain and Vieta are decided in its frame:
    # no NaN, no RuntimeWarning, and the roots of 2 I - t I
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for A, B, sums in [(2e-60, 1e-60, 0.0), (2.0**201, 2.0**200, np.inf)]:
            rep = minor_chain_check(SymmetricMatrixPair(A * np.eye(8), B * np.eye(8)))
            assert rep.passed and rep.vieta_checked
            assert rep.vieta_residual <= 1e-14
            assert rep.sums == (sums,) * 9 and rep.scale == sums
            assert rep.roots == pytest.approx((2.0,) * 8, rel=1e-14)


@functools.lru_cache(maxsize=None)
def _full_square_tables(n, m):
    """At [k, I, J] for all m-subsets I, J: the flat index of M[I[0], J[k]]
    in an n x n matrix and of the minor (I[1:], J without J[k]) in the
    full-square order-(m - 1) table."""
    prev = {S: i for i, S in enumerate(itertools.combinations(range(n), m - 1))}
    subsets = list(itertools.combinations(range(n), m))
    at_M = [[[I[0] * n + J[k] for J in subsets] for I in subsets] for k in range(m)]
    at_D = [[[prev[I[1:]] * len(prev) + prev[J[:k] + J[k + 1:]] for J in subsets]
             for I in subsets] for k in range(m)]
    return np.array(at_M), np.array(at_D)


def _full_square_minor_sums(pair):
    """S_0..S_n from the Laplace recursion over every pair (I, J) of
    m-subsets, not only I <= J, one expansion column at a time, each S_m
    signed by (-1)^(sum I + sum J) over the full square."""
    n = pair.n
    M = np.stack((pair.B, pair.A)).reshape(2, -1)
    minors = [np.ones((2, 1, 1))]
    for m in range(1, n):
        at_M, at_D = _full_square_tables(n, m)
        D = minors[-1].reshape(2, -1)
        acc = M.take(at_M[0], axis=1) * D.take(at_D[0], axis=1)
        for k in range(1, m):
            acc = acc + (-1) ** k * M.take(at_M[k], axis=1) * D.take(at_D[k], axis=1)
        minors.append(acc)
    inner = []
    for m in range(1, n):
        parity = [sum(S) for S in itertools.combinations(range(n), m)]
        # the complement of the i-th m-subset is the (C - 1 - i)-th (n - m)-subset
        inner.append(float(np.vdot((-1.0) ** np.add.outer(parity, parity),
                                   minors[m][0] * minors[n - m][1][::-1, ::-1])))
    return (float(np.linalg.det(pair.A)), *inner, float(np.linalg.det(pair.B)))


def _pairwise_slack(sums):
    """The least S_k/C(n,k) - S_m/C(n,m) over every pair 1 <= k < m <= n."""
    n = len(sums) - 1
    a = [s / math.comb(n, m) for m, s in enumerate(sums)]
    return min(a[k] - a[m] for k in range(1, n + 1) for m in range(k + 1, n + 1))


def _term_by_term_vieta(sums, roots):
    """The largest relative gap between S_m and det(B) e_{n-m}(roots)."""
    n = len(sums) - 1
    e = np.zeros(n + 1)
    e[0] = 1.0
    for r in roots:
        e[1:] = e[1:] + r * e[:-1]
    worst = 0.0
    for m in range(n + 1):
        predicted = sums[n] * e[n - m]
        worst = max(worst, abs(sums[m] - predicted)
                    / max(abs(sums[m]), abs(predicted)))
    return worst


def _reference_chain(pair):
    """minor_chain_check written out: a PSD tolerance from the 2-norms
    (SVDs), one eigen-solve per matrix, the full-square minor sums, the
    slack over every pair, and the pencil reduced by two triangular
    solves.  Returns the HypothesisError text, or passed, vieta_checked,
    the sums and the roots."""
    A, B = pair.A, pair.B
    tol = PSD_TOL_REL * max(np.linalg.norm(A, 2), np.linalg.norm(B, 2))
    wB = np.linalg.eigvalsh(B)
    if wB[0] < -tol:
        return f"B is not positive semidefinite (min eigenvalue {wB[0]:.3e})"
    wAB = np.linalg.eigvalsh(A - B)
    if wAB[0] < -tol:
        return f"A - B is not positive semidefinite (min eigenvalue {wAB[0]:.3e})"
    sums = _full_square_minor_sums(pair)
    passed = _pairwise_slack(sums) >= -1e-9 * max(abs(s) for s in sums)
    if not wB[0] > PD_CUTOFF * wB[-1]:
        return passed, False, sums, None
    L = np.linalg.cholesky(B)
    C = np.linalg.solve(L, np.linalg.solve(L, A).T)
    return passed, True, sums, np.linalg.eigvalsh(0.5 * (C + C.T))


def _singular_b(pair):
    """The pair with B's least eigenvalue taken out of B and A alike, so
    that B is singular to rounding and A - B is unchanged."""
    w, V = np.linalg.eigh(pair.B)
    drop = w[0] * np.outer(V[:, 0], V[:, 0])
    return SymmetricMatrixPair(pair.A - drop, pair.B - drop)


def test_chain_meets_the_written_out_reference_on_a_campaign():
    # every n, with shifts that put A - B or B on either side of its
    # hypothesis or near the edge, and the same pairs with a singular B
    outcomes = set()
    for n in range(2, MAX_N + 1):
        for i, shifts in enumerate(itertools.product(_SHIFTS + [1.0], repeat=2)):
            drawn = _drawn_pair(n, 100 * n + i, *shifts)
            for pair in (drawn, _singular_b(drawn)):
                ref = _reference_chain(pair)
                try:
                    rep = minor_chain_check(pair)
                except HypothesisError as exc:
                    assert str(exc) == ref
                    outcomes.add(str(exc).split(" (")[0])
                    continue
                passed, vieta_checked, sums, roots = ref
                outcomes.add((passed, vieta_checked))
                assert (rep.passed, rep.vieta_checked) == (passed, vieta_checked)
                assert rep.min_slack == _pairwise_slack(rep.sums)
                assert (np.max(np.abs(np.subtract(rep.sums, sums)))
                        <= 1e-14 * np.max(np.abs(sums)))
                if vieta_checked:
                    np.testing.assert_allclose(rep.roots, roots, rtol=1e-10, atol=0)
                    assert (rep.vieta_residual
                            == _term_by_term_vieta(rep.sums, rep.roots))
    assert outcomes == {"B is not positive semidefinite",
                        "A - B is not positive semidefinite",
                        (True, True), (True, False)}


def test_eps_shift_consistency():
    rng = np.random.default_rng(9)
    G = rng.standard_normal((4, 4))
    B = G.T @ G
    H = rng.standard_normal((4, 4))
    pair = SymmetricMatrixPair(B + H.T @ H, B)
    base = np.array(minor_sums(pair).s)
    prev = None
    for eps in (1e-2, 1e-4, 1e-6):
        shifted = np.array(minor_sums(pair.shifted(eps)).s)
        err = np.max(np.abs(shifted - base)) / max(1.0, np.max(np.abs(base)))
        if prev is not None:
            assert err < prev
        prev = err
    assert prev < 1e-4


def test_symmetry_validated():
    M = np.eye(3)
    N = M.copy()
    N[0, 1] = 0.5
    with pytest.raises(ValueError, match="symmetric"):
        SymmetricMatrixPair(M, N)


def test_non_finite_entries_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        M = np.eye(3)
        M[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            SymmetricMatrixPair(M, np.eye(3))
        with pytest.raises(ValueError, match="finite"):
            SymmetricMatrixPair(np.eye(3), M)


def test_size_limits():
    with pytest.raises(ValueError):
        SymmetricMatrixPair(np.eye(1), np.eye(1))
    with pytest.raises(ValueError):
        SymmetricMatrixPair(np.eye(9), np.eye(9))


_factors = st.integers(2, MAX_N).flatmap(lambda n: st.tuples(*[
    arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0))] * 3))


def _underflowing_pivot():
    # B has rank one, entry 6.25e-278, so an LU pivot of P B P^T underflows to 0
    G = np.zeros((4, 4))
    G[0, 3] = 5e-139
    return G, np.zeros((4, 4)), np.full((4, 4), 0.4001)


@settings(max_examples=100, deadline=None)
@given(factors=_factors)
@example(factors=_underflowing_pivot())
def test_minor_sums_invariant_under_orthogonal_congruence(factors):
    # det(P (A - tB) P^T) = det(A - tB) for orthogonal P, so every S_m is
    # invariant; A >= B >= 0 with A - B >= I keeps max |S_m| >= 1
    G, H, M = factors
    n = len(G)
    B = G.T @ G / n
    A = B + H.T @ H / n + np.eye(n)
    P = np.linalg.qr(M)[0]
    sums = np.array(minor_sums(SymmetricMatrixPair(A, B)).s)
    turned = np.array(minor_sums(SymmetricMatrixPair(P @ A @ P.T, P @ B @ P.T)).s)
    assert np.max(np.abs(turned - sums)) <= 1e-12 * np.max(np.abs(sums))
