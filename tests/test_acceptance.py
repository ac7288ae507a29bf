"""Acceptance gate: every criterion at its stated tolerance, one pass/fail
line each (visible in the -rA summary)."""

import contextlib
import json
import subprocess
import sys
import time

import numpy as np
import pytest

import quasicone as qc
from quasicone.certify import CertifyConfig
from quasicone.poly import poly_equal_within


@contextlib.contextmanager
def criterion(num: int, label: str, budget: float | None = None):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} FAIL: {label}")
        raise
    dt = time.time() - t0
    print(f"criterion {num:02d} PASS: {label} ({dt:.1f}s)")
    if budget is not None:
        assert dt <= budget, f"criterion {num} exceeded {budget}s ({dt:.1f}s)"


def test_criterion_01_closed_form_vs_symbolic():
    with criterion(1, "reduced-form determinant: closed form vs symbolic, "
                      "1000 forms", budget=10.0):
        rng = np.random.default_rng(416)
        worst = 0.0
        for _ in range(1000):
            A = rng.uniform(-2.0, 2.0, (3, 3))
            A = (A + A.T) / 2
            b, c, d = rng.uniform(np.nextafter(0.0, 1.0), 2.0, 3)
            r = qc.ReducedOrthotropicForm(A, b, c, d)
            sym = qc.acoustic_det(qc.acoustic_matrix(qc.form_from_reduced(r)))
            closed = qc.reduced_det_closed_form(r)
            support = set(sym.terms) | set(closed.terms)
            scale = 1.0 + max(sym.max_coeff(), closed.max_coeff())
            w = max(abs(sym.terms.get(e, 0.0) - closed.terms.get(e, 0.0))
                    for e in support) / scale
            worst = max(worst, w)
        assert worst <= 1e-10, f"max per-coefficient relative residual {worst:.3e}"


_campaign_cache = {}


def _lemma_campaign():
    if "pairs" not in _campaign_cache:
        rng = np.random.default_rng(41)
        reports = []
        pairs = []
        for n in range(2, 7):
            for _ in range(500):
                pair = qc.random_ordered_pair(n, rng)
                pairs.append(pair)
                reports.append(qc.minor_chain_check(pair))
        _campaign_cache["pairs"] = pairs
        _campaign_cache["reports"] = reports
    return _campaign_cache["pairs"], _campaign_cache["reports"]


def test_criterion_02_lemma_campaign():
    with criterion(2, "minor-sum chain, Vieta, pencil coefficients; "
                      "n in 2..6 x 500 pairs", budget=15.0):
        pairs, reports = _lemma_campaign()
        failures = 0
        worst_vieta = 0.0
        worst_pencil = 0.0
        for pair, rep in zip(pairs, reports):
            if rep.min_slack < -1e-9 * rep.scale:
                failures += 1
            if rep.vieta_checked:
                worst_vieta = max(worst_vieta, rep.vieta_residual)
            coefs = list(qc.pencil_poly(pair).coefficients)
            coefs += [0.0] * (pair.n + 1 - len(coefs))
            scale = max(1.0, max(abs(s) for s in rep.sums))
            for m in range(pair.n + 1):
                err = abs(coefs[m] - (-1.0) ** m * rep.sums[m]) / scale
                worst_pencil = max(worst_pencil, err)
        assert failures == 0
        assert worst_vieta <= 1e-8, f"Vieta residual {worst_vieta:.3e}"
        assert worst_pencil <= 1e-9, f"pencil residual {worst_pencil:.3e}"


def test_criterion_03_root_localization():
    with criterion(3, "pencil roots >= 1 - 1e-9 whenever B is PD"):
        pairs, _ = _lemma_campaign()
        checked = 0
        for pair in pairs:
            if np.linalg.eigvalsh(pair.B)[0] > 1e-6:
                assert qc.pencil_roots(pair)[0] >= 1.0 - 1e-9
                checked += 1
        assert checked > 1000


def test_criterion_04_catalog_margins():
    with criterion(4, "catalog margins at default grid", budget=30.0):
        cfg = CertifyConfig()
        m = qc.quasiconvexity_margin(qc.catalog("convex_identity"), cfg).margin
        assert abs(m - 1.0) <= 1e-9, f"convex_identity margin {m}"
        m = qc.quasiconvexity_margin(qc.catalog("choi_lam"), cfg).margin
        assert -1e-8 <= m <= 1e-8, f"choi_lam margin {m}"
        m = qc.quasiconvexity_margin(qc.catalog("choi"), cfg).margin
        assert -1e-8 <= m <= 1e-8, f"choi margin {m}"
        m = qc.quasiconvexity_margin(qc.catalog("serre", eps=0.0), cfg).margin
        assert m >= -1e-9, f"serre(0) margin {m}"


def test_criterion_05_choi_lam_determinant():
    with criterion(5, "choi_lam determinant exact and not a perfect square"):
        r = subprocess.run(
            [sys.executable, "-m", "quasicone.cli", "det", "choi_lam", "--json"],
            capture_output=True, text=True)
        assert r.returncode == 0
        out = json.loads(r.stdout)
        terms = {tuple(t["exp"]): t["coef"] for t in out["det"]["terms"]}
        want = {(4, 0, 2): 1.0, (2, 4, 0): 1.0, (0, 2, 4): 1.0, (2, 2, 2): -3.0}
        assert set(terms) == set(want)
        for e, v in want.items():
            assert abs(terms[e] - v) <= 1e-10
        det = qc.acoustic_det(qc.acoustic_matrix(qc.catalog("choi_lam")))
        flag, _ = qc.perfect_square_test(det)
        assert flag is False


def test_criterion_06_pencil_identity_scaling():
    with criterion(6, "pencil identity scaling case gives (1.5, 0.75, 0.125)"):
        q = qc.catalog("choi_lam")
        rep = qc.pencil_identity_check(q, q.scaled(0.5),
                                       [0.1, 0.4, 0.9, 1.3, 1.8])
        assert rep.proportional
        assert abs(rep.gamma - 1.5) <= 1e-9
        assert abs(rep.beta - 0.75) <= 1e-9
        assert abs(rep.alpha - 0.125) <= 1e-9


def test_criterion_07_milton_probe():
    with criterion(7, "milton: convex_identity refuted (xi11 eps* >= 0.99), "
                      "choi_lam consistent (<= 1e-6), 256 directions",
                   budget=38.0):
        cfg = CertifyConfig()
        rep = qc.milton_extremality_probe(
            qc.lattice_scan(qc.catalog("convex_identity"), cfg))
        assert rep.verdict == "refuted"
        xi11 = [e for e in rep.witness["eigen_directions"]
                if abs(e["direction"][0]) > 0.999]
        assert xi11 and xi11[0]["eps_star"] >= 0.99
        rep = qc.milton_extremality_probe(
            qc.lattice_scan(qc.catalog("choi_lam"), cfg))
        assert rep.verdict == "consistent"
        assert rep.value <= 1e-6, f"max eps* {rep.value:.3e}"


def test_criterion_08_polyconvexity():
    with criterion(8, "polyconvexity: identity yes, single minor yes, choi no",
                   budget=60.0):
        cfg = CertifyConfig()
        rep = qc.polyconvexity_test(qc.catalog("convex_identity"), cfg)
        assert rep.verdict == "consistent" and rep.value >= 1.0 - 1e-6
        rep = qc.polyconvexity_test(
            qc.QuadraticForm(qc.minor_gram_basis()[0]), cfg)
        assert rep.verdict == "consistent" and rep.value >= -1e-8
        rep = qc.polyconvexity_test(qc.catalog("choi"), cfg)
        assert rep.verdict == "refuted" and rep.value <= -1e-3


def test_criterion_09_extreme_point_probe():
    with criterion(9, "extreme point: reduced identity refuted, choi_lam "
                      "consistent over 256 starts", budget=30.0):
        cfg = CertifyConfig()
        q = qc.form_from_reduced(
            qc.ReducedOrthotropicForm(np.eye(3), 1.0, 1.0, 1.0))
        rep = qc.extreme_point_probe(qc.lattice_scan(q, cfg))
        assert rep.verdict == "refuted"
        assert rep.witness["margin_q1"] >= -1e-9
        assert rep.witness["margin_complement"] >= -1e-9
        # tol=1e-12, relative to the form (a floor of tol 2^e, for the
        # scan's exponent e): the +-tol feasibility slack along
        # first-order-flat directions scales as sqrt(tol) and must sit
        # below 1e-5*norm
        cfg12 = CertifyConfig(tol=1e-12)
        rep = qc.extreme_point_probe(
            qc.lattice_scan(qc.catalog("choi_lam"), cfg12))
        norm_theta = float(np.linalg.norm(rep.witness["theta_q"]))
        assert rep.verdict == "consistent"
        assert rep.value <= 1e-5 * norm_theta, \
            f"deviation {rep.value:.3e} vs {1e-5 * norm_theta:.3e}"


def test_criterion_10_null_lagrangian_invariance():
    with criterion(10, "minor shifts: rank-one invariance x1000, "
                       "polyconvexity verdict invariance x20"):
        rng = np.random.default_rng(1010)
        for _ in range(1000):
            G = rng.standard_normal((9, 9))
            q = qc.QuadraticForm((G + G.T) / 2)
            n = qc.NullLagrangianCoeffs(rng.uniform(-2.0, 2.0, 9))
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            a = qc.biquadratic_eval(q, x, y)
            b = qc.biquadratic_eval(qc.add_null_lagrangian(q, n), x, y)
            assert abs(a - b) <= 1e-11 * (1.0 + abs(a) + abs(b))
        cfg = CertifyConfig()
        for k in range(20):
            G = rng.standard_normal((9, 9))
            G = (G + G.T) / 2
            if k % 2 == 0:
                G = G @ G.T  # PSD, polyconvex-leaning inputs too
            q = qc.QuadraticForm(G)
            before = qc.polyconvexity_test(q, cfg)
            shifted = qc.add_null_lagrangian(
                q, qc.NullLagrangianCoeffs(rng.uniform(-2.0, 2.0, 9)))
            after = qc.polyconvexity_test(shifted, cfg)
            assert before.verdict == after.verdict


def test_criterion_11_replay_determinism():
    with criterion(11, "analyze choi_lam --seed 42 byte-identical across "
                       "two runs"):
        outs = []
        for _ in range(2):
            r = subprocess.run(
                [sys.executable, "-m", "quasicone.cli", "--json",
                 "analyze", "choi_lam", "--seed", "42"],
                capture_output=True, text=True)
            assert r.returncode == 0, r.stderr
            outs.append(r.stdout)
        assert outs[0] == outs[1]
        report = json.loads(outs[0])
        assert abs(report["margin_report"]["margin"]) <= 1e-8
        assert report["det_report"]["is_perfect_square"] is False
        assert report["probes"]["milton"]["verdict"] == "consistent"
