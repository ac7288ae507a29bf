"""Reference checks behind the benchmark's failure count.

Every check is a fact that the repository's tests assert or that theory
gives; none compares against a stored output of the program.  A check
returns a list of ``(code, reason)`` failures, empty when the op passed.

Theory used:
  * the sampled margin is a minimum of true values lambda_min(T(y)), so it is
    never below the true margin, which is at least lambda_min(Gram) because
    |x (x) y| = 1 for unit x, y;
  * Null-Lagrangian (2x2 minor) shifts vanish on rank-one matrices, so they
    leave the margin unchanged;
  * a PSD Gram is convex, hence polyconvex: polyconvexity must not be
    ``refuted``;
  * for unit l, Q - eps l^2 stays quasiconvex up to eps = margin, so a margin
    above 1e-4 (the probe's refutation threshold) forces Milton ``refuted``.
"""

from __future__ import annotations

import json

import numpy as np

TOL = 1e-9  # the certification tolerance of CertifyConfig

# failures the program is known to produce at this commit; they are counted
# as failed ops but do not make the run incorrect
KNOWN_DEFECTS = {
    "polyconvexity_refuted_psd":
        "polyconvexity calls a PSD (convex) Gram 'refuted': its subgradient "
        "ascent only bounds phi* from below (ROADMAP open item 1)",
}

CHOI_LAM_DET = {(4, 0, 2): 1.0, (2, 4, 0): 1.0, (0, 2, 4): 1.0, (2, 2, 2): -3.0}
PENCIL_SCALING_CUBIC = (1.5, 0.75, 0.125)


def acoustic(gram: np.ndarray, y: np.ndarray) -> np.ndarray:
    """T(y) with x.T(y).x = Q(x (x) y), straight from the Gram matrix."""
    G4 = np.asarray(gram).reshape(3, 3, 3, 3)
    return np.einsum("ijkl,j,l->ik", G4, y, y)


def rank_one_value(gram: np.ndarray, x, y) -> float:
    v = np.outer(x, y).reshape(9)
    return float(v @ gram @ v)


def poly_value(terms: dict, y) -> float:
    return sum(c * y[0] ** e[0] * y[1] ** e[1] * y[2] ** e[2]
               for e, c in terms.items())


def poly_square(terms: dict) -> dict:
    out: dict = {}
    for e1, c1 in terms.items():
        for e2, c2 in terms.items():
            key = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


def max_term_gap(a: dict, b: dict) -> float:
    return max((abs(a.get(e, 0.0) - b.get(e, 0.0)) for e in set(a) | set(b)),
               default=0.0)


# ---------------------------------------------------------------------------
# analyze: one parsed `quasicone analyze` report

def check_analyze(out: tuple[int, str], facts: dict) -> list:
    """``out`` is (exit code, stdout); ``facts`` describe the input form."""
    rc, text = out
    if rc != 0:
        return [("exit_code", f"analyze exited with code {rc}")]
    rep = json.loads(text)
    fails = []
    margin = rep["margin_report"]["margin"]
    tol = TOL * (1.0 + facts["norm"])
    if margin < facts["gram_min_eig"] - tol:
        fails.append(("margin_below_bound",
                      f"margin {margin!r} below lambda_min(Gram) "
                      f"{facts['gram_min_eig']!r}"))
    probes = rep["probes"]
    milton = probes["milton"].get("verdict")
    poly = probes["polyconvexity"].get("verdict")
    if margin > 1e-4 and milton != "refuted":
        fails.append(("milton_not_refuted",
                      f"margin {margin:.3e} > 1e-4 but milton is {milton!r}"))
    if facts["gram_min_eig"] >= -tol and poly == "refuted":
        fails.append(("polyconvexity_refuted_psd",
                      f"PSD Gram but polyconvexity refuted "
                      f"(value {probes['polyconvexity']['value']:.3e})"))
    name = facts["name"]
    if name == "convex_identity" and abs(margin - 1.0) > 1e-9:
        fails.append(("margin_value", f"convex_identity margin {margin!r} != 1"))
    if name in ("choi_lam", "choi") and abs(margin) > 1e-8:
        fails.append(("margin_value", f"{name} margin {margin!r} not within 1e-8 of 0"))
    det = rep["det_report"]
    if name == "choi_lam":
        terms = {tuple(t["exp"]): t["coef"] for t in det["det"]["terms"]}
        if set(terms) != set(CHOI_LAM_DET) or max_term_gap(terms, CHOI_LAM_DET) > 1e-10:
            fails.append(("det_terms", f"choi_lam determinant terms {terms}"))
        if det["is_perfect_square"] is not False:
            fails.append(("det_square", "choi_lam determinant called a perfect square"))
    if name in ("reduced", "voigt"):
        res = det["closed_form_residual"]
        if res is None or res > 1e-12:
            fails.append(("closed_form", f"closed-form residual {res!r} > 1e-12"))
    return fails


# ---------------------------------------------------------------------------
# margin-scan: (MarginReport, rank-one zeros or None)

def check_margin(out: tuple, facts: dict) -> list:
    report, zeros = out
    margin = report.margin
    gram = facts["gram"]
    tol = TOL * (1.0 + float(np.linalg.norm(gram)))
    fails = []
    if margin < facts["true_margin_lower"] - tol:
        fails.append(("margin_below_bound",
                      f"margin {margin!r} below the true-margin bound "
                      f"{facts['true_margin_lower']!r}"))
    if "exact" in facts and abs(margin - facts["exact"]) > 1e-9:
        fails.append(("margin_value", f"margin {margin!r} != {facts['exact']!r}"))
    for (x, y) in zeros or ():
        v = rank_one_value(gram, x, y)
        if v > tol:
            fails.append(("zero_value", f"reported zero has Q(x (x) y) = {v:.3e}"))
            break
    state = facts["state"]
    if "shift_of" in facts:
        base = state.get(facts["shift_of"])
        if base is None:
            fails.append(("shift_base", "unshifted margin missing"))
        elif abs(margin - base) > tol:
            fails.append(("shift_invariance",
                          f"minor shift moved the margin by {margin - base:.3e}"))
    else:
        state[facts["key"]] = margin
    return fails


# ---------------------------------------------------------------------------
# symbolic

def check_det(rep, facts: dict) -> list:
    """A DetReport; the determinant must equal det T(y) at sample points."""
    fails = []
    gram = facts["gram"]
    scale = 1.0 + float(np.linalg.norm(gram)) ** 3
    for y in facts["points"]:
        got = poly_value(rep.det.terms, y)
        want = float(np.linalg.det(acoustic(gram, np.asarray(y))))
        if abs(got - want) > 1e-9 * scale:
            fails.append(("det_value", f"det at {y} is {got!r}, expected {want!r}"))
            break
    if "square_coef" in facts:
        want = {(2, 2, 2): facts["square_coef"]}
        if max_term_gap(rep.det.terms, want) > 1e-10 * facts["square_coef"]:
            fails.append(("det_terms", f"determinant terms {rep.det.terms}"))
        if not rep.is_perfect_square:
            fails.append(("det_square", "perfect square not detected"))
    if rep.is_perfect_square:
        gap = max_term_gap(poly_square(rep.square_root.terms), rep.det.terms)
        if gap > 1e-8 * max(rep.det.max_coeff(), 1e-300):
            fails.append(("square_root", f"root squared misses det by {gap:.3e}"))
    if "reduced" in facts:
        res = rep.closed_form_residual
        if res is None or res > 1e-12:
            fails.append(("closed_form", f"closed-form residual {res!r} > 1e-12"))
    return fails


def check_pencil(rep) -> list:
    if not rep.proportional:
        return [("pencil_proportional",
                 f"max residual {max(rep.residuals):.3e} above tolerance")]
    got = (rep.gamma, rep.beta, rep.alpha)
    if any(abs(g - w) > 1e-9 for g, w in zip(got, PENCIL_SCALING_CUBIC)):
        return [("pencil_cubic", f"scaling cubic {got} != {PENCIL_SCALING_CUBIC}")]
    return []


def check_chain(rep) -> list:
    fails = []
    if not rep.passed:
        fails.append(("chain", f"normalized slack {rep.min_slack / rep.scale:.3e}"))
    if rep.vieta_checked and not rep.vieta_residual <= 1e-8:
        fails.append(("vieta", f"Vieta residual {rep.vieta_residual:.3e}"))
    return fails
