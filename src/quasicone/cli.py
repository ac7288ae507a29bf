"""Command-line front end: analyze, det, lemma, catalog.

All output is JSON (schema "quasicone/1"); floats serialize with Python's
shortest round-trip representation, so identical runs are byte-identical.
Parse and precondition failures exit nonzero with a machine-readable error
object on stderr; probe-level precondition failures are embedded in the
report and do not change the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

import numpy as np

from . import __version__
from .certify import (CertifyConfig, PreconditionError,
                      extremal_polynomial_probe, extreme_point_probe,
                      lattice_scan, milton_extremality_probe,
                      polyconvexity_test)
from .determinant import (REDUCED_DET_SUPPORT, acoustic_det, det_report,
                          reduced_det_closed_form)
from .forms import (CATALOG_INFO, FormError, QuadraticForm,
                    ReducedOrthotropicForm, acoustic_matrix, catalog,
                    form_from_json, form_from_reduced, form_to_json,
                    reduced_from_json)
from .minors import HypothesisError, minor_chain_check, random_ordered_pair

SCHEMA = "quasicone/1"


class CliError(Exception):
    """Fatal CLI failure; carries the machine-readable error object."""

    def __init__(self, code: str, message: str, **detail):
        super().__init__(message)
        self.obj = {"error": {"code": code, "message": message, **detail}}


def _load_form(source: str, eps: float) -> tuple[QuadraticForm,
                                                 Optional[ReducedOrthotropicForm],
                                                 dict]:
    """Resolve a path-or-catalog-name into (form, reduced-view, echo JSON)."""
    if eps and source != "serre":
        raise CliError("usage", f"--eps is serre's parameter; {source!r} takes none")
    if source in CATALOG_INFO:
        if source == "reduced":
            raise CliError("usage", "catalog form 'reduced' needs parameters; "
                                    "pass a JSON file with kind 'reduced'")
        params = {"eps": eps} if source == "serre" else {}
        return catalog(source, **params), None, {
            "kind": "catalog", "name": source, **params}
    if not os.path.exists(source):
        raise CliError("usage", f"{source!r} is neither a catalog name nor a file",
                       catalog=sorted(CATALOG_INFO))
    try:
        with open(source, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CliError("parse", f"invalid JSON in {source}: {exc.msg}",
                       line=exc.lineno, column=exc.colno)
    try:
        form = form_from_json(obj)
        reduced = reduced_from_json(obj)
    except (FormError, KeyError, TypeError, ValueError) as exc:
        raise CliError("parse", f"bad form object in {source}: {exc}")
    echo = obj if obj.get("kind") != "gram" else form_to_json(form)
    return form, reduced, echo


def _probe_or_error(fn, *args) -> dict:
    try:
        report = fn(*args)
        return report.to_json()
    except PreconditionError as exc:
        return {"error": {"code": "precondition", "message": str(exc)}}


def cmd_analyze(args) -> dict:
    cfg = CertifyConfig(grid_resolution=args.grid, tol=args.tol, seed=args.seed)
    form, reduced, echo = _load_form(args.form, args.eps)
    scan = lattice_scan(form, cfg)
    dr = det_report(form, reduced)
    # the Milton and extremal-sextic probes read the input form's scan;
    # voigt inputs reach the extreme-point probe through their
    # Null-Lagrangian reduction (same biquadratic, same cone structure),
    # which is a different Gram and so needs its own scan; for any other
    # input lattice_scan returns the scan above
    probe_form = form_from_reduced(reduced) if reduced is not None else form
    probe_scan = lattice_scan(probe_form, cfg)
    probes = {
        "milton": _probe_or_error(milton_extremality_probe, scan),
        "extreme_point": _probe_or_error(extreme_point_probe, probe_scan),
        "extremal_polynomial": _probe_or_error(extremal_polynomial_probe,
                                               scan),
        "polyconvexity": _probe_or_error(polyconvexity_test, form, cfg),
    }
    return {
        "schema": SCHEMA,
        "tool_version": __version__,
        "form_echo": echo,
        "config": cfg.to_json(),
        "margin_report": scan.margin_report().to_json(),
        "det_report": dr.to_json(),
        "probes": probes,
    }


def cmd_det(args) -> dict:
    form, reduced, echo = _load_form(args.form, args.eps)
    det = acoustic_det(acoustic_matrix(form))
    out = {
        "schema": SCHEMA,
        "form_echo": echo,
        "det": det.to_json(),
        "pretty": det.pretty(order=list(REDUCED_DET_SUPPORT)
                             if set(det.terms) <= set(REDUCED_DET_SUPPORT)
                             else None),
    }
    if reduced is not None:
        closed = reduced_det_closed_form(reduced)
        residuals = []
        for exp in REDUCED_DET_SUPPORT:
            got = det.coefficient(exp)
            want = closed.coefficient(exp)
            residuals.append({"exp": list(exp), "symbolic": got,
                              "closed_form": want, "residual": got - want})
        out["closed_form_residuals"] = residuals
    return out


def cmd_lemma(args) -> dict:
    if not (2 <= args.n <= 8):
        raise CliError("usage", f"--n must be in [2, 8], got {args.n}")
    if args.trials < 1:
        raise CliError("usage", "--trials must be positive")
    rng = np.random.default_rng(args.seed)
    min_slack = float("inf")
    max_vieta = 0.0
    failures = []
    for t in range(args.trials):
        pair = random_ordered_pair(args.n, rng)
        if args.eps:
            pair = pair.shifted(args.eps)
        try:
            rep = minor_chain_check(pair)
        except HypothesisError as exc:
            failures.append({"trial": t, "reason": str(exc)})
            continue
        slack = rep.min_slack / rep.scale
        min_slack = min(min_slack, slack)
        if rep.vieta_checked:
            max_vieta = max(max_vieta, rep.vieta_residual)
        if not rep.passed:
            failures.append({"trial": t, "normalized_slack": slack})
    return {
        "schema": SCHEMA,
        "n": args.n,
        "trials": args.trials,
        "seed": args.seed,
        "eps": args.eps,
        "min_slack": None if min_slack == float("inf") else min_slack,
        "max_vieta_residual": max_vieta,
        "failures": failures,
    }


def cmd_catalog(args) -> dict:
    return {
        "schema": SCHEMA,
        "forms": [{"name": name, "description": CATALOG_INFO[name]}
                  for name in sorted(CATALOG_INFO)],
    }


def _global_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # the same flags are accepted before and after the subcommand; the
    # subcommand copies default to SUPPRESS so a pre-subcommand value survives
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--seed", type=int,
                        default=d if suppress else 0, help="probe RNG seed")
    parser.add_argument("--tol", type=float,
                        default=d if suppress else 1e-9,
                        help="certification tolerance, relative to the form's scale")
    parser.add_argument("--grid", type=int,
                        default=d if suppress else 96,
                        help="sphere lattice resolution (points = grid^2)")
    parser.add_argument("--json", action="store_true",
                        default=d if suppress else False,
                        help="compact JSON output (indented by default)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quasicone",
        description="Analyze and certify quasiconvex quadratic forms on 3x3 "
                    "matrices.")
    _global_flags(ap, suppress=False)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full certification report for a form")
    p.add_argument("form", help="catalog name or form JSON path")
    p.add_argument("--eps", type=float, default=0.0, help="serre parameter")
    _global_flags(p, suppress=True)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("det", help="symbolic acoustic determinant")
    p.add_argument("form", help="catalog name or form JSON path")
    p.add_argument("--eps", type=float, default=0.0, help="serre parameter")
    _global_flags(p, suppress=True)
    p.set_defaults(fn=cmd_det)

    p = sub.add_parser("lemma", help="minor-sum inequality chain campaign")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--eps", type=float, default=0.0, help="identity shift")
    _global_flags(p, suppress=True)
    p.set_defaults(fn=cmd_lemma)

    p = sub.add_parser("catalog", help="list built-in forms")
    _global_flags(p, suppress=True)
    p.set_defaults(fn=cmd_catalog)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        out = args.fn(args)
    except CliError as exc:
        print(json.dumps(exc.obj), file=sys.stderr)
        return 2
    except (FormError, HypothesisError, ValueError) as exc:
        print(json.dumps({"error": {"code": "invalid", "message": str(exc)}}),
              file=sys.stderr)
        return 2
    indent = None if args.json else 2
    print(json.dumps(out, indent=indent))
    return 0


if __name__ == "__main__":
    sys.exit(main())
