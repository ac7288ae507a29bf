"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from quasicone import certify, symeig  # noqa: E402


def test_self_times_on_synthetic_tree():
    # op [0,10] > margin [1,6] > eigvals3 [2,4];  op > poly_mul [7,9]
    spans = [(0, "op", 0.0, 10.0, None), (0, "certify.margin", 1.0, 6.0, 0),
             (0, "symeig.eigvals3", 2.0, 4.0, 1), (0, "poly.poly_mul", 7.0, 9.0, 0)]
    assert tracer.self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    tr = tracer.Tracer()
    tr.spans = [list(s) for s in spans]
    out = tracer.layer_metrics(tr, n_ops=1)
    assert out["certify.margin.self_s"] == 3.0
    assert out["symeig.eigvals3.self_s"] == out["poly.poly_mul.self_s"] == 2.0
    assert out["trace.self_sum_error_s"] == 0.0


def test_tracer_rebinds_every_namespace_and_restores():
    orig = symeig.eigmin3
    stack = np.repeat(np.eye(3)[None], 4, axis=0)   # degenerate: LAPACK rows
    tr = tracer.Tracer()
    with tr.installed():
        assert certify.eigmin3 is not orig and symeig.eigmin3 is not orig
        with tr.op(0):
            certify.eigmin3(stack)
        certify.eigmin3(stack)                      # outside an op: not recorded
    assert certify.eigmin3 is orig and symeig.eigmin3 is orig
    out = tracer.layer_metrics(tr, n_ops=1)
    assert out["symeig.eigmin3.calls"] == 1 and out["symeig.eigmin3.rows"] == 4
    # the nested eigvals3 call is a span, but rows count at the outermost one
    assert out["symeig.eigvals3.calls"] == 0
    assert [s[1] for s in tr.spans] == ["op", "symeig.eigmin3", "symeig.eigvals3"]
    assert out["symeig.lapack_rows"] == 4 and out["symeig.lapack_share"] == 1.0
    assert out["trace.self_sum_error_s"] < 1e-9


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_repeat_per_seed_and_differ_across_seeds(name, tmp_path):
    def inputs(seed):
        wl = workloads.WORKLOADS[name](str(tmp_path))
        ops = wl.cycle(np.random.default_rng(seed))
        return [(op.label, json.dumps(op.params, sort_keys=True)) for op in ops]

    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)


def _analyze_report(margin=1.0, milton="refuted", poly="consistent"):
    return json.dumps({
        "margin_report": {"margin": margin, "minimizers": []},
        "det_report": {"det": {"degree": 6, "terms": []},
                       "closed_form_residual": None, "is_perfect_square": False},
        "probes": {"milton": {"verdict": milton, "value": 1.7},
                   "polyconvexity": {"verdict": poly, "value": 1.0}}})


IDENTITY = {"name": "convex_identity", "gram_min_eig": 1.0, "norm": 3.0}


def test_checks_reject_tampered_analyze_reports():
    assert checks.check_analyze((0, _analyze_report()), IDENTITY) == []
    flipped = checks.check_analyze((0, _analyze_report(milton="consistent")), IDENTITY)
    assert [c for c, _ in flipped] == ["milton_not_refuted"]
    shifted = checks.check_analyze((0, _analyze_report(margin=1.0 + 1e-6)), IDENTITY)
    assert [c for c, _ in shifted] == ["margin_value"]
    choi = {"name": "choi", "gram_min_eig": -1.0, "norm": 3.0}
    assert checks.check_analyze((0, _analyze_report(0.0, "consistent", "refuted")), choi) == []
    moved = checks.check_analyze((0, _analyze_report(1e-6, "consistent", "refuted")), choi)
    assert [c for c, _ in moved] == ["margin_value"]
    assert checks.check_analyze((2, ""), IDENTITY)[0][0] == "exit_code"


def test_psd_refuted_polyconvexity_is_the_known_defect():
    fails = checks.check_analyze((0, _analyze_report(poly="refuted")), IDENTITY)
    assert [c for c, _ in fails] == ["polyconvexity_refuted_psd"]
    assert "polyconvexity_refuted_psd" in checks.KNOWN_DEFECTS


def test_checks_reject_shifted_margin_under_minor_shift():
    gram = np.eye(9)
    state = {}
    base = {"gram": gram, "true_margin_lower": 0.0, "key": 0, "state": state}
    shifted = {"gram": gram, "true_margin_lower": 0.0, "shift_of": 0, "state": state}
    assert checks.check_margin((SimpleNamespace(margin=0.5), None), base) == []
    assert checks.check_margin((SimpleNamespace(margin=0.5), None), shifted) == []
    fails = checks.check_margin((SimpleNamespace(margin=0.5 + 1e-6), None), shifted)
    assert [c for c, _ in fails] == ["shift_invariance"]
    low = checks.check_margin((SimpleNamespace(margin=-1e-6), None), base)
    assert [c for c, _ in low] == ["margin_below_bound"]


def test_latency_tail_keeps_ten_samples_beyond():
    stats = run.latency_stats([float(k) for k in range(100)])
    assert stats["tail"] == 89.0 and stats["tail_pct"] == 90.0
    few = run.latency_stats([3.0, 1.0, 2.0])
    assert few["tail"] == few["p50"] == 2.0


def test_refuses_to_run_without_the_program(tmp_path):
    root = os.path.dirname(HERE)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "symbolic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
