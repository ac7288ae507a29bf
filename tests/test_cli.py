import json
import os
import subprocess
import sys

import numpy as np
import pytest

CLI = [sys.executable, "-m", "quasicone.cli"]


def run_cli(*args, env=None):
    e = os.environ.copy()
    if env:
        e.update(env)
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=e)


def test_catalog_listing_stable():
    r1 = run_cli("catalog", "--json")
    r2 = run_cli("catalog", "--json")
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout
    out = json.loads(r1.stdout)
    assert out["schema"] == "quasicone/1"
    names = [f["name"] for f in out["forms"]]
    assert {"choi", "choi_lam", "serre", "convex_identity"} <= set(names)
    descs = " ".join(f["description"] for f in out["forms"])
    assert "Choi" in descs and "Serre" in descs


def test_det_choi_lam_exact():
    r = run_cli("det", "choi_lam", "--json")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    terms = {tuple(t["exp"]): t["coef"] for t in out["det"]["terms"]}
    assert terms == {(4, 0, 2): 1.0, (2, 4, 0): 1.0, (0, 2, 4): 1.0,
                     (2, 2, 2): -3.0}


def test_det_reduced_identity_residuals():
    import tempfile
    form = {"kind": "reduced", "a": np.eye(3).tolist(), "b": 1.0, "c": 1.0,
            "d": 1.0}
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(form, fh)
        path = fh.name
    r = run_cli("det", path, "--json")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    coefs = sorted(row["closed_form"] for row in out["closed_form_residuals"])
    assert coefs == [1.0, 1.0, 1.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 6.0]
    assert all(abs(row["residual"]) < 1e-12
               for row in out["closed_form_residuals"])
    os.unlink(path)


def test_det_zero_form():
    import tempfile
    form = {"kind": "gram", "upper_triangle": [0.0] * 45}
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(form, fh)
        path = fh.name
    r = run_cli("det", path, "--json")
    out = json.loads(r.stdout)
    assert out["det"]["terms"] == []
    assert out["pretty"] == "0"
    os.unlink(path)


def test_lemma_campaign():
    r = run_cli("lemma", "--n", "3", "--trials", "20", "--seed", "5", "--json")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["failures"] == []
    assert out["min_slack"] >= -1e-9
    assert out["trials"] == 20


def test_lemma_campaign_at_max_n():
    r = run_cli("lemma", "--n", "8", "--trials", "3", "--json")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["n"] == 8
    assert out["failures"] == []
    assert out["max_vieta_residual"] <= 1e-8


def test_lemma_eps_shift_changes_slack_slightly():
    outs = []
    for eps in ("1e-4", "1e-6"):
        r = run_cli("lemma", "--n", "4", "--trials", "10", "--seed", "3",
                    "--eps", eps, "--json")
        outs.append(json.loads(r.stdout)["min_slack"])
    assert outs[0] != outs[1]
    assert abs(outs[0] - outs[1]) < 1e-2


def test_lemma_usage_errors():
    r = run_cli("lemma", "--n", "12", "--json")
    assert r.returncode != 0
    err = json.loads(r.stderr)
    assert err["error"]["code"] == "usage"


def test_unknown_form_is_machine_readable_error():
    r = run_cli("analyze", "not_a_form")
    assert r.returncode != 0
    err = json.loads(r.stderr)
    assert err["error"]["code"] == "usage"


def test_eps_on_a_form_without_it_is_a_usage_error(tmp_path):
    # --eps is serre's parameter; any other form used to ignore it silently
    path = tmp_path / "choi.json"
    path.write_text(json.dumps({"kind": "catalog", "name": "choi"}))
    for form in ("choi", str(path)):
        r = run_cli("det", form, "--eps", "0.3")
        assert r.returncode == 2
        assert json.loads(r.stderr)["error"]["code"] == "usage"
    # the same parameter inside a catalog form object is a parse error
    path.write_text(json.dumps({"kind": "catalog", "name": "choi", "eps": 0.3}))
    r = run_cli("det", str(path))
    assert r.returncode == 2
    err = json.loads(r.stderr)["error"]
    assert err["code"] == "parse" and "takes no eps" in err["message"]
    r = run_cli("det", "serre", "--eps", "0.3", "--json")
    assert r.returncode == 0
    assert json.loads(r.stdout)["form_echo"] == {"kind": "catalog",
                                                 "name": "serre", "eps": 0.3}


def test_analyze_tiny_identity_runs_without_overflow(tmp_path):
    # 1e-200 I: every floor is a constant in the scan's 2^-e frame, so no
    # guard blows up to 2^650 there and Milton refutes, as at scale 1
    path = tmp_path / "tiny.json"
    vals = [1e-200 if p == r else 0.0 for p in range(9) for r in range(p, 9)]
    path.write_text(json.dumps({"kind": "gram", "upper_triangle": vals}))
    r = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                        "quasicone.cli", "--json", "--grid", "16", "analyze",
                        str(path)], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["probes"]["milton"]["verdict"] == "refuted"


def test_parse_error_reports_location():
    import tempfile
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        fh.write("{broken json")
        path = fh.name
    r = run_cli("det", path)
    assert r.returncode != 0
    err = json.loads(r.stderr)
    assert err["error"]["code"] == "parse"
    assert "line" in err["error"]
    os.unlink(path)


def test_gram_upper_triangle_size_checked():
    import tempfile
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump({"kind": "gram", "upper_triangle": [1.0, 2.0]}, fh)
        path = fh.name
    r = run_cli("det", path)
    assert r.returncode != 0
    assert "45" in json.loads(r.stderr)["error"]["message"]
    os.unlink(path)


@pytest.mark.slow
def test_analyze_serre_small_grid_and_echo_self_containment():
    import tempfile
    r = run_cli("--grid", "24", "--json", "analyze", "serre", "--eps", "0.0")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["schema"] == "quasicone/1"
    assert out["margin_report"]["margin"] >= -1e-9
    assert set(out["probes"]) == {"milton", "extreme_point",
                                  "extremal_polynomial", "polyconvexity"}
    # serre is not an orthotropic-layout form; the probe reports the
    # precondition as a structured error object
    assert "error" in out["probes"]["extreme_point"]
    assert out["probes"]["polyconvexity"]["verdict"] == "consistent"
    # self-containment: re-running analyze on the echoed form with the
    # embedded config reproduces every numeric field
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(out["form_echo"], fh)
        path = fh.name
    cfg = out["config"]
    r2 = run_cli("--grid", str(cfg["grid_resolution"]),
                 "--seed", str(cfg["seed"]), "--tol", repr(cfg["tol"]),
                 "--json", "analyze", path)
    assert r2.returncode == 0
    replay = json.loads(r2.stdout)
    assert replay["margin_report"] == out["margin_report"]
    assert replay["det_report"] == out["det_report"]
    assert replay["probes"] == out["probes"]
    os.unlink(path)


def test_analyze_scans_its_input_form_once(monkeypatch, capsys):
    import functools

    import quasicone.certify
    import quasicone.cli
    from quasicone.forms import catalog

    monkeypatch.setattr(quasicone.cli, "CertifyConfig", functools.partial(
        quasicone.cli.CertifyConfig, probe_directions=4))
    scanned = []
    real = quasicone.certify.lattice_scan

    def spy(q, cfg):
        scan = real(q, cfg)
        scanned.append((q.gram.copy(), scan))
        return scan

    monkeypatch.setattr(quasicone.certify, "lattice_scan", spy)
    monkeypatch.setattr(quasicone.cli, "lattice_scan", spy)
    assert quasicone.cli.main(["--json", "--grid", "32", "analyze",
                               "choi_lam"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["probes"]["milton"]["verdict"] == "consistent"
    # every lattice_scan call on the input form returns its one scan
    gram = catalog("choi_lam").gram
    assert len({id(s) for g, s in scanned if np.array_equal(g, gram)}) == 1


def test_non_object_form_file_is_a_parse_error(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    r = run_cli("det", str(path))
    assert r.returncode != 0
    assert json.loads(r.stderr)["error"]["code"] == "parse"


def test_non_finite_gram_file_is_a_parse_error(tmp_path):
    path = tmp_path / "nan.json"
    vals = [0.0] * 45
    vals[0] = float("nan")
    path.write_text(json.dumps({"kind": "gram", "upper_triangle": vals}))
    r = run_cli("det", str(path))
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"]["code"] == "parse"


def test_oversized_grid_is_an_invalid_error():
    r = run_cli("analyze", "choi_lam", "--grid", "513")
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"]["code"] == "invalid"


def test_import_loads_no_scipy():
    code = ("import sys, quasicone; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
