import json
import os
import subprocess
import sys

import numpy as np
import pytest

CLI = [sys.executable, "-m", "quasicone.cli"]


def _not_json(name):
    raise ValueError(f"{name} is not JSON")


def run_cli(*args, env=None):
    """Run the CLI; any stdout it prints must parse as strict JSON (no NaN
    or Infinity)."""
    e = os.environ.copy()
    if env:
        e.update(env)
    r = subprocess.run(CLI + list(args), capture_output=True, text=True, env=e)
    if r.stdout.strip():
        json.loads(r.stdout, parse_constant=_not_json)
    return r


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
    scanned, clustered = [], []
    real, real_cluster = (quasicone.certify.lattice_scan,
                          quasicone.certify._cluster_pairs)

    def spy(q, cfg):
        scan = real(q, cfg)
        scanned.append((q.gram.copy(), scan))
        return scan

    def cluster_spy(X, Y, vals, *args, **kw):
        clustered.append(vals)
        return real_cluster(X, Y, vals, *args, **kw)

    monkeypatch.setattr(quasicone.certify, "lattice_scan", spy)
    monkeypatch.setattr(quasicone.cli, "lattice_scan", spy)
    monkeypatch.setattr(quasicone.certify, "_cluster_pairs", cluster_spy)
    assert quasicone.cli.main(["--json", "--grid", "32", "analyze",
                               "choi_lam"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["probes"]["milton"]["verdict"] == "consistent"
    # every lattice_scan call on the input form returns its one scan
    gram = catalog("choi_lam").gram
    (scan,) = {s for g, s in scanned if np.array_equal(g, gram)}
    # and its margin report, the sextic's rank-one zeros and the probes'
    # zero pool read one clustering of that scan's minima, no other
    assert len(clustered) == 1 and clustered[0] is scan.vals


_FORM_FILES = {
    "reduced": {"kind": "reduced", "a": [[2.0, 0.3, 0.1], [0.3, 1.5, -0.2],
                                         [0.1, -0.2, 1.0]],
                "b": 0.8, "c": 1.1, "d": 0.6},
    "voigt": {"kind": "voigt", "C11": 2.0, "C22": 1.5, "C33": 1.0, "C12": 0.3,
              "C13": 0.1, "C23": -0.2, "C44": 0.6, "C55": 1.1, "C66": 0.8},
}


@pytest.mark.parametrize("source", ["choi_lam", "reduced", "voigt"])
def test_analyze_and_det_read_one_form(source, tmp_path, monkeypatch, capsys):
    # analyze scans its input once, whatever its kind, and hands that scan
    # to every probe; det reports det_report's det of the same form
    import functools

    import quasicone.cli
    from quasicone.determinant import det_report
    from quasicone.forms import catalog, form_from_json, reduced_view

    if source in _FORM_FILES:
        path = tmp_path / f"{source}.json"
        path.write_text(json.dumps(_FORM_FILES[source]))
        form, source = form_from_json(_FORM_FILES[source]), str(path)
    else:
        form = catalog(source)
    monkeypatch.setattr(quasicone.cli, "CertifyConfig", functools.partial(
        quasicone.cli.CertifyConfig, probe_directions=4))
    scans = []
    real = quasicone.cli.lattice_scan
    monkeypatch.setattr(quasicone.cli, "lattice_scan",
                        lambda q, cfg: scans.append(q) or real(q, cfg))
    assert quasicone.cli.main(["--json", "--grid", "16", "analyze", source]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(scans) == 1 and np.array_equal(scans[0].gram, form.gram)
    assert "error" not in report["probes"]["extreme_point"]
    reduced = reduced_view(form)
    assert (report["det_report"]["closed_form_residual"] is None) == (reduced is None)

    assert quasicone.cli.main(["--json", "det", source]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["det"] == det_report(form, reduced).det.to_json()
    assert ("closed_form_residuals" in out) == (reduced is not None)


def test_main_calls_share_one_parser_and_no_flag_values(capsys):
    import quasicone.cli

    assert quasicone.cli.build_parser() is quasicone.cli.build_parser()
    runs = [["--json", "--seed", "9", "lemma", "--n", "4", "--trials", "2",
             "--eps", "0.1"],
            ["lemma", "--trials", "1"],
            ["lemma", "--trials", "1", "--seed", "5", "--json"]]
    outs = []
    for argv in runs:
        assert quasicone.cli.main(argv) == 0
        outs.append(capsys.readouterr().out.strip())
    first, second, third = (json.loads(o) for o in outs)
    assert [first[k] for k in ("seed", "n", "trials", "eps")] == [9, 4, 2, 0.1]
    assert [second[k] for k in ("seed", "n", "trials", "eps")] == [0, 3, 1, 0.0]
    assert [third[k] for k in ("seed", "n", "trials", "eps")] == [5, 3, 1, 0.0]
    # --json prints one compact line, its absence indented JSON
    assert ["\n" in o for o in outs] == [False, True, False]


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


@pytest.mark.parametrize("scale", [1e110, 1e200])
def test_det_of_a_form_whose_det_overflows_is_an_invalid_error(tmp_path, scale):
    from quasicone.forms import catalog, form_to_json
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(form_to_json(catalog("choi_lam").scaled(scale))))
    r = run_cli("det", str(path))
    assert r.returncode == 2
    err = json.loads(r.stderr)["error"]
    assert err["code"] == "invalid"
    assert "not finite" in err["message"]


def test_oversized_grid_is_an_invalid_error():
    r = run_cli("analyze", "choi_lam", "--grid", "513")
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"]["code"] == "invalid"


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_is_an_invalid_error(tol):
    r = run_cli("--tol", tol, "analyze", "choi_lam")
    assert r.returncode == 2 and not r.stdout
    assert json.loads(r.stderr)["error"]["code"] == "invalid"


@pytest.mark.parametrize("argv", [["--seed", "-1", "analyze", "choi"],
                                  ["analyze", "serre", "--eps", "1e308"]])
def test_bad_analyze_input_fails_before_any_scan(argv, monkeypatch, capsys):
    # a negative seed fails in CertifyConfig, and serre at 1e308, whose
    # sextic overflows in Q's frame, in det_report: both before the
    # lattice pass, whose one eigvals3 call is the first a scan makes
    import quasicone.certify
    import quasicone.cli

    calls, real = [], quasicone.certify.eigvals3
    monkeypatch.setattr(quasicone.certify, "eigvals3",
                        lambda *a: calls.append(a) or real(*a))
    assert quasicone.cli.main(["--json", *argv]) == 2
    out = capsys.readouterr()
    assert not out.out and json.loads(out.err)["error"]["code"] == "invalid"
    assert calls == []


@pytest.mark.parametrize("seed", [0, 9, 42])
@pytest.mark.parametrize("name, eps", [("choi_lam", 0.0), ("choi", 0.0),
                                       ("convex_identity", 0.0), ("serre", 0.0),
                                       ("serre", 0.01)])
def test_refuted_ray_reports_revalidate_from_their_json(name, eps, seed,
                                                        monkeypatch, capsys):
    # a refuted Milton or extreme-point report names its split: full scans,
    # at the report's config, of Q - validation_eps l l^T, or of theta/2 +-
    # distance d, clear -guard 2^e, e the margin report's exponent
    import functools
    import math

    import quasicone.cli
    from quasicone.certify import GUARD_REL, CertifyConfig, lattice_scan
    from quasicone.forms import QuadraticForm, catalog, form_from_theta

    monkeypatch.setattr(quasicone.cli, "CertifyConfig", functools.partial(
        quasicone.cli.CertifyConfig, probe_directions=4))
    argv = ["--json", "--grid", "32", "--seed", str(seed), "analyze", name]
    assert quasicone.cli.main(argv + (["--eps", str(eps)] if eps else [])) == 0
    rep = json.loads(capsys.readouterr().out)
    cfg = CertifyConfig(**rep["config"])
    floor = -math.ldexp(GUARD_REL, rep["margin_report"]["diagnostics"]["exponent"])
    echo = rep["form_echo"]
    q = catalog(echo["name"], **({"eps": echo["eps"]} if "eps" in echo else {}))
    halves = []
    milton, extreme = rep["probes"]["milton"], rep["probes"]["extreme_point"]
    if milton["verdict"] == "refuted":
        w = milton["witness"]
        l = np.array(w["direction"])
        halves.append(q.gram - w["validation_eps"] * np.outer(l, l))
    if extreme.get("verdict") == "refuted":
        w = extreme["witness"]
        theta, d = np.array(w["theta_q"]), np.array(w["direction"])
        halves += [form_from_theta(w["layout"], 0.5 * theta + s * w["distance"] * d).gram
                   for s in (1.0, -1.0)]
    assert (len(halves) > 0) == (name != "choi_lam")
    for gram in halves:
        assert lattice_scan(QuadraticForm(gram), cfg).margin >= floor


def test_import_loads_no_scipy():
    code = ("import sys, quasicone; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_cold_scan_and_analyze_load_no_numpy_ma():
    # np.unique(..., axis=0) imports numpy.ma lazily, most of the cost of a
    # cold lattice build; the exact name, as numpy.matrixlib shares the prefix
    code = ("import sys, quasicone; from quasicone import certify, cli; "
            "certify.lattice_scan(quasicone.catalog('choi_lam'), "
            "certify.CertifyConfig(grid_resolution=96)); "
            "cli.main(['--json', 'analyze', 'choi_lam']); "
            "print('numpy.ma' in sys.modules, file=sys.stderr)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr
    assert r.stderr.strip() == "False"
