"""Seeded workloads.  Each workload yields cycles of ops; a cycle holds every
input kind of the workload once, so a run made of whole cycles has the same
mix whatever the seed.  Inputs are made here, outside the timed region; the
program only sees the generated forms, pairs and files."""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import quasicone as qc
import quasicone.cli

import checks

# analyze runs at these settings instead of the CLI defaults (grid 96, 256
# probe directions), so that two cycles of seven reports fit in one run
ANALYZE_GRID = 32
ANALYZE_PROBE_DIRECTIONS = 4
PENCIL_LAMBDAS = [0.1, 0.4, 0.9, 1.3, 1.8]


@dataclass
class Op:
    label: str                       # the input, as printed with failures
    params: dict                     # the seeded inputs, JSON-serializable
    call: Callable[[], Any]          # the timed call into the program
    check: Callable[[Any], list]     # reference check of its result


def _rotation(rng) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((3, 3)))
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def _rotated(gram: np.ndarray, R: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Gram of xi -> Q(R^T xi S); row-major vec(R^T xi S) = kron(R^T, S^T) vec(xi)."""
    P = np.kron(R.T, S.T)
    return P.T @ gram @ P


def _psd_gram(rng) -> np.ndarray:
    A = rng.standard_normal((9, 9))
    return A @ A.T / 9.0


def _sym_gram(rng) -> np.ndarray:
    A = rng.standard_normal((9, 9))
    return (A + A.T) / 2.0


def _spd3(rng) -> np.ndarray:
    A = rng.uniform(-1.0, 1.0, (3, 3))
    return A @ A.T + 0.5 * np.eye(3)


def _gram_facts(name: str, gram: np.ndarray) -> dict:
    return {"name": name, "gram_min_eig": float(np.linalg.eigvalsh(gram)[0]),
            "norm": float(np.linalg.norm(gram))}


class Workload:
    """A workload: ``cycle(rng)`` makes one cycle of seeded ops."""

    name: str
    grid: int | None            # lattice grid that set-up builds, if any
    trace_cycles: int           # cycles in a traced run
    cycle_seconds: float        # wall time of one cycle on the 2-core x86 host

    def __init__(self, workdir: str):
        self.workdir = workdir  # where input files go

    @contextlib.contextmanager
    def session(self):
        """Settings that hold while the workload runs."""
        yield


# ---------------------------------------------------------------------------
# analyze

def _run_cli(argv: list) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = quasicone.cli.main(argv)
    return rc, buf.getvalue()


class Analyze(Workload):
    """One op is one `quasicone analyze` report, run in-process."""

    name = "analyze"
    grid = ANALYZE_GRID
    trace_cycles = 1
    cycle_seconds = 14.0

    def __init__(self, workdir: str):
        super().__init__(workdir)
        self.cycles = 0

    @contextlib.contextmanager
    def session(self):
        # the probe count is injected by wrapping the config class that
        # cmd_analyze instantiates; the program itself is unchanged
        orig = quasicone.cli.CertifyConfig
        quasicone.cli.CertifyConfig = functools.partial(
            orig, probe_directions=ANALYZE_PROBE_DIRECTIONS)
        try:
            yield
        finally:
            quasicone.cli.CertifyConfig = orig

    def _op(self, label, args, facts, params=None) -> Op:
        argv = ["--json", "--grid", str(self.grid), "analyze", *args]
        return Op(label, params or {"argv": args}, lambda: _run_cli(argv),
                  lambda out: checks.check_analyze(out, facts))

    def _file_op(self, kind: str, obj: dict) -> Op:
        path = os.path.join(self.workdir, f"{kind}-{self.cycles}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        gram = qc.forms.form_from_json(obj).gram
        return self._op(f"{kind} {json.dumps(obj)}", [path],
                        _gram_facts(kind, gram), {"form": obj})

    def cycle(self, rng) -> list[Op]:
        ops = []
        for name in ("choi_lam", "choi", "convex_identity"):
            ops.append(self._op(name, [name],
                                _gram_facts(name, qc.catalog(name).gram)))
        for eps in (0.0, 0.05):
            ops.append(self._op(f"serre --eps {eps:g}", ["serre", "--eps", str(eps)],
                                _gram_facts("serre", qc.catalog("serre", eps=eps).gram)))
        b, c, d = rng.uniform(0.5, 2.0, 3)
        ops.append(self._file_op("reduced", {
            "kind": "reduced", "a": _spd3(rng).tolist(),
            "b": float(b), "c": float(c), "d": float(d)}))
        blk = _spd3(rng)
        shear = rng.uniform(0.5, 2.0, 3)
        ops.append(self._file_op("voigt", {
            "kind": "voigt",
            "C11": blk[0, 0], "C22": blk[1, 1], "C33": blk[2, 2],
            "C12": blk[0, 1], "C13": blk[0, 2], "C23": blk[1, 2],
            "C44": shear[0], "C55": shear[1], "C66": shear[2]}))
        self.cycles += 1
        return ops


# ---------------------------------------------------------------------------
# margin-scan

class MarginScan(Workload):
    """One op is quasiconvexity_margin, then rank_one_zeros when the margin
    is >= -tol, at the default config."""

    name = "margin-scan"
    grid = qc.CertifyConfig().grid_resolution
    trace_cycles = 1
    cycle_seconds = 25.0

    def _op(self, label, gram, facts) -> Op:
        q = qc.QuadraticForm(gram)
        cfg = qc.CertifyConfig()

        def call():
            report = qc.quasiconvexity_margin(q, cfg)
            zeros = (qc.rank_one_zeros(q, cfg)
                     if report.margin >= -cfg.tol else None)
            return report, zeros

        facts = {"gram": q.gram, **facts}
        return Op(label, {"gram": q.gram.tolist()}, call,
                  lambda out: checks.check_margin(out, facts))

    def cycle(self, rng) -> list[Op]:
        state: dict = {}
        bases = []
        for name in ("choi_lam", "choi"):
            g = _rotated(qc.catalog(name).gram, _rotation(rng), _rotation(rng))
            bases.append((f"{name} rotated", g, 0.0))  # boundary forms: margin 0
        for k in range(2):
            g = _psd_gram(rng)
            bases.append(("random PSD Gram", g, float(np.linalg.eigvalsh(g)[0])))
        for k in range(2):
            g = _sym_gram(rng)
            bases.append(("random indefinite Gram", g,
                          float(np.linalg.eigvalsh(g)[0])))
        ops = []
        for key, (label, g, lower) in enumerate(bases):
            ops.append(self._op(label, g, {"true_margin_lower": lower,
                                           "key": key, "state": state}))
            minors = qc.NullLagrangianCoeffs(rng.uniform(-2.0, 2.0, 9))
            shifted = qc.add_null_lagrangian(qc.QuadraticForm(g), minors).gram
            ops.append(self._op(label + " + minor shift", shifted,
                                {"true_margin_lower": lower, "shift_of": key,
                                 "state": state}))
        ops.append(self._op("convex_identity", np.eye(9),
                            {"true_margin_lower": 1.0, "exact": 1.0,
                             "key": "identity", "state": state}))
        return ops


# ---------------------------------------------------------------------------
# symbolic

class Symbolic(Workload):
    """det_report, pencil_identity_check and minor_chain_check; neither the
    lattice nor symeig runs."""

    name = "symbolic"
    grid = None
    trace_cycles = 20
    cycle_seconds = 0.5

    @staticmethod
    def _det_op(label, q, rng, reduced=None, extra=None) -> Op:
        pts = rng.standard_normal((3, 3))
        facts = {"gram": q.gram, "points": pts / np.linalg.norm(pts, axis=1)[:, None],
                 **(extra or {})}
        if reduced is not None:
            facts["reduced"] = True
        return Op(label, {"gram": q.gram.tolist()},
                  lambda: qc.det_report(q, reduced),
                  lambda rep: checks.check_det(rep, facts))

    def cycle(self, rng) -> list[Op]:
        ops = [self._det_op("det_report random Gram",
                            qc.QuadraticForm(_sym_gram(rng)), rng),
               self._det_op("det_report random PSD Gram",
                            qc.QuadraticForm(_psd_gram(rng)), rng)]
        A = rng.uniform(-2.0, 2.0, (3, 3))
        b, c, d = rng.uniform(0.1, 2.0, 3)
        r = qc.ReducedOrthotropicForm((A + A.T) / 2.0, b, c, d)
        ops.append(self._det_op("det_report reduced form",
                                qc.form_from_reduced(r), rng, reduced=r))
        # Q = w1 xi11^2 + w2 xi22^2 + w3 xi33^2, det T = w1 w2 w3 (y1 y2 y3)^2
        w = rng.uniform(0.5, 2.0, 3)
        ops.append(self._det_op("det_report perfect square",
                                qc.QuadraticForm(np.diag([w[0], 0, 0, 0, w[1],
                                                          0, 0, 0, w[2]])),
                                rng, extra={"square_coef": float(np.prod(w))}))
        q = qc.QuadraticForm(_sym_gram(rng))
        ops.append(Op("pencil_identity_check(q, q/2)", {"gram": q.gram.tolist()},
                      lambda: qc.pencil_identity_check(q, q.scaled(0.5),
                                                       PENCIL_LAMBDAS),
                      checks.check_pencil))
        for n in range(3, 9):
            pair = qc.random_ordered_pair(n, rng)
            ops.append(Op(f"minor_chain_check n={n}",
                          {"A": pair.A.tolist(), "B": pair.B.tolist()},
                          lambda pair=pair: qc.minor_chain_check(pair),
                          checks.check_chain))
        return ops


WORKLOADS = {w.name: w for w in (Analyze, MarginScan, Symbolic)}


@contextlib.contextmanager
def workload(name: str, root: str):
    """The named workload, with a scratch directory for its input files."""
    with tempfile.TemporaryDirectory(dir=root, prefix="inputs-") as workdir:
        wl = WORKLOADS[name](workdir)
        with wl.session():
            yield wl
