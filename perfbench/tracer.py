"""Outside-in tracer for the traced benchmark run.

The program is not instrumented.  Instead, every traced public function is
rebound, for the duration of a ``with Tracer().installed():`` block, in every
``quasicone`` module namespace that holds it (``certify.eigmin3`` as well as
``symeig.eigmin3``), so calls between layers pass through a wrapper that
records a span.  Spans are kept in memory as
``[op_id, name, start, end, parent]`` records, ``parent`` being the index of
the enclosing span, and written out when the run ends.  A layer's self time is its span duration minus the durations of its
child spans.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function) -> span name; the span name is the metric prefix
TRACED = {
    ("symeig", "eigvals3"): "symeig.eigvals3",
    ("symeig", "eigmin3"): "symeig.eigmin3",
    ("certify", "quasiconvexity_margin"): "certify.margin",
    ("certify", "rank_one_zeros"): "certify.rank_one_zeros",
    ("certify", "milton_extremality_probe"): "certify.milton",
    ("certify", "extreme_point_probe"): "certify.extreme_point",
    ("certify", "extremal_polynomial_probe"): "certify.extremal_polynomial",
    ("certify", "polyconvexity_test"): "certify.polyconvexity",
    ("determinant", "det_report"): "determinant.det_report",
    ("determinant", "acoustic_det"): "determinant.acoustic_det",
    ("determinant", "perfect_square_test"): "determinant.perfect_square_test",
    ("determinant", "pencil_identity_check"): "determinant.pencil_identity_check",
    ("poly", "poly_eval_many"): "poly.poly_eval_many",
    ("poly", "poly_mul"): "poly.poly_mul",
    ("minors", "minor_chain_check"): "minors.minor_chain_check",
    ("minors", "minor_sums"): "minors.minor_sums",
    ("minors", "pencil_roots"): "minors.pencil_roots",
    ("forms", "acoustic_matrix"): "forms.acoustic_matrix",
    ("forms", "form_from_json"): "forms.form_from_json",
    ("cli", "main"): "cli",
}
PROBES = ("certify.milton", "certify.extreme_point",
          "certify.extremal_polynomial", "certify.polyconvexity")
VERDICTS = ("consistent", "refuted", "inconclusive", "precondition")
ROOT = "op"
# every per-layer metric the traced run can report, zero when nothing ran
METRICS = (
    [f"{name}.{kind}" for name in TRACED.values() for kind in ("calls", "self_s")]
    + [f"symeig.{fn}.rows" for fn in ("eigvals3", "eigmin3")]
    + [f"certify.verdicts.{v}" for v in VERDICTS]
    + ["poly.poly_eval_many.points", "symeig.lapack_rows", "symeig.lapack_share",
       "symeig.rows_per_call", "symeig.ns_per_row", "certify.symeig_rows_per_op",
       "trace.self_sum_error_s"])


def _rows(a) -> int:
    a = np.asarray(a)
    return int(a.shape[0]) if a.ndim == 3 else 1


class Tracer:
    """Span recorder; records only while an op is open."""

    def __init__(self):
        self.spans: list[list] = []    # [op_id, name, start, end, parent]
        self.counts: defaultdict = defaultdict(int)
        self._stack: list[int] = []    # indices of open spans
        self._op = None

    # -- spans ---------------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self._op, name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def _inside(self, prefix: str) -> bool:
        return any(self.spans[i][1].startswith(prefix) for i in self._stack)

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark op; wrappers record only inside one."""
        self._op = op_id
        idx = self._open(ROOT)
        try:
            yield
        finally:
            self._close(idx)
            self._op = None

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, name: str, fn):
        from quasicone.certify import PreconditionError

        symeig = name.startswith("symeig.")

        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            if symeig and not self._inside("symeig."):
                # work is counted at the outermost symeig span only
                rows = _rows(args[0])
                self.counts[name + ".calls"] += 1
                self.counts[name + ".rows"] += rows
                if self._inside("certify."):
                    self.counts["certify.symeig_rows"] += rows
            elif not symeig:
                self.counts[name + ".calls"] += 1
                if name == "poly.poly_eval_many":
                    self.counts["poly.poly_eval_many.points"] += len(args[1])
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except PreconditionError:
                if name in PROBES:
                    self.counts["certify.verdicts.precondition"] += 1
                raise
            finally:
                self._close(idx)
            if name in PROBES:
                self.counts["certify.verdicts." + out.verdict] += 1
            return out

        return wrapper

    def _wrap_lapack(self, fn):
        def wrapper(a, *args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][1].startswith("symeig."):
                self.counts["symeig.lapack_rows"] += _rows(a)
            return fn(a, *args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function in every quasicone namespace."""
        owners = {mod: importlib.import_module("quasicone." + mod)
                  for (mod, _) in TRACED}
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "quasicone" or n.startswith("quasicone.")]
        undo = []
        for (mod, fn_name), name in TRACED.items():
            orig = getattr(owners[mod], fn_name)
            wrapped = self._wrap(name, orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        undo.append((m, attr, val))
                        setattr(m, attr, wrapped)
        for attr in ("eigvalsh", "eigh"):
            orig = getattr(np.linalg, attr)
            undo.append((np.linalg, attr, orig))
            setattr(np.linalg, attr, self._wrap_lapack(orig))
        try:
            yield self
        finally:
            for m, attr, val in reversed(undo):
                setattr(m, attr, val)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"op": op_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its children's durations."""
    out = [end - start for (_, _, start, end, _) in spans]
    for (_, _, start, end, parent) in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and counts."""
    spans = tracer.spans
    selfs = self_times(spans)
    out = dict.fromkeys(METRICS, 0.0)
    for (_, name, _, _, _), s in zip(spans, selfs):
        if name != ROOT:
            out[name + ".self_s"] += s
    # every op's self times must add up to its root span's duration
    per_op: dict = defaultdict(float)
    root_dur: dict = {}
    for (op_id, name, start, end, _), s in zip(spans, selfs):
        per_op[op_id] += s
        if name == ROOT:
            root_dur[op_id] = end - start
    out["trace.self_sum_error_s"] = max(
        (abs(per_op[k] - root_dur[k]) for k in root_dur), default=0.0)
    out.update({k: float(v) for k, v in tracer.counts.items()})
    calls = out["symeig.eigmin3.calls"] + out["symeig.eigvals3.calls"]
    rows = out["symeig.eigmin3.rows"] + out["symeig.eigvals3.rows"]
    busy = out["symeig.eigmin3.self_s"] + out["symeig.eigvals3.self_s"]
    out["symeig.rows_per_call"] = rows / calls if calls else 0.0
    out["symeig.ns_per_row"] = 1e9 * busy / rows if rows else 0.0
    out["symeig.lapack_share"] = out["symeig.lapack_rows"] / rows if rows else 0.0
    out["certify.symeig_rows_per_op"] = out.pop("certify.symeig_rows", 0.0) / n_ops
    return out
