"""quasicone benchmark: one closed-loop client, whole cycles of seeded ops.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run times whole cycles of the workload, as
many as take about ``--seconds`` seconds on the host the benchmark was
defined on (at least one), and reports the end-to-end metrics named in
BENCHMARK.json.  Those timings are at reference speed (see speed.py); the
wall-clock figures are printed alongside.  With ``--trace 1`` it runs a
fixed number of cycles twice on the same inputs, untraced and then traced,
and reports the per-layer metrics in wall-clock time; the spans go to
``perfbench/out/``.  Every op's
output is checked against reference facts (see checks.py); each failure is
printed with its input and reason.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import quasicone; "
              "from quasicone.certify import sphere_lattice; "
              "sys.argv[2] == 'None' or sphere_lattice(int(sys.argv[2]))")


def load_program() -> None:
    """Import quasicone from this checkout's src/, never from elsewhere.

    BLAS/OpenMP pools are pinned to one thread before numpy loads, and
    QUASICONE_THREADS is unset, so the lattice scan runs on its default
    single worker; the setup subprocesses inherit both.
    """
    for var in THREAD_PINS:
        os.environ[var] = "1"
    os.environ.pop("QUASICONE_THREADS", None)
    if not os.path.isfile(os.path.join(SRC, "quasicone", "__init__.py")):
        sys.exit(f"perfbench: no quasicone sources under {SRC}")
    sys.path.insert(0, SRC)
    import quasicone
    if not os.path.abspath(quasicone.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: quasicone imported from {quasicone.__file__}")


def measure_setup(grid, speed) -> tuple[float, float]:
    """Median (wall, reference) time of a fresh interpreter importing
    quasicone and building the first sphere lattice at the workload grid."""
    argv = [sys.executable, "-c", SETUP_CODE, SRC, str(grid)]
    times = [speed.timed(lambda: subprocess.run(
                 argv, check=True, stdout=subprocess.DEVNULL))
             for _ in range(SETUP_REPEATS)]
    return tuple(statistics.median(t) for t in zip(*times))


def run_ops(ops, tracer=None) -> list:
    """Run ops one after another; returns [op, start, end, failures] each."""
    records = []
    for i, op in enumerate(ops):
        span = tracer.op(i) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                out = op.call()
        except Exception as exc:  # an op that raises is a failed op
            records.append([op, t0, time.perf_counter(),
                            [("raised", f"{type(exc).__name__}: {exc}")]])
            continue
        t1 = time.perf_counter()
        try:
            fails = op.check(out)
        except Exception as exc:  # a malformed result fails its check
            fails = [("check_raised", f"{type(exc).__name__}: {exc}")]
        records.append([op, t0, t1, fails])
    return records


def cycles_for(wl, seconds: float) -> int:
    """Whole cycles sized to take about ``seconds`` on the host the
    benchmark was defined on, so every run of one seed does the same work
    however fast the machine happens to be."""
    return max(1, round(seconds / wl.cycle_seconds))


def latency_stats(latencies: list) -> dict:
    """Median, and the highest percentile with at least 10 samples beyond it
    (the median itself when fewer than 20 samples exist)."""
    lat = sorted(latencies)
    n = len(lat)
    p50 = statistics.median(lat)
    if n >= 20:
        tail, pct = lat[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = p50, 50.0
    return {"n": n, "p50": p50, "tail": tail, "tail_pct": pct}


def report_failures(name: str, records: list, known: dict) -> tuple[int, bool]:
    """Print every failed op; returns (failed count, no unexpected failure)."""
    failed = 0
    expected_only = True
    for i, (op, _, _, fails) in enumerate(records):
        if not fails:
            continue
        failed += 1
        for code, reason in fails:
            tag = f" [known defect: {known[code]}]" if code in known else ""
            expected_only &= code in known
            print(f"FAILED {name} op {i} ({op.label}): {code}: {reason}{tag}")
    return failed, expected_only


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    load_program()
    import numpy as np

    import checks
    import tracer as tracing
    import workloads
    from speed import Speed

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    with workloads.workload(args.workload, OUT) as wl:
        if args.trace:
            ops = [op for _ in range(wl.trace_cycles) for op in wl.cycle(rng)]
            plain = run_ops(ops)
            tr = tracing.Tracer()
            with tr.installed():
                traced = run_ops(ops, tr)
            tr.write(os.path.join(OUT, f"spans-{wl.name}-seed{args.seed}.jsonl"))
            records = plain + traced
            values = tracing.layer_metrics(tr, len(ops))
            busy = [sum(r[2] - r[1] for r in recs) for recs in (plain, traced)]
            values["trace.ops_per_s_untraced"] = len(ops) / busy[0]
            values["trace.ops_per_s_traced"] = len(ops) / busy[1]
            values["trace.overhead"] = 1.0 - busy[0] / busy[1]
            wanted = spec["per_layer"]
        else:
            ops = [op for _ in range(cycles_for(wl, args.seconds))
                   for op in wl.cycle(rng)]
            speed = Speed()
            setup_wall, setup = measure_setup(wl.grid, speed)
            with speed.sampling():
                records = run_ops(ops)
            wall, ref = zip(*(speed.split(r[1], r[2]) for r in records))
            lat = latency_stats(ref)
            n = lat["n"]
            failed = sum(1 for r in records if r[3])
            values = {
                "setup_s": setup,
                "ops_per_s": n / sum(ref),
                "latency_p50_s": lat["p50"],
                "latency_tail_s": lat["tail"],
                "ok_ratio": 1.0 - failed / n,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            print(f"{wl.name}: {n} ops, seed {args.seed}; latency samples {n}, "
                  f"tail percentile p{lat['tail_pct']:.2f}; "
                  f"failed_ratio {failed / n!r} ({failed}/{n}); "
                  f"setup_s is the median of {SETUP_REPEATS} fresh interpreters")
            w = latency_stats(wall)
            print(f"timings below are at reference speed; the host ran "
                  f"{speed.slowdown():.3f}x slower.  Wall clock: ops_per_s "
                  f"{n / sum(wall)!r}, latency_p50_s {w['p50']!r}, "
                  f"latency_tail_s {w['tail']!r}, setup_s {setup_wall!r}")
            wanted = spec["end_to_end"]

    failed, correct = report_failures(wl.name, records, checks.KNOWN_DEFECTS)
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": float(values[m["name"]]), "unit": m["unit"]}
        print(f"{m['name']} {values[m['name']]!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
