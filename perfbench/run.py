"""pmbp benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload recover --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45

Run it from the root of a checkout; the package is imported from `src/`
there.  The process pins BLAS and OpenMP to one thread before NumPy loads;
pmbp itself runs its FFTs on one worker.  Rounds of the workload repeat
until --seconds have passed (at least one round); each step's timing is
reported as the median over its calls.

Set-up is the import of pmbp (with NumPy and SciPy) followed by a build of
the workload's inputs.  It is measured SETUP_REPEATS times and reported as
the median, each import in a fresh interpreter.

--trace 0 prints the end-to-end metrics.  --trace 1 plays one untimed
warm-up round, then a fixed number of rounds twice each, first untraced and
then with the layer boundaries wrapped, and prints the per-layer metrics
plus the tracing overhead (traced minus untraced primary step).  The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
TRACE_ROUNDS = {"recover": 2, "fit_wide": 2, "forecast": 1}


def _pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _import_package():
    """Import pmbp from this checkout's src/, and nothing else."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import pmbp

    where = Path(pmbp.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"pmbp was imported from {where}, not from {ROOT / 'src'}")


def fresh_import_seconds() -> float:
    """Seconds a fresh interpreter takes to import pmbp from this checkout."""
    probe = ("import time; t0 = time.perf_counter(); import pmbp; "
             "print(time.perf_counter() - t0)")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], check=True, text=True,
                         capture_output=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=path))
    return float(out.stdout)


def machine_facts() -> dict:
    import numpy
    import scipy

    import pmbp.engine

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        # pmbp passes this worker count to every scipy.fft call
        "fft_workers": getattr(pmbp.engine, "_FFT_WORKERS", None),
    }


def summary(name: str, values: list, unit: str) -> str:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"{name}: median {statistics.median(values):.6g} {unit} (n={n})"
    p = int(100 * (1 - 10 / n)) if n >= 20 else None
    if p is not None:
        cut = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
        text += f", p{p} {cut:.6g} {unit}"
    return text


def run_workload(name: str, args) -> tuple:
    from perfbench import trace, workloads

    cls = workloads.WORKLOADS[name]
    tracer = trace.Tracer()
    ledger = workloads.Ledger()
    builds = []
    imports = [fresh_import_seconds() for _ in range(SETUP_REPEATS)]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = cls(args.seed, tracer, ledger)
        builds.append((time.perf_counter() - t0, wl.digest))
    if len({d for _, d in builds}) != 1:
        raise RuntimeError(f"{name}: input digests differ between builds: {builds}")
    setup_s = statistics.median(i + b for i, (b, _) in zip(imports, builds))
    print(f"{name}: imports {[round(i, 3) for i in imports]} s, input builds "
          f"{[round(b, 3) for b, _ in builds]} s, digest {wl.digest}", flush=True)
    primary, secondary = cls.STEPS
    steps = {primary: [], secondary: []}
    overhead = []
    start = time.perf_counter()
    r = 0
    if args.trace:
        wl.run_round(0, fixed=True)  # first calls fill lazy caches
        for r in range(TRACE_ROUNDS[name]):
            plain = wl.run_round(r, fixed=True)
            trace.install(tracer)
            tracer.active = True
            try:
                traced = wl.run_round(r, fixed=True)
            finally:
                tracer.active = False
                tracer.restore()
            overhead.append(sum(traced[primary]) - sum(plain[primary]))
            for k in steps:
                steps[k].extend(plain[k])
    else:
        while r == 0 or time.perf_counter() - start < args.seconds:
            for k, v in wl.run_round(r).items():
                steps[k].extend(v)
            r += 1
    print(f"{name}: {len(steps[primary])} rounds in "
          f"{time.perf_counter() - start:.1f} s", flush=True)
    for k, role in zip(steps, ("primary_s", "secondary_s")):
        print(f"  {summary(f'{role} = {k}', steps[k], 's')}")
    for note in ledger.notes:
        print(f"  FAILED {note}")
    print(f"  fail_ratio {ledger.failed}/{ledger.attempted}", flush=True)

    if args.trace:
        figures = trace.layer_metrics(tracer)
        figures["trace.overhead_s"] = (statistics.median(overhead), "s")
        for k, (v, u) in figures.items():
            print(f"  {k} {v if isinstance(v, int) else f'{v:.6g}'} {u}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in figures.items()
                   if k not in trace.TEXT_ONLY}
        if tracer.missing:
            print(f"  not found, reported as zero: {', '.join(sorted(tracer.missing))}")
    else:
        metrics = {
            "primary_s": {"value": statistics.median(steps[primary]), "unit": "s"},
            "secondary_s": {"value": statistics.median(steps[secondary]), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    return ledger, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("recover", "fit_wide", "forecast", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    _pin_threads()
    _import_package()
    import_s = time.perf_counter() - t0
    print("machine:", json.dumps(machine_facts()), flush=True)
    print(f"import pmbp: {import_s:.3f} s", flush=True)
    names = ("recover", "fit_wide", "forecast") if args.workload == "all" else (
        args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        ledger, m = run_workload(name, args)
        attempted += ledger.attempted
        failed += ledger.failed
        metrics.update({f"{name}.{k}" if len(names) > 1 else k: v
                        for k, v in m.items()})
    if not args.trace:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
