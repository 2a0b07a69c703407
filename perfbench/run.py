"""kreinlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload entropy_osc --seed 1 --seconds 30 --trace 0

Run from the root of a kreinlab source tree; kreinlab is imported from its
``src/``. The run measures set-up (fresh interpreters importing kreinlab and
building the potential catalog, one before the rounds and the others spread
between them), warms up, then repeats the workload's job list in whole
rounds for about ``--seconds`` seconds and
checks every round's outputs against references computed apart from the
program. ``wall_s`` and ``cpu_s`` add up each job's median over the rounds.
``--trace 1`` alternates untraced and traced rounds and reports
the per-layer metrics instead of the end-to-end ones. The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7
# kreinlab's own pool for `solve` over many lambda: one thread, so that the
# only threads are OpenBLAS's
PINNED_ENV = {"KREINLAB_THREADS": "1"}

# one fresh interpreter: import kreinlab and build the catalog, then report
# the monotonic clock, which all processes on the machine share
SETUP_PROBE = (
    "import sys, time; sys.path[:0] = [{src!r}, {here!r}]; "
    "import kreinlab.cli, workloads; workloads.build_catalog(); "
    "print(time.monotonic())"
)


def setup_seconds() -> float:
    """Seconds from launching a fresh interpreter to kreinlab imported and
    the catalog built."""
    code = SETUP_PROBE.format(src=str(SRC), here=str(HERE))
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1]) - t0


def blas_threads():
    """OpenBLAS's thread count as numpy's copy of it reports, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.processor() or platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "KREINLAB_THREADS": os.environ.get("KREINLAB_THREADS"),
    }


def run_round(wl, tracer=None):
    """One pass over the job list. Returns each job's wall and CPU seconds,
    the round's outputs, read back as soon as its clock has stopped (the
    CLI jobs of the next round overwrite their files), and the jobs that
    raised."""
    raw, errors, times = {}, {}, {}
    jobs = wl.jobs()
    if tracer is not None:
        tracer.enabled = True
    for name, job in jobs:
        if tracer is not None:
            tracer.job = name
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            raw[name] = job()
        except Exception as exc:   # a program fault: recorded, run goes on
            errors[name] = f"{type(exc).__name__}: {exc}"
        times[name] = (time.perf_counter() - t0, time.process_time() - c0)
    if tracer is not None:
        tracer.enabled = False
    out = None
    if not errors:
        try:
            out = wl.collect(raw)
        except Exception as exc:
            errors["collect"] = f"{type(exc).__name__}: {exc}"
    return times, out, errors


def check_round(wl, out, errors):
    """Ops of one round: the workload's checks, or one failed op per job
    that raised (its outputs cannot be checked)."""
    import checks
    if errors:
        return [checks.Op(f"job {n}", False, e) for n, e in errors.items()]
    try:
        return wl.check(out)
    except Exception as exc:
        return [checks.Op("check", False, f"{type(exc).__name__}: {exc}")]


def job_median(rounds, k: int) -> float:
    """Sum over jobs of the job's median over ``rounds``: wall (k = 0) or
    CPU (k = 1) seconds of one pass over the job list."""
    return sum(statistics.median(r[name][k] for r in rounds)
               for name in rounds[0])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "kreinlab" / "__init__.py").is_file():
        print(f"no kreinlab source under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    os.environ.update(PINNED_ENV)
    setup = [setup_seconds()]
    sys.path[:0] = [str(SRC), str(HERE)]
    import kreinlab
    if Path(kreinlab.__file__).resolve().parent != (SRC / "kreinlab").resolve():
        print(f"kreinlab imported from {kreinlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracing as tr
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out = OUT / f"{args.workload}-{args.seed}"
    wl = workloads.WORKLOADS[args.workload](args.seed, out,
                                            workloads.build_catalog())
    env = environment()
    print("env " + json.dumps(env), flush=True)

    tracer = None
    if args.trace:
        tracer = tr.Tracer()
        tracer.install()
    wl.warmup()

    rounds = []            # (traced, job times, outputs, errors, layer metrics)
    measured = 0.0         # seconds of rounds, set-up probes left out
    while True:
        t0 = time.perf_counter()
        traced = bool(args.trace) and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
        times, outputs, errors = run_round(wl, tracer if traced else None)
        layer = tr.layer_metrics(tracer) if traced else None
        rounds.append((traced, times, outputs, errors, layer))
        print(f"round {len(rounds)} traced={int(traced)} wall "
              f"{sum(t[0] for t in times.values()):.4f} s cpu "
              f"{sum(t[1] for t in times.values()):.4f} s",
              file=sys.stderr, flush=True)
        measured += time.perf_counter() - t0
        # set-up probes are spread over the window, so that they meet the
        # same spells of host speed as the rounds
        while (len(setup) < SETUP_SAMPLES
               and measured >= len(setup) * args.seconds / SETUP_SAMPLES):
            setup.append(setup_seconds())
        # a round starts only if its midpoint falls inside the window; a
        # traced run needs at least one round of each kind
        enough = not args.trace or len(rounds) >= 2
        if enough and measured * (1.0 + 0.5 / len(rounds)) >= args.seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_seconds())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = failed = 0
    unexpected = []
    for _, _, outputs, errors, _ in rounds:
        for op in check_round(wl, outputs, errors):
            attempted += 1
            if not op.ok:
                failed += 1
                if op.name not in wl.known_faults:
                    unexpected.append(op)
    for op in unexpected[:20]:
        print(f"FAILED {op.name}: {op.detail}", file=sys.stderr)

    untraced = [r for r in rounds if not r[0]]
    out.mkdir(parents=True, exist_ok=True)
    if args.trace:
        traced = [r for r in rounds if r[0]]
        tracer.write(out / "spans.json")
        tracer.uninstall()
        metrics = {k: {"value": statistics.median(r[4][k] for r in traced),
                       "unit": tr.unit(k)} for k in traced[0][4]}
        # traced minus untraced wall time of the same job list
        metrics["trace.overhead_s"] = {
            "value": job_median([r[1] for r in traced], 0)
            - job_median([r[1] for r in untraced], 0), "unit": "s"}
    else:
        times = [r[1] for r in untraced]
        metrics = {
            "wall_s": {"value": job_median(times, 0), "unit": "s"},
            "cpu_s": {"value": job_median(times, 1), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    record = {"workload": args.workload, "seed": args.seed, "env": env,
              "setup_samples": setup, "rounds": [r[1] for r in rounds],
              "metrics": metrics}
    (out / "run.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
