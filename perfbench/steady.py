"""Steadiness of the benchmark: run every workload repeatedly, each run with
its own seed, and report each end-to-end metric's median and quartiles, and
the spread (q3 - q1) / median against the metric's bound.

    python3 perfbench/steady.py --runs 10 [--workload ode_paths] [--seed0 1]
                                [--against .perfbench_out/steady-<earlier>.json]

Run from the repository root. Results go to .perfbench_out/steady-*.json.
``--against`` also compares each median with an earlier set's, as a share
of the earlier median, and the failed share of every run with the earlier
set's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = json.loads(Path("BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [*BENCH["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(results: dict) -> dict:
    """Per workload and metric: values, median, quartiles, spread."""
    out = {}
    for wl, runs in results.items():
        rows = {}
        for name in BOUNDS:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            rows[name] = {"values": vals, "median": statistics.median(vals),
                          "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / statistics.median(vals)}
        shares = {r["failed"] / r["attempted"] for r in runs}
        rows["failed_share"] = sorted(shares)
        rows["correct"] = all(r["correct"] for r in runs)
        out[wl] = rows
    return out


def report(summary: dict) -> bool:
    steady = True
    for wl, rows in summary.items():
        print(f"{wl}: correct={rows['correct']} failed share {rows['failed_share']}")
        for name, bound in BOUNDS.items():
            row = rows[name]
            flag = "ok" if row["spread"] <= bound / 3 else "WIDE"
            if row["spread"] > bound / 3:
                steady = False
            print(f"  {name:12s} median {row['median']:10.4f}  q1 {row['q1']:10.4f}"
                  f"  q3 {row['q3']:10.4f}  spread {row['spread']:.4f}"
                  f"  bound/3 {bound / 3:.4f}  {flag}")
        if len(rows["failed_share"]) != 1 or not rows["correct"]:
            steady = False
    return steady


def compare(summary: dict, earlier: dict) -> bool:
    agree = True
    for wl, rows in summary.items():
        if wl not in earlier:
            continue
        for name, bound in BOUNDS.items():
            before = earlier[wl][name]["median"]
            change = (rows[name]["median"] - before) / before
            ok = change <= bound
            agree = agree and ok
            print(f"{wl} {name}: median {before:.4f} -> {rows[name]['median']:.4f}"
                  f" change {change:+.4f} bound {bound}  {'ok' if ok else 'WORSE'}")
        if rows["failed_share"] != earlier[wl]["failed_share"]:
            agree = False
            print(f"{wl}: failed share {earlier[wl]['failed_share']} -> "
                  f"{rows['failed_share']}  DIFFERS")
    return agree


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--against", type=Path)
    args = ap.parse_args(argv)

    names = args.workload or [w["name"] for w in BENCH["workloads"]]
    results = {}
    for wl in names:
        results[wl] = []
        for k in range(args.runs):
            seed = args.seed0 + k
            res = one_run(wl, seed, BENCH["run_seconds"])
            results[wl].append(res)
            vals = " ".join(f"{n}={m['value']:.4f}" for n, m in res["metrics"].items())
            print(f"{wl} seed {seed}: {vals} failed {res['failed']}/{res['attempted']}",
                  flush=True)
    summary = summarize(results)
    steady = report(summary)
    if args.against:
        earlier = json.loads(args.against.read_text())["summary"]
        steady = compare(summary, earlier) and steady
    out = Path(".perfbench_out") / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"results": results, "summary": summary}, indent=1))
    print(f"written {out}; {'steady' if steady else 'NOT steady'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
