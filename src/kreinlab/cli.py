"""Batch command-line front end.

Subcommands: solve, entropy, opuc, verify, figure1. All outputs are CSV or
JSON with fixed schemas and deterministic formatting; exit codes are
0 success, 1 verification failure, 2 usage error, 3 internal consistency
failure.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .entropy import (
    _RATIO_FLOOR,
    _ROUTE_REL,
    RouteDisagreement,
    _scan_of,
    _sum_of,
    _windows,
    sobolev_h_minus1,
)
from .kernel import DecayFit, Grid, KernelError, _write_csv
from .krein import dump_krein_csv, krein_paths
from .opuc import VerblunskySeq, compare_orders
from .potentials import build_potential, read_potential_csv, tail_integral
from .verify import battery_report, run_battery

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3

MAX_GRID_POINTS = 10 ** 7  # an r grid this long already takes 80 MB per column


def parse_potential(spec: str):
    """Parse a potential spec string: zero | box:c,len | constant:c[,cutoff]
    | gaussian:c,scale | figure1 | sampled:path.csv"""
    name, _, args = spec.partition(":")
    if name == "zero":
        return build_potential("zero")
    if name == "figure1":
        return build_potential("figure1")
    if name == "sampled":
        if not args:
            raise ValueError("sampled potential needs a CSV path")
        return read_potential_csv(args)
    forms = {"box": ("two parameters: box:c,length", (2,)),
             "constant": ("constant:c[,cutoff]", (1, 2)),
             "gaussian": ("two parameters: gaussian:c,scale", (2,))}
    if name not in forms:
        raise ValueError(f"unknown potential spec {spec!r}")
    usage, counts = forms[name]
    parts = args.split(",") if args else []
    if len(parts) not in counts:
        raise ValueError(f"{name} takes {usage}")
    return build_potential(name, parse_complex(parts[0]), *map(float, parts[1:]))


def parse_complex(text: str) -> complex:
    """Parse '2', 'i', '1+2i', '-0.5-0.5i' (j also accepted); finite only."""
    cleaned = text.strip()
    if cleaned.endswith("i"):
        cleaned = cleaned[:-1] + "j"
    if cleaned in ("j", "+j"):
        cleaned = "1j"
    if cleaned == "-j":
        cleaned = "-1j"
    z = complex(cleaned)
    if not cmath.isfinite(z):
        raise ValueError(f"not a finite number: {text!r}")
    return z


def _positive(flag: str, x: float) -> float:
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"{flag} must be finite and positive, got {x}")
    return x


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"--seed must be a nonnegative integer, got {text!r}")
    return int(text)


def _r_grid(args) -> Grid:
    dr = _positive("--dr", args.dr)
    if not (math.isfinite(args.rmax) and args.rmax >= 0):
        raise ValueError(f"--rmax must be finite and nonnegative, got {args.rmax}")
    steps = args.rmax / dr
    if not steps < MAX_GRID_POINTS:  # floor(steps) + 1 points; also inf
        count = math.floor(steps) + 1 if math.isfinite(steps) else steps
        raise ValueError(f"--rmax {args.rmax:g} at --dr {dr:g} needs {count} grid "
                         f"points; the limit is {MAX_GRID_POINTS}")
    return Grid(np.arange(0.0, args.rmax + dr / 2.0, dr))


def _fit_dict(fit: DecayFit) -> dict:
    return {
        "alpha_hat": None if math.isnan(fit.alpha_hat) else fit.alpha_hat,
        "c_hat": None if math.isnan(fit.c_hat) else fit.c_hat,
        "offset": None if math.isnan(fit.offset) else fit.offset,
        "residual": fit.residual if math.isfinite(fit.residual) else None,
        "window": list(fit.window),
        "n_used": fit.n_used,
        "zero_tail": fit.zero_tail,
        "sub_exponential": fit.sub_exponential,
    }


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n")


def cmd_solve(args) -> int:
    lams = [parse_complex(t) for t in args.lambdas.split(",")]
    tol = _positive("--tol", args.tol)
    pot = parse_potential(args.potential)
    grid = _r_grid(args)
    args.out.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    paths, res = krein_paths(pot, lams, grid, tol=tol)   # one batch for all lambda
    solve_done = time.perf_counter()
    files = [f"krein_path_{i}.csv" for i in range(len(paths))]
    for name, kp in zip(files, paths):
        dump_krein_csv(args.out / name, kp)
    _write_json(args.out / "solve_trace.json", {
        "stages_s": {"solve": solve_done - start,
                     "write": time.perf_counter() - solve_done},
        "paths": [{"lambda": [lam.real, lam.imag], "file": name, "route": "magnus4",
                   "substeps": res.substeps, "error": float(err),
                   "cumP2_error": float(cerr)}
                  for lam, name, err, cerr in zip(lams, files,
                                                  np.broadcast_to(res.error, len(lams)),
                                                  res.integral_error)],
    })
    manifest = {
        "command": "solve",
        "potential": args.potential,
        "lambdas": [[lam.real, lam.imag] for lam in lams],
        "rmax": args.rmax,
        "dr": args.dr,
        "tolerances": {"ode_tol": args.tol},
        "files": files,
    }
    _write_json(args.out / "manifest.json", manifest)
    return EXIT_OK


def _provenance(r, value) -> dict:
    return {"r": float(r), "value": float(value), "route": value.route,
            "error": value.error, "nodes": value.nodes}


def cmd_entropy(args) -> int:
    pot = parse_potential(args.potential)
    grid = _r_grid(args)
    if not 0 <= args.nsum <= MAX_GRID_POINTS:
        raise ValueError(f"--nsum must be in [0, {MAX_GRID_POINTS}], got {args.nsum}")
    start = time.perf_counter()
    sob = sobolev_h_minus1(pot)  # first: it rejects a coefficient not in L2
    args.out.mkdir(parents=True, exist_ok=True)
    sobolev_done = time.perf_counter()

    # each distinct window once: the sum reuses the scan's E at integer r
    E_scan, D = _windows(pot, grid.points, grid.points)
    E = dict(zip(grid.points, E_scan))
    scan = _scan_of(grid, E_scan, D)
    _write_csv(args.out / "entropy_scan.csv", ["r", "E", "D", "ratio"],
               [grid.points.tolist(), scan.E.tolist(), scan.D.tolist(),
                ["" if math.isnan(q) else q for q in scan.ratio.tolist()]])
    scan_done = time.perf_counter()

    windows = [float(n) for n in range(args.nsum + 1)]
    rest = [r for r in windows if r not in E]
    E.update(zip(rest, _windows(pot, rest, [])[0]))
    esum = _sum_of([E[r] for r in windows])
    sum_done = time.perf_counter()
    _write_json(args.out / "entropy_trace.json", {
        "stages_s": {"sobolev": sobolev_done - start,
                     "scan": scan_done - sobolev_done,
                     "sum": sum_done - scan_done},
        "E": [_provenance(r, v) for r, v in sorted(E.items())],
        "D": [_provenance(r, v) for r, v in zip(grid.points, D)],
    })
    ratio = None if esum.total == 0.0 or sob.value == 0.0 else esum.total / sob.value
    verdict = ("trivial" if ratio is None
               else "in-band" if 0.01 <= ratio <= 100.0 else "out-of-band")
    summary = {
        "command": "entropy",
        "potential": args.potential,
        "rmax": args.rmax,
        "dr": args.dr,
        "fit_E": _fit_dict(scan.fit_E),
        "fit_D": _fit_dict(scan.fit_D),
        "entropy_sum": {"total": esum.total, "last_term": esum.last_term,
                        "n_terms": esum.n_terms},
        "sobolev": {"value": sob.value, "tail_bound": sob.tail_bound},
        "sum_to_sobolev_ratio": ratio,
        "band_verdict": verdict,
        "tolerances": {"ratio_band": [0.01, 100.0],
                       "route_agreement_rel": _ROUTE_REL,
                       "ratio_floor": _RATIO_FLOOR},
        "files": ["entropy_scan.csv"],
    }
    _write_json(args.out / "entropy_summary.json", summary)
    return EXIT_OK


def cmd_opuc(args) -> int:
    if args.rule:
        name, _, params = args.rule.partition(":")
        c_str, n_str = params.split(",")
        if (length := int(n_str)) > MAX_GRID_POINTS:
            raise ValueError(f"--rule asks for {length} coefficients; "
                             f"the limit is {MAX_GRID_POINTS}")
        seq = VerblunskySeq.from_rule(name, float(c_str), length)
    else:
        seq = VerblunskySeq(np.array([parse_complex(a)
                                      for a in args.alphas.split(",")]))
    args.out.mkdir(parents=True, exist_ok=True)

    lams = np.cumprod(1.0 - np.abs(seq.alphas) ** 2)
    _write_csv(args.out / "opuc_table.csv", ["n", "Re_alpha", "Im_alpha", "lambda_n"],
               [[str(n) for n in range(len(seq))], seq.alphas.real.tolist(),
                seq.alphas.imag.tolist(), lams.tolist()])

    out = {
        "command": "opuc",
        "n_coefficients": len(seq),
        "files": ["opuc_table.csv"],
    }
    if args.orders:
        co = compare_orders(seq)
        out["orders"] = {
            "rho_alpha": {"rho": co.rho_alpha.rho if math.isfinite(co.rho_alpha.rho) else None,
                          "flag": co.rho_alpha.flag},
            "rho_pi": {"rho": co.rho_pi.rho if math.isfinite(co.rho_pi.rho) else None,
                       "flag": co.rho_pi.flag},
            "sampling_radius": co.radius,
        }
    _write_json(args.out / "opuc_summary.json", out)
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_battery(seed=args.seed, only=args.only)
    report = battery_report(results, seed=args.seed)
    text = json.dumps(report, indent=2)
    sys.stdout.write(text + "\n")
    if args.out != Path("."):
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "verify_report.json").write_text(text + "\n")
    return EXIT_OK if report["all_passed"] else EXIT_CHECK_FAILED


def cmd_figure1(args) -> int:
    pot = build_potential("figure1")
    args.out.mkdir(parents=True, exist_ok=True)
    rs = np.arange(0.0, 8.0 + 0.005, 0.01)
    _write_csv(args.out / "figure1.csv", ["r", "f", "tail"],
               [rs.tolist(), pot(rs).tolist(), tail_integral(pot, rs).tolist()])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kreinlab",
        description="Numerical laboratory for Krein systems, entropy "
                    "functionals, ordered exponentials, and unit-circle "
                    "orthogonal polynomials.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="integrate the coupled system and dump paths")
    p_solve.add_argument("--potential", required=True)
    p_solve.add_argument("--lambda", dest="lambdas", required=True,
                         help="comma-separated spectral parameters, e.g. '2,i,1+0.5i'")
    p_solve.add_argument("--rmax", type=float, default=10.0)
    p_solve.add_argument("--dr", type=float, default=0.05)
    p_solve.add_argument("--tol", type=float, default=1e-10)
    p_solve.add_argument("--out", type=Path, default=".")
    p_solve.set_defaults(run=cmd_solve)

    p_ent = sub.add_parser("entropy", help="entropy/variation scan with fits and proxies")
    p_ent.add_argument("--potential", required=True)
    p_ent.add_argument("--rmax", type=float, default=10.0)
    p_ent.add_argument("--dr", type=float, default=0.25)
    p_ent.add_argument("--nsum", type=int, default=30)
    p_ent.add_argument("--cutoff", type=float,
                       help="accepted and ignored: the H^-1 norm has no cutoff")
    p_ent.add_argument("--out", type=Path, default=".")
    p_ent.set_defaults(run=cmd_entropy)

    p_opuc = sub.add_parser("opuc", help="unit-circle recursion tables and order comparison")
    group = p_opuc.add_mutually_exclusive_group(required=True)
    group.add_argument("--alphas", help="comma-separated coefficients, e.g. '0.5,0.2+0.1i'")
    group.add_argument("--rule", help="factorial:c,len or gaussian:c,len")
    p_opuc.add_argument("--orders", action="store_true")
    p_opuc.add_argument("--out", type=Path, default=".")
    p_opuc.set_defaults(run=cmd_opuc)

    p_ver = sub.add_parser("verify", help="run the built-in identity battery")
    p_ver.add_argument("--only", default=None, help="filter checks by name prefix")
    p_ver.add_argument("--seed", type=_seed, default=0)
    p_ver.add_argument("--out", type=Path, default=".")
    p_ver.set_defaults(run=cmd_verify)

    p_fig = sub.add_parser("figure1", help="dump the oscillating coefficient and its tail")
    p_fig.add_argument("--out", type=Path, default=".")
    p_fig.set_defaults(run=cmd_figure1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        return args.run(args)
    except RouteDisagreement as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except KernelError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
