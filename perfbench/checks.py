"""Checks of kreinlab's outputs against refs.py and against properties.

Each check returns one ``Op``: a named operation of the workload and
whether its output passed. Tolerances are stated here, next to the reason
for each.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# E(r) by the commuting route is g+ g- - 4 with g+- ~ 2, so in double
# precision it cannot be resolved below a few ulps of 4 (8.9e-16 each).
E_ULP_FLOOR = 1e-14
E_RTOL = 1e-6
# the complex route integrates the Gram ODE at rtol 1e-11, which bounds its
# absolute error in g11 g22 - g12^2 - 4 near that level
E_COMPLEX_ATOL = 1e-11
E_NONNEG = -1e-9
CLOSED_FORM_RTOL = 1e-9
CLOSED_FORM_ATOL = 1e-13
# the H^-1 references are accurate to better than 1e-11 (mpmath, closed
# forms, Gauss panels with an O(U^-2) tail)
SOBOLEV_ATOL = 1e-10
PATH_TOL = 1e-8
PI_ZERO_TOL = 1e-8
A2_TOL = 1e-8
ODD_TOL = 1e-8
RESIDUAL_TOL = 1e-6
GAP_TOL = 1e-9


@dataclass
class Op:
    name: str
    ok: bool
    detail: str = ""


def _fmt(x):
    return f"{x:.6g}"


def near(name, value, ref, rtol, atol) -> Op:
    err = abs(value - ref)
    return Op(name, bool(err <= rtol * abs(ref) + atol),
              f"value {_fmt(value)} ref {_fmt(ref)} err {_fmt(err)}")


def entropy_window(name, E, ref, rtol=E_RTOL, atol=E_ULP_FLOOR) -> Op:
    """E against its reference and E >= -1e-9."""
    op = near(name, E, ref, rtol, atol)
    op.ok = op.ok and E >= E_NONNEG
    return op


def nonneg_E(name, E) -> Op:
    return Op(name, bool(E >= E_NONNEG), f"E {_fmt(E)}")


def nonneg_D(name, D) -> Op:
    return Op(name, bool(D >= 0.0), f"D {_fmt(D)}")


def variation_window(name, D, ref, rtol=CLOSED_FORM_RTOL,
                     atol=CLOSED_FORM_ATOL) -> Op:
    op = near(name, D, ref, rtol, atol)
    op.ok = op.ok and D >= 0.0
    return op


def sobolev_bracket(name, S, tail_bound, H) -> Op:
    """0 <= H - S <= tail_bound: the proxy S drops the |xi| > cutoff mass
    of the full norm H, and tail_bound bounds that mass."""
    gap = H - S
    return Op(name, bool(-SOBOLEV_ATOL <= gap <= tail_bound + SOBOLEV_ATOL),
              f"H {_fmt(H)} S {_fmt(S)} H-S {_fmt(gap)} bound {_fmt(tail_bound)}")


def krein_path(name, P, Ps, P_ref, Ps_ref) -> Op:
    scale = np.maximum(1.0, np.maximum(np.abs(P_ref), np.abs(Ps_ref)))
    err = float(np.max(np.maximum(np.abs(P - P_ref), np.abs(Ps - Ps_ref)) / scale))
    return Op(name, bool(err <= PATH_TOL), f"max rel err {_fmt(err)}")


def pi_zero(name, z0, pstar_at_z0) -> Op:
    mag = abs(pstar_at_z0)
    return Op(name, bool(mag <= PI_ZERO_TOL and z0.imag <= 0.0),
              f"z0 {z0:.10g} |P*(z0)| {_fmt(mag)}")


def circle_a2(name, coeffs, a2_ref) -> Op:
    err = abs(coeffs[2].real - a2_ref)
    odd = float(np.max(np.abs(coeffs[1::2])))
    return Op(name, bool(err <= A2_TOL and odd <= ODD_TOL),
              f"a2 {_fmt(coeffs[2].real)} ref {_fmt(a2_ref)} err {_fmt(err)} "
              f"odd {_fmt(odd)}")


def residual(name, value, tol=RESIDUAL_TOL) -> Op:
    return Op(name, bool(value <= tol), f"residual {_fmt(value)}")


def gap_nondecreasing(name, P, Ps) -> Op:
    """|P*|^2 - |P|^2 has derivative 2 Im(lam) |P|^2 >= 0 for Im lam > 0."""
    gap = np.abs(Ps) ** 2 - np.abs(P) ** 2
    worst = float(np.min(np.diff(gap))) if gap.size > 1 else 0.0
    return Op(name, bool(worst >= -GAP_TOL), f"min step {_fmt(worst)}")


# ---------------------------------------------------------------------------
# reading the CLI's files
# ---------------------------------------------------------------------------

def read_entropy(out_dir: Path) -> dict:
    with open(out_dir / "entropy_scan.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["r", "E", "D", "ratio"]:
        raise ValueError(f"unexpected entropy_scan.csv header {rows[0]}")
    cols = np.array([[float(x) for x in row[:3]] for row in rows[1:]])
    summary = json.loads((out_dir / "entropy_summary.json").read_text())
    return {"r": cols[:, 0], "E": cols[:, 1], "D": cols[:, 2],
            "sum": summary["entropy_sum"]["total"],
            "sobolev": summary["sobolev"]["value"],
            "tail_bound": summary["sobolev"]["tail_bound"]}


def read_solve(out_dir: Path) -> list[dict]:
    manifest = json.loads((out_dir / "manifest.json").read_text())
    paths = []
    for (re_, im_), name in zip(manifest["lambdas"], manifest["files"]):
        with open(out_dir / name, newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["r", "ReP", "ImP", "RePstar", "ImPstar", "cumP2"]:
            raise ValueError(f"unexpected {name} header {rows[0]}")
        a = np.array([[float(x) for x in row] for row in rows[1:]])
        paths.append({"lam": complex(re_, im_), "r": a[:, 0],
                      "P": a[:, 1] + 1j * a[:, 2], "Ps": a[:, 3] + 1j * a[:, 4]})
    return paths

