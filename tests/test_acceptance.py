"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with its
measured residuals at the stated tolerance. Where the ``kreinlab verify``
battery has a check for a criterion, the test calls that check function at
the criterion's own seed and asserts that every result passed; a check that
draws no random numbers is read from the session's one battery run (the
``battery`` fixture in conftest.py). Only what the battery does not cover is
computed here. Run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion report, or via the CLI
battery (``kreinlab verify``) for the JSON form.
"""

import csv
import math

import numpy as np
from numpy.random import default_rng
from scipy.integrate import cumulative_simpson

import kreinlab.entropy as ent
from kreinlab.cli import main as cli_main
from kreinlab.kernel import series_coeffs_from_samples
from kreinlab.krein import solve_krein
from kreinlab.opuc import VerblunskySeq, orthogonality_check
from kreinlab.ordered_exp import CoeffPair, a4_explicit, diagonal_a_n, taylor_a
from kreinlab.potentials import build_potential, oscillation_classify
from kreinlab.verify import (
    check_a2,
    check_alpha_agreement,
    check_christoffel_darboux,
    check_conjugation,
    check_defect_scaling,
    check_diagonal_routes,
    check_entropy_band,
    check_entropy_nonneg,
    check_entropy_references,
    check_iterated_bounds,
    check_liouville,
    check_opuc_orders,
    check_opuc_weight,
    check_reflection,
    check_resonance_probe,
    check_series_vs_ode,
    check_szego_modulus,
)

BOX = build_potential("box", 1, 1)


def report(num, results=(), ok=True, extra=""):
    """Print the criterion's line: each battery result's residual against its
    tolerance, then ``extra`` for what the test checks itself."""
    parts = [f"{r.name} {r.residual:.2e} <= {r.tolerance:g}" for r in results]
    detail = "; ".join(parts + [extra] if extra else parts)
    ok = ok and all(r.passed for r in results)
    print(f"[ACCEPTANCE] criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_01_closed_form_solves():
    grid = np.linspace(0.0, 10.0, 41)
    worst = 0.0
    for lam in (0.0, 2.0, 1j, 1 + 1j):
        kp = solve_krein(build_potential("zero"), lam, grid, tol=1e-12)
        worst = max(worst,
                    float(np.max(np.abs(kp.P - np.exp(1j * lam * grid)))),
                    float(np.max(np.abs(kp.P_star - 1.0))))
    const = build_potential("constant", 1.0)
    gridc = np.linspace(0.0, 1.0, 11)
    kp = solve_krein(const, 0.0, gridc, tol=1e-12)
    ref = np.exp(-gridc)
    worst = max(worst,
                float(np.max(np.abs(kp.P - ref))),
                float(np.max(np.abs(kp.P_star - ref))))
    report(1, ok=worst <= 1e-9,
           extra=f"free/constant closed forms, worst {worst:.2e} <= 1e-9")


def test_criterion_02_identity_battery(battery):
    report(2, battery(check_reflection) + battery(check_christoffel_darboux)
           + battery(check_szego_modulus))


def test_criterion_03_ordered_exponential_oracles():
    # each check draws 10 pairs, so two calls on one generator cover the same
    # 20 pairs as series-vs-ode
    conj_rng, det_rng = default_rng(2024), default_rng(2024)
    report(3, check_series_vs_ode(default_rng(2024))
           + check_conjugation(conj_rng) + check_conjugation(conj_rng)
           + check_liouville(det_rng) + check_liouville(det_rng))


def test_criterion_04_coefficient_formulas(battery):
    A = CoeffPair.constant(0.0, 1.0)
    ta = taylor_a(A, 4)
    sampled = series_coeffs_from_samples(lambda s: np.sinh(s) ** 2 / s ** 2, 4,
                                         radius=1.0).real
    a4_routes = [ta[4], diagonal_a_n(lambda t: np.asarray(t, dtype=float), 4),
                 a4_explicit(A), float(sampled[4])]
    ref_err = max(abs(ta[2] - 1.0 / 3.0), abs(ta[4] - 2.0 / 45.0))
    pair_err = max(abs(a - b) for a in a4_routes for b in a4_routes)
    report(4, battery(check_diagonal_routes), ref_err <= 1e-7 and pair_err <= 1e-6,
           f"a2=1/3, a4=2/45 within {ref_err:.2e} <= 1e-7; "
           f"four a4 routes pairwise {pair_err:.2e} <= 1e-6")


def test_criterion_05_quadratic_coefficient_random():
    report(5, check_a2(default_rng(55)))


def test_criterion_06_smallness_bounds():
    report(6, check_iterated_bounds(default_rng(66)))


def test_criterion_07_entropy_functionals(battery):
    # the sampled real pass against the transfer-matrix ODE with Gram
    # accumulation, which shares no code with it, over the catalog probes
    worst_route = 0.0
    for pot in (BOX, build_potential("box", 0.5, 2), build_potential("gaussian", 1, 1),
                build_potential("constant", 0.25)):
        for r in (0.0, 0.7, 1.5):
            n_total = ent._window_budget(pot, r, r + 2.0, 2.0)
            sampled = ent._entropy_sampled(pot, r, n_total)[0]
            ode = ent._entropy_ode(pot, r)[0]
            worst_route = max(worst_route,
                              abs(sampled - ode) / (1.0 + abs(sampled)))
    report(7, battery(check_entropy_nonneg) + battery(check_entropy_references),
           worst_route <= 1e-6, f"routes {worst_route:.2e} <= 1e-6")


def test_criterion_08_quadratic_term_dominates():
    report(8, check_defect_scaling(default_rng(88)))


def test_criterion_09_alpha_surrogate_agreement(battery):
    box_tail = oscillation_classify(BOX, np.linspace(1.5, 6.0, 10)).fit.zero_tail
    report(9, battery(check_alpha_agreement), box_tail,
           f"box tail flagged zero-tail: {box_tail}")


def test_criterion_10_sum_vs_sobolev_band(battery):
    report(10, battery(check_entropy_band))


def test_criterion_11_resonance_probe(battery):
    # find_pi_zero raises unless |P*(1, z)| < 1e-10 at the zero it returns
    report(11, battery(check_resonance_probe))


def test_criterion_12_order_comparison(battery):
    half = VerblunskySeq(np.array([0.5]))
    off = max(abs(orthogonality_check(half, j, k))
              for j in range(3) for k in range(3) if j != k)
    report(12, battery(check_opuc_orders) + battery(check_opuc_weight), off <= 1e-9,
           f"Gram off-diagonal of [0.5] {off:.1e} <= 1e-9")


def test_criterion_13_figure1_reproduction(tmp_path):
    assert cli_main(["figure1", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "figure1.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 801
    rs = np.array([float(row["r"]) for row in rows])
    tails = np.array([float(row["tail"]) for row in rows])
    mask = rs >= 1.0
    envelope_ok = bool(np.all(np.abs(tails[mask]) <= 2.0 * np.exp(-rs[mask])))

    # brute-force panel oracle in u = e^x space, shared cumulative with the
    # emitted radii as exact nodes, plus the integration-by-parts remainder
    U = math.pi * math.ceil(3.2e4 / math.pi)
    targets = np.exp(rs[mask])
    nodes = [np.linspace(a, b, int(max(9, math.ceil((b - a) / 0.04)) // 2 * 2 + 1))
             for a, b in zip(targets[:-1], targets[1:])]
    nodes.append(np.linspace(targets[-1], U,
                             int(math.ceil((U - targets[-1]) / 0.04)) // 2 * 2 + 1))
    cum_at_target = np.empty(targets.size)
    total = 0.0
    for i, panel in enumerate(nodes):
        cum_at_target[i] = total
        w = np.sin(panel) / (panel * (1.0 + np.log(panel)))
        total += float(cumulative_simpson(w, x=panel, initial=0.0)[-1])
    wU = 1.0 / (U * (1.0 + math.log(U)))
    wpU = -(2.0 + math.log(U)) / (U * (1.0 + math.log(U))) ** 2
    remainder = math.cos(U) * wU - math.sin(U) * wpU
    oracle = (total - cum_at_target) + remainder
    worst = float(np.max(np.abs(tails[mask] - oracle)))
    report(13, ok=envelope_ok and worst <= 1e-5,
           extra=f"801 rows; |tail| <= 2 e^-r on [1,8]: {envelope_ok}; "
                 f"oracle agreement {worst:.2e} <= 1e-5")
