"""Built-in verification battery.

Runs the identity and property checks over the potential catalog and seeded
random families, reporting one named result per check with the measured
residual and its tolerance. Deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import entropy as ent
from . import krein
from . import opuc
from .kernel import boole_weights, exp_phase_tail, series_coeffs_from_samples
from .ordered_exp import (
    J,
    CoeffPair,
    a2_variation,
    a4_explicit,
    diagonal_a_n,
    f_of_s,
    family_gamma,
    iterated_integral,
    ordered_exp,
    ordered_exp_path,
    random_admissible_family,
    random_coeff_pair,
    taylor_a,
)
from .potentials import Potential, build_potential, tail_integral


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""


def _catalog():
    return {
        "zero": build_potential("zero"),
        "box11": build_potential("box", 1, 1),
        "box052": build_potential("box", 0.5, 2),
        "gaussian": build_potential("gaussian", 1, 1),
        "figure1": build_potential("figure1"),
    }


def _result(name, residual, tolerance, detail=""):
    return CheckResult(name=name, passed=bool(residual <= tolerance),
                       residual=float(residual), tolerance=float(tolerance),
                       detail=detail)


# --- Krein identities -------------------------------------------------------

def check_reflection(rng):
    worst = 0.0
    zs = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j, 1j, 2j])
    for pot in _catalog().values():
        for r in (1.0, 2.0, 5.0):
            worst = max(worst, float(np.max(
                krein.reflection_residual_batch(pot, zs, r))))
    return [_result("krein.reflection", worst, 1e-6,
                    "catalog x {+-1+-i, i, 2i} x {1,2,5}")]

def check_christoffel_darboux(rng):
    worst = 0.0
    for pot in _catalog().values():
        for lam, mu, r in ((1j, 1j, 1.0), (1j, 2j, 2.0), (0.5 + 0.5j, 1j, 2.0),
                           (1.3, 1.3, 2.0)):
            worst = max(worst, krein.christoffel_darboux_residual(pot, lam, mu, r))
    return [_result("krein.cd", worst, 1e-6, "catalog cross-parameter probes")]

def check_szego_modulus(rng):
    worst = 0.0  # figure1 is left out: it is not resolvable out to r = 40
    for name in ("zero", "box11", "box052", "gaussian"):
        pot = _catalog()[name]
        for lam in (1j, 0.5 + 0.5j):
            worst = max(worst, krein.pi_modulus_check(pot, lam))
    return [_result("krein.szego_modulus", worst, 1e-4,
                    "modulus identity at horizon 40")]

def check_positivity(rng):
    worst = 0.0
    for name in ("box11", "gaussian", "figure1"):
        kp = krein.solve_krein(_catalog()[name], 0.5 + 1j, np.linspace(0.0, 5.0, 41))
        gap = np.abs(kp.P_star) ** 2 - np.abs(kp.P) ** 2
        worst = max(worst, float(-np.min(gap)), float(-np.min(np.diff(gap))))
    return [_result("krein.positivity", worst, 1e-9,
                    "gap nonnegative and nondecreasing for Im lambda > 0")]

def check_growth_bound(rng):
    worst = 0.0
    for name in ("box11", "gaussian"):
        pot = _catalog()[name]
        c, size = pot.params
        for z in (1j, -1j, 2 - 2j):
            for r in (1.0, 3.0):
                kp = krein.solve_krein(pot, z, np.array([0.0, r]))
                # ||a||_{L1[0, r]} in closed form
                l1 = abs(c) * (min(r, size) if name == "box11"
                               else size * math.sqrt(math.pi) / 2.0 * math.erf(r / size))
                bound = math.exp(l1 + r * max(-z.imag, 0.0))
                worst = max(worst, abs(kp.P_star[-1]) / bound - 1.0)
    return [_result("krein.growth", worst, 1e-6, "Gronwall-type bound on P*")]


# --- ordered exponential ----------------------------------------------------

def check_series_vs_ode(rng):
    worst = 0.0
    for _ in range(20):
        A = random_coeff_pair(rng)
        Xs = ordered_exp(A, 1.0, mode="series", n_terms=12, tail_tol=1.0)
        Xo = ordered_exp(A, 1.0, mode="ode", tol=1e-12)
        worst = max(worst, float(np.max(np.abs(Xs - Xo))))
    return [_result("ordered.series_vs_ode", worst, 1e-8, "20 seeded pairs")]

def check_conjugation(rng):
    worst = 0.0
    Jinv = np.linalg.inv(J)
    for _ in range(10):
        A = random_coeff_pair(rng)
        Aneg = CoeffPair(lambda t, f=A.p: -np.asarray(f(t)),
                            lambda t, f=A.q: -np.asarray(f(t)))
        X = ordered_exp(A, 1.0, mode="ode", tol=1e-12)
        Xn = ordered_exp(Aneg, 1.0, mode="ode", tol=1e-12)
        worst = max(worst, float(np.max(np.abs(Xn - J @ X @ Jinv))))
    return [_result("ordered.conjugation", worst, 1e-8, "sign flip conjugation")]

def check_liouville(rng):
    worst = 0.0
    for _ in range(10):
        A = random_coeff_pair(rng)
        path = ordered_exp_path(A, np.linspace(0.0, 1.0, 17), tol=1e-10)
        worst = max(worst, float(np.max(np.abs(np.linalg.det(path.values) - 1.0))))
    return [_result("ordered.liouville", worst, 1e-7, "unimodular paths")]

def check_a2(rng):
    worst = 0.0
    odd_worst = 0.0
    for _ in range(20):
        A = random_coeff_pair(rng)
        ta = taylor_a(A, 6)
        worst = max(worst, abs(ta[2] - a2_variation(A)))
        cs = series_coeffs_from_samples(lambda s: f_of_s(A, s, n_grid=1025), 5,
                                        radius=0.8, n_samples=64)
        odd_worst = max(odd_worst, float(np.max(np.abs(cs[1::2]))))
    return [_result("ordered.a2", worst, 1e-6, "structural vs variation route"),
            _result("ordered.odd_vanish", odd_worst, 1e-8,
                    "odd sampled coefficients")]

def check_a4(rng):
    worst = 0.0
    for _ in range(10):
        A = random_coeff_pair(rng)
        worst = max(worst, abs(taylor_a(A, 4)[4] - a4_explicit(A)))
    exact = abs(a4_explicit(CoeffPair.constant(0.0, 1.0)) - 2.0 / 45.0)
    return [_result("ordered.a4", worst, 1e-5, "explicit terms vs structural"),
            _result("ordered.a4_exact", exact, 1e-7, "unit diagonal reference")]

def check_diagonal_routes(rng):
    # the unit diagonal generator: F = sinh^2(s)/s^2 = 1 + s^2/3 + 2 s^4/45 + ...
    A = CoeffPair.constant(0.0, 1.0)
    ta, t = taylor_a(A, 4), (lambda x: np.asarray(x, dtype=float))
    series = series_coeffs_from_samples(lambda s: np.sinh(s) ** 2 / s ** 2, 4, radius=1.0).real
    a2, a4 = ([ta[2], a2_variation(A), diagonal_a_n(t, 2), series[2]],
              [2.0 / 45.0, ta[4], diagonal_a_n(t, 4), series[4]])
    return [_result("ordered.diagonal_routes", max(abs(a - b) for a in a2 for b in a2), 1e-6,
                    "four independent a2 routes"),
            _result("ordered.diagonal_a4", max(abs(a - b) for a in a4 for b in a4), 1e-6,
                    "a4 by moments, structure and sampling against 2/45")]

def check_iterated_bounds(rng):
    worst = 0.0
    for _ in range(50):
        fam = random_admissible_family(rng, 6)
        gam = family_gamma(fam)
        for n in range(1, 7):
            m = math.ceil((n + 1) / 2)
            fs = [fam[i % len(fam)] for i in range(n)]
            val = abs(iterated_integral(fs, 1.0, n_grid=1025))
            worst = max(worst, val / (8 * gam) ** m)
        f, g = fam[0], fam[1]
        worst = max(worst,
                    abs(iterated_integral([f, f, g, g], 1.0, n_grid=1025)) / (160 * gam ** 4),
                    abs(iterated_integral([f, g, g], 1.0, n_grid=1025)) / (11 * gam ** 3),
                    abs(iterated_integral([f, f, g], 1.0, n_grid=1025)) / (79 * gam ** 3))
    return [_result("ordered.bounds", worst, 1.0,
                    "smallness bounds, 50 seeded families (ratio to bound)")]

def check_defect_scaling(rng):
    worst = 0.0
    for _ in range(10):
        A = random_coeff_pair(rng)
        a2 = a2_variation(A)
        defects = [abs(f_of_s(A.scaled(s), 1.0) - 1.0 - s * s * a2) / (s * s * a2)
                   for s in (1.0, 0.5, 0.25, 0.1)]
        mono = max(max(b - a for a, b in zip(defects[:-1], defects[1:])), 0.0)
        worst = max(worst, defects[-1] / 0.05, mono / 1e-12)
    return [_result("ordered.defect", worst, 1.0,
                    "quadratic term dominates by s=0.1 (ratio to 0.05); "
                    "defect nonincreasing in s (rise ratio to 1e-12)")]


# --- entropy functionals ----------------------------------------------------

def check_entropy_nonneg(rng):
    worst_e = 0.0
    worst_d = 0.0
    for name in ("box11", "box052", "gaussian", "figure1"):
        pot = _catalog()[name]
        for r in (0.0, 0.5, 1.0, 2.0, 3.0):
            worst_e = max(worst_e, -ent.entropy_E(pot, r))
            worst_d = max(worst_d, -ent.variation_D(pot, r))
    return [_result("entropy.E_nonneg", worst_e, 1e-9, "catalog windows"),
            _result("entropy.D_nonneg", worst_d, 1e-12, "catalog windows")]

def check_entropy_references(rng):
    const = build_potential("constant", 0.25)
    ref = (math.exp(2) - 1.0) * (1.0 - math.exp(-2)) - 4.0
    worst = max(abs(ent.entropy_E(const, r) - ref) for r in (0.0, 1.3, 4.0))
    box = _catalog()["box11"]
    var = abs(ent.variation_D(box, 0.0) - 5.0 / 12.0)
    # the chirp c e^{ikx} on [0, 6]: N = R(s) e^{sB} with B^2 = mu^2 I, so
    # E = det int_0^2 e^{tB^T} e^{tB} dt - 4 in closed form for r <= 1
    c, k = 0.7, 1.3
    chirp = Potential("closed-form", "chirp", lambda x: c * np.exp(1j * k * x),
                      support_bound=6.0, l2_norm=c * math.sqrt(6.0), is_real=False)
    mu = math.sqrt(4.0 * c * c - k * k)
    cc = 1.0 + math.sinh(4.0 * mu) / (4.0 * mu)
    cs = 4.0 * c * math.sinh(2.0 * mu) ** 2 / (2.0 * mu * mu)
    ss = (math.sinh(4.0 * mu) / (4.0 * mu) - 1.0) / mu ** 2
    ref = (cc + (4.0 * c * c + k * k) * ss) ** 2 - cs ** 2 - (4.0 * c * k * ss) ** 2 - 4.0
    chirp_rel = max(abs(ent.entropy_E(chirp, r) / ref - 1.0) for r in (0.0, 0.5, 1.0))
    return [_result("entropy.const_reference", worst, 1e-6,
                    "constant quarter closed form"),
            _result("entropy.variation_reference", var, 1e-9, "unit box at 0"),
            _result("entropy.varying_phase_reference", chirp_rel, 1e-8,
                    "chirp 0.7 e^{1.3ix} on [0, 6], relative")]

def check_entropy_support(rng):
    worst = 0.0
    for name in ("box11", "box052"):
        pot = _catalog()[name]
        for r in (pot.support_bound, pot.support_bound + 1.5, 6.0):
            worst = max(worst, abs(ent.entropy_E(pot, r)), abs(ent.variation_D(pot, r)))
    return [_result("entropy.support_zero", worst, 1e-8,
                    "E and D vanish past the support")]

def check_entropy_scaling(rng):
    p1 = build_potential("gaussian", 1, 1)
    p2 = build_potential("gaussian", 0.5, 1)
    worst = max(abs(ent.variation_D(p2, r) - 0.25 * ent.variation_D(p1, r))
                for r in (0.0, 0.7, 1.5))
    return [_result("entropy.D_scaling", worst, 1e-10, "quadratic homogeneity")]

def check_entropy_band(rng):
    worst = 0.0
    for name in ("box11", "box052", "gaussian", "figure1"):
        pot = _catalog()[name]
        at = ent.sobolev_h_minus1(pot)
        ratio = ent.entropy_sum(pot, 30).total / at.value
        worst = max(worst, ratio / 100.0, 0.01 / ratio)
    past = ent.sobolev_h_minus1(pot, _split=ent._F1_SPLIT + 1.0)    # pot is figure1
    gap = abs(at.value - past.value) / (at.tail_bound + past.tail_bound)
    # the box c 1_[0, L] has the H^-1 norm |c|^2 (L - 1 + e^{-L})
    closed = 0.0
    for c, size in ((1.0, 1.0), (0.5, 2.0), (1.0 + 1.0j, 3.0)):
        h = ent.sobolev_h_minus1(build_potential("box", c, size))
        closed = max(closed, abs(h.value - abs(c) ** 2 * (size - 1.0 + math.exp(-size)))
                     / h.tail_bound)
    return [_result("entropy.band", worst, 1.0,
                    "sum-vs-Sobolev ratio inside [1/100, 100] (ratio to band edge)"),
            _result("entropy.figure1_sobolev_split", gap, 1.0, "H^-1 sampled to 4 "
                    "and to 5, the rest expanded (gap to the sum of the bounds)"),
            _result("entropy.sobolev_closed_form", closed, 1.0, "H^-1 of box:1,1, "
                    "box:0.5,2 and box:1+1i,3 against |c|^2 (L - 1 + e^-L) "
                    "(gap to tail_bound)")]

def check_alpha_agreement(rng):
    from .potentials import oscillation_classify
    gauss = _catalog()["gaussian"]
    fig = _catalog()["figure1"]
    d_g = ent.classify_alpha(gauss, np.linspace(0.0, 6.0, 25)).alpha_hat
    t_g = oscillation_classify(gauss, np.linspace(1.0, 4.0, 13)).fit.alpha_hat
    d_f = ent.classify_alpha(fig, np.linspace(0.0, 8.0, 33)).alpha_hat
    t_f = oscillation_classify(fig, np.linspace(2.0, 8.0, 61)).fit.alpha_hat
    worst = max(abs(d_g - t_g), abs(d_f - t_f))
    box_zero = ent.classify_alpha(_catalog()["box11"], np.linspace(1.0, 6.0, 11))
    flag_ok = 0.0 if box_zero.zero_tail else 1.0
    return [_result("entropy.alpha_agreement", worst, 0.3,
                    "variation vs tail decay class"),
            _result("entropy.support_flag", flag_ok, 0.5,
                    "support-bounded tail flagged identically zero")]


# --- unit circle ------------------------------------------------------------

def check_opuc_weight(rng):
    half = opuc.VerblunskySeq(np.array([0.5]))
    theta = 2 * np.pi * np.arange(8192) / 8192
    norm = abs(float(np.mean(opuc.bs_weight(half, theta))) - 1.0)
    mixed = opuc.VerblunskySeq(np.array([0.4, -0.3j, 0.2 + 0.1j]))
    off = 0.0
    for j in range(len(mixed) + 2):
        for k in range(len(mixed) + 2):
            val = opuc.orthogonality_check(mixed, j, k)
            if j != k:
                off = max(off, abs(val))
    return [_result("opuc.weight_normalization", norm, 1e-8, "probability measure"),
            _result("opuc.gram_offdiag", off, 1e-9, "orthogonality battery")]

def check_opuc_orders(rng):
    fact = opuc.compare_orders(opuc.VerblunskySeq.from_rule("factorial", 0.5, 20))
    worst = max(abs(fact.rho_alpha.rho - 1.0), abs(fact.rho_pi.rho - 1.0))
    finite = opuc.compare_orders(opuc.VerblunskySeq(np.array([0.5])))
    flag = 0.0 if (finite.rho_alpha.is_polynomial and finite.rho_pi.is_polynomial) else 1.0
    return [_result("opuc.orders_factorial", worst, 0.2,
                    "both order estimates near 1"),
            _result("opuc.orders_finite_flag", flag, 0.5,
                    "finite sequences flagged polynomial")]

def check_opuc_modulus(rng):
    mixed = opuc.VerblunskySeq(np.array([0.4, -0.3j, 0.2 + 0.1j, -0.25]))
    theta = 2 * np.pi * np.arange(64) / 64
    z = np.exp(1j * theta)
    worst = 0.0
    growth = 0.0
    for n in (1, 3, 6):
        phi, star = opuc._phi_arrays(mixed, z, n)
        worst = max(worst, float(np.max(np.abs(np.abs(phi) - np.abs(star)))))
        bound = float(np.prod(1.0 + np.abs(mixed.alphas[:n])))
        growth = max(growth, float(np.max(np.abs(phi))) / bound - 1.0)
    return [_result("opuc.circle_modulus", worst, 1e-10, "reversed-polynomial modulus"),
            _result("opuc.growth_bound", max(growth, 0.0), 1e-10, "monic growth bound")]


# --- oscillating tail reproduction ------------------------------------------

def check_figure1(rng):
    fig = _catalog()["figure1"]
    rs = np.arange(1.0, 8.0 + 1e-9, 0.05)
    tails = tail_integral(fig, rs)
    envelope = float(np.max(np.abs(tails) / (2.0 * np.exp(-rs))))
    # independent oracle at a handful of points: half-period composite in
    # u = e^x space with the IBP remainder
    worst = 0.0
    for r in (1.0, 2.0, 4.0, 6.0, 8.0):
        U = math.pi * math.ceil(3.2e4 / math.pi)
        u = np.linspace(math.exp(r), U, 2 ** 20 + 1)
        w = 1.0 / (u * (1.0 + np.log(u)))
        body = float(boole_weights(u) @ (np.sin(u) * w))
        wU = 1.0 / (U * (1.0 + math.log(U)))
        wpU = -(2.0 + math.log(U)) / (U * (1.0 + math.log(U))) ** 2
        oracle = body + math.cos(U) * wU - math.sin(U) * wpU
        worst = max(worst, abs(exp_phase_tail(lambda x: 1.0 / (1.0 + x), r).imag
                                - oracle))
    return [_result("figure1.envelope", envelope, 1.0,
                    "tail under 2 e^{-r} (ratio to envelope)"),
            _result("figure1.oracle", worst, 1e-5, "panel-oracle agreement")]


# --- resonance probe --------------------------------------------------------

def check_resonance_probe(rng):
    box = _catalog()["box11"]
    z = krein.find_pi_zero(box)
    mags = krein.probe_magnitudes(box, np.conj(z), np.linspace(1.5, 5.0, 15))
    conj_decay = float(np.max(mags))
    fit = krein.decay_probe_D(box, 1j, np.linspace(1.5, 12.0, 40))
    generic = max(abs(fit.alpha_hat - 1.0), abs(fit.c_hat - 1.0))
    return [_result("probe.resonance_conjugate", conj_decay, 1e-7,
                    "P vanishes past the support at the conjugate zero"),
            _result("probe.generic_rate", generic, 0.1,
                    "rate recovery at a generic interior point")]


_GROUPS = [
    (("krein.reflection",), check_reflection),
    (("krein.cd",), check_christoffel_darboux),
    (("krein.szego_modulus",), check_szego_modulus),
    (("krein.positivity",), check_positivity),
    (("krein.growth",), check_growth_bound),
    (("ordered.series_vs_ode",), check_series_vs_ode),
    (("ordered.conjugation",), check_conjugation),
    (("ordered.liouville",), check_liouville),
    (("ordered.a2", "ordered.odd_vanish"), check_a2),
    (("ordered.a4", "ordered.a4_exact"), check_a4),
    (("ordered.diagonal_routes", "ordered.diagonal_a4"), check_diagonal_routes),
    (("ordered.bounds",), check_iterated_bounds),
    (("ordered.defect",), check_defect_scaling),
    (("entropy.E_nonneg", "entropy.D_nonneg"), check_entropy_nonneg),
    (("entropy.const_reference", "entropy.variation_reference",
      "entropy.varying_phase_reference"), check_entropy_references),
    (("entropy.support_zero",), check_entropy_support),
    (("entropy.D_scaling",), check_entropy_scaling),
    (("entropy.band", "entropy.figure1_sobolev_split", "entropy.sobolev_closed_form"),
     check_entropy_band),
    (("entropy.alpha_agreement", "entropy.support_flag"), check_alpha_agreement),
    (("opuc.weight_normalization", "opuc.gram_offdiag"), check_opuc_weight),
    (("opuc.orders_factorial", "opuc.orders_finite_flag"), check_opuc_orders),
    (("opuc.circle_modulus", "opuc.growth_bound"), check_opuc_modulus),
    (("figure1.envelope", "figure1.oracle"), check_figure1),
    (("probe.resonance_conjugate", "probe.generic_rate"), check_resonance_probe),
]


def _matches(name: str, only: str | None) -> bool:
    return only is None or name.startswith(only) or only in name


def run_battery(seed: int = 0, only: str | None = None) -> list[CheckResult]:
    """Run the verification battery; ``only`` filters check names by prefix
    and must match some check. Group i draws from ``default_rng([seed, i])``,
    so a filtered run repeats the full run's residuals."""
    results: list[CheckResult] = []
    for i, (names, group) in enumerate(_GROUPS):
        if any(_matches(n, only) for n in names):
            rng = np.random.default_rng([seed, i])
            results.extend(r for r in group(rng) if _matches(r.name, only))
    if not results:
        raise ValueError(f"filter {only!r} matched no check")
    return results


def battery_report(results: list[CheckResult], seed: int) -> dict:
    return {
        "seed": seed,
        "n_checks": len(results),
        "n_failed": sum(not r.passed for r in results),
        "all_passed": all(r.passed for r in results),
        "checks": [asdict(r) for r in results],
    }
