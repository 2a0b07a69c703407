"""Krein solver tests: closed forms, identities, Christoffel objects,
Szego limits, resonance search, decay probes."""

import csv
import math
import time

import numpy as np
import pytest

from kreinlab import krein
from kreinlab.kernel import Grid, KernelError, OdeStepError, propagate
from kreinlab.krein import (
    ZeroSearchError,
    christoffel_darboux_residual,
    christoffel_m,
    decay_probe_D,
    dump_krein_csv,
    find_pi_zero,
    pi_modulus_check,
    probe_magnitudes,
    reflection_residual_batch,
    reproducing_kernel,
    solve_krein,
    szego_limit,
)
from kreinlab.potentials import build_potential

ZERO = build_potential("zero")
BOX = build_potential("box", 1, 1)
BOX2 = build_potential("box", 0.5, 2)
GAUSS = build_potential("gaussian", 1, 1)
FIG = build_potential("figure1")
CONST = build_potential("constant", 1.0)

Z_PROBES = [1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j, 1j, 2j]
R_PROBES = [1.0, 2.0, 5.0]


def box_pstar_closed_form(lam):
    """P*(1, lam) for the unit box coefficient (constant 2x2 system)."""
    lam = complex(lam)
    s = np.sqrt(4.0 - lam ** 2 + 0j) / 2.0
    if abs(s) < 1e-12:
        return np.exp(1j * lam / 2.0) * (-1j * lam / 2.0)
    return np.exp(1j * lam / 2.0) * (np.cosh(s) - (1.0 + 1j * lam / 2.0) * np.sinh(s) / s)


class TestClosedFormSolves:
    def test_free_system(self):
        kp = solve_krein(ZERO, 2.0, np.linspace(0.0, 10.0, 41), tol=1e-12)
        assert np.max(np.abs(kp.P - np.exp(2j * kp.r_grid.points))) < 1e-9
        assert np.max(np.abs(kp.P_star - 1.0)) < 1e-12

    def test_constant_at_lambda_zero(self):
        kp = solve_krein(CONST, 0.0, np.array([0.0, 1.0]), tol=1e-12)
        assert abs(kp.P[-1] - math.exp(-1)) < 1e-9
        assert abs(kp.P_star[-1] - math.exp(-1)) < 1e-9

    def test_box_frozen_past_support(self):
        kp = solve_krein(BOX, 0.0, np.array([0.0, 1.0, 3.0]), tol=1e-12)
        assert abs(kp.P_star[-1] - math.exp(-1)) < 1e-9
        assert abs(kp.P_star[-1] - kp.P_star[-2]) < 1e-12

    def test_initial_data(self):
        kp = solve_krein(BOX, 1 + 1j, np.array([0.0, 0.5]))
        assert kp.P[0] == 1.0 and kp.P_star[0] == 1.0

    def test_grid_must_start_at_zero(self):
        with pytest.raises(ValueError):
            solve_krein(ZERO, 1.0, np.array([1.0, 2.0]))

    def test_failed_first_step_raises_ode_step_error(self):
        # a zero tolerance makes the stepper fail before its first step
        with pytest.raises(OdeStepError) as exc:
            solve_krein(BOX, 1.0, np.array([0.0, 1.0]), tol=0.0)
        assert exc.value.last_t == 0.0
        assert np.array_equal(exc.value.last_state, [[1, 1]])


class TestReflectionIdentity:
    def test_free_exact(self):
        assert reflection_residual_batch(ZERO, [1 + 1j], 2.0)[0] < 1e-9

    @pytest.mark.parametrize("pot", [ZERO, BOX, BOX2, GAUSS, FIG],
                             ids=["zero", "box11", "box052", "gauss", "fig1"])
    def test_catalog_battery(self, pot):
        for z in Z_PROBES:
            for r in R_PROBES:
                assert reflection_residual_batch(pot, [z], r)[0] < 1e-6

    def test_figure1_at_i(self):
        assert reflection_residual_batch(FIG, [1j], 5.0)[0] < 1e-6


class TestChristoffelDarboux:
    def test_free_hand_value(self):
        # both sides equal 1 - e^{-2} in magnitude at lam = mu = i, r = 1
        kp = solve_krein(ZERO, 1j, np.array([0.0, 1.0]))
        lhs = abs(kp.P_star[-1]) ** 2 - abs(kp.P[-1]) ** 2
        assert abs(lhs - (1 - math.exp(-2))) < 1e-9
        assert christoffel_darboux_residual(ZERO, 1j, 1j, 1.0) < 1e-9

    @pytest.mark.parametrize("pot", [BOX, GAUSS], ids=["box", "gauss"])
    def test_real_parameter_kills_both_sides(self, pot):
        assert christoffel_darboux_residual(pot, 1.3, 1.3, 2.0) < 1e-7

    def test_cross_parameters(self):
        assert christoffel_darboux_residual(BOX, 1j, 2j, 2.0) < 1e-6

    def test_equal_parameters_propagate_one_member(self, monkeypatch):
        # lam == mu is one member, with |P|^2 as its cross integrand
        members = []

        def spy(gen, y0, *args, **kwargs):
            members.append(len(y0))
            return propagate(gen, y0, *args, **kwargs)

        monkeypatch.setattr(krein, "propagate", spy)
        assert christoffel_darboux_residual(GAUSS, 1.3, 1.3, 2.0) < 1e-7
        assert christoffel_darboux_residual(GAUSS, 1j, 1j, 2.0) < 1e-7
        assert christoffel_darboux_residual(GAUSS, 1j, 2j, 2.0) < 1e-6
        assert members == [1, 1, 2]

    def test_monotone_positivity_upper_half_plane(self):
        for pot in (BOX, GAUSS):
            kp = solve_krein(pot, 0.5 + 1j, np.linspace(0.0, 5.0, 51))
            gap = np.abs(kp.P_star) ** 2 - np.abs(kp.P) ** 2
            assert np.all(gap >= -1e-9)
            assert np.all(np.diff(gap) >= -1e-9)


class TestChristoffelFunction:
    def test_free_real_parameter(self):
        assert christoffel_m(ZERO, 1.0, 2.0) == pytest.approx(0.5, abs=1e-9)

    def test_free_imaginary_parameter(self):
        ref = 2.0 / (1.0 - math.exp(-2.0))
        assert christoffel_m(ZERO, 1j, 1.0) == pytest.approx(ref, abs=1e-9)

    def test_limit_matches_modulus_identity(self):
        # for the free system Pi == 1 and m_r(i) -> 2 Im(i)
        assert christoffel_m(ZERO, 1j, 40.0) == pytest.approx(2.0, abs=1e-8)

    def test_nonincreasing_in_r(self):
        vals = [christoffel_m(BOX, 1j, r) for r in (0.5, 1.0, 2.0, 5.0)]
        assert all(a >= b - 1e-12 for a, b in zip(vals[:-1], vals[1:]))

    def test_r_zero_rejected(self):
        with pytest.raises(ValueError):
            christoffel_m(ZERO, 1j, 0.0)


class TestReproducingKernel:
    def test_free_diagonal_value(self):
        ref = (1.0 - math.exp(-2.0)) / (4.0 * math.pi)
        val = reproducing_kernel(ZERO, 1j, 1.0, eval_at=1j)
        assert abs(val - ref) < 1e-9

    def test_free_real_diagonal(self):
        val = reproducing_kernel(ZERO, 0.7, 3.0, eval_at=0.7)
        assert abs(val - 3.0 / (2.0 * math.pi)) < 1e-9

    def test_diagonal_matches_christoffel(self):
        val = reproducing_kernel(BOX, 1j, 2.0, eval_at=1j)
        ref = 1.0 / (2.0 * math.pi * christoffel_m(BOX, 1j, 2.0))
        assert abs(val - ref) < 1e-9


class TestSzegoLimit:
    def test_free(self):
        sv = szego_limit(ZERO, 1j)
        assert sv.value == 1.0 and sv.est_error == 0.0

    def test_box_exact_for_any_horizon(self):
        for horizon in (4.0, 12.0, 40.0):
            sv = szego_limit(BOX, 0.0, horizon=horizon)
            assert abs(sv.value - math.exp(-1)) < 1e-9

    def test_frozen_past_support(self):
        kp = solve_krein(BOX, 1j, np.array([0.0, 1.0, 5.0, 20.0]))
        assert np.max(np.abs(np.diff(kp.P_star[1:]))) < 1e-10

    def test_modulus_identity_box(self):
        sv = szego_limit(BOX, 1j)
        kp = solve_krein(BOX, 1j, np.array([0.0, 40.0]))
        lhs = abs(sv.value) ** 2
        rhs = 2.0 * kp.cum_P2[-1]
        assert abs(lhs - rhs) < 1e-4 * lhs

    def test_requires_square_integrable(self):
        with pytest.raises(ValueError):
            szego_limit(CONST, 1j)

    @pytest.mark.parametrize("c", [1e200, 1e308])
    def test_overflowing_coefficient_is_a_numerical_failure(self, c):
        # box:1e308,50 has an L2 norm that overflows to inf; it is still
        # square-integrable, so it fails in the solve like box:1e200,50
        with pytest.raises(KernelError):
            szego_limit(build_potential("box", c, 50), 1j)


class TestMirrorFold:
    """For a real coefficient, P and P* at -conj(lam) are the conjugates of
    those at lam, and a batch solves one member of each such pair."""

    LAMS = np.array([0.5 + 0.2j, -0.5 + 0.2j, 1.3 - 0.7j, -1.3 - 0.7j, 2j, 0.8])
    GRID = Grid(np.linspace(0.0, 3.0, 7))

    @pytest.mark.parametrize("p", [BOX, GAUSS, FIG], ids=["box", "gaussian", "figure1"])
    def test_real_coefficient_mirrors_are_bitwise_conjugates(self, p):
        res = krein._solve_many(p, self.LAMS, self.GRID, 1e-10, with_cum=True)
        for i, j in ((0, 1), (2, 3)):
            assert np.array_equal(res.y[:, i], np.conj(res.y[:, j]))
            assert np.array_equal(res.integral[:, i], res.integral[:, j])
        # r = 0 holds the initial data 1 + 0j for every lam, not 1 - 0j
        assert not np.any(np.signbit(res.y[0].imag))

    @pytest.mark.parametrize("p", [BOX, GAUSS, FIG], ids=["box", "gaussian", "figure1"])
    def test_real_coefficient_fold_matches_the_unfolded_batch(self, p):
        # the propagator's arithmetic is itself symmetric under conjugation,
        # so the folded batch equals the whole batch propagated bit for bit
        res = krein._solve_many(p, self.LAMS, self.GRID, 1e-10, with_cum=True)
        ts = self.GRID.points
        whole = propagate(krein._krein_gen(p, self.LAMS), np.ones((self.LAMS.size, 2), complex),
                          ts[0], ts[-1], 1e-10, p.breakpoints(), t_eval=ts,
                          integrand=lambda y: np.abs(y[..., 0]) ** 2)
        assert np.array_equal(res.y, whole.y) and np.array_equal(res.integral, whole.integral)

    def test_complex_coefficient_is_not_folded(self):
        p = build_potential("gaussian", 0.5 + 0.5j, 1)
        res = krein._solve_many(p, self.LAMS[:2], self.GRID, 1e-10)
        gap = np.abs(res.y[-1, 0] - np.conj(res.y[-1, 1]))
        assert np.all(gap > 1e-3)
        for k in (0, 1):
            ref = krein._solve_many(p, self.LAMS[k:k + 1], self.GRID, 1e-10).y[:, 0]
            assert np.max(np.abs(res.y[:, k] - ref)) < 1e-9


class TestPiModulus:
    def test_free(self):
        assert pi_modulus_check(ZERO, 1j) < 1e-8

    def test_box(self):
        assert pi_modulus_check(BOX, 1j) < 1e-4

    def test_wide_box_off_axis(self):
        assert pi_modulus_check(BOX2, 0.5 + 0.5j) < 1e-4

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            pi_modulus_check(BOX, -1j)


class TestZeroSearch:
    def test_box_root_against_closed_form(self):
        z = find_pi_zero(BOX)
        assert z.imag <= 0
        assert abs(box_pstar_closed_form(z)) < 1e-9

    def test_free_system_has_no_zeros(self):
        with pytest.raises(ZeroSearchError):
            find_pi_zero(ZERO)

    def test_seeded_newton(self):
        z = find_pi_zero(BOX, seed=-0.5j)
        assert abs(box_pstar_closed_form(z)) < 1e-9

    def test_mirror_seed_returns_the_member_with_nonpositive_real_part(self):
        # the zeros of a real coefficient come in pairs z, -conj(z)
        z = find_pi_zero(BOX)
        mirror = find_pi_zero(BOX, seed=-np.conj(z) + 0.01)
        assert z.real <= 0 and mirror.real <= 0
        assert abs(mirror - z) < 1e-9

    def test_gaussian_horizon_stability(self):
        z20 = find_pi_zero(GAUSS, horizon=20.0)
        z30 = find_pi_zero(GAUSS, seed=z20, horizon=30.0)
        assert abs(z30 - z20) < 1e-6

    def test_figure1_not_eligible(self):
        with pytest.raises(ValueError):
            find_pi_zero(FIG)

    def test_gaussian_wider_than_r_max_not_eligible(self):
        # the L2 norm of e^{-(x/10)^2} falls below 1e-15 only at r = 60, past
        # the default horizon 40: P*(40, .) would be that of a coefficient cut
        # short, so no scan is started
        start = time.perf_counter()
        with pytest.raises(ValueError, match="horizon"):
            find_pi_zero(build_potential("gaussian", 1, 10))
        assert time.perf_counter() - start < 1.0


class TestDecayProbe:
    def test_box_resonance_conjugate(self):
        z = find_pi_zero(BOX)
        mags = probe_magnitudes(BOX, np.conj(z), np.linspace(1.5, 5.0, 15))
        assert np.max(mags) <= 1e-8

    def test_free_system_rate(self):
        fit = decay_probe_D(ZERO, 1j, np.linspace(1.0, 10.0, 30))
        assert abs(fit.alpha_hat - 1.0) <= 0.02
        assert abs(fit.c_hat - 1.0) <= 0.02


class TestCsvDump:
    def test_schema(self, tmp_path):
        kp = solve_krein(BOX, 1j, np.linspace(0.0, 2.0, 5))
        out = tmp_path / "path.csv"
        dump_krein_csv(out, kp)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["r", "ReP", "ImP", "RePstar", "ImPstar", "cumP2"]
        assert len(rows) == 6
        assert float(rows[1][1]) == 1.0
        assert all(float(a[5]) <= float(b[5]) for a, b in zip(rows[1:-1], rows[2:]))

    def test_bytes_are_csv_writers(self, tmp_path):
        kp = solve_krein(build_potential("gaussian", 1.0, 1.0), 0.5 + 0.1j,
                         np.linspace(0.0, 6.0, 121))
        dump_krein_csv(tmp_path / "path.csv", kp)
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["r", "ReP", "ImP", "RePstar", "ImPstar", "cumP2"])
            for r, P, Ps, c2 in zip(kp.r_grid.points, kp.P, kp.P_star, kp.cum_P2):
                writer.writerow([f"{r:.17g}", f"{P.real:.17g}", f"{P.imag:.17g}",
                                 f"{Ps.real:.17g}", f"{Ps.imag:.17g}", f"{c2:.17g}"])
        assert (tmp_path / "path.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
