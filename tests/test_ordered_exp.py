"""Ordered-exponential tests: iterated integrals, series vs ODE, Gram
determinant routes, explicit low-order coefficients, smallness bounds."""

import importlib
import math

import numpy as np
import pytest

from kreinlab.kernel import (SeriesTailWarning, boole_weights, propagate, row_gram,
                             series_coeffs_from_samples)
from kreinlab.ordered_exp import (
    J,
    CoeffPair,
    _grid,
    _sa_gen,
    _sa_start,
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

# the module, which the package's ordered_exp function shadows
ordered_exp_mod = importlib.import_module("kreinlab.ordered_exp")
ONE = lambda t: np.ones_like(np.asarray(t, dtype=float))
IDENT = lambda t: np.asarray(t, dtype=float)


@pytest.mark.parametrize("n", [1022, 1023, 1024, 1025])
def test_grid_rounds_up_to_a_boole_grid(n):
    assert np.array_equal(_grid(n), np.linspace(0.0, 1.0, 1025))


class TestIteratedIntegral:
    def test_single_constant(self):
        assert iterated_integral([ONE], 0.7) == pytest.approx(0.7, abs=1e-12)

    def test_double_constant(self):
        assert iterated_integral([ONE, ONE], 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_mixed_pair(self):
        # (f1 f2)_t with f1=1, f2=x is t^3/6
        assert iterated_integral([ONE, IDENT], 1.0) == pytest.approx(1.0 / 6.0, abs=1e-9)
        assert iterated_integral([ONE, IDENT], 0.5) == pytest.approx(0.5 ** 3 / 6.0, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            iterated_integral([], 1.0)

    def test_out_of_range_time_rejected(self):
        with pytest.raises(ValueError):
            iterated_integral([ONE], 1.5)

    def test_shuffle_identity(self):
        # (f)_t (g)_t = (fg)_t + (gf)_t
        f = lambda t: np.cos(2 * np.pi * np.asarray(t))
        g = lambda t: np.asarray(t) ** 2
        lhs = iterated_integral([f], 0.8) * iterated_integral([g], 0.8)
        rhs = iterated_integral([f, g], 0.8) + iterated_integral([g, f], 0.8)
        assert abs(lhs - rhs) < 1e-8


class TestOrderedExp:
    def test_zero_generator(self):
        X = ordered_exp(CoeffPair.constant(0.0, 0.0), 1.0)
        assert np.array_equal(X, np.eye(2))

    def test_constant_diagonal(self):
        c = 0.8
        X = ordered_exp(CoeffPair.constant(0.0, 2 * c), 1.0, mode="ode", tol=1e-12)
        ref = np.diag([math.exp(-2 * c), math.exp(2 * c)])
        assert np.max(np.abs(X - ref)) < 1e-8

    def test_series_matches_ode(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            A = random_coeff_pair(rng)
            Xs = ordered_exp(A, 1.0, mode="series", n_terms=12)
            Xo = ordered_exp(A, 1.0, mode="ode", tol=1e-12)
            assert np.max(np.abs(Xs - Xo)) < 1e-8

    def test_series_tail_warning(self):
        A = CoeffPair.constant(2.0, 1.0)
        with pytest.warns(SeriesTailWarning):
            ordered_exp(A, 1.0, mode="series", n_terms=4, tail_tol=1e-10)

    def test_conjugation_symmetry(self):
        rng = np.random.default_rng(3)
        Jinv = np.linalg.inv(J)
        for _ in range(5):
            A = random_coeff_pair(rng)
            Aneg = CoeffPair(lambda t, f=A.p: -np.asarray(f(t)),
                             lambda t, f=A.q: -np.asarray(f(t)))
            X = ordered_exp(A, 1.0, mode="ode", tol=1e-12)
            Xn = ordered_exp(Aneg, 1.0, mode="ode", tol=1e-12)
            assert np.max(np.abs(Xn - J @ X @ Jinv)) < 1e-8

    def test_liouville(self):
        rng = np.random.default_rng(5)
        A = random_coeff_pair(rng)
        path = ordered_exp_path(A, np.linspace(0.0, 1.0, 33), tol=1e-10)
        assert np.max(np.abs(np.linalg.det(path.values) - 1.0)) < 1e-9


class TestGramDeterminant:
    def test_at_zero(self):
        rng = np.random.default_rng(1)
        assert f_of_s(random_coeff_pair(rng), 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_closed_form(self):
        A = CoeffPair.constant(0.0, 1.0)
        assert f_of_s(A, 1.0) == pytest.approx(math.sinh(1.0) ** 2, abs=1e-7)

    def test_even(self):
        rng = np.random.default_rng(2)
        A = random_coeff_pair(rng)
        assert abs(f_of_s(A, 0.7) - f_of_s(A, -0.7)) < 1e-9

    def test_commuting_fast_paths_match_ode(self):
        # force the generic ODE path by adding a zero-but-not-flagged partner
        tiny = 1e-300
        Aq = CoeffPair.constant(tiny, 0.7)
        Aq_fast = CoeffPair.constant(0.0, 0.7)
        assert abs(f_of_s(Aq, 1.3) - f_of_s(Aq_fast, 1.3)) < 1e-8
        Ap = CoeffPair.constant(0.6, tiny)
        Ap_fast = CoeffPair.constant(0.6, 0.0)
        assert abs(f_of_s(Ap, 1.3) - f_of_s(Ap_fast, 1.3)) < 1e-8

    @pytest.mark.parametrize("A", [
        random_coeff_pair(np.random.default_rng(3)),
        CoeffPair.constant(0.0, 0.7),
        CoeffPair.constant(0.6, 0.0),
        CoeffPair.constant(0.0, 0.0),
    ], ids=["general", "q_only", "p_only", "zero"])
    @pytest.mark.parametrize("ss", [
        np.array([1.0, 0.5, -0.3, 0.0]),
        np.array([0.3 + 0.2j, -0.5j, 0.8 * np.exp(2.0j)]),
    ], ids=["real", "complex"])
    def test_array_of_s_matches_scalar_calls(self, A, ss):
        # a batch takes other ODE steps than single solves, so the two agree
        # to the solver tolerance: at the propagator's tightest, 1e-13
        batch = f_of_s(A, ss, n_grid=1025, ode_tol=1e-13)
        scalars = [f_of_s(A, s, n_grid=1025, ode_tol=1e-13) for s in ss]
        kind = complex if np.iscomplexobj(ss) else float
        assert all(type(v) is kind for v in scalars)
        assert isinstance(batch, np.ndarray) and batch.shape == ss.shape
        assert np.iscomplexobj(batch) == np.iscomplexobj(ss)
        assert np.max(np.abs(batch - np.array(scalars))) < 1e-12

    SS = np.array([0.4 + 0.3j, 0.4 - 0.3j, -0.6j, 0.6j, 0.9, 0.4 + 0.3j])

    def _pairs_are_conjugates(self, batch):
        assert batch[1] == np.conj(batch[0]) and batch[2] == np.conj(batch[3])
        assert batch[5] == batch[0]

    def test_conjugate_pairs_solved_once(self):
        # F(conj s) = conj F(s) for a real A: a pair is solved once and its
        # other member conjugated, which agrees with the batch solved whole
        A = random_coeff_pair(np.random.default_rng(4))
        batch = f_of_s(A, self.SS, n_grid=1025)
        self._pairs_are_conjugates(batch)
        g = propagate(_sa_gen(A, self.SS), _sa_start(self.SS), 0.0, 1.0, 1e-11,
                      integrand=row_gram).integral
        assert np.max(np.abs(batch - (g[:, 0] * g[:, 2] - g[:, 1] * g[:, 1]))) < 1e-14

    def test_conjugate_pairs_on_the_one_component_path(self):
        # the Boole sums of e^{+-2sg} over a batch of another width round
        # differently, by up to 6e-16 here
        A = CoeffPair.constant(0.0, 0.7, n_grid=1025)
        batch = f_of_s(A, self.SS)
        self._pairs_are_conjugates(batch)
        x, _, _, _, gq = A._tables()
        gs = np.outer(gq, self.SS)
        w = boole_weights(x)
        whole = (w @ np.exp(2.0 * gs)) * (w @ np.exp(-2.0 * gs))
        assert np.max(np.abs(batch - whole)) < 1e-13


class TestTaylorRoutes:
    def test_unit_q_reference(self):
        # Taylor coefficients of sinh^2(s)/s^2: a2 = 1/3, a4 = 2/45
        ta = taylor_a(CoeffPair.constant(0.0, 1.0), 8)
        assert abs(ta[2] - 1.0 / 3.0) < 1e-7
        assert abs(ta[4] - 2.0 / 45.0) < 1e-7

    def test_a0_and_odd_vanish(self):
        rng = np.random.default_rng(9)
        ta = taylor_a(random_coeff_pair(rng), 8)
        assert ta[0] == 1.0
        assert ta[1] == 0.0 and ta[3] == 0.0 and ta[5] == 0.0 and ta[7] == 0.0

    def test_structural_cap(self):
        with pytest.raises(ValueError):
            taylor_a(CoeffPair.constant(0.0, 1.0), 10)

    def test_matches_sampling_route(self):
        rng = np.random.default_rng(21)
        for _ in range(3):
            A = random_coeff_pair(rng)
            ta = taylor_a(A, 6)
            cs = series_coeffs_from_samples(lambda s: f_of_s(A, s, n_grid=1025),
                                            6, radius=0.8, n_samples=64)
            assert np.max(np.abs(cs.real - ta)) < 1e-6
            assert np.max(np.abs(cs[1::2])) < 1e-8

    def test_four_routes_for_unit_q(self):
        A = CoeffPair.constant(0.0, 1.0)
        routes = {
            "structural": taylor_a(A, 4)[2],
            "variation": a2_variation(A),
            "diagonal": diagonal_a_n(lambda t: np.asarray(t, dtype=float), 2),
            "sampling": series_coeffs_from_samples(
                lambda s: np.sinh(s) ** 2 / s ** 2, 4, radius=1.0)[2].real,
        }
        vals = list(routes.values())
        for a in vals:
            for b in vals:
                assert abs(a - b) < 1e-6


class TestDiagonalFormula:
    def test_linear_antiderivative(self):
        g = lambda t: np.asarray(t, dtype=float)
        assert diagonal_a_n(g, 2) == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert diagonal_a_n(g, 4) == pytest.approx(2.0 / 45.0, abs=1e-8)

    @pytest.mark.parametrize("g", [IDENT, np.sin, np.square, np.exp],
                             ids=["t", "sin", "t2", "exp"])
    def test_moments_against_double_integral(self, g, monkeypatch):
        # the double integral w (g(x) - g(y))^n w on a 513-node grid with the
        # same Boole weights, which the binomial sum of moments regroups: the
        # two agree to rounding of the largest term, (2^n / n!) max|g(x) - g(y)|^n
        monkeypatch.setattr(ordered_exp_mod, "N_GRID", 513)
        x = np.linspace(0.0, 1.0, 513)
        w = boole_weights(x)
        diff = g(x)[:, None] - g(x)[None, :]
        for n in range(2, 6):
            scale = 2.0 ** n / math.factorial(n)
            ref = scale * float(w @ diff ** n @ w)
            err = abs(diagonal_a_n(g, n) - ref)
            assert err <= 1e-15 * scale * np.max(np.abs(diff)) ** n, n

    def test_odd_vanishes(self):
        for g in (lambda t: np.sin(np.asarray(t)), lambda t: np.asarray(t) ** 2):
            assert abs(diagonal_a_n(g, 3)) < 1e-10
            assert abs(diagonal_a_n(g, 5)) < 1e-10


class TestA2A4:
    def test_a2_zero_pair(self):
        assert a2_variation(CoeffPair.constant(0.0, 0.0)) == 0.0

    def test_a2_references(self):
        assert a2_variation(CoeffPair.constant(0.0, 1.0)) == pytest.approx(1 / 3, abs=1e-10)
        assert a2_variation(CoeffPair.constant(1.0, 1.0)) == pytest.approx(2 / 3, abs=1e-10)

    def test_a2_matches_structural_on_random_pairs(self):
        rng = np.random.default_rng(33)
        for _ in range(8):
            A = random_coeff_pair(rng)
            assert abs(taylor_a(A, 2)[2] - a2_variation(A)) < 1e-6

    def test_a4_references(self):
        assert a4_explicit(CoeffPair.constant(0.0, 0.0)) == 0.0
        assert a4_explicit(CoeffPair.constant(0.0, 1.0)) == pytest.approx(2 / 45, abs=1e-7)

    def test_a4_matches_structural_on_random_pairs(self):
        rng = np.random.default_rng(34)
        for _ in range(8):
            A = random_coeff_pair(rng)
            assert abs(taylor_a(A, 4)[4] - a4_explicit(A)) < 1e-5


class TestSmallnessBounds:
    def test_chain_bounds(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            fam = random_admissible_family(rng, 6)
            gam = family_gamma(fam)
            for n in range(1, 7):
                m = math.ceil((n + 1) / 2)
                fs = [fam[i % len(fam)] for i in range(n)]
                val = abs(iterated_integral(fs, 1.0, n_grid=1025))
                assert val <= (8 * gam) ** m

    def test_quartic_and_cubic_bounds(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            f, g = random_admissible_family(rng, 2)
            gam = family_gamma([f, g])
            assert abs(iterated_integral([f, f, g, g], 1.0, n_grid=1025)) <= 160 * gam ** 4
            assert abs(iterated_integral([f, g, g], 1.0, n_grid=1025)) <= 11 * gam ** 3
            assert abs(iterated_integral([f, f, g], 1.0, n_grid=1025)) <= 79 * gam ** 3


class TestScalingDefect:
    def test_quadratic_term_dominates(self):
        rng = np.random.default_rng(7)
        for _ in range(4):
            A = random_coeff_pair(rng)
            a2 = a2_variation(A)
            defects = []
            for s in (1.0, 0.5, 0.25, 0.1):
                F1 = f_of_s(A.scaled(s), 1.0)
                defects.append(abs(F1 - 1.0 - s * s * a2) / (s * s * a2))
            assert all(a >= b - 1e-12 for a, b in zip(defects, defects[1:]))
            assert defects[-1] < 0.05
