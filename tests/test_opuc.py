"""Unit-circle orthogonal polynomial tests: recursion, Christoffel products,
Bernstein-Szego weights, orthogonality, order estimation."""

import math

import numpy as np
import pytest

from kreinlab.kernel import series_coeffs_from_samples
from kreinlab.opuc import (
    VerblunskySeq,
    _phi_arrays,
    bs_weight,
    christoffel_lambda,
    compare_orders,
    order_estimate,
    orthogonality_check,
    pi_from_phis,
)

HALF = VerblunskySeq(np.array([0.5]))
FREE = VerblunskySeq(np.array([]))
MIXED = VerblunskySeq(np.array([0.4, -0.3j, 0.2 + 0.1j, -0.25]))


class TestRecursion:
    def test_free_monomials(self):
        phi, star = _phi_arrays(FREE, 2.0 + 1.0j, 3)
        assert phi == (2.0 + 1.0j) ** 3
        assert star == 1.0

    def test_single_step(self):
        phi, star = _phi_arrays(HALF, 1.0, 1)
        assert phi == 0.5 and star == 0.5

    def test_star_freezes(self):
        z = 0.3 + 0.2j
        for n in (1, 3, 7):
            _, star = _phi_arrays(HALF, z, n)
            assert star == pytest.approx(1.0 - z / 2.0, abs=1e-14)

    def test_initial_state(self):
        phi, star = _phi_arrays(MIXED, 0.7j, 0)
        assert phi == 1.0 and star == 1.0

    def test_modulus_bound_rejected(self):
        with pytest.raises(ValueError):
            VerblunskySeq(np.array([1.2]))

    def test_nan_rejected(self):
        # NaN fails |alpha| < 1 too: max|alpha| >= 1 is False for it
        with pytest.raises(ValueError, match=r"\|alpha\| < 1"):
            VerblunskySeq(np.array([np.nan]))
        with pytest.raises(ValueError, match=r"\|alpha\| < 1"):
            VerblunskySeq(np.array([0.5, np.nan + 0.1j]))
        with pytest.raises(ValueError, match=r"\|alpha\| < 1"):
            VerblunskySeq.from_rule("gaussian", math.nan, 5)


class TestCircleIdentities:
    def test_modulus_identity_on_circle(self):
        theta = 2 * np.pi * np.arange(64) / 64
        z = np.exp(1j * theta)
        for n in (1, 3, 6):
            phi, star = _phi_arrays(MIXED, z, n)
            assert np.max(np.abs(np.abs(phi) - np.abs(star))) < 1e-10

    def test_growth_bound_on_circle(self):
        theta = 2 * np.pi * np.arange(64) / 64
        z = np.exp(1j * theta)
        for n in (2, 4, 6):
            phi, _ = _phi_arrays(MIXED, z, n)
            bound = float(np.prod(1.0 + np.abs(MIXED.alphas[:n])))
            assert np.max(np.abs(phi)) <= bound + 1e-10

    def test_monic_leading_coefficient(self):
        for n in (1, 2, 4):
            coeffs = series_coeffs_from_samples(
                lambda z: _phi_arrays(MIXED, z, n)[0], n, radius=1.0)
            assert abs(coeffs[-1] - 1.0) < 1e-9


class TestChristoffel:
    def test_free(self):
        assert christoffel_lambda(FREE, 5) == 1.0

    def test_single(self):
        assert christoffel_lambda(HALF, 1) == pytest.approx(0.75)

    def test_pair(self):
        v = VerblunskySeq(np.array([0.5, 0.5]))
        assert christoffel_lambda(v, 2) == pytest.approx(9.0 / 16.0)

    def test_nonincreasing(self):
        vals = [christoffel_lambda(MIXED, n) for n in range(6)]
        assert all(a >= b for a, b in zip(vals[:-1], vals[1:]))

    def test_limit_is_inverse_pi0_squared(self):
        lam_inf = christoffel_lambda(MIXED, len(MIXED))
        pi0 = pi_from_phis(MIXED, 0.0)
        assert abs(lam_inf - abs(pi0) ** -2) < 1e-12


class TestInverseSzego:
    def test_free_is_one(self):
        assert pi_from_phis(FREE, 0.7 + 0.1j) == 1.0

    def test_value_at_zero(self):
        assert pi_from_phis(HALF, 0.0) == pytest.approx((3 / 4) ** -0.5)

    def test_zero_location(self):
        assert abs(pi_from_phis(HALF, 2.0)) < 1e-14


class TestBernsteinSzego:
    def test_free_lebesgue(self):
        assert bs_weight(FREE, 1.234) == 1.0

    def test_point_value(self):
        assert bs_weight(HALF, 0.0) == pytest.approx(3.0)

    def test_probability_normalization(self):
        theta = 2 * np.pi * np.arange(8192) / 8192
        assert abs(np.mean(bs_weight(HALF, theta)) - 1.0) < 1e-8

    def test_vanishing_star_rejected(self):
        # alpha -> 1 pushes the zero of 1 - alpha z onto the circle
        v = VerblunskySeq(np.array([1.0 - 1e-16]))
        with pytest.raises(ValueError):
            bs_weight(v, 0.0)


class TestOrthogonality:
    def test_cross_degree_vanishes(self):
        assert abs(orthogonality_check(HALF, 1, 0)) < 1e-10

    def test_norm_matches_christoffel_product(self):
        val = orthogonality_check(HALF, 1, 1)
        assert abs(val - 0.75) < 1e-10

    def test_free_monomials(self):
        assert abs(orthogonality_check(FREE, 2, 1)) < 1e-14

    def test_gram_diagonal(self):
        n_max = len(MIXED) + 2
        for j in range(n_max):
            for k in range(n_max):
                val = orthogonality_check(MIXED, j, k)
                if j == k:
                    ref = christoffel_lambda(MIXED, j)
                    assert abs(val - ref) < 1e-9
                else:
                    assert abs(val) < 1e-9

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            orthogonality_check(HALF, 10, 0)


class TestOrderEstimate:
    def test_polynomial_flag(self):
        est = order_estimate(np.array([1.0, 2.0, 1.0] + [0.0] * 9))
        assert est.is_polynomial and est.rho == 0.0

    def test_constant_flag(self):
        est = order_estimate(np.array([3.0] + [0.0] * 11))
        assert est.is_polynomial

    def test_factorial_decay(self):
        coeffs = np.array([1.0 / math.factorial(n) for n in range(26)])
        est = order_estimate(coeffs)
        assert est.flag == "finite"
        assert 0.85 <= est.rho <= 1.05

    def test_gaussian_decay(self):
        est = order_estimate(np.exp(-np.arange(25.0) ** 2))
        assert est.rho <= 0.2

    def test_geometric_flags_infinite(self):
        for ratio in (0.5, 0.99):
            est = order_estimate(ratio ** np.arange(30.0))
            assert est.is_infinite


class TestCompareOrders:
    def test_finite_sequences_polynomial(self):
        for v in (HALF, MIXED):
            co = compare_orders(v)
            assert co.rho_alpha.is_polynomial
            assert co.rho_pi.is_polynomial

    def test_factorial_rule(self):
        co = compare_orders(VerblunskySeq.from_rule("factorial", 0.5, 20))
        assert 0.8 <= co.rho_alpha.rho <= 1.2
        assert 0.8 <= co.rho_pi.rho <= 1.2

    def test_factorial_rule_underflows_to_zero(self):
        # 0.5/k! underflows to 0 from k = 178, although 171! overflows a double
        v = VerblunskySeq.from_rule("factorial", 0.5, 200)
        assert np.all(np.isfinite(v.alphas))
        assert v.alphas[10] == pytest.approx(0.5 / math.factorial(10), rel=1e-15)
        assert v.alphas[-1] == 0.0

    def test_negative_rule_length_raises(self):
        with pytest.raises(ValueError, match="nonnegative"):
            VerblunskySeq.from_rule("factorial", 0.5, -1)

    def test_gaussian_rule(self):
        co = compare_orders(VerblunskySeq.from_rule("gaussian", 0.5, 12))
        assert co.rho_alpha.rho <= 0.3
        assert co.rho_pi.rho <= 0.3
