"""Numerics-kernel tests: oscillatory tails, Boole's rule, ODE, decay fits,
series coefficients."""

import csv
import importlib
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import cumulative_simpson as scipy_cumulative_simpson
from scipy.integrate import newton_cotes
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from kreinlab import kernel as kernel_mod, krein
from kreinlab.entropy import _F1_P, _F1_Q, _F1_QUAD, _F1_TERMS, _f1_phi
from kreinlab.kernel import (
    _write_csv,
    DecayFit,
    Grid,
    InsufficientDataError,
    KernelError,
    OdeStepError,
    boole_weights,
    cumulative_boole,
    exp_phase_tail,
    fit_decay,
    fold_mirrors,
    propagate,
    series_coeffs_from_samples,
)
from kreinlab.potentials import build_potential

# High-precision references for the oscillatory tail integral
#   T(r) = int_r^inf sin(e^x)/(1+x) dx,
# computed independently with 30-digit arithmetic (alternating half-period
# series with Euler acceleration).
T_REF = {
    0.0: 0.51102183054622017,
    1.0: -0.10536817071248416,
    2.0: 0.025714336494771117,
    3.0: 0.0047801802613874435,
    6.0: 9.400518413432535e-5,
}


def brute_force_tail_oracle(r, u_cap=3.2e4, n=2 ** 21):
    """Composite-Simpson oracle in u = e^x space plus two-term IBP remainder."""

    def w(u):
        return 1.0 / (u * (1.0 + np.log(u)))

    def wprime(u):
        return -(2.0 + np.log(u)) / (u * (1.0 + np.log(u))) ** 2

    U = math.pi * math.ceil(u_cap / math.pi)
    lo = math.exp(r)
    u = np.linspace(lo, U, n + 1)
    body = float(scipy_cumulative_simpson(np.sin(u) * w(u), x=u, initial=0.0)[-1])
    remainder = math.cos(U) * w(np.array(U)) - math.sin(U) * wprime(np.array(U))
    return body + float(remainder)


def _mpmath_exp_phase_tail(mp, g, x0, omega):
    """int_{x0}^inf e^{i omega e^x} g(x) dx at 30 digits: in u = omega e^x,
    mpmath quadrature on the head up to the first multiple of pi and on each
    half period after it, the half periods summed by mpmath's nsum."""
    with mp.workdps(30):
        a = omega * mp.exp(x0)
        f = lambda u: mp.expj(u) * g(mp.log(u / omega)) / u
        k0 = int(mp.floor(a / mp.pi)) + 1
        head = mp.quad(f, [a, k0 * mp.pi])
        body = mp.nsum(lambda k: mp.quad(f, [k * mp.pi, (k + 1) * mp.pi],
                                         method="gauss-legendre"), [k0, mp.inf])
        return complex(head + body)


def _mpmath_phi(mp, x):
    """figure1's amplitude Phi = sum_k i^k e^{-(k+1)x} q_k(1/(1+x)) in mpmath."""
    s = 1 / (1 + x)
    return mp.fsum(mp.mpc(0, 1) ** k * mp.exp(-(k + 1) * x)
                   * mp.polyval([mp.mpf(c) for c in _F1_Q[k][::-1]], s)
                   for k in range(_F1_TERMS))


def _mpmath_psi(mp, x):
    """figure1's amplitude Psi = -i sum_k i^k e^{-kx} p_k(1/(1+x)) in mpmath."""
    s = 1 / (1 + x)
    return -mp.mpc(0, 1) * mp.fsum(mp.mpc(0, 1) ** k * mp.exp(-k * x)
                                   * mp.polyval([mp.mpf(c) for c in _F1_P[k][::-1]], s)
                                   for k in range(_F1_TERMS))


class TestOscillatoryTail:
    def test_against_references(self):
        g = lambda x: 1.0 / (1.0 + x)
        for r, ref in T_REF.items():
            assert abs(exp_phase_tail(g, r).imag - ref) < 1e-9

    @pytest.mark.parametrize("case", ["l2_norm", "tail_integral", "phi", "phi^4"])
    def test_against_mpmath(self, case):
        # the amplitudes the program integrates, against mpmath at 30 digits;
        # the tolerance allows the rounding of the phase, e^{x0} omega eps
        mp = pytest.importorskip("mpmath")
        l2, tail = (lambda x: (1 + x) ** -2), (lambda x: 1 / (1 + x))
        g, g_mp, x0, omega = {
            "l2_norm": (l2, l2, 0.0, 2.0),
            "tail_integral": (tail, tail, 1.0, 1.0),
            "phi": (_f1_phi, lambda x: _mpmath_phi(mp, x), 4.75, 1.0),
            # the highest harmonic of figure1's int T^4
            "phi^4": (lambda x: _f1_phi(x) ** 4, lambda x: _mpmath_phi(mp, x) ** 4,
                      9.0, 4.0),
        }[case]
        ref = _mpmath_exp_phase_tail(mp, g_mp, x0, omega)
        tol = 1e-14 + 4.0 * omega * math.exp(x0) * np.finfo(float).eps
        assert abs(exp_phase_tail(g, x0, omega) - ref) <= tol * abs(ref)

    @pytest.mark.parametrize("case", ["lead", "psi"])
    def test_h_minus1_tail_amplitudes_against_mpmath(self, case):
        # the two tails of figure1's H^-1 past x0 = 4 (see _f1_h_tail), within
        # the quadrature bound its tail_bound takes, _F1_QUAD sup|g|, plus the
        # rounding of the phase
        mp = pytest.importorskip("mpmath")
        x0 = 4.0
        g, g_mp, omega = {
            "lead": (lambda x: np.exp(x0 - x) / (1.0 + x),
                     lambda x: mp.exp(x0 - x) / (1 + x), 1.0),
            "psi": (lambda x: np.exp(-x) * -1j * _f1_phi(x, 0) / (1.0 + x),
                    lambda x: mp.exp(-x) * _mpmath_psi(mp, x) / (1 + x), 2.0),
        }[case]
        ref = _mpmath_exp_phase_tail(mp, g_mp, x0, omega)
        tol = (_F1_QUAD * abs(g(np.array(x0)))
               + omega * math.exp(x0) * np.finfo(float).eps * abs(ref))
        assert abs(exp_phase_tail(g, x0, omega) - ref) <= tol

    def test_weighted_integral_from_psi(self):
        # S(x) = int_4^x e^y a = int sin u / (1 + ln u) du over [e^4, e^x] is
        # Im(e^{ie^x} Psi(x)) - sigma0 up to the rest R of the expansion; the
        # reference is the difference of two mpmath tails
        mp = pytest.importorskip("mpmath")
        x0, K = 4.0, _F1_TERMS
        s0 = 1.0 / (1.0 + x0)
        rest = (math.exp(-(K - 1) * x0) / (K - 1)
                * np.polynomial.polynomial.polyval(s0, np.abs(_F1_P[K])))

        def ref_tail(x):
            return _mpmath_exp_phase_tail(mp, lambda y: mp.exp(y) / (1 + y), x, 1.0)

        def boundary(x):
            return (np.exp(1j * math.exp(x)) * -1j * _f1_phi(x, 0)).imag

        head = ref_tail(x0)
        for x in (4.5, 6.0, 10.0):
            ref = (head - ref_tail(x)).imag
            assert abs(boundary(x) - boundary(x0) - ref) <= rest, x

    def test_production_matches_panel_oracle(self):
        # integral of sin(e^x)/(1+x) over [2, 40]; the tail beyond 40 is ~1e-19
        g = lambda x: 1.0 / (1.0 + x)
        production = (exp_phase_tail(g, 2.0) - exp_phase_tail(g, 40.0)).imag
        oracle = brute_force_tail_oracle(2.0)
        assert abs(production - oracle) < 1e-6

    @staticmethod
    def _omega2_oracle(trig, remainder):
        # int_1^inf trig(2 e^x) e^{-x} dx = int_{2e}^inf trig(u) (2/u^2) du in
        # u = 2 e^x: a direct fine Simpson on a resolvable range, and two
        # integrations by parts for the rest
        U = 2 * math.e + 600 * math.pi
        u = np.linspace(2 * math.e, U, 2 ** 21 + 1)
        direct = float(scipy_cumulative_simpson(trig(u) * 2.0 / u ** 2, x=u,
                                                initial=0.0)[-1])
        return direct + remainder(U)

    @pytest.mark.parametrize("x0, omega", [(0.0, 1.0), (5.0, 2.0), (12.5, 4.0)])
    def test_stacked_amplitudes_match_single_calls(self, x0, omega):
        # a trailing axis of amplitudes shares one set of nodes; a complex
        # amplitude's integral is bitwise its own call's, a real one's within
        # rounding (it is divided as a complex one)
        phi2 = lambda x: _f1_phi(x) ** 2
        rho2phi = lambda x: np.abs(_f1_phi(x)) ** 2 * _f1_phi(x)
        real = lambda x: 1.0 / (1.0 + x)
        stacked = exp_phase_tail(
            lambda x: np.stack([phi2(x), rho2phi(x), real(x)], -1), x0, omega)
        assert stacked.shape == (3,)
        assert stacked[0] == exp_phase_tail(phi2, x0, omega)
        assert stacked[1] == exp_phase_tail(rho2phi, x0, omega)
        single = exp_phase_tail(real, x0, omega)
        assert abs(stacked[2] - single) <= 1e-14 * abs(single)

    @pytest.mark.parametrize("x0", [45.0, 1e9, math.inf, math.nan])
    def test_past_the_usable_phase_raises(self, x0):
        # past omega e^x0 = 2^62 the panel indices leave the integer range;
        # such an x0 once gave 0j silently
        with pytest.raises(KernelError, match="no usable phase"):
            exp_phase_tail(lambda x: 1.0 / (1.0 + x), x0)
        # one such x0 among usable ones fails the whole array
        with pytest.raises(KernelError, match="no usable phase"):
            exp_phase_tail(lambda x: 1.0 / (1.0 + x), np.array([0.0, x0, 5.0]))

    @pytest.mark.parametrize("omega", [1.0, 2.0, 4.0])
    def test_array_x0_is_bitwise_the_scalar_calls(self, omega, monkeypatch):
        # an elementwise amplitude, alone and stacked, at x0 up to 40, in
        # passes of three x0 (68 panels of 16 nodes each) and a shorter last
        monkeypatch.setattr(kernel_mod, "_OSC_PASS_NODES", 3 * 68 * 16)
        phi2 = lambda x: _f1_phi(x) ** 2
        stacked = lambda x: np.stack([_f1_phi(x), 1.0 / (1.0 + x) + 0j], -1)
        x0 = np.concatenate([np.arange(0.0, 40.01, 2.5), [0.3, 7.77, 39.9]])
        for g in (phi2, stacked):
            tails = exp_phase_tail(g, x0, omega)
            assert tails.shape[0] == x0.size
            assert np.array_equal(tails, [exp_phase_tail(g, x, omega) for x in x0])

    def test_cos_kind_and_frequency(self):
        v = exp_phase_tail(lambda x: np.exp(-x), 1.0, omega=2.0)
        direct = self._omega2_oracle(
            np.cos, lambda U: -math.sin(U) * 2.0 / U ** 2 + math.cos(U) * 4.0 / U ** 3)
        assert abs(v.real - direct) < 1e-8

    def test_sin_part_at_frequency_two(self):
        v = exp_phase_tail(lambda x: np.exp(-x), 1.0, omega=2.0)
        direct = self._omega2_oracle(
            np.sin, lambda U: math.cos(U) * 2.0 / U ** 2 + math.sin(U) * 4.0 / U ** 3)
        assert abs(v.imag - direct) < 1e-8


def components(M):
    """propagate's components (tr, e, o01, o10) of 2x2 arrays M (..., 2, 2)."""
    M = np.asarray(M)
    return ((M[..., 0, 0] + M[..., 1, 1]) / 2, (M[..., 0, 0] - M[..., 1, 1]) / 2,
            M[..., 0, 1], M[..., 1, 0])


def fundamental(A, ts, tol, breaks=()):
    """X' = A(t) X with X(ts[0]) = I, on the grid ts, by the propagator;
    A maps one time to a 2x2 array."""

    def gen(t):
        return components([A(s) for s in t])

    return propagate(gen, np.eye(2), ts[0], ts[-1], tol, breaks, t_eval=ts).y


def constant(M):
    """The generator that is the 2x2 array M at every time: scalar components."""
    return lambda t: components(M)


def krein_dop853(p, lams, ts):
    """(P, P*, int |P|^2) on ts for each lam, by DOP853 at rtol 1e-13,
    restarted at the breakpoints: the oracle for the Magnus propagator."""
    k = lams.size

    def rhs(t, y):
        a = p(np.array([t]))[0]
        P, Ps = y[:k], y[k:2 * k]
        return np.concatenate([1j * lams * P - np.conj(a) * Ps, -a * P, np.abs(P) ** 2])

    y = np.concatenate([np.ones(2 * k), np.zeros(k)]).astype(complex)
    rows = [y]
    cuts = [ts[0], *(b for b in p.breakpoints() if ts[0] < b < ts[-1]), ts[-1]]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        seg = ts[(ts > lo) & (ts <= hi)]
        stops = seg if seg.size and seg[-1] == hi else np.append(seg, hi)
        sol = solve_ivp(rhs, (lo, hi), y, method="DOP853", rtol=1e-13, atol=1e-15,
                        t_eval=stops)
        rows.extend(sol.y.T[:seg.size])
        y = sol.y[:, -1]
    out = np.array(rows)
    return out[:, :k], out[:, k:2 * k], out[:, 2 * k:].real


def smooth_pair(t):
    """((-q, p), (p, q)) with p = cos 2t, q = sin 3t."""
    p = np.cos(2 * t)
    return 0.0, -np.sin(3 * t), p, p


class TestSolveLinearOde:
    def test_zero_coeff_constant_path(self):
        ts = np.linspace(0.0, 3.0, 7)
        path = propagate(constant(np.zeros((2, 2))), np.array([2.5, -1.0]), 0.0, 3.0,
                         1e-10, t_eval=ts).y
        assert np.array_equal(path, np.tile([2.5, -1.0], (7, 1)))

    def test_scalar_phase(self):
        # a complex constant rate: y1' = i lam y1, decoupled from y2
        lam = 1.7
        ts = np.linspace(0.0, 1.0, 11)
        path = propagate(constant(np.diag([1j * lam, 0.0])), np.array([1.0, 0.0]),
                         0.0, 1.0, 1e-12, t_eval=ts).y
        assert np.max(np.abs(path[:, 0] - np.exp(1j * lam * ts))) < 1e-12
        assert np.array_equal(path[:, 1], np.zeros(11))

    def test_diagonal_matrix_vs_expm_oracle(self):
        c = 0.8
        A = np.diag([-2.0 * c, 2.0 * c])
        ts = np.linspace(0.0, 1.0, 5)
        for t, X in zip(ts, fundamental(lambda t: A, ts, 1e-12)):
            assert np.max(np.abs(X - expm(A * t))) < 1e-12

    def test_liouville_trace_free(self):
        tol = 1e-10
        X = propagate(smooth_pair, np.eye(2), 0.0, 1.0, tol,
                      t_eval=np.linspace(0.0, 1.0, 21)).y
        assert np.max(np.abs(np.linalg.det(X) - 1.0)) < 10 * tol

    def test_blowup_reports_last_state(self):
        # y1' = y1 / (0.5 - t) cannot be continued past t = 0.5; the pieces
        # next to it are bisected until they cannot be, in bounded time
        def gen(t):
            half = 0.5 / (0.5 - t)
            return half, half, 0.0, 0.0

        start = time.perf_counter()
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(OdeStepError) as exc:
                propagate(gen, np.array([1.0, 0.0]), 0.0, 1.0, 1e-10,
                          t_eval=np.linspace(0.0, 1.0, 5))
        assert time.perf_counter() - start < 2.0
        t, (y1, y2) = exc.value.last_t, exc.value.last_state
        assert 0.4 < t <= 0.5
        # the path reached t with y1 = 0.5 / (0.5 - t), y2 untouched
        assert y1 == pytest.approx(0.5 / (0.5 - t), rel=1e-6) and y2 == 0.0

    def test_empty_interval_returns_initial_state(self):
        # lo == hi: y0 itself, or its single row at t_eval == [lo]; a generator
        # that raises shows it is not called
        def gen(t):
            raise AssertionError("generator called on an empty interval")

        y0 = np.array([1.0, 2.0])
        assert np.array_equal(propagate(gen, y0, 0.7, 0.7, 1e-10).y, y0)
        rows = propagate(gen, y0, 0.0, 0.0, 1e-10, t_eval=[0.0]).y
        assert rows.shape == (1, 2) and np.array_equal(rows[0], y0)

    def test_piecewise_constant_across_breakpoint(self):
        # the generator jumps at t = 0.4; cutting there keeps full order, and
        # each constant piece is exact on the starting mesh
        A1 = np.array([[-0.7, 0.9], [0.9, 0.7]])
        A2 = np.array([[0.5, -1.1], [-1.1, -0.5]])
        res = propagate(lambda t: components(np.where((t < 0.4)[:, None, None], A1, A2)),
                        np.eye(2), 0.0, 1.0, 1e-12, breaks=(0.4,))
        assert np.max(np.abs(res.y - expm(0.6 * A2) @ expm(0.4 * A1))) < 1e-12
        assert res.substeps == 8

    def test_nonpositive_tolerance_fails_before_the_first_step(self):
        with pytest.raises(OdeStepError) as exc:
            propagate(smooth_pair, np.eye(2), 0.3, 1.0, 0.0)
        assert exc.value.last_t == 0.3 and np.array_equal(exc.value.last_state, np.eye(2))


class TestMagnusOracle:
    """The Magnus propagator against DOP853 at rtol 1e-13."""

    LAMS = np.array([-2.5 + 0.3j, -1.0 + 0.9j, 0.2 + 0.5j, 1.4 + 0.1j, 2.7 + 0.7j])

    @pytest.mark.parametrize("spec", ["gaussian", "figure1"])
    def test_krein_batch(self, spec):
        p = build_potential(spec, 1.0, 1.0) if spec == "gaussian" else build_potential(spec)
        ts = np.linspace(0.0, 5.0, 101)
        P, Ps, cum = krein_dop853(p, self.LAMS, ts)
        res = krein._solve_many(p, self.LAMS, Grid(ts), 1e-10, with_cum=True)
        assert np.max(np.abs(res.y[..., 0] - P)) < 1e-9
        assert np.max(np.abs(res.y[..., 1] - Ps)) < 1e-9
        assert np.max(np.abs(res.integral - cum)) < 1e-9

    def test_fourth_order(self):
        # a tolerance no piece can miss keeps the starting mesh: uniform steps
        ref = propagate(smooth_pair, np.eye(2), 0.0, 1.0, 1e-14).y
        errs = [np.max(np.abs(propagate(smooth_pair, np.eye(2), 0.0, 1.0, 1.0,
                                        t_eval=np.linspace(0.0, 1.0, n + 1)).y[-1] - ref))
                for n in (4, 8, 16)]
        for coarse, fine in zip(errs[:-1], errs[1:]):
            assert 14.0 < coarse / fine < 18.0

    def test_error_estimate_bounds_the_error(self):
        p = build_potential("gaussian", 1.0, 1.0)
        ts = np.array([0.0, 4.0])
        P, Ps, _ = krein_dop853(p, self.LAMS, ts)
        for tol in (1e-6, 1e-8):
            res = krein._solve_many(p, self.LAMS, Grid(ts), tol)
            actual = np.maximum(np.abs(res.y[-1, :, 0] - P[-1]), np.abs(res.y[-1, :, 1] - Ps[-1]))
            assert np.all(actual <= res.error)
            assert np.all(res.error <= 100 * tol)

    def test_integral_is_refined_where_the_maps_are_exact(self):
        # y' = -y is exact in one step, its integral is not
        res = propagate(constant(np.diag([-1.0, 0.0])), np.array([1.0, 0.0]), 0.0, 1.0,
                        1e-10, integrand=lambda y: y[..., 0] ** 2)
        assert abs(res.integral - (1.0 - math.exp(-2.0)) / 2.0) < 1e-10
        assert res.integral_error < 1e-8


class TestExpm:
    """_expm on each of its branches against scipy's expm, whose own error
    reaches 1e-13 of the largest entry here, and against mpmath at 30 digits."""

    @staticmethod
    def check(tau, e, o01, o10):
        mp = pytest.importorskip("mpmath")
        shape = np.broadcast_shapes(*map(np.shape, (tau, e, o01, o10)))
        got = kernel_mod._expm(tau, e, o01, o10, shape)
        assert got.shape == (4,) + shape
        for idx in np.ndindex(shape):
            t, x, b, c = (np.broadcast_to(v, shape)[idx] for v in (tau, e, o01, o10))
            A = np.array([[t + x, b], [c, t - x]])
            with mp.workdps(30):
                exact = np.array(mp.expm(mp.matrix(A.tolist())).tolist(), dtype=complex).ravel()
            scale = max(1.0, np.max(np.abs(exact)))
            assert np.max(np.abs(got[(slice(None),) + idx] - exact)) <= 4e-15 * scale
            assert np.max(np.abs(got[(slice(None),) + idx] - expm(A).ravel())) <= 1e-12 * scale
        return got

    @pytest.mark.parametrize("scale", [1e-9, 1e-5, 1e-3, 0.03, 0.3])
    def test_series_branch_at_several_magnitudes(self, scale):
        # |d| from 1e-18 to 0.09, all below the series bound 0.1
        rng = np.random.default_rng(7)
        e, o01, o10 = (scale * (rng.uniform(-0.5, 0.5, 6) + 1j * rng.uniform(-0.5, 0.5, 6))
                       for _ in range(3))
        assert np.all(np.abs(e * e + o01 * o10) < kernel_mod._TAYLOR_D)
        self.check(0.1 + 0.2j, e, o01, o10)

    def test_complex_exponential_branch(self):
        e = np.array([0.5 + 0.3j, 2.0 - 1.0j, -3.0 + 4.0j])
        o01 = np.array([1.2 - 0.4j, 0.5j, 1.0])
        o10 = np.array([0.7 + 0.9j, -1.0, 2.0 - 0.5j])
        assert np.all(np.abs(e * e + o01 * o10) >= kernel_mod._TAYLOR_D)
        self.check(np.array([0.3j, -0.2, 0.1 + 0.1j]), e, o01, o10)

    def test_both_branches_in_one_batch(self):
        scale = np.array([1e-4, 0.1, 0.2, 1.0, 3.0])
        got = self.check(0.0, 0.3 * scale, (0.5 + 0.5j) * scale, (1.0 - 0.2j) * scale)
        assert np.iscomplexobj(got)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_real_d_of_either_sign(self, sign):
        # d = e^2 + o01 o10 > 0 (cosh, sinh) and < 0 (cos, sin), small and large
        e = np.array([0.01, 0.2, 0.8, 2.0])
        o01 = np.array([0.1, 0.5, 1.0, 1.5])
        o10 = sign * np.array([0.3, 0.9, 1.7, 4.0])
        d = e * e + o01 * o10
        assert np.all(np.sign(d[1:]) == sign)
        got = self.check(np.array([0.0, 0.1, -0.3, 0.2]), e, o01, o10)
        assert got.dtype == float

    def test_triangular_diagonal_is_exact(self):
        e = np.array([1e-3, 0.4 + 0.2j, 2.0j, -1.5])
        tau = np.array([0.1, -0.2j, 0.3, 0.0])
        got = self.check(tau, e, np.array([0.5, 0.0, 1.0, 0.0]), np.zeros(4))
        assert np.array_equal(got[0], np.exp(tau + e))
        assert np.array_equal(got[3], np.exp(tau - e))

    def test_scalar_zero_trace_skips_the_factor(self):
        rng = np.random.default_rng(3)
        e, o = rng.normal(size=(2, 8)) * np.array([[0.01], [1.0]])
        got = self.check(0.0, e, o, o)
        assert np.array_equal(got, kernel_mod._expm(np.zeros(8), e, o, o, (8,)))

    def test_overflow_is_non_finite_and_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kernel_mod._expm(0.0, np.array([800.0, 0.5]), np.array([1.0, 0.0]),
                                   np.array([1.0, 0.0]), (2,))
        assert not np.all(np.isfinite(got[:, 0]))
        assert np.all(np.isfinite(got[:, 1]))


class TestComponents:
    """One generator given by broadcast components and by full-size ones."""

    LAMS = np.array([0.5 + 0.1j, -1.0 + 0.3j, 2.0 + 0.5j])

    @staticmethod
    def full(gen, batch):
        def gen_full(t):
            return tuple(np.array(np.broadcast_to(c, (t.size, batch))) for c in gen(t))
        return gen_full

    @staticmethod
    def same(a, b):
        assert a.substeps == b.substeps
        for field in ("y", "integral", "error", "integral_error"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_krein_like_vector_system(self):
        # a scalar, a (1, batch), a (t, 1) and a full component
        lams = self.LAMS

        def gen(t):
            a = np.cos(3 * t) + 0.5j * np.sin(t)
            return 0.25, 0.5j * lams[None], -np.conj(a)[:, None], np.outer(-a, 1 + 0.1 * lams)

        kw = dict(t_eval=np.linspace(0.0, 2.0, 9), integrand=lambda y: np.abs(y[..., 0]) ** 2)
        y0 = np.ones((lams.size, 2), complex)
        self.same(propagate(gen, y0, 0.0, 2.0, 1e-10, **kw),
                  propagate(self.full(gen, lams.size), y0, 0.0, 2.0, 1e-10, **kw))

    def test_symmetric_trace_free_matrix_system(self):
        # tr the scalar 0 and o01 the same array as o10, against full copies
        s = np.array([0.3, 0.8 + 0.4j, -1.1j])

        def gen(t):
            p = np.cos(2 * t)[:, None] * s
            return 0.0, -np.sin(3 * t)[:, None] * s, p, p

        y0 = np.broadcast_to(np.eye(2, dtype=complex), (s.size, 2, 2))
        self.same(propagate(gen, y0, 0.0, 1.0, 1e-11, integrand=kernel_mod.row_gram),
                  propagate(self.full(gen, s.size), y0, 0.0, 1.0, 1e-11,
                            integrand=kernel_mod.row_gram))


class TestMeshPins:
    """Substep counts of fixed problems: the mesh propagate builds."""

    def test_circle_sampling_batch(self, monkeypatch):
        ordered_exp = importlib.import_module("kreinlab.ordered_exp")
        calls = []
        real = ordered_exp.propagate

        def spy(gen, y0, *args, **kwargs):
            res = real(gen, y0, *args, **kwargs)
            calls.append((len(y0), res.substeps))
            return res

        monkeypatch.setattr(ordered_exp, "propagate", spy)
        A = ordered_exp.random_coeff_pair(np.random.default_rng(0))
        series_coeffs_from_samples(lambda s: ordered_exp.f_of_s(A, s, n_grid=1025), 5,
                                   radius=0.8, n_samples=64)
        assert calls == [(33, 1024)]

    @pytest.mark.parametrize("spec, substeps", [("figure1", 6304), ("gaussian", 720),
                                                ("box", 640)])
    def test_krein_paths(self, spec, substeps):
        p = build_potential(spec) if spec == "figure1" else build_potential(spec, 1.0, 1.0)
        lams = [0.5 + 0.1j, -1.0 + 0.3j, 2.0 + 0.5j, 0.1 + 0.9j, -2.5 + 0.6j]
        _, res = krein.krein_paths(p, lams, np.linspace(0.0, 6.0, 121), tol=1e-10)
        assert res.substeps == substeps


def test_write_csv_is_csv_writers_bytes(tmp_path):
    header = ["r", "x", "note"]
    cols = [[0.0, -0.0, 0.1, 1e-300, 12345678901234567890.0, 2.5],
            np.array([math.nan, math.inf, -math.inf, 1 / 3, -7.0, 5e-324]).tolist(),
            ["", "a", "", "1.5", "", "b"]]
    _write_csv(tmp_path / "ours.csv", header, cols)
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*cols):
            writer.writerow([v if isinstance(v, str) else f"{v:.17g}" for v in row])
    assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestBoole:
    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    def test_cumulative_rule_is_exact_on_quartics(self, degree):
        # the integral to every node, interior nodes of each group too
        x = np.linspace(0.3, 1.9, 33)
        coeffs = np.random.default_rng(degree).normal(size=degree + 1)
        ours = cumulative_boole(np.polynomial.polynomial.polyval(x, coeffs), x[1] - x[0])
        antider = np.polynomial.polynomial.polyint(coeffs)
        exact = (np.polynomial.polynomial.polyval(x, antider)
                 - np.polynomial.polynomial.polyval(x[0], antider))
        assert np.max(np.abs(ours - exact)) <= 1e-14

    def test_sixth_order_on_a_smooth_integrand(self):
        # halving h divides the error at every node by about 2^6
        errors = []
        for n in (65, 129, 257):
            x = np.linspace(0.0, 2.0, n)
            exact = (np.exp(x) * (np.sin(3 * x) - 3 * np.cos(3 * x)) + 3.0) / 10.0
            errors.append(np.max(np.abs(
                cumulative_boole(np.exp(x) * np.sin(3 * x), x[1] - x[0]) - exact)))
        assert errors[2] < 1e-9
        for coarse, fine in zip(errors, errors[1:]):
            assert 50.0 < coarse / fine < 80.0

    def test_weights_are_composite_newton_cotes(self):
        x = np.linspace(-1.0, 2.0, 25)
        ref = np.zeros(25)
        w4, _ = newton_cotes(4, 1)
        for k in range(0, 24, 4):
            ref[k:k + 5] += w4 * (x[1] - x[0])
        assert np.allclose(boole_weights(x), ref, rtol=1e-15, atol=0.0)
        y = np.cos(x)
        assert boole_weights(x) @ y == pytest.approx(cumulative_boole(y, x[1] - x[0])[-1],
                                                    rel=1e-15)

    def test_complex_samples_and_strided_views(self):
        y = np.exp(1j * np.linspace(0.0, 3.0, 81))
        both = cumulative_boole(y, 0.1)
        for part, samples in ((both.real, y.real), (both.imag, y.imag)):
            assert np.allclose(part, cumulative_boole(samples.copy(), 0.1),
                               rtol=0.0, atol=1e-15)
        assert np.array_equal(cumulative_boole(y[::2], 0.2),
                              cumulative_boole(y[::2].copy(), 0.2))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stacks_along_axis_0(self, dtype):
        # an (n, 2, 2) stack is integrated column by column: exact on quartics,
        # and within rounding of the 1-d call on each column (the stacked
        # einsum may sum in another order, so not bitwise)
        poly = np.polynomial.polynomial
        x = np.linspace(0.0, 1.5, 41)
        rng = np.random.default_rng(7)
        coeffs = rng.normal(size=(5, 2, 2)).astype(dtype)
        if dtype is complex:
            coeffs += 1j * rng.normal(size=(5, 2, 2))
        quartics = np.stack([poly.polyval(t, coeffs) for t in x])
        ours = cumulative_boole(quartics, x[1] - x[0])
        assert ours.shape == quartics.shape and ours.dtype == np.dtype(dtype)
        antider = poly.polyint(coeffs)
        exact = np.stack([poly.polyval(t, antider) - poly.polyval(x[0], antider) for t in x])
        assert np.max(np.abs(ours - exact)) <= 1e-14
        waves = np.exp(1j * np.outer(x, [1.0, -2.0, 3.0, 0.5])).reshape(-1, 2, 2)
        for y in (quartics, waves if dtype is complex else waves.real):
            stack = cumulative_boole(y, x[1] - x[0])
            for i, j in np.ndindex(2, 2):
                col = cumulative_boole(y[:, i, j].copy(), x[1] - x[0])
                assert np.max(np.abs(stack[:, i, j] - col)) <= 1e-15 * np.max(np.abs(col))

    @pytest.mark.parametrize("n", [4, 6, 7])
    def test_node_count_not_4k_plus_1_rejected(self, n):
        with pytest.raises(ValueError):
            boole_weights(np.linspace(0.0, 1.0, n))


def test_cli_import_leaves_scipy_out():
    # no runtime module imports scipy, directly or through another module
    code = "import sys, kreinlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                         check=True)
    assert out.stdout.strip() == "[]"


def _lstsq_decay_fit(r, y):
    """(alpha, c, offset) of y ~ c r^alpha + offset: the scan over alpha in
    steps of 0.05 and golden section, each alpha's (c, offset) by lstsq."""

    def rss(alpha):
        A = np.column_stack([r ** alpha, np.ones_like(r)])
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        res = y - A @ coef
        return float(res @ res), float(coef[0]), float(coef[1])

    alphas = np.arange(0.05, 8.0 + 1e-9, 0.05)
    k = int(np.argmin([rss(a)[0] for a in alphas]))
    lo, hi = alphas[max(k - 1, 0)], alphas[min(k + 1, alphas.size - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c_pt, d_pt = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    fc, fd = rss(c_pt)[0], rss(d_pt)[0]
    while hi - lo >= 1e-9:
        if fc < fd:
            hi, d_pt, fd = d_pt, c_pt, fc
            c_pt = hi - invphi * (hi - lo)
            fc = rss(c_pt)[0]
        else:
            lo, c_pt, fc = c_pt, d_pt, fd
            d_pt = lo + invphi * (hi - lo)
            fd = rss(d_pt)[0]
    alpha = 0.5 * (lo + hi)
    return (alpha,) + rss(alpha)[1:]


class TestFitDecay:
    def test_stretched_exponential_recovery(self):
        r = np.linspace(1.0, 10.0, 40)
        fit = fit_decay(np.column_stack([r, np.exp(-2.0 * r ** 1.5)]))
        assert abs(fit.alpha_hat - 1.5) < 0.02
        assert abs(fit.c_hat - 2.0) < 0.05

    def test_pure_exponential(self):
        r = np.linspace(1.0, 10.0, 40)
        fit = fit_decay(np.column_stack([r, np.exp(-r)]))
        assert abs(fit.alpha_hat - 1.0) < 0.02
        assert not fit.zero_tail

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 3.0])
    def test_class_recovery_two_percent(self, alpha):
        r = np.linspace(1.0, 10.0, 60)
        c = 0.7
        fit = fit_decay(np.column_stack([r, np.exp(-c * r ** alpha)]))
        assert abs(fit.alpha_hat - alpha) <= 0.02 * alpha
        assert abs(fit.c_hat - c) <= 0.02 * c

    def test_prefactor_does_not_bias_rate(self):
        # m = C e^{-r} with C != 1: the offset term absorbs log C
        r = np.linspace(1.5, 8.0, 30)
        fit = fit_decay(np.column_stack([r, 0.085 * np.exp(-r)]))
        assert abs(fit.alpha_hat - 1.0) < 0.01
        assert abs(fit.c_hat - 1.0) < 0.01

    @staticmethod
    def _case(case):
        r = np.arange(0.25, 8.01, 0.25)
        noise = np.random.default_rng(5).normal(0.0, 0.05, r.size)
        m = {"gaussian": np.exp(-r ** 2),
             "noisy": np.exp(-3.0 * r ** 1.3 + noise),
             "stretched": np.exp(-1.5 * r ** 0.7 - 0.3),
             "shallow": np.exp(-0.2 * r ** 2.5) * (1.0 + 0.1 * np.sin(r))}[case]
        return r, m

    @pytest.mark.parametrize("case", ["gaussian", "noisy", "stretched", "shallow"])
    def test_matches_lstsq_reference(self, case):
        # the closed-form least squares against the lstsq scan and golden
        # section it replaced; near the optimum the RSS is flat to rounding,
        # so alpha is only determined to about 1e-8
        r, m = self._case(case)
        fit = fit_decay(np.column_stack([r, m]))
        usable = (m > 1e-13) & (m < 1.0)
        alpha, c, offset = _lstsq_decay_fit(r[usable], -np.log(m[usable]))
        assert fit.alpha_hat == pytest.approx(alpha, rel=1e-7)
        assert fit.c_hat == pytest.approx(c, rel=1e-6)
        assert fit.offset == pytest.approx(offset, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("case", ["gaussian", "noisy", "stretched", "shallow"])
    def test_rounding_of_the_data_leaves_alpha(self, case):
        # the golden section stops where the RSS values it compares agree to
        # their rounding; run to its 1e-9 bracket, it moved the noisy fit's
        # alpha by 4.4e-10 under m (1 - 2^-50)
        r, m = self._case(case)
        alpha = fit_decay(np.column_stack([r, m])).alpha_hat
        for factor in (1.0 + 2.0 ** -50, 1.0 - 2.0 ** -50):
            assert fit_decay(np.column_stack([r, m * factor])).alpha_hat == alpha

    def test_zero_tail_flag(self):
        r = np.linspace(1.0, 5.0, 10)
        fit = fit_decay(np.column_stack([r, np.zeros_like(r)]))
        assert fit.zero_tail
        assert math.isnan(fit.alpha_hat)

    def test_insufficient_data(self):
        r = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        m = np.array([0.5, 0.2, 0.0, 0.0, 0.0])
        with pytest.raises(InsufficientDataError):
            fit_decay(np.column_stack([r, m]))


class TestSeriesCoeffs:
    def test_simple_polynomial(self):
        coeffs = series_coeffs_from_samples(lambda s: 1.0 + s ** 2, 4)
        assert np.max(np.abs(coeffs - np.array([1, 0, 1, 0, 0]))) < 1e-12

    def test_exponential(self):
        coeffs = series_coeffs_from_samples(np.exp, 3)
        ref = np.array([1.0, 1.0, 0.5, 1.0 / 6.0])
        assert np.max(np.abs(coeffs - ref)) < 1e-8

    def test_sinh_square_over_s_square(self):
        # hand Taylor expansion: sinh^2(s)/s^2 = 1 + s^2/3 + 2 s^4/45 + ...
        f = lambda s: np.sinh(s) ** 2 / s ** 2
        coeffs = series_coeffs_from_samples(f, 4, radius=1.0)
        ref = np.array([1.0, 0.0, 1.0 / 3.0, 0.0, 2.0 / 45.0])
        assert np.max(np.abs(coeffs - ref)) < 1e-8

    @given(st.lists(st.floats(-2, 2), min_size=1, max_size=8))
    @settings(deadline=None, max_examples=25)
    def test_exact_on_polynomials(self, cs):
        cs = np.asarray(cs)
        f = lambda s: np.polynomial.polynomial.polyval(s, cs)
        coeffs = series_coeffs_from_samples(f, degree=cs.size - 1, radius=1.0)
        assert np.max(np.abs(coeffs - cs)) < 1e-12

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            series_coeffs_from_samples(np.exp, 3, radius=0.0)

    def test_one_call_on_all_samples(self):
        calls = []

        def f(s):
            calls.append(np.array(s))
            return np.exp(s)

        coeffs = series_coeffs_from_samples(f, 3, radius=0.5, n_samples=16)
        assert len(calls) == 1 and calls[0].shape == (16,)
        assert np.max(np.abs(coeffs - [1.0, 1.0, 0.5, 1.0 / 6.0])) < 1e-8

    def test_scalar_only_callable_raises(self):
        with pytest.raises(TypeError):
            series_coeffs_from_samples(lambda s: complex(s), 3)

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 64, 257])
    def test_nodes_are_exact_conjugate_pairs(self, n):
        seen = []
        series_coeffs_from_samples(lambda s: seen.append(s) or s, 0, radius=0.8, n_samples=n)
        z, k = seen[0], np.arange(n)
        assert np.array_equal(z[(n - k) % n], np.conj(z))
        assert np.max(np.abs(z - 0.8 * np.exp(2j * np.pi * k / n))) < 1e-15

    def test_sampler_enforces_no_symmetry(self):
        # f(s) = s is odd: a sampler that folded s -> -s would give c_1 = 0;
        # folding conjugate pairs is left to f (see f_of_s)
        coeffs = series_coeffs_from_samples(lambda s: s, 3, radius=0.8, n_samples=16)
        assert abs(coeffs[1] - 1.0) < 1e-15
        assert np.max(np.abs(coeffs[[0, 2, 3]])) < 1e-15


class TestFoldMirrors:
    def test_representatives_and_unfold(self):
        x = np.array([1 + 1j, -1 + 1j, 2j, 1 + 1j, 0.5, -0.5 + 0j])
        reps, unfold = fold_mirrors(x, -np.conj(x), x.real > 0)
        assert reps.tolist() == [-1 + 1j, 2j, -0.5]
        vals = np.stack([reps * (1 + 1j), np.ones(3)])
        out = unfold(vals, axis=1)
        assert out.shape == (2, 6)
        assert np.array_equal(out[0], [-2 + 0j, -2, -2 + 2j, -2, -0.5 + 0.5j, -0.5 - 0.5j])
        # a conjugated zero imaginary part is +0, not -0
        assert not np.any(np.signbit(out[1].imag))

    def test_no_image_used_merges_duplicates_only(self):
        x = np.array([0.3 - 0.1j, -0.3 - 0.1j, 0.3 - 0.1j])
        reps, unfold = fold_mirrors(x, -np.conj(x), np.zeros(3, bool))
        assert reps.tolist() == [0.3 - 0.1j, -0.3 - 0.1j]
        assert np.array_equal(unfold(reps), x)


class TestGrid:
    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            Grid(np.array([0.0, 1.0, 0.5]))

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            Grid(np.array([-1.0, 1.0]))

    def test_fit_result_type(self):
        r = np.linspace(1, 10, 20)
        assert isinstance(fit_decay(np.column_stack([r, np.exp(-r)])), DecayFit)
