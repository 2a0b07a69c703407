"""Entropy-functional tests: transfer matrix, determinant entropy, variation,
partial sums, the H^-1 norm, scans and classification."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

import kreinlab.entropy as ent_mod
from kreinlab import krein
from kreinlab.entropy import (
    RouteDisagreement,
    classify_alpha,
    entropy_E,
    entropy_sum,
    equivalence_scan,
    n_matrix,
    sobolev_h_minus1,
    variation_D,
)
from kreinlab.kernel import (
    KernelError,
    boole_weights,
    cumulative_boole,
    propagate,
)
from kreinlab.potentials import (
    Potential,
    build_potential,
    oscillation_classify,
    read_potential_csv,
)

ZERO = build_potential("zero")
BOX = build_potential("box", 1, 1)
BOX2 = build_potential("box", 0.5, 2)
GAUSS = build_potential("gaussian", 1, 1)
FIG = build_potential("figure1")
CONST_QUARTER = build_potential("constant", 0.25)

# closed-form references for the unit box: the generator is diagonal, so the
# Gram factors into integrals of exp(-+2 min(2t, 1)) over [0, 2]
_BOX_E0 = (((1 - math.exp(-2)) / 4 + 1.5 * math.exp(-2))
           * ((math.exp(2) - 1) / 4 + 1.5 * math.exp(2)) - 4.0)
# constant coefficient c = 1/4: E = (e^2 - 1)(1 - e^{-2}) - 4, any window
_CONST_E = (math.exp(2) - 1.0) * (1.0 - math.exp(-2)) - 4.0


class TestTransferMatrix:
    def test_zero_identity(self):
        assert np.array_equal(n_matrix(ZERO, 3.0), np.eye(2))

    def test_constant_diagonal(self):
        c = 1.0
        N = n_matrix(build_potential("constant", c), 1.5)
        ref = np.diag([math.exp(-2 * c * 1.5), math.exp(2 * c * 1.5)])
        assert np.max(np.abs(N - ref)) < 1e-8

    @pytest.mark.parametrize("r", [1.0, 2.0, 5.0])
    def test_unimodular(self, r):
        assert abs(np.linalg.det(n_matrix(BOX, r)) - 1.0) < 1e-8


class TestEntropyE:
    def test_zero(self):
        assert entropy_E(ZERO, 1.0) == 0.0

    def test_non_finite_value_raises(self):
        # on c = 1e200 the sums overflow, and E and D would be nan
        huge = build_potential("box", 1e200, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(KernelError, match="non-finite"):
                entropy_E(huge, 0.0)
            with pytest.raises(KernelError, match="non-finite"):
                variation_D(huge, 0.0)

    @pytest.mark.parametrize("r", [0.0, 1.3, 4.0])
    def test_constant_quarter(self, r):
        assert abs(entropy_E(CONST_QUARTER, r) - _CONST_E) < 1e-6

    def test_box_window_value(self):
        assert abs(entropy_E(BOX, 0.0) - _BOX_E0) < 1e-10

    def test_box_past_support(self):
        assert abs(entropy_E(BOX, 5.0)) < 1e-8

    def test_real_sampled_routes_agree(self):
        g = np.linspace(0.0, 3.0, 41)
        p = build_potential("sampled", g, 0.5 * np.cos(2 * g))
        val = entropy_E(p, 0.3)  # no RouteDisagreement
        assert val >= -1e-9

    def test_ode_route_matches_commuting_route(self):
        # the sampled diagonal pass validated against the transfer-matrix
        # ODE with Gram accumulation (the two never share code)
        for pot in (BOX, GAUSS):
            for r in (0.0, 0.7, 1.5):
                n = ent_mod._window_budget(pot, r, r + 2.0, 2.0)
                fast = ent_mod._entropy_sampled(pot, r, n)[0]
                ode = ent_mod._entropy_ode(pot, r)[0]
                assert abs(fast - ode) < 1e-8 * (1.0 + abs(fast))

    def test_purely_imaginary_coefficient_routes_agree(self):
        # a q-only generator still commutes pointwise, so the two Gram
        # transpose orders coincide; a = i psi has the E of psi, which the
        # sampled pass computes without sharing code with the ODE
        g = np.linspace(0.0, 3.0, 41)
        p = build_potential("sampled", g, 1j * 0.6 * np.sin(g))
        assert not p.is_real and p.phase() is None
        E = entropy_E(p, 0.3)
        ref = entropy_E(build_potential("sampled", g, 0.6 * np.sin(g)), 0.3)
        assert E.route == "ode" and ref.route == "sampled"
        assert abs(E - ref) <= 1e-10 * ref


# the chirp a = c e^{ikx} on [0, 6]: in the frame that rotates with its
# phase the generator is the constant B, so every window r <= 1 has
# E = det int_0^2 e^{tB^T} e^{tB} dt - 4
_CHIRP_C, _CHIRP_K = 0.7, 1.3
CHIRP = Potential("closed-form", "chirp", lambda x: _CHIRP_C * np.exp(1j * _CHIRP_K * x),
                  support_bound=6.0, l2_norm=_CHIRP_C * math.sqrt(6.0), is_real=False)
# e^{ix} e^{-x^2/4} sampled on 4 001 points of [0, 20]
_VARYING_X = np.linspace(0.0, 20.0, 4001)
VARYING = build_potential("sampled", _VARYING_X,
                          np.exp(1j * _VARYING_X) * np.exp(-_VARYING_X ** 2 / 4.0))


class TestVaryingPhase:
    """A coefficient whose phase may vary takes the Gram ODE for E."""

    @pytest.fixture(scope="class")
    def chirp_E(self):
        B = np.array([[-2.0 * _CHIRP_C, -_CHIRP_K], [_CHIRP_K, 2.0 * _CHIRP_C]])
        G = [[quad(lambda t: (expm(t * B.T) @ expm(t * B))[i, j], 0.0, 2.0,
                   epsabs=0.0, epsrel=1e-13, limit=200)[0] for j in (0, 1)] for i in (0, 1)]
        return np.linalg.det(G) - 4.0

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
    def test_chirp_against_closed_form(self, r, chirp_E):
        assert CHIRP.phase() is None
        assert abs(chirp_E - 12.080495595546978) <= 1e-12 * chirp_E
        E = entropy_E(CHIRP, r)
        assert E.route == "ode"
        assert abs(E - chirp_E) <= min(E.error, 1e-10 * chirp_E)

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0])
    def test_krein_gram_at_lambda_zero(self, r):
        # N^T N is the Krein system's Gram at lambda = 0: with W the lambda = 0
        # transfer matrix from I at x = 2r, E = det(1/2 int W* W dx) - 4 over
        # [2r, 2r + 4], through the same propagator on another generator
        W = propagate(krein._krein_gen(VARYING, np.zeros(1)), np.eye(2)[None],
                      2.0 * r, 2.0 * r + 4.0, 1e-11, VARYING.breakpoints(),
                      integrand=lambda W: np.conj(np.swapaxes(W, -1, -2)) @ W)
        ref = np.linalg.det(0.5 * W.integral[0]).real - 4.0
        E = entropy_E(VARYING, r)
        assert E.route == "ode"
        assert abs(E - ref) <= E.error


def _gaussian_delta(r, scale):
    """delta(t) = int_{scale r}^{scale t} e^{-x^2} dx by math.erfc; scale 2
    gives E's delta, scale 1 D's g."""
    k = math.sqrt(math.pi) / 2.0
    e0 = math.erfc(scale * r)
    return lambda t: k * (e0 - math.erfc(scale * t))


def _quad(f, r):
    return quad(f, r, r + 2.0, epsabs=0.0, epsrel=1e-13, limit=200,
                points=[r + 0.05, r + 0.2])[0]


def _gaussian_E(c, r):
    """E(r) of c e^{-x^2} as 4c' + c'^2 - S^2 from the closed-form delta of
    |c| e^{-x^2} integrated by quad: a constant phase leaves E unchanged."""
    delta = _gaussian_delta(r, 2.0)
    cp = _quad(lambda t: 2.0 * math.sinh(abs(c) * delta(t)) ** 2, r)
    S = _quad(lambda t: math.sinh(2.0 * abs(c) * delta(t)), r)
    return 4.0 * cp + cp * cp - S * S


class TestRealPass:
    @pytest.mark.parametrize("r", [1.5, 2.0, 2.5])
    def test_gaussian_against_erfc_quad(self, r):
        ref = _gaussian_E(1.0, r)
        E = entropy_E(GAUSS, r)
        assert E.route == "sampled"
        assert abs(E - ref) <= 1e-9 * ref

    @pytest.mark.parametrize("r", [1.5, 2.0, 2.5])
    def test_complex_gaussian_against_erfc_quad(self, r):
        ref = _gaussian_E(0.5 + 0.5j, r)
        E = entropy_E(build_potential("gaussian", 0.5 + 0.5j, 1), r)
        assert E.route == "sampled"
        assert abs(E - ref) <= 1e-9 * ref

    def test_injected_error_raises(self):
        # one interior odd node's sample is off, which moves E by about 1e-3
        # relative at E = 3.9e-12 (one node's error moves Boole's rule on
        # 4 097 nodes 3.6 times as much as it moved Simpson's on 8 193, so
        # the injected error is 1.4e-6, was 5e-6); the pass on every other
        # node skips it
        r = 1.625
        budget = ent_mod._window_budget(GAUSS, r, r + 2.0, 2.0)
        nodes = next(ent_mod._blocks(np.exp, r, r + 2.0, (), budget)[1])[0]
        x_odd = 2.0 * nodes[0, 101]
        bad = Potential("closed-form", "gaussian",
                        lambda x: np.exp(-x * x) + np.where(x == x_odd, 1.4e-6, 0.0),
                        support_bound=None, l2_norm=GAUSS.l2_norm, params=GAUSS.params)
        assert abs(entropy_E(GAUSS, r) - 3.9e-12) < 0.1e-12
        with pytest.raises(RouteDisagreement) as exc:
            entropy_E(bad, r)
        moved = abs(exc.value.fine / exc.value.coarse - 1.0)
        assert 3e-4 < moved < 3e-3

    def test_tail_windows_are_computed(self):
        # no envelope shortcut for a real coefficient: E and D far below any
        # former threshold, against the closed-form integrals
        for r in (1.5, 1.75, 2.0):
            assert entropy_E(GAUSS, r) > 0.0
        for r in (4.0, 5.0, 6.0):
            g = _gaussian_delta(r, 1.0)
            ref = 2.0 * _quad(lambda t: g(t) ** 2, r) - _quad(g, r) ** 2
            D = variation_D(GAUSS, r)
            assert D.route == "sampled"
            assert abs(D - ref) <= 1e-9 * ref

    @pytest.mark.parametrize("r", [0.5, 1.0, 4.0, 5.0])
    def test_constant_phase_D_is_that_of_its_real_part(self, r):
        # a = c e^{-x^2}: |g|^2 and |int g|^2 are |c|^2 times those of e^{-x^2}
        c = 0.5 + 0.5j
        g = _gaussian_delta(r, 1.0)
        ref = abs(c) ** 2 * (2.0 * _quad(lambda t: g(t) ** 2, r) - _quad(g, r) ** 2)
        D = variation_D(build_potential("gaussian", c, 1), r)
        assert D.route == "sampled"
        assert abs(D - ref) <= 1e-9 * ref

    def test_exact_zero_only_where_the_bound_is_zero(self):
        assert entropy_E(BOX, 0.5).route == "exact_zero"
        assert variation_D(BOX, 1.0).route == "exact_zero"
        assert entropy_E(GAUSS, 9.0).route == "sampled"
        assert entropy_E(GAUSS, 9.0) > 0.0


def _boole_cumulative(y, h):
    """Integral of samples y (spacing h, node count 1 mod 4) from the first
    node to every 4th node: composite Simpson on h and on 2h, extrapolated."""
    def simpson(f, step):
        pairs = step / 3.0 * (f[:-2:2] + 4.0 * f[1:-1:2] + f[2::2])
        return np.concatenate([[0.0], np.cumsum(pairs)])

    fine, coarse = simpson(y, h)[::2], simpson(y[::2], 2.0 * h)
    return fine + (fine - coarse) / 15.0


def _f1_window_oracle(x0, x1, n):
    """int T^k dx over [x0, x1], k = 1 .. 4, for figure1's tail integral T,
    by brute force in u = e^x: T(u) = int_u^inf sin(v) w(v) dv with
    w(v) = 1 / (v (1 + ln v)), from a cumulative Simpson sum on n steps and
    QAWF's Fourier tail past e^{x1}, then the moments int T^k du / u. At
    x0 = 6, x1 = 10 going from n = 2^21 to 2^22 moves int T by 2.7e-17 and
    int T^2 by 2.5e-20, the size of the expansion's err2 there, so that
    window takes n = 2^22; at x0 = 5, x1 = 9 it moves int T^3 by 4.1e-23
    and int T^4 by 1.9e-26, far below the expansion's err3 = 1.0e-20 and
    err4 = 1.5e-23 there."""
    U0, U1 = math.exp(x0), math.exp(x1)
    u = np.linspace(U0, U1, n + 1)
    h = (U1 - U0) / n
    G = _boole_cumulative(np.sin(u) / (u * (1.0 + np.log(u))), h)
    T1 = quad(lambda v: 1.0 / (v * (1.0 + math.log(v))), U1, math.inf,
              weight="sin", wvar=1.0, epsabs=1e-15)[0]
    T = T1 + (G[-1] - G)
    v = u[::4]
    return tuple(_boole_cumulative(T ** k / v, 4 * h)[-1] for k in range(1, 5))


class TestFigure1Expansion:
    def test_phi_matches_term_by_term(self):
        # the matrix-product Phi against sum_k i^k e^{-(k+1)x} q_k(s), one
        # polyval per term; only the order of the sums differs
        x = np.linspace(0.0, 36.0, 145).reshape(5, 29)
        s = 1.0 / (1.0 + x)
        terms = sum(1j ** k * np.exp(-(k + 1) * x)
                    * np.polynomial.polynomial.polyval(s, ent_mod._F1_Q[k])
                    for k in range(ent_mod._F1_TERMS))
        phi = ent_mod._f1_phi(x)
        assert phi.shape == x.shape
        assert np.all(np.abs(phi - terms) <= 8 * np.finfo(float).eps * np.abs(terms))
        assert ent_mod._f1_phi(5.0) == phi.ravel()[20]

    def test_psi_rows_are_derivatives(self):
        # f(u) = 1/(1 + ln u) has f^(k)(u) = e^{-ky} p_k(1/(1+y)), u = e^y: the
        # rows of _F1_P against mpmath's derivatives
        with mp.workdps(30):
            f = lambda u: 1 / (1 + mp.log(u))
            for y in (0.5, 4.0, 7.0):
                s = 1 / (1 + mp.mpf(y))
                for k in range(ent_mod._F1_TERMS + 1):
                    ref = mp.diff(f, mp.exp(y), k)
                    row = mp.exp(-k * y) * mp.polyval(
                        [mp.mpf(c) for c in ent_mod._F1_P[k][::-1]], s)
                    assert abs(row - ref) <= mp.mpf(1e-20) * abs(ref), (y, k)

    @pytest.mark.parametrize("r", [2.5, 2.75, 3.5, 3.75, 4.0])
    def test_E_matches_sampling(self, r):
        expansion = entropy_E(FIG, r)
        assert expansion.route == "expansion"
        fine, coarse, _, _ = ent_mod._entropy_sampled(
            FIG, r, ent_mod._window_budget(FIG, r, r + 2.0, 2.0))
        gap = abs(expansion - fine)
        assert gap <= expansion.error + abs(fine - coarse)
        assert gap <= 1e-8 * fine

    @pytest.mark.parametrize("r", [4.5, 5.0, 6.0])
    def test_D_matches_sampling(self, r):
        expansion = variation_D(FIG, r)
        assert expansion.route == "expansion"
        fine, coarse, _, _ = ent_mod._variation_sampled(
            FIG, r, ent_mod._window_budget(FIG, r, r + 2.0, 1.0))
        gap = abs(expansion - fine)
        assert gap <= expansion.error + abs(fine - coarse)
        assert gap <= 1e-8 * fine

    def test_routes_along_the_scan(self):
        # every window out to r = 8 is computed and carries its error; the
        # expansion takes over where sampling gets expensive
        for r in np.arange(0.0, 8.01, 0.5):
            E = entropy_E(FIG, r)
            assert E > 0.0 and 0.0 <= E.error <= 1e-6 * E
            assert E.route == ("sampled" if r < 2.5 else "expansion")
        assert variation_D(FIG, 8.0).route == "expansion"

    def test_window_moments_against_simpson_oracle(self):
        [w] = ent_mod._f1_windows([(6.0, 10.0)])
        i1, i2 = w.moments(ent_mod._F1Tails([(w, 2)]))
        o1, o2, _, _ = _f1_window_oracle(6.0, 10.0, 2 ** 22)
        assert abs(i1 - o1) <= w.err1
        assert abs(i2 - o2) <= w.err2

    def test_harmonic_moments_against_simpson_oracle(self):
        # the window of E(2.5): int T^3 and int T^4 with their harmonics
        # computed, not bounded
        [w] = ent_mod._f1_windows([(5.0, 9.0)])
        tails = ent_mod._F1Tails([(w, 4)])
        moments = w.moments(tails, 4)
        oracle = _f1_window_oracle(5.0, 9.0, 2 ** 21)
        for value, ref, err in zip(moments, oracle, (w.err1, w.err2, w.err3, w.err4)):
            assert abs(value - ref) <= err
        assert moments[:2] == w.moments(ent_mod._F1Tails([(w, 2)]))

    def test_scan_windows_are_the_single_window_values(self):
        # the scan takes every expansion window from one tail table; each is
        # bitwise what entropy_E and variation_D give for that window alone
        grid = np.arange(0.0, 8.01, 0.25)
        E, D = ent_mod._windows(FIG, grid, grid)
        scan = equivalence_scan(FIG, grid)
        for r, e, d, scan_e, scan_d in zip(grid, E, D, scan.E, scan.D):
            one_e, one_d = entropy_E(FIG, r), variation_D(FIG, r)
            assert (e.route, d.route) == (one_e.route, one_d.route)
            assert (e, e.error, d, d.error) == (one_e, one_e.error, one_d, one_d.error)
            assert (scan_e, scan_d) == (one_e, one_d)
        assert {e.route for e in E} == {d.route for d in D} == {"sampled", "expansion"}

    def test_each_window_is_planned_once(self, monkeypatch):
        # the route of each window is decided once, so every E and D value
        # builds one _F1Window, whichever route it takes
        built = []
        init = ent_mod._F1Window.__init__

        def counted(self, *args):
            built.append(args[:2])
            init(self, *args)

        monkeypatch.setattr(ent_mod._F1Window, "__init__", counted)
        equivalence_scan(FIG, np.arange(0.0, 8.01, 0.25))
        assert len(built) == 66
        built.clear()
        entropy_sum(FIG, 30)
        assert len(built) == 31

    def test_windows_are_built_in_vectorised_passes(self, monkeypatch):
        # a scan builds its windows in one pass; in passes of three windows
        # (192 Gauss nodes, three of the widest) the values are bitwise the
        # same
        grid = np.arange(0.0, 8.01, 0.25)
        passes = []
        build, plan = ent_mod._f1_windows, ent_mod._f1_plan
        monkeypatch.setattr(ent_mod, "_f1_windows",
                            lambda spans: passes.append(len(spans)) or build(spans))
        E, D = ent_mod._windows(FIG, grid, grid)
        assert passes == [66]
        passes.clear()

        def small_passes(*args):
            # the cap of the planning passes only: the sampled windows keep theirs
            with monkeypatch.context() as m:
                m.setattr(ent_mod, "_BLOCK", 192)
                return plan(*args)

        monkeypatch.setattr(ent_mod, "_f1_plan", small_passes)
        E3, D3 = ent_mod._windows(FIG, grid, grid)
        assert passes == [3] * 22
        for one, three in zip(E + D, E3 + D3):
            assert (one, one.error, one.route) == (three, three.error, three.route)

    @pytest.mark.parametrize("r", [5.5, 5.75, 6.0, 8.0])
    def test_small_harmonics_are_bounded(self, r):
        # from r = 5.75 the omega = 3, 4 harmonics of I3 and I4 move E by
        # less than its rounding: they are left to their bound, which E's
        # error carries, and the table holds the window to omega = 2 only
        x0 = 2.0 * r
        w, omega, value = ent_mod._E_window(FIG, r, ent_mod._f1_plan(FIG, [r], []))
        full = w.moments(ent_mod._F1Tails([(w, 4)]), 4)
        left_out = w.moments(ent_mod._F1Tails([(w, 2)]), 4, harmonics=False)
        # each harmonic's integral is at most 8 e^{-x0} tb^omega / omega
        osc = lambda omega: 8.0 * math.exp(-x0) * w.tb ** omega / omega
        assert abs(full[2] - left_out[2]) <= 0.25 * osc(3)
        assert abs(full[3] - left_out[3]) <= 0.125 * osc(4)
        bound = 11.0 * math.exp(-x0) * w.tb ** 4
        E = value(ent_mod._F1Tails([(w, omega)]))
        assert omega == (4 if r < 5.75 else 2)
        assert (bound <= np.finfo(float).eps * E) == (omega == 2)
        assert E == entropy_E(FIG, r) and E.error >= (bound if omega == 2 else 0.0)

    def test_past_the_phase_range(self):
        # from x = 36 on the oscillating parts are bounded, not computed
        for r in (17.5, 18.5, 40.0):
            E = entropy_E(FIG, r)
            assert E.route == "expansion" and 0.0 < E.error <= 1e-7 * E


def _box_E_mp(c, length, r):
    """E(r) of the box c on [0, length) at 40 digits: in t, a(2t) = c on
    [r, r + m], so g+- = int exp(+-4 c min(t - r, m)) dt over [r, r + 2]."""
    with mp.workdps(40):
        c, m = mp.mpf(c), min(mp.mpf(length) / 2, r + 2) - mp.mpf(r)
        k = 4 * c * m
        gp = mp.expm1(k) / (4 * c) + (2 - m) * mp.exp(k)
        gm = -mp.expm1(-k) / (4 * c) + (2 - m) * mp.exp(-k)
        return gp * gm - 4


def _box_D_mp(c, length, r):
    """D(r) of the box at 40 digits: g = c min(t - r, m), m = length - r."""
    with mp.workdps(40):
        c, m = mp.mpf(c), min(mp.mpf(length), r + 2) - mp.mpf(r)
        return (2 * c * c * (m ** 3 / 3 + m * m * (2 - m))
                - (c * (m * m / 2 + m * (2 - m))) ** 2)


class TestBoxClosedForms:
    # every nonzero window, r = 0, 0.25, ...; each sampled pass is within
    # 1.3e-14 (E) and 5e-15 (D) of the closed form
    @pytest.mark.parametrize("c, length", [(1.0, 1.0), (0.5, 2.0)])
    def test_E_and_D(self, c, length):
        p = build_potential("box", c, length)
        for r in np.arange(0.0, length, 0.25):
            if r < length / 2:
                E = entropy_E(p, r)
                assert E.route == "sampled"
                assert abs(E / _box_E_mp(c, length, r) - 1) <= 2e-14, r
            D = variation_D(p, r)
            assert D.route == "sampled"
            assert abs(D / _box_D_mp(c, length, r) - 1) <= 1e-14, r


class TestVariationD:
    def test_zero(self):
        assert variation_D(ZERO, 0.0) == 0.0

    def test_box_reference(self):
        assert abs(variation_D(BOX, 0.0) - 5.0 / 12.0) < 1e-9

    def test_constant_reference(self):
        # g = c (t - r): D = 4 c^2 / 3
        assert abs(variation_D(CONST_QUARTER, 3.0) - 1.0 / 12.0) < 1e-9
        c = 0.4
        assert abs(variation_D(build_potential("constant", c), 1.0) - 4 * c * c / 3) < 1e-9

    def test_quadratic_scaling_exact(self):
        p1 = build_potential("gaussian", 1, 1)
        p2 = build_potential("gaussian", 0.5, 1)
        for r in (0.0, 0.7, 1.5):
            assert abs(variation_D(p2, r) - 0.25 * variation_D(p1, r)) < 1e-10

    def test_nonnegative(self):
        for p in (BOX, GAUSS, FIG):
            for r in (0.0, 0.5, 1.5, 3.0):
                assert variation_D(p, r) >= -1e-12


class TestEntropySum:
    def test_zero(self):
        assert entropy_sum(ZERO, 10).total == 0.0

    def test_box_only_first_window(self):
        s = entropy_sum(BOX, 10)
        assert abs(s.total - entropy_E(BOX, 0.0)) < 1e-8
        assert s.last_term == 0.0

    def test_gaussian_converged(self):
        s20 = entropy_sum(GAUSS, 20)
        s30 = entropy_sum(GAUSS, 30)
        assert abs(s30.total - s20.total) < 1e-10


def _gaussian_H(c, scale):
    """Re int a(x) e^{-x} conj(int_0^x a(y) e^{y} dy) dx for a = c e^{-(x/s)^2}:
    the inner integral in closed form by erf(u) + erf(s/2), u = x/s - s/2,
    written erfc(-u) - erfc(s/2) for u < 0 so that it does not cancel; the
    outer one by quad."""
    s = scale
    pre = s * math.sqrt(math.pi) / 2.0 * math.exp(s * s / 4.0)

    def outer(x):
        u = x / s - s / 2.0
        inner = (math.erfc(-u) - math.erfc(s / 2.0) if u < 0.0
                 else math.erf(u) + math.erf(s / 2.0))
        return math.exp(-(x / s) ** 2 - x) * pre * inner

    val, _ = quad(outer, 0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)
    return abs(c) ** 2 * val


def _figure1_H(U=2e4):
    """H for figure1 after u = e^x: with B(u) = int_1^u sin v / (1 + ln v) dv,
    the integrand sin(u) B(u) / ((1 + ln u) u^2) is (B^2/2)' / u^2, so by parts
    H = int_1^inf B^2 / u^3 du, an integrand of one sign. Half-period
    16-point Gauss panels to U, B at a node from a Gauss rule on its part
    panel; past U, B^2 = B_inf^2 + 2 B_inf cos u / (1 + ln u)
    + cos^2 u / (1 + ln u)^2 + O(1 / (u ln^2 u)), whose non-oscillating
    terms give B_inf^2 / 2U^2 + int_U^inf du / (2 (1 + ln u)^2 u^3); the rest
    is O(U^-3 / ln U)."""
    gx, gw = np.polynomial.legendre.leggauss(16)
    f = lambda v: np.sin(v) / (1.0 + np.log(v))
    edges = np.concatenate([[1.0], np.arange(1, math.ceil(U / math.pi) + 1) * math.pi])
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    nodes = 0.5 * (lo + hi)[:, None] + half[:, None] * gx
    whole = half * (f(nodes) @ gw)
    starts = np.concatenate([[0.0], np.cumsum(whole)[:-1]])
    sub_half = 0.5 * (nodes - lo[:, None])
    sub = (0.5 * (nodes + lo[:, None]))[:, :, None] + sub_half[:, :, None] * gx
    B = starts[:, None] + sub_half * (f(sub) @ gw)
    body = float(np.sum(half * ((B * B / nodes ** 3) @ gw)))
    U = edges[-1]
    b_inf = starts[-1] + whole[-1] + math.cos(U) / (1.0 + math.log(U))
    rest, _ = quad(lambda x: math.exp(-2.0 * x) / (2.0 * (1.0 + x) ** 2), math.log(U),
                   math.inf, epsabs=0.0, epsrel=1e-12)
    return body + b_inf ** 2 / (2.0 * U * U) + rest


class TestSobolev:
    def test_zero(self):
        assert float(sobolev_h_minus1(ZERO, 200.0)) == 0.0

    def test_box_closed_form(self):
        # the H^-1 norm of c on [0, L) is c^2 (L - 1 + e^{-L})
        for c, L in ((1.0, 1.0), (0.5, 2.0)):
            sb = sobolev_h_minus1(build_potential("box", c, L))
            ref = c * c * (L - 1.0 + math.exp(-L))
            assert abs(sb.value - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("c", [0.2, 1.0, 3.0, 1 + 1j])
    def test_box_sweep_within_tail_bound(self, c):
        # against the 40-digit closed form |c|^2 (L - 1 + e^{-L}); without a
        # rounding term in tail_bound, 11 of these 44 boxes fell outside it
        # (box:1,3 was 3.1e-15 off against a bound of 2.2e-15)
        for L in (0.1, 0.3, 0.5, 1.0, 1.7, 2.0, 3.0, 5.0, 8.0, 13.0, 40.0):
            sb = sobolev_h_minus1(build_potential("box", c, L))
            with mp.workdps(40):
                ref = float(abs(mp.mpc(c)) ** 2 * (mp.mpf(L) - 1 + mp.exp(-mp.mpf(L))))
            assert abs(sb.value - ref) <= sb.tail_bound, L

    def test_gaussian_erf_double_integral(self):
        ref = _gaussian_H(1.0, 1.0)
        sb = sobolev_h_minus1(GAUSS)
        assert abs(sb.value - ref) <= 1e-12 * ref
        c = 0.5 + 0.5j
        sz = sobolev_h_minus1(build_potential("gaussian", c, 1.0))
        assert abs(sz.value - _gaussian_H(c, 1.0)) <= 1e-12 * ref
        assert abs(sz.value - abs(c) ** 2 * sb.value) <= 1e-12 * sz.value

    def test_figure1_against_reference(self):
        # sampled on [0, 4], the rest from the expansion: within its bound of
        # a reference good to about 1e-14 (a Gauss-panel reference with the
        # O(U^-2) tail dropped is 4.8e-12 high)
        sb = sobolev_h_minus1(FIG)
        assert sb.tail_bound <= 1e-12
        assert abs(sb.value - _figure1_H()) <= sb.tail_bound

    @pytest.mark.parametrize("split", [3.5, 5.0])
    def test_figure1_split_and_nodes(self, split, monkeypatch):
        # the sampled range ends elsewhere, on twice the nodes; the value
        # moves by less than the two bounds
        sb = sobolev_h_minus1(FIG)
        monkeypatch.setattr(ent_mod, "_SOBOLEV_NODES", 2 * ent_mod._SOBOLEV_NODES - 1)
        moved = sobolev_h_minus1(FIG, _split=split)
        assert abs(moved.value - sb.value) <= sb.tail_bound + moved.tail_bound

    def test_long_pass_in_chunks(self, monkeypatch):
        # box:1,40 on 81 921 nodes, two pieces; figure1's E at r = 2.25 on
        # 122 865 nodes, two pieces, and D at r = 3.75 on 6 921, one panel. In
        # pieces of 2^10 steps each moves by rounding only: the norm stays
        # within its bound of the closed form, E and D within their errors
        ref = 40.0 - 1.0 + math.exp(-40.0)
        sb = sobolev_h_minus1(build_potential("box", 1, 40))
        E, D = entropy_E(FIG, 2.25), variation_D(FIG, 3.75)
        monkeypatch.setattr(ent_mod, "_BLOCK", 2 ** 10)
        small = sobolev_h_minus1(build_potential("box", 1, 40))
        assert abs(small.value - sb.value) <= 1e-14 * ref
        assert abs(small.tail_bound - sb.tail_bound) <= 1e-14 * ref
        assert abs(sb.value - ref) <= sb.tail_bound
        for one, pieced in ((E, entropy_E(FIG, 2.25)), (D, variation_D(FIG, 3.75))):
            assert (pieced.route, pieced.nodes) == ("sampled", one.nodes)
            assert abs(pieced - one) <= min(1e-13 * one, one.error)

    def test_quadratic_homogeneity(self):
        v1 = float(sobolev_h_minus1(BOX, 200.0))
        v2 = float(sobolev_h_minus1(build_potential("box", 2, 1), 200.0))
        assert abs(v2 - 4.0 * v1) < 1e-8 * (1 + v2)

    def test_tail_bound_reported(self):
        sb = sobolev_h_minus1(GAUSS, 50.0)
        assert 0.0 <= sb.tail_bound <= 1e-6
        assert not hasattr(sb, "cutoff")

    def test_sampled_box_off_origin(self):
        # the grid's end points are jumps of a sampled coefficient: c = 1 on
        # [0.5, 1.5] has the norm of the unit box, e^{-1}
        sb = sobolev_h_minus1(build_potential("sampled", [0.5, 1.5], [1.0, 1.0]))
        assert abs(sb.value - math.exp(-1.0)) <= 1e-13 * math.exp(-1.0)
        assert sb.tail_bound <= 1e-13

    def test_cutoff_is_ignored(self):
        assert sobolev_h_minus1(BOX, 1.0) == sobolev_h_minus1(BOX)

    def test_not_in_l2_raises(self):
        with pytest.raises(ValueError, match="square-integrable"):
            sobolev_h_minus1(build_potential("constant", 1))

    def test_gaussian_wider_than_r_max(self):
        # e^{-(x/10)^2} keeps an L2 norm of 8.8e-8 past 40: the integral runs
        # to its effective support 62.5 plus 1, and the norm is within its
        # error estimate of the erf double integral (5.7244239779033)
        sb = sobolev_h_minus1(build_potential("gaussian", 1, 10))
        assert sb.tail_bound <= 1e-12
        assert abs(sb.value - _gaussian_H(1.0, 10.0)) <= sb.tail_bound

    def test_length_beyond_node_cap_raises(self):
        # 2048 nodes per unit length: a box of length 1e6 needs 2e9 nodes
        with pytest.raises(KernelError, match="nodes"):
            sobolev_h_minus1(build_potential("box", 1, 1e6))

    def test_tiny_step(self):
        # a step of 6e-305: the runs of the O(n) pass stay within their panel;
        # the norm c^2 (L - 1 + e^{-L}) ~ L^2 / 2 underflows to 0
        sb = sobolev_h_minus1(build_potential("box", 1, 1e-300))
        assert sb.value == 0.0 and sb.tail_bound == 0.0

    def test_non_finite_norm_raises(self):
        with pytest.raises(KernelError, match="not finite"):
            sobolev_h_minus1(build_potential("box", 1e200, 1))

    def test_no_truncation_point_raises(self):
        # an L2 coefficient of a family with no support or tail information
        p = Potential("closed-form", "custom", lambda r: np.exp(-r),
                      support_bound=None, l2_norm=math.sqrt(0.5))
        with pytest.raises(ValueError, match="no truncation point"):
            sobolev_h_minus1(p)


# ---------------------------------------------------------------------------
# the sampled passes one panel at a time, as they ran before the block
# engine: the reference that the blocks must match bit for bit
# ---------------------------------------------------------------------------

def _loop_panels(f, lo, hi, breaks, n_total, chunk=None):
    """Nodes x and values f(x) of each panel of [lo, hi] cut at breaks (see
    entropy._blocks), one at a time; with chunk, in pieces of at most
    chunk + 1 nodes that share their end nodes."""
    cuts = [lo, *(b for b in breaks if lo < b < hi), hi]
    for a, b in zip(cuts[:-1], cuts[1:]):
        n = max(17, int(round(n_total * (b - a) / (hi - lo))))
        n += (1 - n) % 8
        step, eps = (b - a) / (n - 1), 1e-12 * (b - a) + 1e-300
        for j in range(0, n - 1, chunk or n):
            k = min(j + (chunk or n), n - 1)
            x = np.linspace(a + j * step, b if k == n - 1 else a + k * step, k - j + 1)
            v = x.copy()
            v[0] += eps if j == 0 else 0.0
            v[-1] -= eps if k == n - 1 else 0.0
            yield x, f(v)


def _loop_sums(f, lo, hi, breaks, n_total, moments):
    """entropy._sampled_sums, two Boole passes per panel with the running
    offset of G carried from panel to panel."""
    parts = ([], [])
    offset = [0.0, 0.0]
    nodes = 0
    for panel, vals in _loop_panels(f, lo, hi, breaks, n_total):
        nodes += panel.size
        for j, step in enumerate((1, 2)):
            x = panel[::step]
            G = cumulative_boole(vals[::step], (x[-1] - x[0]) / (x.size - 1)) + offset[j]
            offset[j] = G[-1]
            w = boole_weights(x)
            parts[j].append([np.sum(w * m) for m in moments(G)])
    return np.array([np.sum(rows, axis=0) for rows in parts]), nodes


def _loop_h_sum(x, a, total, c):
    """entropy._h_minus1_sum on one panel or piece, one run at a time."""
    h = (x[-1] - x[0]) / (x.size - 1)
    m = min(4 * max(1, int(0.25 / h)), x.size)
    grow = np.exp(h * np.arange(m + 1))
    C = np.empty(a.shape, dtype=np.result_type(a, c))
    for j in range(0, a.size - 1, m):
        g = grow[:min(m + 1, a.size - j)]
        C[j:j + g.size] = (c + cumulative_boole(a[j:j + g.size] * g, h)) / g
        c = C[j + g.size - 1]
    return total + float(np.real(np.sum(boole_weights(x) * a * np.conj(C)))), c


def _one_panel_at_a_time(monkeypatch):
    """Run the sampled passes through the reference loops above: H^-1 in
    pieces of 2^16 steps, as blocks of one row."""
    monkeypatch.setattr(ent_mod, "_sampled_sums", _loop_sums)
    monkeypatch.setattr(ent_mod, "_blocks", lambda *args: (None, (
        (x[None], v[None]) for x, v in _loop_panels(*args, chunk=2 ** 16))))
    monkeypatch.setattr(ent_mod, "_h_minus1_sum",
                        lambda x, a, total, c: _loop_h_sum(x[0], a[0], total, c))


def _sampled_csv(tmp_path, kind):
    """A coefficient from a CSV of a few hundred points: e^{-x^2/4}, times
    0.6 + 0.8i (constant phase) or e^{ix} (varying phase); "nonuniform" on a
    grid of three spacings in random order and three intervals longer than a
    unit, so that blocks stack panels of several node counts and H^-1 panels
    hold several runs."""
    if kind == "nonuniform":
        steps = np.random.default_rng(0).choice([0.01, 0.02, 0.05], 250)
        x = np.concatenate([[0.0], np.cumsum(steps)])
        x = np.concatenate([x, x[-1] + np.array([1.5, 3.0, 6.75])])
    else:
        x = np.linspace(0.0, 6.0, 301)
    a = np.exp(-x * x / 4.0) * {"real": 1.0, "nonuniform": 1.0, "constant_phase": 0.6 + 0.8j,
                                "varying_phase": np.exp(1j * x)}[kind]
    a = np.asarray(a, dtype=complex)
    path = tmp_path / "a.csv"
    path.write_text("r,re,im\n" + "".join(f"{t!r},{v.real!r},{v.imag!r}\n"
                                          for t, v in zip(x.tolist(), a.tolist())))
    return read_potential_csv(path)


class TestBlockEngine:
    @pytest.mark.parametrize("kind", ["real", "constant_phase", "varying_phase", "nonuniform"])
    def test_bitwise_the_panel_loop(self, kind, tmp_path, monkeypatch):
        # E (real coefficients only: a complex sampled one takes the ODE), D
        # with its fine and coarse rows, and the H^-1 value and tail_bound
        p = _sampled_csv(tmp_path, kind)
        E_at = [0.0, 0.4, 1.1] if p.is_real else []
        D_at = [0.0, 0.7, 2.5]

        def values():
            return ([ent_mod._entropy_sampled(p, r, 4097) for r in E_at]
                    + [ent_mod._variation_sampled(p, r, 4097) for r in D_at],
                    sobolev_h_minus1(p))

        (windows, sb) = values()
        _one_panel_at_a_time(monkeypatch)
        (ref_windows, ref_sb) = values()
        assert windows == ref_windows
        assert (sb.value, sb.tail_bound) == (ref_sb.value, ref_sb.tail_bound)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_run_lengths_differ_within_a_block(self, dtype):
        # two panels of 4 097 nodes whose runs are 2 048 and 2 044 steps long
        x = np.stack([np.linspace(0.0, 2.0, 4097), np.linspace(2.0, 4.001, 4097)])
        a = np.exp(-x) * np.cos(3.0 * x) + (1j * np.sin(x) if dtype is complex else 0.0)
        c0 = dtype(0.25)
        total, c = ent_mod._h_minus1_sum(x, a, 0.5, c0)
        ref = _loop_h_sum(x[1], a[1], *_loop_h_sum(x[0], a[0], 0.5, c0))
        assert (total, c) == ref

    @pytest.mark.parametrize("length", [40, 50])
    def test_long_box_norm_bitwise(self, length, monkeypatch):
        # box:1,40 and box:1,50 run in pieces of 2^16 steps, as before
        p = build_potential("box", 1, length)
        sb = sobolev_h_minus1(p)
        _one_panel_at_a_time(monkeypatch)
        ref = sobolev_h_minus1(p)
        assert (sb.value, sb.tail_bound) == (ref.value, ref.tail_bound)


class TestEquivalenceScan:
    def test_zero_all_trivial(self):
        scan = equivalence_scan(ZERO, np.linspace(0.0, 10.0, 11))
        assert np.all(scan.E == 0.0) and np.all(scan.D == 0.0)
        assert np.all(np.isnan(scan.ratio))
        assert scan.fit_E.zero_tail and scan.fit_D.zero_tail

    def test_gaussian_fits_close(self):
        scan = equivalence_scan(GAUSS, np.linspace(0.0, 6.0, 25))
        assert abs(scan.fit_E.alpha_hat - scan.fit_D.alpha_hat) < 0.3

    def test_scaled_family_ratio_band(self):
        ratios = []
        for s in (1.0, 0.5, 0.25):
            p = build_potential("gaussian", s, 1)
            ratios.append(entropy_E(p, 0.0) / variation_D(p, 0.0))
        assert max(ratios) / min(ratios) < 4.0
        # both shrink along the family
        es = [entropy_E(build_potential("gaussian", s, 1), 0.0) for s in (1.0, 0.5, 0.25)]
        assert es[0] > es[1] > es[2]

    def test_nonnegativity_across_catalog(self):
        for p in (BOX, BOX2, GAUSS):
            scan = equivalence_scan(p, np.linspace(0.0, 5.0, 11))
            assert np.all(scan.E >= -1e-9)
            assert np.all(scan.D >= -1e-12)


class TestClassifyAlpha:
    def test_box_zero_tail_past_support(self):
        fit = classify_alpha(BOX, np.linspace(1.0, 6.0, 11))
        assert fit.zero_tail

    def test_gaussian(self):
        fit = classify_alpha(GAUSS, np.linspace(0.0, 6.0, 25))
        tail = oscillation_classify(GAUSS, np.linspace(1.0, 4.0, 13)).fit
        assert abs(fit.alpha_hat - 2.0) < 0.3
        assert abs(fit.alpha_hat - tail.alpha_hat) < 0.3

    def test_figure1(self):
        fit = classify_alpha(FIG, np.linspace(0.0, 8.0, 33))
        tail = oscillation_classify(FIG, np.linspace(2.0, 8.0, 61)).fit
        assert abs(fit.alpha_hat - 1.0) < 0.3
        assert abs(fit.alpha_hat - tail.alpha_hat) < 0.3

