"""Potential catalog tests: families, tail antiderivatives, classification."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from kreinlab.kernel import KernelError
from kreinlab.potentials import (
    Potential,
    build_potential,
    oscillation_classify,
    read_potential_csv,
    tail_integral,
)


class TestBuildPotential:
    def test_box_values(self):
        box = build_potential("box", 1, 1)
        assert box(0.5) == 1.0
        assert box(2.0) == 0.0

    def test_figure1_at_zero(self):
        fig = build_potential("figure1")
        assert fig(0.0) == pytest.approx(math.sin(1.0), abs=1e-15)

    def test_zero_norm(self):
        assert build_potential("zero").l2_norm == 0.0

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            build_potential("sombrero", 1.0)

    def test_sampled_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            build_potential("sampled", [0.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_untruncated_constant_is_not_l2(self):
        const = build_potential("constant", 1.0)
        assert math.isinf(const.l2_norm)

    def test_complex_sampled_flagged(self):
        p = build_potential("sampled", [0.0, 1.0], [1.0 + 1j, 0.5])
        assert not p.is_real
        assert p(0.0) == pytest.approx(1.0 + 1j)

    @pytest.mark.parametrize("family, x, name", [
        ("box", -1.0, "box length"), ("box", math.nan, "box length"),
        ("box", math.inf, "box length"), ("constant", -1.0, "constant cutoff"),
        ("gaussian", math.nan, "gaussian scale"), ("gaussian", -1.0, "gaussian scale"),
        ("gaussian", 0.0, "gaussian scale")])
    def test_invalid_length_names_the_parameter(self, family, x, name):
        with pytest.raises(ValueError, match=name):
            build_potential(family, 1.0, x)

    def test_tiny_gaussian_scale_is_zero_without_warning(self, recwarn):
        g = build_potential("gaussian", 1.0, 1e-300)
        assert g(0.5) == 0.0 and g(0.0) == 1.0
        assert not recwarn.list


class TestTailIntegral:
    def test_box_half(self):
        box = build_potential("box", 1, 1)
        assert tail_integral(box, 0.5) == pytest.approx(0.5, abs=1e-10)

    def test_box_past_support(self):
        box = build_potential("box", 1, 1)
        assert tail_integral(box, 2.0) == 0.0

    def test_figure1_vs_asymptote(self):
        # integration-by-parts asymptote cos(e^r) e^{-r}/(1+r); first
        # correction is O(e^{-r}) relative, ~14% at r=3
        fig = build_potential("figure1")
        t3 = tail_integral(fig, 3.0)
        asym = math.cos(math.e ** 3) / (math.e ** 3 * 4.0)
        assert abs(t3 - asym) / abs(t3) < 0.15

    def test_figure1_reference_value(self):
        # 30-digit development reference for int_3^inf sin(e^x)/(1+x) dx
        fig = build_potential("figure1")
        assert tail_integral(fig, 3.0) == pytest.approx(0.0047801802613874435, abs=1e-9)

    def test_figure1_past_usable_phase_raises(self):
        # past x = 36 the ulp of e^x exceeds 0.5: no phase, no tail value
        fig = build_potential("figure1")
        assert abs(tail_integral(fig, 36.0)) <= fig.tail_sup(36.0)
        for r in (36.5, 40.0, 45.0):
            with pytest.raises(KernelError, match="phase"):
                tail_integral(fig, r)

    def test_figure1_array_is_bitwise_the_scalar_calls(self):
        fig = build_potential("figure1")
        rs = np.arange(0.0, 8.0 + 0.005, 0.01)
        assert np.array_equal(tail_integral(fig, rs), [tail_integral(fig, r) for r in rs])
        with pytest.raises(KernelError, match="phase"):
            tail_integral(fig, np.array([1.0, 36.5]))

    @pytest.mark.parametrize("spec", [("figure1",), ("box", 1.0, 1.0), ("gaussian", 1.0, 1.0)])
    def test_empty_r_gives_an_empty_array(self, spec):
        tails = tail_integral(build_potential(*spec), np.array([]))
        assert tails.shape == (0,) and tails.dtype == float

    @pytest.mark.parametrize("spec", [("box", 1.0, 1.0), ("gaussian", 0.5 + 0.5j, 1.0)])
    def test_array_of_r_is_the_scalar_calls(self, spec):
        p = build_potential(*spec)
        rs = np.linspace(0.0, 3.0, 13)
        assert np.array_equal(tail_integral(p, rs), [tail_integral(p, r) for r in rs])
        with pytest.raises(ValueError):
            tail_integral(p, np.array([0.5, -0.1]))

    def test_untruncated_constant_raises(self):
        with pytest.raises(KernelError):
            tail_integral(build_potential("constant", 1.0), 0.0)

    def test_sampled_exact_trapezoid(self):
        # tent potential: a linear up then down; tail from 0 is the full area
        g = np.array([0.0, 1.0, 2.0])
        v = np.array([0.0, 1.0, 0.0])
        p = build_potential("sampled", g, v)
        assert tail_integral(p, 0.0) == pytest.approx(1.0, abs=1e-14)
        assert tail_integral(p, 1.0) == pytest.approx(0.5, abs=1e-14)


def scipy_quad(f, a, b, breaks=(), **kw):
    """scipy's adaptive quadrature of f on [a, b], told where f has kinks or
    jumps inside it: an oracle apart from kreinlab's own quadrature."""
    inside = [x for x in breaks if a < x < b]
    return quad(lambda x: float(f(x)), a, b, points=inside or None,
                epsabs=1e-13, epsrel=1e-13, **kw)[0]


class TestInvariants:
    def test_tail_derivative_is_minus_a(self):
        # central differences of A(r) against -a(r) on smooth families
        for p in (build_potential("gaussian", 1, 1), build_potential("box", 0.5, 3)):
            for r in (0.5, 1.2, 2.1):
                h = 1e-4
                deriv = (tail_integral(p, r + h) - tail_integral(p, r - h)) / (2 * h)
                assert abs(deriv + p(r)) < 1e-5 * (1 + abs(p(r)))

    def test_tail_differences_match_quadrature(self):
        grids = {
            "box": np.array([0.0, 0.3, 0.8, 1.5]),
            "gaussian": np.array([0.0, 0.5, 1.5, 3.0]),
            "figure1": np.array([0.0, 1.0, 2.5, 4.0]),
        }
        pots = {
            "box": build_potential("box", 1, 1),
            "gaussian": build_potential("gaussian", 1, 1),
            "figure1": build_potential("figure1"),
        }
        for name, p in pots.items():
            rs = grids[name]
            for r2, r1 in zip(rs[:-1], rs[1:]):
                lhs = tail_integral(p, r2) - tail_integral(p, r1)
                rhs = scipy_quad(p, r2, r1, p.breakpoints(), limit=200)
                assert abs(lhs - rhs) < 1e-8

    def test_l2_norm_matches_quadrature(self):
        for p in (build_potential("box", 1, 1),
                  build_potential("gaussian", 1, 1),
                  build_potential("sampled", [0.0, 0.5, 2.0], [1.0, -0.5, 0.25])):
            hi = p.support_bound if p.support_bound is not None else 10.0
            q = scipy_quad(lambda r: np.abs(p(r)) ** 2, 0.0, hi, p.breakpoints())
            assert abs(p.l2_norm ** 2 - q) < 1e-8 * (1 + q)

    def test_figure1_l2_norm_oscillatory_split(self):
        # the norm over [0, inf): in u = e^r, sin^2 = (1 - cos 2u)/2 gives
        # 1/2 - 1/2 int_1^inf cos(2u) / (u (1 + ln u)^2) du, the Fourier
        # integral by QUADPACK's QAWF (about 0.642360578934)
        osc, _ = quad(lambda u: 1.0 / (u * (1.0 + np.log(u)) ** 2), 1.0, np.inf,
                      weight="cos", wvar=2.0)
        fig = build_potential("figure1")
        assert abs(fig.l2_norm ** 2 - (0.5 - 0.5 * osc)) < 1e-9


class TestEffectiveSupport:
    def test_gaussian_support(self):
        # the L2 norm of e^{-x^2} past r is below 1e-16 from r = 6 on
        g = build_potential("gaussian", 1, 1)
        assert g.effective_support(1e-16) == 6.0
        assert g.l2_tail(6.0) < 1e-16 < g.l2_tail(5.75)

    def test_none_when_not_reached_within_r_max(self):
        # the L2 norm of e^{-(x/10)^2} past 40 is 8.8e-8; the search goes on
        # along the grid 10 (1 + k/4) to 62.5, however far that is. figure1
        # has no closed-form L2 tail, so no effective support
        wide = build_potential("gaussian", 1, 10)
        m = math.sqrt(10.0 * math.sqrt(math.pi / 8.0) * math.erfc(4.0 * math.sqrt(2.0)))
        assert wide.l2_tail(40.0) == pytest.approx(m, rel=1e-14)
        assert wide.effective_support(1e-16) == 62.5
        assert wide.l2_tail(62.5) < 1e-16 < wide.l2_tail(60.0)
        assert build_potential("figure1").effective_support(1e-16) is None

    def test_huge_coefficient_does_not_overflow(self):
        # |c|^2 overflows; the norm past r is |c| e^{-r^2} times a factor of
        # order 1, so it falls below 1e-15 where r^2 = log(1e323), r = 27.3
        huge = build_potential("gaussian", 1e308, 1)
        assert huge.effective_support(1e-15) == 27.25
        assert huge.l2_tail(27.25) < 1e-15 < huge.l2_tail(27.0)

    def test_huge_radius_does_not_overflow(self):
        # z = sqrt(2) r / scale: sqrt(2) r overflows for r past 1.27e308,
        # r / scale does not, and at r = scale the tail is sqrt(scale) times
        # a factor of order 1, about 2.2e153
        s = 1.7e308
        wide = build_potential("gaussian", 1, s)
        closed = math.sqrt(s * math.sqrt(math.pi / 8.0) * math.erfc(math.sqrt(2.0)))
        assert wide.l2_tail(s) == pytest.approx(closed, rel=1e-12)
        assert 2e153 < wide.l2_tail(s) < 2.5e153
        # the tail falls below 1e-12 only about 18 scales out, past the
        # largest double: no finite point, so None
        assert wide.effective_support(1e-12) is None


class TestOscillationClassify:
    def test_box_zero_tail(self):
        box = build_potential("box", 1, 1)
        prof = oscillation_classify(box, np.linspace(1.5, 5.0, 8))
        assert prof.fit.zero_tail

    def test_gaussian_class(self):
        g = build_potential("gaussian", 1, 1)
        prof = oscillation_classify(g, np.linspace(1.0, 4.0, 13))
        assert abs(prof.fit.alpha_hat - 2.0) < 0.15

    def test_figure1_class(self):
        fig = build_potential("figure1")
        prof = oscillation_classify(fig, np.linspace(2.0, 8.0, 61))
        assert abs(prof.fit.alpha_hat - 1.0) < 0.15


class TestCsvIngestion:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "pot.csv"
        path.write_text("r,re,im\n0.0,1.0,0.5\n1.0,0.5,0.0\n2.0,0.0,0.0\n")
        p = read_potential_csv(path)
        assert isinstance(p, Potential)
        assert p(0.0) == pytest.approx(1.0 + 0.5j)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "pot.csv"
        path.write_text("radius,re,im\n0.0,1.0,0.0\n")
        with pytest.raises(ValueError):
            read_potential_csv(path)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "pot.csv"
        path.write_text("r,re,im\n0.0,nan,0.0\n1.0,1.0,0.0\n")
        with pytest.raises(ValueError):
            read_potential_csv(path)

    def test_non_increasing_rejected(self, tmp_path):
        path = tmp_path / "pot.csv"
        path.write_text("r,re,im\n0.0,1.0,0.0\n0.0,1.0,0.0\n")
        with pytest.raises(ValueError):
            read_potential_csv(path)
