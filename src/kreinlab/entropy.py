"""Entropy-type functionals of a coefficient: the Dirac transfer matrix, the
determinant entropy E, the local variation D, their window scans and decay
fits, the entropy partial sums, and the H^-1 norm.

Conventions. The Dirac generator is built from the coefficient at doubled
argument: Q(s) = ((-q, p), (p, q)) with p(s) = -2 Re a(2s), q(s) = 2 Im a(2s),
and the transfer matrix solves N' = J Q N from the identity. E(r) is the
determinant defect of the Gram integral of N over [r, r+2]; a second route
computes it through the ordered exponential of A_r(t) = 2 J Q(r + 2t), the
unique rescaling with X_{A_r}(t) = N(r + 2t). The two routes must agree; a
disagreement raises RouteDisagreement (for strongly complex coefficients the
two Gram transpose orders genuinely differ, and the error is the designed
signal for that).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson, simpson

from .kernel import (
    DecayFit,
    Grid,
    InsufficientDataError,
    KernelError,
    breakpoint_segments,
    fit_decay,
    propagate,
)
from .ordered_exp import CoeffPair, f_of_s
from .potentials import Potential

# oscillation-resolving sample budget: nodes per period and the hard cap
_NODES_PER_PERIOD = 360
_N_CAP = 30_000_000
_ZERO_SHORTCUT = 1e-7
# H^-1 norm: nodes per period, and the L2 mass left past an effective support
_SOBOLEV_NODES_PER_PERIOD = 48
_MASS_TOL = 1e-16


class RouteDisagreement(KernelError):
    """The determinant route and the ordered-exponential bridge disagree."""

    def __init__(self, message, det_route, bridge_route):
        super().__init__(message)
        self.det_route = det_route
        self.bridge_route = bridge_route


@dataclass
class DiracMatrixQ:
    """Trace-free symmetric generator built from a coefficient."""

    potential: Potential

    def pq(self, s):
        a = self.potential(2.0 * np.asarray(s, dtype=float))
        return -2.0 * np.real(a), 2.0 * np.imag(a)

    def jq_matrix(self, s) -> np.ndarray:
        p, q = self.pq(s)
        return np.array([[p, q], [q, -p]], dtype=float)

    def breakpoints(self):
        return tuple(b / 2.0 for b in self.potential.breakpoints())


@dataclass
class EntropyScan:
    """E and D along a grid, their ratio where D is above floor, and the
    decay fits of both columns."""

    r_grid: Grid
    E: np.ndarray
    D: np.ndarray
    ratio: np.ndarray
    fit_E: DecayFit
    fit_D: DecayFit


@dataclass
class EntropySum:
    """Partial sum of E over integer windows with a truncation indicator."""

    total: float
    last_term: float
    n_terms: int

    def __float__(self):
        return self.total


@dataclass
class SobolevNorm:
    """The H^-1 norm of a coefficient and an estimate of its error."""

    value: float
    tail_bound: float

    def __float__(self):
        return self.value


def n_matrix(p: Potential, r: float, tol: float = 1e-10) -> np.ndarray:
    """Transfer matrix N(r): solution of N' = J Q N, N(0) = identity."""
    if r < 0:
        raise ValueError("r must be >= 0")
    gen = DiracMatrixQ(p)

    def rhs(s, y):
        return (gen.jq_matrix(s) @ y.reshape(2, 2)).ravel()

    return propagate(rhs, np.eye(2).ravel(), 0.0, r, tol,
                     gen.breakpoints()).reshape(2, 2)


def _window_budget(p: Potential, lo: float, hi: float, arg_scale: float,
                   nodes_per_period: int = _NODES_PER_PERIOD):
    """Node count that resolves the oscillation of a(arg_scale * t) on [lo, hi]."""
    if p.osc_rate(arg_scale * hi) == 0.0:
        return 8193
    # for exponential phases the accumulated phase is the rate difference
    phase = max(p.osc_rate(arg_scale * hi) - p.osc_rate(arg_scale * lo), 1.0)
    return max(8193, int(phase / (2.0 * math.pi) * nodes_per_period))


def _one_sided(f, panel: np.ndarray) -> np.ndarray:
    """Evaluate f on panel nodes with endpoints nudged inward, so that value
    jumps located exactly at panel boundaries are sampled one-sidedly."""
    x = panel.copy()
    eps = 1e-12 * (panel[-1] - panel[0]) + 1e-300
    x[0] += eps
    x[-1] -= eps
    return f(x)


def _cum_uniform(y: np.ndarray, dx: float) -> np.ndarray:
    return cumulative_simpson(y, dx=dx, initial=0.0)


def _entropy_bound(p: Potential, r: float) -> float | None:
    """Rigorous upper bound on E(r) from the tail envelope: E <= 2 int v^2
    with |v| <= 4 sup_{x >= 2r} |tail(x)|, plus a cubic safety term."""
    ts = p.tail_sup(2.0 * r)
    if ts is None:
        return None
    vmax = 4.0 * ts
    if vmax > 0.5:
        return None
    return 4.0 * vmax ** 2 * (1.0 + 8.0 * vmax)


def _panels(lo, hi, breaks, n_total, step=2):
    """Uniform panels of [lo, hi] cut at breaks, n_total nodes in all; each
    has n >= 17 nodes with n - 1 a multiple of step."""
    out = []
    for a, b in breakpoint_segments(lo, hi, breaks):
        n = max(17, int(round(n_total * (b - a) / (hi - lo))))
        n += (1 - n) % step
        out.append(np.linspace(a, b, n))
    return out


def _entropy_real_commuting(p: Potential, r: float, n_total: int) -> float:
    """E(r) for a real coefficient: the generator is diagonal, so the Gram
    factors into scalar integrals of exp(-+2 int_{2r}^{2t} a)."""
    gen_breaks = [b / 2.0 for b in p.breakpoints()]
    g_plus = 0.0
    g_minus = 0.0
    offset = 0.0
    for panel in _panels(r, r + 2.0, gen_breaks, n_total):
        h = (panel[-1] - panel[0]) / (panel.size - 1)
        integrand = 2.0 * np.real(_one_sided(lambda t: p(2.0 * t), panel))
        delta = _cum_uniform(integrand, h) + offset
        offset = delta[-1]
        g_minus += simpson(np.exp(-2.0 * delta), dx=h)
        g_plus += simpson(np.exp(2.0 * delta), dx=h)
    return g_minus * g_plus - 4.0


def _entropy_ode(p: Potential, r: float, tol: float = 1e-11) -> float:
    """E(r) through the transfer-matrix ODE with Gram accumulation."""
    gen = DiracMatrixQ(p)

    def rhs(s, y):
        N = y[:4].reshape(2, 2)
        dN = gen.jq_matrix(s) @ N
        c1 = N[:, 0]
        c2 = N[:, 1]
        return np.concatenate([dN.ravel(),
                               [c1 @ c1, c1 @ c2, c2 @ c2]])

    y = propagate(rhs, np.concatenate([np.eye(2).ravel(), np.zeros(3)]),
                  r, r + 2.0, tol, gen.breakpoints())
    g11, g12, g22 = y[4:]
    return g11 * g22 - g12 * g12 - 4.0


def _bridge_F(p: Potential, r: float, n_total: int, tol: float = 1e-11) -> float:
    """F_{A_r}(1) via the ordered exponential of A_r(t) = 2 J Q(r + 2t)."""
    if p.is_real:
        # A_r is diagonal with entry -q~ where q~(t) = 4 Re a(2r + 4t)
        qt = lambda t: 4.0 * np.real(p(2.0 * r + 4.0 * np.asarray(t, dtype=float)))
        t_breaks = sorted((b - 2.0 * r) / 4.0 for b in p.breakpoints()
                          if 2.0 * r < b < 2.0 * r + 4.0)
        if not t_breaks and n_total <= 32769:
            A = CoeffPair(lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                          qt, n_grid=max(n_total, 4097))
            return f_of_s(A, 1.0)
        # panelized diagonal evaluation (value jumps or oscillation-heavy)
        plus = 0.0
        minus = 0.0
        offset = 0.0
        for panel in _panels(0.0, 1.0, t_breaks, n_total):
            h = (panel[-1] - panel[0]) / (panel.size - 1)
            G = _cum_uniform(_one_sided(qt, panel), h) + offset
            offset = G[-1]
            plus += simpson(np.exp(2.0 * G), dx=h)
            minus += simpson(np.exp(-2.0 * G), dx=h)
        return plus * minus

    gen = DiracMatrixQ(p)

    def rhs(t, y):
        X = y[:4].reshape(2, 2)
        dX = 2.0 * gen.jq_matrix(r + 2.0 * t) @ X
        r1 = X[0, :]
        r2 = X[1, :]
        return np.concatenate([dX.ravel(), [r1 @ r1, r1 @ r2, r2 @ r2]])

    t_breaks = [(b - r) / 2.0 for b in gen.breakpoints() if r < b < r + 2.0]
    y = propagate(rhs, np.concatenate([np.eye(2).ravel(), np.zeros(3)]),
                  0.0, 1.0, tol, t_breaks)
    g11, g12, g22 = y[4:]
    return g11 * g22 - g12 * g12


def entropy_E(p: Potential, r: float, rel_tol: float = 1e-6) -> float:
    """Determinant entropy E(r), cross-checked through two routes.

    Route one evaluates det of the Gram integral of the transfer matrix over
    [r, r+2]; route two evaluates 4 (F_{A_r}(1) - 1). Windows whose rigorous
    envelope bound is below 1e-7 short-circuit to exactly 0; windows whose
    oscillation cannot be resolved within the sample budget raise unless the
    bound applies.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    bound = _entropy_bound(p, r)
    if bound is not None and bound < _ZERO_SHORTCUT:
        return 0.0

    n_total = _window_budget(p, r, r + 2.0, 2.0)
    if n_total > _N_CAP:
        if bound is not None and bound < 1e-6:
            return 0.0
        raise KernelError(
            f"window [{r}, {r + 2}] oscillates too fast to resolve "
            f"({n_total} nodes needed) and no envelope bound applies")

    if p.is_real:
        det_route = _entropy_real_commuting(p, r, n_total)
    else:
        det_route = _entropy_ode(p, r)
    bridge_route = 4.0 * (_bridge_F(p, r, n_total) - 1.0)

    if abs(det_route - bridge_route) > rel_tol * (1.0 + abs(det_route)):
        raise RouteDisagreement(
            f"entropy routes disagree at r={r}: det route {det_route:.12g}, "
            f"bridge route {bridge_route:.12g}", det_route, bridge_route)
    return det_route


def variation_D(p: Potential, r: float) -> float:
    """Local variation over [r, r+2]:
    2 int |g|^2 - |int g|^2 with g(t) = int_r^t a."""
    if r < 0:
        raise ValueError("r must be >= 0")
    ts = p.tail_sup(r)
    if ts is not None and 16.0 * ts * ts < 1e-10:
        return 0.0

    n_total = _window_budget(p, r, r + 2.0, 1.0)
    if n_total > _N_CAP:
        raise KernelError(f"window [{r}, {r + 2}] oscillates too fast to resolve")

    int_g2 = 0.0
    int_g = 0.0 + 0.0j
    offset = 0.0 + 0.0j
    for panel in _panels(r, r + 2.0, p.breakpoints(), n_total):
        h = (panel[-1] - panel[0]) / (panel.size - 1)
        vals = np.asarray(_one_sided(p, panel), dtype=complex)
        g = _cum_uniform(vals, h) + offset
        offset = g[-1]
        int_g2 += simpson(np.abs(g) ** 2, dx=h)
        int_g += simpson(g.real, dx=h) + 1j * simpson(g.imag, dx=h)
    return float(2.0 * int_g2 - abs(int_g) ** 2)


def entropy_sum(p: Potential, N: int) -> EntropySum:
    """Sum of E over integer windows n = 0..N."""
    if N < 0:
        raise ValueError("N must be >= 0")
    terms = [entropy_E(p, float(n)) for n in range(N + 1)]
    return EntropySum(total=float(np.sum(terms)), last_term=float(terms[-1]),
                      n_terms=N + 1)


def _figure1_tail(x: float) -> float:
    """Bound on |int_x^inf a conj(C)| for figure1. In u = e^t the integrand is
    sin(u) B(u)/((1 + ln u) u^2), B(u) = int_1^u sin(v)/(1 + ln v) dv; split B
    into its limit (at most 2), cos(u)/(1 + ln u) and a rest of order 1/u, and
    bound each integral of sin against a decreasing phi by 2 phi(U)/omega."""
    k = 1.0 / (1.0 + x)
    return math.exp(-2.0 * x) * k * (4.0 + 0.5 * k + 2.0 * k * k)


def _truncation(p: Potential) -> tuple[float, float]:
    """Truncation point X of the H^-1 integral and a bound on the part past
    it: 0 past a support bound; m (|a|_2 / 2 + m) past an effective support
    (plus 1), where the L2 mass m is below _MASS_TOL (Cauchy-Schwarz and
    Young); for figure1, _figure1_tail at the first quarter step below 1e-10.
    The coefficient lives on [0, r_max], so X is at most r_max."""
    if p.support_bound is not None:
        x, bound = p.support_bound, 0.0
    elif (eff := p.effective_support(_MASS_TOL)) is not None:
        x, bound = eff + 1.0, _MASS_TOL * (0.5 * p.l2_norm + _MASS_TOL)
    elif p.family == "figure1":
        x = 1.0
        while _figure1_tail(x) > 1e-10:
            x += 0.25
        bound = _figure1_tail(x)
    else:
        raise ValueError(f"no truncation point known for the {p.family} coefficient")
    return (x, bound) if x < p.r_max else (p.r_max, 0.0)


def _h_minus1_sum(panels, values) -> float:
    """Simpson sum of Re a conj(C), C(x) = int_0^x a(y) e^{-(x-y)} dy carried
    across panels, from cumulative Simpson of a(y) e^{y - x_j} on chunks of
    about unit length from a node x_j, so no growing exponential exceeds e."""
    total, c = 0.0, 0.0
    for x, a in zip(panels, values):
        h = (x[-1] - x[0]) / (x.size - 1)
        m = 2 * max(1, int(0.5 / h))
        grow = np.exp(h * np.arange(m + 1))
        C = np.empty(a.shape, dtype=np.result_type(a, c))
        for j in range(0, a.size - 1, m):
            g = grow[:min(m + 1, a.size - j)]
            C[j:j + g.size] = (c + _cum_uniform(a[j:j + g.size] * g, h)) / g
            c = C[j + g.size - 1]
        total += float(np.real(np.sum(_simpson_w(x) * a * np.conj(C))))
    return total


def sobolev_h_minus1(p: Potential, cutoff=None) -> SobolevNorm:
    """H^-1 norm int |Fa|^2/(1+xi^2) dxi, F normalised by 1/sqrt(2 pi), in
    direct space: 1/2 int int a(x) conj(a(y)) e^{-|x-y|} dx dy, as the
    inverse transform of 1/(1+xi^2) is pi e^{-|x|}; one Simpson pass over
    oscillation-resolving panels of [0, X] (see _truncation). tail_bound is
    the error estimate: the change from the same sum on every other node,
    plus the bound on the part past X. ``cutoff`` is accepted and ignored.
    Raises ValueError if a is not in L2 or has no known truncation point."""
    if not math.isfinite(p.l2_norm):
        raise ValueError("the H^-1 norm needs a square-integrable coefficient")
    hi, truncated = _truncation(p)
    if p.l2_norm == 0.0 or hi <= 0.0:
        return SobolevNorm(0.0, 0.0)
    n = _window_budget(p, 0.0, hi, 1.0, _SOBOLEV_NODES_PER_PERIOD)
    panels = _panels(0.0, hi, p.breakpoints(), max(n, 16385), step=4)
    values = [np.asarray(_one_sided(p, x)) for x in panels]
    value = _h_minus1_sum(panels, values)
    coarse = _h_minus1_sum([x[::2] for x in panels], [a[::2] for a in values])
    return SobolevNorm(value=value, tail_bound=abs(value - coarse) + truncated)


def _simpson_w(x: np.ndarray) -> np.ndarray:
    h = (x[-1] - x[0]) / (x.size - 1)
    w = np.ones(x.size)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * h / 3.0


def _fit_or_flag(r: np.ndarray, m: np.ndarray) -> DecayFit:
    try:
        return fit_decay(np.column_stack([r, m]), floor=1e-13)
    except InsufficientDataError:
        return DecayFit(alpha_hat=math.nan, c_hat=math.nan, offset=math.nan,
                        residual=math.inf, window=(float(r[0]), float(r[-1])),
                        n_used=int(np.sum(m > 1e-13)))


def equivalence_scan(p: Potential, r_grid, floor: float = 1e-12) -> EntropyScan:
    """E and D along the grid with ratios and decay fits of both columns."""
    grid = Grid.coerce(r_grid)
    E = np.array([entropy_E(p, r) for r in grid.points])
    D = np.array([variation_D(p, r) for r in grid.points])
    ratio = np.where(D > floor, E / np.where(D > floor, D, 1.0), np.nan)
    return EntropyScan(r_grid=grid, E=E, D=D, ratio=ratio,
                       fit_E=_fit_or_flag(grid.points, np.abs(E)),
                       fit_D=_fit_or_flag(grid.points, np.abs(D)))


def classify_alpha(p: Potential, r_grid, floor: float = 1e-13) -> DecayFit:
    """Decay-class estimate from the variation column (the computable proxy
    for the entropy decay class)."""
    grid = Grid.coerce(r_grid)
    D = np.array([variation_D(p, r) for r in grid.points])
    return fit_decay(np.column_stack([grid.points, np.abs(D)]), floor=floor)
