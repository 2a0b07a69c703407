"""Entropy-type functionals of a coefficient: the Dirac transfer matrix, the
determinant entropy E, the local variation D, their window scans and decay
fits, the entropy partial sums, and the H^-1 norm.

Conventions. The Dirac generator is built from the coefficient at doubled
argument: Q(s) = ((-q, p), (p, q)) with p(s) = -2 Re a(2s), q(s) = 2 Im a(2s),
and the transfer matrix solves N' = J Q N from the identity. E(r) is the
determinant defect of the Gram integral of N over [r, r+2].

A coefficient of constant phase, a = u psi with |u| = 1 and psi real, has
JQ = R (-2 psi Z) R^T for one fixed rotation R, so E is that of psi: one
sampled pass over delta(t) = int_{2r}^{2t} psi by a sixth-order rule,
whose sums on every other node give its error estimate; D is that of psi
too. For figure1, past the point where sampling gets expensive, E and D
come from the asymptotic expansion of its tail integral, and the H^-1
norm from that of its e^x-weighted integral. A coefficient whose phase
may vary takes a complex pass for D and the transfer-matrix ODE for E:
det int N^T N - 4 over the window, N started from I at r. As
det N = 1 this does not depend on where N starts, and N^T N is the Krein
system's Gram at lambda = 0 (the entropy of Bessonov and Denisov, "A
spectral Szego theorem on the real line", Adv. Math. 2020). The other
order N N^T depends on the start and is a different functional: its
det int - 4 is 4 (F - 1) for the ordered-exponential bridge F of
ordered_exp.f_of_s.

Every sampled pass, of E, D or the H^-1 norm, takes its nodes and values
from one generator (_blocks), in blocks of at most _BLOCK + 1 nodes, and
carries its state from block to block in panel order.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from .kernel import (
    EXP_PHASE_MAX,
    DecayFit,
    Grid,
    InsufficientDataError,
    KernelError,
    _FIT_FLOOR,
    _GL_X,
    _gauss_panel,
    boole_weights,
    cumulative_boole,
    exp_phase_tail,
    fit_decay,
    propagate,
    row_gram,
)
from .krein import _TOL
from .potentials import Potential

# oscillation-resolving sample budget: nodes per period, floor and hard cap
# (2^12 + 1 nodes keep the spacing of a window of length 2 a power of two)
_NODES_PER_PERIOD = 160
_NODES_MIN = 4097
_N_CAP = 30_000_000
# rounding floor of a sampled E or D: this many ulps of the terms it is the
# difference of, plus the smallest normal double; below it the h-against-2h
# difference is rounding, not discretisation; the H^-1 norm's error estimate
# adds this many ulps of the norm
_ROUNDING_ULPS = 64
# the figure1 expansion is used where its error bound is at most this
# fraction of the value it gives
_EXPANSION_REL = 1e-7
# a sampled E moves by at most this fraction of itself between h and 2h,
# beyond its rounding floor
_ROUTE_REL = 1e-6
# step tolerance of the transfer-matrix ODE route (n_matrix takes that of a
# Krein solve, krein's _TOL)
_ODE_TOL = 1e-11
# a ratio E/D is reported where D is above _RATIO_FLOOR; the decay fits take
# the values above fit_decay's default floor, kernel's _FIT_FLOOR
_RATIO_FLOOR = 1e-12
# steps in one block of a sampled pass (see _blocks), and Gauss nodes in one
# pass that builds figure1's windows (see _f1_plan)
_BLOCK = 2 ** 16
# H^-1 norm: fewest nodes, L2 mass left past an effective support, and
# figure1's end of sampling
_SOBOLEV_NODES = 16385
_MASS_TOL = 1e-16
_F1_SPLIT = 4.0
# figure1: T(x) = int_x^inf a = Re(e^{ie^x} Phi) + rest, with the amplitudes
# i^k e^{-(k+1)x} q_k(1/(1+x)), k < _F1_TERMS, in Phi
_F1_TERMS = 8
# error of a tail, or of a window's difference of two, per unit of sup|g| on
# the amplitudes used here (measured at most 2e-15 against Gauss panels in
# u = e^x, at most 1e-15 on Phi^3, Phi^4, rho^2 Phi and rho^2 Phi^2 from x = 5
# and 5e-16 on the two H^-1 tail amplitudes from x = 4, against mpmath)
_F1_QUAD = 1e-13


class RouteDisagreement(KernelError):
    """A sampled E differs beyond tolerance between the pass on all nodes
    (``fine``) and the pass on every other node (``coarse``)."""

    def __init__(self, message, fine, coarse):
        super().__init__(message)
        self.fine = fine
        self.coarse = coarse


class WindowValue(float):
    """E or D on one window, with how it was computed: ``route`` (sampled,
    expansion, ode or exact_zero), ``error`` (the error estimate or bound;
    for ode the Gram integral's error carried through the determinant) and
    ``nodes`` (the sample count, for ode the substep count, None for
    expansion and exact_zero). A non-finite value raises KernelError."""

    def __new__(cls, value, route, error, nodes=None):
        if not math.isfinite(value):
            raise KernelError(f"the {route} route gave a non-finite window value "
                              f"({value}); the coefficient is too large to resolve")
        obj = super().__new__(cls, value)
        obj.route = route
        obj.error = float(error)
        obj.nodes = nodes
        return obj


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
    """The H^-1 norm of a coefficient and an estimate of its error. A
    non-finite value raises KernelError."""

    value: float
    tail_bound: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise KernelError(f"the H^-1 norm is not finite ({self.value}); "
                              "the coefficient is too large to resolve")

    def __float__(self):
        return self.value


def _jq(p: Potential):
    """The generator s -> JQ(s) = ((p, q), (q, -p)) as propagate's components
    (0, p, q, q), and its breakpoints (those of a, halved)."""

    def gen(s):
        a = p(2.0 * np.asarray(s, dtype=float))
        q = 2.0 * np.imag(a)
        return 0.0, -2.0 * np.real(a), q, q

    return gen, tuple(b / 2.0 for b in p.breakpoints())


def n_matrix(p: Potential, r: float) -> np.ndarray:
    """Transfer matrix N(r): solution of N' = J Q N, N(0) = identity, at
    krein's _TOL."""
    if r < 0:
        raise ValueError("r must be >= 0")
    gen, breaks = _jq(p)
    return propagate(gen, np.eye(2), 0.0, r, _TOL, breaks).y


def _window_budget(p: Potential, lo: float, hi: float, arg_scale: float):
    """Node count that resolves the oscillation of a(arg_scale * t) on [lo, hi]
    (sized for the sixth-order rule of _sampled_sums)."""
    # for exponential phases the accumulated phase is the rate difference
    phase = max(p.osc_rate(arg_scale * hi) - p.osc_rate(arg_scale * lo), 1.0)
    return max(_NODES_MIN, int(phase / (2.0 * math.pi) * _NODES_PER_PERIOD))


def _blocks(f, lo, hi, breaks, n_total):
    """The node count of a pass over uniform panels of [lo, hi] cut at the
    increasing breaks, n_total nodes in all, each of n >= 17 nodes with n - 1
    a multiple of 8 (every other node is a Boole grid too); and its blocks in
    panel order: nodes x and values f(x) as (P, n) stacks of at most
    _BLOCK + 1 nodes, of consecutive panels of one n or of one piece of a
    longer panel (pieces share their end nodes). Each panel's end nodes are
    nudged inward for f, so that a jump at a panel boundary is sampled
    one-sidedly. Raises KernelError past _N_CAP nodes."""
    if n_total > _N_CAP:
        raise KernelError(f"a pass over [{lo:g}, {hi:g}] needs {n_total:.3g} nodes; "
                          f"the limit is {_N_CAP}")
    cuts = [float(lo), *(c for c in breaks if lo < c < hi), float(hi)]
    rows, nodes = [], 0         # (start, stop, nodes, nudges) of each panel or piece
    for a, b in zip(cuts[:-1], cuts[1:]):
        n = max(17, int(round(n_total * (b - a) / (cuts[-1] - cuts[0]))))
        n += (1 - n) % 8
        step, eps = (b - a) / (n - 1), 1e-12 * (b - a) + 1e-300
        nodes += n
        for j in range(0, n - 1, _BLOCK):
            k = min(j + _BLOCK, n - 1)
            rows.append((a + j * step, b if k == n - 1 else a + k * step, k - j + 1,
                         eps if j == 0 else 0.0, eps if k == n - 1 else 0.0))

    def blocks():
        for size, run in itertools.groupby(rows, lambda row: row[2]):
            run = list(run)
            per = (_BLOCK + 1) // size
            for i in range(0, len(run), per):
                start, stop, _, nudge0, nudge1 = np.array(run[i:i + per]).T[:, :, None]
                x = np.arange(size) * ((stop - start) / (size - 1)) + start   # as np.linspace
                x[:, -1:] = stop
                v = x.copy()
                v[:, :1] += nudge0
                v[:, -1:] -= nudge1
                yield x, f(v)
    return nodes, blocks()


def _sampled_sums(f, lo: float, hi: float, breaks, n_total: int, moments):
    """Boole sums over [lo, hi] of each array in moments(G), G(t) the
    cumulative integral of f from lo (see cumulative_boole), on the blocks
    of _blocks: row 0 on all nodes, row 1 on every other node, off by about
    64 times row 0's sixth-order error; G's offset carries across panels in
    panel order. Returns the rows and the node count."""
    nodes, blocks = _blocks(f, lo, hi, breaks, n_total)
    parts, offset = ([], []), [0.0, 0.0]
    for x, vals in blocks:
        span = x[:, -1] - x[:, 0]
        for j in (0, 1):
            G = cumulative_boole(vals[:, ::j + 1].T, span / ((x.shape[1] - 1) >> j))
            ends = np.add.accumulate(np.concatenate(([offset[j]], G[-1])))
            offset[j] = ends[-1]
            # (P, n) in row order, so that each panel's sum is its own pairwise sum
            G, w = np.add(G.T, ends[:-1, None], order="C"), boole_weights(x[:, ::j + 1])
            parts[j].append(np.array([np.add.reduce(w * m, -1) for m in moments(G)], order="F").T)
    # the panels' sums added in panel order, on the rows of a (panels, moments) array
    return np.array([np.add.reduce(np.concatenate(rows), axis=0) for rows in parts]), nodes


def _entropy_sampled(p: Potential, r: float, n_total: int):
    """E(r) of a coefficient a = u psi of constant phase u (see
    Potential.phase) from one pass over delta(t) = int_{2r}^{2t} psi.

    E is that of psi, whose generator is diagonal, so E = g+ g- - 4 with
    g+- = int exp(+-2 delta); with C = int cosh 2 delta = 2 + c',
    c' = int 2 sinh^2 delta and S = int sinh 2 delta, that is
    4c' + c'^2 - S^2, which never subtracts the 4 (g+ g- - 4 loses all
    relative precision below the ulps of 4). Returns E from all nodes, E from
    every other node, the rounding floor of their difference and the node
    count."""
    psi = _psi(p, p.phase())
    sums, nodes = _sampled_sums(
        lambda t: 2.0 * psi(2.0 * t), r, r + 2.0,
        [b / 2.0 for b in p.breakpoints()], n_total,
        lambda delta: (2.0 * np.sinh(delta) ** 2, np.sinh(2.0 * delta)))
    c, S = sums[:, 0], sums[:, 1]
    E = 4.0 * c + c * c - S * S
    floor = _rounding(4.0 * c[0] + c[0] ** 2 + S[0] ** 2)
    return float(E[0]), float(E[1]), floor, nodes


def _psi(p: Potential, u):
    """psi = Re(conj(u) a) of a coefficient a = u psi of constant phase u
    (see Potential.phase)."""
    return lambda x: np.real(p(x) if u == 1.0 else np.conj(u) * p(x))


def _rounding(terms: float) -> float:
    return float(_ROUNDING_ULPS * np.finfo(float).eps * terms + np.finfo(float).tiny)


def _entropy_ode(p: Potential, r: float):
    """E(r) = det int_r^{r+2} N^T N - 4 through the transfer matrix from
    N(r) = I, the Gram integral on the propagation's substeps. Returns E, its
    error (the Gram's integral_error carried through g00 g11 - g01^2, plus
    the rounding of the determinant) and the substep count."""
    gen, breaks = _jq(p)
    path = propagate(gen, np.eye(2), r, r + 2.0, _ODE_TOL, breaks,
                     integrand=lambda N: row_gram(np.swapaxes(N, -1, -2)))
    (g0, g1, g2), (e0, e1, e2) = path.integral, path.integral_error
    error = g2 * e0 + g0 * e2 + 2.0 * abs(g1) * e1 + _rounding(g0 * g2 + g1 * g1)
    return float(g0 * g2 - g1 * g1 - 4.0), float(error), path.substeps


# ---------------------------------------------------------------------------
# figure1 past the sampling range: the expansion of T(x) = int_x^inf a
# (the asymptotic method of Iserles & Norsett, Proc. R. Soc. A 461 (2005) 1383)
# ---------------------------------------------------------------------------

def _f1_amplitude_polys(n, shift):
    """Rows q_0 .. q_n of coefficients in s = 1/(1+x), lowest power first.
    Integrating trig(u) u^-(k+shift) q_k, u = e^y, by parts leaves the boundary
    term e^{-(k+shift)x} q_k and the integrand with q_{k+1} = q_k' - (k+shift)
    q_k, where d/dx s^m = -m s^{m+1}; q_0 = s. Shift 1 expands T = int_x^inf a
    (Phi), shift 0 int e^y a (Psi)."""
    q = np.zeros((n + 1, n + 2))
    q[0, 1] = 1.0
    powers = np.arange(n + 1)
    for k in range(n):
        q[k + 1, 1:] = -powers * q[k, :-1]
        q[k + 1] -= (k + shift) * q[k]
    return q


_F1_Q = _f1_amplitude_polys(_F1_TERMS + 1, 1)
_F1_P = _f1_amplitude_polys(_F1_TERMS, 0)
# Horner coefficients of i^k q_k, k < _F1_TERMS, for s^{k+1} .. s^1, by shift:
# the sign of i^k taken in, its i left to the part (phi1 for even k, phi2 for odd)
_F1_HORNER = {shift: [tuple(float((-1) ** (k // 2) * c) for c in q[k, k + 1:0:-1])
                      for k in range(_F1_TERMS)] for shift, q in ((0, _F1_P), (1, _F1_Q))}


def _f1_phi(x, shift=1):
    """The complex amplitude Phi = phi1 + i phi2 at x (i Psi with shift 0, see
    _f1_h_tail). With E_k = e^{-(k+1)x} q_k, the boundary terms give
    T = Re(e^{ie^x} Phi), Phi = sum_k i^k E_k: phi1 = E_0 - E_2 + ..., phi2 = E_1 - ...
    Elementwise: each q_k by Horner in s = 1/(1+x), e^{-(k+1)x} as running
    products of one exp, so that the value at a node does not depend on the
    array that holds it."""
    x = np.asarray(x, dtype=float)
    s = 1.0 / (1.0 + x)
    decay = np.exp(-x)
    e = decay if shift else 1.0
    parts = [0.0, 0.0]
    for k, coeffs in enumerate(_F1_HORNER[shift]):
        q = coeffs[0] * s
        for c in coeffs[1:]:
            q += c
            q *= s
        q *= e
        parts[k % 2] += q
        e = e * decay
    return parts[0] + 1j * parts[1]


def _f1_rho24(x):
    """rho^2 = |Phi|^2 = phi1^2 + phi2^2 and rho^4 at x, on a trailing axis."""
    phi = _f1_phi(x)
    rho2 = phi.real ** 2 + phi.imag ** 2
    return np.stack([rho2, rho2 * rho2], -1)


def _f1_rest(x):
    """Bound on |T - Re(e^{ie^y} Phi)| for y >= x, elementwise: the rest is
    int trig(e^y) e^{-Ky} q_K, and one more integration by parts bounds it
    by e^{-(K+1)x} (|q_K|(s) + |q_{K+1}|(s) / (K+1)), |q| taking absolute
    coefficients, which grows with s = 1/(1+x) and so is largest at x."""
    s = 1.0 / (1.0 + x)
    K = _F1_TERMS
    return np.exp(-(K + 1) * x) * (polyval(s, np.abs(_F1_Q[K]))
                                   + polyval(s, np.abs(_F1_Q[K + 1])) / (K + 1))


def _f1_windows(spans) -> list:
    """The _F1Window of each (x0, x1) in spans, x1 - x0 whole, in one pass:
    int rho^2 and int rho^4 by 16-point Gauss-Legendre on all the unit
    panels at once (for e^{-nx}, n <= 4, times a polynomial in 1/(1+x) its
    error is far below double rounding), bitwise each window's own pass."""
    x0, x1 = np.array(spans, dtype=float).reshape(-1, 2).T
    k = np.rint(x1 - x0).astype(int)
    first = np.cumsum(k) - k
    lo = np.repeat(x0, k) + (np.arange(first[-1] + k[-1]) - np.repeat(first, k))
    rho = np.add.reduceat(_gauss_panel(_f1_rho24, lo, lo + 1.0), first)
    return [_F1Window(*v) for v in zip(x0.tolist(), x1.tolist(), _f1_phi(x0).tolist(),
                                       _f1_rest(x0).tolist(), *rho.T.tolist())]


def _f1_plan(p: Potential, E_at, D_at) -> dict:
    """The window (x0, x1) -> _F1Window of each E window at E_at and each D
    window at D_at, built in passes of at most _BLOCK Gauss nodes (see
    _f1_windows); not those from where tail_sup is 0, as E and D are 0 there."""
    spans = ([(2.0 * r, 2.0 * r + 4.0) for r in E_at if p.tail_sup(2.0 * r) != 0.0]
             + [(r, r + 2.0) for r in D_at if p.tail_sup(r) != 0.0])
    per = _BLOCK // (4 * _GL_X.size)      # E's windows, of 4 unit panels, are widest
    return {span: w for i in range(0, len(spans), per)
            for span, w in zip(spans[i:i + per], _f1_windows(spans[i:i + per]))}


def _f1_harmonic(omega: int, x):
    """The amplitudes of e^{i omega e^x} in the powers of T (see _F1Window):
    Phi^omega and rho^2 Phi^omega stacked for omega = 1, 2; Phi^omega alone
    for omega = 3, 4."""
    phi = _f1_phi(x)
    power = phi
    for _ in range(omega - 1):
        power = power * phi
    if omega > 2:
        return power
    return np.stack([power, (phi.real ** 2 + phi.imag ** 2) * power], -1)


class _F1Tails:
    """The tail table of a set of figure1 windows: Re int_x^inf of
    e^{i omega e^y} times the amplitudes of _f1_harmonic, at each distinct
    endpoint x once. omega = 1 and 2 at the endpoints of every window whose
    oscillating parts are computed, omega = 3 and 4 at those of the windows
    that need those harmonics; one exp_phase_tail call per omega,
    vectorised over the endpoints. A moment over [x0, x1] is the difference
    of two rows."""

    def __init__(self, windows):
        """windows: (window, omega) pairs, omega 2 or 4, the highest harmonic
        whose tails the window needs."""
        ends = {2: set(), 4: set()}
        for w, omega in windows:
            if w.computed:
                ends[omega].update((w.x0, w.x1))
        self.rows = {}
        for omega, xs in ((1, ends[2] | ends[4]), (2, ends[2] | ends[4]),
                          (3, ends[4]), (4, ends[4])):
            if xs:
                xs = sorted(xs)
                tails = exp_phase_tail(lambda x, w=omega: _f1_harmonic(w, x),
                                       np.array(xs), float(omega))
                self.rows[omega] = dict(zip(xs, tails.real))

    def __call__(self, omega: int, x0: float, x1: float):
        return self.rows[omega][x0] - self.rows[omega][x1]


class _F1Window:
    """Moments I_n = int T^n dx, n <= 4, of figure1's tail integral over
    [x0, x1] from its expansion, with error bounds err1 .. err4.

    With T = Re(e^{ie^x} Phi) and rho = |Phi|, the powers of T are
    harmonics in e^{ie^x}: T^2 = rho^2/2 + Re(e^{2ie^x} Phi^2)/2,
    T^3 = Re(e^{3ie^x} Phi^3)/4 + 3 rho^2 Re(e^{ie^x} Phi)/4 and
    T^4 = 3 rho^4/8 + rho^2 Re(e^{2ie^x} Phi^2)/2 + Re(e^{4ie^x} Phi^4)/8.
    An integral of trig(w e^x) g over the window, with e^{-x}|g| decreasing,
    is at most 2 e^{-x0} |g(x0)| / w after one integration by parts in
    u = e^x; osc1 and osc2, the bounds on the oscillating parts of I1 and I2
    (a cos and a sin integral each), take twice that. The window is built
    (see _f1_windows) from Phi(x0), tau = _f1_rest(x0) and int rho^2 and
    int rho^4 over it; moments() adds the oscillating integrals, read off a
    tail table (see _F1Tails), or past EXP_PHASE_MAX, where e^x has no
    usable phase, leaves them to the bounds."""

    def __init__(self, x0, x1, phi0: complex, tau: float, rho2: float, rho4: float):
        self.x0, self.x1 = x0, x1
        span = x1 - x0
        self.phi0, self.tau = phi0, tau
        # rho decreases, so tb bounds |T| on [x0, inf)
        self.tb = tb = abs(phi0) + tau
        self.smooth2 = 0.5 * rho2
        self.smooth4 = 0.375 * rho4
        self.osc1, self.osc2 = (8.0 * math.exp(-x0) * amplitude / w
                                for amplitude, w in ((tb, 1.0), (0.5 * tb * tb, 2.0)))
        self.computed = x0 <= EXP_PHASE_MAX
        # the rest of the expansion: |T - T_K| <= tau, |T^2 - T_K^2| <= 2 tau tb
        self.err1 = span * tau + (2.0 * _F1_QUAD * tb if self.computed else self.osc1)
        self.err2 = 2.0 * span * tau * tb + (
            2.0 * _F1_QUAD * tb * tb if self.computed else self.osc2)
        self.abs1 = self.osc1 + span * tau       # bound on |I1|
        # |T^n - T_K^n| <= n tau tb^(n-1); of use only where computed
        self.err3 = 3.0 * span * tau * tb ** 2 + 2.0 * _F1_QUAD * tb ** 3
        self.err4 = 4.0 * span * tau * tb ** 3 + 2.0 * _F1_QUAD * tb ** 4

    def moments(self, tails: _F1Tails, order: int = 2,
                harmonics: bool = True) -> tuple[float, ...]:
        """(I1, I2), or with order 4 (I1, I2, I3, I4), from a tail table
        that holds this window to that harmonic; with harmonics False, to
        harmonic 2, the omega = 3, 4 terms of I3 and I4 left to the caller.
        Past EXP_PHASE_MAX only (I1, I2), their oscillating parts bounded."""
        if not self.computed:
            return 0.0, self.smooth2
        x0, x1 = self.x0, self.x1
        i1, t3 = tails(1, x0, x1)
        o2, t4 = tails(2, x0, x1)
        if order == 2:
            return i1, self.smooth2 + 0.5 * o2
        h3, h4 = (tails(3, x0, x1), tails(4, x0, x1)) if harmonics else (0.0, 0.0)
        i3 = 0.25 * h3 + 0.75 * t3
        i4 = self.smooth4 + 0.5 * t4 + 0.125 * h4
        return i1, self.smooth2 + 0.5 * o2, i3, i4


def _f1_E_job(p: Potential, r: float, plan):
    """E(r) for figure1 from the expansion, pending its tail table: the
    window (from the scan's _f1_plan), the highest harmonic it needs and the
    function that gives E from a table holding it (see _F1Tails); None
    where the error bound exceeds _EXPANSION_REL |E|.

    In x = 2t, delta = c - T on [x0, x0 + 4] with c = T(x0), and the series
    of cosh and sinh give E = 4 J2 - J1^2 + R4 + rest, J_k = int delta^k dx,
    R4 = (4/3) J4 + J2^2 - (4/3) J1 J3, |rest| <= 25 m^6 with
    m = sup|delta| <= 2 tail_sup(x0). c cancels from 4 J2 - J1^2 = 4 I2 - I1^2.
    J3 and J4 follow from c and the moments I1 .. I4 of T, all four
    computed (see _F1Window). With |c| <= tb and |J1| <= 8 tb, the errors
    err3 and err4 of I3 and I4 move R4 by at most 16 tb err3 + (4/3) err4;
    errors dc in c (the rest of the expansion, and the rounding of the
    phase e^x), err1 and err2 move it by at most
    200 m^2 (m dc + m err1 + err2). Past EXP_PHASE_MAX c has no usable
    phase, so R4 is left out and bounded: |R4| <= 43 m^4. The omega = 3, 4
    terms of I3 and I4 (Re int e^{3ie^x} Phi^3 / 4 and Re int e^{4ie^x} Phi^4
    / 8, each integral at most 8 e^{-x0} tb^omega / omega as osc1) move R4 by
    at most 11 e^{-x0} tb^4; below the rounding of E (from r = 5.75) they
    are left to that bound. The bound falls below 1e-7 E from r = 2.5,
    where a sampled window needs 202 569 nodes."""
    x0 = 2.0 * r
    span = 4.0
    w = plan[(x0, x0 + span)]
    m = 2.0 * p.tail_sup(x0)
    if w.computed:
        dc = w.tau + 2.0 * math.exp(x0) * np.finfo(float).eps * w.tb
        r4_err = (16.0 * w.tb * w.err3 + 4.0 / 3.0 * w.err4
                  + 200.0 * m * m * (m * (dc + w.err1) + w.err2))
    else:
        r4_err = 43.0 * m ** 4
    err = (4.0 * w.err2 + 2.0 * w.abs1 * w.err1 + w.err1 ** 2
           + r4_err + 25.0 * m ** 6)
    lower = 4.0 * (w.smooth2 - w.osc2 - w.err2) - (w.abs1 + w.err1) ** 2 - 43.0 * m ** 4
    harmonics = 11.0 * math.exp(-x0) * w.tb ** 4
    computed = harmonics > np.finfo(float).eps * lower
    if not computed:
        err += harmonics
    if not err <= _EXPANSION_REL * lower:
        return None

    def value(tails):
        if not w.computed:
            i1, i2 = w.moments(tails)
            return WindowValue(4.0 * i2 - i1 * i1, "expansion", err)
        i1, i2, i3, i4 = w.moments(tails, 4, computed)
        c = (cmath.exp(1j * math.exp(x0)) * w.phi0).real
        j1 = span * c - i1
        j2 = span * c ** 2 - 2.0 * c * i1 + i2
        j3 = span * c ** 3 - 3.0 * c ** 2 * i1 + 3.0 * c * i2 - i3
        j4 = span * c ** 4 - 4.0 * c ** 3 * i1 + 6.0 * c ** 2 * i2 - 4.0 * c * i3 + i4
        r4 = 4.0 / 3.0 * j4 + j2 * j2 - 4.0 / 3.0 * j1 * j3
        return WindowValue(4.0 * i2 - i1 * i1 + r4, "expansion", err)

    return w, 4 if computed else 2, value


def _f1_D_job(r: float, plan):
    """D(r) for figure1 from the expansion, pending its tail table (as
    _f1_E_job), or None where the error bound exceeds _EXPANSION_REL D. With
    g = T(r) - T on [r, r+2], D = 2 int g^2 - (int g)^2 = 2 I2 - I1^2
    exactly: T(r) cancels."""
    w = plan[(r, r + 2.0)]
    err = 2.0 * w.err2 + 2.0 * w.abs1 * w.err1 + w.err1 ** 2
    lower = 2.0 * (w.smooth2 - w.osc2 - w.err2) - (w.abs1 + w.err1) ** 2
    if not err <= _EXPANSION_REL * lower:
        return None

    def value(tails):
        i1, i2 = w.moments(tails)
        return WindowValue(2.0 * i2 - i1 * i1, "expansion", err)

    return w, 2, value


def _E_window(p: Potential, r: float, plan):
    """E(r) by the first route that applies: exact_zero, ode, figure1's
    expansion, sampled. Returns a WindowValue, or for the expansion the
    pending (window, omega, value) job of _f1_E_job."""
    # E <= 4 v^2 (1 + 8 v) for v = 4 tail_sup(2r) <= 1/2, a bound that is 0
    # exactly where v^2 underflows
    if (ts := p.tail_sup(2.0 * r)) is not None and (4.0 * ts) ** 2 == 0.0:
        return WindowValue(0.0, "exact_zero", 0.0)
    if p.phase() is None:
        E, error, substeps = _entropy_ode(p, r)
        return WindowValue(E, "ode", error, substeps)

    if p.family == "figure1" and (job := _f1_E_job(p, r, plan)) is not None:
        return job
    fine, coarse, floor, nodes = _entropy_sampled(p, r, _window_budget(p, r, r + 2.0, 2.0))
    if abs(fine - coarse) > _ROUTE_REL * abs(fine) + floor:
        raise RouteDisagreement(
            f"sampled entropy at r={r} moves beyond tolerance between h and 2h: "
            f"{fine:.12g} against {coarse:.12g}", fine, coarse)
    return WindowValue(fine, "sampled", abs(fine - coarse) + floor, nodes)


def _D_window(p: Potential, r: float, plan):
    """D(r) by the first route that applies: exact_zero, figure1's
    expansion, sampled; as _E_window."""
    if p.tail_sup(r) == 0.0:
        return WindowValue(0.0, "exact_zero", 0.0)
    if p.family == "figure1" and (job := _f1_D_job(r, plan)) is not None:
        return job
    fine, coarse, floor, nodes = _variation_sampled(p, r, _window_budget(p, r, r + 2.0, 1.0))
    return WindowValue(fine, "sampled", abs(fine - coarse) + floor, nodes)


def entropy_E(p: Potential, r: float) -> WindowValue:
    """Determinant entropy E(r), with its route and error estimate: the scan
    of one window (see _windows and _E_window).

    Exactly 0 only where the tail envelope bound is exactly 0 (past a support
    bound, or where the bound underflows). A coefficient of constant phase
    takes one sampled pass (see _entropy_sampled), figure1 its expansion
    wherever that is accurate to _EXPANSION_REL; RouteDisagreement is raised
    when the pass on every other node differs by more than _ROUTE_REL |E|
    plus a rounding floor. A coefficient whose phase may vary takes the Gram
    ODE, det int N^T N - 4 (see _entropy_ode), with its integral's error. A
    window that no route can resolve raises KernelError.
    """
    return _windows(p, [r], [])[0][0]


def variation_D(p: Potential, r: float) -> WindowValue:
    """Local variation over [r, r+2]:
    2 int |g|^2 - |int g|^2 with g(t) = int_r^t a; the scan of one window.

    Exactly 0 only where tail_sup is exactly 0. Sampled, with the change on
    every other node plus a rounding floor as the error estimate; figure1
    takes its expansion wherever that is accurate to _EXPANSION_REL."""
    return _windows(p, [], [r])[1][0]


def _variation_sampled(p: Potential, r: float, n_total: int):
    """D(r) from one sampled pass, D from every other node, the rounding
    floor of their difference and the node count. For a = u psi of constant
    phase u, |g|^2 and |int g|^2 are those of psi: a real pass."""
    u = p.phase()
    sums, nodes = _sampled_sums(
        (lambda t: np.asarray(p(t), dtype=complex)) if u is None else _psi(p, u),
        r, r + 2.0, p.breakpoints(), n_total, lambda g: (np.abs(g) ** 2, g.real, g.imag))
    D = 2.0 * sums[:, 0] - sums[:, 1] ** 2 - sums[:, 2] ** 2
    return float(D[0]), float(D[1]), _rounding(2.0 * sums[0, 0] + sums[0, 1] ** 2
                                               + sums[0, 2] ** 2), nodes


def _sum_of(terms) -> EntropySum:
    return EntropySum(total=float(np.sum(terms)), last_term=float(terms[-1]),
                      n_terms=len(terms))


def _windows(p: Potential, E_at, D_at) -> tuple[list, list]:
    """E at each r of E_at and D at each r of D_at. Each window's route is
    decided in order (see _E_window, _D_window), so that a window that fails
    raises in that order; figure1's windows are built in few passes (see
    _f1_plan), and those that take the expansion are computed last, from
    one tail table (see _F1Tails). Raises ValueError for an r below 0."""
    if not all(r >= 0 for r in itertools.chain(E_at, D_at)):
        raise ValueError("r must be >= 0")
    plan = _f1_plan(p, E_at, D_at) if p.family == "figure1" else {}
    E = [_E_window(p, r, plan) for r in E_at]
    D = [_D_window(p, r, plan) for r in D_at]
    # what is left pending is a (window, omega, value) job, not a WindowValue
    tails = _F1Tails([v[:2] for v in E + D if isinstance(v, tuple)])
    return ([v[2](tails) if isinstance(v, tuple) else v for v in E],
            [v[2](tails) if isinstance(v, tuple) else v for v in D])


def entropy_sum(p: Potential, N: int) -> EntropySum:
    """Sum of E over integer windows n = 0..N."""
    if N < 0:
        raise ValueError("N must be >= 0")
    return _sum_of(_windows(p, [float(n) for n in range(N + 1)], [])[0])


def _truncation(p: Potential) -> tuple[float, float]:
    """Truncation point X of the H^-1 integral and a bound on the part past
    it: 0 past a support bound, however long; m (|a|_2 / 2 + m) with m the
    L2 norm of a past X (Cauchy-Schwarz and Young), where X is an effective
    support plus 1 and m is below _MASS_TOL. figure1 has none: its part past
    the sampled range comes from _f1_h_tail. X is never clamped: a
    coefficient too long to sample is refused by sobolev_h_minus1's node budget."""
    if p.support_bound is not None:
        return p.support_bound, 0.0
    if (eff := p.effective_support(_MASS_TOL)) is not None:
        return eff + 1.0, _MASS_TOL * (0.5 * p.l2_norm + _MASS_TOL)
    if p.family == "gaussian":
        raise KernelError("the gaussian's L2 tail stays above "
                          f"{_MASS_TOL:g} at every finite point")
    raise ValueError(f"no truncation point known for the {p.family} coefficient")


def _h_minus1_sum(x, a, total, c):
    """total plus the Boole sums of Re a conj(C) on each panel of a block, C(x)
    = int_0^x a(y) e^{-(x-y)} dy = c at the first node, and C at the last: by
    cumulative Boole of a(y) e^{y - x_j} on runs of 4k steps and about unit
    length from a node x_j, so that no e^{y - x_j} exceeds e. C and total
    carry across runs in panel order."""
    n = x.shape[1]
    h = (x[:, -1] - x[:, 0]) / (n - 1)
    sums, rows = [], slice(0, 0)
    for m, group in itertools.groupby(min(4 * max(1, int(0.25 / v)), n - 1) for v in h):
        rows = slice(rows.stop, rows.stop + len(list(group)))   # panels of run length m
        grow = np.exp(h[rows, None] * np.arange(m + 1))
        runs = [slice(j, min(j + m, n - 1) + 1) for j in range(0, n - 1, m)]
        B = [cumulative_boole((a[rows, r] * grow[:, :r.stop - r.start]).T, h[rows]).T for r in runs]
        cs = list(itertools.accumulate(zip(np.stack([b[:, -1] for b in B], -1).ravel(),
                                           grow[:, [b.shape[1] - 1 for b in B]].ravel()),
                                       lambda c, t: (c + t[0]) / t[1], initial=c))
        c = cs.pop()
        C = np.empty(B[0].shape[:1] + (n,), dtype=B[0].dtype)
        for r, b, c0 in zip(runs, B, np.reshape(cs, (len(B), -1), order="F")):
            C[:, r] = (c0[:, None] + b) / grow[:, :r.stop - r.start]
        sums.append(np.add.reduce(boole_weights(x[rows]) * a[rows] * np.conj(C), axis=-1).real)
    return float(np.cumsum(np.concatenate(([total], *sums)))[-1]), c


def _f1_h_tail(x0: float):
    """figure1's H^-1 integral past x0 as part(C(x0)) -> (value, bound). Past
    x0, C = e^{x0-x} C(x0) + e^{-x} S with S = int_x0^x e^y a = Im(e^{ie^x} Psi)
    - sigma0 + rest, Psi = -i sum_{k<K} i^k e^{-kx} p_k(s) (_f1_amplitude_polys),
    sigma0 that term at x0, |rest| <= R = e^{-(K-1)x0} |p_K|(s0) / (K-1). As
    2 sin(e^x) Im(e^{ie^x} Psi) = Re Psi - Re(e^{2ie^x} Psi), the value is
    (C(x0) - sigma0 e^{-x0}) Im int e^{ie^x} e^{x0-x} / (1+x) plus int e^{-x}
    (Re Psi - Re(e^{2ie^x} Psi)) / 2(1+x), whose smooth part is summed on unit
    Gauss panels to EXP_PHASE_MAX. The bound is R e^{-x0} s0 plus each tail's
    _F1_QUAD sup|g| and rounding of its phase."""
    s0, decay = 1.0 / (1.0 + x0), math.exp(-x0)
    psi0 = -1j * _f1_phi(x0, 0)
    sigma0 = (cmath.exp(1j * math.exp(x0)) * psi0).imag
    t1 = exp_phase_tail(lambda x: np.exp(x0 - x) / (1.0 + x), x0).imag
    osc = exp_phase_tail(lambda x: np.exp(-x) * -1j * _f1_phi(x, 0) / (1.0 + x), x0, 2.0)
    lo = x0 + np.arange(math.ceil(EXP_PHASE_MAX - x0))
    smooth = np.sum(_gauss_panel(lambda x: np.exp(-x) * _f1_phi(x, 0).imag / (1.0 + x),
                                 lo, lo + 1.0))
    rest = math.exp(-_F1_TERMS * x0) * polyval(s0, np.abs(_F1_P[-1])) / (_F1_TERMS - 1) * s0

    def part(c0):
        lead = c0 - sigma0 * decay
        quad = _F1_QUAD * s0 * (abs(lead) + 0.5 * decay * abs(psi0))
        phase = math.exp(x0) * np.finfo(float).eps * (abs(lead * t1) + 2.0 * abs(osc))
        return float(lead * t1 + 0.5 * (smooth - osc.real)), rest + quad + phase
    return part


# SobolevNorm rejects the non-finite value of an overflow; no numpy warning
@np.errstate(over="ignore", invalid="ignore")
def sobolev_h_minus1(p: Potential, cutoff=None, *, _split=_F1_SPLIT) -> SobolevNorm:
    """H^-1 norm int |Fa|^2/(1+xi^2) dxi, F normalised by 1/sqrt(2 pi), in
    direct space: 1/2 int int a(x) conj(a(y)) e^{-|x-y|} dx dy, as the
    inverse transform of 1/(1+xi^2) is pi e^{-|x|}; one Boole pass over
    the blocks (see _blocks) of [0, X] (see _truncation) with
    max(2048 X, _SOBOLEV_NODES) nodes; figure1's part past X = _split comes
    from its expansion (see _f1_h_tail). tail_bound is the error estimate:
    the change from the same sum on every other node, plus the bound on the
    part past X, plus _ROUNDING_ULPS ulps of the value.
    ``cutoff`` is accepted and ignored. Raises ValueError if a is not in L2
    (an uncut constant) or has no known truncation point, KernelError if the
    node count exceeds _N_CAP or the sums overflow (as where |a|_2 does)."""
    if p.family == "constant" and p.support_bound is None:
        raise ValueError("the H^-1 norm needs a square-integrable coefficient")
    hi, truncated = (_split, 0.0) if p.family == "figure1" else _truncation(p)
    if p.l2_norm == 0.0 or hi <= 0.0:
        return SobolevNorm(0.0, 0.0)
    sums = [(0.0, 0.0)] * 2     # (sum, C) on all nodes, on every other node
    n = math.ceil(max(2048.0 * hi, _SOBOLEV_NODES))
    for x, a in _blocks(p, 0.0, hi, p.breakpoints(), n)[1]:
        sums = [_h_minus1_sum(x[:, ::k], a[:, ::k], *sc) for k, sc in zip((1, 2), sums)]
    (value, c), (coarse, c_coarse) = sums
    if p.family == "figure1":
        (tail, truncated), (tail_coarse, _) = map(_f1_h_tail(hi), (c, c_coarse))
        value, coarse = value + tail, coarse + tail_coarse
    rounding = _ROUNDING_ULPS * np.finfo(float).eps * abs(value)
    return SobolevNorm(value=value, tail_bound=abs(value - coarse) + truncated + rounding)


def _fit_or_flag(r: np.ndarray, m: np.ndarray) -> DecayFit:
    try:
        return fit_decay(np.column_stack([r, m]))
    except InsufficientDataError:
        return DecayFit(alpha_hat=math.nan, c_hat=math.nan, offset=math.nan,
                        residual=math.inf, window=(float(r[0]), float(r[-1])),
                        n_used=int(np.sum(m > _FIT_FLOOR)))


def _scan_of(grid: Grid, E, D) -> EntropyScan:
    E = np.array(E, dtype=float)
    D = np.array(D, dtype=float)
    ratio = np.where(D > _RATIO_FLOOR, E / np.where(D > _RATIO_FLOOR, D, 1.0), np.nan)
    return EntropyScan(r_grid=grid, E=E, D=D, ratio=ratio,
                       fit_E=_fit_or_flag(grid.points, np.abs(E)),
                       fit_D=_fit_or_flag(grid.points, np.abs(D)))


def equivalence_scan(p: Potential, r_grid) -> EntropyScan:
    """E and D along the grid with ratios and decay fits of both columns."""
    grid = Grid.coerce(r_grid)
    return _scan_of(grid, *_windows(p, grid.points, grid.points))


def classify_alpha(p: Potential, r_grid) -> DecayFit:
    """Decay-class estimate from the variation column (the computable proxy
    for the entropy decay class)."""
    grid = Grid.coerce(r_grid)
    D = np.array(_windows(p, [], grid.points)[1])
    return fit_decay(np.column_stack([grid.points, np.abs(D)]))
