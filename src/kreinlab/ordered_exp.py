"""Ordered exponentials of trace-free symmetric 2x2 generators.

Covers iterated integrals, the time-ordered series for X' = A X, the Gram
determinant F_A(s) = det int_0^1 X_{sA} X_{sA}^T dt, its Taylor coefficients
by the structural (matrix) route and by explicit low-order formulas, and the
variation statistics (mean, variation, derivative norm, gamma) used by the
smallness bounds on iterated integrals.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from .kernel import (SeriesTailWarning, boole_weights, cumulative_boole, fold_mirrors, propagate,
                     row_gram)

N_GRID = 4097
# random_coeff_pair's modes and norm range, random_admissible_family's norms
_N_MODES = 3
_NORM_RANGE = (0.3, 0.95)
_DELTA_RANGE = (0.02, 0.1)

J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _grid(n: int) -> np.ndarray:
    """Uniform grid of [0, 1] with n nodes rounded up to 4k + 1, a Boole grid."""
    return np.linspace(0.0, 1.0, n + (1 - n) % 4)


def _cum(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    return cumulative_boole(y, x[1] - x[0])


def _int(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Boole integral of samples y along axis 0 of the grid x."""
    return np.tensordot(boole_weights(x), y, axes=1)


@dataclass
class CoeffPair:
    """Pair of real functions (p, q) on [0, 1] generating A = ((-q, p), (p, q)).

    ``_tables`` samples p and q once on a uniform grid of [0, 1] and holds
    their antiderivatives vanishing at 0.
    """

    p: Callable
    q: Callable
    n_grid: int = N_GRID
    _tab: tuple | None = field(default=None, repr=False)

    def _tables(self):
        if self._tab is None:
            x = _grid(self.n_grid)
            pv = np.broadcast_to(np.asarray(self.p(x), dtype=float), x.shape).copy()
            qv = np.broadcast_to(np.asarray(self.q(x), dtype=float), x.shape).copy()
            self._tab = (x, pv, qv, _cum(pv, x), _cum(qv, x))
        return self._tab

    @property
    def p_is_zero(self) -> bool:
        _, pv, _, _, _ = self._tables()
        return bool(np.max(np.abs(pv)) == 0.0)

    @property
    def q_is_zero(self) -> bool:
        _, _, qv, _, _ = self._tables()
        return bool(np.max(np.abs(qv)) == 0.0)

    def scaled(self, s: float) -> "CoeffPair":
        return CoeffPair(lambda t, f=self.p: s * np.asarray(f(t)),
                         lambda t, f=self.q: s * np.asarray(f(t)),
                         n_grid=self.n_grid)

    @classmethod
    def constant(cls, p0: float, q0: float, n_grid: int = N_GRID) -> "CoeffPair":
        return cls(lambda t: np.full_like(np.asarray(t, dtype=float), p0),
                   lambda t: np.full_like(np.asarray(t, dtype=float), q0),
                   n_grid=n_grid)


@dataclass
class MatrixPath:
    """2x2 matrix values along a t-grid on [0, 1], X(0) = identity."""

    t_grid: np.ndarray
    values: np.ndarray


def iterated_integral(fs: Sequence, t: float, n_grid: int = N_GRID) -> float:
    """(f_1 ... f_n)_t: nested simplex integral, outermost function first.

    Accepts callables on [0, 1] or arrays already sampled on the shared grid.
    """
    if len(fs) == 0:
        raise ValueError("need at least one function")
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    x = _grid(n_grid)
    vals = []
    for f in fs:
        v = np.asarray(f if isinstance(f, np.ndarray) else f(x), dtype=float)
        if v.shape != x.shape:
            raise ValueError("sampled function does not match the grid")
        vals.append(v)
    acc = _cum(vals[-1], x)
    for v in vals[-2::-1]:
        acc = _cum(v * acc, x)
    return float(np.interp(t, x, acc))


def _chain_mean(vals: list[np.ndarray], x: np.ndarray) -> float:
    """int_0^1 (f_1 ... f_n)_t dt for pre-sampled functions."""
    acc = _cum(vals[-1], x)
    for v in vals[-2::-1]:
        acc = _cum(v * acc, x)
    return float(_int(acc, x))


def _series_terms(A: CoeffPair, n_terms: int):
    """Time-ordered series terms M_k(t) on the shared grid, k = 0..n_terms."""
    x, pv, qv, _, _ = A._tables()
    p, q = pv[:, None], qv[:, None]
    terms = [np.broadcast_to(np.eye(2), (x.size, 2, 2)).copy()]
    for _ in range(n_terms):
        # A M with A = ((-q, p), (p, q)), row by row
        m0, m1 = terms[-1][:, 0], terms[-1][:, 1]
        terms.append(_cum(np.stack([-q * m0 + p * m1, p * m0 + q * m1], axis=1), x))
    return x, terms


def ordered_exp(A: CoeffPair, t: float, mode: str = "ode", n_terms: int = 12,
                tol: float = 1e-10, tail_tol: float = 1e-8) -> np.ndarray:
    """X_A(t): fundamental solution of X' = A X at time t.

    ``mode='series'`` sums the time-ordered series to ``n_terms`` on A's grid
    (a warning is attached when the tail estimate exceeds ``tail_tol``);
    ``mode='ode'`` integrates with the Magnus propagator at tolerance ``tol``.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    if mode == "series":
        x, terms = _series_terms(A, n_terms)
        stack = np.array([np.array([[np.interp(t, x, M[:, i, j]) for j in (0, 1)]
                                    for i in (0, 1)]) for M in terms])
        X = stack.sum(axis=0)
        last = np.max(np.abs(stack[-1]))
        prev = np.max(np.abs(stack[-2])) if n_terms >= 2 else math.inf
        ratio = last / prev if prev > 0 else 0.0
        tail = last * ratio / (1.0 - ratio) if 0 < ratio < 1 else last
        if tail > tail_tol:
            warnings.warn(f"series tail estimate {tail:.2e} exceeds {tail_tol:.1e}",
                          SeriesTailWarning)
        return X
    if mode == "ode":
        return ordered_exp_path(A, np.array([0.0, t]) if t > 0 else np.array([0.0]),
                                tol=tol).values[-1]
    raise ValueError("mode must be 'series' or 'ode'")


def _sa_gen(A: CoeffPair, s: np.ndarray):
    """Generators s A(t) = s ((-q, p), (p, q)) at times t for each s of a 1-d
    batch, as propagate's components (0, -q s, p s, p s): one p s array."""

    def gen(t):
        p = np.broadcast_to(np.asarray(A.p(t), dtype=float), t.shape)[:, None] * s
        q = np.broadcast_to(np.asarray(A.q(t), dtype=float), t.shape)[:, None] * -s
        return 0.0, q, p, p

    return gen


def _sa_start(s: np.ndarray) -> np.ndarray:
    return np.broadcast_to(np.eye(2, dtype=s.dtype), (s.size, 2, 2))


def ordered_exp_path(A: CoeffPair, t_grid=None, tol: float = 1e-10) -> MatrixPath:
    """X_A on a grid of times in [0, 1] via the Magnus propagator."""
    ts = _grid(1025) if t_grid is None else np.asarray(t_grid, dtype=float)
    one = np.ones(1)
    X = propagate(_sa_gen(A, one), _sa_start(one), ts[0], ts[-1], tol, t_eval=ts).y
    return MatrixPath(ts, X[:, 0])


def f_of_s(A: CoeffPair, s: complex | np.ndarray, n_grid: int | None = None,
           ode_tol: float = 1e-11):
    """F_A(s) = det int_0^1 X_{sA}(t) X_{sA}(t)^T dt (plain transpose).

    ``s`` is a number or a 1-d array of them; an array gives an array of the
    same length, computed as one batch. Values are real unless some s has a
    nonzero imaginary part (analytic continuation, used by the
    circle-sampling coefficient route); a scalar s gives a Python float or
    complex. A is real, so F_A(conj s) = conj F_A(s): the batch is folded
    onto Im s >= 0 and exact duplicates merge (kernel.fold_mirrors), so a
    conjugate pair costs one member. F is also even in s, but that is not
    used: the odd Taylor coefficients of circle samples are a check on it.
    A one-component generator (p or q identically zero, g its
    antiderivative) is diagonal in a fixed basis, so F = int e^{2sg} *
    int e^{-2sg} on a fine grid; the general case integrates the matrix ODE,
    with the Gram integral taken on its substeps.
    """
    if n_grid is not None and n_grid != A.n_grid:
        A = CoeffPair(A.p, A.q, n_grid=n_grid)
    x, _, _, gp, gq = A._tables()
    ss = np.atleast_1d(np.asarray(s, dtype=complex))
    ss, unfold = fold_mirrors(ss, np.conj(ss), ss.imag < 0)
    if not ss.imag.any():
        ss = ss.real

    if A.p_is_zero and A.q_is_zero:
        out = np.ones_like(ss)
    elif A.p_is_zero or A.q_is_zero:
        gs = np.outer(gq if A.p_is_zero else gp, ss)
        out = _int(np.exp(2.0 * gs), x) * _int(np.exp(-2.0 * gs), x)
    else:
        g = propagate(_sa_gen(A, ss), _sa_start(ss), 0.0, 1.0, ode_tol,
                      integrand=row_gram).integral
        out = g[:, 0] * g[:, 2] - g[:, 1] * g[:, 1]
    out = unfold(out)
    return out if np.ndim(s) else out.item()


def taylor_a(A: CoeffPair, n_max: int = 8) -> np.ndarray:
    """Taylor coefficients a_0..a_{n_max} of F_A via the structural route.

    Builds the series terms M_k, the Gram terms N_k = sum_m M_m M_{k-m}^T,
    their time averages L_k, and assembles even coefficients from det and
    mixed-det of the L's. Odd coefficients vanish identically and are
    returned as exact zeros.
    """
    if n_max > 8:
        raise ValueError("structural route capped at n_max = 8; "
                         "use circle sampling of f_of_s beyond")
    x, terms = _series_terms(A, n_max)
    L = []
    for k in range(n_max + 1):
        Nk = np.zeros((x.size, 2, 2))
        for m in range(k + 1):
            # M_m M_{k-m}^T: entry (i, j) is sum_l M_m[i, l] M_{k-m}[j, l]
            X, Y = terms[m], terms[k - m]
            Nk += X[:, :, None, 0] * Y[:, None, :, 0] + X[:, :, None, 1] * Y[:, None, :, 1]
        L.append(_int(Nk, x))
    out = np.zeros(n_max + 1)
    out[0] = 1.0
    for n in range(1, n_max // 2 + 1):
        val = float(np.linalg.det(L[n]))
        for k in range(n):
            # the mixed determinant, the polarization of det on 2x2 matrices
            M, N = L[k], L[2 * n - k]
            val += float(np.linalg.det(M + N) - np.linalg.det(M) - np.linalg.det(N))
        out[2 * n] = val
    return out


def diagonal_a_n(g: Callable, n: int) -> float:
    """Coefficient a_n for a diagonal generator with antiderivative g:
    (2^n / n!) * double integral of (g(x) - g(y))^n over the unit square,
    which by the binomial expansion is sum_k C(n, k) (-1)^k m_{n-k} m_k
    with the moments m_j = int (g - mean g)^j, by Boole's rule on N_GRID
    nodes. The terms k and n - k cancel exactly for odd n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    x = _grid(N_GRID)
    gv = np.asarray(g(x), dtype=float)
    w = boole_weights(x)
    d = gv - w @ gv
    m = [float(w @ d ** j) for j in range(n + 1)]
    total = math.fsum(math.comb(n, k) * (-1) ** k * (m[n - k] * m[k]) for k in range(n + 1))
    return 2.0 ** n / math.factorial(n) * total


def a2_variation(A: CoeffPair) -> float:
    """a_2 = 4 D(g_p) + 4 D(g_q) with D the variation functional."""
    x, _, _, gp, gq = A._tables()

    def D(g):
        return _int(g * g, x) - _int(g, x) ** 2

    return float(4.0 * D(gp) + 4.0 * D(gq))


def a4_explicit(A: CoeffPair) -> float:
    """a_4 from the eleven explicit simplex-integral terms."""
    x, pv, qv, _, _ = A._tables()

    def C(*names):
        vals = [qv if nm == "q" else pv for nm in names]
        return _chain_mean(vals, x)

    bracket = (
        2.0 * C("q", "q", "q", "q")
        - 2.0 * C("q", "q", "q") * C("q")
        + C("q", "q") ** 2
        + 2.0 * C("p", "p", "p", "p")
        - 2.0 * C("p", "p", "p") * C("p")
        + C("p", "p") ** 2
        + 2.0 * C("q", "q", "p", "p")
        + 2.0 * C("p", "p", "q", "q")
        + 2.0 * C("q", "q") * C("p", "p")
        - 2.0 * C("q") * C("q", "p", "p")
        - 2.0 * C("p") * C("p", "q", "q")
    )
    return float(16.0 * bracket)


# ---------------------------------------------------------------------------
# seeded random families for property tests
# ---------------------------------------------------------------------------

def _trig_poly(rng: np.random.Generator, n_modes: int, norm: float) -> Callable:
    """Random trigonometric polynomial with exact L2([0,1]) norm ``norm``."""
    a0 = rng.normal()
    ak = rng.normal(size=n_modes)
    bk = rng.normal(size=n_modes)
    raw = math.sqrt(a0 ** 2 + 0.5 * float(np.sum(ak ** 2 + bk ** 2)))
    scale = norm / raw if raw > 0 else 0.0

    def f(t, a0=a0 * scale, ak=ak * scale, bk=bk * scale):
        t = np.asarray(t, dtype=float)
        out = np.full_like(t, a0)
        for k in range(ak.size):
            out = out + ak[k] * np.cos(2 * np.pi * (k + 1) * t) \
                      + bk[k] * np.sin(2 * np.pi * (k + 1) * t)
        return out

    return f


def random_coeff_pair(rng: np.random.Generator) -> CoeffPair:
    """Seeded smooth pair of _N_MODES modes, ||p|| and ||q|| drawn in _NORM_RANGE."""
    np_norm, nq_norm = rng.uniform(*_NORM_RANGE, 2)
    return CoeffPair(_trig_poly(rng, _N_MODES, np_norm),
                     _trig_poly(rng, _N_MODES, nq_norm))


def random_admissible_family(rng: np.random.Generator, count: int) -> list[Callable]:
    """Seeded functions of L2 norm in _DELTA_RANGE, so their antiderivatives share
    small (eps, delta) stats: ||f|| <= delta forces sup|F| <= delta, eps <= delta^2."""
    return [_trig_poly(rng, rng.integers(1, 4), rng.uniform(*_DELTA_RANGE))
            for _ in range(count)]


def family_gamma(fs: Sequence[Callable]) -> float:
    """Shared gamma for a family: worst-case variation and derivative norm (N_GRID nodes)."""
    x = _grid(N_GRID)
    eps = 0.0
    delta = 0.0
    for f in fs:
        fv = np.asarray(f(x), dtype=float)
        Fv = _cum(fv, x)
        mean = _int(Fv, x)
        eps = max(eps, float(_int(Fv * Fv, x) - mean ** 2))
        delta = max(delta, float(math.sqrt(_int(fv * fv, x))))
    return math.sqrt(max(eps, 0.0)) + max(eps, 0.0) ** 0.25 * math.sqrt(delta)
