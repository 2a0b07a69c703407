"""Shared numerical primitives.

Adaptive quadrature, ODE propagation across breakpoints with dense output,
stretched-exponential decay fitting, power-series coefficient extraction from
circle samples, and the oscillatory tail machinery used for integrands of the
form trig(omega*e^x) * g(x).

All routines are pure functions of their arguments and deterministic.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp


class KernelError(Exception):
    """Base class for numerical-kernel failures."""


class QuadratureError(KernelError):
    """Adaptive quadrature did not reach the requested tolerance.

    Carries the best estimate obtained and the error bound actually achieved.
    """

    def __init__(self, message, best_estimate, achieved_tol):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.achieved_tol = achieved_tol


class OdeStepError(KernelError):
    """ODE stepper failed; carries the last good time and state."""

    def __init__(self, message, last_t, last_state):
        super().__init__(message)
        self.last_t = last_t
        self.last_state = last_state


class InsufficientDataError(KernelError):
    """Too few usable samples for the requested fit."""


class SeriesTailWarning(UserWarning):
    """Truncated series tail estimate exceeds the working tolerance."""


@dataclass(frozen=True)
class Grid:
    """Strictly increasing array of real abscissae with left endpoint >= 0."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("grid must be a nonempty 1-d array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("grid points must be finite")
        if pts[0] < 0:
            raise ValueError("grid left endpoint must be >= 0")
        if pts.size > 1 and not np.all(np.diff(pts) > 0):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def coerce(cls, obj) -> "Grid":
        if isinstance(obj, Grid):
            return obj
        return cls(np.asarray(obj, dtype=float))

    def __len__(self):
        return self.points.size

    def __iter__(self):
        return iter(self.points)


@dataclass
class DecayFit:
    """Result of fitting |m(r)| ~ exp(-(c r^alpha + offset)).

    ``zero_tail`` is set when every sample is at or below the magnitude floor;
    ``sub_exponential`` when the fitted exponent falls below 1. ``residual``
    is the RMS misfit of log(-log m) against the fitted model.
    """

    alpha_hat: float
    c_hat: float
    offset: float
    residual: float
    window: tuple[float, float]
    n_used: int
    zero_tail: bool = False
    sub_exponential: bool = False


# ---------------------------------------------------------------------------
# adaptive quadrature (Gauss 7 / Kronrod 15, worst-interval-first)
# ---------------------------------------------------------------------------

_K15_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_K15_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_G7_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])
_G7_IDX = np.arange(1, 15, 2)  # Gauss nodes sit at the odd Kronrod nodes


def _eval_nodes(f: Callable, x: np.ndarray) -> np.ndarray:
    """f on the whole node array in one call; f must accept arrays."""
    y = np.asarray(f(x))
    if y.shape != x.shape:
        raise ValueError(f"function returned shape {y.shape} on {x.size} nodes; "
                         "it must map an array to an array of the same shape")
    return y


def _gk15(f, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y = _eval_nodes(f, mid + half * _K15_NODES)
    k15 = half * np.sum(_K15_WEIGHTS * y)
    g7 = half * np.sum(_G7_WEIGHTS * y[_G7_IDX])
    return k15, abs(k15 - g7)


def adaptive_quad(f: Callable, a: float, b: float, tol: float,
                  max_intervals: int = 8000):
    """Integrate f over [a, b] to within tol*(1 + |Q|).

    Works for real- or complex-valued integrands; f is called on arrays of
    nodes and must return an array of the same shape. Raises QuadratureError
    (carrying the best estimate and the achieved error bound) if the
    requested tolerance is not reached within the interval budget.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if a > b:
        raise ValueError("need a <= b")
    if a == b:
        return 0.0

    val, err = _gk15(f, a, b)
    # heap of (-err, a, b, value); total value/error tracked incrementally
    heap = [(-err, a, b, val)]
    total = val
    total_err = err
    n = 1
    while total_err > tol * (1.0 + abs(total)) and n < max_intervals:
        neg_e, lo, hi, v = heapq.heappop(heap)
        total -= v
        total_err += neg_e
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        total += v1 + v2
        total_err += e1 + e2
        n += 2
    if not np.isfinite(abs(total)) or not np.isfinite(total_err):
        raise QuadratureError(
            f"integrand produced non-finite values on [{a}, {b}]",
            best_estimate=total, achieved_tol=math.inf)
    if total_err > tol * (1.0 + abs(total)):
        raise QuadratureError(
            f"adaptive quadrature did not converge on [{a}, {b}]: "
            f"error bound {total_err:.3e} after {n} intervals",
            best_estimate=total, achieved_tol=total_err)
    return total


# ---------------------------------------------------------------------------
# ODE propagation
# ---------------------------------------------------------------------------

def breakpoint_segments(lo: float, hi: float, breaks) -> list[tuple[float, float]]:
    """[lo, hi] cut at the increasing ``breaks`` that lie strictly inside it."""
    cuts = [lo] + [b for b in breaks if lo < b < hi] + [hi]
    return list(zip(cuts[:-1], cuts[1:]))


def propagate(rhs: Callable, y0, lo: float, hi: float, tol: float,
              breaks=(), t_eval=None) -> np.ndarray:
    """Integrate y' = rhs(t, y) from y(lo) = y0 (a 1-d array) to hi.

    The interval is cut at ``breaks`` (see breakpoint_segments), so that
    piecewise coefficients keep the stepper's full order, and the state is
    carried across the cuts. Each piece is one adaptive DOP853 solve.
    Returns the state at hi; given ``t_eval`` (increasing points of [lo, hi])
    it returns the states there instead, as rows read from dense output.
    When lo == hi the stepper is not called: the result is y0 (or its row).
    A failed step raises OdeStepError with the last time and state reached.
    """
    y = np.asarray(y0)
    if t_eval is not None:
        ts = np.asarray(t_eval, dtype=float)
        rows = [y[None, :]] if ts[0] == lo else []
    for a, b in breakpoint_segments(lo, hi, breaks) if hi != lo else ():
        seg = None
        if t_eval is not None:
            inner = ts[(ts > a) & (ts <= b)]
            seg = inner if inner.size and inner[-1] == b else np.append(inner, b)
        sol = solve_ivp(rhs, (a, b), y, method="DOP853", t_eval=seg,
                        rtol=max(tol, 1e-13), atol=tol * 1e-2 + 1e-300)
        if sol.status != 0:
            # with t_eval, sol.t is an empty list until an output point is reached
            last_t, last_y = (sol.t[-1], sol.y[:, -1]) if len(sol.t) else (a, y)
            raise OdeStepError(f"ODE stepper failed on [{a}, {b}]: {sol.message}",
                               last_t, last_y)
        y = sol.y[:, -1]
        if t_eval is not None:
            rows.append(sol.y[:, :inner.size].T)
    return y if t_eval is None else np.concatenate(rows)


# ---------------------------------------------------------------------------
# decay fitting
# ---------------------------------------------------------------------------

def _decay_rss(alpha, r, y):
    """Best RSS of y ~ c*r^alpha + beta at fixed alpha, plus (c, beta)."""
    x = r ** alpha
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    res = y - A @ coef
    return float(res @ res), float(coef[0]), float(coef[1])


def fit_decay(samples, floor: float = 1e-13) -> DecayFit:
    """Fit a stretched-exponential decay class to (r, magnitude) samples.

    Model: -log m = c r^alpha + offset, solved by a deterministic scan over
    alpha with a linear least-squares subproblem (convex at each alpha, no
    initialization). Samples at or below ``floor`` are discarded; if all of
    them are, the identically-zero-tail flag is set instead of fitting.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("samples must be an (n, 2) array of (r, magnitude)")
    r = arr[:, 0]
    m = arr[:, 1]
    if np.any(np.diff(r) <= 0):
        raise ValueError("r values must be increasing")
    if np.any(m < 0):
        raise ValueError("magnitudes must be nonnegative")

    window = (float(r[0]), float(r[-1]))
    if np.all(m <= floor):
        return DecayFit(alpha_hat=math.nan, c_hat=math.nan, offset=math.nan,
                        residual=0.0, window=window, n_used=0, zero_tail=True)

    usable = (m > floor) & (m < 1.0) & (r > 0)
    r_u, m_u = r[usable], m[usable]
    if r_u.size < 4:
        raise InsufficientDataError(
            f"only {r_u.size} usable samples (need at least 4)")

    y = -np.log(m_u)

    alphas = np.arange(0.05, 8.0 + 1e-9, 0.05)
    rss = np.array([_decay_rss(al, r_u, y)[0] for al in alphas])
    k = int(np.argmin(rss))
    lo = alphas[max(k - 1, 0)]
    hi = alphas[min(k + 1, alphas.size - 1)]
    # golden-section refinement on the bracketing interval
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c_pt = hi - invphi * (hi - lo)
    d_pt = lo + invphi * (hi - lo)
    fc = _decay_rss(c_pt, r_u, y)[0]
    fd = _decay_rss(d_pt, r_u, y)[0]
    for _ in range(70):
        if fc < fd:
            hi, d_pt, fd = d_pt, c_pt, fc
            c_pt = hi - invphi * (hi - lo)
            fc = _decay_rss(c_pt, r_u, y)[0]
        else:
            lo, c_pt, fc = c_pt, d_pt, fd
            d_pt = lo + invphi * (hi - lo)
            fd = _decay_rss(d_pt, r_u, y)[0]
        if hi - lo < 1e-9:
            break
    alpha = 0.5 * (lo + hi)
    _, c_hat, offset = _decay_rss(alpha, r_u, y)

    model = c_hat * r_u ** alpha + offset
    ok = (model > 0) & (y > 0)
    if np.any(ok):
        residual = float(np.sqrt(np.mean(
            (np.log(model[ok]) - np.log(y[ok])) ** 2)))
    else:
        residual = math.inf
    return DecayFit(alpha_hat=float(alpha), c_hat=c_hat, offset=offset,
                    residual=residual, window=window, n_used=int(r_u.size),
                    sub_exponential=bool(alpha < 1.0 or c_hat <= 0))


# ---------------------------------------------------------------------------
# power-series coefficients from circle samples
# ---------------------------------------------------------------------------

def series_coeffs_from_samples(f: Callable, degree: int, radius: float = 1.0,
                               n_samples: int | None = None) -> np.ndarray:
    """Taylor coefficients of f at 0 up to ``degree`` by circle sampling.

    Samples f on n equispaced points of |s| = radius, in one call on the
    array of all n points, and inverts the discrete Fourier transform. Exact
    (to roundoff) on polynomials of degree <= degree whenever n > degree.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if n_samples is None:
        n_samples = 256
        while n_samples < 4 * (degree + 1):
            n_samples *= 2
    theta = 2.0 * np.pi * np.arange(n_samples) / n_samples
    z = radius * np.exp(1j * theta)
    vals = _eval_nodes(f, z).astype(complex)
    c = np.fft.fft(vals) / n_samples
    k = np.arange(degree + 1)
    return c[: degree + 1] / radius ** k


# ---------------------------------------------------------------------------
# oscillatory tails: integral_{x0}^inf trig(omega e^x) g(x) dx
# ---------------------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def _gauss_panel(w: Callable, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """16-point Gauss-Legendre on each [lo_i, hi_i]; vectorized over panels."""
    lo = np.atleast_1d(lo)
    hi = np.atleast_1d(hi)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _GL_X[None, :]
    return half * (w(nodes) @ _GL_W)


def exp_phase_tail(g: Callable, x0: float, omega: float = 1.0,
                   kind: str = "sin", n_half: int = 500,
                   n_avg: int = 14) -> float:
    """Convergent value of integral_{x0}^inf trig(omega e^x) g(x) dx.

    Substitutes u = omega e^x and sums half-period Gauss panels of the
    resulting integrand trig(u) g(log(u/omega))/u, then accelerates the
    alternating partial sums by iterated averaging. ``g`` must accept numpy
    arrays. Designed for slowly varying g; the oscillation of the phase does
    the convergence work.
    """
    if kind == "sin":
        trig = np.sin
    elif kind == "cos":
        trig = np.cos
    else:
        raise ValueError("kind must be 'sin' or 'cos'")

    def w(u):
        return trig(u) * g(np.log(u / omega)) / u

    a = omega * math.exp(x0)
    # zero spacing of both sin and cos is pi; anchor panels at multiples of pi
    k0 = int(math.floor(a / math.pi)) + 1
    # head [a, k0 pi], subdivided for the steep 1/u factor near small a
    head_edges = np.linspace(a, k0 * math.pi, 5)
    head = float(np.sum(_gauss_panel(w, head_edges[:-1], head_edges[1:])))

    ks = np.arange(k0, k0 + n_half, dtype=float)
    terms = _gauss_panel(w, ks * math.pi, (ks + 1.0) * math.pi)
    partial = head + np.cumsum(terms)

    arr = partial[-(n_avg + 48):]
    for _ in range(n_avg):
        arr = 0.5 * (arr[:-1] + arr[1:])
    return float(arr[-1])


def exp_phase_integral(g: Callable, x0: float, x1: float, omega: float = 1.0,
                       kind: str = "sin") -> float:
    """Finite-range counterpart of exp_phase_tail over [x0, x1]."""
    return exp_phase_tail(g, x0, omega, kind) - exp_phase_tail(g, x1, omega, kind)
