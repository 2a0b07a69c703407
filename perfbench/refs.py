"""Reference values computed apart from kreinlab.

Nothing here imports kreinlab: every value comes from a closed form, from
mpmath at 40 digits, from scipy.linalg.expm / scipy.integrate.quad, or from a
Gauss-Legendre or Magnus computation written out below. The references are
recomputed in every run; none is a stored copy of program output.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
# digits of every mpmath reference
MP_DPS = 40
# panels per chunk of the figure1 panel rules, which bounds their memory
F1_CHUNK = 4096
# fourth-order Magnus steps over a window of length 2
MAGNUS_STEPS = 4096
# figure1 H is integrated in u = e^x up to this u; the rest is O(u^-2)
F1_U_MAX = 1e5


# ---------------------------------------------------------------------------
# E(r): determinant entropy of a real coefficient
# ---------------------------------------------------------------------------
#
# For real a the Dirac generator is diagonal, N(s) = diag(e^{d(s)}, e^{-d(s)})
# with d(s) = -int_{2r}^{2s} a, and the Gram determinant over [r, r+2] is
# g+ g- with g+- = int_r^{r+2} exp(+-2 delta(t)) dt, delta(t) = int_{2r}^{2t} a.

def gaussian_E_mp(c: float, scale: float, r: float) -> float:
    """E(r) for a = c exp(-(x/scale)^2) with mpmath at MP_DPS digits."""
    with mp.workdps(MP_DPS):
        c, s, r = mp.mpf(c), mp.mpf(scale), mp.mpf(r)
        k = c * s * mp.sqrt(mp.pi) / 2
        e0 = mp.erf(2 * r / s)

        def delta(t):
            return k * (mp.erf(2 * t / s) - e0)

        gp = mp.quad(lambda t: mp.exp(2 * delta(t)), [r, r + 1, r + 2])
        gm = mp.quad(lambda t: mp.exp(-2 * delta(t)), [r, r + 1, r + 2])
        return float(gp * gm - 4)


def box_E(c: float, length: float, r: float) -> float:
    """E(r) for a = c on [0, length), closed form at 40 digits."""
    with mp.workdps(MP_DPS):
        c, L, r = mp.mpf(c), mp.mpf(length), mp.mpf(r)
        m = min(L / 2, r + 2) - r        # part of the window inside the support
        if m <= 0:
            return 0.0
        k = 4 * c * m
        gp = mp.expm1(k) / (4 * c) + (2 - m) * mp.exp(k)
        gm = -mp.expm1(-k) / (4 * c) + (2 - m) * mp.exp(-k)
        return float(gp * gm - 4)


def gaussian_D_mp(c: complex, scale: float, r: float) -> float:
    """D(r) = 2 int |g|^2 - |int g|^2 over [r, r+2] with g = int_r^t a, for
    a = c exp(-(x/scale)^2); g = c phi with phi real, so D = |c|^2 D(phi)."""
    with mp.workdps(MP_DPS):
        s, r = mp.mpf(scale), mp.mpf(r)
        k = s * mp.sqrt(mp.pi) / 2
        e0 = mp.erf(r / s)

        def phi(t):
            return k * (mp.erf(t / s) - e0)

        i2 = mp.quad(lambda t: phi(t) ** 2, [r, r + 1, r + 2])
        i1 = mp.quad(phi, [r, r + 1, r + 2])
        return float(abs(c) ** 2 * (2 * i2 - i1 * i1))


def box_D(c: float, length: float, r: float) -> float:
    """D(r) = 2 int |g|^2 - |int g|^2 over [r, r+2] for the box, closed form."""
    m = min(length, r + 2.0) - r
    if m <= 0:
        return 0.0
    int_g2 = c * c * (m ** 3 / 3.0 + m * m * (2.0 - m))
    int_g = c * (m * m / 2.0 + m * (2.0 - m))
    return 2.0 * int_g2 - int_g * int_g


def figure1_E(r: float) -> float:
    """E(r) for figure1, a(x) = sin(e^x) / (1 + x), after u = e^x.

    delta(u) = int_{U0}^u sin(v) / (v (1 + ln v)) dv with U0 = e^{2r}, and
    ds = du / (2u). With C = int cosh(2 delta) ds = 2 + c', c' = int
    2 sinh(delta)^2 ds and S = int sinh(2 delta) ds, g+ g- - 4 = C^2 - S^2 - 4
    = 4c' + c'^2 - S^2, which loses at most a factor two to cancellation,
    where g+ g- - 4 itself is lost below the ulps of 4. Panels are the half
    periods of sin v, 16 nodes each; delta at a node adds a 16-point rule
    on [panel start, node] to the panel start's cumulative value.
    """
    u0, u1 = math.exp(2.0 * r), math.exp(2.0 * r + 4.0)
    k = np.arange(math.floor(u0 / math.pi) + 1, math.ceil(u1 / math.pi))
    edges = np.concatenate([[u0], k * math.pi, [u1]])

    def f(v):
        return np.sin(v) / (v * (1.0 + np.log(v)))

    c1 = s1 = delta0 = 0.0
    for i in range(0, edges.size - 1, F1_CHUNK):
        lo, hi = edges[i:i + F1_CHUNK], edges[i + 1:i + F1_CHUNK + 1]
        lo = lo[:hi.size]
        half = 0.5 * (hi - lo)
        nodes = 0.5 * (lo + hi)[:, None] + half[:, None] * _GL_X[None, :]
        whole = half * (f(nodes) @ _GL_W)
        starts = delta0 + np.concatenate([[0.0], np.cumsum(whole)[:-1]])
        delta0 = starts[-1] + whole[-1]
        sub_half = 0.5 * (nodes - lo[:, None])
        sub = (0.5 * (nodes + lo[:, None]))[:, :, None] \
            + sub_half[:, :, None] * _GL_X[None, None, :]
        delta = starts[:, None] + sub_half * (f(sub) @ _GL_W)
        ds = half[:, None] * _GL_W[None, :] / (2.0 * nodes)
        c1 += float(np.sum(2.0 * np.sinh(delta) ** 2 * ds))
        s1 += float(np.sum(np.sinh(2.0 * delta) * ds))
    return 4.0 * c1 + c1 * c1 - s1 * s1


# ---------------------------------------------------------------------------
# E(r): complex coefficient, fourth-order Magnus on a fixed grid
# ---------------------------------------------------------------------------

def _exp_tracefree(om: np.ndarray) -> np.ndarray:
    """exp of a batch of real trace-free 2x2 matrices (om^2 = d I)."""
    d = om[:, 0, 0] ** 2 + om[:, 0, 1] * om[:, 1, 0]
    root = np.sqrt(np.abs(d))
    small = root < 1e-8
    safe = np.where(small, 1.0, root)
    ch = np.where(d >= 0, np.cosh(root), np.cos(root))
    sh = np.where(d >= 0, np.sinh(root), np.sin(root)) / safe
    ch = np.where(small, 1.0 + d / 2.0, ch)
    sh = np.where(small, 1.0 + d / 6.0, sh)
    return ch[:, None, None] * np.eye(2) + sh[:, None, None] * om


def _gen(a, s: np.ndarray) -> np.ndarray:
    """Dirac generator JQ(s) = ((p, q), (q, -p)), p = -2 Re a(2s),
    q = 2 Im a(2s)."""
    v = a(2.0 * s)
    p, q = -2.0 * np.real(v), 2.0 * np.imag(v)
    return np.stack([np.stack([p, q], -1), np.stack([q, -p], -1)], -2)


def magnus_E(a, r: float) -> float:
    """E(r) = det int_r^{r+2} N^T N ds - 4 with N' = JQ N, N(r) = I, by
    fourth-order Magnus steps and Simpson on the step nodes."""
    n = MAGNUS_STEPS
    s = np.linspace(r, r + 2.0, n + 1)
    h = s[1] - s[0]
    g = 0.5 / math.sqrt(3.0)
    A1 = _gen(a, s[:-1] + (0.5 - g) * h)
    A2 = _gen(a, s[:-1] + (0.5 + g) * h)
    comm = A2 @ A1 - A1 @ A2
    step = _exp_tracefree(0.5 * h * (A1 + A2) + math.sqrt(3.0) / 12.0 * h * h * comm)
    N = np.empty((n + 1, 2, 2))
    N[0] = np.eye(2)
    for k in range(n):
        N[k + 1] = step[k] @ N[k]
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    G = np.einsum("n,nji,njk->ik", w * h / 3.0, N, N)
    return float(G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0] - 4.0)


# ---------------------------------------------------------------------------
# H^{-1} norm: H = 1/2 int int a(x) conj(a(y)) e^{-|x-y|} dx dy over x, y >= 0
# ---------------------------------------------------------------------------

def box_H(c: complex, length: float) -> float:
    return abs(c) ** 2 * (length - 1.0 + math.exp(-length))


def gaussian_H(c: complex, scale: float) -> float:
    """H = int_0^inf a(x) e^{-x} int_0^x a(y) e^{y} dy dx, inner by erf."""
    with mp.workdps(MP_DPS):
        s = mp.mpf(scale)
        pre = s * mp.exp(s * s / 4) * mp.sqrt(mp.pi) / 2
        e0 = mp.erf(s / 2)
        val = mp.quad(lambda x: mp.exp(-(x / s) ** 2 - x)
                      * (mp.erf(x / s - s / 2) + e0), [0, s, 4 * s, mp.inf])
        return float(abs(c) ** 2 * pre * val)


def figure1_H() -> float:
    """H for sin(e^x)/(1+x) after u = e^x: e^{-|x-y|} = min(u,v)/max(u,v), so
    H = int_1^U sin(u) B(u) / ((1 + ln u) u^2) du with
    B(u) = int_1^u sin(v) / (1 + ln v) dv. Half-period Gauss panels; the
    tail past U = F1_U_MAX is O(U^-2)."""
    def f(v):
        return np.sin(v) / (1.0 + np.log(v))

    k0 = math.ceil(1.0 / math.pi)
    edges = np.concatenate([[1.0], np.arange(k0, math.ceil(F1_U_MAX / math.pi) + 1)
                            * math.pi])
    total = 0.0
    b_start = 0.0
    for i in range(0, edges.size - 1, F1_CHUNK):
        lo = edges[i:i + F1_CHUNK]
        hi = edges[i + 1:i + F1_CHUNK + 1]
        lo = lo[:hi.size]
        half = 0.5 * (hi - lo)
        nodes = 0.5 * (lo + hi)[:, None] + half[:, None] * _GL_X[None, :]
        whole = half * (f(nodes) @ _GL_W)
        starts = b_start + np.concatenate([[0.0], np.cumsum(whole)[:-1]])
        b_start = starts[-1] + whole[-1]
        sub_half = 0.5 * (nodes - lo[:, None])
        sub = (0.5 * (nodes + lo[:, None]))[:, :, None] \
            + sub_half[:, :, None] * _GL_X[None, None, :]
        B = starts[:, None] + sub_half * (f(sub) @ _GL_W)
        outer = np.sin(nodes) * B / ((1.0 + np.log(nodes)) * nodes ** 2)
        total += float(np.sum(half * (outer @ _GL_W)))
    return total


# ---------------------------------------------------------------------------
# Krein system for a box: constant generator, then free evolution
# ---------------------------------------------------------------------------

def box_krein(c: float, length: float, lam: complex, r: np.ndarray):
    """(P, P*) on the grid r for a = c on [0, length), by scipy.linalg.expm."""
    M = np.array([[1j * lam, -np.conj(c)], [-c, 0.0]], dtype=complex)
    inside = np.minimum(r, length)
    Y = expm(inside[:, None, None] * M[None]) @ np.ones(2, dtype=complex)
    P = Y[:, 0] * np.exp(1j * lam * np.maximum(r - length, 0.0))
    return P, Y[:, 1]


def box_pstar(c: float, length: float, z: complex) -> complex:
    return complex(box_krein(c, length, z, np.array([length]))[1][0])


# ---------------------------------------------------------------------------
# a_2 of F_A by quad: 4 D(g_p) + 4 D(g_q), D(g) = int g^2 - (int g)^2
# ---------------------------------------------------------------------------

def a2_quad(p, q) -> float:
    def D(f):
        def g(t):
            return quad(lambda x: float(f(x)), 0.0, t, epsabs=1e-14, epsrel=1e-13,
                        limit=200)[0]
        m1 = quad(g, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
        m2 = quad(lambda t: g(t) ** 2, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13,
                  limit=200)[0]
        return m2 - m1 * m1

    return 4.0 * D(p) + 4.0 * D(q)
