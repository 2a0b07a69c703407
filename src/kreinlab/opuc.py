"""Orthogonal polynomials on the unit circle.

Szego recursion for monic polynomials and their reversed partners,
Christoffel products, the inverse Szego function of a finite recurrence
sequence, Bernstein-Szego weights, circle orthogonality checks, and
entire-order estimation from Taylor coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import KernelError, series_coeffs_from_samples

# nodes of the rectangle rule on the circle in orthogonality_check
_N_THETA = 4096


@dataclass(frozen=True)
class VerblunskySeq:
    """Finite recurrence-coefficient sequence, each strictly inside the disk
    (so not NaN); coefficients beyond the stored length are treated as zero."""

    alphas: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.alphas, dtype=complex))
        if not np.all(np.abs(arr) < 1.0):
            raise ValueError("recurrence coefficients must satisfy |alpha| < 1")
        object.__setattr__(self, "alphas", arr)

    def __len__(self):
        return self.alphas.size

    def alpha(self, k: int) -> complex:
        return complex(self.alphas[k]) if k < self.alphas.size else 0.0 + 0.0j

    @classmethod
    def from_rule(cls, rule: str, c: float, length: int) -> "VerblunskySeq":
        if length < 0:
            raise ValueError(f"the coefficient count must be nonnegative, got {length}")
        n = np.arange(length)
        if rule == "factorial":
            # 1/k! as a running quotient: it underflows to 0, never overflows
            vals = c * np.divide.accumulate(np.maximum(n, 1).astype(float))
        elif rule == "gaussian":
            vals = c * np.exp(-n.astype(float) ** 2)
        else:
            raise ValueError(f"unknown coefficient rule: {rule!r}")
        return cls(vals)


@dataclass
class OrderEstimate:
    """Entire-function order estimate from Taylor coefficients.

    ``flag`` is 'finite' for a trusted numeric estimate, 'polynomial' when the
    coefficients terminate (or too few are significant), and 'infinite' when
    the decay is too slow for a finite order (geometric-type tails)."""

    rho: float
    flag: str

    @property
    def is_polynomial(self) -> bool:
        return self.flag == "polynomial"

    @property
    def is_infinite(self) -> bool:
        return self.flag == "infinite"


@dataclass
class OrderComparison:
    rho_alpha: OrderEstimate
    rho_pi: OrderEstimate
    radius: float


def _phi_arrays(v: VerblunskySeq, z, n: int):
    """Vectorized recursion up to degree n; returns (phi, phi_star)."""
    z = np.asarray(z, dtype=complex)
    phi = np.ones_like(z)
    star = np.ones_like(z)
    for k in range(n):
        a = v.alpha(k)
        phi, star = z * phi - np.conj(a) * star, star - a * z * phi
    return phi, star


def christoffel_lambda(v: VerblunskySeq, n: int) -> float:
    """Product of (1 - |alpha_k|^2) over k < n (the minimal quadratic mean
    of degree-n normalized polynomials at the origin)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    mags = np.abs(v.alphas[:n]) ** 2
    return float(np.prod(1.0 - mags)) if mags.size else 1.0


def _effective_length(v: VerblunskySeq) -> int:
    """Index past the last nonzero coefficient: a zero alpha leaves Phi*
    unchanged, so Phi_N* = Phi_M* and Pi is a polynomial of degree M."""
    nonzero = np.flatnonzero(v.alphas)
    return int(nonzero[-1]) + 1 if nonzero.size else 0


def pi_from_phis(v: VerblunskySeq, z):
    """Inverse Szego function of the finite sequence: Pi(z) = Pi(0) Phi_N*(z)
    with Pi(0) fixed by the limiting Christoffel product. The recursion stops
    at the last nonzero coefficient, where Phi_n (of size |z|^n) may still be
    finite when Phi_N would overflow."""
    pi0 = christoffel_lambda(v, len(v)) ** -0.5
    _, star = _phi_arrays(v, z, _effective_length(v))
    out = pi0 * star
    return complex(out) if np.ndim(z) == 0 else out


def bs_weight(v: VerblunskySeq, theta):
    """Bernstein-Szego density at e^{i theta}:
    prod(1 - |alpha_k|^2) / |Phi_N*(e^{i theta})|^2."""
    z = np.exp(1j * np.asarray(theta, dtype=float))
    _, star = _phi_arrays(v, z, len(v))
    mag2 = np.abs(star) ** 2
    if np.any(mag2 < 1e-28):
        raise ValueError("reversed polynomial vanishes on the circle; "
                         "the data is not of Szego class")
    out = christoffel_lambda(v, len(v)) / mag2
    return float(out) if np.ndim(theta) == 0 else out


def orthogonality_check(v: VerblunskySeq, j: int, k: int) -> complex:
    """<Phi_j, Phi_k> under the Bernstein-Szego weight by the (spectrally
    accurate) rectangle rule on _N_THETA nodes of the circle."""
    if max(j, k) > len(v) + 4:
        raise ValueError("degrees far beyond the stored coefficients")
    theta = 2.0 * np.pi * np.arange(_N_THETA) / _N_THETA
    z = np.exp(1j * theta)
    w = bs_weight(v, theta)
    phi_j, _ = _phi_arrays(v, z, j)
    phi_k, _ = _phi_arrays(v, z, k)
    return complex(np.mean(phi_j * np.conj(phi_k) * w))


def order_estimate(coeffs, floor=0.0) -> OrderEstimate:
    """Entire order from Taylor coefficients.

    Fits the consecutive log-coefficient ratios against log n over a trailing
    window (the finite-sample surrogate for the classical limsup formula
    n log n / (-log |c_n|), free of the O(n) prefactor bias). Coefficients at
    or below ``floor`` (scalar or per-index array) count as zero. Fewer than 8
    significant coefficients, or a terminating tail, flags 'polynomial';
    slow (sub-factorial-type) decay or an estimate above 50 flags 'infinite'.
    """
    mags = np.abs(np.asarray(coeffs))
    fl = np.broadcast_to(np.asarray(floor, dtype=float), mags.shape)
    sig = np.nonzero(mags > np.maximum(fl, 0.0))[0]

    if sig.size == 0 or sig[-1] == 0:
        return OrderEstimate(0.0, "polynomial")
    trailing_zeros = mags.size - 1 - sig[-1]
    if sig.size < 8 or trailing_zeros >= max(3, mags.size // 4):
        return OrderEstimate(0.0, "polynomial")

    logs = np.log(mags[sig])
    ns = sig.astype(float)
    d = (logs[:-1] - logs[1:]) / (ns[1:] - ns[:-1])
    x = np.log(ns[1:])
    half = d.size // 2
    xw, dw = x[half:], d[half:]
    if xw.size < 3:
        xw, dw = x, d
    A = np.column_stack([xw, np.ones_like(xw)])
    (slope, _), *_ = np.linalg.lstsq(A, dw, rcond=None)
    if slope <= 0:
        return OrderEstimate(math.inf, "infinite")
    rho = 1.0 / float(slope)
    if rho > 50.0:
        return OrderEstimate(math.inf, "infinite")
    return OrderEstimate(rho, "finite")


def compare_orders(v: VerblunskySeq) -> OrderComparison:
    """Order of the coefficient series against the order of the inverse Szego
    function, the latter recovered from circle samples at an adaptive radius:
    1.5, doubled up to six times until the last three coefficients fall below
    1e-10. ``radius`` is the last radius sampled at. Raises KernelError where
    radius^degree, and with it the scale of the coefficients, leaves the
    double range."""
    rho_alpha = order_estimate(v.alphas)
    # the inverse Szego function of a sequence whose last nonzero coefficient
    # is alpha_{M-1} is a polynomial of degree M; sampling past it would
    # manufacture a terminating tail
    degree = max(_effective_length(v) - 1, 8)
    # at least twice as many samples as coefficients, so that the transform
    # does not alias
    n_samples = 512
    while n_samples < 2 * (degree + 1):
        n_samples *= 2
    for k in range(7):
        radius = 1.5 * 2.0 ** k
        if degree * math.log(radius) >= math.log(np.finfo(float).max):
            raise KernelError(f"the Taylor coefficients of Pi up to degree {degree} "
                              f"leave the double range at radius {radius:g}")
        theta = 2.0 * np.pi * np.arange(n_samples) / n_samples
        ring = radius * np.exp(1j * theta)
        max_f = float(np.max(np.abs(pi_from_phis(v, ring))))
        coeffs = series_coeffs_from_samples(lambda s: pi_from_phis(v, s),
                                            degree, radius, n_samples=n_samples)
        floor = 32.0 * np.finfo(float).eps * max_f / radius ** np.arange(degree + 1)
        if np.max(np.abs(coeffs[-3:])) < 1e-10:
            break
    rho_pi = order_estimate(coeffs, floor=floor)
    return OrderComparison(rho_alpha=rho_alpha, rho_pi=rho_pi, radius=radius)
