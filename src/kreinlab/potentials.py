"""Coefficient catalog: families of a in L2(R+), tail antiderivatives, and
oscillation-compensated decay classification.

A potential is a complex-valued coefficient on [0, inf) with enough
metadata (support bound, L2 norm, local oscillation rate, closed-form tails)
for the solvers to pick resolvable discretizations.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernel import (
    EXP_PHASE_MAX,
    DecayFit,
    Grid,
    KernelError,
    exp_phase_tail,
    fit_decay,
)


@dataclass
class Potential:
    """A coefficient a on [0, inf), closed-form or sampled."""

    kind: str                      # "closed-form" or "sampled"
    family: str
    evaluator: Callable            # vectorized, no support clipping
    support_bound: float | None
    l2_norm: float
    is_real: bool = True
    params: tuple = ()
    sample_grid: np.ndarray | None = None
    sample_values: np.ndarray | None = None

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        vals = np.asarray(self.evaluator(r))
        if self.support_bound is not None:
            vals = np.where(r >= self.support_bound, 0.0, vals)
        return vals if vals.ndim else vals[()]

    def breakpoints(self) -> tuple[float, ...]:
        """Points where a is not smooth (for panelized quadrature). A sampled
        coefficient is piecewise linear between its grid points and 0 outside
        the grid, so it can jump at the first and at the last of them too."""
        if self.family in ("box", "constant") and self.support_bound is not None:
            return (self.support_bound,)
        if self.kind == "sampled":
            return tuple(self.sample_grid.tolist())
        return ()

    def osc_rate(self, x: float) -> float:
        """Local phase rate of a near x (0 for non-oscillating families)."""
        if self.family == "figure1":
            return math.exp(x)
        return 0.0

    def tail_sup(self, r: float) -> float | None:
        """Upper bound for sup_{x >= r} |int_x^inf a|, or None if unknown."""
        if self.support_bound is not None:
            if r >= self.support_bound:
                return 0.0
            return None
        if self.family == "gaussian":
            c, scale = self.params
            return abs(c) * scale * math.sqrt(math.pi) / 2.0 * math.erfc(r / scale)
        if self.family == "figure1":
            # integration-by-parts envelope e^{-r}/(1+r) with a safety factor
            if r < 2.0:
                return 0.7
            return 1.5 * math.exp(-r) / (1.0 + r)
        return None

    def phase(self) -> float | complex | None:
        """A unit constant u with a = u psi, psi real: 1 for a real
        coefficient, c/|c| for a complex box, constant or gaussian, None for
        a complex sampled coefficient, whose phase may vary."""
        if self.is_real:
            return 1.0
        if self.family in ("box", "constant", "gaussian"):
            c = self.params[0]
            return c / abs(c)
        return None

    def l2_tail(self, r: float) -> float | None:
        """L2 norm of a on [r, inf) where it has a closed form (the gaussian),
        else None. |c| is not squared, so a huge c cannot overflow it."""
        if self.family != "gaussian":
            return None
        c, scale = self.params
        z = math.sqrt(2.0) * (r / scale)  # sqrt(2) r overflows past 1.27e308
        if z < 26.0:
            return abs(c) * math.sqrt(scale * math.sqrt(math.pi / 8.0) * math.erfc(z))
        # past z = 26 erfc(z) soon underflows; exp(-z^2) / (z sqrt(pi)) bounds
        # it, with log z apart so that z = inf (a scale near 1.8e308) gives 0
        return abs(c) * math.exp(0.5 * (math.log(scale / math.sqrt(8.0)) - math.log(z) - z * z))

    def effective_support(self, mass_tol: float = 1e-15) -> float | None:
        """Point beyond which the L2 norm of a (see l2_tail) is below mass_tol:
        the support bound, or the first such point scale (1 + k/4) for the
        gaussian, found in about 130 steps at most for |c| <= 1.8e308, as its
        l2_tail decreases to 0. None for a family with no closed-form tail,
        and for a gaussian whose point lies past the largest double (a scale
        near 1.8e308)."""
        if self.support_bound is not None:
            return self.support_bound
        if self.family != "gaussian":
            return None
        scale = self.params[1]
        r = scale
        while self.l2_tail(r) >= mass_tol:
            r += 0.25 * scale
            if math.isinf(r):
                return None
        return r


@dataclass
class TailProfile:
    """Tail antiderivative A(r) = int_r^inf a on a grid, with its decay fit."""

    grid: Grid
    values: np.ndarray
    fit: DecayFit


@np.errstate(over="ignore")
def _segment_l2(grid: np.ndarray, vals: np.ndarray) -> float:
    """Exact integral of |a|^2 for a piecewise-linear a: on a segment from u
    to v, (|u|^2 + |u + v|^2 + |v|^2) / 6 per unit length, nonnegative terms
    whose overflow gives inf, not nan."""
    u = vals[:-1]
    v = vals[1:]
    seg = (np.abs(u) ** 2 + np.abs(u + v) ** 2 + np.abs(v) ** 2) / 6.0
    return float(np.sum(np.diff(grid) * seg))


def build_potential(family: str, *params) -> Potential:
    """Construct a catalog potential.

    Families: zero | constant(c, cutoff) | box(c, length) | gaussian(c, scale)
    | figure1 | sampled(grid, values). ``constant`` with cutoff=None is
    deliberately non-L2 and only intended for closed-form oracle checks. A box
    length or constant cutoff that is negative or not finite, and a gaussian
    scale that is not finite and positive, raise ValueError.
    """
    if family == "zero":
        return Potential("closed-form", "zero", lambda r: np.zeros_like(r),
                         support_bound=0.0, l2_norm=0.0)

    if family in ("constant", "box"):
        c, cutoff = params if family == "box" else (*params, None)[:2]
        cutoff = None if cutoff is None else float(cutoff)
        if cutoff is not None and not (math.isfinite(cutoff) and cutoff >= 0.0):
            name = "box length" if family == "box" else "constant cutoff"
            raise ValueError(f"{name} must be finite and nonnegative, got {cutoff}")
        c = complex(c)
        is_real = c.imag == 0.0
        if is_real:
            c = c.real
        l2 = math.inf if cutoff is None else abs(c) * math.sqrt(cutoff)
        return Potential("closed-form", family,
                         lambda r, c=c: np.full_like(r, c, dtype=complex if not is_real else float),
                         support_bound=cutoff, l2_norm=l2,
                         is_real=is_real, params=(c, cutoff))

    if family == "gaussian":
        c, scale = params
        c = complex(c)
        is_real = c.imag == 0.0
        if is_real:
            c = c.real
        scale = float(scale)
        if not (math.isfinite(scale) and scale > 0.0):
            raise ValueError(f"gaussian scale must be finite and positive, got {scale}")
        l2 = abs(c) * math.sqrt(scale) * (math.pi / 8.0) ** 0.25

        @np.errstate(over="ignore")  # (r/s)^2 overflows for a tiny scale; e^-inf = 0
        def gaussian(r, c=c, s=scale):
            return c * np.exp(-((r / s) ** 2))

        return Potential("closed-form", "gaussian", gaussian,
                         support_bound=None, l2_norm=l2,
                         is_real=is_real, params=(c, scale))

    if family == "figure1":
        # oscillating coefficient sin(e^r)/(1+r); as sin^2 = (1 - cos 2e^r)/2,
        # its squared L2 norm is (1 - Re int_0^inf e^{2ie^x} (1+x)^-2 dx) / 2
        osc = exp_phase_tail(lambda x: (1.0 + x) ** -2, 0.0, omega=2.0).real
        return Potential("closed-form", "figure1",
                         lambda r: np.sin(np.exp(r)) / (1.0 + r),
                         support_bound=None, l2_norm=math.sqrt(0.5 * (1.0 - osc)))

    if family == "sampled":
        grid, values = params
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("sample grid must have at least two points")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("sample grid must be strictly increasing")
        if np.any(~np.isfinite(grid)) or np.any(~np.isfinite(values)):
            raise ValueError("samples must be finite")
        is_real = bool(np.all(np.imag(values) == 0))
        vals = values.real if is_real else values.astype(complex)

        def evaluator(r, g=grid, v=vals):
            re = np.interp(r, g, v.real, left=0.0, right=0.0)
            if np.iscomplexobj(v):
                return re + 1j * np.interp(r, g, v.imag, left=0.0, right=0.0)
            return re

        return Potential("sampled", "sampled", evaluator,
                         support_bound=float(grid[-1]),
                         l2_norm=math.sqrt(_segment_l2(grid, vals)),
                         is_real=is_real, sample_grid=grid, sample_values=vals)

    raise ValueError(f"unknown potential family: {family!r}")


def read_potential_csv(path) -> Potential:
    """Ingest a sampled potential from CSV with header exactly 'r,re,im'."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["r", "re", "im"]:
            raise ValueError("expected CSV header 'r,re,im'")
        rows = []
        for row in reader:
            if len(row) != 3:
                raise ValueError(f"malformed CSV row: {row!r}")
            rows.append([float(x) for x in row])
    arr = np.asarray(rows, dtype=float)
    if arr.size == 0:
        raise ValueError("empty potential CSV")
    if np.any(~np.isfinite(arr)):
        raise ValueError("NaN or infinity in potential CSV")
    return build_potential("sampled", arr[:, 0], arr[:, 1] + 1j * arr[:, 2])


def tail_integral(p: Potential, r):
    """A(r) = int_r^inf a(x) dx, for a number r or a 1-d array of them. Past
    EXP_PHASE_MAX, where e^r has no usable phase, figure1 raises KernelError;
    its array takes one exp_phase_tail call, bitwise the scalar calls."""
    rs = np.asarray(r, dtype=float)
    if np.any(rs < 0):
        raise ValueError("r must be >= 0")
    if p.family == "figure1":
        if np.any(rs > EXP_PHASE_MAX):
            raise KernelError(f"figure1 has no usable phase past r={EXP_PHASE_MAX}")
        return exp_phase_tail(lambda x: 1.0 / (1.0 + x), rs).imag
    return np.asarray([_tail_at(p, x) for x in rs.tolist()]) if rs.ndim else _tail_at(p, float(rs))


def _tail_at(p: Potential, r: float):
    if p.support_bound is not None and r >= p.support_bound:
        return 0.0 if p.is_real else 0.0 + 0.0j

    if p.family == "gaussian":
        c, scale = p.params
        return c * scale * math.sqrt(math.pi) / 2.0 * math.erfc(r / scale)

    if p.family == "constant" and p.support_bound is None:
        raise KernelError("tail integral of an un-truncated constant diverges")

    if p.kind == "sampled":
        g, v = p.sample_grid, p.sample_values
        # exact piecewise-linear integral from max(r, g[0]) to g[-1]
        lo = max(r, float(g[0]))
        mask = g > lo
        xs = np.concatenate([[lo], g[mask]])
        ys = np.concatenate([[p(lo)], v[mask]])
        val = np.trapezoid(ys, xs)
        return complex(val) if not p.is_real else float(np.real(val))

    # box and truncated constant: c on [0, support_bound]
    return p.params[0] * (p.support_bound - r)


def oscillation_classify(p: Potential, window) -> TailProfile:
    """Tail-decay classification of |A| on the window, at fit_decay's default floor.

    Support-bounded potentials produce the identically-zero-tail flag past
    their support, reported via the fit (membership in every decay class).
    """
    window = Grid.coerce(window)
    values = tail_integral(p, window.points)
    fit = fit_decay(np.column_stack([window.points, np.abs(values)]))
    return TailProfile(grid=window, values=values, fit=fit)
