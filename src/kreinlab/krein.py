"""Krein system solver and its identity probes.

Integrates the coupled system

    dP/dr  = i lam P - conj(a) P*,   P(0)  = 1,
    dP*/dr = -a P,                   P*(0) = 1,

evaluates the reflection and Christoffel-Darboux identities, Christoffel-type
functions and reproducing kernels, the large-r limit of P* (the inverse Szego
function up to a unimodular phase), zeros of that limit (resonances), and the
decay probe for P at a resonance-conjugate point.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .kernel import (
    DecayFit,
    Grid,
    KernelError,
    Propagation,
    _write_csv,
    fit_decay,
    fold_mirrors,
    propagate,
)
from .potentials import Potential


# spectral parameters per propagate call of a Krein batch
_LAM_CHUNK = 2048
# _TOL: step tolerance of a Krein solve (krein_paths' default) and the zero
# search's Newton residual; _PROBE_TOL: its Newton solves and the decay probe
_TOL = 1e-10
_PROBE_TOL = 1e-12
# the large-r horizon of P*, and szego_limit's largest half-horizon drift
_HORIZON = 40.0
_SZEGO_DRIFT = 1e-6
# the unseeded zero search's grid on a rectangle symmetric about Re lam = 0
_SCAN_RECT = (-10.0, 10.0, -5.0, 0.0)
_SCAN_GRID = (200, 100)


class ZeroSearchError(KernelError):
    """Zero search did not converge; carries the iterate trace."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


class SzegoConvergenceWarning(UserWarning):
    """Half-horizon drift of P* exceeds _SZEGO_DRIFT."""


@dataclass
class KreinPath:
    """P and P* along an r-grid for one spectral parameter, with the
    accumulated mass cum_P2(r) = int_0^r |P|^2."""

    lam: complex
    r_grid: Grid
    P: np.ndarray
    P_star: np.ndarray
    cum_P2: np.ndarray


@dataclass
class SzegoValue:
    """Large-r value of P*(., lam) with a half-horizon error estimate."""

    lam: complex
    value: complex
    horizon: float
    est_error: float
    converged: bool


def _krein_gen(p: Potential, lams: np.ndarray):
    """Generators ((i lam, -conj a), (-a, 0)) at times t for each lam, as
    propagate's components (i lam / 2, i lam / 2, -conj a, -a)."""
    half = 0.5j * lams[None]

    def gen(t):
        a = p(t)[:, None]
        return half, half, -np.conj(a), -a

    return gen


def _solve_many(p: Potential, lams, grid: Grid, tol: float,
                with_cum: bool = False) -> Propagation:
    """Krein solve for a batch of spectral parameters, cut at the
    potential's breakpoints: one propagate call per _LAM_CHUNK of them, which
    bounds the memory of a wide scan. ``y`` has shape (grid, lam, 2): P and
    P* on the grid; with ``with_cum``, ``integral`` (grid, lam) is the
    accumulated mass int_0^r |P|^2; ``error`` and ``integral_error`` have
    one entry per lam. ``substeps`` adds up the chunks'.

    For a real coefficient the generator at -conj(lam) is the conjugate of
    that at lam, so P(r, -conj lam) = conj P(r, lam) and the same for P*:
    the batch is folded onto Re lam <= 0 (kernel.fold_mirrors), and a lam
    with Re lam > 0 takes the conjugate of its mirror's solution. Exact
    duplicates merge for any coefficient."""
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    reps, unfold = fold_mirrors(lams, -np.conj(lams), p.is_real & (lams.real > 0))
    ts = grid.points
    parts = [propagate(_krein_gen(p, chunk), np.ones((chunk.size, 2), dtype=complex),
                       ts[0], ts[-1], tol, p.breakpoints(), t_eval=ts,
                       integrand=(lambda y: np.abs(y[..., 0]) ** 2) if with_cum else None)
             for chunk in np.split(reps, range(_LAM_CHUNK, reps.size, _LAM_CHUNK))]

    def joined(field, axis=0):
        return unfold(np.concatenate([getattr(r, field) for r in parts], axis=axis), axis)

    return Propagation(
        joined("y", axis=1),
        joined("integral", axis=1) if with_cum else None,
        sum(r.substeps for r in parts),
        unfold(np.concatenate([np.broadcast_to(r.error, r.y.shape[1:2]) for r in parts])),
        joined("integral_error") if with_cum else None)


def krein_paths(p: Potential, lams, r_grid, tol: float = _TOL):
    """KreinPaths for a list of spectral parameters from one batched solve,
    and the Propagation behind them (substeps, error estimate per lam)."""
    grid = Grid.coerce(r_grid)
    if grid.points[0] != 0.0:
        raise ValueError("Krein grids must start at r = 0 (unit initial data)")
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    res = _solve_many(p, lams, grid, tol, with_cum=True)
    return [KreinPath(lam=complex(lam), r_grid=grid, P=res.y[:, i, 0],
                      P_star=res.y[:, i, 1], cum_P2=res.integral[:, i])
            for i, lam in enumerate(lams)], res


def solve_krein(p: Potential, lam: complex, r_grid, tol: float = _TOL) -> KreinPath:
    """Integrate the Krein system for one lambda over a grid starting at 0."""
    return krein_paths(p, [lam], r_grid, tol)[0][0]


def _solve_pair_cross(p: Potential, lam: complex, mu: complex, r: float):
    """Joint solve at _TOL for two parameters plus the cross mass
    int_0^r P(s, lam) conj(P(s, mu)) ds. Equal parameters are one member,
    whose cross integrand is P conj(P) = |P|^2."""
    lams = np.array([lam] if lam == mu else [lam, mu], dtype=complex)
    res = propagate(_krein_gen(p, lams), np.ones((lams.size, 2), dtype=complex),
                    0.0, r, _TOL, p.breakpoints(),
                    integrand=lambda y: y[..., 0, 0] * np.conj(y[..., -1, 0]))
    (P1, Ps1), (P2, Ps2) = res.y[0], res.y[-1]
    return P1, Ps1, P2, Ps2, res.integral


def reflection_residual_batch(p: Potential, zs, r: float) -> np.ndarray:
    """Residuals |P(r,z) - e^{izr} conj(P*(r, conj z))| for a batch of z, one _TOL solve."""
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    lams = np.concatenate([zs, np.conj(zs)])
    end = _solve_many(p, lams, Grid(np.array([0.0, r])), _TOL).y[-1]
    k = zs.size
    return np.abs(end[:k, 0] - np.exp(1j * zs * r) * np.conj(end[k:, 1]))


def christoffel_darboux_residual(p: Potential, lam: complex, mu: complex,
                                 r: float) -> float:
    """Absolute defect of the Christoffel-Darboux formula at (lam, mu, r), at _TOL."""
    P1, Ps1, P2, Ps2, cross = _solve_pair_cross(p, lam, mu, r)
    lhs = P1 * np.conj(P2) - Ps1 * np.conj(Ps2)
    rhs = 1j * (lam - np.conj(mu)) * cross
    return float(abs(lhs - rhs))


def christoffel_m(p: Potential, z: complex, r: float) -> float:
    """Christoffel-type function: inverse of the accumulated |P|^2 mass, at _TOL."""
    if r <= 0:
        raise ValueError("christoffel_m needs r > 0")
    mass = solve_krein(p, z, Grid(np.array([0.0, r]))).cum_P2[-1]
    if mass <= 0:
        raise ValueError("accumulated mass vanishes")
    return 1.0 / mass


def reproducing_kernel(p: Potential, z: complex, r: float, eval_at: complex) -> complex:
    """k_{r,z}(eval_at) = (1/2pi) int_0^r P(s, eval_at) conj(P(s, z)) ds, at _TOL."""
    if r <= 0:
        raise ValueError("reproducing_kernel needs r > 0")
    _, _, _, _, cross = _solve_pair_cross(p, eval_at, z, r)
    return complex(cross / (2.0 * math.pi))


def szego_limit(p: Potential, lam: complex, horizon: float = _HORIZON) -> SzegoValue:
    """P*(horizon, lam), solved at _TOL, with a half-horizon convergence
    estimate; it is converged where the drift is at most _SZEGO_DRIFT.

    The limit exists for square-integrable coefficients; the value equals the
    inverse Szego function up to a unimodular phase that is never computed.
    Raises ValueError for an uncut constant, and a KernelError where the
    solve overflows (as for a coefficient whose L2 norm does).
    """
    if p.family == "constant" and p.support_bound is None:
        raise ValueError("szego limit requires a square-integrable coefficient")
    grid = Grid(np.array([0.0, horizon / 2.0, horizon]))
    Ps = _solve_many(p, lam, grid, _TOL).y[:, 0, 1]
    est = float(abs(Ps[-1] - Ps[-2]))
    converged = est <= _SZEGO_DRIFT
    if not converged:
        warnings.warn(
            f"P* half-horizon drift {est:.3e} exceeds {_SZEGO_DRIFT:.1e} at lam={lam}",
            SzegoConvergenceWarning)
    return SzegoValue(lam=complex(lam), value=complex(Ps[-1]),
                      horizon=float(horizon), est_error=est, converged=converged)


def pi_modulus_check(p: Potential, lam: complex) -> float:
    """Relative defect of |Pi(lam)|^2 = 2 Im(lam) int_0^inf |P|^2, with the
    infinite range cut at _HORIZON and solved at _TOL."""
    if lam.imag <= 0:
        raise ValueError("modulus identity requires Im lam > 0")
    path = solve_krein(p, lam, Grid(np.array([0.0, _HORIZON])))
    pi2 = abs(path.P_star[-1]) ** 2
    return float(abs(pi2 - 2.0 * lam.imag * path.cum_P2[-1]) / pi2)


def find_pi_zero(p: Potential, seed: complex | None = None,
                 horizon: float = _HORIZON) -> complex:
    """Locate a zero of the entire extension of the Szego limit (a resonance).

    Requires an effective support r_eff (compact support, or a gaussian)
    within the horizon; ValueError otherwise, as P*(horizon, .) would stand
    for a coefficient cut short. Without a seed, scans |P*(r_eff, .)| on the
    _SCAN_GRID points of _SCAN_RECT and runs a Newton iteration (secant
    derivative, solves at _PROBE_TOL) from the best cells until |P*| is
    below _TOL. The returned point lies in the closed lower half-plane; its
    conjugate is the decay point of P.

    For a real coefficient the zeros come in mirror pairs z, -conj(z), as
    P*(r, -conj z) = conj P*(r, z). The scan solves one member of each pair
    (see _solve_many), on abscissae that are exact mirrors, and starts
    Newton from three distinct pairs, each at its member with Re <= 0. Of a
    mirror pair of zeros the one with Re z <= 0 is returned, seeded or not.
    """
    r_eff = p.effective_support(1e-15)
    if r_eff is None:
        raise ValueError("zero search needs a tail whose L2 norm falls below 1e-15 "
                         "at a finite point (a compactly supported or a gaussian "
                         "coefficient)")
    if r_eff > horizon:
        raise ValueError(f"the coefficient's effective support {r_eff:g} lies past "
                         f"the horizon {horizon:g}")
    to_r_eff = Grid(np.array([0.0, max(r_eff, 1e-3)]))

    def f(z):
        return complex(_solve_many(p, z, to_r_eff, _PROBE_TOL).y[-1, 0, 1])

    def left(z):
        # of a real coefficient's mirror pair z, -conj(z), the member with Re <= 0
        return -z.conjugate() if p.is_real and z.real > 0 else z

    candidates = []
    if seed is not None:
        candidates = [complex(seed)]
    else:
        x = np.linspace(_SCAN_RECT[0], _SCAN_RECT[1], _SCAN_GRID[0])
        x = 0.5 * (x - x[::-1])
        y = np.linspace(_SCAN_RECT[2], _SCAN_RECT[3], _SCAN_GRID[1])
        Z = (x[None, :] + 1j * y[:, None]).ravel()
        mags = np.abs(_solve_many(p, Z, to_r_eff, 1e-8).y[-1, :, 1])
        order = np.argsort(mags, kind="stable")
        for i in order:
            z = left(complex(Z[i]))
            if z not in candidates:
                candidates.append(z)
            if len(candidates) == 3:
                break
        if mags[order[0]] > 0.9:
            raise ZeroSearchError(
                f"no zero located: min |P*| on scan rectangle is "
                f"{mags[order[0]]:.3f}", trace=[])

    h = 1e-6
    last_trace = []
    for z in candidates:
        trace = [z]
        fz = f(z)
        ok = False
        for _ in range(60):
            if abs(fz) < _TOL:
                ok = True
                break
            d = (f(z + h) - f(z - h)) / (2.0 * h)
            if d == 0:
                break
            step = fz / d
            if not np.isfinite(step) or abs(step) > 10.0:
                break
            z = z - step
            fz = f(z)
            trace.append(z)
        last_trace = trace
        if ok:
            if z.imag > 1e-12:
                raise ZeroSearchError(
                    f"converged into the upper half-plane at {z} "
                    "(not a valid zero of a Szego-class limit)", trace)
            return left(complex(z))
    raise ZeroSearchError(
        f"Newton did not reach residual {_TOL:.1e}", last_trace)


def decay_probe_D(p: Potential, z0: complex, window) -> DecayFit:
    """Decay-class fit (at fit_decay's default floor) of |P(r, z0)| over the window
    (z0 in the upper half-plane, typically the conjugate of a located zero)."""
    window = Grid.coerce(window)
    if window.points[0] <= 0:
        raise ValueError("probe window must start at r > 0")
    return fit_decay(np.column_stack([window.points, probe_magnitudes(p, z0, window)]))


def probe_magnitudes(p: Potential, z0: complex, window) -> np.ndarray:
    """|P(r, z0)| on the window at _PROBE_TOL (the raw data behind decay_probe_D)."""
    window = Grid.coerce(window)
    full = Grid(np.concatenate([[0.0], window.points]))
    return np.abs(_solve_many(p, z0, full, _PROBE_TOL).y[1:, 0, 0])


def dump_krein_csv(path, kp: KreinPath) -> None:
    """Write a KreinPath as CSV: r,ReP,ImP,RePstar,ImPstar,cumP2."""
    _write_csv(path, ["r", "ReP", "ImP", "RePstar", "ImPstar", "cumP2"],
               [x.tolist() for x in (kp.r_grid.points, kp.P.real, kp.P.imag,
                                     kp.P_star.real, kp.P_star.imag, kp.cum_P2)])
