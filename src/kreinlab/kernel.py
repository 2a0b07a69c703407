"""Shared numerical primitives.

Boole's rule on uniform grids, a fourth-order Magnus propagator for linear 2x2
systems (generators given as components tr I + ((e, o01), (o10, -e)) that
broadcast over time and batch; maps held component-major),
stretched-exponential decay fitting, power-series coefficient extraction
from circle samples, the oscillatory tail quadrature for integrands of the
form e^{i omega e^x} g(x), and the writer of the CSV result files.

Every routine but the CSV writer is a pure, deterministic function of its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class KernelError(Exception):
    """Base class for numerical-kernel failures."""


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
        return obj if isinstance(obj, Grid) else cls(np.asarray(obj, dtype=float))

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
# Boole's rule on uniform grids
# ---------------------------------------------------------------------------

# the quartic through nodes 4k .. 4k + 4 integrated from node 4k to node
# 4k + j, j = 1 .. 4, in units of the spacing; row 4 is Boole's rule
_BOOLE_PARTIAL = np.array([[251, 646, -264, 106, -19], [232, 992, 192, 32, -8],
                           [243, 918, 648, 378, -27], [224, 1024, 384, 1024, 224]]) / 720


def boole_weights(x: np.ndarray) -> np.ndarray:
    """Composite Boole weights on a uniform grid of 4k + 1 nodes, or on each
    row of a stack of such grids (along the last axis)."""
    n = x.shape[-1]
    if n % 4 != 1:
        raise ValueError("Boole's rule needs 4k + 1 nodes")
    w = np.tile([14.0, 32.0, 12.0, 32.0], n // 4 + 1)[:n]
    w[[0, -1]] = 7.0
    return w * (2.0 * (x[..., -1:] - x[..., :1]) / (n - 1) / 45.0)


def cumulative_boole(y: np.ndarray, dx: float) -> np.ndarray:
    """Integral of samples y (along axis 0, spacing dx, 4k + 1 nodes) from
    the first node to each node, by the quartic through each group of five
    nodes from a node 4k; an einsum, not a BLAS product (see _gauss_panel)."""
    # the groups of five nodes from each node 4k, as a view: (k, 5, ...)
    groups = np.lib.stride_tricks.as_strided(y, ((y.shape[0] - 1) // 4, 5) + y.shape[1:],
                                             (4 * y.strides[0],) + y.strides)
    parts = dx * np.einsum("kj...,ij->ki...", groups, _BOOLE_PARTIAL)
    out = np.empty(y.shape, dtype=parts.dtype)
    out[0] = 0.0
    body = out[1:].reshape((-1, 4) + y.shape[1:])
    body[...] = parts
    body[1:] += np.cumsum(parts[:-1, 3], axis=0)[:, None]
    return out


# ---------------------------------------------------------------------------
# ODE propagation: fourth-order Magnus for linear 2x2 systems (Iserles &
# Norsett, Phil. Trans. R. Soc. A 357 (1999) 983; Blanes, Casas, Oteo & Ros,
# Phys. Rep. 470 (2009) 151)
# ---------------------------------------------------------------------------

# the two Gauss nodes of a step, as fractions of its width
_GAUSS2 = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
# below this |d| _expm takes the Taylor series in d (at most to d^7)
_TAYLOR_D = 0.1
_COSH_D = 1.0 / np.array([math.factorial(2 * k) for k in range(9)])
_SINH_D = 1.0 / np.array([math.factorial(2 * k + 1) for k in range(9)])
# substeps one propagate call may take before it raises OdeStepError
_MAX_SUBSTEPS = 2 ** 20
# pieces are bisected for their integral (not their maps) only while the
# path has fewer substeps than this; past it a piece's sum stands and its
# error estimate is reported in integral_error
_QUAD_SUBSTEPS = 2 ** 16
# pieces times batch members in one vectorised pass (a pass holds about
# 2 kB for each): bounds a pass's memory
_PASS_SIZE = 2 ** 12
# a tolerance below this is taken as this: below it the two maps of a piece
# differ by rounding
_TOL_FLOOR = 1e-14


@dataclass
class Propagation:
    """What propagate returns, in the caller's layout. ``y``: the state at
    hi, or its rows at t_eval. ``integral``: the integral of the integrand
    from lo to the same points (None without one). ``substeps``: the Magnus
    steps the result is made of. ``error``: per batch member (the shape the
    components broadcast to past time), the sum over the pieces of
    max|T_2 - T_4| / max(1, |T_4|): it estimates the error of the two-step
    path, so bounds that of the four-step path returned (0-d 0 if lo == hi).
    ``integral_error``: the sum over the pieces of the difference of the
    Simpson sums on two and four substeps, bounding the Boole sums' error."""

    y: np.ndarray
    integral: np.ndarray | None
    substeps: int
    error: np.ndarray
    integral_error: np.ndarray | None = None


def _mul(m: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Products m k of two stacks of maps, component-major: (4, n, *batch)
    holds the components 00, 01, 10, 11 of n maps per batch member."""
    return _apply(m, k.reshape((2, 2) + k.shape[1:])).reshape(k.shape)


def _prefix(m: np.ndarray) -> np.ndarray:
    """Running products m_k ... m_0 of a stack of maps, by doubling."""
    m = m.copy()
    s = 1
    while s < m.shape[1]:
        m[:, s:] = _mul(m[:, s:], m[:, :-s])
        s *= 2
    return m


def _apply(m: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Maps (4, n, *batch) applied to 2 x c states (2, c, ..., *batch): (2, c, n, *batch)."""
    out = np.empty(y.shape[:2] + m.shape[1:], np.result_type(m, y))
    tmp = np.empty(m.shape[1:], out.dtype)
    for i, j in [(i, j) for i in (0, 1) for j in range(y.shape[1])]:
        np.multiply(m[2 * i], y[0, j], out=out[i, j])
        np.multiply(m[2 * i + 1], y[1, j], out=tmp)
        out[i, j] += tmp
    return out


@np.errstate(over="ignore", invalid="ignore")
def _expm(tau, e, o01, o10, shape) -> np.ndarray:
    """exp of the 2x2 matrices tau I + ((e, o01), (o10, -e)) given by
    components that broadcast to ``shape``: maps (4, *shape). The trace-free
    part squares to d I, d = e^2 + o01 o10, so its exponential is c I + s
    times it, c = cosh(sqrt d), s = sinh(sqrt d) / sqrt d. A tau that is the
    scalar 0 skips exp(tau); an overflow gives non-finite maps, silently."""
    oo = o01 * o10
    d = np.broadcast_to(e * e + oo, shape)
    tau = None if np.ndim(tau) == 0 and tau == 0 else np.broadcast_to(tau, shape)
    ad = np.abs(d)
    small = ad < _TAYLOR_D
    dtype = d.dtype if tau is None else np.result_type(d, tau)
    c, s = np.empty(shape, dtype), np.empty(shape, dtype)
    if small.any():
        # exp(tau) times the series in d (all elements: ..., no gather), up to
        # the first term that the largest |d| makes fall below 1e-18 of the sum
        where = ... if small.all() else small
        x = d[where]
        dmax = float(np.max(ad[where]))
        n = next(n for n in range(1, _COSH_D.size) if _COSH_D[n] * dmax ** n < 1e-18)
        ch, sh = _COSH_D[n - 1], _SINH_D[n - 1]
        for k in range(n - 2, -1, -1):
            ch, sh = ch * x + _COSH_D[k], sh * x + _SINH_D[k]
        if tau is not None:
            g = np.exp(tau[where])
            ch, sh = g * ch, g * sh
        c[where], s[where] = ch, sh
    if not small.all():
        # half the sum of exp(tau + z) and exp(tau - z), z = sqrt d, and half
        # their difference over z
        where = ~small if small.any() else ...
        z = np.sqrt(d[where].astype(complex))
        t = 0.0 if tau is None else tau[where]
        up, down = np.exp(t + z), np.exp(t - z)
        ch, sh = 0.5 * (up + down), (up - down) / (2.0 * z)
        c[where], s[where] = (ch, sh) if c.dtype.kind == "c" else (ch.real, sh.real)
    out = np.empty((4,) + shape, np.result_type(c, e, oo))
    se = s * e
    np.add(c, se, out=out[0])
    np.multiply(s, o01, out=out[1])
    np.multiply(s, o10, out=out[2])
    np.subtract(c, se, out=out[3])
    # a triangular matrix has the diagonal exp(tau + e), exp(tau - e): exact,
    # so that a decoupled component (a zero coefficient) stays exactly constant
    tri = np.broadcast_to(oo == 0, shape)
    if tri.any():
        et = np.broadcast_to(e, shape)[tri]
        tt = 0.0 if tau is None else tau[tri]
        out[0][tri], out[3][tri] = np.exp(tt + et), np.exp(tt - et)
    return out


def _magnus(gen: Callable, a: np.ndarray, b: np.ndarray, batch: tuple) -> np.ndarray:
    """One fourth-order Magnus step on each [a_i, b_i]: exp of
    Omega = (h/2)(A1 + A2) + (sqrt3/12) h^2 [A2, A1] with A1, A2 the generator
    at the two Gauss nodes. Returns maps (4, n, *batch)."""
    h = b - a
    tp, ep, bp, cp = gen(a + _GAUSS2[0] * h)
    tq, eq, bq, cq = gen(a + _GAUSS2[1] * h)
    shape = a.shape + batch
    h = h.reshape(shape[:1] + (1,) * len(batch))
    k = math.sqrt(3.0) / 12.0 * h * h
    half = 0.5 * h
    # Omega = tau I + ((e, o01), (o10, -e)); the commutator is trace-free, with
    # the diagonal k (bq cp - bp cq), the off-diagonal 2k (bp eq - bq ep), 2k (cq ep - cp eq)
    tau = 0.0 if np.ndim(tp) == 0 and tp == 0 else half * (tp + tq)
    anti = 2.0 * k * (bp * eq - bq * ep)
    if bp is cp:
        # symmetric: the commutator has no diagonal and an antisymmetric rest
        sym = half * (bp + bq)
        return _expm(tau, half * (ep + eq), sym + anti, sym - anti, shape)
    return _expm(tau, half * (ep + eq) + k * (bq * cp - bp * cq),
                 half * (bp + bq) + anti, half * (cp + cq) + 2.0 * k * (cq * ep - cp * eq), shape)


def row_gram(X: np.ndarray) -> np.ndarray:
    """Entries 00, 01, 11 of X X^T for stacks of 2x2 matrices X, on a last
    axis of length 3: the integrand of a Gram integral."""
    x00, x01, x10, x11 = (X[..., i, j] for i in (0, 1) for j in (0, 1))
    out = np.empty(X.shape[:-2] + (3,), X.dtype)
    np.add(x00 * x00, x01 * x01, out=out[..., 0])
    np.add(x00 * x10, x01 * x11, out=out[..., 1])
    np.add(x10 * x10, x11 * x11, out=out[..., 2])
    return out


# A set of pieces is a tuple (a, b, row, maps, ...) with the pieces [a, b] on
# axis 0 of times and on axis 1 of maps. row marks a b that is a t_eval point;
# a pending piece holds its two-step map, an accepted one its four-step map
# and, with an integrand, its quarter-step maps (4, n, 4, *batch).

def _cat(*sets):
    return tuple(np.concatenate(f, axis=int(f[0].ndim > 1)) for f in zip(*sets))


def _take(pieces, idx):
    return tuple(f[:, idx] if f.ndim > 1 else f[idx] for f in pieces)


def _interleave(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    ax = int(x.ndim > 1)
    return np.stack([x, y], axis=ax + 1).reshape(x.shape[:ax] + (-1,) + x.shape[ax + 1:])


def _halves(a, b, row, left, right):
    """The two halves of each piece, in order, with the maps of its halves."""
    mid = 0.5 * (a + b)
    return (_interleave(a, mid), _interleave(mid, b),
            _interleave(np.zeros(row.size, bool), row), _interleave(left, right))


def _splittable(a, b):
    mid = 0.5 * (a + b)
    q1, q3 = 0.5 * (a + mid), 0.5 * (mid + b)
    return (a < q1) & (q1 < mid) & (mid < q3) & (q3 < b)


def _quarter_maps(gen, a, b, batch):
    """Maps (4, n, 4, *batch) of the quarter steps of each piece, a view in
    which each quarter's maps are contiguous."""
    mid = 0.5 * (a + b)
    q1, q3 = 0.5 * (a + mid), 0.5 * (mid + b)
    Q = _magnus(gen, np.concatenate([a, q1, mid, q3]), np.concatenate([q1, mid, q3, b]), batch)
    return Q.reshape((4, 4, a.size) + batch).swapaxes(1, 2)


def _piece_sums(integrand, layout, Q, y, ends, width):
    """Boole's rule on the five states of each piece (the Richardson
    extrapolation of Simpson on two and on four substeps), the difference of
    those two Simpson sums, and the largest |f| on the piece. The pieces run
    from the state y to the states ends (see _apply); one integrand call
    takes each shared boundary state once."""
    n = ends.shape[2]
    bounds = np.concatenate([y[:, :, None], ends], axis=2)
    s1 = _apply(Q[:, :, 0], bounds[:, :, :-1])
    s2 = _apply(Q[:, :, 1], s1)
    s3 = _apply(Q[:, :, 2], s2)
    f = integrand(layout(np.concatenate([bounds, s1, s2, s3], axis=2)))
    f0, f4, (f1, f2, f3) = f[:n], f[1:n + 1], f[n + 1:].reshape((3, n) + f.shape[1:])
    w = width.reshape((-1,) + (1,) * (f.ndim - 1))
    two = w / 6.0 * (f0 + 4.0 * f2 + f4)
    four = w / 12.0 * (f0 + 4.0 * f1 + 2.0 * f2 + 4.0 * f3 + f4)
    fmax = np.abs(np.stack([f0, f1, f2, f3, f4])).max(axis=0)
    return four + (four - two) / 15.0, np.abs(four - two), fmax


# an overflowing or undefined map fails its piece's error test, which is the
# signal that the piece needs bisecting; numpy need not warn about it too
@np.errstate(over="ignore", invalid="ignore")
def propagate(gen: Callable, y0, lo: float, hi: float, tol: float, breaks=(),
              t_eval=None, integrand: Callable | None = None) -> Propagation:
    """Integrate y' = A(t) y from y(lo) = y0 to hi, for 2x2 generators A.

    ``gen`` maps a 1-d array of times t to the components (tr, e, o01, o10)
    of A = tr I + ((e, o01), (o10, -e)), each broadcasting to (t.size,
    *batch): one constant in time or over the batch may be a scalar or have
    length 1 there. A tr that is the scalar 0 skips exp(tr); an o01 that is
    o10 itself (a symmetric trace-free part) skips the commutator's
    diagonal. ``y0`` is a vector (*batch, 2) or a matrix (*batch, 2, 2) per
    batch member. The mesh starts at lo, hi, the ``breaks`` inside (lo, hi)
    and the ``t_eval`` points (increasing points of [lo, hi]). Each piece
    takes four fourth-order Magnus steps (see _magnus; maps held
    component-major, see _mul) and is accepted when they differ from two
    steps over it by at most tol max(1, |T|) for every batch member; only
    the pieces that fail are bisected, all of them in one vectorised pass,
    so a constant generator is exact on the starting mesh.

    With t_eval, ``y`` holds the states there as rows; else the state at hi.
    ``integrand`` maps states (n, *y0.shape) to values (n, ...) row by row;
    Boole's rule on the five states of each piece accumulates ``integral``,
    and a piece is bisected too where the Simpson sums on its two and on its
    four substeps differ by more than tol max(1, |f|) (see _QUAD_SUBSTEPS).
    When lo == hi the generator is not called. A tol below _TOL_FLOOR is
    taken as _TOL_FLOOR; a tol <= 0, a piece that cannot be bisected
    further, or more than _MAX_SUBSTEPS substeps raises OdeStepError with
    the last time and state the path reached.
    """
    y0 = np.asarray(y0)
    if not tol > 0:
        raise OdeStepError(f"ODE tolerance must be positive, got {tol}", lo, y0)
    tol = max(tol, _TOL_FLOOR)
    ts = None if t_eval is None else np.asarray(t_eval, dtype=float)
    rows = [] if ts is None or ts[0] != lo else [y0]
    total = None if integrand is None else np.zeros_like(integrand(y0[None])[0])
    sums = [total] if rows and total is not None else []
    total_error = None if total is None else np.zeros(np.shape(total))
    if lo == hi:
        return Propagation(y0 if ts is None else np.stack(rows),
                           total if ts is None or total is None else np.stack(sums),
                           0, np.zeros(()), total_error)

    mesh = np.unique(np.concatenate([
        [lo, hi], [b for b in breaks if lo < b < hi],
        [] if ts is None else ts[(ts > lo) & (ts < hi)]]))
    # the batch shape, from the generator at the first node the path uses
    batch = np.broadcast_shapes(*map(np.shape, gen(lo + _GAUSS2[0] * (mesh[1:2] - lo))))[1:]
    vector = y0.ndim == len(batch) + 1
    y = np.moveaxis(y0[..., None] if vector else y0, (-2, -1), (0, 1))  # (2, c, *batch)

    def layout(s):                              # (2, c, ...) -> (..., 2[, c])
        s = np.moveaxis(s, (0, 1), (-2, -1))
        return s[..., 0] if vector else s

    todo = (mesh[:-1], mesh[1:],
            np.isin(mesh[1:], ts) if ts is not None else np.zeros(mesh.size - 1, bool))
    per_pass = max(1, _PASS_SIZE // max(1, math.prod(batch)))
    pend = None                 # pending pieces, all before todo in time
    done = None                 # accepted pieces not yet folded into y
    error = np.zeros(batch)
    substeps = 0
    t_done = lo

    def fail(message):
        raise OdeStepError(message, t_done, layout(y))

    while todo[0].size or pend[0].size:
        take = min(todo[0].size, per_pass - (0 if pend is None else pend[0].size))
        if take > 0:
            a, b = todo[0][:take], todo[1][:take]
            mid = 0.5 * (a + b)
            two = _magnus(gen, np.concatenate([a, mid]), np.concatenate([mid, b]), batch)
            fresh = (a, b, todo[2][:take], _mul(two[:, take:], two[:, :take]))
            pend = fresh if pend is None else _cat(pend, fresh)
            todo = _take(todo, slice(take, None))

        # four quarter steps on each of the first pending pieces, against
        # their two-step maps; the pieces that fail are bisected
        k = min(pend[0].size, per_pass)
        rest = _take(pend, slice(k, None))
        a, b, row, coarse = _take(pend, slice(0, k))
        Q = _quarter_maps(gen, a, b, batch)
        left, right = _mul(Q[:, :, 1], Q[:, :, 0]), _mul(Q[:, :, 3], Q[:, :, 2])
        fine = _mul(right, left)
        err = (np.max(np.abs(fine - coarse), axis=0)
               / np.maximum(1.0, np.max(np.abs(fine), axis=0)))
        ok = err.reshape(k, -1).max(axis=1) <= tol
        bad = ~ok
        if np.any(bad & ~_splittable(a, b)):
            fail(f"ODE step size underflow near t = {a[bad][0]:.17g}")
        error += err[ok].sum(axis=0)
        substeps += 4 * int(ok.sum())
        accepted = (a[ok], b[ok], row[ok], fine[:, ok]) + (() if total is None else (Q[:, ok],))
        done = accepted if done is None else _cat(done, accepted)
        pend = _cat(_halves(a[bad], b[bad], row[bad], left[:, bad], right[:, bad]), rest)
        if substeps + 4 * pend[0].size > _MAX_SUBSTEPS:
            fail(f"ODE substep budget of {_MAX_SUBSTEPS} exhausted on [{lo}, {hi}]")

        # fold the accepted pieces that come before every pending one into y
        upto = pend[0][0] if pend[0].size else (todo[0][0] if todo[0].size else math.inf)
        done = _take(done, np.argsort(done[0]))
        n = int(np.searchsorted(done[1], upto, side="right"))
        if n == 0:
            continue
        fa, fb, frow, fmap, *fQ = _take(done, slice(0, n))
        done = _take(done, slice(n, None))
        ends = _apply(_prefix(fmap), y)
        if total is not None:
            (fQ,) = fQ
            piece, diff, fmax = _piece_sums(integrand, layout, fQ, y, ends, fb - fa)
            redo = ((diff > tol * np.maximum(1.0, fmax)).reshape(n, -1).any(axis=1)
                    & _splittable(fa, fb) & (substeps < _QUAD_SUBSTEPS))
            if redo.any():
                # bisect those pieces for their integral; the path stops at
                # the first, and the pieces past it wait in done again
                j = int(np.argmax(redo))
                pend = _cat(_halves(fa[redo], fb[redo], frow[redo],
                                    _mul(fQ[:, redo, 1], fQ[:, redo, 0]),
                                    _mul(fQ[:, redo, 3], fQ[:, redo, 2])), pend)
                substeps -= 4 * int(redo.sum())
                later = j + np.nonzero(~redo[j:])[0]
                done = _cat(_take((fa, fb, frow, fmap, fQ), later), done)
                if j == 0:
                    continue
                ends, fb, frow, piece, diff = ends[:, :, :j], fb[:j], frow[:j], piece[:j], diff[:j]
            cum = total + np.cumsum(piece, axis=0)
            sums.extend(cum[frow])
            total = cum[-1]
            total_error = total_error + diff.sum(axis=0)
        rows.extend(layout(ends[:, :, frow]))
        y = ends[:, :, -1]
        t_done = fb[-1]

    if ts is None:
        return Propagation(layout(y), total, substeps, error, total_error)
    return Propagation(np.stack(rows), None if total is None else np.stack(sums),
                       substeps, error, total_error)


def _write_csv(path, header, columns) -> None:
    """Write a CSV file in one call: the header, then a row per entry of the
    columns, floats as .17g and strs as they are: csv.writer's bytes."""
    cells = [[v if isinstance(v, str) else format(v, ".17g") for v in c] for c in columns]
    with open(path, "w", newline="") as fh:
        fh.write("".join(",".join(row) + "\r\n" for row in [header, *zip(*cells)]))


# ---------------------------------------------------------------------------
# batches with a conjugation symmetry
# ---------------------------------------------------------------------------

def fold_mirrors(x: np.ndarray, image: np.ndarray, use_image: np.ndarray):
    """One representative for each class {x_i, image_i} of a 1-d batch whose
    values at the image of a member are the conjugates of its values.

    Each member where ``use_image`` holds is replaced by its image, and exact
    duplicates merge. Returns the representatives, in the order they first
    occur, and ``unfold(v, axis=0)``, which rebuilds values for the whole
    batch from values ``v`` for the representatives on ``axis``: the
    conjugate for a replaced member, with a zero imaginary part as +0.
    """
    canon = np.where(use_image, image, x)
    reps, first, index = np.unique(canon, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    index = rank[index]

    def unfold(v, axis=0):
        v = np.take(v, index, axis=axis)
        if not (np.iscomplexobj(v) and use_image.any()):
            return v
        flip = use_image.reshape((-1,) + (1,) * (v.ndim - axis - 1))
        return np.where(flip, np.conj(v) + 0.0, v)

    return reps[order], unfold


# ---------------------------------------------------------------------------
# decay fitting
# ---------------------------------------------------------------------------

# the rounding of an RSS in eps sqrt(RSS Syy), Syy = sum (y - mean y)^2:
# each residual carries about 2 eps |y - mean y| of it (Cauchy-Schwarz)
_RSS_ROUNDING = 4.0
_FIT_FLOOR = 1e-13      # fit_decay's default magnitude floor


def _decay_rss(alpha, r, y):
    """Best RSS of y ~ c*r^alpha + beta at each alpha, and (c, beta): the
    two-parameter least squares in closed form on centred x = r^alpha,
    c = Sxy / Sxx. alpha may be an array of shape (k, 1); the results are
    then arrays of k."""
    x = r ** alpha
    x_mean = np.mean(x, axis=-1, keepdims=True)
    xc = x - x_mean
    yc = y - np.mean(y)
    c = np.sum(xc * yc, axis=-1, keepdims=True) / np.sum(xc * xc, axis=-1, keepdims=True)
    res = yc - c * xc
    beta = np.mean(y) - c * x_mean
    return np.sum(res * res, axis=-1), c[..., 0], beta[..., 0]


def fit_decay(samples, floor: float = _FIT_FLOOR) -> DecayFit:
    """Fit a stretched-exponential decay class to (r, magnitude) samples.

    Model: -log m = c r^alpha + offset, solved by a deterministic scan over
    alpha with a linear least-squares subproblem (convex at each alpha, no
    initialization). Samples at or below ``floor`` are discarded; if all of
    them are, the identically-zero-tail flag is set instead of fitting. The
    golden section on alpha stops at a bracket of 1e-9, or earlier where its
    two interior RSS values agree to their rounding (see _RSS_ROUNDING), so
    that a change of the data at rounding level leaves alpha where it is.
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
    k = int(np.argmin(_decay_rss(alphas[:, None], r_u, y)[0]))
    lo = alphas[max(k - 1, 0)]
    hi = alphas[min(k + 1, alphas.size - 1)]
    # golden-section refinement on the bracketing interval
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c_pt = hi - invphi * (hi - lo)
    d_pt = lo + invphi * (hi - lo)
    fc = _decay_rss(c_pt, r_u, y)[0]
    fd = _decay_rss(d_pt, r_u, y)[0]
    syy = float(np.sum((y - np.mean(y)) ** 2))
    for _ in range(70):
        # the interior values agree to their rounding: comparing them would
        # move alpha by rounding, not toward the optimum
        if abs(fc - fd) <= _RSS_ROUNDING * np.finfo(float).eps * math.sqrt(max(fc, fd) * syy):
            break
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
    _, c_hat, offset = (float(v) for v in _decay_rss(alpha, r_u, y))

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

def _eval_nodes(f: Callable, x: np.ndarray) -> np.ndarray:
    """f on the whole node array in one call; f must accept arrays."""
    y = np.asarray(f(x))
    if y.shape != x.shape:
        raise ValueError(f"function returned shape {y.shape} on {x.size} nodes; "
                         "it must map an array to an array of the same shape")
    return y


def series_coeffs_from_samples(f: Callable, degree: int, radius: float = 1.0,
                               n_samples: int | None = None) -> np.ndarray:
    """Taylor coefficients of f at 0 up to ``degree`` by circle sampling.

    Samples f on n equispaced points of |s| = radius, in one call on the
    array of all n points, and inverts the discrete Fourier transform. Exact
    (to roundoff) on polynomials of degree <= degree whenever n > degree.
    The nodes come in exact conjugate pairs, z[n - k] = conj(z[k]), so that
    an f which folds them (see fold_mirrors) solves each pair once.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if n_samples is None:
        n_samples = 256
        while n_samples < 4 * (degree + 1):
            n_samples *= 2
    # the upper half of the circle, and its exact conjugates below; the
    # nodes on the real axis are exactly real
    half = radius * np.exp(2j * np.pi * np.arange(n_samples // 2 + 1) / n_samples)
    if n_samples % 2 == 0:
        half[-1] = -radius
    z = np.concatenate([half, np.conj(half[(n_samples + 1) // 2 - 1:0:-1])])
    vals = _eval_nodes(f, z).astype(complex)
    c = np.fft.fft(vals) / n_samples
    k = np.arange(degree + 1)
    return c[: degree + 1] / radius ** k


# ---------------------------------------------------------------------------
# oscillatory tails: integral_{x0}^inf e^{i omega e^x} g(x) dx
# ---------------------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
# half-period panels of an oscillatory tail, and the averagings of their
# partial sums (see exp_phase_tail)
_OSC_PANELS = 64
_OSC_AVERAGINGS = 14
# past this x the ulp of e^x is about 0.5, so e^x has no usable phase
EXP_PHASE_MAX = 36.0
# past this u = omega e^x the panel indices u / pi leave the int64 range
_OSC_PHASE_CAP = 2.0 ** 62
# nodes in one vectorised pass of exp_phase_tail over many x0: bounds a
# pass's memory
_OSC_PASS_NODES = 2 ** 16


def _gauss_panel(w: Callable, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """16-point Gauss-Legendre on each [lo_i, hi_i]; vectorized over panels.
    w may return a trailing axis of values, integrated each on its own. The
    contraction over the nodes is an einsum, not a BLAS product: threaded
    BLAS on a complex panel matrix costs more CPU than it saves."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _GL_X[None, :]
    sums = np.einsum("ij...,j->i...", w(nodes), _GL_W)
    return half.reshape(half.shape + (1,) * (sums.ndim - 1)) * sums


def exp_phase_tail(g: Callable, x0, omega: float = 1.0):
    """Convergent value of integral_{x0}^inf e^{i omega e^x} g(x) dx.

    Substitutes u = omega e^x, sums _OSC_PANELS half-period Gauss panels of
    e^{iu} g(log(u/omega))/u and averages the last 15 partial sums (all that
    reach the last entry) _OSC_AVERAGINGS times. Designed for slowly varying
    g, which may be complex and must accept numpy arrays: on each amplitude
    the program integrates, 32 panels are within 1e-14 of 8000 and 64 keep a
    margin, above the rounding of the phase, about e^{x0} omega eps relative.
    The real and imaginary parts are the cos and sin integrals. Past
    EXP_PHASE_MAX that rounding leaves no correct digit: the value is then
    only bounded, by 65 pi max|g| / (omega e^{x0}). Past omega e^{x0} = 2^62
    raises KernelError.

    A g that returns a trailing axis of m values (shape x.shape + (m,))
    stacks m amplitudes on one set of nodes: the result is then an array of
    their m integrals. A complex amplitude's is bitwise its own call's; a
    real one, divided as a complex one there, can differ by rounding.

    x0 may be a 1-d array: the result then holds one value, or one stacked
    row, per x0. The tails share vectorised passes of at most
    _OSC_PASS_NODES nodes; for a g that acts elementwise each is bitwise
    the scalar call's.
    """

    def w(u):
        v = g(np.log(u / omega))
        phase = np.exp(1j * u)
        if np.ndim(v) > u.ndim:
            phase, u = phase[..., None], u[..., None]
        return phase * (v / u)

    x = np.asarray(x0, dtype=float)
    x_max = math.log(_OSC_PHASE_CAP / omega)
    if not np.all(x <= x_max):
        raise KernelError(f"e^x has no usable phase past x={x_max:.4g}")
    # u = omega e^{x0} by math.exp: np.exp can be an ulp off it, and an ulp
    # of the phase moves a tail by e^{x0} omega eps relative
    a = np.array([omega * math.exp(v) for v in x.ravel()])
    # panels end at multiples of pi, the zero spacing of sin and cos; the head
    # [a, k0 pi] is cut in four for the steep 1/u factor near small a
    k0 = np.floor(a / math.pi).astype(np.int64) + 1
    step = (k0 * math.pi - a) / 4.0
    edges = np.concatenate([np.arange(4.0) * step[:, None] + a[:, None],
                            (k0[:, None] + np.arange(_OSC_PANELS + 1)) * math.pi], axis=1)
    per_pass = max(1, _OSC_PASS_NODES // (_GL_X.size * (edges.shape[1] - 1)))
    tails = []
    for e in np.split(edges, range(per_pass, a.size, per_pass)):
        panels = _gauss_panel(w, e[:, :-1].ravel(), e[:, 1:].ravel())
        arr = np.cumsum(panels.reshape(e.shape[0], -1, *panels.shape[1:]),
                        axis=1)[:, -(_OSC_AVERAGINGS + 1):]
        for _ in range(_OSC_AVERAGINGS):
            arr = 0.5 * (arr[:, :-1] + arr[:, 1:])
        tails.append(arr[:, -1])
    out = np.concatenate(tails).reshape(x.shape + tails[0].shape[1:])
    return complex(out) if out.ndim == 0 else out
