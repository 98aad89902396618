"""Adaptive quadrature and sign partitioning for piecewise-smooth integrands.

The quadrature is a Gauss-Kronrod 7/15 pair under global worst-panel
refinement, as in QUADPACK, run in rounds over all the pieces of a
window at once: each round halves the worst panels and calls the
integrand once, on the nodes of all their halves. The sign scan takes
the same breakpoints: one call of f on the grids of all the pieces, then
all brackets refined together, one call per round. Neither integrate nor
sign_partition evaluates the ends of a piece or panel, however few
floats lie between them, so integrands may be undefined there (an open
support edge such as x = 0, a jump point), and a caller passes a window
and its cuts as they are, as breakpoints.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import NonConvergenceError

__all__ = [
    "integrate",
    "sign_partition",
    "signed_variation",
]

# integrate stops once the summed error estimate is at most REL_TOL times
# the summed |estimate| of its panels; a panel halved MAX_DEPTH times is
# frozen, and MAX_PANELS GK15 panel evaluations end the run
REL_TOL = 1e-9
MAX_DEPTH = 60
MAX_PANELS = 100_000
# scan points per sign_partition call, shared among its pieces by width
SCAN_N = 100_000

# dqk15 abscissae and weights: positive Kronrod nodes descending, zero last
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469,
])

# full 15-point layout: negatives, zero, positives ascending
_NODES = np.concatenate([-_XGK[:7], _XGK[7:8], _XGK[6::-1]])
_KRONROD_W = np.concatenate([_WGK[:7], _WGK[7:8], _WGK[6::-1]])
_GAUSS_W = np.zeros(15)
for _k, _w in zip((1, 3, 5), _WG[:3]):
    _GAUSS_W[_k] = _GAUSS_W[14 - _k] = _w
_GAUSS_W[7] = _WG[3]
# sign_partition splits each bracket into sixteenths
_SIXTEENTHS = np.arange(17) / 16.0


def _eval_nodes(f: Callable, xs: np.ndarray) -> np.ndarray:
    """f on a node array; a scalar result such as a constant broadcasts."""
    ys = np.asarray(f(xs), dtype=float)
    return ys if ys.shape == xs.shape else np.broadcast_to(ys, xs.shape)


def _edges(breakpoints: Sequence[float]) -> np.ndarray:
    """The breakpoints as an array, checked: finite, at least two, and
    strictly increasing."""
    edges = np.asarray(breakpoints, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or not np.isfinite(edges).all():
        raise ValueError("need at least two finite breakpoints")
    if not (np.diff(edges) > 0.0).all():
        raise ValueError(f"breakpoints must increase strictly, got {edges.tolist()}")
    return edges


def _gk15(f: Callable, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GK15 integrals and error estimates of f on the panels [a[i], b[i]],
    from one call of f on all their nodes, or none if there are no panels.
    The nodes are clipped strictly inside each panel, which must hold a
    float: under 234 floats wide, the outermost would round onto its ends."""
    if not a.size:
        return a, a
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    inside = np.nextafter(a, b)[:, None], np.nextafter(b, a)[:, None]
    xs = np.clip(c[:, None] + h[:, None] * _NODES, *inside)
    ys = _eval_nodes(f, xs.ravel()).reshape(-1, 15)
    if not np.isfinite(ys).all():
        raise ValueError("f must be finite at every quadrature node")
    kronrod = h * (ys @ _KRONROD_W)
    gauss = h * (ys @ _GAUSS_W)
    return kronrod, np.abs(kronrod - gauss)


def integrate(f: Callable, breakpoints: Sequence[float]) -> np.ndarray:
    """Integrals of f over the pieces between consecutive breakpoints, by
    one run of adaptive Gauss-Kronrod 7/15 whose starting panels are the
    pieces.

    Refinement runs in rounds until the summed error is at most REL_TOL
    times the summed |estimate| of the panels, which is the integral of
    |f| where f keeps one sign on each piece. Each round halves the
    fewest worst panels, over all pieces, whose errors add up to the
    excess over that tolerance, and evaluates all their halves in one
    call of f. A panel too narrow to halve into two that hold a float is
    final: refinement cannot cut its error, which no longer counts. A
    panel that reaches MAX_DEPTH is frozen; if a frozen panel's error
    alone exceeds the tolerance, if every panel is frozen, or once
    MAX_PANELS panel evaluations are spent, NonConvergenceError is
    raised. A value of f that is not finite at any node raises ValueError
    at once. A piece with no float strictly inside contributes 0, and f
    is not called on it.
    """
    edges = _edges(breakpoints)
    piece = np.flatnonzero(np.nextafter(edges[:-1], edges[1:]) < edges[1:])
    lo, hi = edges[piece], edges[piece + 1]
    est, err = _gk15(f, lo, hi)
    depth = np.zeros(piece.size, dtype=int)
    panels = piece.size
    while True:
        # halving must leave a float strictly inside either half
        mid = 0.5 * (lo + hi)
        final = (np.nextafter(lo, mid) >= mid) | (np.nextafter(mid, hi) >= hi)
        err[final] = 0.0
        total_err = float(err.sum())
        tol = REL_TOL * float(np.abs(est).sum())
        if total_err <= tol:
            return np.bincount(piece, weights=est, minlength=edges.size - 1)
        live = (depth < MAX_DEPTH) & ~final
        stuck = np.flatnonzero(~live & (err > tol))
        if stuck.size:
            i = stuck[np.argmax(err[stuck])]
            raise NonConvergenceError(
                f"panel [{lo[i]:.6g}, {hi[i]:.6g}] stuck at error {err[i]:.3e} "
                f"after {MAX_DEPTH} halvings (tolerance {tol:.3e})"
            )
        if not live.any():
            raise NonConvergenceError(
                f"residual error {total_err:.3e} above tolerance {tol:.3e} "
                f"with every panel frozen"
            )
        if panels >= MAX_PANELS:
            raise NonConvergenceError(
                f"residual error {total_err:.3e} above tolerance {tol:.3e} "
                f"after {panels} panel evaluations"
            )
        # the fewest worst panels whose errors cover the excess over tol
        worst = np.flatnonzero(live)
        worst = worst[np.argsort(-err[worst], kind="stable")]
        k = 1 + int(np.count_nonzero(np.cumsum(err[worst]) < total_err - tol))
        # trimmed so that the work never passes MAX_PANELS + 1 evaluations
        split = worst[:min(k, (MAX_PANELS + 1 - panels) // 2)]
        new_lo = np.concatenate([lo[split], mid[split]])
        new_hi = np.concatenate([mid[split], hi[split]])
        new_est, new_err = _gk15(f, new_lo, new_hi)
        keep = np.ones(lo.size, dtype=bool)
        keep[split] = False
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        est = np.concatenate([est[keep], new_est])
        err = np.concatenate([err[keep], new_err])
        piece = np.concatenate([piece[keep], piece[split], piece[split]])
        depth = np.concatenate([depth[keep], depth[split] + 1, depth[split] + 1])
        panels += new_lo.size


def sign_partition(f: Callable, breakpoints: Sequence[float]) -> tuple[float, ...]:
    """The breakpoints with the sign-change roots of f between them merged
    in, strictly ascending, so that f keeps one sign on each new piece.

    One call of f scans all the pieces, each on a grid that gets a share
    of SCAN_N proportional to its width, at least 1000, with its ends
    nudged inward; no grid crosses a breakpoint, so f may be undefined or
    jump there. Then every bracket of every piece is refined at once, in
    rounds of one call of f on 15 interior points of each open bracket,
    keeping the sixteenth where the sign flips, until its width is at
    most 1e-12 or a single float step. A grid point where f is exactly 0
    is a root if the sign flips across it. Tangential roots (no sign
    flip) and root pairs closer than the grid pitch are missed by
    construction. f is not called on a piece with no float strictly
    inside, and a value of f that is not finite on a grid raises
    ValueError.
    """
    edges = _edges(breakpoints)
    ends = edges.tolist()
    width = ends[-1] - ends[0]
    grids = []
    for lo, hi in zip(ends, ends[1:]):
        xs = np.linspace(lo, hi, max(1000, round(SCAN_N * (hi - lo) / width)) + 1)
        # at least one ulp, so a narrow piece far from 0 still moves off its ends
        margin = (hi - lo) * 1e-12
        xs[0] = max(lo + margin, np.nextafter(lo, hi))
        xs[-1] = min(hi - margin, np.nextafter(hi, lo))
        if xs[0] <= xs[-1]:  # else no float lies strictly inside (lo, hi)
            # on a piece a few ulps wide, linspace can round an interior point onto an end
            xs[1:-1] = np.clip(xs[1:-1], xs[0], xs[-1])
            grids.append(xs)
    if not grids:
        return tuple(ends)
    xs = np.concatenate(grids)
    ys = _eval_nodes(f, xs)
    if not np.isfinite(ys).all():
        raise ValueError("f must be finite on the scan grid")
    s = np.sign(ys)
    # neither a bracket nor a grid root spans the gap between two pieces' grids
    same = np.ones(xs.size - 1, dtype=bool)
    same[np.cumsum([g.size for g in grids[:-1]], dtype=int) - 1] = False
    on_grid = (s[1:-1] == 0.0) & (s[:-2] * s[2:] < 0.0) & same[:-1] & same[1:]
    roots = [edges, xs[1:-1][on_grid]]
    i = np.flatnonzero(same & (s[:-1] * s[1:] < 0.0))
    lo, hi, sign_lo = xs[i], xs[i + 1], s[i]
    while True:
        mid = 0.5 * (lo + hi)
        done = (hi - lo <= 1e-12) | (mid <= lo) | (mid >= hi)
        roots.append(mid[done])
        lo, hi, sign_lo = lo[~done], hi[~done], sign_lo[~done]
        if not lo.size:
            return tuple(np.unique(np.concatenate(roots)).tolist())
        pts = lo[:, None] + (hi - lo)[:, None] * _SIXTEENTHS
        pts[:, -1] = hi
        sp = np.sign(_eval_nodes(f, pts[:, 1:-1].ravel())).reshape(-1, 15)
        # past the last interior point the sign is the right end's
        sp = np.column_stack([sp, -sign_lo])
        # the first point off the left sign is a root (f = 0) or ends the bracket
        j = (sp != sign_lo[:, None]).argmax(axis=1)
        rows = np.arange(lo.size)
        hit = sp[rows, j] == 0.0
        roots.append(pts[rows, j + 1][hit])
        lo, hi, sign_lo = pts[rows, j][~hit], pts[rows, j + 1][~hit], sign_lo[~hit]


def signed_variation(f: Callable, breakpoints: Sequence[float]) -> tuple[float, float]:
    """(increasing part, total variation) of the antiderivative of f.

    Integrates f over every piece between consecutive breakpoints in one
    run: the total adds up the absolute piece integrals, the increasing
    part the positive ones. Valid when the breakpoints really isolate
    the signs of f.
    """
    vals = integrate(f, breakpoints)
    return float(np.maximum(vals, 0.0).sum()), float(np.abs(vals).sum())
