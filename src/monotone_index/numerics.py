"""Adaptive quadrature and sign partitioning for piecewise-smooth integrands.

The quadrature is a Gauss-Kronrod 7/15 pair under a global worst-panel
refinement queue. Nodes are strictly interior, so integrands may be
undefined at panel endpoints (open support edges, jump points) as long
as the caller splits panels there.
"""

from __future__ import annotations

import heapq
from typing import Callable, Sequence

import numpy as np

from .errors import NonConvergenceError

__all__ = [
    "find_sign_changes",
    "integrate",
    "sign_partition",
    "signed_variation",
]

# integrate stops once the summed error estimate meets
# max(ABS_TOL, REL_TOL * |estimate|); a panel halved MAX_DEPTH times is
# frozen, and MAX_PANELS GK15 panel evaluations end the call
ABS_TOL = 1e-10
REL_TOL = 1e-9
MAX_DEPTH = 60
MAX_PANELS = 100_000
# scan points per sign_partition call, shared among its declared panels
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


def _eval_nodes(f: Callable, xs: np.ndarray) -> np.ndarray:
    """f on a node array; a scalar result such as a constant broadcasts."""
    ys = np.asarray(f(xs), dtype=float)
    # broadcast_to costs ~5 us, a twentieth of an H evaluation at 15 nodes
    return ys if ys.shape == xs.shape else np.broadcast_to(ys, xs.shape)


def _gk15(f: Callable, a: float, b: float) -> tuple[float, float]:
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    ys = _eval_nodes(f, c + h * _NODES)
    kronrod = h * float(_KRONROD_W @ ys)
    gauss = h * float(_GAUSS_W @ ys)
    return kronrod, abs(kronrod - gauss)


def integrate(f: Callable, a: float, b: float) -> float:
    """Integral of f over [a, b] by adaptive Gauss-Kronrod 7/15.

    The panel with the worst error estimate is halved until the summed
    error meets max(ABS_TOL, REL_TOL * |estimate|). A panel that reaches
    MAX_DEPTH is frozen; if the frozen error alone exceeds the budget, or
    the work passes MAX_PANELS panel evaluations, NonConvergenceError is
    raised. Endpoints are never evaluated.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("bounds must be finite")
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")

    est, err = _gk15(f, a, b)
    total_est, total_err = est, err
    heap = [(-err, 0, a, b, est, 0)]
    panels = 1
    while True:
        tol = max(ABS_TOL, REL_TOL * abs(total_est))
        if total_err <= tol:
            return total_est
        if not heap:
            raise NonConvergenceError(
                f"residual error {total_err:.3e} above tolerance {tol:.3e} "
                f"with every panel at max depth {MAX_DEPTH}"
            )
        if panels >= MAX_PANELS:
            raise NonConvergenceError(
                f"residual error {total_err:.3e} above tolerance {tol:.3e} "
                f"after {panels} panel evaluations"
            )
        neg_err, _, pa, pb, pest, pdepth = heapq.heappop(heap)
        perr = -neg_err
        if pdepth >= MAX_DEPTH:
            if perr > tol:
                raise NonConvergenceError(
                    f"panel [{pa:.6g}, {pb:.6g}] stuck at error {perr:.3e} "
                    f"after {MAX_DEPTH} halvings (tolerance {tol:.3e})"
                )
            continue  # frozen: its contribution stays counted in the totals
        m = 0.5 * (pa + pb)
        le, lerr = _gk15(f, pa, m)
        re, rerr = _gk15(f, m, pb)
        total_est += le + re - pest
        total_err += lerr + rerr - perr
        heapq.heappush(heap, (-lerr, panels, pa, m, le, pdepth + 1))
        heapq.heappush(heap, (-rerr, panels + 1, m, pb, re, pdepth + 1))
        panels += 2


def _bisect_root(f: Callable, lo: float, hi: float, flo: float, width: float = 1e-12) -> float:
    lo, hi = float(lo), float(hi)
    neg = flo < 0.0
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        fm = float(f(mid))
        if fm == 0.0:
            return mid
        if (fm < 0.0) == neg:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_sign_changes(f: Callable, a: float, b: float, grid_n: int = SCAN_N) -> list[float]:
    """Sign-change points of f strictly inside (a, b), sorted.

    Grid scan plus bisection to interval width 1e-12. Tangential roots
    (no sign flip) and root pairs closer than the grid pitch are missed
    by construction; pick grid_n for the scale at hand. Endpoints are
    nudged inward, so f may be undefined at a and b themselves.
    """
    if not a < b:
        raise ValueError(f"need a < b, got ({a}, {b})")
    if grid_n < 100:
        raise ValueError("grid_n must be >= 100")
    xs = np.linspace(a, b, grid_n + 1)
    # at least one ulp, so a narrow panel far from 0 still moves off a and b
    margin = (b - a) * 1e-12
    xs[0] = max(a + margin, np.nextafter(a, b))
    xs[-1] = min(b - margin, np.nextafter(b, a))
    ys = _eval_nodes(f, xs)
    if not np.isfinite(ys).all():
        raise ValueError("f must be finite on the scan grid")
    s = np.sign(ys)
    roots = [
        _bisect_root(f, xs[i], xs[i + 1], ys[i])
        for i in np.nonzero(s[:-1] * s[1:] < 0.0)[0]
    ]
    # a grid node sitting exactly on a root counts only if the sign flips across it
    for i in np.nonzero(s == 0.0)[0]:
        if 0 < i < s.size - 1 and s[i - 1] * s[i + 1] < 0.0:
            roots.append(float(xs[i]))
    return sorted(roots)


def sign_partition(
    f: Callable, a: float, b: float, interior_breaks: Sequence[float] = ()
) -> tuple[float, ...]:
    """Breakpoints a < ... < b: the declared interior breaks plus the
    sign-change roots of f, so f keeps one sign between neighbours.

    Declared breakpoints enter before any scan, so no scan panel (and no
    later quadrature panel) straddles a discontinuity. Each declared
    panel gets a share of SCAN_N proportional to its width, floored so
    narrow panels are still scanned properly.
    """
    interior = sorted(set(float(p) for p in interior_breaks))
    if any(not a < p < b for p in interior):
        raise ValueError("interior breakpoints must lie strictly inside (a, b)")
    pts = [a, *interior, b]
    breaks: list[float] = [a]
    for lo, hi in zip(pts, pts[1:]):
        share = max(1000, int(round(SCAN_N * (hi - lo) / (b - a))))
        breaks.extend(find_sign_changes(f, lo, hi, share))
        breaks.append(hi)
    return tuple(breaks)


def signed_variation(f: Callable, breakpoints: Sequence[float]) -> tuple[float, float]:
    """(increasing part, total variation) of the antiderivative of f.

    Integrates f between consecutive breakpoints: the total accumulates
    absolute piece integrals, the increasing part the positive ones.
    Valid when the breakpoints really isolate the signs of f.
    """
    pos = total = 0.0
    for lo, hi in zip(breakpoints, breakpoints[1:]):
        val = integrate(f, lo, hi)
        total += abs(val)
        pos += max(val, 0.0)
    return pos, total
