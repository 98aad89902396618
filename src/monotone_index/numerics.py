"""Adaptive quadrature and sign partitioning for piecewise-smooth integrands.

The quadrature is a Gauss-Kronrod 7/15 pair under global worst-panel
refinement, as in QUADPACK, run in rounds: each round halves the worst
panels and calls the integrand once, on the nodes of all their halves.
Roots are refined the same way, all brackets in one call per round.
Nodes are strictly interior, so integrands may be undefined at panel
endpoints (open support edges, jump points) as long as the caller
splits panels there.
"""

from __future__ import annotations

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
# find_sign_changes splits each bracket into sixteenths
_SIXTEENTHS = np.arange(17) / 16.0


def _eval_nodes(f: Callable, xs: np.ndarray) -> np.ndarray:
    """f on a node array; a scalar result such as a constant broadcasts."""
    ys = np.asarray(f(xs), dtype=float)
    return ys if ys.shape == xs.shape else np.broadcast_to(ys, xs.shape)


def _gk15(f: Callable, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GK15 integrals and error estimates of f on the panels [a[i], b[i]],
    from one call of f on all their nodes."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    xs = (c[:, None] + h[:, None] * _NODES).ravel()
    ys = _eval_nodes(f, xs).reshape(-1, 15)
    kronrod = h * (ys @ _KRONROD_W)
    gauss = h * (ys @ _GAUSS_W)
    return kronrod, np.abs(kronrod - gauss)


def integrate(f: Callable, a: float, b: float) -> float:
    """Integral of f over [a, b] by adaptive Gauss-Kronrod 7/15.

    Refinement runs in rounds until the summed error meets
    max(ABS_TOL, REL_TOL * |estimate|). Each round halves the fewest
    worst panels whose errors add up to the excess over that tolerance,
    and evaluates all their halves in one call of f. A panel that
    reaches MAX_DEPTH is frozen; if a frozen panel's error alone exceeds
    the tolerance, if every panel is frozen, or once MAX_PANELS panel
    evaluations are spent, NonConvergenceError is raised. Endpoints are
    never evaluated.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("bounds must be finite")
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")

    lo, hi = np.array([a], dtype=float), np.array([b], dtype=float)
    est, err = _gk15(f, lo, hi)
    depth = np.zeros(1, dtype=int)
    panels = 1
    while True:
        total_est, total_err = float(est.sum()), float(err.sum())
        tol = max(ABS_TOL, REL_TOL * abs(total_est))
        if total_err <= tol:
            return total_est
        live = depth < MAX_DEPTH
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
                f"with every panel at max depth {MAX_DEPTH}"
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
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_est, new_err = _gk15(f, new_lo, new_hi)
        keep = np.ones(lo.size, dtype=bool)
        keep[split] = False
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        est = np.concatenate([est[keep], new_est])
        err = np.concatenate([err[keep], new_err])
        child = depth[split] + 1
        depth = np.concatenate([depth[keep], child, child])
        panels += new_lo.size


def find_sign_changes(f: Callable, a: float, b: float, grid_n: int = SCAN_N) -> list[float]:
    """Sign-change points of f strictly inside (a, b), sorted.

    A grid scan brackets the sign flips; then every bracket is refined
    at once, in rounds of one call of f on 15 interior points of each
    open bracket, keeping the sixteenth where the sign flips, until its
    width is at most 1e-12 or a single float step. A point where f is
    exactly 0 is returned as the root. Tangential roots (no sign flip)
    and root pairs closer than the grid pitch are missed by
    construction; pick grid_n for the scale at hand. Endpoints are
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
    # a grid node sitting exactly on a root counts only if the sign flips across it
    on_grid = np.flatnonzero((s[1:-1] == 0.0) & (s[:-2] * s[2:] < 0.0)) + 1
    roots = [xs[on_grid]]
    i = np.flatnonzero(s[:-1] * s[1:] < 0.0)
    lo, hi, sign_lo = xs[i], xs[i + 1], s[i]
    while True:
        mid = 0.5 * (lo + hi)
        done = (hi - lo <= 1e-12) | (mid <= lo) | (mid >= hi)
        roots.append(mid[done])
        lo, hi, sign_lo = lo[~done], hi[~done], sign_lo[~done]
        if not lo.size:
            break
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
    return sorted(float(r) for r in np.concatenate(roots))


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
