"""Exact index of increase from derivative sign structure and jump sizes.

The index over a window (a, b] is

    (sum of positive jumps + increasing part of the continuous variation)
    --------------------------------------------------------------------
    (sum of |jumps|        + total variation of the continuous part)

computed either directly in the input domain or, as a cross-check, in
the quantile domain of an input distribution. The two agree exactly in
theory; the quantile route exists to demonstrate that the index does not
depend on the input distribution at all.

The direct route picks its method from what the function declares. A
function with ``critical_points(lo, hi)`` (the points where its
derivative may change sign) and ``log_eval(x)`` has the closed form: on
each piece between critical points and jumps it is monotone, so its
variation there is the difference of its end values. Any other function
is known only through ``deriv``, and its derivative is integrated by
adaptive quadrature between scanned sign changes, under the fixed scan
size and tolerances of :mod:`.numerics`. The quantile route always
integrates. It splits (0, 1] at the cdf images of the declared jumps and
critical points where the function declares them, since H has the sign
of h'; otherwise it scans H for its sign changes as the direct route
scans h'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import Window
from .errors import DegenerateFunctionError
from .numerics import sign_partition, signed_variation
from .transfer import HFunction

__all__ = [
    "EDGE_MARGIN",
    "IndexBreakdown",
    "emit_h_profile",
    "theoretical_index",
    "theoretical_index_via_H",
]

# open-edge truncation: the integrands used here vanish superexponentially
# toward the support edge, so the omitted mass sits far below quadrature
# tolerance
EDGE_MARGIN = 1e-12


@dataclass(frozen=True)
class IndexBreakdown:
    """Jump and integral components of the index, plus the index itself.

    value = (jump_pos + int_pos) / (jump_abs + int_abs), clamped to [0, 1]
    against terminal rounding. The sums are in the function's own units,
    and inf where those overflow; value is then taken from the same sums
    relative to the function's largest value, so it stays defined.
    """

    jump_pos: float
    jump_abs: float
    int_pos: float
    int_abs: float
    value: float


def _finish(
    jump_pos: float, jump_abs: float, int_pos: float, int_abs: float, scale: float = 1.0
) -> IndexBreakdown:
    """Index from the four sums, which are in units of ``scale``; the
    breakdown reports them in the function's own units."""
    den = jump_abs + int_abs
    if not (np.isfinite(den) and den > 0.0):
        raise DegenerateFunctionError(
            f"total variation over the window is {den!r}; the index is undefined"
        )
    value = min(max((jump_pos + int_pos) / den, 0.0), 1.0)
    # a zero sum stays 0 when the scale overflows to inf
    parts = (float(v * scale) if v else 0.0 for v in (jump_pos, jump_abs, int_pos, int_abs))
    return IndexBreakdown(*parts, float(value))


def _integrated(fn, f, lo, hi, window: Window, to_panel) -> IndexBreakdown:
    """The index from quadrature of ``f`` (h' or H) over (lo, hi], split at
    the images ``to_panel(x)`` of fn's jumps inside the window and of its
    declared critical points, or, when fn declares none, at the sign
    changes of f that a scan finds."""
    # jumps only count strictly inside: the window is open at a, and a jump
    # exactly at b adds no variation within (a, b]
    inner = [(x, s) for x, s in fn.jumps if window.a < x < window.b]
    if hasattr(fn, "critical_points"):
        # to_panel is increasing, so f keeps one sign between the images
        pts = [*fn.critical_points(window.a, window.b), *(x for x, _ in inner)]
        images = {float(to_panel(x)) for x in pts}
        breaks = (lo, *sorted(p for p in images if lo < p < hi), hi)
    else:
        breaks = sign_partition(f, lo, hi, [to_panel(x) for x, _ in inner])
    int_pos, int_abs = signed_variation(f, breaks)
    jump_pos = float(sum(max(s, 0.0) for _, s in inner))
    return _finish(jump_pos, float(sum(abs(s) for _, s in inner)), int_pos, int_abs)


def _telescoped(fn, a: float, b: float, jumps) -> IndexBreakdown:
    """The index from values of fn at its critical points and jumps.

    Between consecutive breakpoints p < q fn is monotone, so its variation
    on (p, q] is |fn(q) - fn(p+)|: the left-continuous value at q against
    the right limit at p, which is the value plus the jump declared at p.
    The window is open at a, so a jump at a enters only as that right
    limit. Everything is divided by the largest value, taken in log space,
    before differencing, which keeps windows where fn overflows finite.
    """
    declared = {x: s for x, s in jumps if a <= x < b}
    breaks = sorted({*fn.critical_points(a, b), *(x for x in declared if x > a)})
    pts = np.array([a, *breaks, b])
    logs = fn.log_eval(pts)
    log_scale = float(logs.max())
    vals = np.exp(logs - log_scale)
    sizes = np.array([declared.get(x, 0.0) for x in pts[:-1]])
    with np.errstate(divide="ignore"):
        steps = np.sign(sizes) * np.exp(np.log(np.abs(sizes)) - log_scale)
    d = vals[1:] - (vals[:-1] + steps)
    with np.errstate(over="ignore"):
        scale = float(np.exp(log_scale))
    return _finish(
        float(np.maximum(steps[1:], 0.0).sum()),
        float(np.abs(steps[1:]).sum()),
        float(d[d > 0.0].sum()),
        float(np.abs(d).sum()),
        scale,
    )


def theoretical_index(fn, window: Window) -> IndexBreakdown:
    """Index of increase of ``fn`` over ``window``.

    ``fn`` exposes a declared ``jumps`` list of (location, size) and a
    ``support`` interval, plus one of two ways to its variation:

    - ``critical_points(lo, hi)``, the points of (lo, hi) where the
      derivative may change sign, together with ``log_eval(x)``, the log
      of the (positive) function value. Then the variation on each piece
      between critical points and jumps is a difference of two values,
      and no quadrature runs. TransferFunction takes this path.
    - ``deriv(x)`` alone, taking and returning numpy arrays. The window
      is split at the jumps, then at the sign changes a scan finds, and
      the derivative is integrated by adaptive quadrature on each piece.
      PiecewiseFunction takes this path.
    """
    a, b = float(window.a), float(window.b)
    s_lo, s_hi = fn.support
    if a < s_lo or b > s_hi:
        raise ValueError(f"window ({a}, {b}] outside the domain ({s_lo}, {s_hi}]")
    if hasattr(fn, "critical_points"):
        return _telescoped(fn, a, b, fn.jumps)
    lo = max(a, s_lo + EDGE_MARGIN)
    return _integrated(fn, fn.deriv, lo, b, window, float)


def theoretical_index_via_H(hf: HFunction) -> IndexBreakdown:
    """The same index computed by integrating H over the unit interval.

    The substitution x = Q(u) maps window integrals of h' one-to-one onto
    integrals of H, jumps map to the images tau_k = cdf(x_k) with their
    sizes unchanged, and the distribution cancels from the ratio. Must
    agree with :func:`theoretical_index` for any windowed distribution.

    The breakpoints are the images cdf(x) of the jumps inside the window
    and, when the function declares ``critical_points``, of those points:
    q > 0, so H changes sign only where h' does. A function without them
    has H scanned for its sign changes. Every value is then a quadrature
    of H, never a difference of h values, so the route still checks the
    closed form's telescoping and the distribution-freeness of the index
    independently; only the split points are shared with it.
    """
    dist = hf.dist
    return _integrated(hf.tf, hf, 0.0, 1.0, dist.window, dist.cdf)


def emit_h_profile(hf: HFunction, grid_n: int) -> np.ndarray:
    """Table of (u, H(u)) rows on the grid u_j = j/grid_n, j = 1..grid_n.

    The grid starts one step above the open edge u = 0 and ends exactly
    at u = 1. A row landing float-exactly on a jump image is nudged half
    a step toward 0 rather than erroring out.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    us = np.arange(1, grid_n + 1, dtype=float) / grid_n
    hit = np.isin(hf.dist.quantile(us), [x for x, _ in hf.tf.jumps])
    us[hit] -= 0.5 / grid_n
    return np.column_stack([us, hf(us)])
