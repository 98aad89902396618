"""Exact index of increase, from values or derivatives between monotone cuts.

The index over a window (a, b] is

    (sum of positive jumps + increasing part of the continuous variation)
    --------------------------------------------------------------------
    (sum of |jumps|        + total variation of the continuous part)

computed either directly in the input domain or, as a cross-check, in
the quantile domain of an input distribution. The two agree exactly in
theory; the quantile route exists to demonstrate that the index does not
depend on the input distribution at all.

Every route cuts the window at the same points, found in x: the jumps
inside it, plus the function's ``critical_points(lo, hi)`` (where its
derivative may change sign) if it declares them, or else the sign
changes of ``deriv`` that a scan of the window finds. Between cuts the
function is monotone, so wherever it has values (``log_eval`` or
``eval``) each piece's variation and each jump is a difference of two of
them. Only a function known solely through ``deriv`` has it integrated
between the window edges and the cuts, under the tolerances of
:mod:`.numerics`, which never evaluate the ends of a panel. The quantile
route always integrates H between the images of the cuts under the cdf,
and raises where a jump's image does not map back onto the jump.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import Window
from .errors import DegenerateFunctionError
from .numerics import REL_TOL, sign_partition, signed_variation
from .transfer import HFunction

__all__ = [
    "IndexBreakdown",
    "emit_h_profile",
    "theoretical_index",
    "theoretical_index_via_H",
]

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


def _finish(jumps, int_pos: float, int_abs: float, scale: float = 1.0) -> IndexBreakdown:
    """Index from the signed sizes of the counted jumps and the two
    variation sums, all in units of ``scale``; the breakdown reports them
    in the function's own units."""
    jump_pos = sum(max(s, 0.0) for s in jumps)
    jump_abs = sum(abs(s) for s in jumps)
    den = jump_abs + int_abs
    if not (np.isfinite(den) and den > 0.0):
        raise DegenerateFunctionError(
            f"total variation over the window is {den!r}; the index is undefined"
        )
    value = min(max((jump_pos + int_pos) / den, 0.0), 1.0)
    # a zero sum stays 0 when the scale overflows to inf
    parts = (float(v * scale) if v else 0.0 for v in (jump_pos, jump_abs, int_pos, int_abs))
    return IndexBreakdown(*parts, float(value))


def _breakpoints(fn, a: float, b: float) -> tuple[tuple[float, ...], dict[float, float]]:
    """Where (a, b] is cut, in x, and which jumps it holds.

    Returns the breakpoints a < ... < b between which fn is continuous and
    monotone: the jumps inside (a, b), plus fn.critical_points(a, b) if fn
    declares it, or else the sign changes of fn.deriv that a scan of the
    pieces between the jumps finds (it never evaluates deriv at a, b or a
    jump); and the sizes of those jumps by location, the only ones
    counted. Only fn.jumps and one of fn.critical_points and fn.deriv are
    read.
    """
    jumps = {x: s for x, s in fn.jumps if a < x < b}
    if hasattr(fn, "critical_points"):
        return (a, *sorted({*fn.critical_points(a, b), *jumps}), b), jumps
    return sign_partition(fn.deriv, (a, *sorted(jumps), b)), jumps


def _telescoped(fn, breaks, jumps) -> IndexBreakdown:
    """The index from values of fn at the breakpoints.

    Between consecutive breakpoints p < q fn is monotone, so its variation
    on (p, q] is |fn(q) - fn(p+)|, with the right limit fn(p+) taken one
    float step above p; a jump is fn(p+) - fn(p) at a declared jump p.
    Values come from log_eval, divided by the largest in log space so that
    windows where fn overflows stay finite, or else from eval, divided by
    the largest |value|.
    """
    n = len(breaks) - 1
    pts = np.concatenate([breaks[1:], np.nextafter(breaks[:-1], breaks[-1])])
    if hasattr(fn, "log_eval"):
        logs = fn.log_eval(pts)
        log_scale = float(logs.max())
        with np.errstate(over="ignore"):
            vals, scale = np.exp(logs - log_scale), float(np.exp(log_scale))
    else:
        vals = fn.eval(pts)
        scale = float(np.abs(vals).max())
        if not np.isfinite(scale):
            raise ValueError(f"fn must be finite in the window, got {scale!r}")
        vals = vals / (scale or 1.0)  # all zeros stay 0, for _finish to reject
    left, right = vals[:n], vals[n:]
    d = left - right
    steps = [r - v for x, v, r in zip(breaks[1:-1], left, right[1:]) if x in jumps]
    return _finish(steps, float(d[d > 0.0].sum()), float(np.abs(d).sum()), scale)


def theoretical_index(fn, window: Window) -> IndexBreakdown:
    """Index of increase of ``fn`` over ``window``.

    ``fn`` exposes a ``jumps`` list of (location, size) and a ``support``
    interval that must hold the window, and takes and returns numpy
    arrays in:

    - ``critical_points(lo, hi)``, the points of (lo, hi) where the
      derivative may change sign, or else ``deriv(x)``, scanned for its
      sign changes;
    - ``log_eval(x)``, the log of the (positive) value, or else
      ``eval(x)``, left-continuous: the index is then telescoped from
      values at the cuts and one float step above them. An object with
      neither has ``deriv`` integrated between the cuts instead. The
      differences carry an error of ~eps times the largest |value|, so a
      variation not well above that (under a large constant offset) is
      lost; pass such a function through ``deriv`` alone.

    TransferFunction has ``critical_points`` and ``log_eval``, so no scan
    or quadrature runs for it; PiecewiseFunction is scanned, then
    telescoped, and its jumps are the gaps between its segments' values.
    """
    a, b = float(window.a), float(window.b)
    s_lo, s_hi = fn.support
    if a < s_lo or b > s_hi:
        raise ValueError(f"window ({a}, {b}] outside the domain ({s_lo}, {s_hi}]")
    breaks, jumps = _breakpoints(fn, a, b)
    if hasattr(fn, "log_eval") or hasattr(fn, "eval"):
        return _telescoped(fn, breaks, jumps)
    int_pos, int_abs = signed_variation(fn.deriv, breaks)
    return _finish(jumps.values(), int_pos, int_abs)


def theoretical_index_via_H(hf: HFunction) -> IndexBreakdown:
    """The same index computed by integrating H over the unit interval.

    The substitution x = Q(u) maps window integrals of h' onto integrals
    of H, jumps keep the sizes in ``hf.tf.jumps``, and the distribution
    cancels from the ratio, so this must agree with
    :func:`theoretical_index`. The window is cut in x as on the direct
    route, from ``jumps`` and ``critical_points`` or ``deriv`` alone, and
    the cuts are mapped through the cdf, between whose images H keeps one
    sign. Every value is a quadrature of H, never a difference of h
    values, so the route checks the telescoping and the
    distribution-freeness independently.

    ValueError is raised where the window is out of reach in u: if F(b)
    rounds to 1, H is undefined at u = 1 and no u < 1 reaches the top of
    the window; and if the quantile of a counted jump's image lies off
    the jump by more than REL_TOL of the window's width, the cdf is too
    coarse there (1 - F only a few times eps) for H to be split at the
    jump, and the sum would be silently wrong.
    """
    dist = hf.dist
    a, b = dist.window.a, dist.window.b
    if dist.fb == 1.0:
        raise ValueError(f"F({b}) rounds to 1: the top of ({a}, {b}] is out of reach in u")
    breaks, jumps = _breakpoints(hf.tf, a, b)
    cuts = breaks[1:-1]
    images = dist.cdf(np.array(cuts, dtype=float)).tolist()
    # H is split at a jump's image, which only holds the jump if Q maps it back
    for x, u in zip(cuts, images):
        if x in jumps and abs(dist.quantile(u) - x) > REL_TOL * (b - a):
            raise ValueError(
                f"the jump at {x} maps to u = {u!r}, whose quantile is "
                f"{dist.quantile(u)!r}: the cdf is too coarse there to cut ({a}, {b}] in u"
            )
    breaks = [0.0, *sorted({u for u in images if 0.0 < u < 1.0}), 1.0]
    int_pos, int_abs = signed_variation(hf, breaks)
    return _finish(jumps.values(), int_pos, int_abs)


def emit_h_profile(hf: HFunction, grid_n: int) -> np.ndarray:
    """Table of (u, H(u)) rows on the grid u_j = j/grid_n, j = 1..grid_n.

    The grid starts one step above the open edge u = 0 and ends exactly
    at u = 1. A row landing float-exactly on a jump image is nudged half
    a step toward 0 rather than erroring out. ValueError names the first
    row where H is not finite (h' or the density overflows, or h' is
    undefined there in floating point).
    """
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    us = np.arange(1, grid_n + 1, dtype=float) / grid_n
    hit = np.isin(hf.dist.quantile(us), [x for x, _ in hf.tf.jumps])
    us[hit] -= 0.5 / grid_n
    hs = hf(us)
    bad = np.flatnonzero(~np.isfinite(hs))
    if bad.size:
        u, h = float(us[bad[0]]), float(hs[bad[0]])
        raise ValueError(f"H is not finite at u = {u!r}: H(u) = {h!r}")
    return np.column_stack([us, hs])
