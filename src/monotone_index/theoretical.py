"""Exact index of increase from derivative sign structure and jump sizes.

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
changes of ``deriv`` that a scan finds. Between cuts the function is
monotone. A function with ``log_eval(x)`` then has the closed form: its
variation on each piece is the difference of its end values. Any other
function has its derivative integrated between the cuts by adaptive
quadrature, under the fixed scan size and tolerances of
:mod:`.numerics`. So ``critical_points`` replaces the scan and
``log_eval`` the quadrature, each independently of the other. The
quantile route always integrates: it maps the cuts through the cdf,
which is increasing, and H has the sign of h' between the images. The
jumps are counted once, from the same list, on every route.
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


def _breakpoints(fn, a: float, b: float) -> tuple[list[float], dict[float, float], float]:
    """Where (a, b] is cut, in x, and which jumps it holds.

    Returns the cuts strictly inside (a, b), ascending, between which fn is
    continuous and monotone: the jumps there, plus fn.critical_points(a, b)
    if fn declares it, or else the sign changes of fn.deriv that a scan
    finds above EDGE_MARGIN from the lower edge of fn's support. Also
    returns the sizes of those jumps by location, the only ones counted,
    and the size of a jump at a (0.0 if none): the window is open at a, so
    that one only sets the right limit there. A jump at b adds no
    variation within (a, b].
    """
    declared = fn.jumps
    jumps = {x: s for x, s in declared if a < x < b}
    edge = next((s for x, s in declared if x == a), 0.0)
    if hasattr(fn, "critical_points"):
        found = fn.critical_points(a, b)
    else:
        # a jump below lo is still a cut, for the quantile route to split at
        lo = max(a, fn.support[0] + EDGE_MARGIN)
        found = sign_partition(fn.deriv, lo, b, [x for x in jumps if x > lo])[1:-1]
    return sorted({*found, *jumps}), jumps, edge


def _telescoped(fn, a: float, b: float, cuts, jumps, edge: float) -> IndexBreakdown:
    """The index from values of fn at the window edges and cuts.

    Between consecutive points p < q fn is monotone, so its variation on
    (p, q] is |fn(q) - fn(p+)|: the left-continuous value at q against the
    right limit at p, which is the value plus the jump at p. Everything is
    divided by the largest value, taken in log space, before differencing,
    which keeps windows where fn overflows finite.
    """
    pts = np.array([a, *cuts, b])
    logs = fn.log_eval(pts)
    log_scale = float(logs.max())
    vals = np.exp(logs - log_scale)
    sizes = np.array([edge, *(jumps.get(x, 0.0) for x in cuts)])
    with np.errstate(divide="ignore"):
        steps = np.sign(sizes) * np.exp(np.log(np.abs(sizes)) - log_scale)
    d = vals[1:] - (vals[:-1] + steps)
    with np.errstate(over="ignore"):
        scale = float(np.exp(log_scale))
    # steps past a are the counted jumps, and 0 at the other cuts
    return _finish(steps[1:].tolist(), float(d[d > 0.0].sum()), float(np.abs(d).sum()), scale)


def theoretical_index(fn, window: Window) -> IndexBreakdown:
    """Index of increase of ``fn`` over ``window``.

    ``fn`` exposes a declared ``jumps`` list of (location, size), a
    ``support`` interval and ``deriv(x)``, taking and returning numpy
    arrays. Two optional declarations each replace a numerical step:

    - ``critical_points(lo, hi)``, the points of (lo, hi) where the
      derivative may change sign, replaces the scan of ``deriv`` for its
      sign changes;
    - ``log_eval(x)``, the log of the (positive) function value, replaces
      the quadrature: the variation on each piece between cuts is then a
      difference of two values.

    TransferFunction declares both, so neither a scan nor a quadrature
    runs for it, and it needs no ``deriv`` here. PiecewiseFunction
    declares neither: its window is split at the jumps and at the sign
    changes a scan finds, and its derivative is integrated on each piece.
    """
    a, b = float(window.a), float(window.b)
    s_lo, s_hi = fn.support
    if a < s_lo or b > s_hi:
        raise ValueError(f"window ({a}, {b}] outside the domain ({s_lo}, {s_hi}]")
    cuts, jumps, edge = _breakpoints(fn, a, b)
    if hasattr(fn, "log_eval"):
        return _telescoped(fn, a, b, cuts, jumps, edge)
    lo = max(a, s_lo + EDGE_MARGIN)
    int_pos, int_abs = signed_variation(fn.deriv, [lo, *(x for x in cuts if x > lo), b])
    return _finish(jumps.values(), int_pos, int_abs)


def theoretical_index_via_H(hf: HFunction) -> IndexBreakdown:
    """The same index computed by integrating H over the unit interval.

    The substitution x = Q(u) maps window integrals of h' one-to-one onto
    integrals of H, jumps map to the images tau_k = cdf(x_k) with their
    sizes unchanged, and the distribution cancels from the ratio. Must
    agree with :func:`theoretical_index` for any windowed distribution.

    The window is cut in x, at the same points as on the direct route,
    and the cuts are mapped through the cdf: it is increasing and q > 0,
    so H keeps one sign between the images. A function that declares no
    ``critical_points`` is scanned in x for the sign changes of its
    ``deriv``, and needs a ``support`` for that. Every value is then a
    quadrature of H, never a difference of h values, so the route still
    checks the closed form's telescoping and the distribution-freeness
    of the index independently; only the cuts are shared with it.
    """
    dist = hf.dist
    cuts, jumps, _ = _breakpoints(hf.tf, dist.window.a, dist.window.b)
    images = {float(dist.cdf(x)) for x in cuts}
    breaks = [0.0, *sorted(u for u in images if 0.0 < u < 1.0), 1.0]
    int_pos, int_abs = signed_variation(hf, breaks)
    return _finish(jumps.values(), int_pos, int_abs)


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
