"""Reference values the benchmark computes without the package under test.

Everything here re-derives the model from its formulas with plain numpy:
the transfer function h, the windowed Lomax sampler that makes the
estimate-file inputs, the index of increase of h from a dense grid (no
quadrature, no sign partition), and the empirical index of a set of
pairs. A fault in the package therefore cannot hide in its own reference.
"""

from __future__ import annotations

import numpy as np

GRID_POINTS = 200_001


def log_h(x, gamma, delta, x0, rho):
    """log h(x) for x >= 0, with the (1 + rho) scale strictly above x0.

    h(x) = (gamma + delta/x^2) * exp(gamma*x - delta/x); the log form
    stays finite where h itself overflows (gamma*x > 709), and h(0) = 0
    is the continuous limit, so log h(0) = -inf.
    """
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, -np.inf)
    pos = x > 0.0
    xp = x[pos]
    out[pos] = (
        np.log(gamma + delta / (xp * xp)) + gamma * xp - delta / xp
        + np.where(xp > x0, np.log1p(rho), 0.0)
    )
    return out


def h(x, gamma, delta, x0, rho):
    return np.exp(log_h(x, gamma, delta, x0, rho))


def dense_grid_index(a, b, gamma=0.1, delta=1.0, x0=10.0, rho=0.0, points=GRID_POINTS):
    """Index of increase of h over (a, b] from increments on a dense grid.

    The rising share of sum |h(x_{k+1}) - h(x_k)| over a uniform grid of
    (a, b]. Values are divided by max h before differencing, which the
    index does not see (it is scale-invariant) but which keeps windows
    where h overflows finite. A jump at x0 inside the window enters as
    its own increment between the left value h(x0) and the right limit
    (1 + rho) h(x0), so no grid cell mixes the jump with a slope. On a
    monotone stretch the increments sum exactly; only the cells holding
    a turning point lose, by O(h'' dx^2), which is below 1e-8 of the
    total variation for every case the benchmark uses.
    """
    xs = np.linspace(a, b, points)
    logs = log_h(xs, gamma, delta, x0, rho)
    if a == x0:
        # the window is open at a: its first value is the right limit
        logs[0] += np.log1p(rho)
    if a < x0 < b and rho != 0.0:
        k = int(np.searchsorted(xs, x0, side="right"))
        left = log_h(np.array([x0]), gamma, delta, x0, rho)[0]
        logs = np.insert(logs, k, [left, left + np.log1p(rho)])
    vals = np.exp(logs - logs.max())
    d = np.diff(vals)
    rise, fall = d[d > 0.0].sum(), -d[d < 0.0].sum()
    return float(rise / (rise + fall))


def windowed_lomax_sample(rng, n, alpha, beta, a, b):
    """n draws of a Lomax(alpha, beta) variable conditioned on (a, b],
    by inverting its closed-form cdf; draws landing on a are redrawn."""

    def cdf(t):
        return -np.expm1(-alpha * np.log1p(t / beta))

    fa, fb = cdf(a), cdf(b)
    x = np.empty(0)
    while x.size < n:
        u = fa + rng.random(n - x.size) * (fb - fa)
        draw = np.minimum(beta * np.expm1(-np.log1p(-u) / alpha), b)
        x = np.concatenate([x, draw[draw > a]])
    return x


def pair_index(x, y):
    """(index, numerator, denominator, bn) of outputs ordered by input."""
    d = np.diff(y[np.argsort(x, kind="stable")])
    den = float(np.abs(d).sum())
    num = float(np.clip(d, 0.0, None).sum())
    return num / den, num, den, den / np.sqrt(x.size)
