"""Lomax input distribution and its window-conditioned form.

The Lomax (Pareto type II) family has closed-form cdf, quantile and
density-quantile, so conditioning on a window (a, b] stays closed form:
every windowed quantity is a composition of the base cdf/quantile pair
evaluated at cached edge masses. No numerical inversion anywhere.

All functions accept scalars or arrays and return matching shapes;
scalars come back as plain floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import generator

__all__ = [
    "LomaxParams",
    "Window",
    "WindowedDistribution",
    "lomax_cdf",
    "lomax_density_quantile",
    "lomax_pdf",
    "lomax_quantile",
]


def _promote(x):
    """Arguments as a 1-d float array plus a flag to undo the promotion."""
    scalar = np.ndim(x) == 0
    return np.atleast_1d(np.asarray(x, dtype=float)), scalar


def _demote(out, scalar):
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class LomaxParams:
    """Shape ``alpha`` and scale ``beta``, both strictly positive."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and np.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if not (self.beta > 0.0 and np.isfinite(self.beta)):
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")


def lomax_cdf(params: LomaxParams, t):
    """F(t) = 1 - (beta / (t + beta))**alpha for t >= 0.

    Evaluated as -expm1(-alpha * log1p(t/beta)), which keeps full
    precision for t near 0 where the direct form cancels; where t/beta
    overflows, log1p(t/beta) is log t - log beta to within rounding.
    """
    t, scalar = _promote(t)
    if (t < 0.0).any():
        raise ValueError("t must be >= 0")
    with np.errstate(over="ignore"):
        log_ratio = np.log1p(t / params.beta)
    big = np.isinf(log_ratio)
    log_ratio[big] = np.log(t[big]) - np.log(params.beta)
    out = -np.expm1(-params.alpha * log_ratio)
    return _demote(out, scalar)


def lomax_pdf(params: LomaxParams, t):
    """Density alpha/beta * (1 + t/beta)**-(alpha+1) for t >= 0."""
    t, scalar = _promote(t)
    if (t < 0.0).any():
        raise ValueError("t must be >= 0")
    out = params.alpha / params.beta * np.exp(-(params.alpha + 1.0) * np.log1p(t / params.beta))
    return _demote(out, scalar)


def lomax_quantile(params: LomaxParams, u):
    """F^{-1}(u) = beta * ((1 - u)**(-1/alpha) - 1) for 0 <= u < 1."""
    u, scalar = _promote(u)
    if ((u < 0.0) | (u >= 1.0)).any():
        raise ValueError("u must lie in [0, 1)")
    out = params.beta * np.expm1(-np.log1p(-u) / params.alpha)
    return _demote(out, scalar)


def lomax_density_quantile(params: LomaxParams, u):
    """f(F^{-1}(u)) = alpha/beta * (1 - u)**(1 + 1/alpha) for 0 <= u < 1.

    Tends to 0 as u -> 1; the quantile runs off to infinity faster than
    the density decays.
    """
    u, scalar = _promote(u)
    if ((u < 0.0) | (u >= 1.0)).any():
        raise ValueError("u must lie in [0, 1)")
    out = params.alpha / params.beta * np.exp((1.0 + 1.0 / params.alpha) * np.log1p(-u))
    return _demote(out, scalar)


@dataclass(frozen=True)
class Window:
    """Half-open observation window (a, b] inside the support [0, inf)."""

    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError("window edges must be finite")
        if not (0.0 <= self.a < self.b):
            raise ValueError(f"need 0 <= a < b, got ({self.a}, {self.b}]")


@dataclass(frozen=True)
class WindowedDistribution:
    """Lomax distribution conditioned on falling in a window (a, b].

    The edge masses fa = F(a) and fb = F(b) are computed once at
    construction; every method is a closed-form composition through them.
    """

    base: LomaxParams
    window: Window
    fa: float = field(init=False)
    fb: float = field(init=False)

    def __post_init__(self):
        fa = lomax_cdf(self.base, self.window.a)
        fb = lomax_cdf(self.base, self.window.b)
        if fb - fa < 1e-300:
            raise ValueError(
                f"window ({self.window.a}, {self.window.b}] carries no probability mass"
            )
        object.__setattr__(self, "fa", fa)
        object.__setattr__(self, "fb", fb)

    @property
    def mass(self) -> float:
        return self.fb - self.fa

    def cdf(self, x):
        """Conditional cdf, total on the reals: 0 up to and including a,
        (F(x) - fa) / (fb - fa) on the window, 1 beyond b."""
        x, scalar = _promote(x)
        out = np.zeros_like(x)
        out[x > self.window.b] = 1.0
        inside = (x > self.window.a) & (x <= self.window.b)
        out[inside] = np.clip(
            (lomax_cdf(self.base, x[inside]) - self.fa) / self.mass, 0.0, 1.0
        )
        return _demote(out, scalar)

    def quantile(self, t):
        """Conditional quantile F^{-1}(fa + t * (fb - fa)) for 0 <= t <= 1.

        Endpoints map to the window edges exactly; interior values are
        clipped into [a, b] to absorb round-trip rounding at the edges.
        """
        t, scalar = _promote(t)
        if ((t < 0.0) | (t > 1.0)).any():
            raise ValueError("t must lie in [0, 1]")
        out = np.empty_like(t)
        at_hi = t == 1.0
        out[at_hi] = self.window.b
        inner = ~at_hi
        out[inner] = lomax_quantile(self.base, self.fa + t[inner] * self.mass)
        np.clip(out, self.window.a, self.window.b, out=out)
        return _demote(out, scalar)

    def pdf(self, x):
        """Conditional density f(x) / (fb - fa) on (a, b], 0 elsewhere.

        Zero at exactly a: the window is open there.
        """
        x, scalar = _promote(x)
        out = np.zeros_like(x)
        inside = (x > self.window.a) & (x <= self.window.b)
        out[inside] = lomax_pdf(self.base, x[inside]) / self.mass
        return _demote(out, scalar)

    def density_quantile(self, t):
        """f(F^{-1}(fa + t*(fb - fa))) / (fb - fa) for 0 <= t <= 1.

        Defined at t = 1 by left continuity (the inner argument fb is
        strictly below 1, so nothing singular happens there).
        """
        t, scalar = _promote(t)
        if ((t < 0.0) | (t > 1.0)).any():
            raise ValueError("t must lie in [0, 1]")
        out = lomax_density_quantile(self.base, self.fa + t * self.mass) / self.mass
        return _demote(out, scalar)

    def sample(self, seed: int, n: int) -> np.ndarray:
        """n i.i.d. draws from the windowed distribution, strictly in (a, b].

        Inverse-cdf sampling from PCG64 uniforms. A uniform equal to 0,
        or one small enough that rounding collapses the quantile onto the
        open edge a, is redrawn; both are probability-~0 events.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        rng = generator(seed)
        x = self.quantile(rng.random(n))
        while True:
            bad = x <= self.window.a
            if not bad.any():
                return x
            x[bad] = self.quantile(rng.random(int(bad.sum())))
