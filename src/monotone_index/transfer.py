"""Regime-switching transfer function, generic piecewise functions, and
the quantile-domain derivative ratio used by the distribution-free index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .distributions import WindowedDistribution, _demote, _promote
from .errors import SingularPointError

__all__ = ["HFunction", "PiecewiseFunction", "Segment", "TransferFunction"]


@dataclass(frozen=True)
class TransferFunction:
    """h(x) = (gamma + delta/x^2) * exp(gamma*x - delta/x), with the value
    scaled by (1 + rho) strictly above the switch point x0.

    Left-continuous at x0: h(x0) itself is the unscaled branch. The value
    at x = 0 is the continuous limit 0. rho = 0 removes the regime switch
    and with it the jump; rho > -1 keeps the function positive.
    """

    gamma: float = 0.1
    delta: float = 1.0
    x0: float = 10.0
    rho: float = 0.0

    def __post_init__(self):
        if not (self.gamma > 0.0 and np.isfinite(self.gamma)):
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
        if not (self.delta > 0.0 and np.isfinite(self.delta)):
            raise ValueError(f"delta must be finite and > 0, got {self.delta}")
        if not (self.x0 > 0.0 and np.isfinite(self.x0)):
            raise ValueError(f"x0 must be finite and > 0, got {self.x0}")
        if not (self.rho > -1.0 and np.isfinite(self.rho)):
            raise ValueError(f"rho must be finite and > -1, got {self.rho}")

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, np.inf)

    def _log_branch(self, x: np.ndarray) -> np.ndarray:
        # log-domain evaluation: exp(-delta/x)/x^2 underflows long before
        # delta/x^2 overflows, so the direct product would produce 0 * inf
        with np.errstate(over="ignore"):
            return (
                np.log(self.delta)
                - 2.0 * np.log(x)
                + np.log1p(self.gamma * x * x / self.delta)
                + self.gamma * x
                - self.delta / x
            )

    def _branch(self, x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(self._log_branch(x))

    def eval(self, x):
        """Evaluate h; accepts x >= 0 and returns the limit 0 at x = 0."""
        x, scalar = _promote(x)
        if (x < 0.0).any():
            raise ValueError("x must be >= 0")
        out = np.zeros_like(x)
        pos = x > 0.0
        out[pos] = self._branch(x[pos]) * np.where(x[pos] > self.x0, 1.0 + self.rho, 1.0)
        return _demote(out, scalar)

    __call__ = eval

    def log_eval(self, x):
        """log h(x) for x >= 0, -inf at x = 0.

        Finite wherever x is, including where h itself overflows
        (gamma*x > ~709) or underflows toward x = 0.
        """
        x, scalar = _promote(x)
        if (x < 0.0).any():
            raise ValueError("x must be >= 0")
        out = np.full_like(x, -np.inf)
        pos = x > 0.0
        out[pos] = self._log_branch(x[pos]) + np.where(
            x[pos] > self.x0, np.log1p(self.rho), 0.0
        )
        return _demote(out, scalar)

    def critical_points(self, lo: float, hi: float) -> tuple[float, ...]:
        """Points of (lo, hi) where h' may change sign, ascending.

        These are the real roots of the quartic p(x) that carries the sign
        of h' (see deriv); the (1 + rho) scale above x0 is positive and
        leaves the sign alone. Near-real roots are kept as well: a spare
        breakpoint never changes a sum of h differences over monotone
        pieces, but a missed one does.
        """
        g, d = self.gamma, self.delta
        roots = np.roots([g * g, 0.0, 2.0 * g * d, -2.0 * d, d * d])
        # a double root comes back as a complex pair split by ~sqrt(eps)
        near_real = np.abs(roots.imag) <= 1e-6 * np.abs(roots)
        return tuple(float(r) for r in np.unique(roots.real[near_real]) if lo < r < hi)

    def deriv(self, x):
        """h'(x) for x > 0, away from the switch point.

        The sign is carried by p(x) = (gamma*x^2 + delta)^2 - 2*delta*x;
        the magnitude is evaluated in the log domain for the same
        underflow reason as eval. Raises SingularPointError at x0 when
        rho != 0, where the one-sided derivatives differ.
        """
        x, scalar = _promote(x)
        if (x <= 0.0).any():
            raise ValueError("x must be > 0")
        if self.rho != 0.0 and (x == self.x0).any():
            raise SingularPointError(
                f"derivative undefined at the switch point x0 = {self.x0}"
            )
        p = (self.gamma * x * x + self.delta) ** 2 - 2.0 * self.delta * x
        with np.errstate(over="ignore", divide="ignore"):
            mag = np.exp(
                np.log(np.abs(p)) - 4.0 * np.log(x) + self.gamma * x - self.delta / x
            )
        out = np.sign(p) * mag
        out *= np.where(x > self.x0, 1.0 + self.rho, 1.0)
        return _demote(out, scalar)

    def jump_size(self) -> float:
        """Jump h(x0+) - h(x0) = rho * (unscaled branch at x0)."""
        return self.rho * self.eval(self.x0)

    @property
    def jumps(self) -> tuple[tuple[float, float], ...]:
        """Declared jump points as (location, size); empty when rho = 0."""
        if self.rho == 0.0:
            return ()
        return ((self.x0, self.jump_size()),)

    def as_piecewise(self) -> "PiecewiseFunction":
        """The same function expressed through the generic piecewise API."""
        lower = TransferFunction(self.gamma, self.delta, self.x0, 0.0)
        if self.rho == 0.0:
            return PiecewiseFunction(
                (Segment(0.0, np.inf, lower.eval, lower.deriv),)
            )
        scale = 1.0 + self.rho
        return PiecewiseFunction(
            (
                Segment(0.0, self.x0, lower.eval, lower.deriv),
                Segment(
                    self.x0,
                    np.inf,
                    lambda x: scale * lower.eval(x),
                    lambda x: scale * lower.deriv(x),
                ),
            ),
            jumps=((self.x0, self.jump_size()),),
        )


@dataclass(frozen=True)
class Segment:
    """One piece of a piecewise function, covering the interval (lo, hi].

    ``value`` and ``derivative`` take a 1-d numpy array of points in the
    piece and return an array of the same shape, or a scalar constant.
    """

    lo: float
    hi: float
    value: Callable[[np.ndarray], np.ndarray | float]
    derivative: Callable[[np.ndarray], np.ndarray | float]


@dataclass(frozen=True)
class PiecewiseFunction:
    """Differentiable-by-pieces function with caller-declared jumps.

    Jump locations are never inferred numerically; whoever builds the
    object states where the discontinuities sit and how large they are.
    Segments must tile an interval contiguously, left to right. eval and
    deriv take a scalar or an array, like TransferFunction's.
    """

    segments: tuple[Segment, ...]
    jumps: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if not self.segments:
            raise ValueError("need at least one segment")
        for s in self.segments:
            if not s.lo < s.hi:
                raise ValueError(f"empty segment ({s.lo}, {s.hi}]")
        for left, right in zip(self.segments, self.segments[1:]):
            if left.hi != right.lo:
                raise ValueError(
                    f"segments must tile contiguously; gap at {left.hi} != {right.lo}"
                )
        lo, hi = self.support
        locs = [x for x, _ in self.jumps]
        if any(not lo < x < hi for x in locs):
            raise ValueError("jump points must lie strictly inside the domain")
        if any(b <= a for a, b in zip(locs, locs[1:])):
            raise ValueError("jump points must be strictly increasing")

    @property
    def support(self) -> tuple[float, float]:
        return (self.segments[0].lo, self.segments[-1].hi)

    def _by_segment(self, x, part: str):
        """Each segment's ``part`` callable, called once on the points of x
        that the segment covers."""
        x, scalar = _promote(x)
        lo, hi = self.support
        outside = ~((x > lo) & (x <= hi))
        if outside.any():
            raise ValueError(f"x = {x[outside][0]} outside the domain ({lo}, {hi}]")
        # a point on a shared edge belongs to the segment it closes
        idx = np.searchsorted([s.hi for s in self.segments], x)
        out = np.empty_like(x)
        for i in np.unique(idx):
            mask = idx == i
            out[mask] = getattr(self.segments[i], part)(x[mask])
        return _demote(out, scalar)

    def eval(self, x):
        """Value at x; at a jump point this is the left (lower) branch."""
        return self._by_segment(x, "value")

    __call__ = eval

    def deriv(self, x):
        """Derivative at x; raises SingularPointError at declared jumps."""
        for loc, _ in self.jumps:
            if np.any(np.asarray(x) == loc):
                raise SingularPointError(f"derivative undefined at jump point {loc}")
        return self._by_segment(x, "derivative")


@dataclass(frozen=True)
class HFunction:
    """Quantile-domain derivative ratio H(u) = h'(Q(t)) / q(t) for the
    windowed input distribution with quantile Q and density-quantile q.

    Integrating H over (0, 1] reproduces exactly the window integrals of
    h' over (a, b]: the substitution x = Q(u) carries one to the other.
    Defined for 0 < u <= 1; u = 1 lands on x = b by left continuity.

    ``tf`` is any function object with a ``jumps`` list of (location,
    size) and a ``deriv`` that takes a numpy array, such as
    TransferFunction or PiecewiseFunction.
    """

    tf: Any
    dist: WindowedDistribution

    def __call__(self, u):
        u, scalar = _promote(u)
        if ((u <= 0.0) | (u > 1.0)).any():
            raise ValueError("u must lie in (0, 1]")
        x = self.dist.quantile(u)
        # an overflow stays inf, for the caller's finiteness check to report
        with np.errstate(over="ignore"):
            out = self.tf.deriv(x) / self.dist.density_quantile(u)
        return _demote(out, scalar)

    @property
    def singular_points(self) -> tuple[float, ...]:
        """Images tau_k of jump points that fall strictly inside the window."""
        a, b = self.dist.window.a, self.dist.window.b
        return tuple(
            self.dist.cdf(x) for x, _ in self.tf.jumps if a < x < b
        )
