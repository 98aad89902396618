"""Sample-based index of increase over concomitant-ordered outputs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError
from .rng import generator

__all__ = [
    "EstimateResult",
    "SamplePairs",
    "empirical_index",
    "index_from_ordered_outputs",
    "noisy_outputs",
]


@dataclass(frozen=True)
class SamplePairs:
    """Paired observations (x_i, y_i); inputs need not be sorted."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or y.ndim != 1:
            raise ValueError("x and y must be one-dimensional")
        if x.size != y.size:
            raise ValueError(f"length mismatch: {x.size} inputs, {y.size} outputs")
        if x.size < 2:
            raise ValueError("need at least two pairs")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("pairs must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class EstimateResult:
    """Empirical index with its raw ingredients.

    numerator / denominator are the positive and absolute difference sums
    of outputs ordered by input; bn = denominator / sqrt(n) is the scaled
    total variation whose growth rate separates noisy from noise-free
    samples. duplicate_x flags input ties, where the concomitant order
    (and with it the index) depends on the stable tie order.
    """

    index: float
    numerator: float
    denominator: float
    bn: float
    n: int
    duplicate_x: bool = False


def _difference_sums(d: np.ndarray) -> tuple[float, float]:
    """(positive, absolute) sums of the consecutive output differences d.

    Takes the differences rather than the outputs, so that a gathered
    output array is freed before the sums allocate their temporaries.
    """
    den = float(np.abs(d).sum())
    if den == 0.0:
        raise DegenerateSampleError("all consecutive outputs are equal; index is 0/0")
    return float(d[d > 0.0].sum()), den


def index_from_ordered_outputs(ys) -> float:
    """Index of increase of an output sequence already in input order.

    Positive difference sum over absolute difference sum. Raises
    DegenerateSampleError when every difference is zero.
    """
    ys = np.asarray(ys, dtype=float)
    if ys.ndim != 1 or ys.size < 2:
        raise ValueError("need a one-dimensional sequence of length >= 2")
    if not np.isfinite(ys).all():
        raise ValueError("outputs must be finite")
    num, den = _difference_sums(np.diff(ys))
    return num / den


def empirical_index(sample: SamplePairs) -> EstimateResult:
    """Empirical index of the outputs ordered by their inputs.

    Sorting is stable, so tied inputs keep their original relative order;
    the result flags that case via duplicate_x.
    """
    order = np.argsort(sample.x, kind="stable")
    xs = sample.x[order]
    num, den = _difference_sums(np.diff(sample.y[order]))
    return EstimateResult(
        index=num / den,
        numerator=num,
        denominator=den,
        bn=den / np.sqrt(sample.n),
        n=sample.n,
        duplicate_x=bool((np.diff(xs) == 0.0).any()),
    )


def noisy_outputs(ys, sigma: float, seed: int) -> np.ndarray:
    """Outputs plus centered Gaussian noise with standard deviation sigma.

    sigma = 0 returns a copy untouched; the noise stream is fully
    determined by the seed and independent of input sampling.
    """
    if sigma < 0.0 or not np.isfinite(sigma):
        raise ValueError("sigma must be finite and >= 0")
    ys = np.asarray(ys, dtype=float)
    if sigma == 0.0:
        return ys.copy()
    return ys + generator(seed).normal(0.0, sigma, ys.shape)
