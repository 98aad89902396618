"""Monte Carlo harness: empirical index trajectories over sample size.

Each (replication, n) cell is seeded independently from the base seed,
so any single cell can be reproduced in isolation and results do not
depend on the grid composition, the replication count, or how work is
scheduled across threads.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .distributions import LomaxParams, Window, WindowedDistribution
from .errors import DegenerateSampleError
from .estimators import SamplePairs, empirical_index, noisy_outputs
from .rng import NOISE_STREAM, mix_seed
from .transfer import TransferFunction

__all__ = [
    "TRAJECTORY_HEADER",
    "ExperimentConfig",
    "SummaryRow",
    "TrajectoryPoint",
    "default_n_grid",
    "run_experiment",
    "summarize",
    "write_trajectory_csv",
]

TRAJECTORY_HEADER = ("n", "replication", "seed", "index", "bn", "status")


def default_n_grid() -> tuple[int, ...]:
    """20 log-spaced sample sizes from 100 to 100 000 inclusive, rounded to ints."""
    return tuple(int(v) for v in np.round(np.geomspace(100, 100_000, 20)))


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of one trajectory experiment.

    noise_sigma = 0 runs the noise-free estimator on exact outputs;
    anything positive adds centered Gaussian noise from a substream that
    never shares variates with input sampling.
    """

    dist: LomaxParams
    window: Window
    tf: TransferFunction
    base_seed: int
    n_grid: tuple[int, ...] = field(default_factory=default_n_grid)
    replications: int = 20
    noise_sigma: float = 0.0

    def __post_init__(self):
        grid = tuple(int(n) for n in self.n_grid)
        if not grid:
            raise ValueError("n_grid must not be empty")
        if any(n < 2 for n in grid):
            raise ValueError("every sample size must be >= 2")
        if any(q <= p for p, q in zip(grid, grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        object.__setattr__(self, "n_grid", grid)
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.noise_sigma < 0.0 or not np.isfinite(self.noise_sigma):
            raise ValueError("noise_sigma must be finite and >= 0")


@dataclass(frozen=True)
class TrajectoryPoint:
    """One (replication, n) cell: the seed that reproduces it, the index,
    the scaled total variation bn, and "ok" or "degenerate"."""

    n: int
    replication: int
    seed: int
    index: float
    bn: float
    status: str = "ok"


def _run_cell(
    config: ExperimentConfig, dist: WindowedDistribution, r: int, n: int
) -> TrajectoryPoint:
    seed = mix_seed(config.base_seed, r, n)
    xs = dist.sample(seed, n)
    ys = config.tf.eval(xs)
    if config.noise_sigma > 0.0:
        ys = noisy_outputs(ys, config.noise_sigma, mix_seed(seed, NOISE_STREAM))
    try:
        est = empirical_index(SamplePairs(xs, ys))
    except DegenerateSampleError:
        return TrajectoryPoint(n, r, seed, float("nan"), float("nan"), "degenerate")
    return TrajectoryPoint(n, r, seed, est.index, est.bn, "ok")


def run_experiment(config: ExperimentConfig, threads: int | None = None) -> list[TrajectoryPoint]:
    """All trajectory cells, sorted by (n, replication).

    threads = None picks a worker count automatically; 1 forces a
    sequential run. Results are identical either way because every cell
    seeds itself from (base_seed, replication, n) alone.
    """
    dist = WindowedDistribution(config.dist, config.window)

    def one_replication(r: int) -> list[TrajectoryPoint]:
        return [_run_cell(config, dist, r, n) for n in config.n_grid]

    workers = threads if threads is not None else min(os.cpu_count() or 1, config.replications)
    if workers < 1:
        raise ValueError("threads must be >= 1")
    if workers == 1:
        batches = [one_replication(r) for r in range(config.replications)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(one_replication, range(config.replications)))
    points = [p for batch in batches for p in batch]
    points.sort(key=lambda p: (p.n, p.replication))
    return points


@dataclass(frozen=True)
class SummaryRow:
    """Per-n quantiles of the index and the mean of bn over "ok" cells."""

    n: int
    median: float
    q10: float
    q90: float
    mean_bn: float


def summarize(points: list[TrajectoryPoint]) -> list[SummaryRow]:
    """Collapse trajectory cells per sample size; all-degenerate sizes
    yield NaN rows rather than disappearing."""
    if not points:
        raise ValueError("no trajectory points to summarize")
    rows = []
    for n in sorted({p.n for p in points}):
        ok = [p for p in points if p.n == n and p.status == "ok"]
        if ok:
            q10, med, q90 = np.quantile([p.index for p in ok], [0.1, 0.5, 0.9])
            rows.append(
                SummaryRow(n, float(med), float(q10), float(q90),
                           float(np.mean([p.bn for p in ok])))
            )
        else:
            nan = float("nan")
            rows.append(SummaryRow(n, nan, nan, nan, nan))
    return rows


def write_trajectory_csv(points, stream, precision: int = 6) -> None:
    """CSV rows under TRAJECTORY_HEADER; dot decimals regardless of locale.

    On a mid-write failure a trailing comment row flags the output as
    partial before the error propagates.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(TRAJECTORY_HEADER)
    try:
        for p in points:
            writer.writerow([
                p.n,
                p.replication,
                p.seed,
                format(p.index, f".{precision}g"),
                format(p.bn, f".{precision}g"),
                p.status,
            ])
    except Exception as exc:
        stream.write(f"# error: output truncated: {exc}\n")
        raise
