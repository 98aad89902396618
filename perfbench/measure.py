"""Operation accounting and the arithmetic of the reported numbers."""

from __future__ import annotations

import contextlib
import math
import statistics
import time
import traceback
from dataclasses import dataclass, field

# percentiles the benchmark can report; a run reports the highest one that
# leaves at least MIN_BEYOND samples above it
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


def highest_percentile(n: int) -> float | None:
    """Highest of PERCENTILES with at least MIN_BEYOND of n samples beyond it."""
    ok = [p for p in PERCENTILES if n - _rank(p, n) >= MIN_BEYOND]
    return max(ok) if ok else None


def _rank(p: float, n: int) -> int:
    # rounding first keeps 99.9% of 10000 at rank 9990, not 9991
    return math.ceil(round(p / 100.0 * n, 6))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    return ordered[max(_rank(p, len(ordered)), 1) - 1]


def interleave(*lists) -> list:
    """The items of several lists merged so that each list's items are
    spread evenly over the result, in their own order."""
    keyed = [((i + 0.5) / len(items), j, item)
             for j, items in enumerate(lists) for i, item in enumerate(items)]
    return [item for _, _, item in sorted(keyed, key=lambda t: t[:2])]


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median, with the quartiles statistics.quantiles(values, n=4) gives."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


@dataclass
class Sample:
    kind: str
    seconds: float
    work: int
    ok: bool


@dataclass
class Op:
    """One operation in progress: stop() ends its timed part, record()
    stores the work it completed and the problem its check found."""

    start: float
    end: float | None = None
    work: int = 0
    problem: str | None = None

    def stop(self) -> None:
        self.end = time.perf_counter()

    def record(self, work: int, problem: str | None) -> None:
        self.work = work
        self.problem = problem


class NullTracer:
    def span(self, name):
        return contextlib.nullcontext()

    def count(self, name, k=1):
        pass


@dataclass
class Tally:
    """Attempts, failures and timing samples of every operation of a run.

    An operation fails when it raises or when its output fails its check;
    either makes the run incorrect.
    """

    tracer: object = field(default_factory=NullTracer)
    samples: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    correct: bool = True

    @contextlib.contextmanager
    def op(self, kind: str, label: str):
        op = Op(time.perf_counter())
        try:
            yield op
        except Exception as exc:  # a failed operation is counted, not fatal
            if op.end is None:
                op.end = time.perf_counter()
            op.problem = f"raised {type(exc).__name__}: {exc}"
            traceback.print_exc()
        ok = op.problem is None
        self.samples.append(Sample(kind, op.end - op.start, op.work, ok))
        if not ok:
            self.correct = False
            self.failures.append((kind, label, op.problem))

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def failed_ratio(self) -> float:
        return self.failed / self.attempted

    def of(self, kind: str) -> list:
        return [s for s in self.samples if s.kind == kind]

    def rate(self, kind: str) -> float:
        """Work completed by successful operations of one kind per second
        spent on all operations of that kind."""
        ops = self.of(kind)
        return sum(s.work for s in ops if s.ok) / sum(s.seconds for s in ops)
