"""The two workloads: their inputs, their operations and the checks on
every output.

Each workload is a closed loop with one caller: the next operation starts
only when the previous one has returned and been checked. An operation is
one library call or one in-process CLI command. A workload hands out its
operations a pass at a time, as blocks: operations that run back to back,
which a run may interleave with blocks of another workload. Every
operation lands in a Tally, which counts attempts and failures (raised,
non-zero exit, or an output that fails its check) and keeps the timing
samples the metrics are computed from.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
from dataclasses import dataclass, field

import numpy as np

# the routes are called as mi.<function>, so a traced run sees its wrappers
import monotone_index as mi
from monotone_index import HFunction, LomaxParams, TransferFunction, Window, WindowedDistribution
from monotone_index import cli

import oracle
from measure import Tally, interleave

# acceptance tolerances of the package's own suite (tests/test_acceptance.py)
PAPER_TOL = 5e-4
ROUTE_TOL = 1e-6
CONVERGENCE_TOL = 0.05
NOISE_TOL = 0.02
# the dense-grid oracle deviates by < 2e-9 on every passing case
ORACLE_TOL = 1e-6
# the piecewise route runs the same quadrature on the same derivative values
PIECEWISE_TOL = 1e-9
# estimate prints 6 significant digits, so rounding alone moves a value by 5e-6
ESTIMATE_RTOL = 1e-5

VIA_H_ALPHAS = (1.5, 5.0)


@dataclass(frozen=True)
class Case:
    """One exact-sweep case: h with (gamma, delta, x0, rho) over (a, b]."""

    group: str
    a: float
    b: float
    rho: float = 0.0
    gamma: float = 0.1
    delta: float = 1.0
    x0: float = 10.0
    published: float | None = None
    known_failure: str | None = None

    @property
    def name(self) -> str:
        return (f"({self.a:g},{self.b:g}] rho={self.rho:g} gamma={self.gamma:g} "
                f"delta={self.delta:g} x0={self.x0:g}")

    @property
    def params(self) -> dict:
        return dict(gamma=self.gamma, delta=self.delta, x0=self.x0, rho=self.rho)


# why each group of cases exists is in README.md ("exact-sweep cases")
PUBLISHED = {
    (0.0, 2.0): {0.0: 0.6424, 0.5: 0.6424, -0.5: 0.6424},
    (8.0, 12.0): {0.0: 1.0, 0.5: 1.0, -0.5: 0.3459},
    (0.0, 20.0): {0.0: 0.7378, 0.5: 0.7881, -0.5: 0.6264},
}
WIDTH_WINDOWS = (
    (0.0, 0.1), (0.2, 0.6), (0.0, 0.5), (0.0, 1.0), (0.5, 1.5), (1.0, 3.0),
    (0.0, 5.0), (2.0, 6.0), (5.0, 15.0), (9.99, 10.01), (10.0, 12.0),
    (0.0, 50.0), (0.0, 200.0), (0.0, 500.0), (0.0, 1000.0),
)
PAPER_WINDOWS = tuple(PUBLISHED)
RHOS = (0.0, 0.5, -0.5)


def exact_cases() -> tuple[Case, ...]:
    cases = [
        Case("paper", a, b, rho, published=PUBLISHED[(a, b)][rho])
        for a, b in PAPER_WINDOWS for rho in RHOS
    ]
    cases += [Case("width", a, b, rho) for a, b in WIDTH_WINDOWS for rho in RHOS]
    cases += [Case("gamma", a, b, 0.5, gamma=g)
              for g in (0.02, 0.05, 0.2, 0.5) for a, b in PAPER_WINDOWS]
    cases += [Case("delta", a, b, 0.5, delta=d)
              for d in (0.25, 0.5, 2.0, 4.0) for a, b in PAPER_WINDOWS]
    cases += [Case("x0", 0.0, 20.0, rho, x0=x0)
              for x0 in (1.0, 5.0, 15.0, 19.5, 25.0) for rho in (0.5, -0.5)]
    cases += [Case("x0", 8.0, 12.0, rho, x0=x0)
              for x0 in (8.5, 11.5) for rho in (0.5, -0.5)]
    cases += [Case("rho", a, b, rho)
              for rho in (-0.9, -0.2, 0.2, 2.0, 9.0) for a, b in ((8.0, 12.0), (0.0, 20.0))]
    cases += [Case("extreme", 0.0, 50.0, 0.5, gamma=0.5, delta=4.0),
              Case("extreme", 0.0, 50.0, 0.5, gamma=0.02, delta=0.25)]
    return tuple(cases)


# cases the package fails at the commit this benchmark was added to; they
# run once a run, outside the timed operations, through probe_known_failures
KNOWN_FAILURES = (
    Case("known-failure", 0.0, 0.02,
         known_failure="index is 1; an absolute threshold raises DegenerateFunctionError"),
    Case("known-failure", 0.0, 8000.0,
         known_failure="index is ~1; exp(gamma*x) overflows, and for alpha = 5 "
                       "F(8000) rounds to 1"),
)


def probe_known_failures() -> tuple[int, list[str]]:
    """Each KNOWN_FAILURES case once through the direct route and through
    the quantile route for each alpha. Returns how many of these calls
    raise, and a problem for each call that returns a value off the
    dense-grid index."""
    raised, problems = 0, []
    for case in KNOWN_FAILURES:
        reference = oracle.dense_grid_index(case.a, case.b, **case.params)
        tf = TransferFunction(**case.params)
        window = Window(case.a, case.b)
        calls = [(case.name, lambda: mi.theoretical_index(tf, window))]
        calls += [
            (f"{case.name} alpha={alpha:g}", lambda alpha=alpha: mi.theoretical_index_via_H(
                HFunction(tf, WindowedDistribution(LomaxParams(alpha, 1.0), window))))
            for alpha in VIA_H_ALPHAS
        ]
        for label, call in calls:
            try:
                value = call().value
            except Exception:
                raised += 1
                continue
            if abs(value - reference) > ORACLE_TOL:
                problems.append(f"{label}: {value!r} vs dense-grid {reference!r}")
    return raised, problems


# the piecewise route costs ~2.5 s a call, so each pass runs two of these
# paper cases (a, b, rho) in turn
PIECEWISE_CASES = ((0.0, 20.0, 0.5), (8.0, 12.0, -0.5), (0.0, 2.0, 0.0))


def _quiet_main(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class ExactSweep:
    """Library calls over the fixed case grid. A pass runs every case
    through the direct route six times and through the quantile route
    once for each alpha, and two cases of PIECEWISE_CASES, in turn,
    through the piecewise route. The seed only shuffles the order of the
    cases."""

    def __init__(self, seed: int):
        cases = exact_cases()
        order = np.random.default_rng(seed).permutation(len(cases))
        self.cases = [cases[i] for i in order]
        self.tfs = [TransferFunction(**c.params) for c in self.cases]
        self.hfs = [
            [HFunction(tf, WindowedDistribution(LomaxParams(alpha, 1.0), Window(c.a, c.b)))
             for alpha in VIA_H_ALPHAS]
            for c, tf in zip(self.cases, self.tfs)
        ]
        self.piecewise = [
            (c, TransferFunction(**c.params).as_piecewise())
            for key in PIECEWISE_CASES for c in cases
            if c.group == "paper" and (c.a, c.b, c.rho) == key
        ]
        self.reference = {}

    def prepare_checks(self) -> None:
        self.reference = {c: oracle.dense_grid_index(c.a, c.b, **c.params) for c in self.cases}

    def _check(self, case: Case, value: float, direct: float | None) -> str | None:
        if abs(value - self.reference[case]) > ORACLE_TOL:
            return f"{value!r} vs dense-grid {self.reference[case]!r}"
        if case.published is not None and abs(value - case.published) > PAPER_TOL:
            return f"{value!r} vs published {case.published}"
        if direct is not None and abs(value - direct) > ROUTE_TOL:
            return f"{value!r} vs direct route {direct!r}"
        return None

    def blocks(self, k: int):
        direct: dict[Case, float] = {}

        def run_direct(tally: Tally, i: int, case: Case):
            with tally.op("exact.direct", case.name) as op:
                value = mi.theoretical_index(self.tfs[i], Window(case.a, case.b)).value
                op.stop()
                direct[case] = value
                op.record(1, self._check(case, value, None))

        def run_via_h(tally: Tally, i: int, case: Case, j: int):
            label = f"{case.name} alpha={VIA_H_ALPHAS[j]:g}"
            with tally.op("exact.via_h", label) as op:
                value = mi.theoretical_index_via_H(self.hfs[i][j]).value
                op.stop()
                op.record(1, self._check(case, value, direct.get(case)))

        def run_piecewise(tally: Tally, case: Case, fn):
            with tally.op("exact.piecewise", case.name) as op:
                value = mi.theoretical_index(fn, Window(case.a, case.b)).value
                op.stop()
                reference = direct.get(case)
                if reference is not None and abs(value - reference) > PIECEWISE_TOL:
                    op.record(1, f"{value!r} vs direct route {reference!r}")
                else:
                    op.record(1, self._check(case, value, None))

        def direct_block():
            return [lambda t, i=i, c=c: run_direct(t, i, c) for i, c in enumerate(self.cases)]

        def via_h_block(j: int, part: int):
            return [lambda t, i=i, c=self.cases[i]: run_via_h(t, i, c, j)
                    for i in range(part, len(self.cases), 2)]

        def half(m: int):
            # the direct route is the cheapest, so it runs three times per
            # half to get measuring time at more moments; each half takes
            # one alpha of the quantile route, in two blocks
            case, fn = self.piecewise[m % len(self.piecewise)]
            j = m % len(VIA_H_ALPHAS)
            return [direct_block(), via_h_block(j, 0), direct_block(), via_h_block(j, 1),
                    direct_block(), [lambda t: run_piecewise(t, case, fn)]]

        return half(2 * k) + half(2 * k + 1)


def default_grid() -> tuple[int, ...]:
    """The simulate default n-grid, 20 log-spaced sizes from 100 to 1e5."""
    return tuple(int(v) for v in np.unique(np.round(np.geomspace(100, 100_000, 20))))


@dataclass
class SimCommand:
    label: str
    argv: list
    rows: int
    sigma: float
    outputs: dict = field(default_factory=dict)


class Simulate:
    """The paper's Monte Carlo commands through cli.main, each at the high
    thread count and then at one thread. The seed is the base seed."""

    REPS = 20

    def __init__(self, seed: int, threads: int):
        self.threads = (threads, 1)
        common = ["--reps", str(self.REPS), "--seed", str(seed)]
        grid = default_grid()
        self.commands = [
            SimCommand("simulate sigma=0",
                       ["simulate", "--paper-window", "w020", "--rho", "0.5", "--sigma", "0", *common],
                       self.REPS * len(grid), 0.0),
            SimCommand("simulate sigma=0.1",
                       ["simulate", "--paper-window", "w020", "--rho", "0.5", "--sigma", "0.1", *common],
                       self.REPS * len(grid), 0.1),
            SimCommand("noise-demo",
                       ["noise-demo", "--alpha", "1.5", "--window", "0,2", "--n", "100000", *common],
                       self.REPS, 0.1),
        ]
        self.exact_w020 = None

    def prepare_checks(self) -> None:
        self.exact_w020 = oracle.dense_grid_index(0.0, 20.0, rho=0.5)

    def _check(self, cmd: SimCommand, threads: int, code: int, text: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        if threads != self.threads[0] and text != cmd.outputs.get(self.threads[0]):
            return f"CSV at {threads} thread(s) differs from the CSV at {self.threads[0]}"
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != cmd.rows or any(r["status"] != "ok" for r in rows):
            return f"{len(rows)} rows, expected {cmd.rows} all ok"
        top = [float(r["index"]) for r in rows if int(r["n"]) == 100_000]
        if cmd.sigma == 0.0:
            err = abs(float(np.median(top)) - self.exact_w020)
            if err > CONVERGENCE_TOL:
                return f"median index at n=1e5 is {err:.3g} from the exact value"
        elif sum(abs(v - 0.5) < NOISE_TOL for v in top) < 0.9 * len(top):
            return f"noisy indices at n=1e5 not near 1/2: {top}"
        return None

    def blocks(self, k: int):
        def run(tally: Tally, cmd: SimCommand, threads: int):
            with tally.op(f"sim.{threads}t", cmd.label) as op:
                code, text = _quiet_main([*cmd.argv, "--threads", str(threads)])
                op.stop()
                cmd.outputs[threads] = text
                problem = self._check(cmd, threads, code, text)
                samples = sum(int(line.split(",", 1)[0]) for line in text.splitlines()[1:])
                op.record(samples, problem)

        return [[lambda t, c=cmd, n=threads: run(t, c, n)]
                for cmd in self.commands for threads in self.threads]


ESTIMATE_ROWS = 1_000_000


def estimate_arrays(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Windowed Lomax(1.5, 1) inputs on (0, 20] in sampled order, and h
    with rho = 0.5 plus N(0, 0.1) noise as outputs."""
    rng = np.random.default_rng(seed)
    x = oracle.windowed_lomax_sample(rng, ESTIMATE_ROWS, 1.5, 1.0, 0.0, 20.0)
    y = oracle.h(x, 0.1, 1.0, 10.0, 0.5) + rng.normal(0.0, 0.1, x.size)
    return x, y


def write_pairs(path: str, x: np.ndarray, y: np.ndarray) -> None:
    """CSV with an x,y header; repr is the shortest round-trip form."""
    with open(path, "w") as fh:
        fh.write("x,y\n")
        fh.write("".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())))


class EstimateFile:
    """cli.main(["estimate", "--input", F]) on a seeded 1e6-row CSV,
    twice a pass, so that a pass measures it at two moments."""

    def __init__(self, seed: int, path: str):
        self.seed = seed
        self.path = path
        write_pairs(path, *estimate_arrays(seed))
        self.bytes = os.path.getsize(path)
        self.reference = None

    def prepare_checks(self) -> None:
        self.reference = oracle.pair_index(*estimate_arrays(self.seed))

    def _check(self, code: int, text: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        row = next(csv.DictReader(io.StringIO(text)))
        if int(row["n"]) != ESTIMATE_ROWS:
            return f"n = {row['n']}"
        index, num, _, bn = self.reference
        for key, want in (("index", index), ("numerator", num), ("bn", bn)):
            if abs(float(row[key]) - want) > ESTIMATE_RTOL * abs(want):
                return f"{key} {row[key]} vs numpy {want!r}"
        return None

    def blocks(self, k: int):
        def run(tally: Tally):
            with tally.op("estimate", "estimate --input") as op:
                with tally.tracer.span("cli.estimate"):
                    code, text = _quiet_main(["estimate", "--input", self.path])
                op.stop()
                tally.tracer.count("cli.bytes_in", self.bytes)
                problem = self._check(code, text)
                op.record(ESTIMATE_ROWS, problem)

        return [[run], [run]]


class SimulateEstimate:
    """The simulate commands and the estimate command in one workload; a
    pass is a pass of each, their blocks spread evenly over each other."""

    def __init__(self, seed: int, threads: int, path: str):
        self.parts = (Simulate(seed, threads), EstimateFile(seed, path))

    def prepare_checks(self) -> None:
        for part in self.parts:
            part.prepare_checks()

    def blocks(self, k: int):
        return interleave(*(part.blocks(k) for part in self.parts))


def build(workload: str, seed: int, threads: int, path: str):
    """One workload's objects: what a setup_s sample times."""
    if workload == "exact-sweep":
        return ExactSweep(seed)
    return SimulateEstimate(seed, threads, path)
