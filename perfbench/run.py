"""Benchmark of the monotone_index package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/
directory. One run measures one workload (exact-sweep or
simulate-estimate, described in perfbench/README.md) for S seconds, with
one pass of the other spread over that time, so that every metric exists
on every workload. All outputs are checked against references
computed in perfbench/oracle.py. With --trace 0 the run reports the
end-to-end metrics. With --trace 1 it reports the per-layer metrics from a
traced run of the same shape at a fixed size. Either way the
cases the package is known to fail run once, outside the counted
operations, and the number of their calls that raise is reported. The
last line of standard output is the result as one JSON object; a fuller
record goes to .perfbench/ in the checkout.
"""

from __future__ import annotations

import os

# the simulation threads are the only compute threads the benchmark allows
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MONOTONE_INDEX_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from measure import Tally, highest_percentile, interleave, percentile  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("exact-sweep", "simulate-estimate")
# set-up is timed at two moments of a run, each time at least SETUP_MIN
# times and further while the repeats stay under SETUP_BUDGET_S seconds,
# up to SETUP_MAX times
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 2, 8, 1.5
TRACE_PASSES = 2
# the simulation commands run at min(this, nproc) threads and at 1 thread
MAX_THREADS = 2


def load_package() -> None:
    """Import monotone_index from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import monotone_index
        import monotone_index.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"error: cannot import monotone_index from {SRC}: {exc}")
    if not Path(monotone_index.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: monotone_index came from {monotone_index.__file__}, not {SRC}")


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
    }


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall times of fresh interpreters that import the package and build
    the workload's objects: at least SETUP_MIN, more while their total
    stays under SETUP_BUDGET_S."""
    path = WORK / f"setup-{os.getpid()}.csv"
    times = []
    try:
        while len(times) < SETUP_MIN or (len(times) < SETUP_MAX and sum(times) < SETUP_BUDGET_S):
            start = time.perf_counter()
            # no timeout: with one, the wait polls at up to 50 ms intervals,
            # which rounds each sample up to a 50 ms step
            subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                 "--setup-child", str(path)],
                cwd=ROOT, check=True,
            )
            times.append(time.perf_counter() - start)
    finally:
        path.unlink(missing_ok=True)
    return times


def run_block(tally: Tally, block) -> float:
    start = time.perf_counter()
    for op in block:
        op(tally)
    return time.perf_counter() - start


def run_timed(tally: Tally, phases: dict, focus: str, seed: int, seconds: float) -> list[float]:
    """Whole passes of the focus workload in a closed loop until they have
    taken `seconds`, with one pass of each other workload spread evenly
    over that time: after each focus block, the other workloads' blocks
    run until their share matches the share of `seconds` done. Set-up is
    timed just before and just after; returns those set-up times.

    This machine's speed drifts by up to ~1.6x, in stretches of seconds
    to tens of minutes, so each metric is measured at as many moments of the run
    as its blocks allow. Whole passes keep the mix of operations the same
    from run to run. The blocks keep an operation next to others of its
    kind: spread one by one between focus operations, the direct route's
    median rate fell by about a quarter in a trial, likely because the
    focus workload's large arrays displaced its data from the caches."""
    others = interleave(*(phase.blocks(0) for name, phase in phases.items() if name != focus))
    setup = setup_seconds(focus, seed)
    run_block(tally, others[0])
    done, focus_s, k = 1, 0.0, 0
    while focus_s < seconds:
        for block in phases[focus].blocks(k):
            focus_s += run_block(tally, block)
            while done < len(others) and done < len(others) * focus_s / seconds:
                run_block(tally, others[done])
                done += 1
        k += 1
    for block in others[done:]:
        run_block(tally, block)
    return setup + setup_seconds(focus, seed)


def run_fixed(tally: Tally, phases: dict, focus: str) -> float:
    """A timed run's shape at a fixed size: TRACE_PASSES passes of the
    focus workload with one pass of each other workload spread evenly
    over them, so that every layer is used and counts repeat exactly.
    Returns the wall time."""
    own = [block for k in range(TRACE_PASSES) for block in phases[focus].blocks(k)]
    others = interleave(*(phase.blocks(0) for name, phase in phases.items() if name != focus))
    start = time.perf_counter()
    for block in interleave(own, others):
        run_block(tally, block)
    return time.perf_counter() - start


def end_to_end(tally: Tally, setup: list[float], threads: int) -> dict:
    direct_ms = [s.seconds * 1e3 for s in tally.of("exact.direct") if s.ok]
    if (highest_percentile(len(direct_ms)) or 0) < 90:
        raise RuntimeError(f"{len(direct_ms)} direct samples cannot support a p90")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "exact.direct_per_s": (tally.rate("exact.direct"), "calls/s"),
        "exact.direct_ms.p90": (percentile(direct_ms, 90), "ms"),
        "exact.via_h_per_s": (tally.rate("exact.via_h"), "calls/s"),
        "exact.piecewise_per_s": (tally.rate("exact.piecewise"), "calls/s"),
        "sim.samples_per_s": (tally.rate(f"sim.{threads}t"), "samples/s"),
        "sim.samples_per_s_1t": (tally.rate("sim.1t"), "samples/s"),
        "estimate.rows_per_s": (tally.rate("estimate"), "rows/s"),
    }


def latency_summary(tally: Tally) -> dict:
    """Per kind of operation: sample count, median and the highest
    percentile with at least ten samples beyond it."""
    out = {}
    for kind in sorted({s.kind for s in tally.samples}):
        secs = [s.seconds for s in tally.of(kind) if s.ok]
        row = {"n": len(secs)}
        if secs:
            row["median_s"] = statistics.median(secs)
            p = highest_percentile(len(secs))
            if p is not None:
                row[f"p{p:g}_s"] = percentile(secs, p)
        out[kind] = row
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", metavar="PATH", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")

    load_package()
    import workloads

    threads = min(MAX_THREADS, len(os.sched_getaffinity(0)))
    if args.setup_child:
        workloads.build(args.workload, args.seed, threads, args.setup_child)
        return 0
    facts = machine_facts()

    WORK.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    csv_path = WORK / f"estimate-{os.getpid()}.csv"
    try:
        setup = []
        phases = {name: workloads.build(name, args.seed, threads, str(csv_path))
                  for name in WORKLOADS}
        for phase in phases.values():
            phase.prepare_checks()
        known_raised, known_problems = workloads.probe_known_failures()
        if args.trace:
            from spans import Tracer, layer_metrics

            first = Tally()
            untraced = run_fixed(first, phases, args.workload)
            tracer = Tracer()
            tally = Tally(tracer)
            with tracer.install():
                traced = run_fixed(tally, phases, args.workload)
            metrics = layer_metrics(tracer)
            metrics["trace.overhead_s"] = (traced - untraced, "s")
            metrics["theoretical.known_failures"] = (known_raised, "count")
            tracer.write(str(WORK / f"spans-{stem}.csv.gz"))
            # both runs do the same operations, so both must come out correct
            tally.correct = tally.correct and first.correct
        else:
            tally = Tally()
            setup = run_timed(tally, phases, args.workload, args.seed, args.seconds)
            metrics = end_to_end(tally, setup, threads)
    finally:
        csv_path.unlink(missing_ok=True)

    tally.correct = tally.correct and not known_problems
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "threads": [threads, 1], "machine": facts,
        "setup_s_samples": setup, "latency": latency_summary(tally),
        "failures": [dict(zip(("kind", "case", "problem"), f)) for f in tally.failures],
        "known_failures": {
            "calls": len(workloads.KNOWN_FAILURES) * (1 + len(workloads.VIA_H_ALPHAS)),
            "raised": known_raised, "wrong_values": known_problems},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (WORK / f"result-{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}, seed {args.seed}, threads {threads} and 1, "
          + ", ".join(f"{k} {v}" for k, v in facts.items()))
    for kind, row in record["latency"].items():
        print(f"  {kind:<16} " + ", ".join(
            f"{k} {v:.6g}" if isinstance(v, float) else f"{k} {v}" for k, v in row.items()))
    print(f"  attempted {tally.attempted}, failed {tally.failed}, "
          f"failed_ratio {tally.failed_ratio():.6g}")
    for kind, case, problem in tally.failures:
        print(f"  FAILED {kind} {case}: {problem}")
    print(f"  known-failing cases: {known_raised} of {record['known_failures']['calls']} "
          "route calls raise")
    for problem in known_problems:
        print(f"  WRONG known-failing case {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
