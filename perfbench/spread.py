"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1,2,...] [--trace 0|1]

Each run is `python3 perfbench/run.py ... --seconds <run_seconds>` with
run_seconds from BENCHMARK.json. For every metric the report gives the
median, the distance between the first and third quartile as a share of
the median (statistics.quantiles(values, n=4)) and, for end-to-end
metrics, the bound from BENCHMARK.json that the spread must stay within.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from measure import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in args.seeds.split(","):
        out = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", args.workload,
             "--seed", seed, "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, check=True, capture_output=True, text=True, timeout=900,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: outputs not correct", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: attempted {result['attempted']}, failed {result['failed']}",
              flush=True)

    print(f"{'metric':<40} {'median':>12} {'spread':>8} {'bound':>6}  unit")
    for name, vals in values.items():
        median = statistics.median(vals)
        spread = quartile_spread(vals) if len(vals) > 1 and median else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else "  above bound/3"
        print(f"{name:<40} {median:>12.6g} {spread:>8.4f} "
              f"{'' if bound is None else bound:>6}  {units[name]}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
