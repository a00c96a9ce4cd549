"""Run every workload over several seeds and report how steady each metric is.

    python3 perfbench/suite.py --runs 10 [--workload htap ...] [--trace 0|1]

Runs `perfbench/run.py` once per workload and seed (seeds 1..runs),
one process at a time, for the `run_seconds` that BENCHMARK.json fixes
unless --seconds says otherwise. It prints every metric of every run by name and unit,
then for each workload and metric the median of the runs and the
distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median, marked
when that spread exceeds a third of the metric's bound. Exits 1 when
any run failed a correctness check or exited with another error.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result, done.stdout + done.stderr


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    ok = True
    for workload in workloads:
        values = {}
        for seed in range(1, args.runs + 1):
            code, result, output = run_once(workload, seed, args.seconds, args.trace)
            if code != 0 or result is None or not result["correct"]:
                ok = False
                print("%s seed %d: exit %d\n%s" % (workload, seed, code, output[-4000:]))
                continue
            print("%s seed %d: attempted %d failed %d" % (
                workload, seed, result["attempted"], result["failed"]))
            for name, metric in result["metrics"].items():
                print("  %-32s %14.6g %s" % (name, metric["value"], metric["unit"]))
                values.setdefault(name, []).append(metric["value"])
        if not values or len(next(iter(values.values()))) < 2:
            continue
        print("%s over %d runs: median [q1, q3] spread (bound)" % (
            workload, len(next(iter(values.values())))))
        for name, series in values.items():
            median, q1, q3, share = spread(series)
            bound = bounds.get(name)
            flag = "  <-- above bound/3" if bound is not None and share > bound / 3 else ""
            print("  %-32s %12.6g [%.6g, %.6g] %6.3f (%s)%s" % (
                name, median, q1, q3, share, bound, flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
