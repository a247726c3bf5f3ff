#!/usr/bin/env python3
"""Runs one workload over several seeds and prints each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --workload NAME [--runs 10] [--seconds 10]
                                [--trace 0|1] [--first-seed 1]

For every metric it prints the median of the runs and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median -- the run-to-run spread BENCHMARK.json's bounds
are judged against.  Each run uses its own seed.  Failed checks are
summed and reported; the exit code is 1 if any run failed a check.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv):
    opts = {"--workload": None, "--runs": "10", "--seconds": "10",
            "--trace": "0", "--first-seed": "1"}
    it = iter(argv)
    for arg in it:
        if arg not in opts:
            sys.stderr.write(__doc__)
            return 2
        opts[arg] = next(it, None)
    if opts["--workload"] is None or None in opts.values():
        sys.stderr.write(__doc__)
        return 2
    first, runs = int(opts["--first-seed"]), int(opts["--runs"])
    values, failed = {}, 0
    for seed in range(first, first + runs):
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", opts["--workload"],
             "--seed", str(seed), "--seconds", opts["--seconds"],
             "--trace", opts["--trace"]],
            stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            print("seed %d: run.py exited %d" % (seed, done.returncode))
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in result["metrics"].items())),
            flush=True)
    print("\n%-34s %14s %10s  (%d runs, %d failed checks)"
          % ("metric", "median", "iqr/med", runs, failed))
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
        else:
            spread = 0.0
        print("%-34s %14.6g %10.4f" % (name, med, spread))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
