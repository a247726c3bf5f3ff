#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The harness (perfbench/harness.cpp) is configured and built with CMake
under .bench_build/perfbench on first use; later runs rebuild only what
changed.  The run then measures:

  * setup_s -- the median, over SETUP_SAMPLES launches, of the time from
    starting the harness process to its "ready" line (process start,
    pool spawn, input and oracle generation, warm-up).  SETUP_SAMPLES - 1
    launches stop at "ready"; the measuring launch is the last sample.
  * everything else -- from the measuring launch, whose last stdout line
    is the result JSON.  This script adds setup_s to it (with --trace 0)
    and prints it as its own last line.

Every knob of the program (SKIL_* environment variables) is removed from
the harness's environment, so it runs the defaults.  --help and unknown
flags print the usage and exit 2; any other failure exits 1 without a
result.
"""

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

WORKLOADS = ("gauss_t2", "shpaths_t1", "stencil_halo", "skilc_pipeline")
SETUP_SAMPLES = 5
BUILD_TIMEOUT_S = 840
SETUP_TIMEOUT_S = 60
MAX_BUILD_JOBS = 4

USAGE = """usage: python3 perfbench/run.py --workload NAME [options]

  --workload NAME    one of: {workloads}
  --seed N           input seed (default 1)
  --seconds S        measuring time in seconds, 1..60 (default 10)
  --trace 0|1        0: end-to-end metrics; 1: per-layer metrics (default 0)
  --small            smallest size of the workload (self-test)
  --wrong-expected   corrupt one expected value (self-test)
  --help             this text
""".format(workloads=", ".join(WORKLOADS))


class Failure(Exception):
    """A failure that ends the run with exit code 1 and no result."""


def usage_exit(message=""):
    if message:
        print("perfbench: " + message, file=sys.stderr)
    sys.stderr.write(USAGE)
    sys.exit(2)


def parse_args(argv):
    opts = {"workload": None, "seed": 1, "seconds": 10, "trace": 0,
            "small": False, "wrong_expected": False}
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in ("--help", "-h"):
            usage_exit()
        name, eq, value = arg.partition("=")
        if name in ("--small", "--wrong-expected"):
            if eq:
                usage_exit(name + " takes no value")
            opts[name[2:].replace("-", "_")] = True
            i += 1
            continue
        if name not in ("--workload", "--seed", "--seconds", "--trace"):
            usage_exit("unknown argument '%s'" % arg)
        if not eq:
            if i + 1 >= len(argv):
                usage_exit(name + " needs a value")
            value = argv[i + 1]
            i += 1
        i += 1
        key = name[2:]
        if key == "workload":
            if value not in WORKLOADS:
                usage_exit("unknown workload '%s'" % value)
            opts[key] = value
            continue
        if not value.isdigit():
            usage_exit("%s needs a non-negative integer, got '%s'" % (name, value))
        number = int(value)
        if key == "seconds" and not 1 <= number <= 60:
            usage_exit("--seconds must be 1..60")
        if key == "trace" and number not in (0, 1):
            usage_exit("--trace must be 0 or 1")
        opts[key] = number
    if opts["workload"] is None:
        usage_exit("--workload is required")
    return opts


def build(root, build_dir):
    if shutil.which("cmake") is None:
        raise Failure("cmake not found")
    if not (root / "src" / "CMakeLists.txt").is_file():
        raise Failure("no Skil sources under %s; run from a checkout" % root)
    jobs = str(max(1, min(MAX_BUILD_JOBS, len(os.sched_getaffinity(0)))))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "skil_perfbench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise Failure("build timed out: " + " ".join(cmd))
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise Failure("build failed: " + " ".join(cmd))
    binary = build_dir / "skil_perfbench"
    if not binary.is_file():
        raise Failure("build produced no %s" % binary)
    return binary


def git_commit(root):
    if not (root / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def launch(cmd, env, timeout_s, on_line):
    """Runs cmd, feeding each stdout line to on_line(line, seconds since
    launch), and returns its exit code.  Kills it after timeout_s."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(timeout_s, kill)
    timer.start()
    try:
        for line in proc.stdout:
            on_line(line.rstrip("\n"), time.perf_counter() - start)
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        code = proc.wait()
    if killed.is_set():
        raise Failure("%s did not finish within %d s" % (cmd[0], timeout_s))
    return code


def main(argv):
    opts = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    build_dir = root / ".bench_build" / "perfbench"
    binary = build(root, build_dir)

    env = {k: v for k, v in os.environ.items() if not k.startswith("SKIL_")}
    cmd = [str(binary), "--workload", opts["workload"],
           "--seed", str(opts["seed"]), "--seconds", str(opts["seconds"]),
           "--trace", str(opts["trace"]), "--root", str(root),
           "--trace-dir", str(root / ".bench_build" / "traces"),
           "--commit", git_commit(root)]
    if opts["small"]:
        cmd.append("--small")
    if opts["wrong_expected"]:
        cmd.append("--wrong-expected")

    setup_samples = []

    def note_ready(line, elapsed):
        if line == "ready":
            setup_samples.append(elapsed)

    for _ in range(SETUP_SAMPLES - 1):
        if launch(cmd + ["--setup-only"], env, SETUP_TIMEOUT_S, note_ready) != 0:
            raise Failure("harness set-up failed")

    lines = []

    def collect(line, elapsed):
        note_ready(line, elapsed)
        lines.append(line)

    code = launch(cmd, env, opts["seconds"] + 2 * SETUP_TIMEOUT_S, collect)
    if code != 0 or not lines:
        raise Failure("harness exited with code %d" % code)
    if len(setup_samples) != SETUP_SAMPLES:
        raise Failure("harness did not report ready on every launch")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        raise Failure("harness printed no result line")
    for line in lines[:-1]:
        print(line)
    print("setup_samples_s " + " ".join("%.6f" % s for s in setup_samples))
    if opts["trace"] == 0:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(setup_samples), "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so the harness is killed and
    # reaped instead of outliving this script.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main(sys.argv[1:]))
    except Failure as failure:
        print("perfbench: error: %s" % failure, file=sys.stderr)
        sys.exit(1)
    except KeyboardInterrupt:
        sys.exit(130)
