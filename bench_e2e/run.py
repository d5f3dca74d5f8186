#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see NOTES.md).

Benchmark run, from the root of a checkout:

    python3 bench_e2e/run.py --workload train-dense --seed 1 --seconds 20 --trace 0

builds the BlinkML libraries and the benchmark from source (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs one workload and prints the
benchmark's output; its last line is the JSON result.

Self-test, a few seconds per workload at toy sizes:

    python3 bench_e2e/run.py --smoke

checks every metric name and unit against BENCHMARK.json on all three
workloads, and checks that a corrupted reference bit fails each run.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SOURCE_ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["train-dense", "search-sparse", "predict-sharded"]
# A run must end well inside the 180 s a benchmark run is allowed.
RUN_TIMEOUT_S = 175


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally. Returns the binary path."""
    if not os.path.isfile(os.path.join(SOURCE_ROOT, "CMakeLists.txt")):
        log("bench_e2e: no BlinkML sources next to the benchmark; "
            "run from a full checkout")
        sys.exit(2)
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", build_dir, "--target", "bench_e2e",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "bin", "bench_e2e")


def run(binary, args):
    """Runs the benchmark in its own process group; returns (code, stdout).

    The group is killed on timeout, so no shard worker outlives the run.
    """
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        log("bench_e2e: run timed out")
        return 124, out
    return proc.returncode, out


def result_line(out):
    """The JSON result (the binary's last line), or None."""
    lines = out.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) and "correct" in result else None


def smoke(binary):
    with open(os.path.join(SOURCE_ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in WORKLOADS:
        base = ["--workload", workload, "--seed", "1", "--seconds", "1",
                "--smoke"]
        for trace in ("0", "1"):
            code, out = run(binary, base + ["--trace", trace])
            result = result_line(out)
            if code != 0 or result is None:
                failures.append(f"{workload} trace {trace}: exit {code}")
                sys.stderr.write(out)
                continue
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{workload} trace {trace}: result keys")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                failures.append(f"{workload} trace {trace}: metric names or "
                                f"units differ from BENCHMARK.json")
            if not result["correct"] or result["attempted"] < 1:
                failures.append(f"{workload} trace {trace}: not correct")
        code, out = run(binary, base + ["--trace", "0",
                                        "--corrupt-reference"])
        if code == 0 or result_line(out) is not None:
            failures.append(f"{workload}: a corrupted reference did not fail "
                            "the run")
        log(f"smoke {workload}: done")
    for failure in failures:
        log("smoke FAILED: " + failure)
    print("smoke: " + ("ok" if not failures else "FAILED"))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true",
                        help="self-test at toy sizes")
    args = parser.parse_args()
    if not args.smoke and None in (args.workload, args.seed, args.seconds,
                                   args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    binary = build()
    if args.smoke:
        return smoke(binary)
    code, out = run(binary, ["--workload", args.workload,
                             "--seed", str(args.seed),
                             "--seconds", str(args.seconds),
                             "--trace", args.trace])
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
