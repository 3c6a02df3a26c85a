#!/usr/bin/env python3
"""Repo benchmark entry point.

Builds perfbench_driver (and the noisebalance library it links) from the
checkout's sources in Release mode, runs one workload, and prints the
result as one JSON object on the last line of standard output:

    python3 perfbench/run.py --workload batch_insert --seed 1 --seconds 15 --trace 0

Workloads: noisy_campaign, batch_insert, churn_drain (see perfbench/README.md).
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
--toy runs tiny problem sizes and --corrupt breaks one expectation; both
exist for perfbench/selfcheck.py.

The build lives in .bench_build/perfbench and every output file in
.bench_build/out, both inside the checkout.  perfbench_driver writes its result
to a file, so library diagnostics on stderr never mix into it.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "out"
WORKLOADS = ("noisy_campaign", "batch_insert", "churn_drain")
RUN_DEADLINE_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log):
    with open(log, "a") as f:
        f.write("$ " + " ".join(cmd) + "\n")
        f.flush()
        return subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode


def build():
    """Configures (once) and builds perfbench_driver; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"the noisebalance sources are missing from {ROOT}; nothing to benchmark")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={SOURCE}" not in cache.read_text():
        shutil.rmtree(BUILD)  # configured for another checkout
        BUILD.mkdir(parents=True)
    if not cache.is_file():
        cmd = ["cmake", "-S", str(SOURCE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_logged(cmd, log) != 0:
            sys.stderr.write(log.read_text()[-4000:])
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    if run_logged(["cmake", "--build", str(BUILD), "--target", "perfbench_driver", "-j", jobs],
                  log) != 0:
        sys.stderr.write(log.read_text()[-4000:])
        fail("build failed")
    return BUILD / "perfbench_driver"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    driver = build()
    OUT.mkdir(parents=True, exist_ok=True)
    prefix = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}"
    result_path = Path(f"{prefix}.result.json")
    result_path.unlink(missing_ok=True)
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out", str(prefix)]
    if args.toy:
        cmd.append("--toy")
    if args.corrupt:
        cmd.append("--corrupt")
    sys.stdout.flush()
    start = time.monotonic()
    try:
        # subprocess.run kills perfbench_driver and waits for it on timeout.
        code = subprocess.run(cmd, timeout=RUN_DEADLINE_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_DEADLINE_S} s")
    if code != 0 or not result_path.is_file():
        fail(f"{args.workload}: perfbench_driver exited with code {code}")
    result = json.loads(result_path.read_text())
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result {result_path}")
    print(f"perfbench: {args.workload} seed {args.seed} trace {args.trace}: "
          f"{time.monotonic() - start:.1f} s, record {prefix}.record.json")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
