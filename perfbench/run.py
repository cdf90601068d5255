#!/usr/bin/env python3
"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload er_tables --seed 1 --seconds 16 --trace 0

Run from the root of a source checkout. Builds the driver and wym_serve
from the checkout's sources into .bench_build/perfbench (a no-op once
built), runs perfbench_driver with scratch files under .bench_work/,
and relays its output; the last stdout line is the run's JSON result.
Exits non-zero, without a result, when the build or the run fails.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = ".bench_work"  # Relative to ROOT: keeps the socket path short.
WORKLOADS = ("er_tables", "serve_cold", "serve_hot")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def reap_group(pgid):
    """Kills whatever is left in the driver's process group (a wym_serve
    orphaned by a crashed driver) and waits until the group is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def build():
    """Configures (once) and builds the two targets; False on failure."""
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            log(f"perfbench: {needed} is missing; run from a full source checkout")
            return False
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "perfbench_driver", "wym_serve_bin"])
    for command in steps:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log(f"perfbench: build step failed: {' '.join(command)}")
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 2
    work = os.path.join(WORK_DIR, args.workload)
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, work))
    command = [os.path.join(BUILD_DIR, "perfbench_driver"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--serve-bin", os.path.join(BUILD_DIR, "wym_tools", "wym_serve"),
               "--work-dir", work]
    # Own process group, so a timeout also reaps the driver's wym_serve.
    driver = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, start_new_session=True)
    try:
        out, _ = driver.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        driver.kill()
        driver.communicate()
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        return 3
    finally:
        reap_group(driver.pid)
    lines = out.rstrip("\n").splitlines()
    if driver.returncode != 0 or not lines:
        sys.stderr.write(out)
        log(f"perfbench: driver exited with {driver.returncode}")
        return 4
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        log("perfbench: driver printed no JSON result")
        return 5
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
