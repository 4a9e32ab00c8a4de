#!/usr/bin/env python3
"""Builds and runs one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an imrdmd checkout. The first run configures and
builds the library and the driver in Release into .bench_build/perfbench
(later runs only rebuild what changed); build output goes to stderr. The
driver then runs with OMP_NUM_THREADS=1 in its environment, so every thread
it starts, pool workers included, sees it. The driver's standard output is
passed through: its last line is the JSON result. Working files (journals,
checkpoints, span dumps) go to .bench_build/work, and the compiler's
temporary files to .bench_build/tmp.

Exits with the driver's code (1 when an output check failed), or 2 without
a result when the environment or the checkout is unusable: an IMRDMD_*
variable is set (the benchmark pins every setting itself), or the library
sources are missing. It also exits 2 when the build fails or the driver
runs past 95 + 3 x --seconds.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
# The compiler's temporary files stay inside the checkout too.
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
WORKLOADS = ("replay_polaris", "wire_live", "tenants_ckpt")
BUILD_TIMEOUT_S = 840

# Pinned thread counts for the benchmarked process. OpenMP reads its
# variable when the runtime starts, so it must be in the environment before
# the process starts; calling omp_set_num_threads() later does not reach
# threads the library's pools already own.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OMP_DYNAMIC": "false",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0:
        die("--seed must be non-negative")
    if args.seconds <= 0:
        die("--seconds must be positive")
    return args


def check_environment():
    pinned = sorted(k for k in os.environ if k.startswith("IMRDMD_"))
    if pinned:
        die("refusing to run with %s set: the benchmark pins every setting "
            "explicitly" % ", ".join(pinned))
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("no imrdmd sources (CMakeLists.txt, src/) next to perfbench/; "
            "run from a full checkout")
    if shutil.which("cmake") is None:
        die("cmake is not installed")


def run_step(command):
    """Runs a build step with its output on stderr; dies if it fails."""
    os.makedirs(TMP_DIR, exist_ok=True)
    env = dict(os.environ, TMPDIR=TMP_DIR)
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build step timed out: " + " ".join(command))
    if done.returncode != 0:
        die("build step failed: " + " ".join(command))


def build():
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        command = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            command += ["-G", "Ninja"]
        run_step(command)
    run_step(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)])
    binary = os.path.join(BUILD_DIR, "perfbench")
    if not os.path.isfile(binary):
        die("build produced no driver at " + binary)
    return binary


def main():
    args = parse_args()
    check_environment()
    binary = build()
    os.makedirs(WORK_DIR, exist_ok=True)
    env = dict(os.environ)
    env.update(PINNED_ENV)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--workdir", WORK_DIR]
    # The driver measures for --seconds, and a traced run interleaves three
    # kinds of pass, so the limit scales with it (170 s at 25 s).
    timeout = 95 + 3 * args.seconds
    try:
        done = subprocess.run(command, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        die("the driver did not finish within %.0f s" % timeout)
    sys.stdout.write(done.stdout.decode("utf-8", "replace"))
    sys.stdout.flush()
    if done.returncode < 0:
        print("perfbench: the driver died from signal %d" % -done.returncode,
              file=sys.stderr)
        sys.exit(1)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
