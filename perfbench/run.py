#!/usr/bin/env python3
"""Repository benchmark launcher.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds perfbench/ (and the library targets
it links) into .bench_build/perfbench, runs the workload's set-up probes,
then one measured run, and prints that run's result object as the last
line of stdout. Build output and progress go to stderr. Exits non-zero
without a result when the build or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD, "ascend_perfbench")
SETUP_PROBES = 8  # extra processes that only set up; setup_s is the median
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "ascend_perfbench", "-j", jobs],
    ]
    if os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def launch(argv, timeout):
    """Run the benchmark binary in its own process group; returns (code, stdout)."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OMP_DYNAMIC="false")
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen(argv + ["--spawn-ns", str(spawn_ns)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("perfbench: run timed out")
        return 1, ""
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    if args.workload not in workloads:
        log("perfbench: unknown workload " + args.workload)
        return 2
    if not build():
        return 1
    os.makedirs(WORK, exist_ok=True)

    started = time.monotonic()
    argv = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--work-dir", WORK]
    for key, value in workloads[args.workload].items():
        argv += ["--" + key.replace("_", "-"), str(value)]

    probes = []
    for _ in range(SETUP_PROBES if args.trace == 0 else 0):
        code, out = launch(argv + ["--setup-probe"], 60)
        lines = out.split()
        if code != 0 or len(lines) < 2 or lines[-2] != "setup_s":
            log("perfbench: setup probe failed")
            return 1
        probes.append(lines[-1])

    remaining = RUN_TIMEOUT_S - (time.monotonic() - started)
    code, out = launch(argv + ["--prior-setup-s", ",".join(probes)], max(10, remaining))
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        log("perfbench: run failed (exit %d)" % code)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("perfbench: no result line")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
