#!/usr/bin/env python3
"""Builds and runs the aelite benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <admit_churn|fault_storm|design_verify> \\
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` binary (release profile, offline) into
`$CARGO_TARGET_DIR`, or `perfbench/target` when that is unset, then runs it
with the arguments given, pinned to one CPU: the benchmark is
single-threaded, and on a small shared host a thread that migrates between
CPUs reads noticeably slower and less repeatably than one that stays put.
The binary's standard output, whose last line is the JSON result, passes
through unchanged; the exit code is the binary's (or the build's).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Longest a measured run may take before it is stopped and counted failed.
RUN_TIMEOUT_S = 170


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode or 1

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(os.path.abspath(target), "release", "perfbench")

    env = dict(os.environ)
    try:
        cpus = sorted(os.sched_getaffinity(0))
        # The last CPU: the first usually takes more of the host's own work.
        os.sched_setaffinity(0, {cpus[-1]})
        env["PERFBENCH_PINNED"] = f"cpu {cpus[-1]} of {len(cpus)}"
    except (AttributeError, OSError):
        env["PERFBENCH_PINNED"] = "not pinned"

    try:
        run = subprocess.run([binary] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
