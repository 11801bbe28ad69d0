#!/usr/bin/env python3
"""Build the optimist benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The driver executable is built with dune
into the directory named by CARGO_TARGET_DIR (default .bench_build), with
the dune cache off so nothing is written outside the checkout, and run
on one CPU, the highest-numbered one this process may use. Build output
goes to stderr; the benchmark's report, ending with one JSON line, goes to
stdout. Exits non-zero without a result when the checkout lacks the
sources or the build fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"run.py: {need} not found under {ROOT}: not a source checkout",
                  file=sys.stderr)
            return 2
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", build_dir,
         "--display", "quiet", "./perfbench/bench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    # The benchmark and every process it forks run on one CPU: on a
    # shared VM, waking a process on another vCPU costs what the
    # hypervisor makes it cost, which drifts with the neighbours' load.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
