#!/usr/bin/env python3
"""Build perfbench from source and run one of its workloads.

    python3 perfbench/run.py --workload <name> [--seed <n>]
                             [--seconds <s>] [--trace 0|1] [extra flags]

Run from anywhere; paths resolve against the checkout this file sits
in.  The build tree lives under $CARGO_TARGET_DIR (default .bench_build)
in the checkout, and so does each run's own directory, removed when the
run ends: a separate process first generates the seed's suite there,
then the measured one runs on it.  Build output goes to stderr; the
benchmark's last stdout line is its JSON result.  Flags this script does
not know are passed to the benchmark binary (see main.cc).
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configure once, then (re)build the perfbench target."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(min(4, os.cpu_count() or 1)), "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", default="0x5eed")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args, extra = ap.parse_known_args()

    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"))
    exe = build(os.path.join(out, "perfbench"))
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    runs = os.path.join(out, "perfbench-runs")
    os.makedirs(runs, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=runs)
    try:
        suite = os.path.join(run_dir, "suite")
        prepare = [exe, "--prepare", "--seed", args.seed,
                   "--suite-dir", suite]
        if subprocess.run(prepare).returncode != 0:
            return 1
        cmd = [exe, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--suite-dir", suite,
               "--scratch-dir", os.path.join(run_dir, "scratch"),
               "--digest-file", os.path.join(HERE, "digests.txt")] + extra
        return subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
