#!/usr/bin/env python3
"""Builds the ppj end-to-end benchmark from this checkout and runs it.

    python3 perfbench/run.py --workload service-mix --seed 1 --seconds 30 \
        --trace 0
    python3 perfbench/run.py --test

The build tree is perfbench-<hash of the checkout's path> inside
$CARGO_TARGET_DIR (default .bench_build under the checkout root). The
benchmark's stdout passes through unchanged; its last line is the JSON
result. Build output goes to stderr.
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build_dir():
    """This checkout's own build tree.

    CMake records the source directory in its cache, so two checkouts that
    share one $CARGO_TARGET_DIR must not share a tree: the benchmark would
    rebuild and time the other checkout's sources.
    """
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    tag = hashlib.sha256(ROOT.encode()).hexdigest()[:16]
    return os.path.join(base, "perfbench-" + tag)


def build(out, targets):
    """Configures (once) and builds `targets`; False on failure."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j4", "--target", *targets])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr,
                                      stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                print("perfbench: build timed out", file=sys.stderr)
                return False
            if done.returncode != 0:
                print("perfbench: build failed", file=sys.stderr)
                return False
    return True


def run(cmd):
    """Runs `cmd` with stdout passed through; returns its exit code."""
    with subprocess.Popen(cmd, cwd=ROOT) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("perfbench: run timed out", file=sys.stderr)
            return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.test and not args.workload:
        parser.error("--workload is required")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no ppj sources under %s/src" % ROOT, file=sys.stderr)
        return 2
    out = build_dir()
    if args.test:
        if not build(out, ["perfbench_tests"]):
            return 1
        return run([os.path.join(out, "perfbench_tests")])

    if not build(out, ["ppj_perfbench"]):
        return 1
    cmd = [os.path.join(out, "ppj_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace == 1:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        name = "%s-seed%d.jsonl" % (args.workload, args.seed)
        cmd += ["--spans-out", os.path.join(spans, name)]
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
