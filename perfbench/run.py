#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload dse|svc_mix|campaign --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (the hlshc libraries from
src/ plus the perfbench binary) into $CARGO_TARGET_DIR when set, else
.bench_build, under the repository root; later calls rebuild incrementally.
Build output goes to stderr, so the binary's JSON result stays the last
stdout line. Exits nonzero, without a result, when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    d = os.path.normpath(os.path.join(ROOT, d))
    if os.path.commonpath([d, ROOT]) != ROOT:
        sys.exit("perfbench: build directory %s is outside the repository" % d)
    return os.path.join(d, "perfbench")


def build(out):
    cache = os.path.join(out, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "perfbench_selftest", "-j", "4"])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def main():
    out = build_dir()
    build(out)
    if sys.argv[1:] == ["--selftest"]:
        return subprocess.call([os.path.join(out, "perfbench_selftest")])
    cmd = [os.path.join(out, "perfbench")] + sys.argv[1:]
    cmd += ["--out", os.path.join(out, "reports")]
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
