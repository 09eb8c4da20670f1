#!/usr/bin/env python3
"""Build the release `mao` binary and the benchmark, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds go to $CARGO_TARGET_DIR (default `.bench_build`). The benchmark's
own output is passed through: its last stdout line is the result JSON.
Exits non-zero, without a result line, when the sources are missing, a
build fails, or the run fails or overruns.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    # Build chatter goes to stderr so stdout carries only the result.
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode == 0


def main():
    for needed in ("Cargo.toml", "crates"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2
    target = os.environ.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not build(["-p", "mao-check", "--bin", "mao"]):
        print("perfbench: building mao failed", file=sys.stderr)
        return 2
    if not build(["--manifest-path", os.path.join(HERE, "Cargo.toml")]):
        print("perfbench: building the benchmark failed", file=sys.stderr)
        return 2
    release = os.path.join(ROOT, target, "release")
    cmd = [os.path.join(release, "perfbench"), "--mao", os.path.join(release, "mao")]
    # A session of its own, so an overrun also takes down any daemon the
    # benchmark started.
    proc = subprocess.Popen(cmd + sys.argv[1:], cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
