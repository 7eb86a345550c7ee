#!/usr/bin/env python3
"""End-to-end benchmark of rps-serve.

Run from the repository root:

    python3 perfbench/run.py --workload dashboard_read --seed 1 --seconds 10 --trace 0

Builds the real `rps-serve` binary and the `perfbench` load generator
from source (release profile, into $CARGO_TARGET_DIR, default
`.bench_build`), then runs one workload. Scratch files (server logs,
data directories, span traces, per-run reports) go under `.bench_out/`.
The last line of standard output is the JSON result; the exit code is
non-zero on a build failure, a server failure or a correctness mismatch.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build(env):
    """Builds both binaries; returns False (after reporting) on failure."""
    steps = [
        ("Cargo.toml", ["-p", "rps-serve", "--bin", "rps-serve"]),
        (os.path.join("perfbench", "Cargo.toml"), []),
    ]
    for manifest, extra in steps:
        path = os.path.join(ROOT, manifest)
        if not os.path.isfile(path):
            print(f"perfbench: {manifest} not found; run from a full checkout", file=sys.stderr)
            return False
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", path] + extra
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print(f"perfbench: build of {manifest} failed", file=sys.stderr)
            return False
    return True


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if not build(env):
        return 1
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--server-bin", os.path.join(target, "release", "rps-serve"),
        "--out-dir", os.path.join(ROOT, ".bench_out"),
    ] + sys.argv[1:]
    # Own process group, so a run that overstays can be stopped together
    # with the server processes it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
