#!/usr/bin/env python3
"""Build the release `truss` binary and the benchmark, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--tiny 0|1] [--inject none|tsv|checksum]

Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
`.bench_build`); scratch files go to `.bench_work`, Chrome traces of
`--trace 1` runs to `.bench_trace`. Build output goes to stderr; stdout
carries the benchmark's own lines, the last being the result object.
Exits non-zero, without a result line, when a build or the run fails.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170
DIGEST_ROOTS = ["Cargo.toml", "Cargo.lock", "rust-toolchain.toml", "src", "crates", "vendor", "perfbench"]
SKIP_DIRS = {"target", "__pycache__"}


def source_digest():
    """SHA-256 over the sources that decide what is measured."""
    h = hashlib.sha256()
    files = []
    for root in DIGEST_ROOTS:
        if os.path.isfile(root):
            files.append(root)
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS and not d.startswith("."))
            files.extend(os.path.join(dirpath, f) for f in filenames)
    for path in sorted(files):
        h.update(path.encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def cargo_build(target_dir, extra):
    cmd = ["cargo", "build", "--release", "--offline", "--locked", *extra]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Cargo's own chatter goes to stderr; keep stdout for the result.
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    p.add_argument("--tiny", default="0", choices=["0", "1"])
    p.add_argument("--inject", default="none", choices=["none", "tsv", "checksum"])
    args = p.parse_args()

    if not os.path.isfile("Cargo.toml") or not os.path.isfile("perfbench/Cargo.toml"):
        print("perfbench: run from the repository root", file=sys.stderr)
        return 2
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not cargo_build(target_dir, ["--bin", "truss"]):
        return 1
    if not cargo_build(target_dir, ["--manifest-path", "perfbench/Cargo.toml"]):
        return 1

    cmd = [
        os.path.join(target_dir, "release", "perfbench"),
        "--truss", os.path.join(target_dir, "release", "truss"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--tiny", args.tiny,
        "--inject", args.inject,
        "--work", ".bench_work",
        "--trace-dir", ".bench_trace",
        "--git-commit", git_commit(),
        "--source-digest", source_digest(),
    ]
    # Its own process group, so a timeout stops the daemons and CLI
    # children it started too.
    child = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except (subprocess.TimeoutExpired, KeyboardInterrupt):
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s; stopping it", file=sys.stderr)
        code = 1
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the group is already empty: every child was reaped
    child.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
