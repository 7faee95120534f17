#!/usr/bin/env python3
"""Build the benchmark and run one workload of it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <paper_grid|session_service|trace_store> \
        --seed <n> --seconds <n> --trace <0|1>

The Rust package beside this script is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build at the repository root), then
run as a child process with every DISE_* variable removed from its
environment, so library constructors see the defaults. The child prints
its settings, notes and, traced, the per-layer summary; its last line is
one JSON object with the keys correct, attempted, failed and metrics.
Traces and span dumps go to perfbench-scratch in the target directory.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_grid", "session_service", "trace_store")
BUILD_TIMEOUT_S = 840
# A run starts rounds until --seconds have passed, so it overshoots by
# up to one round (a few seconds), and a traced run then probes each
# layer. Traced runs of MAX_SECONDS took 61-66 s on a 2-core host, well
# inside the timeout; main.rs enforces the same cap.
MAX_SECONDS = 60
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def revision(env):
    """The repository's git revision, or 'unknown' outside a git checkout."""
    # Stop git from looking above the repository for a .git directory.
    env = dict(env, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if not 1 <= args.seconds <= MAX_SECONDS:
        fail(f"--seconds {args.seconds} outside 1..{MAX_SECONDS}")

    manifest = os.path.join(HERE, "Cargo.toml")
    for needed in (manifest, os.path.join(ROOT, "crates", "bench", "Cargo.toml")):
        if not os.path.isfile(needed):
            fail(f"{os.path.relpath(needed, ROOT)} is missing: run from a full checkout")

    env = {k: v for k, v in os.environ.items() if not k.startswith("DISE_")}
    env["CARGO_NET_OFFLINE"] = "true"
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target

    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")

    command = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--scratch", os.path.join(target, "perfbench-scratch"),
        "--rev", revision(env),
    ]
    try:
        child = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    lines = child.stdout.rstrip("\n").split("\n")
    if child.returncode != 0:
        sys.stdout.write(child.stdout)
        fail(f"run failed with exit code {child.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("\n".join(lines[:-1]))
        fail("the last line of the run is not a result object")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
