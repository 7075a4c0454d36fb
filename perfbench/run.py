#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 15 --trace 0

Workloads: serve-hot, serve-cold, party-he, select-train (see
perfbench/README.md). The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; build output goes to
standard error. Everything the run writes stays inside the checkout:
the build in $CARGO_TARGET_DIR (default .bench_build) and scratch caches and
span dumps in .bench_work.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORKLOADS = ("serve-hot", "serve-cold", "party-he", "select-train")


def command_output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs (self-test only)")
    a = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or str(ROOT / ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        built = subprocess.run(cargo, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if built.returncode != 0:
        sys.exit("perfbench: build failed")

    work = ROOT / ".bench_work"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    git = command_output(["git", "-C", str(ROOT), "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else ""
    env.update(
        PERFBENCH_CLK_TCK=str(os.sysconf("SC_CLK_TCK")),
        PERFBENCH_RUSTC=command_output(["rustc", "--version"]) or "unknown",
        PERFBENCH_GIT_COMMIT=git or "none (not a git checkout)",
        TMPDIR=str(work / "tmp"),
    )
    cmd = [str(pathlib.Path(target) / "release" / "perfbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.tiny:
        cmd.append("--tiny")
    try:
        run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    if run.returncode != 0 or not lines:
        sys.exit(f"perfbench: run failed with exit code {run.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("perfbench: malformed result line")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
