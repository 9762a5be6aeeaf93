#!/usr/bin/env python3
"""End-to-end benchmark of bundlemine: builds perfbench and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload solve-medium --seed 1 --seconds 15 --trace 0

Workloads: solve-medium, sweep-small, serve-tenants (see WORKLOADS.md).
The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; so do span files and daemon logs. Build output goes to
stderr. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.

peak_rss_mb of the in-process workloads is the benchmark process's own peak
resident set, read from wait4 when it exits; serve-tenants reports the
daemon's the same way.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve-medium", "sweep-small", "serve-tenants")
RUN_TIMEOUT_S = 175
BUILD_JOBS = "4"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds perfbench plus bundlemined."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"bundlemine sources not found in {ROOT}")
    # Compiler scratch files stay inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        step = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, env=env)
        if step.returncode != 0:
            fail("cmake configure failed")
    step = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", BUILD_JOBS],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if step.returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = target if os.path.isabs(target) else os.path.join(ROOT, target)
    build_dir = os.path.join(base, "perfbench")
    build(build_dir)
    out_dir = os.path.join(base, "runs")
    os.makedirs(out_dir, exist_ok=True)

    command = [
        os.path.join(build_dir, "perfbench"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds:g}",
        f"--trace={args.trace}",
        f"--out-dir={out_dir}",
        f"--daemon={os.path.join(build_dir, 'bundlemine', 'bundlemined')}",
    ]
    # A session of its own, so the watchdog's kill also takes down a daemon
    # the run spawned.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    watchdog = threading.Timer(
        RUN_TIMEOUT_S, lambda: os.killpg(child.pid, signal.SIGKILL))
    watchdog.start()
    try:
        output = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        watchdog.cancel()
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        fail(f"{args.workload} exited with status {child.returncode}")

    lines = output.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("no result line")
    if args.trace == 0 and "peak_rss_mb" not in result["metrics"]:
        # ru_maxrss is in KiB on Linux.
        result["metrics"]["peak_rss_mb"] = {
            "value": usage.ru_maxrss / 1024.0, "unit": "MB"}
        lines.insert(-1, f"  {'peak_rss_mb':<18} {usage.ru_maxrss / 1024.0:12.1f} "
                         "MB   n=1 (this process, reaped by wait4)")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
