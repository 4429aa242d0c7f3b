#!/usr/bin/env python3
"""Build and run the planarity-DIP benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1 [--smoke]

`--workload all` runs every workload of BENCHMARK.json in turn, each
printing its own stamp line and result line, and exits nonzero if any
run did.

Builds the `pdip` binary and the `perfbench` driver in release mode
(offline) into $CARGO_TARGET_DIR, default `.bench_build` in the
checkout, then runs the driver. Build output goes to standard error;
the driver's last line of standard output is the JSON result. Exits
nonzero, printing no result, when the checkout holds no workspace to
build.
"""

import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(why):
    print(f"perfbench/run.py: {why}", file=sys.stderr)
    sys.exit(2)


def build(target, *args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{' '.join(cmd)}: {e}")
    if done.returncode != 0:
        fail(f"{' '.join(cmd)} exited with {done.returncode}")


def commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    for needed in ("Cargo.toml", "crates", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} in {ROOT}: run from the root of a full checkout")
    target = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    )
    build(target, "--bin", "pdip")
    build(target, "--manifest-path", os.path.join("perfbench", "Cargo.toml"))
    args = sys.argv[1:]
    workloads = [None]
    if "--workload" in args and args[args.index("--workload") + 1 :][:1] == ["all"]:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    # The driver runs in a process group of its own, so that the server
    # it spawns is stopped with it however the run ends; SIGTERM unwinds
    # through the cleanup in run().
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    codes = []
    for w in workloads:
        if w is not None:
            args[args.index("--workload") + 1] = w
        codes.append(run(target, args))
    sys.exit(next((c for c in codes if c != 0), 0))


def run(target, args):
    """Runs the driver once and returns its exit code."""
    cmd = [
        os.path.join(target, "release", "perfbench"),
        *args,
        "--pdip", os.path.join(target, "release", "pdip"),
        "--out-dir", os.path.join(target, "perfbench-out"),
        "--commit", commit(),
    ]
    child = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = child.wait(timeout=900)
    except BaseException:
        code = None
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    if code is None:
        fail("the benchmark was interrupted or ran past 900 s")
    return code

if __name__ == "__main__":
    main()
