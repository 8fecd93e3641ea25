#!/usr/bin/env python3
"""Builds the siro daemon and the benchmark from source, then runs one
benchmark run and passes its output through.

Run from the repository root:

    python3 perfbench/run.py --workload anypair_small --seed 1 --seconds 30 --trace 0

Builds go to $CARGO_TARGET_DIR (default `.bench_build`). The last line of
standard output is the run's JSON result. A harness failure exits non-zero
without printing one.
"""

import os
import signal
import subprocess
import sys
import time

# The first build compiles the whole workspace; later ones are no-ops.
BUILD_TIMEOUT_S = 840
# The benchmark caps its own run below this; this is the backstop.
RUN_TIMEOUT_S = 175
REQUIRED = ("Cargo.toml", "crates/siro-serve/Cargo.toml", "perfbench/Cargo.toml")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def stop_group(proc):
    """Kills the run's whole process group, reaps the run, and waits (up
    to 5 s) until no process of the group is left."""
    pgid = proc.pid
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def build(command, env):
    try:
        done = subprocess.run(
            command, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{' '.join(command)}: {e}")
    if done.returncode != 0:
        fail(f"{' '.join(command)} exited with {done.returncode}")


def main():
    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        fail(f"missing {', '.join(missing)}: run from the root of a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    env.pop("SIRO_TRACE", None)
    build(["cargo", "build", "--release", "--offline", "--quiet", "--bin", "siro"], env)
    build(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        env,
    )
    exe = os.path.join(target, "release", "siro-perfbench")
    siro = os.path.join(target, "release", "siro")
    # Its own process group, so a timeout can stop the daemons it started.
    proc = subprocess.Popen([exe, "--siro", siro, *sys.argv[1:]], env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    except KeyboardInterrupt:
        stop_group(proc)
        fail("interrupted")
    sys.exit(code)


if __name__ == "__main__":
    main()
