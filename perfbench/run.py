#!/usr/bin/env python3
"""Builds and runs the qdd session-server benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run it from the root of a qdd checkout. The first call configures and
builds the benchmark (only the qdd libraries it links) under .bench_build/;
later calls rebuild what changed. The process then becomes the benchmark
binary, whose last line of standard output is the JSON result. Build output
goes to standard error.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
STOP_SIGNALS = (signal.SIGTERM, signal.SIGINT, signal.SIGHUP)


def fail(message):
    sys.stderr.write("perfbench: " + message + "\n")
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no qdd sources next to " + HERE + "; run from a qdd checkout")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(build_root), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "qdd_perfbench",
                  "qdd_trace_check", "-j", jobs])
    for cmd in steps:
        if run_step(cmd) != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "qdd_perfbench")


def run_step(cmd):
    """Runs one build command in its own process group. On a timeout or a
    stop signal the whole group (make and the compilers under it) is killed
    and waited for, so no build process outlives this one."""
    try:
        child = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 start_new_session=True)
    except OSError as exc:
        fail("cannot start %s: %s" % (cmd[0], exc))

    def stop(signum, _frame):
        kill_group(child)
        sys.exit(128 + signum)

    previous = {s: signal.signal(s, stop) for s in STOP_SIGNALS}
    try:
        return child.wait(timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(child)
        fail("build step timed out: " + " ".join(cmd))
    finally:
        for s, handler in previous.items():
            signal.signal(s, handler)


def kill_group(child):
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()


def main():
    binary = build()
    sys.stdout.flush()
    sys.stderr.flush()
    # become the benchmark: no child process outlives this one
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
