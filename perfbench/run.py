#!/usr/bin/env python3
"""Build perfbench from source inside the checkout, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload srv-pair --seed 17 --seconds 20 --trace 0

Every build and run file stays under .bench_build/ at the root. The Go
toolchain's caches, temporary files and configuration are pointed there
too, and module downloads are disabled: the benchmark needs only the
standard library and this repository.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def run(cmd, cwd, env, timeout):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    env = dict(os.environ)
    for var, sub in [
        ("GOCACHE", "gocache"),
        ("GOMODCACHE", "gomodcache"),
        ("GOPATH", "gopath"),
        ("GOTMPDIR", "tmp"),
        ("TMPDIR", "tmp"),
        ("HOME", "home"),
        ("XDG_CONFIG_HOME", "home/config"),
        ("XDG_CACHE_HOME", "home/cache"),
    ]:
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[var] = path
    env.update(GOPROXY="off", GOTOOLCHAIN="local", GOWORK="off", GOFLAGS="", CGO_ENABLED="0")

    binary = os.path.join(BUILD, "perfbench")
    try:
        code = run(["go", "build", "-o", binary, "."], HERE, env, BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    expected = os.path.join(HERE, "expected.json")
    try:
        return run([binary, "--expected", expected] + sys.argv[1:], ROOT, env, RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
