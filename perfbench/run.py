#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload fig11-migration --seed 7 --seconds 60 --trace 0

The Go program is built from source into .bench_build/ (the build cache
lives there too, so nothing is written outside the checkout), then run
with the same arguments. Its last line of output is the JSON result.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def run(args, cwd, env, timeout):
    """Run args in its own process group. On timeout, or if this script is
    stopped, kill the whole group (go build forks compilers) and wait."""
    proc = subprocess.Popen(args, cwd=cwd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args[0]} timed out after {timeout}s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = os.path.join(root, ".bench_build")
    binary = os.path.join(out, "perfbench")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOPATH=os.path.join(out, "gopath"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    try:
        if run(["go", "build", "-o", binary, "."], os.path.join(root, "perfbench"), env, BUILD_TIMEOUT_S) != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
        return run([binary] + sys.argv[1:], root, env, RUN_TIMEOUT_S)
    except OSError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
