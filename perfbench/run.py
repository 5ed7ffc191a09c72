#!/usr/bin/env python3
"""Build and run the SARA benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cell_full --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py compare before.txt after.txt

The Go program is built into .bench_build/ with its build cache there
too, so nothing is written outside the checkout. The arguments are
passed to it unchanged; README.md describes them.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    os.makedirs(os.path.join(build, "tmp"), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomod"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        # The go command keeps telemetry counters under the user's
        # config directory.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    binary = os.path.join(build, "perfbench")
    # Build output goes to stderr: the last line of stdout is the result.
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        return built.returncode
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
