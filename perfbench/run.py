#!/usr/bin/env python3
"""Build and run the pacc benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload testbed_8x8 --seed 1 --seconds 20 --trace 0

The Go package in this directory is built against the checkout's sources
into .bench_build/ (the Go build cache and every scratch file stay there
too), then run with the given arguments. The last line of standard output
is the JSON result. See perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOENV="off",
        GOPROXY="off",
    )
    for key in ("GOTMPDIR", "XDG_CONFIG_HOME"):
        os.makedirs(env[key], exist_ok=True)
    return env


def main():
    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = [binary, "--build-dir", BUILD]
    argv = sys.argv[1:]
    if "--record-digests" in argv:
        argv = ["--record-digests", os.path.join(HERE, "digests.json")]
    return subprocess.run(args + argv, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
