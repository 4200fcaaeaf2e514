#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload poll-qd1 --seed 1 --seconds 10 --trace 0

The benchmark is the Go program in this directory (its own module, which
uses the repository's packages through a replace directive). This script
builds it with every Go cache and temporary directory under the build
directory ($CARGO_TARGET_DIR, default .bench_build), so building and
running touch nothing outside the checkout, then runs it with the given
arguments from the repository root. The program's standard output is
passed through; its last line is the JSON result. Build output goes to
standard error.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: no go.mod in %s; run from a repository checkout" % root, file=sys.stderr)
        return 2
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(build, "gotmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    for d in ("GOCACHE", "GOTMPDIR", "XDG_CONFIG_HOME"):
        os.makedirs(env[d], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        ran = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
