#!/usr/bin/env python3
"""Build the benchmark from this checkout's source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The Go build cache, temporary files and the binary live in .bench_build/ at
the checkout root, and traced runs write their spans to .bench_out/, so a run
writes nothing outside the checkout. Build failures (for example a checkout
without the simulator's source) exit non-zero before any result is printed.
"""
import os
import subprocess
import sys


def main():
    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOTMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-trimpath", "-o", binary, "."],
        cwd=bench, env=env, stdout=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.chdir(root)
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
