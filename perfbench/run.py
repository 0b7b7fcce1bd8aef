#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

The script builds the Go program in perfbench/ (a module of its own that
uses the repository's packages through a replace directive) and runs it
with the arguments unchanged; its exit status is the program's. The Go
build cache, temporary files, the binary, trace files and fleet state
all live under .bench_build/ in the repository root, so a run reads and
writes nothing outside the checkout.
"""

import os
import shutil
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for var, sub in (
        ("GOCACHE", "gocache"),
        ("GOPATH", "gopath"),
        ("GOMODCACHE", "gopath/pkg/mod"),
        ("GOTMPDIR", "tmp"),
        ("TMPDIR", "tmp"),
        ("XDG_CONFIG_HOME", "config"),
        ("XDG_CACHE_HOME", "cache"),
    ):
        env[var] = os.path.join(build, sub)
        os.makedirs(env[var], exist_ok=True)
    env.update(GOPROXY="off", GOTOOLCHAIN="local", GOWORK="off", GOFLAGS="-buildvcs=false")

    go = shutil.which("go") or "/usr/local/go/bin/go"
    binary = os.path.join(build, "bin", "perfbench")
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=here, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
