#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload solo-clusters --seed 1 --seconds 10 --trace 0

The OCaml benchmark (perfbench/bench.ml) is built with dune into
.bench_build/ (or $CARGO_TARGET_DIR when set), with dune's shared cache
off so nothing is written outside the checkout.  Its arguments are
passed through unchanged; its output and exit code are the run's.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 900
RUN_TIMEOUT_S = 175


def main() -> int:
    root = os.getcwd()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root (no dune-project or lib/ here)",
              file=sys.stderr)
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(root, build_dir, "xdg-cache")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "--profile", "release", "./perfbench/bench.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        print("perfbench: build failed", file=sys.stderr)
        return 3
    exe = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    try:
        run = subprocess.run([exe] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
