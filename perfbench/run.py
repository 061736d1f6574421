#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 25 --trace 0

Run from the repository root. Builds the `tpu-serve` binary from the
root workspace and the benchmark package in this directory (both in
release mode, into $CARGO_TARGET_DIR, default `.bench_build`), then runs
the benchmark with the given arguments. The last line of standard output
is the result as JSON. Build output goes to standard error; on any
failure the script exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    for needed in ("Cargo.toml", os.path.join("crates", "serve"), "specs"):
        if not os.path.exists(os.path.join(root, needed)):
            print(f"run.py: {needed} not found; run from the repository root", file=sys.stderr)
            return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "tpu-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    out_dir = os.path.join(target, "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    bench = [
        os.path.join(target, "release", "perfbench"),
        *sys.argv[1:],
        "--server-bin", os.path.join(target, "release", "tpu-serve"),
        "--out-dir", out_dir,
    ]
    sys.stdout.flush()
    return subprocess.run(bench, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
