#!/usr/bin/env python3
"""Builds the layered benchmark from source and runs one workload.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is a Rust package of its own (perfbench/Cargo.toml) that
links the program's crates by path. Two builds are kept side by side
under $CARGO_TARGET_DIR (default .bench_build): `plain`, the default
features a user gets, for --trace 0, and `traced`, with the program's
telemetry compiled in, for --trace 1. Both are built on first use, so
only the first run pays for compilation.

Build output goes to standard error; the benchmark's own standard
output, whose last line is the JSON result, passes through unchanged.
The exit code is the benchmark's, or the build's if the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
VARIANTS = {"plain": [], "traced": ["--features", "traced"]}


def build(target_root, variant):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", MANIFEST,
        "--target-dir", os.path.join(target_root, variant),
    ] + VARIANTS[variant]
    return subprocess.run(cmd, stdout=sys.stderr).returncode


def main():
    args = sys.argv[1:]
    traced = "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]
    target_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    for variant in VARIANTS:
        rc = build(target_root, variant)
        if rc != 0:
            print(f"perfbench: building the {variant} benchmark failed", file=sys.stderr)
            return rc or 1
    variant = "traced" if traced else "plain"
    exe = os.path.join(target_root, variant, "release", "saath-perfbench")
    return subprocess.run([exe] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
