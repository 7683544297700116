#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep|serve_cold|serve_hot \
        --seed N --seconds S --trace 0|1

Builds the `ce-serve` binary from the repository's workspace and the
benchmark package in this directory (release profile, offline), then runs
`perfbench` (or `perfbench-traced` for `--trace 1`). Build output goes to
stderr; the benchmark's last line of stdout is its JSON result. Artifacts
go to $CARGO_TARGET_DIR, or `perfbench/target` when it is unset.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv):
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "ce-serve", "--bin", "ce-serve"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--bins"],
    ]
    for cmd in builds:
        built = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            return built.returncode or 1
    traced = "--trace" in argv and argv[argv.index("--trace") + 1 :][:1] == ["1"]
    exe = os.path.join(target, "release", "perfbench-traced" if traced else "perfbench")
    server = os.path.join(target, "release", "ce-serve")
    return subprocess.run([exe, *argv, "--server", server, "--out-dir", target], env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
