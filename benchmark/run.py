#!/usr/bin/env python3
"""Builds the rega benchmark from source and runs one workload.

    python3 benchmark/run.py --workload <views|decide|serve|cluster> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is a package of its own
(`benchmark/Cargo.toml`) that depends on the repository's crates by path;
it is built with `cargo build --release --offline` into `$CARGO_TARGET_DIR`
(default `.bench_build` at the repository root). Build output goes to
standard error, so the last line of standard output is the run's result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("benchmark build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "rega-benchmark")
    sys.stdout.flush()
    # Replace this process: the benchmark's exit code and output are the
    # run's, and no wrapper process is left behind.
    os.execv(exe, [exe] + sys.argv[1:])
    return 1


if __name__ == "__main__":
    sys.exit(main())
