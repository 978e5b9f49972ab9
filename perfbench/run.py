#!/usr/bin/env python3
"""Builds the benchmark from source, then runs it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload gauntlet|modelcheck|scale64 \
        --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR (default `.bench_build`), offline.
Build output goes to standard error; the benchmark's own output, whose
last line is the JSON result, goes to standard output. The exit code is
the benchmark's, or non-zero without a result if the build fails.
"""

import os
import signal
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    child = subprocess.Popen([binary, *sys.argv[1:]], env=env)

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        return child.wait()
    except KeyboardInterrupt:
        child.terminate()
        child.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
