#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The binary is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build under the current directory);
the build's output goes to stderr so that the benchmark's JSON result
stays the last line of stdout. Exits non-zero, without a result, when
the build fails.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return build.returncode or 1
    binary = target / "release" / "perfbench"
    return subprocess.run([str(binary), *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
