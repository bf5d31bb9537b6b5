#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <report|campaign|daemon> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package and the `paper-report` binary (release,
offline, into $CARGO_TARGET_DIR or `.bench_build`), then runs one workload.
The last line of stdout is the result object; build output and the
human-readable figures go to stderr. Exits non-zero without a result when
the repository sources are missing or a build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    for required in ("Cargo.toml", "crates", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(os.path.join(root, required)):
            print(f"error: {required} not found; run from the root of a full checkout", file=sys.stderr)
            return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "mp-bench", "--bin", "paper-report"],
    ]
    for command in builds:
        built = subprocess.run(command, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if built.returncode != 0:
            print(f"error: build failed: {' '.join(command)}", file=sys.stderr)
            return 1
    release = os.path.join(target if os.path.isabs(target) else os.path.join(root, target), "release")
    command = [os.path.join(release, "perfbench"), *sys.argv[1:], "--paper-report", os.path.join(release, "paper-report")]
    return subprocess.run(command, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
