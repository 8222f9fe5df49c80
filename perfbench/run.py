#!/usr/bin/env python3
"""Builds the benchmark and runs one workload of it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Workload definitions are read from
perfbench/workloads.json and handed to the benchmark binary as settings;
the binary prints a metrics table and, as its last line, one JSON object.
The build goes to $CARGO_TARGET_DIR (default: .bench_build).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    if args.workload not in workloads:
        sys.exit(f"unknown workload {args.workload!r}; known: {', '.join(workloads)}")

    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(f"benchmark build failed ({build.returncode})")

    command = [os.path.join(target, "release", "stc-perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    for key, value in workloads[args.workload].items():
        text = value if isinstance(value, str) else json.dumps(value)
        command += ["--set", f"{key}={text}"]
    sys.stdout.flush()
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
