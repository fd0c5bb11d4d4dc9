#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload hot-partitioned --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The Go program in this directory is built
from source into .bench_build/ (with its build cache there too, so nothing
is written outside the checkout) and run with the same arguments. Its last
line of output is the result as one JSON object; see main.go. The exit code
is the program's, or 1 when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")

# Every run must end within 180 s; the build gets the rest of the first
# run's allowance.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def go_env():
    env = dict(os.environ)
    env.update({
        "GOPROXY": "off",          # never fetch: everything is in the checkout
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=readonly",
        "GOWORK": "off",
        "GOENV": "off",
        "GOCACHE": os.path.join(OUT, "gocache"),
        "GOMODCACHE": os.path.join(OUT, "gomodcache"),
        "GOTMPDIR": os.path.join(OUT, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(OUT, "config"),
        "XDG_CACHE_HOME": os.path.join(OUT, "cache"),
    })
    return env


def build(env):
    for d in ("gocache", "gomodcache", "tmp", "config", "cache"):
        os.makedirs(os.path.join(OUT, d), exist_ok=True)
    binary = os.path.join(OUT, "perfbench")
    try:
        proc = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                              stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"run.py: build failed with exit code {proc.returncode}", file=sys.stderr)
        return None
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = go_env()
    binary = build(env)
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        cmd += ["--spans", os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
