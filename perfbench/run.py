#!/usr/bin/env python3
"""Build the CLAM benchmark from source and run one workload.

    python3 perfbench/run.py --workload pingpong --seed 1 --seconds 10 --trace 0

Run from the repository root. Every file the build and the run write goes
under .bench_build/ in the repository: the Go build cache, temporary build
files, the benchmark binary, the unix sockets and the span dumps. The
arguments are passed to the benchmark unchanged; its last line of standard
output is the JSON result, and its exit status is this script's.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=str(BUILD / "gocache"),
        GOTMPDIR=str(BUILD / "tmp"),
        GOPATH=str(BUILD / "gopath"),
        # Keep the go command's own files (telemetry, env file) in the
        # checkout, and never reach for the network or another toolchain.
        XDG_CONFIG_HOME=str(BUILD / "config"),
        GOENV="off",
        GOFLAGS="",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
    )
    return env


def build():
    for d in ("gocache", "tmp", "gopath", "config"):
        (BUILD / d).mkdir(parents=True, exist_ok=True)
    binary = BUILD / "clamperf"
    proc = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", str(binary), "."],
        cwd=HERE, env=go_env(), stdout=sys.stderr, stderr=sys.stderr,
    )
    if proc.returncode != 0:
        sys.exit(f"run.py: building the benchmark failed (go build exit {proc.returncode})")
    return binary


def main():
    binary = build()
    proc = subprocess.run([str(binary), *sys.argv[1:]], cwd=ROOT)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
