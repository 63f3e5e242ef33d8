#!/usr/bin/env python3
"""Build and run the dpflow benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --calib-ref-ms <ms> --workload <name> \
        --seed <n> --seconds <s> --trace <0|1>

The Go harness in this directory is built into the build directory
($CARGO_TARGET_DIR, default .bench_build) with its Go build cache kept there
too, so nothing is written outside the checkout. Every argument is passed on
to the harness; see README.md.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def source_digest():
    """Revision of the code under test: git HEAD, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for d, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(x for x in dirs if not x.startswith("."))
        for f in sorted(files):
            if f.endswith(".go") or f == "go.mod":
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
        "GOFLAGS": "-mod=readonly",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench-bin")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    env["GOMAXPROCS"] = "2"
    args = [binary, "-out", os.path.join(build, "perfbench"), "-commit", source_digest()]
    args += sys.argv[1:]
    try:
        return subprocess.run(args, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
