#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md beside this file).

    python3 vcbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
`vcbench` from source under $CARGO_TARGET_DIR (default `.bench_build`);
later calls only re-check the build. Build output goes to stderr, so the
last line on stdout is the benchmark's JSON result. A per-run result file
with the host fingerprint is written under `<build dir>/results/`.
Extra flags (`--smoke`, `--perturb`) are passed through to the binary.
"""
import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def source_digest():
    """Digest of the library sources, which identifies the measured program
    even in a checkout without git metadata."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:12]


def commit_id():
    rev = "nogit"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                                 cwd=ROOT, capture_output=True, text=True,
                                 check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return f"{rev} src-{source_digest()}"


def build(build_root):
    build_dir = os.path.join(build_root, "vcbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "vcbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = parser.parse_known_args()

    if not os.path.exists(os.path.join(ROOT, "src", "core", "trainer.hpp")):
        print("vcbench: library sources (src/) not found next to the benchmark",
              file=sys.stderr)
        return 2
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_root)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"vcbench: build failed: {e}", file=sys.stderr)
        return 2

    results = os.path.join(build_root, "results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id(), "--out", out] + extra
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
