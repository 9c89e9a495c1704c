#!/usr/bin/env python3
"""Run one bench binary and check the BENCH_<bench>.json it writes.

usage: check_bench_json.py OUT_JSON RUNS BENCH_BINARY [key=value ...]

Runs BENCH_BINARY with the given overrides plus out=OUT_JSON, then loads
OUT_JSON and checks the schema every bench shares (bench::write_json in
bench/bench_common.hpp): schema_version 2, a host block with cpu, nproc, simd,
build_type and commit, and RUNS entries in `runs`, each with its metrics
snapshot. Exits nonzero on the first mismatch.
"""
import json
import subprocess
import sys

HOST_KEYS = {"cpu", "nproc", "simd", "build_type", "commit"}


def main(argv):
    if len(argv) < 4:
        sys.exit(__doc__)
    out_json, runs, binary, overrides = argv[1], int(argv[2]), argv[3], argv[4:]
    subprocess.run([binary, *overrides, "out=" + out_json], check=True,
                   stdout=subprocess.DEVNULL)
    with open(out_json, encoding="utf-8") as f:
        doc = json.load(f)
    errors = []
    if doc.get("schema_version") != 2:
        errors.append(f"schema_version {doc.get('schema_version')!r} != 2")
    missing = HOST_KEYS - set(doc.get("host", {}))
    if missing:
        errors.append(f"host block lacks {sorted(missing)}")
    got = doc.get("runs", [])
    if len(got) != runs:
        errors.append(f"{len(got)} runs, expected {runs}")
    if any("counters" not in run.get("metrics", {}) for run in got):
        errors.append("a run has no metrics snapshot")
    for e in errors:
        print(f"{out_json}: {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
