#!/usr/bin/env python3
"""Fail unless an `exp_estimators` run reproduces every committed tail error
bit for bit.

The estimator race is deterministic (fixed seed, fixed poll stream), so any
change to an estimator's arithmetic moves at least one `tail_error`. This
check compares the runs of two `BENCH_estimators.json` files by name: both
must carry the same set of runs with a `tail_error`, and each value must have
the same IEEE-754 bits in both.

Usage: python3 scripts/check_estimator_bits.py COMMITTED.json CURRENT.json

Run the full binary (not `--smoke`) from a scratch directory, since it
writes `results/BENCH_estimators.json` under its working directory:

    dir=$(mktemp -d)
    (cd "$dir" && /path/to/target/release/exp_estimators > /dev/null)
    python3 scripts/check_estimator_bits.py \
        results/BENCH_estimators.json "$dir/results/BENCH_estimators.json"
"""

import json
import struct
import sys


def tail_errors(path):
    with open(path) as f:
        runs = json.load(f)["runs"]
    return {r["name"]: r["tail_error"] for r in runs if r.get("tail_error") is not None}


def bits(x):
    return struct.pack("<d", x)


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: check_estimator_bits.py COMMITTED.json CURRENT.json", file=sys.stderr)
        return 2
    committed, current = tail_errors(argv[1]), tail_errors(argv[2])
    failures = []
    if not committed:
        failures.append(f"{argv[1]} has no tail_error runs")
    for name in sorted(committed.keys() | current.keys()):
        want, got = committed.get(name), current.get(name)
        if want is None or got is None:
            failures.append(f"{name}: present in only one file (committed {want}, current {got})")
        elif bits(float(want)) != bits(float(got)):
            failures.append(f"{name}: tail_error {got!r} != committed {want!r}")
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    if failures:
        return 1
    print(f"all {len(committed)} tail errors match the committed file bit for bit")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
