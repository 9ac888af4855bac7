#!/usr/bin/env python3
"""Throughput- and work-regression guard for BENCH_*.json telemetry.

Compares a fresh benchmark run against committed baseline telemetry
(e.g. results/BENCH_scale.json for exp_scale, BENCH_estimators.json
for exp_estimators) and fails when any run shared by both files got
more than REGRESSION_TOLERANCE slower, or took more solver iterations.
Wall-clock noise on shared CI runners is real, so the guard compares
only runs present in both files (the committed baseline may be the full
grid; the smoke grid is a subset) and a generous default tolerance is
used. Iteration counts are deterministic, so they get no tolerance:
that check also guards runs too fast to time.

Usage: check_scale_regression.py BASELINE.json FRESH.json [tolerance]

Exit status: 0 when no run regressed, 1 otherwise.
"""

import json
import sys

# Runs faster than this are timer-noise-dominated (the smoke grid's
# repair/dispatch rows finish in ~1 ms); a 1.2x swing on them says
# nothing about throughput, so they are reported but never fail the
# guard.
MIN_COMPARABLE_WALL = 0.005


def load_runs(path):
    with open(path) as fh:
        report = json.load(fh)
    return {
        run["name"]: run
        for run in report.get("runs", [])
        if isinstance(run.get("wall_seconds"), (int, float))
    }


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    tolerance = float(argv[3]) if len(argv) > 3 else 1.20
    baseline = load_runs(argv[1])
    fresh = load_runs(argv[2])
    shared = sorted(set(baseline) & set(fresh))
    if not shared:
        print("no shared runs between baseline and fresh report", file=sys.stderr)
        return 1

    regressions = []
    for name in shared:
        base_wall = baseline[name]["wall_seconds"]
        fresh_wall = fresh[name]["wall_seconds"]
        if base_wall <= 0:
            continue
        ratio = fresh_wall / base_wall
        noise = max(base_wall, fresh_wall) < MIN_COMPARABLE_WALL
        if ratio > tolerance:
            status = "noise (too fast to compare)" if noise else "REGRESSED"
        else:
            status = "ok"
        print(f"{name}: baseline {base_wall:.6f}s fresh {fresh_wall:.6f}s ({ratio:.2f}x) {status}")
        if ratio > tolerance and not noise:
            regressions.append((name, ratio))

    more_work = []
    for name in shared:
        base_iters = baseline[name].get("solver_iterations")
        fresh_iters = fresh[name].get("solver_iterations")
        if not (isinstance(base_iters, int) and isinstance(fresh_iters, int)):
            continue
        status = "MORE WORK" if fresh_iters > base_iters else "ok"
        print(f"{name}: baseline {base_iters} solver iterations, fresh {fresh_iters} {status}")
        if fresh_iters > base_iters:
            more_work.append(name)

    if more_work:
        print(
            f"{len(more_work)} run(s) took more solver iterations than the baseline: "
            + ", ".join(more_work),
            file=sys.stderr,
        )
    if regressions:
        worst = max(regressions, key=lambda r: r[1])
        print(
            f"{len(regressions)} run(s) regressed beyond {tolerance:.2f}x; "
            f"worst: {worst[0]} at {worst[1]:.2f}x",
            file=sys.stderr,
        )
    if regressions or more_work:
        return 1
    print(
        f"all {len(shared)} shared runs within {tolerance:.2f}x of baseline, "
        "with no more solver iterations"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
