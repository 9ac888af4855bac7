#!/usr/bin/env python3
"""Merge several runs of one benchmark into a per-cell median baseline.

A cell timed once per run on a shared host can catch a lull or a burst
of load that lasts minutes, longer than any in-process repeat. Given N
BENCH_*.json reports of the same experiment (say, N full exp_scale runs
a few minutes apart), this writes one report in which every run is the
record whose wall_seconds is the median of that run's N samples, taken
whole so that its other fields stay consistent with its wall time. With
an even N the upper median is taken. Top-level fields and meta come
from the first report, plus meta "baseline_reports" = N.

Usage: median_bench_runs.py OUT.json RUN1.json RUN2.json [RUN3.json ...]
"""

import json
import sys


def main(argv):
    if len(argv) < 4:
        print(__doc__, file=sys.stderr)
        return 2
    out_path, paths = argv[1], argv[2:]
    reports = []
    for path in paths:
        with open(path) as fh:
            reports.append(json.load(fh))
    first = reports[0]
    for path, report in zip(paths, reports):
        if report.get("experiment") != first.get("experiment"):
            print(f"{path}: experiment differs from {paths[0]}", file=sys.stderr)
            return 1

    merged_runs = []
    for run in first["runs"]:
        name = run["name"]
        samples = [
            r
            for report in reports
            for r in report["runs"]
            if r["name"] == name and isinstance(r.get("wall_seconds"), (int, float))
        ]
        if len(samples) != len(reports):
            print(f"{name}: present in {len(samples)} of {len(reports)} reports", file=sys.stderr)
            return 1
        samples.sort(key=lambda r: r["wall_seconds"])
        merged_runs.append(samples[len(samples) // 2])

    merged = dict(first)
    merged["meta"] = dict(first.get("meta", {}), baseline_reports=str(len(reports)))
    merged["runs"] = merged_runs
    with open(out_path, "w") as fh:
        json.dump(merged, fh, indent=2, ensure_ascii=False)
        fh.write("\n")
    print(f"{out_path}: {len(merged_runs)} runs, each the median of {len(reports)} reports")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
