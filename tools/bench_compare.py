#!/usr/bin/env python3
"""Compare two pcn.bench_report.v1 files (BENCH_<name>.json).

Usage:
    tools/bench_compare.py BASELINE.json CURRENT.json [--threshold PCT]

Checks, in order:
  * schema and bench name match;
  * time-like values (keys containing "sec" or "wall", e.g. wall_seconds)
    may regress by at most --threshold percent (default 25, a deliberately
    wide noise band for shared CI machines); improvements of any size pass;
  * every other numeric or string value must match exactly — these are the
    deterministic analytic results (costs, thresholds, row counts) whose
    drift means behaviour changed, not the machine;
  * rows are matched by label; added or removed rows are drift.

Timing claims with a noise model of their own (overheads, speedups) are
not compared here: bench/perf_scale's paired-block probe gates them.

Exit status: 0 clean, 1 regression or drift, 2 usage/IO error.

The blessed baselines live in bench/baselines/; current reports are
written by the bench binaries to bench/out/ (or $PCN_BENCH_DIR).  See
docs/observability.md ("Comparing bench reports").
"""

import argparse
import json
import math
import os
import sys

SCHEMA = "pcn.bench_report.v1"


def missing_baseline(path, current):
    """Actionable exit for an absent baseline: say how to bless one."""
    print(f"bench_compare: baseline file not found: {path}", file=sys.stderr)
    print(
        "  No blessed baseline exists for this bench.  To bless the\n"
        "  current report as the new baseline, copy it into place and\n"
        "  commit it:\n"
        f"    cp {current} {path}\n"
        "  (Blessed baselines live in bench/baselines/; see\n"
        "  docs/observability.md, 'Comparing bench reports'.)",
        file=sys.stderr,
    )
    sys.exit(2)


def is_time_like(key):
    """Keys whose values are wall-clock measurements, not analytic results."""
    lower = key.lower()
    return "sec" in lower or "wall" in lower


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"bench_compare: cannot read {path}: {error}", file=sys.stderr)
        sys.exit(2)
    if doc.get("schema") != SCHEMA:
        print(f"bench_compare: {path}: schema is not {SCHEMA}", file=sys.stderr)
        sys.exit(2)
    return doc


def compare_values(context, baseline, current, threshold_pct, problems):
    for key, base_value in baseline.items():
        if key not in current:
            problems.append(f"{context}: key '{key}' disappeared")
            continue
        cur_value = current[key]
        if is_time_like(key):
            if not isinstance(base_value, (int, float)) or not isinstance(
                cur_value, (int, float)
            ):
                continue  # time-like but non-numeric: nothing to gate
            if base_value <= 0:
                continue  # no meaningful ratio
            regression_pct = (cur_value - base_value) / base_value * 100.0
            if regression_pct > threshold_pct:
                problems.append(
                    f"{context}: '{key}' regressed {regression_pct:.1f}% "
                    f"({base_value} -> {cur_value}, threshold "
                    f"{threshold_pct:.0f}%)"
                )
        else:
            same = (
                math.isclose(base_value, cur_value, rel_tol=0, abs_tol=0)
                if isinstance(base_value, float) and isinstance(cur_value, float)
                else base_value == cur_value
            )
            if not same:
                problems.append(
                    f"{context}: '{key}' drifted ({base_value} -> {cur_value})"
                )
    for key in current:
        if key not in baseline:
            problems.append(f"{context}: new key '{key}' (baseline is stale?)")


def main():
    parser = argparse.ArgumentParser(
        description="Diff two pcn.bench_report.v1 files."
    )
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--threshold",
        type=float,
        default=25.0,
        metavar="PCT",
        help="max allowed regression for time-like values (default 25%%)",
    )
    args = parser.parse_args()

    if not os.path.exists(args.baseline):
        missing_baseline(args.baseline, args.current)
    baseline = load(args.baseline)
    current = load(args.current)

    problems = []
    if baseline.get("name") != current.get("name"):
        problems.append(
            f"bench name mismatch: {baseline.get('name')} vs "
            f"{current.get('name')}"
        )

    compare_values(
        "summary",
        baseline.get("summary", {}),
        current.get("summary", {}),
        args.threshold,
        problems,
    )

    base_rows = {row["label"]: row.get("values", {}) for row in baseline.get("rows", [])}
    cur_rows = {row["label"]: row.get("values", {}) for row in current.get("rows", [])}
    for label, base_values in base_rows.items():
        if label not in cur_rows:
            problems.append(f"row '{label}' disappeared")
            continue
        compare_values(
            f"row '{label}'", base_values, cur_rows[label], args.threshold, problems
        )
    for label in cur_rows:
        if label not in base_rows:
            problems.append(f"new row '{label}' (baseline is stale?)")

    name = current.get("name", "?")
    if problems:
        print(f"bench_compare: {name}: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(
        f"bench_compare: {name}: OK "
        f"({len(base_rows)} rows, threshold {args.threshold:.0f}%)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
