#!/usr/bin/env python3
"""Repo benchmark for libpcn: builds the library and the benchmark binary
from source, runs one workload in its own process, checks its outputs and
prints every metric with its unit, then one JSON result as the last line.

    python3 perfbench/run.py --workload socket_paging --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run it from the repository root.  --trace 0 prints the end-to-end
metrics of an untraced run; --trace 1 prints the per-layer metrics of a
traced run, which records spans in alternate blocks and reports tracing's
own cost as trace_overhead_pct.  Workloads, metrics and the layer map are
described in perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(BUILD_DIR, "run")
BINARY = os.path.join(BUILD_DIR, "pcn_perfbench")

WORKLOADS = ("socket_paging", "daemon_overload", "sim_fleet")

# (name, unit) of every metric; BENCHMARK.json lists the same names.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("requests_per_s", "1/s"),
    ("terminal_slots_per_s", "1/s"),
    ("cpu_us_per_request", "us"),
    ("page_latency_p50_us", "us"),
    ("page_latency_p99_us", "us"),
    ("page_served_share", "share"),
    ("sla_met_share", "share"),
    ("page_delay_p99_slots", "slots"),
    ("mean_cost_per_slot", "cost"),
)
PER_LAYER = (
    ("proto.encode_ns_per_frame", "ns"),
    ("proto.decode_ns_per_frame", "ns"),
    ("socket_server.flush_us_per_slot", "us"),
    ("socket_server.frames_in", "count"),
    ("socket_server.frames_out", "count"),
    ("socket_server.decode_errors", "count"),
    ("socket_server.outbox_bytes_hwm", "bytes"),
    ("request_ring.rejected_share", "share"),
    ("daemon.run_slots_us_p50", "us"),
    ("daemon.run_slots_us_p99", "us"),
    ("daemon.phase.ingest_us_mean", "us"),
    ("daemon.phase.apply_us_mean", "us"),
    ("daemon.phase.drain_us_mean", "us"),
    ("daemon.phase.finalize_us_mean", "us"),
    ("load_gen.generate_us_per_slot", "us"),
    ("paging_queue.served", "count"),
    ("paging_queue.dropped", "count"),
    ("paging_queue.expired", "count"),
    ("paging_queue.evicted", "count"),
    ("paging_queue.max_depth", "count"),
    ("paging_queue.pending_mean", "count"),
    ("sim.add_terminal_ns", "ns"),
    ("sim.first_run_s", "s"),
    ("sim.run_ns_per_terminal_slot", "ns"),
    ("sim.bytes_per_terminal", "bytes"),
    ("client.send_lag_p50_us", "us"),
    ("client.send_lag_p99_us", "us"),
    ("client.outcomes_missing", "count"),
    ("trace_overhead_pct", "%"),
)

# Whole run, including set-up, must end well inside the 180 s limit.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    pass


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"library sources not found under {ROOT}/src")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(step)}")
    os.makedirs(WORK_DIR, exist_ok=True)


def run_workload(workload, seed, seconds, trace, tiny, timeout_s):
    """Runs the benchmark binary once; returns its parsed JSON result."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", repr(float(seconds)), "--trace", str(int(trace)),
               "--work-dir", WORK_DIR]
    if tiny:
        command.append("--tiny")
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True,
                                timeout=max(1.0, timeout_s))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish in {timeout_s:.0f} s")
    lines = result.stdout.rstrip("\n").split("\n")
    if result.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise BenchError(f"{workload} failed (exit {result.returncode})")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def select(run, table, fill_absent):
    """The metrics of `table` from a benchmark binary result, units checked."""
    metrics = {}
    for name, unit in table:
        got = run["metrics"].get(name)
        if got is None:
            if not fill_absent:
                raise BenchError(f"{run['workload']} did not report {name}")
            # A per-layer metric of a layer this workload bypasses.
            metrics[name] = {"value": 0, "unit": unit}
            continue
        if got["unit"] != unit:
            raise BenchError(f"{name}: unit {got['unit']}, expected {unit}")
        metrics[name] = {"value": got["value"], "unit": unit}
    return metrics


def measure(workload, seed, seconds, trace, tiny=False):
    """One benchmark run as the result object the command prints."""
    run = run_workload(workload, seed, seconds, trace, tiny, RUN_BUDGET_S)
    if trace:
        metrics = select(run, PER_LAYER, fill_absent=True)
    else:
        metrics = select(run, END_TO_END, fill_absent=False)
    return {
        "correct": bool(run["correct"]),
        "attempted": int(run["attempted"]),
        "failed": int(run["failed"]),
        "metrics": metrics,
    }, set(run["metrics"])


def self_test():
    """Runs every workload at tiny scale, traced and untraced, and checks
    that every named metric is emitted with its unit and that the
    correctness checks ran and passed."""
    bench_file = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(bench_file):
        with open(bench_file) as f:
            bench = json.load(f)
        for key, table in (("end_to_end", END_TO_END),
                           ("per_layer", PER_LAYER)):
            listed = [(m["name"], m["unit"]) for m in bench[key]]
            if listed != list(table):
                raise BenchError(f"BENCHMARK.json {key} differs from run.py")
        if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
            raise BenchError("BENCHMARK.json workloads differ from run.py")
    measured = set()
    for workload in WORKLOADS:
        for trace, table in ((False, END_TO_END), (True, PER_LAYER)):
            result, emitted = measure(workload, 7, 1.0, trace, tiny=True)
            measured |= emitted
            names = [name for name, _ in table]
            if list(result["metrics"]) != names:
                raise BenchError(f"{workload}: metric set differs")
            for name, unit in table:
                value = result["metrics"][name]
                if value["unit"] != unit or not isinstance(
                        value["value"], (int, float)):
                    raise BenchError(f"{workload}: bad metric {name}")
            if not result["correct"] or result["attempted"] < 1:
                raise BenchError(f"{workload}: correctness checks failed")
            log(f"self-test {workload} trace={int(trace)} ok")
    unmeasured = [name for name, _ in PER_LAYER if name not in measured]
    if unmeasured:
        raise BenchError(f"no workload measures {', '.join(unmeasured)}")
    log("self-test ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    try:
        build()
        if args.self_test:
            self_test()
            return 0
        result, _ = measure(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except BenchError as error:
        log(f"error: {error}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
