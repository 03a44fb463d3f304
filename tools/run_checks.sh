#!/usr/bin/env bash
# One-command verification gate (see docs/testing.md):
#   1. default build  — tier-1 (deterministic) then tier-2 (randomized
#      property + statistical suites),
#   2. TSan build     — the sharded-simulator determinism suite, the
#      lock-free metrics-registry concurrency suite, the
#      admin-introspection snapshot-under-fire suite (scrapes racing the
#      4-thread slot loop), the ShardPool fork-join suite (with the
#      thread-reuse pins of Network and pcnd), the socket front end's
#      suite (its I/O thread against the slot loop, hostile clients), and
#      pcnd's slot-loop determinism tests (bit-identical counters and
#      outcome streams across thread counts, at non-power-of-two shard
#      shapes too, counters that match the outcome stream at every slot
#      boundary, a failed phase): the closed-loop generator's in-flight
#      state is written by DRAIN workers' on_outcome and read by APPLY
#      workers in the next slot, and each shard's counter tally is
#      published by whichever worker ran the shard; plus the trajectory
#      round-trip property suite (PropReplay, 8 scenarios), the one suite
#      that runs a mobility model other than RandomWalk
#      (trace::ScriptedMobility) on the 4-worker shard pool,
#   3. ASan+UBSan     — the wire codec, message framing and fuzz
#      round-trip suites (truncation/corruption paths must not overread),
#      the terminal-DB hostile-id and property suites (ids near 2^64,
#      2^32 strides, one shard residue must stay in bounds), and the
#      paging-queue unit, property and hostile-cell suites (the entry
#      slab's index and free-list arithmetic, the cell index's probing),
#      and the socket front end's suite (split, oversized and truncated
#      frames through the connection input buffers),
#   4. overhead probe — bench/perf_scale's paired-block estimator (median
#      over alternating same-work block pairs, in process CPU time) must
#      hold every timing claim: simulator telemetry and flight recorder
#      <= 3%, pcnd live stats + bound AdminServer and timeseries capture
#      <= 2%, and auto_speedup_4t >= 1.73 (the lane engine kAuto picks
#      against the reference engine on the canonical fleet, 4 threads);
#      it runs once and exits nonzero when a median breaks its bound,
#   5. trace SLA gate  — a canned delay-bounded scenario is simulated with
#      --trace-out and `pcnctl trace-summary` must find zero calls paged in
#      more than m cycles (it exits 1 on any violation); when python3 is
#      available, a fresh BENCH_table1_one_dim.json is also diffed against
#      the blessed baseline with tools/bench_compare.py,
#   6. engine identity gate — the same canned scenario simulated under
#      --engine reference and --engine simd, at 1 and 2 threads, must
#      print byte-identical reports (both engines follow one draw
#      contract; any drift fails the diff),
#   7. SIMD gate — the SIMD-vs-reference bit-identity property suite
#      (tier 2), the perf_micro per-slot-cost bench in smoke mode, the
#      pcnctl engine paths with every kernel disabled (PCN_SIMD_ISA=none):
#      --engine auto must fall back to the reference engine's report,
#      forced --engine simd must error, and the pcnd closed-loop pins
#      (digests, outcome streams, DaemonSoak rows) re-run on the
#      generator's portable walk (PCN_SIMD_ISA=portable and none),
#   8. portable-fallback build — the AVX2 kernel configured OFF
#      (-DPCN_SIMD_AVX2=OFF) must compile and pass tier-1, proving the
#      scalar-emulation kernel carries the engine on non-AVX2 hardware,
#   9. pcnd daemon gate — the bounded-paging-queue and terminal-DB
#      property suites and the DaemonSoak tests: the 2x-overload soak
#      (1 vs 4 threads, bit-identical counters) at smoke scale and the
#      pinned capacity ladder (knee, admission-policy and static-vs-
#      feedback rows, exact), plus a pcnd CLI overload run that must emit
#      a daemon run report,
#  10. live introspection gate — a pcnd overload run with --admin-socket
#      is scraped mid-flight by `pcnctl top --once --json` (must exit 0
#      and print a pcn.live_snapshot.v1 document), and scraped again 2 s
#      later: the admin server samples its metric history on its own
#      thread, so the second scrape's 10s window must cover a non-zero
#      span_ns,
#  11. run-timeline gate — the 2x-overload scenario runs with
#      --series-out, `pcnctl timeline --reencode` must round-trip the
#      pcn.timeseries.v1 file byte-exactly (cmp), and its CUSUM
#      changepoint verdict must place overload_onset_slot inside the
#      blessed band,
#  12. admission-policy gate — the 2x-overload pcnd scenario runs once
#      per admission policy (drop_newest, drop_oldest,
#      priority_delay_bound) at 1 and 4 threads; every deterministic
#      report line (pages, admission, drop rate, delay, sla) must be
#      byte-identical across thread counts, the failure mass must sit on
#      the policy's own counter (tail drops vs evictions), and each
#      policy's drop rate must land in the blessed overload band,
#  13. warning-clean build — every target built with -DPCN_WERROR=ON at
#      the default build type (RelWithDebInfo) in build-werror/.
#
# Environment:
#   JOBS=N   parallelism for builds and ctest (default: nproc)
#
# Gate 7 runs perf_micro at smoke scale via PCN_MICRO_TERMINALS /
# PCN_MICRO_SLOTS.  Absolute throughput is not gated here: perfbench/
# (see perfbench/README.md) measures it end to end with recorded spreads.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=${JOBS:-$(nproc)}

echo "== [1/13] default build: tier-1 + tier-2 =="
cmake --preset default
cmake --build --preset default -j "$jobs"
ctest --preset tier1 -j "$jobs"
ctest --preset tier2 -j "$jobs"

echo "== [2/13] TSan: sharded-run determinism + metrics registry =="
cmake --preset tsan
cmake --build --preset tsan -j "$jobs" \
  --target test_network_parallel test_metrics_registry \
  test_admin_introspection test_shard_pool test_daemon_socket test_daemon \
  test_prop_replay
# The admin-introspection suite reuses the soak scale knobs; TSan's
# slowdown wants the smoke scenario.
tsan_tests='NetworkParallel|MetricsRegistry|AdminIntrospection|ShardPool'
tsan_tests+='|ThreadReuse|SocketServer'
tsan_tests+='|Pcnd\.(BitIdenticalResultsAcrossThreadCounts'
tsan_tests+='|OutcomeStreamIsIdenticalAcrossThreadCounts'
tsan_tests+='|NonPowerOfTwoShapesAreIdenticalAcrossThreadCounts'
tsan_tests+='|PageCountersMatchTheOutcomeStreamEverySlot'
tsan_tests+='|FailedPhaseRethrowsAndDoesNotAdvanceTheSlot)'
PCN_SOAK_TERMINALS=2000 PCN_SOAK_SLOTS=160 \
  ctest --test-dir build-tsan -R "$tsan_tests" --output-on-failure -j "$jobs"
PCN_PROPERTY_SCENARIOS=8 \
  ctest --test-dir build-tsan -R 'PropReplay' --output-on-failure -j "$jobs"

echo "== [3/13] ASan+UBSan: wire codec round-trips + terminal DB + queues =="
cmake --preset asan
cmake --build --preset asan -j "$jobs" \
  --target test_wire test_messages test_wire_fuzz test_daemon \
  test_prop_terminal_table test_paging_queue test_prop_paging_queue \
  test_daemon_socket
asan_tests='Wire|Messages|PropWireFuzz|Pcnd\.TerminalDb|PropTerminalTable'
asan_tests+='|Pcnd\.QueuesServeHostileCells|BoundedPagingQueue|PropPagingQueue'
asan_tests+='|SocketServer'
ctest --test-dir build-asan -R "$asan_tests" --output-on-failure -j "$jobs"

echo "== [4/13] overhead probe: paired-block medians within bounds =="
cmake --build --preset default -j "$jobs" --target perf_scale
# Skip the google-benchmark sweep; the probe in main() still runs and
# exits nonzero when a claim's median breaks its bound.
probe_dir=$(mktemp -d)
PCN_BENCH_DIR="$probe_dir" ./build/bench/perf_scale --benchmark_filter='^$'
rm -rf "$probe_dir"

echo "== [5/13] trace SLA gate + bench baseline diff =="
cmake --build --preset default -j "$jobs" --target pcnctl table1_one_dim
# A canned delay-bounded scenario: every call must be answered within the
# delay bound m; trace-summary exits 1 on any SLA violation.
trace_dir=$(mktemp -d)
./build/tools/pcnctl simulate --dim 2 --policy distance --delay 3 \
  --slots 100000 --seed 7 --trace-out "$trace_dir/trace.jsonl" > /dev/null
./build/tools/pcnctl trace-summary "$trace_dir/trace.jsonl" \
  | sed -n '/delay SLA/,$p'
rm -rf "$trace_dir"
if command -v python3 > /dev/null; then
  bench_dir=$(mktemp -d)
  PCN_BENCH_DIR="$bench_dir" ./build/bench/table1_one_dim > /dev/null
  python3 tools/bench_compare.py \
    bench/baselines/BENCH_table1_one_dim.json \
    "$bench_dir/BENCH_table1_one_dim.json"
  rm -rf "$bench_dir"
else
  echo "bench_compare: skipped (python3 not found)"
fi

echo "== [6/13] engine identity gate (reference vs simd, exact diff) =="
engine_dir=$(mktemp -d)
for threads in 1 2; do
  for engine in reference simd; do
    ./build/tools/pcnctl simulate --dim 2 --policy distance --delay 3 \
      --slots 200000 --seed 11 --threads "$threads" --engine "$engine" \
      > "$engine_dir/$engine.t$threads.txt"
  done
  if diff "$engine_dir/reference.t$threads.txt" \
      "$engine_dir/simd.t$threads.txt"; then
    echo "engine gate ok: reports byte-identical at $threads thread(s)"
  else
    echo "engine gate FAILED: reference and simd reports differ" \
      "at $threads thread(s)"
    rm -rf "$engine_dir"
    exit 1
  fi
done
rm -rf "$engine_dir"

echo "== [7/13] SIMD gate: bit-identity suite + perf_micro smoke =="
cmake --build --preset default -j "$jobs" \
  --target test_prop_simd_vs_reference test_prop_simd_statistical \
  test_counter_rng test_daemon test_daemon_soak perf_micro pcnctl
# The tier-2 identity suite diffs SIMD metrics against the reference
# engine, bit for bit, at 1 and 4 threads over random scenarios; the
# statistical suite checks the SIMD engine against the cost model.
ctest --preset tier2 -R 'PropSimd(VsReference|Statistical)' \
  --output-on-failure \
  -j "$jobs"
# Per-slot-cost microbench in smoke mode: tiny fleet, but the serialized
# TSC section and the PCN_BENCH line must still be produced.
micro_dir=$(mktemp -d)
micro_line=$(PCN_BENCH_DIR="$micro_dir" \
  PCN_MICRO_TERMINALS=1024 PCN_MICRO_SLOTS=512 \
  ./build/bench/perf_micro --benchmark_filter='^$' | grep '^PCN_BENCH ')
rm -rf "$micro_dir"
echo "$micro_line"
# CLI wiring: --engine simd always has a kernel (the portable fallback),
# so the forced run must succeed.  With every kernel disabled via
# PCN_SIMD_ISA=none, --engine auto must fall back to the reference engine
# (same report) and forced --engine simd must fail with a UsageError.
simd_dir=$(mktemp -d)
./build/tools/pcnctl simulate --dim 2 --policy distance --delay 3 \
  --slots 20000 --seed 7 --engine simd > "$simd_dir/simd.txt"
echo "simd CLI gate ok: --engine simd ran"
PCN_SIMD_ISA=none ./build/tools/pcnctl simulate --dim 2 \
  --policy distance --delay 3 --slots 20000 --seed 7 --engine auto \
  > "$simd_dir/auto_none.txt"
if ! cmp -s "$simd_dir/simd.txt" "$simd_dir/auto_none.txt"; then
  echo "simd CLI gate FAILED: auto without kernels differs from simd"
  rm -rf "$simd_dir"
  exit 1
fi
rm -rf "$simd_dir"
echo "simd CLI gate ok: auto without kernels falls back, same report"
if PCN_SIMD_ISA=none ./build/tools/pcnctl simulate --dim 2 \
    --policy distance --delay 3 --slots 20000 --seed 7 --engine simd \
    > /dev/null 2>&1; then
  echo "simd CLI gate FAILED: forced simd with no kernels should error"
  exit 1
else
  echo "simd CLI gate ok: forced simd without kernels errors"
fi

# The load generator's walk follows PCN_SIMD_ISA too: its pins must hold
# with the portable walk forced and with every kernel disabled.
ctest --test-dir build -R '^daemon_(soak_)?walk_pins_' --output-on-failure \
  -j "$jobs"

echo "== [8/13] portable-fallback build (-DPCN_SIMD_AVX2=OFF): tier-1 =="
cmake -S . -B build-portable -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPCN_SIMD_AVX2=OFF
cmake --build build-portable -j "$jobs"
ctest --test-dir build-portable -LE tier2 --output-on-failure -j "$jobs"

echo "== [9/13] pcnd daemon gate: property + soak + capacity ladder =="
cmake --build --preset default -j "$jobs" \
  --target pcnd test_prop_paging_queue test_prop_terminal_table \
  test_daemon_soak
# The property suites and the DaemonSoak tests.  The 2x-overload soak runs
# at smoke scale (it reads PCN_SOAK_TERMINALS / PCN_SOAK_SLOTS and runs
# the same scenario at 1 and 4 threads, diffing every counter, the delay
# histogram and the flight trace); the capacity-ladder tests have a fixed
# scale and pin every row exactly.
PCN_SOAK_TERMINALS=2000 PCN_SOAK_SLOTS=160 \
  ctest --preset tier2 -R 'PropPagingQueue|PropTerminalTable|DaemonSoak' \
  --output-on-failure -j "$jobs"
# CLI smoke: a closed-loop 2x-overload run must produce a daemon report.
if ./build/tools/pcnd run --terminals 20000 --slots 128 --region 16 \
    --offered 2.0 --threads 2 --metrics-out - \
    | grep -q '"schema":"pcn.run_report.v1","kind":"daemon"'; then
  echo "pcnd gate ok: daemon run report emitted"
else
  echo "pcnd gate FAILED: no daemon run report on stdout"
  exit 1
fi

echo "== [10/13] live introspection gate: admin scrape + pcnctl top =="
cmake --build --preset default -j "$jobs" --target pcnd pcnctl
# A 2x-overload run serving live scrapes on --admin-socket; pcnctl top
# must get a pcn.live_snapshot.v1 document out of it mid-flight.  The
# run is sized well past both scrapes so the daemon is still hot, then
# killed once the scrapes have what they need.
admin_dir=$(mktemp -d)
admin_sock="$admin_dir/admin.sock"
./build/tools/pcnd run --terminals 20000 --slots 200000 --region 16 \
  --offered 2.0 --threads 2 --admin-socket "$admin_sock" > /dev/null &
pcnd_pid=$!
top_json=""
for _ in $(seq 1 100); do
  if top_json=$(./build/tools/pcnctl top --admin-socket "$admin_sock" \
      --once --json 2>/dev/null); then
    break
  fi
  if ! kill -0 "$pcnd_pid" 2>/dev/null; then break; fi
  sleep 0.1
done
# The windows fill between scrapes: 2 s after the first scrape, the 10s
# window must span at least two history samples.
later_json=""
if [ -n "$top_json" ]; then
  sleep 2
  later_json=$(./build/tools/pcnctl top --admin-socket "$admin_sock" \
    --once --json 2>/dev/null) || later_json=""
fi
kill "$pcnd_pid" 2>/dev/null || true
wait "$pcnd_pid" 2>/dev/null || true
rm -rf "$admin_dir"
if echo "$top_json" | grep -q '"schema":"pcn.live_snapshot.v1"'; then
  echo "introspection gate ok: pcnctl top scraped a live snapshot"
else
  echo "introspection gate FAILED: no live snapshot from pcnctl top"
  exit 1
fi
span_10s=$(echo "$later_json" | \
  sed -n 's/.*"10s":{"span_ns":\([0-9]*\).*/\1/p')
if [ -n "$span_10s" ] && [ "$span_10s" -gt 0 ]; then
  echo "introspection gate ok: 10s window spans ${span_10s} ns after 2 s"
else
  echo "introspection gate FAILED: 10s window span_ns=${span_10s:-none} 2 s after the first scrape"
  exit 1
fi

echo "== [11/13] run-timeline gate: capture + codec + changepoint =="
cmake --build --preset default -j "$jobs" --target pcnd pcnctl
# The 2x-overload soak scenario (small queues, 16 channels short) with a
# timeline sampled every 4 slots.  Everything below is deterministic:
# the capture is slot-indexed and thread-invariant, so the onset verdict
# is a function of (seed, scale, config) alone.
series_dir=$(mktemp -d)
./build/tools/pcnd run --terminals 8000 --slots 400 --region 16 \
  --offered 2.0 --channels 1 --queue-max 8 --lifetime 16 --groups 4 \
  --sla 8 --seed 2026 --q 0.2 --d 3 --threads 2 \
  --series-out "$series_dir/run.series" --series-every 4 > /dev/null
# Codec round-trip: decode + re-encode must reproduce the file
# byte-exactly (delta columns, dictionary and CRC all stable).
timeline_out=$(./build/tools/pcnctl timeline "$series_dir/run.series" \
  --reencode "$series_dir/run.reencoded.series")
if cmp -s "$series_dir/run.series" "$series_dir/run.reencoded.series"; then
  echo "timeline gate ok: pcn.timeseries.v1 re-encode is byte-exact"
else
  echo "timeline gate FAILED: re-encoded timeline differs from original"
  rm -rf "$series_dir"
  exit 1
fi
rm -rf "$series_dir"
echo "$timeline_out" | grep '^PCN_TIMELINE '
# CUSUM verdict: the overload onset must land inside the blessed band.
# The exact slot (104 as of blessing) is deterministic; the band leaves
# room for legitimate queue-policy tuning without letting the detector
# miss the onset entirely or fire inside the warm-up baseline.
onset=$(echo "$timeline_out" | sed -n \
  's/^PCN_TIMELINE .*overload_onset_slot=\(-\{0,1\}[0-9]*\).*/\1/p')
if [ -z "$onset" ] || [ "$onset" -lt 8 ] || [ "$onset" -gt 200 ]; then
  echo "timeline gate FAILED: overload_onset_slot=${onset:-none} outside blessed band [8, 200]"
  exit 1
fi
echo "timeline gate ok: overload onset at slot $onset (band [8, 200])"

echo "== [12/13] admission-policy gate: per-policy determinism + bands =="
cmake --build --preset default -j "$jobs" --target pcnd
# The same 2x-overload scenario under each admission policy, at 1 and 4
# worker threads.  The textual report is deterministic except the wall
# line and the thread count echoed in the header, so stripping those two
# must leave byte-identical output — the cheap end-to-end restatement of
# the bit-identity contract, now covering the eviction paths and the
# victim-choice ordering.
admission_dir=$(mktemp -d)
for policy in drop_newest drop_oldest priority_delay_bound; do
  for threads in 1 4; do
    ./build/tools/pcnd run --terminals 20000 --slots 128 --region 16 \
      --offered 2.0 --threads "$threads" --queue-max 8 --lifetime 16 \
      --groups 4 --sla 8 --admission "$policy" \
      | grep -v '^wall' | sed 's/[0-9]* threads/N threads/' \
      > "$admission_dir/$policy.t$threads.txt"
  done
  if ! cmp -s "$admission_dir/$policy.t1.txt" "$admission_dir/$policy.t4.txt"; then
    echo "admission gate FAILED: $policy report differs at 1 vs 4 threads"
    diff "$admission_dir/$policy.t1.txt" "$admission_dir/$policy.t4.txt" || true
    rm -rf "$admission_dir"
    exit 1
  fi
  # Failure-mass placement and the blessed drop-rate band: drop_newest
  # fails pages as tail drops only; the eviction policies as evictions
  # only.  All three sit near 0.45 at this scale — the band leaves room
  # for queue-tuning drift without letting a policy stop biting.
  summary=$(grep '^pages' "$admission_dir/$policy.t1.txt")
  dropped=$(echo "$summary" | sed 's/.* \([0-9]*\) dropped.*/\1/')
  evicted=$(echo "$summary" | sed 's/.* \([0-9]*\) evicted.*/\1/')
  rate=$(grep '^drop rate' "$admission_dir/$policy.t1.txt" \
    | sed 's/drop rate: \([0-9.]*\).*/\1/')
  if [ "$policy" = drop_newest ]; then
    bad=$([ "$evicted" -eq 0 ] && [ "$dropped" -gt 0 ] || echo 1)
  else
    bad=$([ "$dropped" -eq 0 ] && [ "$evicted" -gt 0 ] || echo 1)
  fi
  if [ -n "$bad" ]; then
    echo "admission gate FAILED: $policy failure mass misplaced ($summary)"
    rm -rf "$admission_dir"
    exit 1
  fi
  if ! awk -v r="$rate" 'BEGIN { exit !(r >= 0.20 && r <= 0.60) }'; then
    echo "admission gate FAILED: $policy drop rate $rate outside [0.20, 0.60]"
    rm -rf "$admission_dir"
    exit 1
  fi
  echo "admission gate ok: $policy deterministic at 1 vs 4 threads, drop rate $rate"
done
rm -rf "$admission_dir"

echo "== [13/13] warning-clean build: -DPCN_WERROR=ON, every target =="
cmake -S . -B build-werror -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPCN_WERROR=ON
cmake --build build-werror -j "$jobs"

echo "run_checks: all gates passed."
