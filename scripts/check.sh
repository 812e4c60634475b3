#!/usr/bin/env bash
# Full verification: tier-1 build+tests, an ASan/UBSan pass over everything,
# a ThreadSanitizer pass over the multi-threaded fuzzing paths, a relocate
# stage (the golden fingerprint from a copy of the sources at another path), a
# telemetry stage (smoke-test the observability surfaces + hot-path
# overhead guard against a -DHEALER_NO_TELEMETRY baseline build), and a
# parallel stage (scaling-bench smoke + critical-section-share guard), a
# fleet stage (reactor-fleet scaling: OS-thread ceiling + wall-clock budget
# + storm determinism tests), a
# relation stage (snapshot-Select speedup guard + draw-determinism tests),
# an exec stage (ring-transport replay bench + speedup guard), an
# introspect stage (live HTTP endpoints, journal export, postmortem-bundle
# determinism), a hotpath stage (arena allocation-reduction guard +
# two-level bitmap merge floor + arena/heap timing guards + equivalence
# tests), a distributed stage (sharded-gossip scaling bench +
# byte-identical-reconciliation guard), and a benchdiff stage (fresh bench
# metrics vs the committed BENCH_*.json baselines).
#
#   scripts/check.sh              # all stages
#   scripts/check.sh tier1        # just the tier-1 verify
#   scripts/check.sh asan         # just the ASan/UBSan stage
#   scripts/check.sh tsan         # just the TSan stage
#   scripts/check.sh relocate     # just the second-path golden fingerprint
#   scripts/check.sh telemetry    # just the telemetry smoke + overhead guard
#   scripts/check.sh parallel     # just the parallel scaling-bench guard
#   scripts/check.sh fleet        # just the reactor-fleet scaling guards
#   scripts/check.sh relation     # just the relation-engine guards
#   scripts/check.sh exec         # just the ring-transport replay guard
#   scripts/check.sh introspect   # just the introspection-plane smoke
#   scripts/check.sh hotpath      # just the hot-path memory guards
#   scripts/check.sh distributed  # just the sharded-campaign guards
#   scripts/check.sh benchdiff    # just the baseline-drift diff

set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
stage="${1:-all}"

run_tier1() {
  echo "==> tier-1: build + ctest"
  cmake -B build -S . >/dev/null
  cmake --build build -j"$jobs"
  ctest --test-dir build --output-on-failure -j"$jobs"
}

run_asan() {
  echo "==> ASan/UBSan: build + ctest"
  cmake -B build-asan -S . -DHEALER_SANITIZE=ON >/dev/null
  cmake --build build-asan -j"$jobs"
  ctest --test-dir build-asan --output-on-failure -j"$jobs"
}

run_tsan() {
  echo "==> TSan: build + parallel-fuzz tests"
  cmake -B build-tsan -S . -DHEALER_SANITIZE_THREAD=ON >/dev/null
  cmake --build build-tsan -j"$jobs" --target healer_tests
  ctest --test-dir build-tsan --output-on-failure -R parallel_fuzz_tsan
}

run_relocate() {
  echo "==> relocate: golden fingerprint from a copy at a second path"
  local tmp
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' RETURN
  # Coverage ids hash __FILE__, which the build maps relative to the source
  # root. A copy of the sources at a path no build has used must therefore
  # run the same campaigns: the golden fingerprint must hold there too.
  mkdir -p "$tmp/src-copy"
  tar -cf - --exclude='./build' --exclude='./build-*' \
    --exclude='./.bench_build' --exclude='./.git' . |
    tar -xf - -C "$tmp/src-copy"
  cmake -B "$tmp/build" -S "$tmp/src-copy" >/dev/null
  cmake --build "$tmp/build" -j"$jobs" --target healer_tests
  "$tmp/build/tests/healer_tests" \
    --gtest_filter='CampaignTest.GoldenFingerprint*'
}

run_telemetry() {
  echo "==> telemetry: smoke-test metrics/trace/status surfaces"
  cmake -B build -S . >/dev/null
  cmake --build build -j"$jobs" --target healer_cli bench_micro
  local tmp
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' RETURN

  ./build/tools/healer fuzz --hours 0.5 --seed 3 --fault-rate 0.005 \
    --status-period 300 \
    --metrics-out "$tmp/metrics.prom" --trace-out "$tmp/trace.json" \
    > "$tmp/report.txt" 2> "$tmp/status.txt"

  # Live status: at least one line per simulated 5 minutes reached the sink.
  grep -q "execs" "$tmp/status.txt" || {
    echo "FAIL: no status lines on stderr" >&2; exit 1; }
  # Prometheus dump: parseable "# TYPE" lines and name/value samples.
  grep -q "^# TYPE healer_fuzz_execs_total counter$" "$tmp/metrics.prom" || {
    echo "FAIL: metrics dump missing TYPE line" >&2; exit 1; }
  awk '!/^#/ && NF { if ($0 !~ /^[a-z_]+(\{[^}]*\})? -?[0-9.e+-]+$/) \
      { print "bad sample: " $0; exit 1 } }' "$tmp/metrics.prom" || {
    echo "FAIL: malformed Prometheus sample" >&2; exit 1; }
  # Chrome trace: valid JSON (python3 when available) with trace events.
  if command -v python3 >/dev/null; then
    python3 -m json.tool "$tmp/trace.json" >/dev/null || {
      echo "FAIL: trace is not valid JSON" >&2; exit 1; }
  fi
  grep -q '"traceEvents"' "$tmp/trace.json" || {
    echo "FAIL: trace missing traceEvents" >&2; exit 1; }
  grep -q '"name": "exec"' "$tmp/trace.json" || {
    echo "FAIL: trace has no exec spans" >&2; exit 1; }
  echo "    smoke OK: status lines, Prometheus dump, Chrome trace"

  echo "==> telemetry: hot-path overhead guard (< 3% vs HEALER_NO_TELEMETRY)"
  cmake -B build-notel -S . -DHEALER_NO_TELEMETRY=ON >/dev/null
  cmake --build build-notel -j"$jobs" --target bench_micro
  local bench_args="--benchmark_filter=BM_FuzzerSteps \
    --benchmark_repetitions=3 --benchmark_format=csv"
  # Interleave instrumented / compiled-out runs so slow machine-load drift
  # hits both sides, then compare the global min real_time per binary. Six
  # rounds of three repetitions each: the min estimator only converges from
  # above (noise is strictly additive), so more interleaved samples tighten
  # both sides without biasing the ratio. The awk match is anchored on the
  # exact row name: "BM_FuzzerSteps_mean" / "_stddev" aggregate rows must
  # not leak into the minimum.
  : > "$tmp/with.csv"
  : > "$tmp/without.csv"
  local round
  for round in 1 2 3 4 5 6; do
    # shellcheck disable=SC2086
    ./build/bench/bench_micro $bench_args 2>/dev/null >> "$tmp/with.csv"
    # shellcheck disable=SC2086
    ./build-notel/bench/bench_micro $bench_args 2>/dev/null \
      >> "$tmp/without.csv"
  done
  local with without
  with=$(awk -F, '/^"BM_FuzzerSteps",/ {
      t=$3+0; if (min=="" || t<min) min=t } END { print min }' "$tmp/with.csv")
  without=$(awk -F, '/^"BM_FuzzerSteps",/ {
      t=$3+0; if (min=="" || t<min) min=t } END { print min }' "$tmp/without.csv")
  echo "    BM_FuzzerSteps min real_time: with=$with ns, without=$without ns"
  awk -v w="$with" -v wo="$without" 'BEGIN {
    if (wo <= 0) { print "FAIL: bad baseline"; exit 1 }
    ratio = w / wo;
    printf "    overhead: %+.2f%%\n", (ratio - 1) * 100;
    if (ratio > 1.03) { print "FAIL: telemetry overhead above 3%"; exit 1 }
  }'
}

run_parallel() {
  echo "==> parallel: scaling-bench smoke + lock-held-share guard"
  cmake -B build -S . >/dev/null
  cmake --build build -j"$jobs" --target bench_parallel_scaling
  local tmp
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' RETURN
  # Smoke config: enough execs per worker count to exercise snapshots and
  # batched publishes without making the stage slow on a loaded box.
  (cd "$tmp" && "$OLDPWD/build/bench/bench_parallel_scaling" 2000)
  [ -f "$tmp/BENCH_parallel_scaling.json" ] || {
    echo "FAIL: BENCH_parallel_scaling.json not written" >&2; exit 1; }
  # The tentpole guarantee: SharedFuzzState::mu covers only feedback
  # merging, never generation/mutation/execution. With the old design the
  # 8-worker critical-section share was ~1.0; the batched design measures
  # well under 0.05 here, so 0.25 is a regression tripwire with margin for
  # noisy machines, not a tight bound.
  awk -F: '/"workers8_lock_held_share"/ {
      gsub(/[ ,]/, "", $2); share=$2+0;
      printf "    8-worker lock-held share: %.4f (budget 0.25)\n", share;
      found=1; if (share > 0.25) { print "FAIL: lock-held share above budget"; exit 1 }
    } END { if (!found) { print "FAIL: workers8_lock_held_share missing"; exit 1 } }' \
    "$tmp/BENCH_parallel_scaling.json"
}

run_fleet() {
  echo "==> fleet: reactor scaling bench + thread-ceiling/wall-clock guards"
  cmake -B build -S . >/dev/null
  cmake --build build -j"$jobs" --target bench_parallel_scaling healer_tests
  local tmp
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' RETURN
  (cd "$tmp" && "$OLDPWD/build/bench/bench_parallel_scaling" 2000 1500)
  [ -f "$tmp/BENCH_fleet.json" ] || {
    echo "FAIL: BENCH_fleet.json not written" >&2; exit 1; }
  # Guard 1 — the tentpole's structural claim: 2048 simulated guests are
  # event-loop state machines multiplexed over the worker threads, so the
  # process's peak OS-thread count must stay within workers + shards + the
  # bench harness's own two threads (main + sampler). peak_threads reads 0
  # only when /proc is unavailable, which skips the guard.
  awk '
    /"fleet2048_peak_threads"/ { gsub(/[^0-9.]/, ""); peak=$0+0 }
    /"fleet2048_thread_budget"/ { gsub(/[^0-9.]/, ""); budget=$0+0 }
    END {
      if (budget == 0) { print "FAIL: fleet2048_thread_budget missing"; exit 1 }
      printf "    2048-guest peak OS threads: %d (budget %d)\n", peak, budget;
      if (peak == 0) { print "    (no /proc/self/status; ceiling skipped)"; exit 0 }
      if (peak > budget) { print "FAIL: thread count scales with fleet size"; exit 1 }
    }' "$tmp/BENCH_fleet.json"
  # Guard 2 — wall-clock budget: the 2048-guest smoke config measures ~2.6s
  # here; 30s is the regression tripwire (an accidental O(fleet) hot path or
  # a reactor spin shows up as an order-of-magnitude blowup, not seconds).
  awk -F: '/"fleet2048_wall_secs"/ {
      gsub(/[ ,]/, "", $2); secs=$2+0;
      printf "    2048-guest wall time: %.2fs (budget 30s)\n", secs;
      found=1; if (secs > 30) { print "FAIL: 2048-guest wall time above budget"; exit 1 }
    } END { if (!found) { print "FAIL: fleet2048_wall_secs missing"; exit 1 } }' \
    "$tmp/BENCH_fleet.json"
  # Storm determinism + lifecycle correctness: boot/crash storms charge
  # exactly once, same-seed journals are byte-identical, and the legacy
  # topology is untouched by the fleet plumbing.
  ctest --test-dir build --output-on-failure \
    -R 'EventLoopTest|FleetPoolTest|FleetFuzzerTest|FleetFuzzTest|VmPoolTest'
}

run_relation() {
  echo "==> relation: snapshot-Select speedup guard + draw determinism"
  cmake -B build -S . >/dev/null
  cmake --build build -j"$jobs" --target bench_micro healer_tests
  local tmp
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' RETURN
  # bench_micro --json-only times the epoch-snapshot Select against the
  # legacy shared_mutex + std::map reference on the same table and RNG.
  # The rewrite measures 10-12x here; 5x is the regression tripwire.
  (cd "$tmp" && "$OLDPWD/build/bench/bench_micro" --json-only)
  [ -f "$tmp/BENCH_micro.json" ] || {
    echo "FAIL: BENCH_micro.json not written" >&2; exit 1; }
  awk -F: '/"select_speedup"/ {
      gsub(/[ ,]/, "", $2); speedup=$2+0;
      printf "    snapshot Select speedup over legacy: %.2fx (floor 5x)\n", speedup;
      found=1; if (speedup < 5) { print "FAIL: Select speedup below 5x"; exit 1 }
    } END { if (!found) { print "FAIL: select_speedup missing"; exit 1 } }' \
    "$tmp/BENCH_micro.json"
  # Determinism: the snapshot Select must stay draw-identical to the map
  # reference, and fixed-seed campaigns must reproduce the golden
  # fingerprint bit-for-bit.
  ctest --test-dir build --output-on-failure \
    -R 'DrawEquivalentWithMapReference|GoldenFingerprint'
}

run_exec() {
  echo "==> exec: ring-transport replay bench, speedup guard, mask replays"
  cmake -B build -S . >/dev/null
  cmake --build build -j"$jobs" --target bench_exec_replay healer_tests
  local tmp
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' RETURN
  (cd "$tmp" && "$OLDPWD/build/bench/bench_exec_replay")
  [ -f "$tmp/BENCH_exec_replay.json" ] || {
    echo "FAIL: BENCH_exec_replay.json not written" >&2; exit 1; }
  # The tentpole guarantee: amortizing the per-program round-trip overhead
  # across a drain makes the ring's per-program p50 span at batch >= 64 at
  # least 2x better than the legacy one-at-a-time channel. The latency
  # model measures ~3.9x here; 2x is the regression tripwire.
  awk -F: '/"ring_vs_legacy_p50_speedup"/ {
      gsub(/[ ,]/, "", $2); speedup=$2+0;
      printf "    ring p50 speedup over legacy at batch 64: %.2fx (floor 2x)\n", speedup;
      found=1; if (speedup < 2) { print "FAIL: ring speedup below 2x"; exit 1 }
    } END { if (!found) { print "FAIL: ring_vs_legacy_p50_speedup missing"; exit 1 } }' \
    "$tmp/BENCH_exec_replay.json"
  # Transport equivalence: fixed-seed ring campaigns must stay bit-identical
  # to their legacy twins (the differential that licenses the fast path).
  # Call-mask replays of the resident image must be draw-identical to
  # shipping every probe whole: SelectCalls against RemoveCall, masked
  # against materialized executions on both transports, the analysis
  # against its clone+RemoveCall reference, and the hostile-mask suite.
  ctest --test-dir build --output-on-failure \
    -R 'RingTransport|PipelinedRing|SelectCalls|Mask(Replay|Transport|Analysis|Binding|Hostile|FaultHostile)'
}

run_introspect() {
  echo "==> introspect: live endpoints, journal export, postmortem bundles"
  cmake -B build -S . >/dev/null
  cmake --build build -j"$jobs" --target healer_cli healer_postmortem
  local tmp
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' RETURN

  # HTTP fetch helper: curl when present, python3 otherwise.
  fetch() {  # fetch PORT PATH OUT
    if command -v curl >/dev/null; then
      curl -sf "http://127.0.0.1:$1$2" -o "$3"
    else
      python3 - "$1" "$2" "$3" <<'EOF'
import sys, urllib.request
port, path, out = sys.argv[1:4]
data = urllib.request.urlopen(
    "http://127.0.0.1:%s%s" % (port, path), timeout=10).read()
open(out, "wb").write(data)
EOF
    fi
  }

  # A short campaign with the introspection server on an ephemeral port.
  # --serve-secs keeps the server answering after the (fast, simulated)
  # campaign finishes, so the scrapes below always have a live target.
  ./build/tools/healer fuzz --hours 0.5 --seed 3 --http-port 0 \
    --serve-secs 20 --status-period 300 \
    --journal-out "$tmp/journal.jsonl" \
    > "$tmp/report.txt" 2> "$tmp/stderr.txt" &
  local fuzz_pid=$!
  local port="" i
  for i in $(seq 1 100); do
    port=$(sed -n \
      's/.*introspection server listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
      "$tmp/stderr.txt" | head -1)
    [ -n "$port" ] && break
    sleep 0.1
  done
  [ -n "$port" ] || {
    echo "FAIL: server port never announced on stderr" >&2
    kill "$fuzz_pid" 2>/dev/null; exit 1; }

  fetch "$port" /healthz "$tmp/healthz" || {
    echo "FAIL: /healthz unreachable or unhealthy" >&2
    kill "$fuzz_pid" 2>/dev/null; exit 1; }
  grep -q "^ok$" "$tmp/healthz" || {
    echo "FAIL: /healthz body is not ok" >&2; exit 1; }
  fetch "$port" /metrics "$tmp/metrics.prom" || {
    echo "FAIL: /metrics unreachable" >&2; kill "$fuzz_pid" 2>/dev/null
    exit 1; }
  fetch "$port" /status "$tmp/status.json" || {
    echo "FAIL: /status unreachable" >&2; kill "$fuzz_pid" 2>/dev/null
    exit 1; }
  fetch "$port" '/journal?n=32' "$tmp/journal_tail.jsonl" || {
    echo "FAIL: /journal unreachable" >&2; kill "$fuzz_pid" 2>/dev/null
    exit 1; }
  wait "$fuzz_pid" || { echo "FAIL: fuzz campaign failed" >&2; exit 1; }

  # The scraped exposition must lint exactly like the --metrics-out dump:
  # HELP/TYPE comments plus name{labels} value samples, nothing else.
  grep -q "^# HELP healer_fuzz_execs_total " "$tmp/metrics.prom" || {
    echo "FAIL: scraped metrics missing HELP line" >&2; exit 1; }
  grep -q "^# TYPE healer_fuzz_execs_total counter$" "$tmp/metrics.prom" || {
    echo "FAIL: scraped metrics missing TYPE line" >&2; exit 1; }
  awk '!/^#/ && NF { if ($0 !~ /^[a-z_]+(\{[^}]*\})? -?[0-9.e+-]+$/) \
      { print "bad sample: " $0; exit 1 } }' "$tmp/metrics.prom" || {
    echo "FAIL: malformed scraped Prometheus sample" >&2; exit 1; }
  grep -q '"execs"' "$tmp/status.json" || {
    echo "FAIL: /status missing execs" >&2; exit 1; }
  [ -s "$tmp/journal_tail.jsonl" ] || {
    echo "FAIL: /journal tail empty" >&2; exit 1; }
  [ -s "$tmp/journal.jsonl" ] || {
    echo "FAIL: --journal-out wrote nothing" >&2; exit 1; }
  grep -q '"kind":"exec"' "$tmp/journal.jsonl" || {
    echo "FAIL: journal has no exec records" >&2; exit 1; }
  if command -v python3 >/dev/null; then
    python3 -c 'import json,sys
for line in open(sys.argv[1]):
    json.loads(line)' "$tmp/journal.jsonl" || {
      echo "FAIL: journal JSONL does not parse" >&2; exit 1; }
  fi
  echo "    live endpoints OK: /healthz /metrics /status /journal + JSONL"

  # Postmortem bundles: two same-seed crashing campaigns must write one
  # bundle per unique crash and byte-identical trees (the flight recorder
  # and every bundle field derive from simulated time, never wall clock).
  local run_flags="fuzz --hours 0.5 --seed 3"
  # shellcheck disable=SC2086
  ./build/tools/healer $run_flags --postmortem-dir "$tmp/pm_a" >/dev/null
  # shellcheck disable=SC2086
  ./build/tools/healer $run_flags --postmortem-dir "$tmp/pm_b" >/dev/null
  local bundles
  bundles=$(find "$tmp/pm_a" -mindepth 1 -maxdepth 1 -type d | wc -l)
  [ "$bundles" -gt 0 ] || {
    echo "FAIL: no postmortem bundles written" >&2; exit 1; }
  diff -r "$tmp/pm_a" "$tmp/pm_b" >/dev/null || {
    echo "FAIL: same-seed postmortem bundles differ" >&2; exit 1; }
  local bundle
  bundle=$(find "$tmp/pm_a" -mindepth 1 -maxdepth 1 -type d | sort | head -1)
  ./build/tools/healer_postmortem "$bundle" > "$tmp/pm.txt" || {
    echo "FAIL: healer_postmortem failed on $bundle" >&2; exit 1; }
  grep -q "^crash:" "$tmp/pm.txt" || {
    echo "FAIL: postmortem printer missing crash section" >&2; exit 1; }
  grep -q "^journal " "$tmp/pm.txt" || {
    echo "FAIL: postmortem printer missing journal section" >&2; exit 1; }
  echo "    postmortem OK: $bundles deterministic bundles, printer renders"
}

run_hotpath() {
  echo "==> hotpath: arena allocation guard + bitmap merge floor"
  cmake -B build -S . >/dev/null
  cmake --build build -j"$jobs" --target bench_hotpath healer_tests
  local tmp
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' RETURN
  # bench_hotpath --json-only counts operator-new hits per generated program
  # (heap vs arena build paths on the same seed) and times the two-level
  # bitmap MergeNew against a pre-summary full-scan reference on a 16-word
  # sparse map. The arena path measures ~3.3x fewer allocations and the
  # sparse merge ~20x faster here; 2x / 4x are the regression tripwires.
  (cd "$tmp" && "$OLDPWD/build/bench/bench_hotpath" --json-only)
  [ -f "$tmp/BENCH_hotpath.json" ] || {
    echo "FAIL: BENCH_hotpath.json not written" >&2; exit 1; }
  awk -F: '/"gen_alloc_reduction"/ {
      gsub(/[ ,]/, "", $2); r=$2+0;
      printf "    arena allocation reduction: %.2fx (floor 2x)\n", r;
      found=1; if (r < 2) { print "FAIL: allocation reduction below 2x"; exit 1 }
    } END { if (!found) { print "FAIL: gen_alloc_reduction missing"; exit 1 } }' \
    "$tmp/BENCH_hotpath.json"
  awk -F: '/"merge_sparse16_speedup"/ {
      gsub(/[ ,]/, "", $2); s=$2+0;
      printf "    sparse-16 MergeNew speedup: %.2fx (floor 4x)\n", s;
      found=1; if (s < 4) { print "FAIL: sparse merge speedup below 4x"; exit 1 }
    } END { if (!found) { print "FAIL: merge_sparse16_speedup missing"; exit 1 } }' \
    "$tmp/BENCH_hotpath.json"
  # Time guards: the allocation win must not be paid for in wall-clock. The
  # bench interleaves short arena/heap (and dense twolevel/flat) blocks and
  # compares per-loop minima, so these ratios are stable under load; the
  # ceilings bound time, not just counts. The dense escape hatch keeps the
  # two-level merge within 1.1x of a flat linear scan even at >= 50% map
  # occupancy, and HCORP1 warm-start may never be slower than the legacy
  # text loader.
  awk -F: '/"gen_time_ratio"/ {
      gsub(/[ ,]/, "", $2); r=$2+0;
      printf "    arena/heap generation time ratio: %.3f (ceiling 1.05)\n", r;
      found=1; if (r > 1.05) { print "FAIL: arena generation slower than heap"; exit 1 }
    } END { if (!found) { print "FAIL: gen_time_ratio missing"; exit 1 } }' \
    "$tmp/BENCH_hotpath.json"
  awk -F: '/"merge_dense_ratio"/ {
      gsub(/[ ,]/, "", $2); r=$2+0;
      printf "    dense twolevel/flat merge ratio: %.3f (ceiling 1.1)\n", r;
      found=1; if (r > 1.1) { print "FAIL: dense merge above flat-scan ceiling"; exit 1 }
    } END { if (!found) { print "FAIL: merge_dense_ratio missing"; exit 1 } }' \
    "$tmp/BENCH_hotpath.json"
  awk -F: '/"warmstart_speedup"/ {
      gsub(/[ ,]/, "", $2); s=$2+0;
      printf "    HCORP1 warm-start speedup: %.3fx (floor 1x)\n", s;
      found=1; if (s < 1) { print "FAIL: HCORP1 warm-start slower than legacy"; exit 1 }
    } END { if (!found) { print "FAIL: warmstart_speedup missing"; exit 1 } }' \
    "$tmp/BENCH_hotpath.json"
  # Equivalence + format hardening: arena builds must serialize and cover
  # bit-identically to heap builds, fixed-seed campaigns must reproduce the
  # golden fingerprint, and the mmap corpus loader must survive hostile
  # inputs.
  ctest --test-dir build --output-on-failure \
    -R 'ProgArena|ArenaHeapEquivalence|GoldenFingerprint|Hcorp1|BitmapTest'
}

run_distributed() {
  echo "==> distributed: sharded-gossip scaling bench + reconciliation guard"
  cmake -B build -S . >/dev/null
  cmake --build build -j"$jobs" --target bench_distributed healer_tests
  local tmp
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' RETURN
  (cd "$tmp" && "$OLDPWD/build/bench/bench_distributed")
  [ -f "$tmp/BENCH_distributed.json" ] || {
    echo "FAIL: BENCH_distributed.json not written" >&2; exit 1; }
  # Guard 1 — the tentpole's correctness claim: two 4-shard campaigns under
  # different adversarial network seeds (delivery shuffle + replays) must
  # reconcile to byte-identical global relation tables, and every shard's
  # exactly-once relation identity must hold.
  awk -F: '/"reconcile_identical"/ {
      gsub(/[ ,]/, "", $2); same=$2+0;
      printf "    reconciled tables byte-identical across net seeds: %s\n", \
        same == 1 ? "yes" : "NO";
      found=1; if (same != 1) { print "FAIL: reconciliation differs across gossip orderings"; exit 1 }
    } END { if (!found) { print "FAIL: reconcile_identical missing"; exit 1 } }' \
    "$tmp/BENCH_distributed.json"
  awk -F: '/identities_ok"/ {
      gsub(/[ ,]/, "", $2); if ($2+0 != 1) bad=1; found=1
    } END {
      if (!found) { print "FAIL: identities_ok metrics missing"; exit 1 }
      if (bad) { print "FAIL: exactly-once relation identity violated"; exit 1 }
      print "    exactly-once identities hold at every shard count"
    }' "$tmp/BENCH_distributed.json"
  # Guard 2 — throughput scaling: aggregate execs/sec at 4 shards must be
  # >= 3x the 1-shard rate. Shards scale with cores (they fuzz on their own
  # threads), so the guard is only meaningful when the host has >= 4 cores;
  # on smaller boxes the shards time-slice one CPU and the ratio is ~1 by
  # construction, so the guard is skipped (same idiom as the fleet stage's
  # /proc-less thread-ceiling skip).
  awk -F: '
    /"cores"/ { gsub(/[ ,]/, "", $2); cores=$2+0 }
    /"shards4_speedup_vs_1"/ { gsub(/[ ,]/, "", $2); s4=$2+0; found=1 }
    END {
      if (!found) { print "FAIL: shards4_speedup_vs_1 missing"; exit 1 }
      if (cores < 4) {
        printf "    4-shard throughput: %.2fx of 1-shard (%d cores; >=3x guard skipped)\n", s4, cores;
        exit 0
      }
      printf "    4-shard throughput: %.2fx of 1-shard (floor 3x)\n", s4;
      if (s4 < 3) { print "FAIL: 4-shard aggregate throughput below 3x"; exit 1 }
    }' "$tmp/BENCH_distributed.json"
  # Reconciliation + hostile-gossip tests: cross-shard state flow, identity
  # accounting, canonical byte encodings, and the HGSP1 decoder's posture
  # against truncation, bad lengths, and replayed deltas.
  ctest --test-dir build --output-on-failure \
    -R 'ShardedCampaignTest|GossipCodecTest|GossipDedupTest|GossipScheduleTest|GossipHostileTest'
}

run_benchdiff() {
  echo "==> benchdiff: fresh bench metrics vs committed baselines"
  if ! command -v python3 >/dev/null; then
    echo "    (python3 unavailable; stage skipped)"
    return 0
  fi
  cmake -B build -S . >/dev/null
  cmake --build build -j"$jobs" --target bench_hotpath bench_distributed
  local tmp
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' RETURN
  (cd "$tmp" && "$OLDPWD/build/bench/bench_hotpath" --json-only)
  (cd "$tmp" && "$OLDPWD/build/bench/bench_distributed")
  # The two timing-derived hotpath ratios are compared under the loose
  # factor tolerance: their floors/ceilings are enforced by the hotpath
  # stage above; the diff only has to catch silent baseline drift.
  python3 scripts/bench_diff.py BENCH_hotpath.json \
    "$tmp/BENCH_hotpath.json" \
    --loose merge_dense_ratio --loose merge_sparse16_speedup
  python3 scripts/bench_diff.py BENCH_distributed.json \
    "$tmp/BENCH_distributed.json"
}

case "$stage" in
  tier1) run_tier1 ;;
  asan)  run_asan ;;
  tsan)  run_tsan ;;
  relocate) run_relocate ;;
  telemetry) run_telemetry ;;
  parallel) run_parallel ;;
  fleet) run_fleet ;;
  relation) run_relation ;;
  exec) run_exec ;;
  introspect) run_introspect ;;
  hotpath) run_hotpath ;;
  distributed) run_distributed ;;
  benchdiff) run_benchdiff ;;
  all)   run_tier1; run_asan; run_tsan; run_relocate; run_telemetry; run_parallel; run_fleet; run_relation; run_exec; run_introspect; run_hotpath; run_distributed; run_benchdiff ;;
  *) echo "usage: $0 [tier1|asan|tsan|relocate|telemetry|parallel|fleet|relation|exec|introspect|hotpath|distributed|benchdiff|all]" >&2; exit 2 ;;
esac

echo "==> all requested checks passed"
