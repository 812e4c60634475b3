// Multi-worker fuzzing (Figure 3): worker threads (Job_i) drive the entire
// fuzzing process on the host and synchronize through a shared fuzzing
// state — coverage bitmap, corpus, crash db, relation table, alpha schedule
// — while each worker pulls ready guests from its VmPool lane (in the
// default topology that lane holds exactly one pinned VM).
//
// Every worker runs the Fuzzer's loop (FuzzLoop, fuzzer.h); worker 0 draws
// from the campaign seed, so one worker with batch_size 1 makes the same
// campaign as a one-VM Fuzzer, for every tool. This file holds the
// worker's FuzzState and its publish. The shared-state mutex covers ONLY
// feedback merging; workers fuzz against read-mostly views:
//
//   * generation/mutation samples an epoch-versioned CorpusSnapshot
//     (shared_ptr swapped on publish; workers refresh when corpus_epoch
//     advances) — no lock on the pick path;
//   * execution merges coverage straight into the campaign Bitmap, whose
//     Set/MergeNew are atomic-word operations — no lock on the merge path;
//   * guided selection reads the RelationTable's immutable CSR snapshot
//     (epoch-probed, same protocol as the corpus snapshot) and dynamic
//     learning accumulates a per-worker RelationDelta, flushed through
//     RelationTable::Apply at publish time with exactly-once edge credit —
//     workers never take a lock to read relations (DESIGN.md §8);
//   * everything else (corpus adds, crash reports, reproducer lengths,
//     alpha outcomes, the fuzz_execs total) accumulates in a per-worker
//     batch, published in one short `mu` acquisition every `batch_size`
//     executions, after an iteration that gained coverage, and at once on
//     the first report of a bug the worker has not seen. That publish
//     tells whether the bug is new; a new bug is then reproduced on the
//     worker's guest, outside `mu`.
//
// Lock contention is measured, not assumed: healer_parallel_lock_wait_ns /
// _held_ns histograms and the healer_parallel_lock_held_share gauge make
// the critical-section share visible in --metrics-out, and
// scripts/check.sh's `parallel` stage gates on it.
//
// Parallel campaigns are scheduling-dependent; the deterministic
// single-threaded Fuzzer remains the benchmarking reference (DESIGN.md §7).

#ifndef SRC_FUZZ_PARALLEL_H_
#define SRC_FUZZ_PARALLEL_H_

#include <atomic>
#include <bit>
#include <memory>
#include <mutex>
#include <thread>

#include "src/base/journal.h"
#include "src/base/metrics.h"
#include "src/fuzz/corpus.h"
#include "src/fuzz/crash_db.h"
#include "src/fuzz/fuzz_metrics.h"
#include "src/fuzz/fuzzer.h"
#include "src/fuzz/relation_table.h"

namespace healer {

// The "Shared Fuzz State" box of Figure 3.
struct SharedFuzzState {
  explicit SharedFuzzState(size_t num_syscalls, size_t journal_capacity = 0)
      : coverage(CallCoverage::kMapBits),
        relations(num_syscalls),
        journal(journal_capacity) {}

  // ---- Lock-free fleet state ----
  Bitmap coverage;          // Atomic-word merges; no external lock.
  RelationTable relations;  // Snapshot-read, delta-written (DESIGN.md §8).
  // Exec-slot dispenser: each worker claims tickets until total_execs.
  std::atomic<uint64_t> exec_tickets{0};
  // Moonshine seed executions, run before any worker starts (read-only
  // afterwards): ticket t takes exec index seeded_execs + t + 1.
  uint64_t seeded_execs = 0;
  // Current alpha as bit_cast<uint64_t>(double); workers read it per step
  // without touching the AlphaSchedule (which lives under mu).
  std::atomic<uint64_t> alpha_bits{
      std::bit_cast<uint64_t>(AlphaSchedule::kInitial)};

  // ---- Corpus snapshot hand-off ----
  // Workers cache `corpus_snapshot` and re-copy the pointer (briefly under
  // snapshot_mu) only when corpus_epoch moved past their cached epoch. The
  // unlocked epoch probe is an optimization: a stale read just delays the
  // refresh by one step.
  std::mutex snapshot_mu;
  std::shared_ptr<const CorpusSnapshot> corpus_snapshot;
  std::atomic<uint64_t> corpus_epoch{0};

  // ---- Publish-locked authoritative state (guarded by mu) ----
  // mu is held only inside Worker::Publish — never across VM execution,
  // generation/mutation, minimization, learning or crash reproduction.
  std::mutex mu;
  Corpus corpus;
  CrashDb crashes;
  AlphaSchedule alpha;
  uint64_t fuzz_execs = 0;

  // Fleet-wide telemetry: counters shard per worker thread, so recording is
  // contention-free; the recovery-side fault accounting lives here too (the
  // injected counters live in the VM injectors, merged at the end).
  MetricRegistry metrics;
  // Flight-recorder ring, spans included. Workers never Append directly:
  // each stages records in its private JournalWriter and drains them at its
  // publish point, so the journal mutex sees one acquire per batch.
  Journal journal;
};

// The workers' loops run with the FuzzerOptions these map to: tool,
// version, seed, fault plan and recovery policy; every other FuzzerOptions
// field keeps its default.
struct ParallelOptions {
  ToolKind tool = ToolKind::kHealer;
  KernelVersion version = KernelVersion::kV5_11;
  uint64_t seed = 1;
  size_t num_workers = 4;
  uint64_t total_execs = 10000;
  // Executions a worker accumulates before publishing its feedback batch
  // (new coverage and a bug new to the worker publish immediately).
  size_t batch_size = 32;
  // Fault injection (empty = fault-free) and per-worker recovery policy.
  FaultPlan fault_plan;
  RecoveryPolicy recovery;
  // Flight-recorder ring capacity (0 disables journaling, spans included).
  size_t journal_capacity = 0;
  // Total simulated guests. 0 (the default) keeps the legacy topology: one
  // VM pinned per worker, byte-identical to the historical pool. A value
  // above num_workers builds a reactor fleet instead — VMs spread across
  // one lane per worker, lifecycle (async boots, crash reboots) driven by
  // EventLoop shards that the workers pump cooperatively. No extra OS
  // threads: 2048 guests still run on num_workers threads.
  size_t fleet_size = 0;
  // Reactor shards for fleet mode. 0 = auto: fleet_size / 256, clamped to
  // [1, num_workers].
  size_t fleet_shards = 0;
};

struct ParallelResult {
  size_t coverage = 0;
  uint64_t fuzz_execs = 0;  // total_execs, plus Moonshine's seeds.
  size_t corpus_size = 0;
  size_t unique_bugs = 0;
  size_t relations = 0;
  size_t relations_static = 0;
  size_t relations_dynamic = 0;
  // Injected + recovery counters, and the final per-VM health accounting
  // (VmPool::HealthReport).
  FaultStats faults;
  std::vector<VmHealth> vm_health;
  // Final per-shard fleet census (one entry even in legacy mode).
  std::vector<FleetShardSummary> fleet;
  // The final corpus (for differential/property checks against the
  // single-threaded fuzzer).
  std::vector<Prog> corpus_progs;
  // Deduplicated crash records (bug set, hit counts, shortest repros).
  std::vector<CrashRecord> crash_records;
  // Full telemetry snapshot of the shared registry.
  MetricsSnapshot telemetry;
  // Flight-recorder window, oldest first (empty unless journal_capacity).
  std::vector<JournalRecord> journal;
};

// Runs `num_workers` threads until `total_execs` test cases have executed.
ParallelResult RunParallelFuzz(const Target& target,
                               const ParallelOptions& options);

}  // namespace healer

#endif  // SRC_FUZZ_PARALLEL_H_
