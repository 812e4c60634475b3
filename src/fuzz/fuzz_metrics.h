// The fuzzing pipeline's metric handles, registered once per registry and
// shared by Fuzzer and the ParallelFuzzer workers (handles are lock-free;
// counters shard per thread, so workers never contend).
//
// Naming scheme (DESIGN.md §6): healer_<area>_<metric>[_total|_ns], areas
// fuzz / exec / vm / fault / minimize / learn / alpha / coverage / corpus /
// crash / relations. Counters end in _total, simulated-time histograms in
// _ns. The per-kind fault counters healer_fault_injected_<kind>_total are
// registered by GuestVm (src/vm/guest_vm.cc) against the same registry.

#ifndef SRC_FUZZ_FUZZ_METRICS_H_
#define SRC_FUZZ_FUZZ_METRICS_H_

#include "src/base/metrics.h"
#include "src/base/sim_clock.h"
#include "src/vm/fault_plan.h"

namespace healer {

class RelationTable;

struct FuzzMetrics {
  // Generation-vs-mutation choice; counted only when the program executed.
  Counter* generated;  // healer_fuzz_generated_total
  Counter* mutated;    // healer_fuzz_mutated_total
  Counter* seeded;     // healer_fuzz_seeded_total (initial-corpus execs)
  Counter* fuzz_execs; // healer_fuzz_execs_total = generated+mutated+seeded
  Counter* analysis_execs;  // healer_exec_analysis_total (Alg. 1/2 + repro)

  // Executor round trips under the recovery policy.
  Counter* exec_attempts;   // healer_exec_attempts_total = ok + failed
  Counter* exec_ok;         // healer_exec_ok_total
  Counter* exec_failed;     // healer_exec_failed_total
  Counter* exec_retries;    // healer_exec_retries_total
  Counter* exec_recovered;  // healer_exec_recovered_total
  Counter* exec_discarded;  // healer_exec_discarded_total
  Counter* quarantines;     // healer_vm_quarantines_total

  // Feedback processing.
  Counter* coverage_edges;    // healer_coverage_edges_total (== bitmap count)
  Counter* corpus_adds;       // healer_corpus_adds_total
  Counter* crash_reports;     // healer_crash_reports_total
  Counter* crash_new;         // healer_crash_new_total
  Counter* minimize_rounds;   // healer_minimize_rounds_total
  Counter* minimize_probes;   // healer_minimize_probes_total
  Counter* learn_rounds;      // healer_learn_rounds_total
  Counter* learn_probes;      // healer_learn_probes_total
  Counter* relations_learned; // healer_relations_learned_total
  Counter* alpha_updates;     // healer_alpha_updates_total

  // Campaign state gauges, refreshed on change / sample / snapshot.
  Gauge* coverage_branches;  // healer_coverage_branches
  Gauge* corpus_programs;    // healer_corpus_programs
  Gauge* relations_total;    // healer_relations_total
  Gauge* relations_static;   // healer_relations_static
  Gauge* relations_dynamic;  // healer_relations_dynamic
  Gauge* crashes_unique;     // healer_crashes_unique
  Gauge* alpha;              // healer_alpha
  Gauge* sim_hours;          // healer_sim_hours

  // Distributions.
  Histogram* prog_len;        // healer_prog_len
  Histogram* exec_new_edges;  // healer_exec_new_edges (gaining execs only)
  Histogram* minimize_execs;  // healer_minimize_execs (probes per round)
  Histogram* learn_execs;     // healer_learn_execs (probes per round)

  explicit FuzzMetrics(MetricRegistry* registry);

  // Sets the campaign-state gauges from the campaign's state.
  void SetStateGauges(size_t coverage, size_t corpus,
                      const RelationTable& relations, size_t unique_bugs,
                      double alpha_value, SimClock::Nanos now);

  // Recovery-side counters as a FaultStats (injected[] stays zero; callers
  // merge the VM injectors' stats on top). Keeps the legacy FaultStats
  // surface in CampaignResult/ParallelResult backed by the registry.
  FaultStats RecoveryStats() const;
};

// Contention instrumentation for the parallel mode's shared-state lock and
// batch-publish protocol. Registered only by parallel campaigns, so
// single-threaded snapshots are unchanged. The _ns histograms are host
// wall-clock (steady_clock) — parallel mode is already scheduling-dependent,
// and wall time is the quantity the lock-held-share acceptance gate needs.
struct ParallelMetrics {
  Histogram* lock_wait_ns;  // healer_parallel_lock_wait_ns
  Histogram* lock_held_ns;  // healer_parallel_lock_held_ns

  Counter* batch_publish;      // healer_parallel_batch_publish_total
  Counter* batched_execs;      // healer_parallel_batched_execs_total
  Counter* snapshot_refresh;   // healer_parallel_snapshot_refresh_total

  Gauge* wall_ns;          // healer_parallel_wall_ns (whole campaign)
  Gauge* lock_held_share;  // healer_parallel_lock_held_share
                           //   = sum(lock_held_ns) / (wall_ns * workers)

  explicit ParallelMetrics(MetricRegistry* registry);
};

}  // namespace healer

#endif  // SRC_FUZZ_FUZZ_METRICS_H_
