#include "src/fuzz/fuzz_metrics.h"

#include "src/fuzz/relation_table.h"

namespace healer {

// Registration attaches the exposition help text alongside each handle, so
// every pipeline metric carries a "# HELP" line (the conformance test in
// tests/introspect_test.cc requires one for every healer_* metric).
FuzzMetrics::FuzzMetrics(MetricRegistry* registry) {
  const auto C = [registry](const char* name, const char* help) {
    registry->SetHelp(name, help);
    return registry->GetCounter(name);
  };
  const auto G = [registry](const char* name, const char* help) {
    registry->SetHelp(name, help);
    return registry->GetGauge(name);
  };
  const auto H = [registry](const char* name, const char* help) {
    registry->SetHelp(name, help);
    return registry->GetHistogram(name);
  };

  generated = C("healer_fuzz_generated_total",
                "Programs synthesized from scratch and executed.");
  mutated = C("healer_fuzz_mutated_total",
              "Corpus programs mutated and executed.");
  seeded = C("healer_fuzz_seeded_total",
             "Initial-corpus seed programs executed.");
  fuzz_execs = C("healer_fuzz_execs_total",
                 "Fuzzing executions (generated + mutated + seeded).");
  analysis_execs = C("healer_exec_analysis_total",
                     "Analysis executions (minimization, relation learning, "
                     "crash reproduction).");

  exec_attempts = C("healer_exec_attempts_total",
                    "Executor round trips attempted under the recovery "
                    "policy.");
  exec_ok = C("healer_exec_ok_total", "Round trips that returned a result.");
  exec_failed = C("healer_exec_failed_total",
                  "Round trips that surfaced an infrastructure fault.");
  exec_retries = C("healer_exec_retries_total",
                   "Retries issued after failed round trips.");
  exec_recovered = C("healer_exec_recovered_total",
                     "Executions that succeeded after at least one retry.");
  exec_discarded = C("healer_exec_discarded_total",
                     "Executions abandoned after the retry budget.");
  quarantines = C("healer_vm_quarantines_total",
                  "Out-of-band reboots of repeatedly failing guests.");

  coverage_edges = C("healer_coverage_edges_total",
                     "New coverage edges merged into the global bitmap.");
  corpus_adds = C("healer_corpus_adds_total",
                  "Minimized sequences admitted into the corpus.");
  crash_reports = C("healer_crash_reports_total",
                    "Crash reports observed (including duplicates).");
  crash_new = C("healer_crash_new_total", "Previously-unseen bugs found.");
  minimize_rounds = C("healer_minimize_rounds_total",
                      "Minimization rounds run on gaining programs.");
  minimize_probes = C("healer_minimize_probes_total",
                      "Executor probes spent by minimization.");
  learn_rounds = C("healer_learn_rounds_total",
                   "Dynamic relation-learning rounds (Alg. 2).");
  learn_probes = C("healer_learn_probes_total",
                   "Executor probes spent by relation learning.");
  relations_learned = C("healer_relations_learned_total",
                        "Relation edges learned dynamically.");
  alpha_updates = C("healer_alpha_updates_total",
                    "Adaptive-alpha adjustments applied.");

  coverage_branches = G("healer_coverage_branches",
                        "Covered branches in the global bitmap.");
  corpus_programs = G("healer_corpus_programs", "Programs in the corpus.");
  relations_total = G("healer_relations_total",
                      "Relation-table edges (static + dynamic).");
  relations_static = G("healer_relations_static",
                       "Relation edges from static learning.");
  relations_dynamic = G("healer_relations_dynamic",
                        "Relation edges from dynamic learning.");
  crashes_unique = G("healer_crashes_unique", "Unique bugs found so far.");
  alpha = G("healer_alpha", "Current relation-guidance alpha.");
  sim_hours = G("healer_sim_hours", "Simulated campaign hours elapsed.");

  prog_len = H("healer_prog_len", "Length of executed programs (calls).");
  exec_new_edges = H("healer_exec_new_edges",
                     "New edges per gaining execution.");
  minimize_execs = H("healer_minimize_execs",
                     "Executor probes per minimization round.");
  learn_execs = H("healer_learn_execs",
                  "Executor probes per relation-learning round.");
}

ParallelMetrics::ParallelMetrics(MetricRegistry* registry) {
  const auto C = [registry](const char* name, const char* help) {
    registry->SetHelp(name, help);
    return registry->GetCounter(name);
  };
  const auto G = [registry](const char* name, const char* help) {
    registry->SetHelp(name, help);
    return registry->GetGauge(name);
  };
  const auto H = [registry](const char* name, const char* help) {
    registry->SetHelp(name, help);
    return registry->GetHistogram(name);
  };

  lock_wait_ns = H("healer_parallel_lock_wait_ns",
                   "Wall nanoseconds waiting for the shared-state lock.");
  lock_held_ns = H("healer_parallel_lock_held_ns",
                   "Wall nanoseconds holding the shared-state lock.");

  batch_publish = C("healer_parallel_batch_publish_total",
                    "Worker batch publishes into shared state.");
  batched_execs = C("healer_parallel_batched_execs_total",
                    "Executions carried by published batches.");
  snapshot_refresh = C("healer_parallel_snapshot_refresh_total",
                       "Corpus-snapshot refreshes taken by workers.");

  wall_ns = G("healer_parallel_wall_ns",
              "Host wall nanoseconds of the parallel campaign.");
  lock_held_share = G("healer_parallel_lock_held_share",
                      "Lock-held wall time over wall time times workers.");
}

void FuzzMetrics::SetStateGauges(size_t coverage, size_t corpus,
                                 const RelationTable& relations,
                                 size_t unique_bugs, double alpha_value,
                                 SimClock::Nanos now) {
  coverage_branches->Set(static_cast<double>(coverage));
  corpus_programs->Set(static_cast<double>(corpus));
  relations_total->Set(static_cast<double>(relations.Count()));
  relations_static->Set(static_cast<double>(
      relations.CountBySource(RelationSource::kStatic)));
  relations_dynamic->Set(static_cast<double>(
      relations.CountBySource(RelationSource::kDynamic)));
  crashes_unique->Set(static_cast<double>(unique_bugs));
  alpha->Set(alpha_value);
  sim_hours->Set(static_cast<double>(now) /
                 static_cast<double>(SimClock::kHour));
}

FaultStats FuzzMetrics::RecoveryStats() const {
  FaultStats stats;
  stats.failed_execs = exec_failed->Value();
  stats.retries = exec_retries->Value();
  stats.recovered = exec_recovered->Value();
  stats.discarded = exec_discarded->Value();
  stats.quarantines = quarantines->Value();
  return stats;
}

}  // namespace healer
