// The fuzzing loop, parameterized by tool:
//
//   kHealer      — relation learning + guided selection (the paper's system)
//   kHealerMinus — HEALER with relation learning disabled (ablation)
//   kSyzkaller   — choice-table guided baseline
//   kMoonshine   — Syzkaller + distilled initial seeds
//
// All tools share the executor substrate, parameter synthesis, corpus
// policy and minimization, so measured differences isolate call-selection
// strategy — the experimental design of Section 6.

#ifndef SRC_FUZZ_FUZZER_H_
#define SRC_FUZZ_FUZZER_H_

#include <map>
#include <memory>

#include "src/base/bitmap.h"
#include "src/base/journal.h"
#include "src/base/metrics.h"
#include "src/base/trace.h"
#include "src/fuzz/call_selector.h"
#include "src/fuzz/choice_table.h"
#include "src/fuzz/corpus.h"
#include "src/fuzz/crash_db.h"
#include "src/fuzz/fuzz_metrics.h"
#include "src/fuzz/learner.h"
#include "src/fuzz/minimizer.h"
#include "src/fuzz/prog_builder.h"
#include "src/fuzz/relation_table.h"
#include "src/fuzz/repro.h"
#include "src/prog/arena.h"
#include "src/vm/vm_pool.h"

namespace healer {

enum class ToolKind {
  kHealer,
  kHealerMinus,
  kSyzkaller,
  kMoonshine,
};

const char* ToolKindName(ToolKind tool);

// Ablation hooks for HEALER's guidance (bench_ablation_guidance):
//   kDefault    — static + dynamic learning, adaptive alpha (the paper)
//   kStaticOnly — dynamic learning disabled; only description-derived edges
//   kFixedAlpha — full learning but alpha pinned to `fixed_alpha`
enum class GuidanceMode {
  kDefault,
  kStaticOnly,
  kFixedAlpha,
};

const char* GuidanceModeName(GuidanceMode mode);

// Which fuzzer <-> executor transport executions travel through. For a
// fixed seed the ring transport is draw-identical to the legacy channel
// (same per-program fault stream, same feedback, same archive decisions);
// the differential tests pin that equivalence.
enum class ExecTransport : uint8_t {
  kShmChannel = 0,  // Legacy one-program-at-a-time handshake.
  kRing,            // Paired SQ/CQ rings (exec_ring.h), batched submit.
};

const char* ExecTransportName(ExecTransport transport);

struct FuzzerOptions {
  ToolKind tool = ToolKind::kHealer;
  KernelVersion version = KernelVersion::kV5_11;
  uint64_t seed = 1;
  size_t num_vms = 2;
  VmLatencyModel latency;
  // Number of synthesized traces for Moonshine's distillation.
  size_t moonshine_traces = 64;
  // Generated program length is drawn from [min, max].
  size_t gen_len_min = 4;
  size_t gen_len_max = 14;
  // HEALER guidance ablation (ignored by the other tools).
  GuidanceMode guidance = GuidanceMode::kDefault;
  double fixed_alpha = 0.8;
  // Deterministic fault injection (empty = no faults) and the policy for
  // surviving it; see fault_plan.h.
  FaultPlan fault_plan;
  RecoveryPolicy recovery;
  // Transport executions travel through (see ExecTransport).
  ExecTransport transport = ExecTransport::kShmChannel;
  // Span-trace ring capacity (0 disables tracing entirely; recording then
  // costs one predicted branch per span, no lock).
  size_t trace_capacity = 0;
  // Flight-recorder ring capacity (0 disables journaling). On by default:
  // recording is a vector push into a private buffer, drained in batches,
  // and the check.sh overhead guard covers it.
  size_t journal_capacity = 4096;
  // When non-empty, each unique crash writes a postmortem bundle directory
  // here (see postmortem.h for the layout).
  std::string postmortem_dir;
  // Total simulated guests. 0 (or == num_vms) keeps the legacy pinned pool
  // — draw-identical to the historical fuzzer. A larger value builds a
  // reactor fleet with num_vms lanes: executions rotate over the lanes and
  // crashed guests reboot on EventLoop timers instead of charging the next
  // execution (see vm_pool.h).
  size_t fleet_size = 0;
  // Reactor shards for fleet mode. 0 = auto (fleet_size / 256, clamped to
  // [1, num_vms]).
  size_t fleet_shards = 0;
};

class Fuzzer {
 public:
  Fuzzer(const Target& target, FuzzerOptions options);

  // One fuzzing iteration: pick generate-or-mutate, execute, process
  // feedback (crash triage, minimization, relation learning, corpus).
  void Step();

  // Executes user-provided seed programs and archives the interesting ones
  // ("the user can optionally provide an initial corpus", Section 4).
  void SeedWith(const std::vector<Prog>& seeds);

  // Relation persistence: warm-starts the table from a previous campaign's
  // saved edges (loaded as dynamic edges at time 0; returns how many were
  // new), and saves the current table for the next campaign.
  Result<size_t> LoadRelations(const std::string& path);
  Status SaveRelations(const std::string& path) const;

  // ---- state accessors ----
  SimClock& clock() { return clock_; }
  size_t CoverageCount() const { return coverage_.Count(); }
  const Bitmap& coverage() const { return coverage_; }
  uint64_t FuzzExecs() const { return fuzz_execs_; }
  uint64_t TotalExecs() const { return pool_.TotalExecs(); }
  const RelationTable& relations() const { return *relations_; }
  const Corpus& corpus() const { return corpus_; }
  const CrashDb& crashes() const { return crash_db_; }
  double alpha() const { return alpha_.alpha(); }
  VmPool& pool() { return pool_; }
  const FuzzerOptions& options() const { return options_; }
  // Mutable state access for the sharded-campaign gossip layer (shard.h):
  // a FuzzShard imports peer deltas — relation edges via Apply(), coverage
  // words via OrWord(), seed programs via Corpus::Add — between Step()
  // batches. Single-threaded like everything else here: callers must not
  // mutate while Step() is running.
  RelationTable* mutable_relations() { return relations_.get(); }
  Bitmap* mutable_coverage() { return &coverage_; }
  Corpus* mutable_corpus() { return &corpus_; }

  // Minimized reproducer for a found bug, nullptr when unknown.
  const Prog* ReproFor(BugId bug) const;
  // Injected-fault counters (from the VM injectors) merged with the
  // recovery-side counters (retries, recoveries, quarantines, discards).
  FaultStats fault_stats() const;

  // ---- telemetry ----
  MetricRegistry& metrics() { return metrics_; }
  const MetricRegistry& metrics() const { return metrics_; }
  TraceBuffer& trace() { return trace_; }
  Journal& journal() { return journal_; }
  const Journal& journal() const { return journal_; }
  // Pushes the derived campaign-state gauges (coverage, corpus size,
  // relation counts, alpha, simulated hours) into the registry. Call before
  // snapshotting; counters and histograms are always current.
  void RefreshGauges();

 private:
  CallChooser MakeChooser(bool* used_table);
  MaskExecFn AnalysisExec();
  // Executes the calls of `image` that `keep` marks (nullptr: all) under the
  // recovery policy: bounded retry with exponential backoff across the
  // pool, quarantine-rebooting VMs whose consecutive-failure streak crosses
  // the threshold. Returns the last attempt's result; a still-failed result
  // means the program's feedback must be discarded.
  ExecResult ExecWithRecovery(const ProgImage& image, const CallMask* keep,
                              Bitmap* coverage);
  void ProcessFeedback(const ProgImage& image, const ExecResult& result);
  void LoadMoonshineSeeds();
  // CrashDb on_new_crash hook target: assembles and writes one postmortem
  // bundle for a previously-unseen bug (see postmortem.h).
  void WritePostmortem(const CrashRecord& crash);

  // VM checkout for one execution attempt. Legacy topology: the historical
  // health-skipping round robin (pool_.Next()) and a no-op release. Fleet
  // topology: pops a ready guest from the next lane (pumping the lane's
  // reactor shard when dry) and returns it to the freelist — or parks it
  // for an async reboot — afterwards.
  GuestVm* AcquireFuzzVm(size_t* lane);
  void ReleaseFuzzVm(size_t lane, GuestVm* vm);

  const Target& target_;
  FuzzerOptions options_;
  Rng rng_;
  SimClock clock_;
  // Declared before pool_: the VMs register their handles in metrics_.
  MetricRegistry metrics_;
  TraceBuffer trace_{options_.trace_capacity};
  Journal journal_{options_.journal_capacity};
  // The single fuzzing thread is the journal's one producer; the VMs share
  // this writer (set_journal) and it is flushed at the end of each Step.
  JournalWriter journal_writer_{&journal_, 0};
  FuzzMetrics m_{&metrics_};
  VmPool pool_;
  Bitmap coverage_;
  Corpus corpus_;
  CrashDb crash_db_;
  std::unique_ptr<RelationTable> relations_;
  std::unique_ptr<CallSelector> selector_;
  std::unique_ptr<ChoiceTable> choice_table_;
  // Region allocator for Step-scoped candidate programs; reset at the top
  // of every Step. Declared before builder_ (which borrows it) so the
  // builder is torn down first. Programs that survive into the corpus are
  // heap copies selected by the minimizer.
  ProgArena arena_;
  ProgBuilder builder_;
  Minimizer minimizer_;
  DynamicLearner learner_;
  CrashReproducer reproducer_;
  AlphaSchedule alpha_;
  std::map<BugId, Prog> repros_;
  // Bundle directories written per bug, so minimized reproducers can be
  // appended once minimization finishes.
  std::map<BugId, std::string> bundle_dirs_;
  // The program whose feedback is being processed; postmortem context for
  // the CrashDb hook (valid only inside ProcessFeedback).
  const Prog* current_prog_ = nullptr;
  uint64_t fuzz_execs_ = 0;
  uint64_t adjacency_notes_ = 0;
  uint64_t last_alpha_updates_ = 0;
  size_t next_lane_ = 0;  // Fleet-mode lane rotation.
};

}  // namespace healer

#endif  // SRC_FUZZ_FUZZER_H_
