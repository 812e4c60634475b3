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
//
// The loop (FuzzLoop) exists once. The single-threaded Fuzzer, every
// shard of a sharded campaign (shard.h) and every parallel worker
// (parallel.h) run it, so all four tools behave the same in every
// topology; only the FuzzState behind the loop differs.

#ifndef SRC_FUZZ_FUZZER_H_
#define SRC_FUZZ_FUZZER_H_

#include <map>
#include <memory>
#include <string_view>

#include "src/base/bitmap.h"
#include "src/base/journal.h"
#include "src/base/metrics.h"
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
// The inverse of ToolKindName; an unknown name is an error that lists the
// accepted ones.
Result<ToolKind> ParseToolKind(std::string_view name);

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
  // Flight-recorder ring capacity (0 disables journaling, spans included).
  // On by default: recording is a vector push into a private buffer,
  // drained in batches, and the check.sh overhead guard covers it.
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

// Campaign state as the fuzzing loop reads and commits it: the Fuzzer's
// own, updated in place, or a parallel worker's snapshots and batch
// (parallel.cc).
class FuzzState {
 public:
  // Corpus reads: emptiness and a priority-weighted pick, which the loop
  // decodes into its step arena.
  virtual bool CorpusEmpty() const = 0;
  virtual const StoredProg& Choose(Rng* rng) = 0;
  // The alpha schedule: the current alpha, and one (used_table, gained)
  // outcome of a fuzzing execution.
  virtual double Alpha() const = 0;
  virtual void RecordAlpha(bool used_table, bool gained) = 0;
  // Counts one executed fuzzing program and returns its exec index.
  virtual uint64_t CountExec() = 0;
  // Records one crash report (one hit) of `prog`; returns true if the bug
  // is new to the campaign. RecordRepro then hands over the bug's
  // minimized reproducer.
  virtual bool RecordCrash(const CrashRecord& report, const Prog& prog) = 0;
  virtual void RecordRepro(BugId bug, Prog repro) = 0;
  // The delta dynamic learning writes into, and its commit.
  virtual RelationDelta* Delta() = 0;
  virtual void CommitRelations() = 0;
  // Admits a minimized program, serialized once, to the corpus; returns the
  // corpus size after it, or 0 where that is not known yet.
  virtual size_t Admit(StoredProg prog, uint32_t priority) = 0;
  // Checks a guest out for one execution attempt, and back in after it.
  virtual GuestVm* CheckOut() = 0;
  virtual void CheckIn(GuestVm* vm) = 0;

 protected:
  // Implementations are never deleted through this interface.
  ~FuzzState() = default;
};

// One fuzzing thread's iteration (Job_i of Figure 3): build a program
// (generate or mutate), execute it under the recovery policy, then process
// its feedback — crash triage and reproduction, Algorithm 1 minimization,
// Algorithm 2 learning, corpus admission and the alpha outcome. Journal
// records, the exec/minimize/learn spans among them, are staged in
// `journal` for the owner to drain, except that each seed drains its own
// (seeding runs before fuzzing starts).
class FuzzLoop {
 public:
  // `enabled` lists the syscall ids the guests' kernel implements (the
  // pool's ExecTables::enabled); programs are built from those only.
  FuzzLoop(const Target& target, const std::vector<int>& enabled,
           const FuzzerOptions& options, FuzzState* state,
           RelationTable* relations, Bitmap* coverage, SimClock* clock,
           MetricRegistry* metrics, JournalWriter* journal);
  // The analysis callbacks hold `this`.
  FuzzLoop(const FuzzLoop&) = delete;
  FuzzLoop& operator=(const FuzzLoop&) = delete;

  // One fuzzing iteration.
  void Step();
  // Executes seed programs (counted as fuzzing executions) and processes
  // their feedback.
  void SeedWith(const std::vector<Prog>& seeds);
  // Moonshine's distilled seeds through SeedWith; a no-op for other tools.
  void SeedDistilled();

 private:
  CallChooser MakeChooser(bool* used_table);
  MaskExecFn AnalysisExec();
  // Executes the calls of `image` that `keep` marks (nullptr: all) under the
  // recovery policy: bounded retry with exponential backoff on the campaign
  // clock, quarantine-rebooting guests whose consecutive-failure streak
  // crosses the threshold. Returns the last attempt's result; a still-failed
  // result means the program's feedback must be discarded.
  ExecResult ExecWithRecovery(const ProgImage& image, const CallMask* keep,
                              Bitmap* coverage);
  // Accounts one fuzzing execution of a `len`-call program (`kind`:
  // generated, mutated or seeded) and returns its exec index.
  uint64_t CountFuzzExec(size_t len, const ExecResult& result, Counter* kind);
  void ProcessFeedback(const ProgImage& image, const ExecResult& result,
                       uint64_t exec_index);

  const Target& target_;
  const FuzzerOptions options_;
  FuzzState* state_;
  Bitmap* coverage_;
  SimClock* clock_;
  JournalWriter* journal_;
  FuzzMetrics m_;
  Rng rng_;
  // Region allocator for Step-scoped candidate programs; reset at the top
  // of every Step. Declared before builder_ (which borrows it) so the
  // builder is torn down first. Programs that survive into the corpus are
  // stored serialized (StoredProg); a mutated pick is decoded in here.
  ProgArena arena_;
  ProgBuilder builder_;
  CallSelector selector_;
  // Syzkaller and Moonshine only.
  std::unique_ptr<ChoiceTable> choice_table_;
  Minimizer minimizer_;
  DynamicLearner learner_;
  CrashReproducer reproducer_;
  uint64_t adjacency_notes_ = 0;
};

// Journals the edges of `delta` (a = influencing call, b = influenced
// call, c = `epoch`, the table epoch after the delta was applied; detail
// names the pair).
void JournalLearnedEdges(const Target& target, const RelationDelta& delta,
                         uint64_t epoch, JournalWriter* journal);

class Fuzzer : private FuzzState {
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
  // words via OrWord(), seed images via Corpus::Add — between Step()
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
  Journal& journal() { return journal_; }
  const Journal& journal() const { return journal_; }
  // Pushes the derived campaign-state gauges (coverage, corpus size,
  // relation counts, alpha, simulated hours) into the registry. Call before
  // snapshotting; counters and histograms are always current.
  void RefreshGauges();

 private:
  // ---- FuzzState: feedback applies in place ----
  bool CorpusEmpty() const override { return corpus_.empty(); }
  const StoredProg& Choose(Rng* rng) override {
    return corpus_.Choose(rng);
  }
  double Alpha() const override { return alpha_.alpha(); }
  void RecordAlpha(bool used_table, bool gained) override;
  uint64_t CountExec() override { return ++fuzz_execs_; }
  bool RecordCrash(const CrashRecord& report, const Prog& prog) override;
  void RecordRepro(BugId bug, Prog repro) override;
  // Learned edges apply per minimized sequence.
  RelationDelta* Delta() override { return &delta_; }
  void CommitRelations() override;
  size_t Admit(StoredProg prog, uint32_t priority) override;
  // Legacy topology: the historical health-skipping round robin
  // (pool_.Next()) and a no-op check-in. Fleet topology: pops a ready guest
  // from the next lane (pumping the lane's reactor shard when dry) and
  // returns it to the freelist — or parks it for an async reboot —
  // afterwards.
  GuestVm* CheckOut() override;
  void CheckIn(GuestVm* vm) override;

  // Assembles and writes one postmortem bundle for a previously-unseen bug
  // (see postmortem.h).
  void WritePostmortem(const CrashRecord& crash, const Prog& prog);

  const Target& target_;
  FuzzerOptions options_;
  SimClock clock_;
  // Declared before pool_: the VMs register their handles in metrics_.
  MetricRegistry metrics_;
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
  RelationDelta delta_;
  AlphaSchedule alpha_;
  std::map<BugId, Prog> repros_;
  // Bundle directories written per bug, so minimized reproducers can be
  // appended once minimization finishes.
  std::map<BugId, std::string> bundle_dirs_;
  uint64_t fuzz_execs_ = 0;
  size_t next_lane_ = 0;  // Fleet-mode lane rotation.
  size_t lane_ = 0;       // Lane of the checked-out guest.
  // Declared last: it borrows the state above.
  FuzzLoop loop_;
};

}  // namespace healer

#endif  // SRC_FUZZ_FUZZER_H_
