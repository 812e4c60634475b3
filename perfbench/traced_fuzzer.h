// A traced copy of the single-threaded fuzzing loop.
//
// TracedFuzzer assembles the same components a healer::Fuzzer owns — the
// VmPool, ProgBuilder, CallSelector, Corpus, Minimizer, DynamicLearner,
// CrashReproducer, RelationTable and AlphaSchedule — through their public
// constructors, in the same order and with the same production defaults, and
// runs Fuzzer::Step's sequence of calls with a host-time span around each
// call into a layer. For a given seed it consumes the same random draws and
// ends in the same state as the untraced Fuzzer; the driver checks that
// (FingerprintOf) before it reports any per-layer number.
//
// Only the default configuration is mirrored: the HEALER tool, default
// guidance, the legacy pinned two-VM pool and the shm-channel transport.

#ifndef PERFBENCH_TRACED_FUZZER_H_
#define PERFBENCH_TRACED_FUZZER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/spans.h"
#include "src/fuzz/fuzzer.h"

namespace perfbench {

// Layer ids of the spans the traced loop records.
struct LoopLayers {
  explicit LoopLayers(SpanRecorder* recorder)
      : step(recorder->Layer("fuzz.step")),
        prog_builder(recorder->Layer("prog_builder")),
        call_selector(recorder->Layer("call_selector")),
        corpus_choose(recorder->Layer("corpus.choose")),
        corpus_add(recorder->Layer("corpus.add")),
        vm_exec(recorder->Layer("vm.exec")),
        minimizer(recorder->Layer("minimizer")),
        learner(recorder->Layer("learner")),
        relation_apply(recorder->Layer("relation_table.apply")),
        repro(recorder->Layer("repro")),
        arena(recorder->Layer("prog.arena")),
        telemetry(recorder->Layer("base.telemetry")),
        sample(recorder->Layer("perfbench.sample")),
        release(recorder->Layer("prog.release")) {}

  int step;
  int prog_builder;
  int call_selector;
  int corpus_choose;
  int corpus_add;
  int vm_exec;
  int minimizer;
  int learner;
  int relation_apply;
  int repro;
  int arena;      // ProgArena::Reset at the top of each step.
  int telemetry;  // Metric updates, journal records and flushes.
  int sample;     // The benchmark's own copy of sampled programs.
  int release;    // Freeing the step's program and execution result.
};

// The observable end state of a single-threaded campaign; equal
// fingerprints mean two runs made the same campaign.
struct CampaignFingerprint {
  size_t coverage = 0;
  size_t corpus_size = 0;
  uint64_t corpus_hash = 0;
  size_t relations = 0;
  size_t relations_static = 0;
  size_t relations_dynamic = 0;
  std::vector<int> bugs;
  uint64_t fuzz_execs = 0;
  uint64_t total_execs = 0;

  bool operator==(const CampaignFingerprint& other) const = default;
  std::string ToString() const;
};

// Order-independent hash of a corpus's program contents.
uint64_t CorpusHash(const healer::Corpus& corpus);
CampaignFingerprint FingerprintOf(const healer::Fuzzer& fuzzer);

class TracedFuzzer {
 public:
  // `options` must keep the defaults listed above; only the seed and
  // kernel version may differ.
  TracedFuzzer(const healer::Target& target, healer::FuzzerOptions options,
               SpanRecorder* recorder, const LoopLayers& layers);

  void Step();
  void SeedWith(const std::vector<healer::Prog>& seeds);
  healer::Result<size_t> LoadRelations(const std::string& path);

  CampaignFingerprint Fingerprint() const;
  uint64_t FuzzExecs() const { return fuzz_execs_; }
  size_t DynamicRelations() const {
    return relations_->CountBySource(healer::RelationSource::kDynamic);
  }

  // Every `every`-th fuzzing program is kept (as a heap copy) for the
  // wire/executor replay; 0 keeps none.
  void set_sample_every(size_t every) { sample_every_ = every; }
  const std::vector<healer::Prog>& samples() const { return samples_; }

 private:
  healer::ExecFn AnalysisExec();
  healer::ExecResult ExecWithRecovery(const healer::Prog& prog,
                                      healer::Bitmap* coverage);
  void ProcessFeedback(const healer::Prog& prog,
                       const healer::ExecResult& result);

  const healer::Target& target_;
  healer::FuzzerOptions options_;
  SpanRecorder* rec_;
  LoopLayers layers_;

  healer::Rng rng_;
  healer::SimClock clock_;
  healer::MetricRegistry metrics_;
  healer::Journal journal_{options_.journal_capacity};
  healer::JournalWriter journal_writer_{&journal_, 0};
  healer::FuzzMetrics m_{&metrics_};
  healer::VmPool pool_;
  healer::Bitmap coverage_;
  healer::Corpus corpus_;
  healer::CrashDb crash_db_;
  std::unique_ptr<healer::RelationTable> relations_;
  std::unique_ptr<healer::CallSelector> selector_;
  healer::ProgArena arena_;
  healer::ProgBuilder builder_;
  healer::Minimizer minimizer_;
  healer::DynamicLearner learner_;
  healer::CrashReproducer reproducer_;
  healer::AlphaSchedule alpha_;
  std::map<healer::BugId, healer::Prog> repros_;
  uint64_t fuzz_execs_ = 0;
  uint64_t last_alpha_updates_ = 0;
  size_t sample_every_ = 0;
  std::vector<healer::Prog> samples_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_FUZZER_H_
