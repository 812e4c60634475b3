#include "perfbench/traced_fuzzer.h"

#include <algorithm>
#include <sstream>

#include "src/base/hash.h"
#include "src/base/string_util.h"
#include "src/kernel/coverage.h"

namespace perfbench {

using healer::Prog;

namespace {

// Same selection as the Fuzzer's: every description whose handler exists in
// the configured kernel version.
std::vector<int> EnabledSyscalls(const healer::Target& target,
                                 const healer::KernelConfig& config) {
  std::vector<int> enabled;
  for (const auto& call : target.syscalls()) {
    const healer::SyscallDef* def = healer::FindSyscallDef(call->name);
    if (def != nullptr && healer::SyscallAvailable(*def, config)) {
      enabled.push_back(call->id);
    }
  }
  return enabled;
}

// The legacy pinned pool exactly as the Fuzzer configures it: one lane per
// VM and one reactor shard.
healer::FleetOptions PinnedFleet(const healer::FuzzerOptions& options) {
  healer::FleetOptions fleet;
  fleet.lanes = options.num_vms;
  fleet.shards = 1;
  return fleet;
}

std::vector<int> BugIds(const healer::CrashDb& crashes) {
  std::vector<int> bugs;
  for (const healer::CrashRecord& record : crashes.All()) {
    bugs.push_back(static_cast<int>(record.bug));
  }
  std::sort(bugs.begin(), bugs.end());
  return bugs;
}

}  // namespace

std::string CampaignFingerprint::ToString() const {
  std::ostringstream out;
  out << "coverage=" << coverage << " corpus=" << corpus_size << " corpus_hash="
      << corpus_hash << " relations=" << relations << " (" << relations_static
      << " static, " << relations_dynamic << " dynamic) bugs=" << bugs.size()
      << " fuzz_execs=" << fuzz_execs << " total_execs=" << total_execs;
  return out.str();
}

uint64_t CorpusHash(const healer::Corpus& corpus) {
  std::vector<uint64_t> hashes;
  hashes.reserve(corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    hashes.push_back(healer::Corpus::ContentHash(corpus.at(i)));
  }
  std::sort(hashes.begin(), hashes.end());
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (uint64_t x : hashes) {
    h = healer::HashCombine(h, healer::Mix64(x));
  }
  return h;
}

CampaignFingerprint FingerprintOf(const healer::Fuzzer& fuzzer) {
  CampaignFingerprint fp;
  fp.coverage = fuzzer.CoverageCount();
  fp.corpus_size = fuzzer.corpus().size();
  fp.corpus_hash = CorpusHash(fuzzer.corpus());
  fp.relations = fuzzer.relations().Count();
  fp.relations_static =
      fuzzer.relations().CountBySource(healer::RelationSource::kStatic);
  fp.relations_dynamic =
      fuzzer.relations().CountBySource(healer::RelationSource::kDynamic);
  fp.bugs = BugIds(fuzzer.crashes());
  fp.fuzz_execs = fuzzer.FuzzExecs();
  fp.total_execs = fuzzer.TotalExecs();
  return fp;
}

TracedFuzzer::TracedFuzzer(const healer::Target& target,
                           healer::FuzzerOptions options,
                           SpanRecorder* recorder, const LoopLayers& layers)
    : target_(target),
      options_(options),
      rec_(recorder),
      layers_(layers),
      rng_(options.seed),
      pool_(target, healer::KernelConfig::ForVersion(options.version), &clock_,
            options.num_vms, options.latency, options.fault_plan, options.seed,
            &metrics_, PinnedFleet(options)),
      coverage_(healer::CallCoverage::kMapBits),
      builder_(target,
               EnabledSyscalls(target,
                               healer::KernelConfig::ForVersion(
                                   options.version)),
               &rng_),
      minimizer_(AnalysisExec()),
      learner_(nullptr, AnalysisExec(), &clock_),
      reproducer_(AnalysisExec()) {
  builder_.set_arena(&arena_);
  for (size_t i = 0; i < pool_.size(); ++i) {
    pool_.vm(i).set_journal(&journal_writer_);
  }
  relations_ = std::make_unique<healer::RelationTable>(target.NumSyscalls());
  healer::StaticRelationLearn(target_, relations_.get());
  journal_writer_.Record(healer::JournalKind::kRelationLearned, clock_.now(),
                         relations_->Count(), 0, relations_->epoch(),
                         "static");
  selector_ = std::make_unique<healer::CallSelector>(
      relations_.get(), builder_.enabled(), &rng_);
  learner_ = healer::DynamicLearner(relations_.get(), AnalysisExec(), &clock_);
  journal_writer_.Flush();
}

healer::ExecFn TracedFuzzer::AnalysisExec() {
  return [this](const Prog& prog) {
    m_.analysis_execs->Add();
    return ExecWithRecovery(prog, nullptr);
  };
}

healer::Result<size_t> TracedFuzzer::LoadRelations(const std::string& path) {
  return relations_->LoadFromFile(path, target_);
}

healer::ExecResult TracedFuzzer::ExecWithRecovery(const Prog& prog,
                                                  healer::Bitmap* coverage) {
  Span span(rec_, layers_.vm_exec);
  healer::SimClock::Nanos backoff = options_.recovery.backoff;
  int attempt = 0;
  while (true) {
    healer::GuestVm& vm = pool_.Next();
    m_.exec_attempts->Add();
    healer::ExecResult result = vm.Exec(prog, coverage);
    if (!result.Failed()) {
      m_.exec_ok->Add();
      if (attempt > 0) {
        m_.exec_recovered->Add();
        journal_writer_.Record(healer::JournalKind::kRecovery, clock_.now(),
                               static_cast<uint64_t>(attempt), prog.size());
      }
      return result;
    }
    m_.exec_failed->Add();
    journal_writer_.Record(healer::JournalKind::kFault, clock_.now(),
                           static_cast<uint64_t>(attempt), prog.size(), 0,
                           healer::ExecFailureName(result.failure));
    if (vm.consecutive_failures() >=
        options_.recovery.quarantine_threshold) {
      vm.QuarantineReboot();
      m_.quarantines->Add();
    }
    if (attempt >= options_.recovery.max_retries) {
      m_.exec_discarded->Add();
      return result;
    }
    ++attempt;
    m_.exec_retries->Add();
    clock_.Advance(backoff);
    backoff *= 2;
  }
}

void TracedFuzzer::SeedWith(const std::vector<Prog>& seeds) {
  for (const Prog& seed : seeds) {
    if (seed.empty() || !seed.Validate().ok()) {
      continue;
    }
    const healer::ExecResult result = ExecWithRecovery(seed, &coverage_);
    ++fuzz_execs_;
    m_.fuzz_execs->Add();
    m_.seeded->Add();
    m_.prog_len->Observe(seed.size());
    journal_writer_.Record(healer::JournalKind::kExec, clock_.now(),
                           fuzz_execs_, result.TotalNewEdges(), seed.size(),
                           result.Failed()
                               ? healer::ExecFailureName(result.failure)
                               : "");
    if (result.Failed()) {
      journal_writer_.Flush();
      continue;
    }
    m_.coverage_edges->Add(result.TotalNewEdges());
    if (result.TotalNewEdges() > 0) {
      m_.exec_new_edges->Observe(result.TotalNewEdges());
    }
    ProcessFeedback(seed, result);
    journal_writer_.Flush();
  }
}

void TracedFuzzer::Step() {
  Span step(rec_, layers_.step);
  {
    Span span(rec_, layers_.arena);
    arena_.Reset();
  }
  bool used_table = false;
  healer::CallChooser chooser = [this, &used_table](
                                    const std::vector<int>& prefix) {
    Span span(rec_, layers_.call_selector);
    bool used = false;
    const int pick = selector_->Select(prefix, alpha_.alpha(), &used);
    used_table |= used;
    return pick;
  };

  Prog prog(&target_);
  const bool generate = corpus_.empty() || rng_.Chance(2, 5);
  if (generate) {
    const size_t len =
        rng_.InRange(options_.gen_len_min, options_.gen_len_max);
    Span span(rec_, layers_.prog_builder);
    prog = builder_.Generate(chooser, len);
  } else {
    {
      Span span(rec_, layers_.corpus_choose);
      prog = corpus_.Choose(&rng_).CloneInto(&arena_);
    }
    if (rng_.Chance(7, 10)) {
      Span span(rec_, layers_.prog_builder);
      builder_.MutateInsert(&prog, chooser);
    }
    if (rng_.Chance(6, 10)) {
      Span span(rec_, layers_.prog_builder);
      builder_.MutateArgs(&prog);
    }
  }
  if (prog.empty()) {
    return;
  }

  healer::ExecResult result = ExecWithRecovery(prog, &coverage_);
  ++fuzz_execs_;
  if (sample_every_ != 0 && fuzz_execs_ % sample_every_ == 0) {
    Span span(rec_, layers_.sample);
    samples_.push_back(prog.Clone());
  }
  const bool gained = result.TotalNewEdges() > 0;
  {
    Span span(rec_, layers_.telemetry);
    m_.fuzz_execs->Add();
    (generate ? m_.generated : m_.mutated)->Add();
    m_.prog_len->Observe(prog.size());
    journal_writer_.Record(
        healer::JournalKind::kExec, clock_.now(), fuzz_execs_,
        result.TotalNewEdges(), prog.size(),
        result.Failed() ? healer::ExecFailureName(result.failure) : "");
    if (result.Failed()) {
      journal_writer_.Flush();
      return;
    }
    m_.coverage_edges->Add(result.TotalNewEdges());
    if (gained) {
      m_.exec_new_edges->Observe(result.TotalNewEdges());
    }
    alpha_.Record(used_table, gained);
    if (alpha_.updates() != last_alpha_updates_) {
      last_alpha_updates_ = alpha_.updates();
      m_.alpha_updates->Add();
      m_.alpha->Set(alpha_.alpha());
    }
  }
  ProcessFeedback(prog, result);
  {
    Span span(rec_, layers_.telemetry);
    journal_writer_.Flush();
  }
  // The untraced step frees both when it returns; here that happens inside
  // a span, so the teardown is attributed rather than left in the step.
  Span span(rec_, layers_.release);
  prog = Prog(&target_);
  result = healer::ExecResult();
}

void TracedFuzzer::ProcessFeedback(const Prog& prog,
                                   const healer::ExecResult& result) {
  if (result.Crashed()) {
    m_.crash_reports->Add();
    journal_writer_.Record(healer::JournalKind::kCrash, clock_.now(),
                           static_cast<uint64_t>(result.crash->bug),
                           fuzz_execs_, result.crash->call_index,
                           result.crash->title);
    journal_writer_.Flush();
    const bool is_new =
        crash_db_.Record(result.crash->bug, result.crash->title, clock_.now(),
                         fuzz_execs_, result.crash->call_index + 1);
    if (is_new) {
      m_.crash_new->Add();
      std::optional<healer::CrashRepro> repro;
      {
        Span span(rec_, layers_.repro);
        repro = reproducer_.Minimize(prog, result.crash->bug);
      }
      if (repro.has_value()) {
        crash_db_.Record(result.crash->bug, result.crash->title, clock_.now(),
                         fuzz_execs_, repro->prog.size());
        repros_.emplace(result.crash->bug, std::move(repro->prog));
      }
    }
  }
  if (result.TotalNewEdges() == 0) {
    return;
  }
  const uint64_t min_before = minimizer_.execs_used();
  std::vector<healer::MinimizedSeq> minimized;
  {
    Span span(rec_, layers_.minimizer);
    minimized = minimizer_.Minimize(prog, result);
  }
  m_.minimize_rounds->Add();
  const uint64_t min_probes = minimizer_.execs_used() - min_before;
  m_.minimize_probes->Add(min_probes);
  m_.minimize_execs->Observe(min_probes);
  for (healer::MinimizedSeq& seq : minimized) {
    const uint64_t learn_before = learner_.execs_used();
    healer::RelationDelta delta;
    size_t staged = 0;
    {
      Span span(rec_, layers_.learner);
      staged = learner_.LearnInto(seq.prog, &delta);
    }
    m_.learn_rounds->Add();
    const uint64_t learn_probes = learner_.execs_used() - learn_before;
    m_.learn_probes->Add(learn_probes);
    m_.learn_execs->Observe(learn_probes);
    if (staged > 0) {
      Span span(rec_, layers_.relation_apply);
      const size_t learned = relations_->Apply(delta);
      for (const healer::RelationEdge& edge : delta.edges()) {
        journal_writer_.Record(
            healer::JournalKind::kRelationLearned, edge.learned_at,
            static_cast<uint64_t>(edge.from), static_cast<uint64_t>(edge.to),
            relations_->epoch(),
            healer::StrFormat("%s->%s",
                              target_.syscall(edge.from).name.c_str(),
                              target_.syscall(edge.to).name.c_str()));
      }
      if (learned > 0) {
        m_.relations_learned->Add(learned);
      }
    }
    const uint32_t prio = std::max<uint32_t>(1, result.TotalNewEdges());
    const uint64_t admitted_len = seq.prog.size();
    {
      Span span(rec_, layers_.corpus_add);
      corpus_.Add(std::move(seq.prog), prio);
    }
    m_.corpus_adds->Add();
    journal_writer_.Record(healer::JournalKind::kCorpusAdd, clock_.now(),
                           admitted_len, prio, corpus_.size());
  }
}

CampaignFingerprint TracedFuzzer::Fingerprint() const {
  CampaignFingerprint fp;
  fp.coverage = coverage_.Count();
  fp.corpus_size = corpus_.size();
  fp.corpus_hash = CorpusHash(corpus_);
  fp.relations = relations_->Count();
  fp.relations_static =
      relations_->CountBySource(healer::RelationSource::kStatic);
  fp.relations_dynamic =
      relations_->CountBySource(healer::RelationSource::kDynamic);
  fp.bugs = BugIds(crash_db_);
  fp.fuzz_execs = fuzz_execs_;
  fp.total_execs = pool_.TotalExecs();
  return fp;
}

}  // namespace perfbench
