#include "src/fuzz/fuzzer.h"

#include <algorithm>

#include "src/base/logging.h"
#include "src/base/string_util.h"
#include "src/fuzz/moonshine.h"
#include "src/fuzz/postmortem.h"
#include "src/kernel/coverage.h"

namespace healer {

const char* ToolKindName(ToolKind tool) {
  switch (tool) {
    case ToolKind::kHealer:
      return "healer";
    case ToolKind::kHealerMinus:
      return "healer-";
    case ToolKind::kSyzkaller:
      return "syzkaller";
    case ToolKind::kMoonshine:
      return "moonshine";
  }
  return "?";
}

Result<ToolKind> ParseToolKind(std::string_view name) {
  std::string accepted;
  for (ToolKind tool : {ToolKind::kHealer, ToolKind::kHealerMinus,
                        ToolKind::kSyzkaller, ToolKind::kMoonshine}) {
    if (name == ToolKindName(tool)) {
      return tool;
    }
    accepted += accepted.empty() ? "" : "|";
    accepted += ToolKindName(tool);
  }
  return InvalidArgument("unknown tool '" + std::string(name) +
                         "' (accepted: " + accepted + ")");
}

const char* GuidanceModeName(GuidanceMode mode) {
  switch (mode) {
    case GuidanceMode::kDefault:
      return "default";
    case GuidanceMode::kStaticOnly:
      return "static-only";
    case GuidanceMode::kFixedAlpha:
      return "fixed-alpha";
  }
  return "?";
}

namespace {

PoolShape FuzzerPool(const FuzzerOptions& options) {
  return ShapePool(options.num_vms, options.fleet_size, options.fleet_shards);
}

}  // namespace

void JournalLearnedEdges(const Target& target, const RelationDelta& delta,
                         uint64_t epoch, JournalWriter* journal) {
  for (const RelationEdge& edge : delta.edges()) {
    journal->Record(JournalKind::kRelationLearned, edge.learned_at,
                    static_cast<uint64_t>(edge.from),
                    static_cast<uint64_t>(edge.to), epoch,
                    StrFormat("%s->%s", target.syscall(edge.from).name.c_str(),
                              target.syscall(edge.to).name.c_str()));
  }
}

// ---- FuzzLoop ----

FuzzLoop::FuzzLoop(const Target& target, const std::vector<int>& enabled,
                   const FuzzerOptions& options, FuzzState* state,
                   RelationTable* relations, Bitmap* coverage,
                   SimClock* clock, MetricRegistry* metrics,
                   JournalWriter* journal)
    : target_(target),
      options_(options),
      state_(state),
      coverage_(coverage),
      clock_(clock),
      journal_(journal),
      m_(metrics),
      rng_(options.seed),
      builder_(target, enabled, &rng_),
      selector_(relations, builder_.enabled(), &rng_),
      minimizer_(AnalysisExec()),
      learner_(relations, AnalysisExec(), clock),
      reproducer_(AnalysisExec()) {
  builder_.set_arena(&arena_);
  if (options_.tool == ToolKind::kSyzkaller ||
      options_.tool == ToolKind::kMoonshine) {
    choice_table_ = std::make_unique<ChoiceTable>(target_, builder_.enabled());
  }
}

MaskExecFn FuzzLoop::AnalysisExec() {
  // Analysis runs (minimization / dynamic learning / crash reproduction)
  // are call masks over the program the fuzzing execution just shipped.
  // They execute on the VM fleet and consume simulated time, but do not
  // merge into campaign coverage. They go through the same recovery policy
  // as fuzzing executions; a still-failed result reaches the
  // minimizer/learner as a typed failure, which both treat as "no
  // information".
  return [this](const ProgImage& base, const CallMask& keep) {
    m_.analysis_execs->Add();
    return ExecWithRecovery(base, &keep, nullptr);
  };
}

ExecResult FuzzLoop::ExecWithRecovery(const ProgImage& image,
                                      const CallMask* keep, Bitmap* coverage) {
  const JournalSpan span(journal_, clock_, "exec");
  // Length of the program that runs, for the journal.
  const size_t len =
      keep == nullptr ? image.prog().size()
                      : static_cast<size_t>(
                            std::count(keep->begin(), keep->end(), 1));
  SimClock::Nanos backoff = options_.recovery.backoff;
  int attempt = 0;
  while (true) {
    GuestVm& vm = *state_->CheckOut();
    m_.exec_attempts->Add();
    ExecResult result = vm.Exec(image, keep, coverage);
    if (!result.Failed()) {
      state_->CheckIn(&vm);
      m_.exec_ok->Add();
      if (attempt > 0) {
        m_.exec_recovered->Add();
        // Payload: a = retries it took, b = program length.
        journal_->Record(JournalKind::kRecovery, clock_->now(),
                         static_cast<uint64_t>(attempt), len);
      }
      return result;
    }
    m_.exec_failed->Add();
    // Payload: a = attempt index, b = program length.
    journal_->Record(JournalKind::kFault, clock_->now(),
                     static_cast<uint64_t>(attempt), len, 0,
                     ExecFailureName(result.failure));
    if (vm.consecutive_failures() >= options_.recovery.quarantine_threshold) {
      vm.QuarantineReboot();
      m_.quarantines->Add();
    }
    state_->CheckIn(&vm);
    if (attempt >= options_.recovery.max_retries) {
      m_.exec_discarded->Add();
      return result;
    }
    ++attempt;
    m_.exec_retries->Add();
    clock_->Advance(backoff);
    backoff *= 2;
  }
}

CallChooser FuzzLoop::MakeChooser(bool* used_table) {
  switch (options_.tool) {
    case ToolKind::kHealer:
      return [this, used_table](const std::vector<int>& prefix) {
        const double alpha = options_.guidance == GuidanceMode::kFixedAlpha
                                 ? options_.fixed_alpha
                                 : state_->Alpha();
        bool used = false;
        const int pick = selector_.Select(prefix, alpha, &used);
        *used_table |= used;
        return pick;
      };
    case ToolKind::kHealerMinus:
      return [this](const std::vector<int>&) {
        return selector_.RandomCall();
      };
    case ToolKind::kSyzkaller:
    case ToolKind::kMoonshine:
      return [this](const std::vector<int>& prefix) {
        return choice_table_->Choose(&rng_,
                                     prefix.empty() ? -1 : prefix.back());
      };
  }
  return [this](const std::vector<int>&) { return selector_.RandomCall(); };
}

void FuzzLoop::SeedDistilled() {
  if (options_.tool != ToolKind::kMoonshine) {
    return;
  }
  Rng seed_rng(options_.seed ^ 0x5eedULL);
  SeedWith(MoonshineSeeds(target_, builder_.enabled(),
                          options_.moonshine_traces, &seed_rng));
}

void FuzzLoop::SeedWith(const std::vector<Prog>& seeds) {
  for (const Prog& seed : seeds) {
    if (seed.empty() || !seed.Validate().ok()) {
      continue;
    }
    const ProgImage image(seed);
    const ExecResult result = ExecWithRecovery(image, nullptr, coverage_);
    const uint64_t exec_index =
        CountFuzzExec(seed.size(), result, m_.seeded);
    if (!result.Failed()) {
      ProcessFeedback(image, result, exec_index);
    }
    journal_->Flush();
  }
}

void FuzzLoop::Step() {
  // Everything from the previous iteration is dead: reclaim all candidate
  // nodes at once. `prog` below (and anything the builder creates) lives in
  // the arena until the next Step.
  arena_.Reset();
  bool used_table = false;
  CallChooser chooser = MakeChooser(&used_table);

  Prog prog(&target_);
  const bool generate = state_->CorpusEmpty() || rng_.Chance(2, 5);
  if (generate) {
    const size_t len =
        rng_.InRange(options_.gen_len_min, options_.gen_len_max);
    prog = builder_.Generate(chooser, len);
  } else {
    prog = state_->Choose(&rng_).CloneInto(&arena_);
    // Insertion first (call selection is where guidance acts), then
    // parameter mutation.
    if (rng_.Chance(7, 10)) {
      builder_.MutateInsert(&prog, chooser);
    }
    if (rng_.Chance(6, 10)) {
      builder_.MutateArgs(&prog);
    }
  }
  if (prog.empty()) {
    return;
  }

  const ProgImage image(prog);
  const ExecResult result = ExecWithRecovery(image, nullptr, coverage_);
  const uint64_t exec_index = CountFuzzExec(
      prog.size(), result, generate ? m_.generated : m_.mutated);
  if (result.Failed()) {
    // Never merge partial feedback from a faulted execution: no coverage
    // was recorded (the VM guarantees that), no alpha update, no corpus or
    // relation learning.
    return;
  }
  if (options_.tool == ToolKind::kHealer) {
    state_->RecordAlpha(used_table, result.TotalNewEdges() > 0);
  }
  ProcessFeedback(image, result, exec_index);
}

uint64_t FuzzLoop::CountFuzzExec(size_t len, const ExecResult& result,
                                 Counter* kind) {
  const uint64_t exec_index = state_->CountExec();
  m_.fuzz_execs->Add();
  kind->Add();
  m_.prog_len->Observe(len);
  // Payload: a = fuzz-exec index, b = new edges, c = program length; a
  // still-failed execution carries its failure kind in `detail`.
  journal_->Record(JournalKind::kExec, clock_->now(), exec_index,
                   result.TotalNewEdges(), len,
                   result.Failed() ? ExecFailureName(result.failure) : "");
  if (!result.Failed()) {
    m_.coverage_edges->Add(result.TotalNewEdges());
    if (result.TotalNewEdges() > 0) {
      m_.exec_new_edges->Observe(result.TotalNewEdges());
    }
  }
  return exec_index;
}

void FuzzLoop::ProcessFeedback(const ProgImage& image,
                               const ExecResult& result,
                               uint64_t exec_index) {
  if (result.Crashed()) {
    const CrashInfo& crash = *result.crash;
    const SimClock::Nanos now = clock_->now();
    m_.crash_reports->Add();
    // Payload: a = bug id, b = fuzz-exec index, c = crashing call index.
    journal_->Record(JournalKind::kCrash, now,
                     static_cast<uint64_t>(crash.bug), exec_index,
                     crash.call_index, crash.title);
    // Until it is minimized, the crashing prefix is the bug's reproducer.
    const CrashRecord report{crash.bug, crash.title,          now,
                             exec_index, crash.call_index + 1, 1};
    // For newly found bugs, extract the smallest reproducer (Section 4's
    // crash reproduction component). The extra executions run on the VM
    // fleet and consume simulated time like any other analysis.
    if (state_->RecordCrash(report, image.prog())) {
      m_.crash_new->Add();
      std::optional<CrashRepro> repro = reproducer_.Minimize(image, crash.bug);
      if (repro.has_value()) {
        state_->RecordRepro(crash.bug, std::move(repro->prog));
      }
    }
  }
  if (result.TotalNewEdges() == 0) {
    return;
  }
  // Minimize, then learn relations from / archive each minimal sequence.
  const uint64_t min_before = minimizer_.execs_used();
  std::vector<MinimizedSeq> minimized;
  {
    const JournalSpan span(journal_, clock_, "minimize");
    minimized = minimizer_.Minimize(image, result);
  }
  m_.minimize_rounds->Add();
  const uint64_t min_probes = minimizer_.execs_used() - min_before;
  m_.minimize_probes->Add(min_probes);
  m_.minimize_execs->Observe(min_probes);
  for (MinimizedSeq& seq : minimized) {
    if (options_.tool == ToolKind::kHealer &&
        options_.guidance != GuidanceMode::kStaticOnly) {
      const uint64_t learn_before = learner_.execs_used();
      size_t staged = 0;
      {
        const JournalSpan span(journal_, clock_, "learn");
        staged = learner_.LearnInto(image, seq.keep, state_->Delta());
      }
      m_.learn_rounds->Add();
      const uint64_t learn_probes = learner_.execs_used() - learn_before;
      m_.learn_probes->Add(learn_probes);
      m_.learn_execs->Observe(learn_probes);
      if (staged > 0) {
        state_->CommitRelations();
      }
    }
    if (choice_table_ != nullptr && seq.prog.size() >= 2) {
      for (size_t i = 1; i < seq.prog.size(); ++i) {
        choice_table_->NoteAdjacent(seq.prog.calls()[i - 1].meta->id,
                                    seq.prog.calls()[i].meta->id);
      }
      if (++adjacency_notes_ % 32 == 0) {
        choice_table_->Rebuild();
      }
    }
    const uint32_t prio =
        std::max<uint32_t>(1, result.TotalNewEdges());
    // Payload: a = admitted length, b = priority, c = corpus size after
    // (0 where the state does not know it yet: a parallel worker's add
    // lands at its next publish).
    const uint64_t admitted_len = seq.prog.size();
    const size_t corpus_size = state_->Admit(StoredProg(seq.prog), prio);
    m_.corpus_adds->Add();
    journal_->Record(JournalKind::kCorpusAdd, clock_->now(), admitted_len,
                     prio, corpus_size);
  }
}

// ---- Fuzzer ----

Fuzzer::Fuzzer(const Target& target, FuzzerOptions options)
    : target_(target),
      options_(options),
      pool_(target, KernelConfig::ForVersion(options.version), &clock_,
            FuzzerPool(options).guests, options.latency, options.fault_plan,
            options.seed, &metrics_, FuzzerPool(options).fleet),
      coverage_(CallCoverage::kMapBits),
      relations_(std::make_unique<RelationTable>(target.NumSyscalls())),
      loop_(target, pool_.tables().enabled, options_, this, relations_.get(),
            &coverage_, &clock_, &metrics_, &journal_writer_) {
  for (size_t i = 0; i < pool_.size(); ++i) {
    pool_.vm(i).set_journal(&journal_writer_);
  }
  if (pool_.fleet()) {
    // Single-threaded fuzzer: one producer, so the shards flush through the
    // same writer the VMs record into.
    for (size_t s = 0; s < pool_.num_shards(); ++s) {
      pool_.set_shard_journal(s, &journal_writer_);
    }
  }
  if (options_.tool == ToolKind::kHealer) {
    // Static learning runs once at initialization (Section 6.2).
    StaticRelationLearn(target_, relations_.get());
    // One summary record stands in for the per-edge stream: static edges
    // are description-derived, not observed, so per-pair provenance is
    // the descriptions themselves.
    journal_writer_.Record(JournalKind::kRelationLearned, clock_.now(),
                           relations_->Count(), 0, relations_->epoch(),
                           "static");
  }
  loop_.SeedDistilled();
  journal_writer_.Flush();
}

void Fuzzer::Step() {
  loop_.Step();
  journal_writer_.Flush();
}

void Fuzzer::SeedWith(const std::vector<Prog>& seeds) {
  loop_.SeedWith(seeds);
}

GuestVm* Fuzzer::CheckOut() {
  if (!pool_.fleet()) {
    return &pool_.Next();
  }
  lane_ = next_lane_;
  next_lane_ = (next_lane_ + 1) % pool_.num_lanes();
  GuestVm* vm = pool_.AcquireReady(lane_);
  // All fleet guests share the fuzzer's single-producer writer (the
  // fuzzing loop is one thread, and it is the only pumper too).
  vm->set_journal(&journal_writer_);
  return vm;
}

void Fuzzer::CheckIn(GuestVm* vm) {
  if (pool_.fleet()) {
    pool_.Release(lane_, vm);
  }
}

void Fuzzer::RecordAlpha(bool used_table, bool gained) {
  const uint64_t updates = alpha_.updates();
  alpha_.Record(used_table, gained);
  if (alpha_.updates() != updates) {
    m_.alpha_updates->Add();
    m_.alpha->Set(alpha_.alpha());
    // A zero-length span marks the update.
    journal_writer_.Record(JournalKind::kSpan, clock_.now(), 0, 0, 0,
                           "alpha-update");
  }
}

bool Fuzzer::RecordCrash(const CrashRecord& report, const Prog& prog) {
  // Publish the staged records so a postmortem bundle sees this crash (and
  // everything before it).
  journal_writer_.Flush();
  if (!crash_db_.Record(report.bug, report.title, report.first_seen,
                        report.first_exec, report.shortest_repro)) {
    return false;
  }
  if (!options_.postmortem_dir.empty()) {
    WritePostmortem(*crash_db_.Find(report.bug), prog);
  }
  return true;
}

void Fuzzer::RecordRepro(BugId bug, Prog repro) {
  crash_db_.NoteRepro(bug, repro.size());
  auto bundle_it = bundle_dirs_.find(bug);
  if (bundle_it != bundle_dirs_.end()) {
    WritePostmortemRepro(bundle_it->second, repro.ToString() + "\n");
  }
  repros_.emplace(bug, std::move(repro));
}

void Fuzzer::CommitRelations() {
  // Apply instead of DynamicLearner::Learn: the staged delta is the only
  // point where per-edge provenance (the observed pair, its epoch) is still
  // visible, so the journal records are cut from it.
  const size_t learned = relations_->Apply(delta_);
  JournalLearnedEdges(target_, delta_, relations_->epoch(), &journal_writer_);
  if (learned > 0) {
    m_.relations_learned->Add(learned);
  }
  delta_.clear();
}

size_t Fuzzer::Admit(StoredProg prog, uint32_t priority) {
  corpus_.Add(std::move(prog), priority);
  return corpus_.size();
}

FaultStats Fuzzer::fault_stats() const {
  FaultStats stats = pool_.InjectedStats();
  stats.Merge(m_.RecoveryStats());
  return stats;
}

void Fuzzer::RefreshGauges() {
  m_.SetStateGauges(coverage_.Count(), corpus_.size(), *relations_,
                    crash_db_.UniqueBugs(),
                    options_.guidance == GuidanceMode::kFixedAlpha
                        ? options_.fixed_alpha
                        : alpha_.alpha(),
                    clock_.now());
}

Result<size_t> Fuzzer::LoadRelations(const std::string& path) {
  return relations_->LoadFromFile(path, target_);
}

Status Fuzzer::SaveRelations(const std::string& path) const {
  return relations_->SaveToFile(path, target_);
}

void Fuzzer::WritePostmortem(const CrashRecord& crash, const Prog& prog) {
  PostmortemBundle bundle;
  bundle.crash = crash;
  bundle.seed = options_.seed;
  bundle.tool = ToolKindName(options_.tool);
  bundle.program_text = prog.ToString() + "\n";
  bundle.journal_window = journal_.Tail(kPostmortemJournalWindow);
  RefreshGauges();
  bundle.metrics = metrics_.Snapshot();
  bundle.relation_epoch = relations_->epoch();
  bundle.relation_edges = relations_->Count();
  bundle.relation_static =
      relations_->CountBySource(RelationSource::kStatic);
  bundle.relation_dynamic =
      relations_->CountBySource(RelationSource::kDynamic);
  bundle.relation_backlog = 0;  // Single-threaded: deltas apply in place.
  Result<std::string> written =
      WritePostmortemBundle(options_.postmortem_dir, bundle);
  if (written.ok()) {
    bundle_dirs_[crash.bug] = *written;
  } else {
    LOG_WARNING << "postmortem bundle for bug "
                << static_cast<int>(crash.bug)
                << " not written: " << written.status().ToString();
  }
}

const Prog* Fuzzer::ReproFor(BugId bug) const {
  auto it = repros_.find(bug);
  return it == repros_.end() ? nullptr : &it->second;
}

}  // namespace healer
