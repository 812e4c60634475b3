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

std::vector<int> EnabledSyscalls(const Target& target,
                                 const KernelConfig& config) {
  std::vector<int> enabled;
  for (const auto& call : target.syscalls()) {
    const SyscallDef* def = FindSyscallDef(call->name);
    if (def != nullptr && SyscallAvailable(*def, config)) {
      enabled.push_back(call->id);
    }
  }
  return enabled;
}

size_t PoolCount(const FuzzerOptions& options) {
  return options.fleet_size == 0
             ? options.num_vms
             : std::max(options.fleet_size, options.num_vms);
}

FleetOptions PoolFleet(const FuzzerOptions& options) {
  FleetOptions fleet;
  fleet.lanes = options.num_vms;
  fleet.shards = options.fleet_shards != 0
                     ? options.fleet_shards
                     : std::clamp<size_t>(PoolCount(options) / 256, 1,
                                          std::max<size_t>(options.num_vms, 1));
  return fleet;
}

}  // namespace

Fuzzer::Fuzzer(const Target& target, FuzzerOptions options)
    : target_(target),
      options_(options),
      rng_(options.seed),
      pool_(target, KernelConfig::ForVersion(options.version), &clock_,
            PoolCount(options), options.latency, options.fault_plan,
            options.seed, &metrics_, PoolFleet(options)),
      coverage_(CallCoverage::kMapBits),
      builder_(target,
               EnabledSyscalls(target,
                               KernelConfig::ForVersion(options.version)),
               &rng_),
      minimizer_(AnalysisExec()),
      learner_(nullptr, AnalysisExec(), &clock_),
      reproducer_(AnalysisExec()) {
  builder_.set_arena(&arena_);
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
  if (!options_.postmortem_dir.empty()) {
    crash_db_.set_on_new_crash(
        [this](const CrashRecord& crash) { WritePostmortem(crash); });
  }
  relations_ = std::make_unique<RelationTable>(target.NumSyscalls());
  const bool uses_relations = options_.tool == ToolKind::kHealer;
  if (uses_relations) {
    // Static learning runs once at initialization (Section 6.2).
    StaticRelationLearn(target_, relations_.get());
    // One summary record stands in for the per-edge stream: static edges
    // are description-derived, not observed, so per-pair provenance is
    // the descriptions themselves.
    journal_writer_.Record(JournalKind::kRelationLearned, clock_.now(),
                           relations_->Count(), 0, relations_->epoch(),
                           "static");
  }
  selector_ = std::make_unique<CallSelector>(relations_.get(),
                                             builder_.enabled(), &rng_);
  if (options_.tool == ToolKind::kSyzkaller ||
      options_.tool == ToolKind::kMoonshine) {
    choice_table_ = std::make_unique<ChoiceTable>(target_, builder_.enabled());
  }
  learner_ = DynamicLearner(relations_.get(), AnalysisExec(), &clock_);
  if (options_.tool == ToolKind::kMoonshine) {
    LoadMoonshineSeeds();
  }
  journal_writer_.Flush();
}

MaskExecFn Fuzzer::AnalysisExec() {
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

GuestVm* Fuzzer::AcquireFuzzVm(size_t* lane) {
  if (!pool_.fleet()) {
    *lane = 0;
    return &pool_.Next();
  }
  *lane = next_lane_;
  next_lane_ = (next_lane_ + 1) % pool_.num_lanes();
  GuestVm* vm = pool_.AcquireReady(*lane);
  // All fleet guests share the fuzzer's single-producer writer (the
  // fuzzing loop is one thread, and it is the only pumper too).
  vm->set_journal(&journal_writer_);
  return vm;
}

void Fuzzer::ReleaseFuzzVm(size_t lane, GuestVm* vm) {
  if (pool_.fleet()) {
    pool_.Release(lane, vm);
  }
}

ExecResult Fuzzer::ExecWithRecovery(const ProgImage& image,
                                    const CallMask* keep, Bitmap* coverage) {
  HEALER_TRACE_SPAN(&trace_, &clock_, "exec", "vm");
  // Length of the program that runs, for the journal.
  const size_t len =
      keep == nullptr ? image.prog().size()
                      : static_cast<size_t>(
                            std::count(keep->begin(), keep->end(), 1));
  SimClock::Nanos backoff = options_.recovery.backoff;
  int attempt = 0;
  while (true) {
    size_t lane = 0;
    GuestVm* vm_ptr = AcquireFuzzVm(&lane);
    GuestVm& vm = *vm_ptr;
    m_.exec_attempts->Add();
    ExecResult result = vm.Exec(image, keep, coverage);
    if (!result.Failed()) {
      ReleaseFuzzVm(lane, vm_ptr);
      m_.exec_ok->Add();
      if (attempt > 0) {
        m_.exec_recovered->Add();
        // Payload: a = retries it took, b = program length.
        journal_writer_.Record(JournalKind::kRecovery, clock_.now(),
                               static_cast<uint64_t>(attempt), len);
      }
      return result;
    }
    m_.exec_failed->Add();
    // Payload: a = attempt index, b = program length.
    journal_writer_.Record(JournalKind::kFault, clock_.now(),
                           static_cast<uint64_t>(attempt), len, 0,
                           ExecFailureName(result.failure));
    if (vm.consecutive_failures() >= options_.recovery.quarantine_threshold) {
      vm.QuarantineReboot();
      m_.quarantines->Add();
      HEALER_TRACE_INSTANT(&trace_, &clock_, "quarantine", "fault");
    }
    ReleaseFuzzVm(lane, vm_ptr);
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

FaultStats Fuzzer::fault_stats() const {
  FaultStats stats = pool_.InjectedStats();
  stats.Merge(m_.RecoveryStats());
  return stats;
}

void Fuzzer::RefreshGauges() {
  m_.coverage_branches->Set(static_cast<double>(coverage_.Count()));
  m_.corpus_programs->Set(static_cast<double>(corpus_.size()));
  m_.relations_total->Set(static_cast<double>(relations_->Count()));
  m_.relations_static->Set(static_cast<double>(
      relations_->CountBySource(RelationSource::kStatic)));
  m_.relations_dynamic->Set(static_cast<double>(
      relations_->CountBySource(RelationSource::kDynamic)));
  m_.crashes_unique->Set(static_cast<double>(crash_db_.UniqueBugs()));
  m_.alpha->Set(options_.guidance == GuidanceMode::kFixedAlpha
                    ? options_.fixed_alpha
                    : alpha_.alpha());
  m_.sim_hours->Set(static_cast<double>(clock_.now()) /
                    static_cast<double>(SimClock::kHour));
}

CallChooser Fuzzer::MakeChooser(bool* used_table) {
  switch (options_.tool) {
    case ToolKind::kHealer:
      return [this, used_table](const std::vector<int>& prefix) {
        const double alpha = options_.guidance == GuidanceMode::kFixedAlpha
                                 ? options_.fixed_alpha
                                 : alpha_.alpha();
        bool used = false;
        const int pick = selector_->Select(prefix, alpha, &used);
        *used_table |= used;
        return pick;
      };
    case ToolKind::kHealerMinus:
      return [this](const std::vector<int>&) {
        return selector_->RandomCall();
      };
    case ToolKind::kSyzkaller:
    case ToolKind::kMoonshine:
      return [this](const std::vector<int>& prefix) {
        return choice_table_->Choose(&rng_,
                                     prefix.empty() ? -1 : prefix.back());
      };
  }
  return [this](const std::vector<int>&) { return selector_->RandomCall(); };
}

void Fuzzer::LoadMoonshineSeeds() {
  Rng seed_rng(options_.seed ^ 0x5eedULL);
  SeedWith(MoonshineSeeds(target_, builder_.enabled(),
                          options_.moonshine_traces, &seed_rng));
}

void Fuzzer::SeedWith(const std::vector<Prog>& seeds) {
  for (const Prog& seed : seeds) {
    if (seed.empty() || !seed.Validate().ok()) {
      continue;
    }
    const ProgImage image(seed);
    const ExecResult result = ExecWithRecovery(image, nullptr, &coverage_);
    ++fuzz_execs_;
    m_.fuzz_execs->Add();
    m_.seeded->Add();
    m_.prog_len->Observe(seed.size());
    journal_writer_.Record(JournalKind::kExec, clock_.now(), fuzz_execs_,
                           result.TotalNewEdges(), seed.size(),
                           result.Failed() ? ExecFailureName(result.failure)
                                           : "");
    if (result.Failed()) {
      journal_writer_.Flush();
      continue;  // Retry budget exhausted: the seed's feedback is discarded.
    }
    m_.coverage_edges->Add(result.TotalNewEdges());
    if (result.TotalNewEdges() > 0) {
      m_.exec_new_edges->Observe(result.TotalNewEdges());
    }
    ProcessFeedback(image, result);
    journal_writer_.Flush();
  }
}

Result<size_t> Fuzzer::LoadRelations(const std::string& path) {
  return relations_->LoadFromFile(path, target_);
}

Status Fuzzer::SaveRelations(const std::string& path) const {
  return relations_->SaveToFile(path, target_);
}

void Fuzzer::Step() {
  // Everything from the previous iteration is dead: reclaim all candidate
  // nodes at once. `prog` below (and anything the builder creates) lives in
  // the arena until the next Step.
  arena_.Reset();
  bool used_table = false;
  CallChooser chooser = MakeChooser(&used_table);

  Prog prog(&target_);
  const bool generate = corpus_.empty() || rng_.Chance(2, 5);
  if (generate) {
    const size_t len =
        rng_.InRange(options_.gen_len_min, options_.gen_len_max);
    prog = builder_.Generate(chooser, len);
  } else {
    prog = corpus_.Choose(&rng_).CloneInto(&arena_);
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
  const ExecResult result = ExecWithRecovery(image, nullptr, &coverage_);
  ++fuzz_execs_;
  m_.fuzz_execs->Add();
  (generate ? m_.generated : m_.mutated)->Add();
  m_.prog_len->Observe(prog.size());
  // Payload: a = fuzz-exec index, b = new edges, c = program length; a
  // still-failed execution carries its failure kind in `detail`.
  journal_writer_.Record(JournalKind::kExec, clock_.now(), fuzz_execs_,
                         result.TotalNewEdges(), prog.size(),
                         result.Failed() ? ExecFailureName(result.failure)
                                         : "");
  if (result.Failed()) {
    // Never merge partial feedback from a faulted execution: no coverage
    // was recorded (the VM guarantees that), no alpha update, no corpus or
    // relation learning.
    journal_writer_.Flush();
    return;
  }

  const bool gained = result.TotalNewEdges() > 0;
  m_.coverage_edges->Add(result.TotalNewEdges());
  if (gained) {
    m_.exec_new_edges->Observe(result.TotalNewEdges());
  }
  if (options_.tool == ToolKind::kHealer) {
    alpha_.Record(used_table, gained);
    if (alpha_.updates() != last_alpha_updates_) {
      last_alpha_updates_ = alpha_.updates();
      m_.alpha_updates->Add();
      m_.alpha->Set(alpha_.alpha());
      HEALER_TRACE_INSTANT(&trace_, &clock_, "alpha-update", "alpha");
    }
  }
  ProcessFeedback(image, result);
  journal_writer_.Flush();
}

void Fuzzer::ProcessFeedback(const ProgImage& image,
                             const ExecResult& result) {
  current_prog_ = &image.prog();
  if (result.Crashed()) {
    m_.crash_reports->Add();
    // Payload: a = bug id, b = fuzz-exec index, c = crashing call index.
    journal_writer_.Record(JournalKind::kCrash, clock_.now(),
                           static_cast<uint64_t>(result.crash->bug),
                           fuzz_execs_, result.crash->call_index,
                           result.crash->title);
    // Publish the staged records so a postmortem bundle written by the
    // on_new_crash hook sees this crash (and everything before it).
    journal_writer_.Flush();
    const bool is_new =
        crash_db_.Record(result.crash->bug, result.crash->title, clock_.now(),
                         fuzz_execs_, result.crash->call_index + 1);
    // For newly found bugs, extract the smallest reproducer (Section 4's
    // crash reproduction component). The extra executions run on the VM
    // fleet and consume simulated time like any other analysis.
    if (is_new) {
      m_.crash_new->Add();
      HEALER_TRACE_INSTANT(&trace_, &clock_, "new-crash", "crash");
      std::optional<CrashRepro> repro =
          reproducer_.Minimize(image, result.crash->bug);
      if (repro.has_value()) {
        crash_db_.Record(result.crash->bug, result.crash->title, clock_.now(),
                         fuzz_execs_, repro->prog.size());
        auto bundle_it = bundle_dirs_.find(result.crash->bug);
        if (bundle_it != bundle_dirs_.end()) {
          WritePostmortemRepro(bundle_it->second,
                               repro->prog.ToString() + "\n");
        }
        repros_.emplace(result.crash->bug, std::move(repro->prog));
      }
    }
  }
  if (result.TotalNewEdges() == 0) {
    current_prog_ = nullptr;
    return;
  }
  // Minimize, then learn relations from / archive each minimal sequence.
  const uint64_t min_before = minimizer_.execs_used();
  std::vector<MinimizedSeq> minimized;
  {
    HEALER_TRACE_SPAN(&trace_, &clock_, "minimize", "analysis");
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
      // LearnInto + Apply instead of Learn: the staged delta is the only
      // point where per-edge provenance (the observed pair, its epoch) is
      // still visible, so the journal records are cut from it. The probe
      // stream and the applied edges are identical to Learn().
      RelationDelta delta;
      size_t staged = 0;
      {
        HEALER_TRACE_SPAN(&trace_, &clock_, "learn", "analysis");
        staged = learner_.LearnInto(image, seq.keep, &delta);
      }
      m_.learn_rounds->Add();
      const uint64_t learn_probes = learner_.execs_used() - learn_before;
      m_.learn_probes->Add(learn_probes);
      m_.learn_execs->Observe(learn_probes);
      if (staged > 0) {
        const size_t learned = relations_->Apply(delta);
        for (const RelationEdge& edge : delta.edges()) {
          // Payload: a = influencing call, b = influenced call, c = the
          // epoch that published the edge; detail names the pair.
          journal_writer_.Record(
              JournalKind::kRelationLearned, edge.learned_at,
              static_cast<uint64_t>(edge.from),
              static_cast<uint64_t>(edge.to), relations_->epoch(),
              StrFormat("%s->%s", target_.syscall(edge.from).name.c_str(),
                        target_.syscall(edge.to).name.c_str()));
        }
        if (learned > 0) {
          m_.relations_learned->Add(learned);
          HEALER_TRACE_INSTANT(&trace_, &clock_, "relation-learned", "learn");
        }
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
    // Payload: a = admitted length, b = priority, c = corpus size after.
    const uint64_t admitted_len = seq.prog.size();
    corpus_.Add(std::move(seq.prog), prio);
    m_.corpus_adds->Add();
    journal_writer_.Record(JournalKind::kCorpusAdd, clock_.now(),
                           admitted_len, prio, corpus_.size());
  }
  current_prog_ = nullptr;
}

void Fuzzer::WritePostmortem(const CrashRecord& crash) {
  PostmortemBundle bundle;
  bundle.crash = crash;
  bundle.seed = options_.seed;
  bundle.tool = ToolKindName(options_.tool);
  if (current_prog_ != nullptr) {
    bundle.program_text = current_prog_->ToString() + "\n";
  }
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
