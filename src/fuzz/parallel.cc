#include "src/fuzz/parallel.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <vector>

#include "src/base/string_util.h"
#include "src/prog/arena.h"
#include "src/vm/vm_pool.h"

namespace healer {

namespace {

std::vector<int> EnabledIds(const Target& target, const KernelConfig& config) {
  std::vector<int> ids;
  for (const auto& call : target.syscalls()) {
    const SyscallDef* def = FindSyscallDef(call->name);
    if (def != nullptr && SyscallAvailable(*def, config)) {
      ids.push_back(call->id);
    }
  }
  return ids;
}

uint64_t ToNs(std::chrono::steady_clock::duration d) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

// Scoped ownership of the publish mutex that feeds the contention
// histograms: wall time spent waiting for the lock and wall time spent
// holding it. Host wall-clock is the right ruler here — the lock-held-share
// acceptance gate asks what fraction of the campaign the workers spent
// serialized, which simulated time cannot answer.
class TimedLock {
 public:
  TimedLock(std::mutex* mu, ParallelMetrics* pm) : mu_(mu), pm_(pm) {
    const auto start = std::chrono::steady_clock::now();
    mu_->lock();
    locked_ = std::chrono::steady_clock::now();
    pm_->lock_wait_ns->Observe(ToNs(locked_ - start));
  }
  ~TimedLock() {
    const auto end = std::chrono::steady_clock::now();
    mu_->unlock();
    pm_->lock_held_ns->Observe(ToNs(end - locked_));
  }

  TimedLock(const TimedLock&) = delete;
  TimedLock& operator=(const TimedLock&) = delete;

 private:
  std::mutex* mu_;
  ParallelMetrics* pm_;
  std::chrono::steady_clock::time_point locked_;
};

// One Job_i of Figure 3: owns a VM, an RNG and builders; fuzzes against
// read-mostly views of the shared state and publishes feedback in batches
// (see parallel.h for the protocol).
class Worker {
 public:
  Worker(const Target& target, const ParallelOptions& options,
         SharedFuzzState* shared, size_t index, VmPool* pool, SimClock* clock)
      : target_(target),
        options_(options),
        shared_(shared),
        rng_(options.seed * 7919 + index),
        pool_(pool),
        lane_(index % pool->num_lanes()),
        clock_(clock),
        tid_(static_cast<uint32_t>(index)),
        m_(&shared->metrics),
        pm_(&shared->metrics),
        builder_(target,
                 EnabledIds(target, KernelConfig::ForVersion(options.version)),
                 &rng_),
        selector_(&shared->relations, builder_.enabled(), &rng_),
        jw_(&shared->journal, static_cast<uint32_t>(index)) {
    // Candidate programs are built in the worker-private arena and die at
    // the end of each iteration; corpus survivors are heap clones staged by
    // the minimizer, so they outlive resets.
    builder_.set_arena(&arena_);
  }

  void Run() {
    while (true) {
      // The previous iteration's candidate is dead; reclaim its nodes.
      arena_.Reset();
      const uint64_t ticket =
          shared_->exec_tickets.fetch_add(1, std::memory_order_relaxed);
      if (ticket >= options_.total_execs) {
        break;
      }
      const bool urgent = Step(ticket);
      if (urgent || batch_.execs >= options_.batch_size) {
        Publish();
        PumpLaneShard();
      }
    }
    Publish();     // Final flush.
    jw_.Flush();   // Records staged inside the final Publish itself.
    PumpLaneShard();
  }

 private:
  // ---- fleet lane protocol ----
  // A worker owns a guest only for the execution+feedback half of an
  // iteration: acquired from the lane freelist, released when the feedback
  // is staged. In the legacy topology the lane holds exactly one pinned VM
  // and release is a no-op, so the protocol collapses to the historical
  // worker-owns-VM model.
  GuestVm& AcquireVm() {
    GuestVm* vm = pool_->AcquireReady(lane_);
    // Lifecycle records route through this worker's writer while it drives
    // the VM (single producer: the VM is checked out of the freelist).
    vm->set_journal(&jw_);
    vm_ = vm;
    return *vm;
  }
  void ReleaseVm() {
    if (vm_ == nullptr) {
      return;
    }
    if (pool_->fleet()) {
      // Hand journal ownership back to the shard: an async reboot fired by
      // whichever worker pumps next must not write into this worker's
      // single-producer staging buffer.
      vm_->set_journal(shard_journal_);
      pool_->Release(lane_, vm_);
    }
    vm_ = nullptr;
  }
  void PumpLaneShard() {
    if (pool_->fleet()) {
      pool_->PumpShard(pool_->shard_of_lane(lane_));
    }
  }

 public:
  // The shard journal this worker's lane re-attaches on release (fleet
  // mode; may stay null when journaling is disabled).
  void set_shard_journal(JournalWriter* journal) { shard_journal_ = journal; }

 private:
  // Feedback accumulated since the last publish.
  struct PendingCrash {
    BugId bug;
    std::string title;
    SimClock::Nanos when;
    uint64_t exec_index;
    size_t repro_len;
  };
  struct PendingAdd {
    Prog prog;
    uint32_t priority;
    uint64_t content_hash;
  };
  struct Batch {
    uint64_t execs = 0;
    std::vector<PendingCrash> crashes;
    std::vector<PendingAdd> adds;
    // Relation edges learned since the last publish (locally deduplicated;
    // RelationTable::Apply credits them exactly once fleet-wide).
    RelationDelta relations;
    // Alpha-schedule outcomes keyed by (used_table << 1) | gained. The
    // schedule only counts per-category totals within its window, so
    // replaying them as counts at publish time is order-safe.
    std::array<uint64_t, 4> alpha_outcomes{};

    bool Empty() const {
      return execs == 0 && crashes.empty() && adds.empty() &&
             relations.empty() && alpha_outcomes == std::array<uint64_t, 4>{};
    }
  };

  // A chooser bound to the shared relation table / alpha.
  CallChooser MakeChooser(double alpha, bool* used_table) {
    if (options_.tool == ToolKind::kHealer) {
      return [this, alpha, used_table](const std::vector<int>& prefix) {
        bool used = false;
        const int pick = selector_.Select(prefix, alpha, &used);
        *used_table |= used;
        return pick;
      };
    }
    return [this](const std::vector<int>&) { return selector_.RandomCall(); };
  }

  // Re-copies the corpus snapshot pointer iff the epoch moved. The common
  // case (epoch unchanged) is one relaxed load.
  void RefreshSnapshot() {
    const uint64_t epoch =
        shared_->corpus_epoch.load(std::memory_order_relaxed);
    if (epoch == snapshot_epoch_ && snapshot_ != nullptr) {
      return;
    }
    std::lock_guard<std::mutex> lock(shared_->snapshot_mu);
    snapshot_ = shared_->corpus_snapshot;
    snapshot_epoch_ = shared_->corpus_epoch.load(std::memory_order_relaxed);
    pm_.snapshot_refresh->Add();
  }

  // Runs the calls of `image` that `keep` marks (nullptr: all) on this
  // worker's VM under the recovery policy, as Fuzzer::ExecWithRecovery
  // does: bounded retry with doubling backoff on the campaign clock,
  // quarantine-rebooting the VM when its failure streak crosses the
  // threshold, a fault record per failed attempt and a recovery record per
  // recovered execution. Lock-free: the VM is worker-owned, the campaign
  // bitmap merges atomically, and the sim clock advances atomically. Every
  // failure is accounted in the shared registry's recovery counters, so
  // the per-VM infra_faults counters and the recovery-side failed_execs
  // agree. A faulted execution merged nothing into the shared coverage, so
  // retrying is safe; a still-Failed() return means the program's feedback
  // must be discarded.
  ExecResult ExecWithRecovery(const ProgImage& image, const CallMask* keep,
                              Bitmap* coverage) {
    TraceSpan span(&shared_->trace, clock_, "exec", "vm", tid_);
    // Length of the program that runs, for the journal.
    const size_t len =
        keep == nullptr ? image.prog().size()
                        : static_cast<size_t>(
                              std::count(keep->begin(), keep->end(), 1));
    SimClock::Nanos backoff = options_.recovery.backoff;
    int attempt = 0;
    while (true) {
      m_.exec_attempts->Add();
      ExecResult result = vm_->Exec(image, keep, coverage);
      if (!result.Failed()) {
        m_.exec_ok->Add();
        if (attempt > 0) {
          m_.exec_recovered->Add();
          // Payload: a = retries it took, b = program length.
          jw_.Record(JournalKind::kRecovery, clock_->now(),
                     static_cast<uint64_t>(attempt), len);
        }
        return result;
      }
      m_.exec_failed->Add();
      // Payload: a = attempt index, b = program length.
      jw_.Record(JournalKind::kFault, clock_->now(),
                 static_cast<uint64_t>(attempt), len, 0,
                 ExecFailureName(result.failure));
      if (vm_->consecutive_failures() >=
          options_.recovery.quarantine_threshold) {
        vm_->QuarantineReboot();
        m_.quarantines->Add();
      }
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

  // One fuzzing iteration, entirely outside the publish lock: build a
  // program against the read-mostly views, execute it, and stage its
  // feedback. Returns true if the batch should publish immediately (new
  // coverage or a crash).
  bool Step(uint64_t ticket) {
    RefreshSnapshot();
    const double alpha = std::bit_cast<double>(
        shared_->alpha_bits.load(std::memory_order_relaxed));
    bool used_table = false;
    bool mutated = false;
    Prog prog(&target_);
    if (snapshot_ != nullptr && !snapshot_->empty() && rng_.Chance(3, 5)) {
      prog = snapshot_->Choose(&rng_).CloneInto(&arena_);
    }
    CallChooser chooser = MakeChooser(alpha, &used_table);
    if (prog.empty()) {
      prog = builder_.Generate(chooser, 4 + rng_.Below(10));
    } else {
      mutated = true;
      if (rng_.Chance(7, 10)) {
        builder_.MutateInsert(&prog, chooser);
      }
      if (rng_.Chance(6, 10)) {
        builder_.MutateArgs(&prog);
      }
    }
    // The exec slot is consumed either way; counting both here keeps
    // healer_parallel_batched_execs_total == healer_fuzz_execs_total exact,
    // and one exec record per slot keeps the journal's exec count
    // reconcilable with the fuzz_execs total (a = ticket, b = mutated,
    // c = program length).
    ++batch_.execs;
    m_.fuzz_execs->Add();
    jw_.Record(JournalKind::kExec, clock_->now(), ticket, mutated ? 1 : 0,
               prog.size());
    if (prog.empty()) {
      return false;
    }
    (mutated ? m_.mutated : m_.generated)->Add();
    m_.prog_len->Observe(prog.size());
    AcquireVm();
    const ProgImage image(prog);
    const ExecResult result =
        ExecWithRecovery(image, nullptr, &shared_->coverage);
    const bool urgent = HandleFeedback(ticket, used_table, image, result);
    ReleaseVm();
    return urgent;
  }

  // Feedback processing for a recovered (or finally-failed) result.
  // Returns true if the batch should publish immediately (new coverage or
  // a crash).
  bool HandleFeedback(uint64_t ticket, bool used_table, const ProgImage& image,
                      const ExecResult& result) {
    if (result.Failed()) {
      return false;  // Feedback discarded; the exec slot is still consumed.
    }
    const bool gained = result.TotalNewEdges() > 0;
    m_.coverage_edges->Add(result.TotalNewEdges());
    if (gained) {
      m_.exec_new_edges->Observe(result.TotalNewEdges());
    }
    if (options_.tool == ToolKind::kHealer) {
      ++batch_.alpha_outcomes[(used_table ? 2u : 0u) | (gained ? 1u : 0u)];
    }
    bool urgent = false;
    if (result.Crashed()) {
      m_.crash_reports->Add();
      const SimClock::Nanos now = clock_->now();
      // a = bug, b = exec index, c = crashing call index.
      jw_.Record(JournalKind::kCrash, now,
                 static_cast<uint64_t>(result.crash->bug), ticket + 1,
                 result.crash->call_index + 1, result.crash->title);
      batch_.crashes.push_back(PendingCrash{result.crash->bug,
                                            result.crash->title, now,
                                            ticket + 1,
                                            result.crash->call_index + 1});
      urgent = true;
    }
    if (!gained) {
      return urgent;
    }
    // Analysis probes are call masks over the program this worker's guest
    // just ran. They go through the same recovery accounting as fuzzing
    // executions; a still-failed probe reaches the minimizer/learner as a
    // typed failure, which both treat as "no information". Probes pass a
    // null bitmap, so they never perturb campaign coverage.
    const MaskExecFn probe = [this](const ProgImage& base,
                                    const CallMask& keep) {
      m_.analysis_execs->Add();
      return ExecWithRecovery(base, &keep, nullptr);
    };
    Minimizer minimizer(probe);
    DynamicLearner learner(&shared_->relations, probe, clock_);
    std::vector<MinimizedSeq> minimized = minimizer.Minimize(image, result);
    m_.minimize_rounds->Add();
    m_.minimize_probes->Add(minimizer.execs_used());
    m_.minimize_execs->Observe(minimizer.execs_used());
    for (MinimizedSeq& seq : minimized) {
      if (options_.tool == ToolKind::kHealer) {
        const uint64_t learn_before = learner.execs_used();
        // Edges accumulate in the batch delta; the exactly-once credit (and
        // the relations_learned counter) happens in Publish via Apply.
        learner.LearnInto(image, seq.keep, &batch_.relations);
        m_.learn_rounds->Add();
        m_.learn_probes->Add(learner.execs_used() - learn_before);
        m_.learn_execs->Observe(learner.execs_used() - learn_before);
      }
      // Serialize (for the dedup hash) outside the lock; Publish reuses it
      // via the precomputed-hash Corpus::Add overload.
      const uint64_t hash = Corpus::ContentHash(SerializeProg(seq.prog));
      const uint32_t priority = std::max<uint32_t>(1, result.TotalNewEdges());
      // a = minimized length, b = priority; c stays 0 — the fleet corpus
      // size is only known at publish time, and a locally-staged add can
      // still lose the dedup race there.
      jw_.Record(JournalKind::kCorpusAdd, clock_->now(), seq.prog.size(),
                 priority, 0);
      batch_.adds.push_back(PendingAdd{std::move(seq.prog), priority, hash});
    }
    return true;  // New coverage: publish so peers can build on it.
  }

  // The only place SharedFuzzState::mu is taken: merges this worker's batch
  // into the authoritative state in one short critical section.
  void Publish() {
    // Drain the staged journal records first (one journal-lock acquire), so
    // the flight recorder and the metrics publish on the same cadence.
    jw_.Flush();
    if (batch_.Empty()) {
      return;
    }
    // Flush the relation delta before taking mu: Apply is internally
    // synchronized (the table's write mutex) and republishes the snapshot
    // itself, so routing it through the publish lock would only lengthen
    // the critical section. The return value is the number of edges that
    // were new fleet-wide — the exactly-once credit.
    if (!batch_.relations.empty()) {
      const size_t credited = shared_->relations.Apply(batch_.relations);
      if (credited > 0) {
        m_.relations_learned->Add(credited);
      }
      // Journal the edges this worker observed (a = from, b = to,
      // c = table epoch after apply). A peer may have published the same
      // edge first; the per-worker provenance is the point of the record.
      for (const RelationEdge& edge : batch_.relations.edges()) {
        jw_.Record(JournalKind::kRelationLearned, edge.learned_at, edge.from,
                   edge.to, shared_->relations.epoch(),
                   StrFormat("%s->%s",
                             target_.syscall(edge.from).name.c_str(),
                             target_.syscall(edge.to).name.c_str()));
      }
      batch_.relations.clear();
    }
    TimedLock lock(&shared_->mu, &pm_);
    shared_->fuzz_execs += batch_.execs;
    pm_.batch_publish->Add();
    pm_.batched_execs->Add(batch_.execs);
    for (const PendingCrash& crash : batch_.crashes) {
      const bool is_new = shared_->crashes.Record(
          crash.bug, crash.title, crash.when, crash.exec_index,
          crash.repro_len);
      if (is_new) {
        m_.crash_new->Add();
      }
    }
    if (options_.tool == ToolKind::kHealer) {
      for (size_t key = 0; key < batch_.alpha_outcomes.size(); ++key) {
        for (uint64_t i = 0; i < batch_.alpha_outcomes[key]; ++i) {
          shared_->alpha.Record((key & 2u) != 0, (key & 1u) != 0);
        }
      }
      if (shared_->alpha.updates() != shared_->alpha_updates_seen) {
        m_.alpha_updates->Add(shared_->alpha.updates() -
                              shared_->alpha_updates_seen);
        shared_->alpha_updates_seen = shared_->alpha.updates();
        m_.alpha->Set(shared_->alpha.alpha());
        shared_->alpha_bits.store(
            std::bit_cast<uint64_t>(shared_->alpha.alpha()),
            std::memory_order_relaxed);
        shared_->trace.RecordInstant("alpha-update", "alpha", clock_->now(),
                                     tid_);
      }
    }
    bool added = false;
    for (PendingAdd& add : batch_.adds) {
      added |= shared_->corpus.Add(std::move(add.prog), add.priority,
                                   add.content_hash);
      m_.corpus_adds->Add();
    }
    if (added) {
      auto snap = shared_->corpus.Snapshot();
      std::lock_guard<std::mutex> sg(shared_->snapshot_mu);
      shared_->corpus_snapshot = std::move(snap);
      shared_->corpus_epoch.fetch_add(1, std::memory_order_relaxed);
    }
    batch_ = Batch{};
  }

  const Target& target_;
  const ParallelOptions& options_;
  SharedFuzzState* shared_;
  Rng rng_;
  VmPool* pool_;
  size_t lane_;
  GuestVm* vm_ = nullptr;  // Checked out between AcquireVm and ReleaseVm.
  SimClock* clock_;  // The shared campaign clock.
  uint32_t tid_;
  FuzzMetrics m_;
  ParallelMetrics pm_;
  JournalWriter* shard_journal_ = nullptr;
  // Declared before builder_ (which borrows it); worker-private, reset at
  // iteration boundaries.
  ProgArena arena_;
  ProgBuilder builder_;
  CallSelector selector_;
  Batch batch_;
  JournalWriter jw_;
  std::shared_ptr<const CorpusSnapshot> snapshot_;
  uint64_t snapshot_epoch_ = ~0ULL;
};

}  // namespace

ParallelResult RunParallelFuzz(const Target& target,
                               const ParallelOptions& options) {
  SharedFuzzState shared(target.NumSyscalls(), options.trace_capacity,
                         options.journal_capacity);
  if (options.tool == ToolKind::kHealer) {
    StaticRelationLearn(target, &shared.relations);
  }
  shared.corpus_snapshot = shared.corpus.Snapshot();
  SimClock clock;  // Shared simulated clock (atomic; advanced lock-free).
  // Topology: fleet_size == 0 (or == num_workers) is the legacy pinned
  // pool; anything larger spreads the guests over one lane per worker and
  // fleet_shards reactors that the workers pump cooperatively.
  const size_t fleet_size =
      options.fleet_size == 0
          ? options.num_workers
          : std::max(options.fleet_size, options.num_workers);
  size_t fleet_shards = options.fleet_shards;
  if (fleet_shards == 0) {
    fleet_shards = std::clamp<size_t>(fleet_size / 256, 1,
                                      std::max<size_t>(options.num_workers, 1));
  }
  FleetOptions fleet;
  fleet.lanes = options.num_workers;
  fleet.shards = fleet_shards;
  VmPool pool(target, KernelConfig::ForVersion(options.version), &clock,
              fleet_size, VmLatencyModel(), options.fault_plan, options.seed,
              &shared.metrics, fleet);
  // Reactor-side lifecycle records (async boots, crash reboots) write into
  // one journal writer per shard — producer ids continue after the workers'
  // — flushed by whichever worker pumps the shard.
  std::vector<std::unique_ptr<JournalWriter>> shard_journals;
  if (pool.fleet()) {
    for (size_t s = 0; s < pool.num_shards(); ++s) {
      shard_journals.push_back(std::make_unique<JournalWriter>(
          &shared.journal,
          static_cast<uint32_t>(options.num_workers + s)));
      pool.set_shard_journal(s, shard_journals.back().get());
    }
    for (size_t i = 0; i < pool.size(); ++i) {
      pool.vm(i).set_journal(
          shard_journals[pool.shard_of_lane(i % pool.num_lanes())].get());
    }
  }
  Monitor monitor(&pool);
  monitor.Start();

  std::vector<std::unique_ptr<Worker>> workers;
  for (size_t i = 0; i < options.num_workers; ++i) {
    workers.push_back(std::make_unique<Worker>(target, options, &shared, i,
                                               &pool, &clock));
    if (pool.fleet()) {
      workers.back()->set_shard_journal(
          shard_journals[pool.shard_of_lane(i % pool.num_lanes())].get());
    }
  }
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(workers.size());
  for (auto& worker : workers) {
    threads.emplace_back([&worker] { worker->Run(); });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const uint64_t wall_ns = ToNs(std::chrono::steady_clock::now() - wall_start);
  ParallelResult result;
  result.vm_health = monitor.HealthReport();
  result.fleet = pool.ShardSummaries();
  monitor.Stop();

  result.coverage = shared.coverage.Count();
  result.fuzz_execs = shared.fuzz_execs;
  result.corpus_size = shared.corpus.size();
  result.unique_bugs = shared.crashes.UniqueBugs();
  result.relations = shared.relations.Count();
  result.relations_static =
      shared.relations.CountBySource(RelationSource::kStatic);
  result.relations_dynamic =
      shared.relations.CountBySource(RelationSource::kDynamic);
  result.monitor_lines = monitor.lines_collected();
  FuzzMetrics handles(&shared.metrics);
  ParallelMetrics pm(&shared.metrics);
  result.faults = pool.InjectedStats();
  result.faults.Merge(handles.RecoveryStats());
  result.corpus_progs = shared.corpus.ExportAll();
  result.crash_records = shared.crashes.All();
  // Final gauge refresh, then snapshot the whole registry.
  handles.coverage_branches->Set(static_cast<double>(result.coverage));
  handles.corpus_programs->Set(static_cast<double>(result.corpus_size));
  handles.relations_total->Set(static_cast<double>(result.relations));
  handles.relations_static->Set(static_cast<double>(result.relations_static));
  handles.relations_dynamic->Set(
      static_cast<double>(result.relations_dynamic));
  handles.crashes_unique->Set(static_cast<double>(result.unique_bugs));
  handles.alpha->Set(shared.alpha.alpha());
  handles.sim_hours->Set(static_cast<double>(clock.now()) /
                         static_cast<double>(SimClock::kHour));
  pm.wall_ns->Set(static_cast<double>(wall_ns));
  // Fraction of the fleet's wall time spent inside the publish lock: the
  // headline contention number (1.0 would mean fully serialized workers).
  const double fleet_ns =
      static_cast<double>(wall_ns) * static_cast<double>(options.num_workers);
  pm.lock_held_share->Set(
      fleet_ns > 0.0 ? static_cast<double>(pm.lock_held_ns->Sum()) / fleet_ns
                     : 0.0);
  result.telemetry = shared.metrics.Snapshot();
  result.trace_events = shared.trace.Events();
  result.journal = shared.journal.Records();
  return result;
}

}  // namespace healer
