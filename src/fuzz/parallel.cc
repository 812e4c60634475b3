#include "src/fuzz/parallel.h"

#include <array>
#include <chrono>
#include <set>
#include <utility>
#include <vector>

#include "src/base/hash.h"
#include "src/vm/vm_pool.h"

namespace healer {

namespace {

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

// Worker `index`'s loop options (see ParallelOptions). Worker 0 draws from
// the campaign seed (Mix64(0) == 0), the others from derived streams.
FuzzerOptions WorkerOptions(const ParallelOptions& options, size_t index) {
  FuzzerOptions worker;
  worker.tool = options.tool;
  worker.version = options.version;
  worker.seed = options.seed ^ Mix64(index);
  worker.fault_plan = options.fault_plan;
  worker.recovery = options.recovery;
  return worker;
}

// One Job_i of Figure 3: runs the fuzzing loop (FuzzLoop) against
// read-mostly views of the shared state and publishes its feedback in
// batches (see parallel.h for the protocol).
class Worker final : private FuzzState {
 public:
  // `shard_journal` is the journal this worker's lane re-attaches on
  // release (fleet mode; null otherwise or when journaling is disabled).
  Worker(const Target& target, const ParallelOptions& options,
         SharedFuzzState* shared, size_t index, VmPool* pool, SimClock* clock,
         JournalWriter* shard_journal)
      : target_(target),
        options_(options),
        shared_(shared),
        pool_(pool),
        lane_(index % pool->num_lanes()),
        shard_journal_(shard_journal),
        clock_(clock),
        m_(&shared->metrics),
        pm_(&shared->metrics),
        jw_(&shared->journal, static_cast<uint32_t>(index)),
        loop_(target, pool->tables().enabled, WorkerOptions(options, index),
              this, &shared->relations, &shared->coverage, clock,
              &shared->metrics, &jw_) {}

  // Moonshine's distilled seeds, run once before the first ticket; their
  // feedback is published before any worker starts.
  void SeedDistilled() {
    loop_.SeedDistilled();
    ReleaseVm();
    Publish();
  }

  void Run() {
    while (true) {
      const uint64_t ticket =
          shared_->exec_tickets.fetch_add(1, std::memory_order_relaxed);
      if (ticket >= options_.total_execs) {
        break;
      }
      RefreshSnapshot();
      exec_index_ = shared_->seeded_execs + ticket;
      loop_.Step();
      ReleaseVm();
      // Staged corpus adds mean this iteration gained coverage.
      if (!batch_.adds.empty() || batch_.execs >= options_.batch_size) {
        Publish();
        PumpLaneShard();
      }
    }
    Publish();     // Final flush.
    jw_.Flush();   // Records staged inside the final Publish itself.
    PumpLaneShard();
  }

 private:
  // ---- FuzzState: snapshot reads, batched feedback ----
  bool CorpusEmpty() const override {
    return snapshot_ == nullptr || snapshot_->empty();
  }
  const StoredProg& Choose(Rng* rng) override {
    return snapshot_->Choose(rng);
  }
  double Alpha() const override {
    return std::bit_cast<double>(
        shared_->alpha_bits.load(std::memory_order_relaxed));
  }
  // The schedule only counts per-category totals within its window, so
  // replaying the outcomes as counts at publish time is order-safe.
  void RecordAlpha(bool used_table, bool gained) override {
    ++batch_.alpha_outcomes[(used_table ? 2u : 0u) | (gained ? 1u : 0u)];
  }
  // Exec indices continue after the seeds: ticket t is seeded_execs + t + 1.
  uint64_t CountExec() override {
    ++batch_.execs;
    return ++exec_index_;
  }
  // The first report of a bug this worker has not seen publishes at once,
  // which tells whether the bug is new to the campaign; reports of bugs it
  // already knows (all of them in the shared CrashDb) stay batched.
  bool RecordCrash(const CrashRecord& report, const Prog&) override {
    batch_.crashes.push_back(report);
    if (!known_bugs_.insert(report.bug).second) {
      return false;
    }
    return Publish();
  }
  // The reproducer ran on this worker's guest, outside mu; its length
  // rides in the next batch.
  void RecordRepro(BugId bug, Prog repro) override {
    batch_.repros.emplace_back(bug, repro.size());
  }
  // Learned edges accumulate in the batch delta and apply at publish.
  RelationDelta* Delta() override { return &batch_.relations; }
  void CommitRelations() override {}
  // Serialized and hashed outside the lock. The corpus size is unknown
  // until publish (journal corpus-add c = 0), which follows at the end of
  // the iteration so peers can build on the program.
  size_t Admit(StoredProg prog, uint32_t priority) override {
    batch_.adds.push_back(PendingAdd{std::move(prog), priority});
    return 0;
  }
  // The worker holds one guest for the whole iteration, from its first
  // attempt to ReleaseVm (a no-op in the legacy pinned topology).
  GuestVm* CheckOut() override {
    if (vm_ == nullptr) {
      vm_ = pool_->AcquireReady(lane_);
      // Lifecycle records route through this worker's writer while it
      // drives the VM (single producer: the VM is out of the freelist).
      vm_->set_journal(&jw_);
    }
    return vm_;
  }
  void CheckIn(GuestVm*) override {}

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

  // Feedback accumulated since the last publish.
  struct PendingAdd {
    StoredProg prog;
    uint32_t priority;
  };
  struct Batch {
    uint64_t execs = 0;
    std::vector<CrashRecord> crashes;
    // (bug, minimized reproducer length).
    std::vector<std::pair<BugId, size_t>> repros;
    std::vector<PendingAdd> adds;
    // Relation edges learned since the last publish (locally deduplicated;
    // RelationTable::Apply credits them exactly once fleet-wide).
    RelationDelta relations;
    // Alpha-schedule outcomes keyed by (used_table << 1) | gained.
    std::array<uint64_t, 4> alpha_outcomes{};

    bool Empty() const {
      return execs == 0 && crashes.empty() && repros.empty() &&
             adds.empty() && relations.empty() &&
             alpha_outcomes == std::array<uint64_t, 4>{};
    }
  };

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

  // The only place SharedFuzzState::mu is taken: merges this worker's batch
  // into the authoritative state in one short critical section. Returns
  // true if a published crash was a bug new to the campaign.
  bool Publish() {
    // Drain the staged journal records first (one journal-lock acquire), so
    // the flight recorder and the metrics publish on the same cadence.
    jw_.Flush();
    if (batch_.Empty()) {
      return false;
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
      // Journal the edges this worker observed. A peer may have published
      // the same edge first; the per-worker provenance is the point of the
      // record.
      JournalLearnedEdges(target_, batch_.relations,
                          shared_->relations.epoch(), &jw_);
      batch_.relations.clear();
    }
    TimedLock lock(&shared_->mu, &pm_);
    shared_->fuzz_execs += batch_.execs;
    pm_.batch_publish->Add();
    pm_.batched_execs->Add(batch_.execs);
    bool new_bug = false;
    for (const CrashRecord& crash : batch_.crashes) {
      new_bug |= shared_->crashes.Record(crash.bug, crash.title,
                                         crash.first_seen, crash.first_exec,
                                         crash.shortest_repro);
    }
    for (const auto& [bug, len] : batch_.repros) {
      shared_->crashes.NoteRepro(bug, len);
    }
    const uint64_t alpha_updates = shared_->alpha.updates();
    for (size_t key = 0; key < batch_.alpha_outcomes.size(); ++key) {
      for (uint64_t i = 0; i < batch_.alpha_outcomes[key]; ++i) {
        shared_->alpha.Record((key & 2u) != 0, (key & 1u) != 0);
      }
    }
    if (shared_->alpha.updates() != alpha_updates) {
      m_.alpha_updates->Add(shared_->alpha.updates() - alpha_updates);
      m_.alpha->Set(shared_->alpha.alpha());
      shared_->alpha_bits.store(
          std::bit_cast<uint64_t>(shared_->alpha.alpha()),
          std::memory_order_relaxed);
      // A zero-length span marks the update.
      jw_.Record(JournalKind::kSpan, clock_->now(), 0, 0, 0, "alpha-update");
    }
    bool added = false;
    for (PendingAdd& add : batch_.adds) {
      added |= shared_->corpus.Add(std::move(add.prog), add.priority);
    }
    if (added) {
      auto snap = shared_->corpus.Snapshot();
      std::lock_guard<std::mutex> sg(shared_->snapshot_mu);
      shared_->corpus_snapshot = std::move(snap);
      shared_->corpus_epoch.fetch_add(1, std::memory_order_relaxed);
    }
    batch_ = Batch{};
    return new_bug;
  }

  const Target& target_;
  const ParallelOptions& options_;
  SharedFuzzState* shared_;
  VmPool* pool_;
  size_t lane_;
  JournalWriter* shard_journal_;
  GuestVm* vm_ = nullptr;  // Checked out between CheckOut and ReleaseVm.
  SimClock* clock_;  // The shared campaign clock.
  FuzzMetrics m_;
  ParallelMetrics pm_;
  Batch batch_;
  // Bugs this worker has reported; each is in the shared CrashDb.
  std::set<BugId> known_bugs_;
  uint64_t exec_index_ = 0;  // The index of the last counted execution.
  JournalWriter jw_;
  std::shared_ptr<const CorpusSnapshot> snapshot_;
  uint64_t snapshot_epoch_ = ~0ULL;
  // Declared last: it borrows the writer and the state above.
  FuzzLoop loop_;
};

}  // namespace

ParallelResult RunParallelFuzz(const Target& target,
                               const ParallelOptions& options) {
  SharedFuzzState shared(target.NumSyscalls(), options.journal_capacity);
  if (options.tool == ToolKind::kHealer) {
    StaticRelationLearn(target, &shared.relations);
  }
  shared.corpus_snapshot = shared.corpus.Snapshot();
  SimClock clock;  // Shared simulated clock (atomic; advanced lock-free).
  // Topology: fleet_size == 0 (or == num_workers) is the legacy pinned
  // pool; anything larger spreads the guests over one lane per worker and
  // fleet_shards reactors that the workers pump cooperatively.
  const PoolShape shape = ShapePool(options.num_workers, options.fleet_size,
                                    options.fleet_shards);
  VmPool pool(target, KernelConfig::ForVersion(options.version), &clock,
              shape.guests, VmLatencyModel(), options.fault_plan,
              options.seed, &shared.metrics, shape.fleet);
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

  std::vector<std::unique_ptr<Worker>> workers;
  for (size_t i = 0; i < options.num_workers; ++i) {
    workers.push_back(std::make_unique<Worker>(
        target, options, &shared, i, &pool, &clock,
        pool.fleet()
            ? shard_journals[pool.shard_of_lane(i % pool.num_lanes())].get()
            : nullptr));
  }
  const auto wall_start = std::chrono::steady_clock::now();
  if (!workers.empty()) {
    workers[0]->SeedDistilled();
    shared.seeded_execs = shared.fuzz_execs;
  }
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
  result.vm_health = pool.HealthReport();
  result.fleet = pool.ShardSummaries();

  result.coverage = shared.coverage.Count();
  result.fuzz_execs = shared.fuzz_execs;
  result.corpus_size = shared.corpus.size();
  result.unique_bugs = shared.crashes.UniqueBugs();
  result.relations = shared.relations.Count();
  result.relations_static =
      shared.relations.CountBySource(RelationSource::kStatic);
  result.relations_dynamic =
      shared.relations.CountBySource(RelationSource::kDynamic);
  FuzzMetrics handles(&shared.metrics);
  ParallelMetrics pm(&shared.metrics);
  result.faults = pool.InjectedStats();
  result.faults.Merge(handles.RecoveryStats());
  result.corpus_progs = shared.corpus.ExportAll();
  result.crash_records = shared.crashes.All();
  // Final gauge refresh, then snapshot the whole registry.
  handles.SetStateGauges(result.coverage, result.corpus_size, shared.relations,
                         result.unique_bugs, shared.alpha.alpha(),
                         clock.now());
  pm.wall_ns->Set(static_cast<double>(wall_ns));
  // Fraction of the fleet's wall time spent inside the publish lock: the
  // headline contention number (1.0 would mean fully serialized workers).
  const double fleet_ns =
      static_cast<double>(wall_ns) * static_cast<double>(options.num_workers);
  pm.lock_held_share->Set(
      fleet_ns > 0.0 ? static_cast<double>(pm.lock_held_ns->Sum()) / fleet_ns
                     : 0.0);
  result.telemetry = shared.metrics.Snapshot();
  result.journal = shared.journal.Records();
  return result;
}

}  // namespace healer
