// Reactor-fleet tests (DESIGN.md §12): EventLoop dispatch/determinism
// contracts, VM lifecycle state machines at storm scale (hundreds of guests
// booting or crash-looping on one worker thread), health-counter
// reconciliation, and byte-identical journals for a fixed seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/event_loop.h"
#include "src/base/journal.h"
#include "src/base/rng.h"
#include "src/fuzz/fuzzer.h"
#include "src/fuzz/parallel.h"
#include "src/fuzz/templates.h"
#include "src/syzlang/builtin_descs.h"
#include "src/vm/vm_pool.h"
#include "tests/test_util.h"

namespace healer {
namespace {

std::vector<int> AllIds(const Target& target) {
  std::vector<int> ids;
  for (const auto& call : target.syscalls()) {
    ids.push_back(call->id);
  }
  return ids;
}

Prog Chain(const std::vector<std::string>& names, uint64_t seed = 1) {
  const Target& target = BuiltinTarget();
  Rng rng(seed);
  return BuildChain(target, AllIds(target), names, &rng);
}

// The shallow mmap-zero-len bug: mmap(addr, 0, ..., MAP_FIXED) crashes the
// simulated kernel (same trigger as GuestVmTest.CrashCausesRebootLatency).
Prog CrashingProg() {
  const Target& target = BuiltinTarget();
  Prog prog(&target);
  Call call;
  call.meta = target.FindSyscall("mmap");
  call.args.push_back(MakeVma(call.meta->args[0].type,
                              GuestMem::kVmaBase + 4096, 1));
  call.args.push_back(MakeConstant(call.meta->args[1].type, 0));
  call.args.push_back(MakeConstant(call.meta->args[2].type, 3));
  call.args.push_back(MakeConstant(call.meta->args[3].type, 0x10));
  call.args.push_back(MakeResourceSpecial(call.meta->args[4].type,
                                          static_cast<uint64_t>(-1)));
  call.args.push_back(MakeConstant(call.meta->args[5].type, 0));
  prog.calls().push_back(std::move(call));
  return prog;
}

KernelConfig Config() {
  return KernelConfig::ForVersion(KernelVersion::kV5_11);
}

// ---- EventLoop ----

TEST(EventLoopTest, TimersFireInDeadlineThenArmOrder) {
  EventLoop loop;
  std::vector<int> order;
  // Armed out of deadline order; 20ms carries two timers whose tiebreak is
  // arm order.
  loop.ScheduleAt(20 * SimClock::kMillisecond, [&] { order.push_back(2); });
  loop.ScheduleAt(5 * SimClock::kMillisecond, [&] { order.push_back(1); });
  loop.ScheduleAt(20 * SimClock::kMillisecond, [&] { order.push_back(3); });
  loop.ScheduleAt(40 * SimClock::kMillisecond, [&] { order.push_back(4); });
  EXPECT_EQ(loop.NextDeadline(), 5 * SimClock::kMillisecond);
  EXPECT_EQ(loop.RunUntil(SimClock::kSecond), 4u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(loop.now(), SimClock::kSecond);
  EXPECT_EQ(loop.pending_timers(), 0u);
}

TEST(EventLoopTest, DeadlinesCascadeAcrossWheelLevels) {
  EventLoop loop;
  // Deadlines five orders of magnitude apart (50ms, 90s, 2 simulated
  // hours) must each fire at their exact deadline.
  std::vector<SimClock::Nanos> fired;
  const std::vector<SimClock::Nanos> deadlines = {
      50 * SimClock::kMillisecond, 90 * SimClock::kSecond,
      2 * SimClock::kHour};
  for (SimClock::Nanos d : deadlines) {
    loop.ScheduleAt(d, [&fired, &loop] { fired.push_back(loop.now()); });
  }
  EXPECT_EQ(loop.NextDeadline(), deadlines[0]);
  loop.RunUntilIdle();
  EXPECT_EQ(fired, deadlines);
  EXPECT_EQ(loop.NextDeadline(), EventLoop::kNoDeadline);
}

TEST(EventLoopTest, PostsRunFifoAndSignalsCoalesce) {
  EventLoop loop;
  int handler_runs = 0;
  const size_t source = loop.AddCompletionSource([&] { ++handler_runs; });
  // Three rings before the pump coalesce into one invocation (eventfd
  // semantics).
  loop.SignalCompletion(source);
  loop.SignalCompletion(source);
  loop.SignalCompletion(source);
  EXPECT_EQ(loop.RunUntil(loop.now()), 1u);
  EXPECT_EQ(handler_runs, 1);
  loop.RunUntil(loop.now());  // No pending signal: handler must not rerun.
  EXPECT_EQ(handler_runs, 1);
}

TEST(EventLoopTest, RandomSchedulesDispatchInDeadlineThenArmOrder) {
  // ~300 timers over a few simulated milliseconds, with colliding and
  // sub-millisecond deadlines, pumped with horizons that cut through
  // milliseconds: every timer fires at its own deadline, in exactly
  // (deadline, arm) order.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    EventLoop loop;
    Rng rng(seed);
    std::vector<std::pair<SimClock::Nanos, int>> armed;
    std::vector<std::pair<SimClock::Nanos, int>> fired;
    for (int i = 0; i < 300; ++i) {
      const SimClock::Nanos deadline =
          rng.Below(8) * SimClock::kMillisecond +
          rng.Below(4) * 250 * SimClock::kMicrosecond;
      armed.emplace_back(deadline, i);
      loop.ScheduleAt(deadline, [&fired, &loop, deadline, i] {
        EXPECT_EQ(loop.now(), deadline);
        fired.emplace_back(deadline, i);
      });
    }
    std::sort(armed.begin(), armed.end());
    SimClock::Nanos horizon = 0;
    while (loop.pending_timers() != 0) {
      horizon += 300 * SimClock::kMicrosecond;
      loop.RunUntil(horizon);
      EXPECT_EQ(loop.now(), horizon);
    }
    EXPECT_EQ(fired, armed) << "seed " << seed;
    EXPECT_EQ(loop.dispatched(), armed.size());
  }
}

TEST(EventLoopTest, SameScheduleSameDispatchOrder) {
  // The determinism contract the fleet journals lean on: identical
  // schedules dispatch identically, including past-deadline and same-tick
  // collisions.
  auto run = [] {
    EventLoop loop;
    std::string order;
    Rng rng(1234);
    for (int i = 0; i < 200; ++i) {
      const SimClock::Nanos deadline =
          (rng.Next() % 500) * SimClock::kMillisecond;
      loop.ScheduleAt(deadline, [&order, i] {
        order += std::to_string(i);
        order += ",";
      });
    }
    loop.RunUntil(SimClock::kSecond);
    return order;
  };
  EXPECT_EQ(run(), run());
}

// In the TSan pass: workers ring doorbells and arm timers against a shard
// they do not pump.
TEST(EventLoopThreadsTest, CrossThreadSignalsAndTimers) {
  EventLoop loop;
  std::atomic<int> handled{0};
  const size_t source =
      loop.AddCompletionSource([&] { handled.fetch_add(1); });
  std::atomic<int> timers_fired{0};
  std::atomic<bool> stop{false};
  std::thread pumper([&] {
    SimClock::Nanos horizon = 0;
    while (!stop.load()) {
      horizon += SimClock::kMillisecond;
      loop.RunUntil(horizon);
    }
    loop.RunUntilIdle();
  });
  std::vector<std::thread> producers;
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < 64; ++i) {
        loop.SignalCompletion(source);
        loop.ScheduleAfter((t + 1) * SimClock::kMillisecond,
                           [&] { timers_fired.fetch_add(1); });
      }
    });
  }
  for (auto& p : producers) {
    p.join();
  }
  stop.store(true);
  pumper.join();
  EXPECT_EQ(timers_fired.load(), 4 * 64);
  EXPECT_GE(handled.load(), 1);
}

// ---- Next() health skip (legacy topology) ----

TEST(VmPoolTest, NextSkipsDownGuests) {
  SimClock clock;
  VmPool pool(BuiltinTarget(), Config(), &clock, 3);
  Prog crash = CrashingProg();
  Prog benign = Chain({"sync"});
  // Boot everyone, then take VM 1 down.
  for (size_t i = 0; i < pool.size(); ++i) {
    pool.vm(i).Exec(benign, nullptr);
  }
  pool.vm(1).Exec(crash, nullptr);
  ASSERT_TRUE(pool.vm(1).down());
  // Fresh work must route around the dead guest: 0, 2, 0, 2, ...
  EXPECT_EQ(&pool.Next(), &pool.vm(0));
  EXPECT_EQ(&pool.Next(), &pool.vm(2));
  EXPECT_EQ(&pool.Next(), &pool.vm(0));
  // Once it reboots (inline, at the top of its next Exec) it rejoins the
  // rotation.
  pool.vm(1).Exec(benign, nullptr);
  ASSERT_FALSE(pool.vm(1).down());
  EXPECT_EQ(&pool.Next(), &pool.vm(1));
}

TEST(VmPoolTest, NextFallsBackWhenEveryGuestIsDown) {
  SimClock clock;
  VmPool pool(BuiltinTarget(), Config(), &clock, 2);
  Prog crash = CrashingProg();
  pool.vm(0).Exec(crash, nullptr);
  pool.vm(1).Exec(crash, nullptr);
  ASSERT_TRUE(pool.vm(0).down());
  ASSERT_TRUE(pool.vm(1).down());
  // Progress guarantee: the round-robin pick still comes back (the caller's
  // recovery path reboots it inline).
  GuestVm& picked = pool.Next();
  EXPECT_TRUE(&picked == &pool.vm(0) || &picked == &pool.vm(1));
}

// ---- fleet storms ----

TEST(FleetPoolTest, BootStormCostsOneBootLatency) {
  SimClock clock;
  FleetOptions fleet;
  fleet.lanes = 4;
  fleet.shards = 2;
  VmPool pool(BuiltinTarget(), Config(), &clock, 512, VmLatencyModel(),
              FaultPlan(), 1, nullptr, fleet);
  ASSERT_TRUE(pool.fleet());
  ASSERT_EQ(pool.num_shards(), 2u);
  // Everything is armed but nothing has fired: the whole fleet is cold or
  // booting, and no simulated time has passed.
  EXPECT_EQ(clock.now(), 0u);

  GuestVm* vm = pool.AcquireReady(0);
  ASSERT_NE(vm, nullptr);
  EXPECT_EQ(vm->state(), VmState::kReady);
  // The acquire advanced the shared clock to the boot deadline — once, not
  // once per guest: 512 overlapping boots cost one boot latency.
  const VmLatencyModel model;
  EXPECT_EQ(clock.now(), model.boot);
  pool.PumpShard(1);  // Bring the other shard up to the same horizon.

  size_t ready = 0, total = 0;
  for (const FleetShardSummary& s : pool.ShardSummaries()) {
    ready += s.ready;
    total += s.vms;
    EXPECT_EQ(s.timers_pending, 0u);
  }
  EXPECT_EQ(total, 512u);
  EXPECT_EQ(ready, 512u);
  EXPECT_EQ(pool.shard(0).now(), model.boot);
}

TEST(FleetPoolTest, CrashStormRebootsExactlyOnce) {
  SimClock clock;
  FleetOptions fleet;
  fleet.lanes = 2;
  fleet.shards = 2;
  FaultPlan plan;
  plan.set_rate(FaultKind::kBootFailure, 1.0);
  VmPool pool(BuiltinTarget(), Config(), &clock, 256, VmLatencyModel(), plan,
              7, nullptr, fleet);
  // Every async boot fails, parking all 256 guests; the shard doorbell arms
  // one reboot each, and the reboots overlap too.
  GuestVm* a = pool.AcquireReady(0);
  GuestVm* b = pool.AcquireReady(1);
  ASSERT_EQ(a->state(), VmState::kReady);
  ASSERT_EQ(b->state(), VmState::kReady);
  const VmLatencyModel model;
  // Virtual cost of the whole storm: one boot + one reboot, max not sum.
  EXPECT_EQ(clock.now(), model.boot + model.reboot);

  // Exactly-once charges: each guest drew exactly one boot failure and was
  // rebooted exactly once, even with both shards pumped repeatedly.
  pool.PumpShard(0);
  pool.PumpShard(1);
  const std::vector<VmHealth> health = pool.HealthReport();
  ASSERT_EQ(health.size(), 256u);
  for (size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(pool.vm(i).state(), VmState::kReady) << "vm " << i;
    EXPECT_EQ(pool.vm(i).infra_faults(), 1u) << "vm " << i;
    // The pool's health report must reconcile with the per-VM counters.
    EXPECT_EQ(health[i].infra_faults, pool.vm(i).infra_faults());
    EXPECT_EQ(health[i].execs, pool.vm(i).execs());
    EXPECT_EQ(health[i].quarantines, pool.vm(i).quarantines());
  }
  size_t pending = 0;
  for (const FleetShardSummary& s : pool.ShardSummaries()) {
    pending += s.timers_pending;
  }
  EXPECT_EQ(pending, 0u);
}

TEST(FleetPoolTest, GuestsPayOnlyForTouchedPages) {
  SimClock clock;
  VmPool pool(BuiltinTarget(), Config(), &clock, 64);
  const Prog prog = Chain({"pipe2", "write$pipe", "read$pipe"});
  pool.vm(0).Exec(prog, nullptr);  // Builds the pool's shared tables.
  const uint64_t before = ResidentBytes();
  if (before == 0) {
    GTEST_SKIP() << "/proc/self/statm unreadable";
  }
  for (size_t i = 1; i < pool.size(); ++i) {
    const ExecResult result = pool.vm(i).Exec(prog, nullptr);
    ASSERT_FALSE(result.Failed()) << "vm " << i;
  }
  // Each guest's data window and shm region are demand-zero: a guest costs
  // the pages its program touched, not the 3 MiB it may address.
  const double per_guest_mb =
      static_cast<double>(ResidentBytes() - before) / (1 << 20) /
      static_cast<double>(pool.size() - 1);
  EXPECT_LT(per_guest_mb, 1.0);
}

TEST(FleetPoolTest, SameSeedLifecycleJournalsAreByteIdentical) {
  auto run = [] {
    SimClock clock;
    Journal journal(4096);
    JournalWriter jw(&journal, 0);
    FleetOptions fleet;
    fleet.lanes = 2;
    fleet.shards = 2;
    FaultPlan plan;
    plan.set_rate(FaultKind::kBootFailure, 0.3);
    VmPool pool(BuiltinTarget(), Config(), &clock, 64, VmLatencyModel(), plan,
                42, nullptr, fleet);
    for (size_t i = 0; i < pool.size(); ++i) {
      pool.vm(i).set_journal(&jw);
    }
    for (size_t s = 0; s < pool.num_shards(); ++s) {
      pool.set_shard_journal(s, &jw);
    }
    for (int round = 0; round < 4; ++round) {
      for (size_t lane = 0; lane < pool.num_lanes(); ++lane) {
        GuestVm* vm = pool.AcquireReady(lane);
        pool.Release(lane, vm);
      }
    }
    jw.Flush();
    return JournalRecordsToJsonl(journal.Records());
  };
  const std::string first = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run());
}

// ---- fleet fuzzing (single-threaded reference loop) ----

TEST(FleetFuzzerTest, SameSeedFleetCampaignsAreIdentical) {
  auto run = [] {
    FuzzerOptions options;
    options.seed = 77;
    options.num_vms = 2;
    options.fleet_size = 64;
    options.fleet_shards = 2;
    Fuzzer fuzzer(BuiltinTarget(), options);
    for (int i = 0; i < 150; ++i) {
      fuzzer.Step();
    }
    struct Outcome {
      size_t coverage;
      size_t corpus;
      std::string journal;
    };
    return Outcome{fuzzer.CoverageCount(), fuzzer.corpus().size(),
                   fuzzer.journal().ToJsonl()};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_GT(a.coverage, 0u);
  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.corpus, b.corpus);
  EXPECT_EQ(a.journal, b.journal);
}

TEST(FleetFuzzerTest, FleetStatusCensusCoversEveryGuest) {
  FuzzerOptions options;
  options.seed = 5;
  // Shards are clamped to the lane count, so three lanes carry three shards.
  options.num_vms = 3;
  options.fleet_size = 96;
  options.fleet_shards = 3;
  Fuzzer fuzzer(BuiltinTarget(), options);
  for (int i = 0; i < 40; ++i) {
    fuzzer.Step();
  }
  const std::vector<FleetShardSummary> fleet = fuzzer.pool().ShardSummaries();
  ASSERT_EQ(fleet.size(), 3u);
  size_t total = 0;
  for (const FleetShardSummary& s : fleet) {
    total += s.vms;
    EXPECT_EQ(s.vms, s.cold + s.booting + s.ready + s.executing + s.crashed +
                         s.rebooting + s.quarantined)
        << "shard " << s.shard;
  }
  EXPECT_EQ(total, 96u);
}

// ---- fleet fuzzing (parallel workers; in the TSan pass) ----

TEST(FleetFuzzTest, ParallelFleetSmokeAndHealthReconciliation) {
  ParallelOptions options;
  options.seed = 11;
  options.num_workers = 4;
  options.total_execs = 1200;
  options.fleet_size = 512;
  options.fleet_shards = 2;
  options.journal_capacity = 2048;
  options.fault_plan.set_rate(FaultKind::kVmCrash, 0.02);
  options.fault_plan.set_rate(FaultKind::kBootFailure, 0.05);
  const ParallelResult result = RunParallelFuzz(BuiltinTarget(), options);

  EXPECT_EQ(result.fuzz_execs, 1200u);
  EXPECT_GT(result.coverage, 0u);
  ASSERT_EQ(result.fleet.size(), 2u);
  size_t census = 0;
  for (const FleetShardSummary& s : result.fleet) {
    census += s.vms;
    EXPECT_EQ(s.vms, s.cold + s.booting + s.ready + s.executing + s.crashed +
                         s.rebooting + s.quarantined)
        << "shard " << s.shard;
  }
  EXPECT_EQ(census, 512u);

  // Health accounting reconciles: the pool's per-VM report covers the
  // whole fleet and its exec total matches the shared telemetry counter.
  ASSERT_EQ(result.vm_health.size(), 512u);
  uint64_t health_execs = 0;
  for (const VmHealth& h : result.vm_health) {
    health_execs += h.execs;
  }
  EXPECT_EQ(health_execs, result.telemetry.counter("healer_vm_execs_total"));
  EXPECT_GE(health_execs, result.fuzz_execs);
  // Boots and reboots reach the journal as lifecycle records.
  EXPECT_TRUE(std::any_of(result.journal.begin(), result.journal.end(),
                          [](const JournalRecord& record) {
                            return record.kind == JournalKind::kVmLifecycle;
                          }));
}

// Four workers share one reactor shard, so a worker whose lane runs dry
// must wait for another worker's pump instead of taking a guest whose boot
// or reboot timer is still armed. Before AcquireReady waited, TSan saw the
// pump's FinishBootTimer/FinishRebootTimer race the holder's Exec on the
// control socket and the journal, and the heap was corrupted in some runs.
TEST(FleetFuzzTest, SharedShardHandsOutOnlySettledGuests) {
  for (const uint64_t seed : {uint64_t{11}, uint64_t{12}}) {
    ParallelOptions options;
    options.seed = seed;
    options.num_workers = 4;
    options.total_execs = 1200;
    options.fleet_size = 256;
    options.fleet_shards = 1;
    options.journal_capacity = 2048;
    options.fault_plan.set_rate(FaultKind::kVmCrash, 0.02);
    options.fault_plan.set_rate(FaultKind::kBootFailure, 0.05);
    const ParallelResult result = RunParallelFuzz(BuiltinTarget(), options);

    EXPECT_EQ(result.fuzz_execs, 1200u) << "seed " << seed;
    ASSERT_EQ(result.fleet.size(), 1u);
    EXPECT_EQ(result.fleet[0].vms, 256u);
    uint64_t health_execs = 0;
    for (const VmHealth& h : result.vm_health) {
      health_execs += h.execs;
    }
    EXPECT_EQ(health_execs,
              result.telemetry.counter("healer_vm_execs_total"));
    // Probes replay the image their guest already holds.
    EXPECT_GT(result.telemetry.counter("healer_exec_mask_replays_total"), 0u)
        << "seed " << seed;
  }
}

TEST(FleetFuzzTest, LegacyTopologyIsUnchangedByFleetPlumbing) {
  // fleet_size 0 and fleet_size == num_workers must both resolve to the
  // pinned one-VM-per-worker topology (parallel campaigns are
  // scheduling-dependent, so the check is structural, not value-for-value).
  for (const size_t fleet_size : {size_t{0}, size_t{2}}) {
    ParallelOptions options;
    options.seed = 3;
    options.num_workers = 2;
    options.total_execs = 400;
    options.fleet_size = fleet_size;
    const ParallelResult r = RunParallelFuzz(BuiltinTarget(), options);
    EXPECT_EQ(r.fuzz_execs, 400u) << "fleet_size " << fleet_size;
    EXPECT_GT(r.coverage, 0u);
    // Legacy census: one shard, every guest accounted for, none of the
    // fleet-only states (parked reboots) in play after shutdown.
    ASSERT_EQ(r.fleet.size(), 1u);
    EXPECT_EQ(r.fleet[0].vms, 2u);
    EXPECT_EQ(r.vm_health.size(), 2u);
  }
}

}  // namespace
}  // namespace healer
