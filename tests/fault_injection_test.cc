// Fault-injection framework: deterministic injector streams, typed failure
// surfaces on GuestVm, feedback-isolation guarantees (a faulted execution
// never touches the coverage bitmap or the relation table), recovery-policy
// accounting, and campaign-level properties randomized over many seeds.

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/fuzz/campaign.h"
#include "src/fuzz/templates.h"
#include "src/syzlang/builtin_descs.h"
#include "src/vm/fault_plan.h"
#include "src/vm/vm_pool.h"

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

FaultPlan SingleFault(FaultKind kind, double rate = 1.0) {
  FaultPlan plan;
  plan.set_rate(kind, rate);
  return plan;
}

std::unique_ptr<GuestVm> MakeVm(SimClock* clock, const FaultPlan& plan,
                                uint64_t seed = 7) {
  return std::make_unique<GuestVm>(
      BuiltinTarget(), KernelConfig::ForVersion(KernelVersion::kV5_11), clock,
      VmLatencyModel(), plan, seed);
}

// ---- FaultPlan / FaultInjector ----

TEST(FaultPlanTest, EmptyAndUniform) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  plan.set_rate(FaultKind::kSlowVm, 0.5);
  EXPECT_FALSE(plan.empty());
  EXPECT_FALSE(FaultPlan::Uniform(0.1).empty());
  EXPECT_TRUE(FaultPlan::Uniform(0.0).empty());
}

TEST(FaultPlanTest, ParseSpec) {
  Result<FaultPlan> plan = ParseFaultPlan("crash=0.01,timeout=0.5,boot=1");
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->rate(FaultKind::kVmCrash), 0.01);
  EXPECT_DOUBLE_EQ(plan->rate(FaultKind::kExecTimeout), 0.5);
  EXPECT_DOUBLE_EQ(plan->rate(FaultKind::kBootFailure), 1.0);
  EXPECT_DOUBLE_EQ(plan->rate(FaultKind::kSlowVm), 0.0);

  EXPECT_FALSE(ParseFaultPlan("nosuch=0.1").ok());
  EXPECT_FALSE(ParseFaultPlan("crash").ok());
  EXPECT_FALSE(ParseFaultPlan("crash=2.0").ok());
  EXPECT_FALSE(ParseFaultPlan("crash=x").ok());
  EXPECT_TRUE(ParseFaultPlan("").ok());  // Empty spec = fault-free plan.
  EXPECT_FALSE(ParseFaultPlan("crash=0.1x").ok());  // Trailing garbage.
}

TEST(FaultPlanTest, RateIsANumberInUnitRangeAndNothingElse) {
  for (const char* good : {"0", "1", "0.02", "1.0", ".5"}) {
    EXPECT_TRUE(ParseFaultRate(good).ok()) << good;
  }
  EXPECT_DOUBLE_EQ(*ParseFaultRate("0.25"), 0.25);
  for (const char* bad :
       {"abc", "1.5", "0.1x", "", "-0.1", "nan", "inf", " 0.1", "0.1 "}) {
    EXPECT_FALSE(ParseFaultRate(bad).ok()) << "'" << bad << "'";
  }
  const Result<double> bad = ParseFaultRate("5");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("[0, 1]"), std::string::npos);
}

TEST(FaultInjectorTest, SameSeedSameDecisionStream) {
  const FaultPlan plan = FaultPlan::Uniform(0.2);
  FaultInjector a(plan, 99);
  FaultInjector b(plan, 99);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.Draw(), b.Draw()) << "diverged at draw " << i;
  }
  EXPECT_EQ(a.injected(), b.injected());
  uint64_t total = 0;
  for (uint64_t n : a.injected()) total += n;
  EXPECT_GT(total, 0u);
}

TEST(FaultInjectorTest, DisabledInjectorNeverFires) {
  FaultInjector injector(FaultPlan(), 1);
  EXPECT_FALSE(injector.enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(injector.Draw(), std::nullopt);
  }
}

// ---- GuestVm typed failures ----

TEST(GuestVmFaultTest, VmCrashSurfacesVmLostAndMergesNothing) {
  SimClock clock;
  auto vm = MakeVm(&clock, SingleFault(FaultKind::kVmCrash));
  Bitmap coverage(CallCoverage::kMapBits);
  const uint64_t checksum = coverage.Hash();
  const ExecResult result = vm->Exec(Chain({"sync"}), &coverage);
  EXPECT_EQ(result.failure, ExecFailure::kVmLost);
  EXPECT_TRUE(result.Failed());
  EXPECT_TRUE(result.calls.empty());
  EXPECT_EQ(coverage.Hash(), checksum);  // No feedback from a faulted exec.
  EXPECT_EQ(coverage.Count(), 0u);
  EXPECT_EQ(vm->execs(), 0u);
  EXPECT_EQ(vm->infra_faults(), 1u);
  EXPECT_EQ(vm->consecutive_failures(), 1u);
}

TEST(GuestVmFaultTest, TimeoutBurnsWatchdogBudget) {
  SimClock clock;
  auto vm = MakeVm(&clock, SingleFault(FaultKind::kExecTimeout));
  const ExecResult result = vm->Exec(Chain({"sync"}), nullptr);
  EXPECT_EQ(result.failure, ExecFailure::kTimeout);
  VmLatencyModel model;
  EXPECT_EQ(clock.now(), model.boot + model.exec_timeout);
}

TEST(GuestVmFaultTest, CorruptedWireBytesNeverMergeCoverage) {
  for (const FaultKind kind :
       {FaultKind::kTruncatedResult, FaultKind::kBitFlipResult}) {
    SimClock clock;
    auto vm = MakeVm(&clock, SingleFault(kind));
    Bitmap coverage(CallCoverage::kMapBits);
    const uint64_t checksum = coverage.Hash();
    const ExecResult result =
        vm->Exec(Chain({"memfd_create", "write$memfd"}), &coverage);
    EXPECT_EQ(result.failure, ExecFailure::kCorruptedReply);
    EXPECT_TRUE(result.calls.empty());
    EXPECT_EQ(coverage.Hash(), checksum);
  }
}

TEST(GuestVmFaultTest, SlowVmStillSucceedsButTakesLonger) {
  SimClock slow_clock;
  auto slow = MakeVm(&slow_clock, SingleFault(FaultKind::kSlowVm));
  SimClock fast_clock;
  auto fast = MakeVm(&fast_clock, FaultPlan());

  Prog prog = Chain({"sync"});
  Bitmap coverage(CallCoverage::kMapBits);
  const ExecResult result = slow->Exec(prog, &coverage);
  fast->Exec(prog.Clone(), nullptr);

  EXPECT_FALSE(result.Failed());
  EXPECT_FALSE(result.calls.empty());
  EXPECT_GT(coverage.Count(), 0u);  // A slow exec still reports feedback.
  VmLatencyModel model;
  EXPECT_EQ(slow_clock.now() - fast_clock.now(), model.slow_penalty);
  EXPECT_EQ(slow->consecutive_failures(), 0u);
}

TEST(GuestVmFaultTest, BootFailureLeavesVmDownUntilQuarantine) {
  SimClock clock;
  auto vm = MakeVm(&clock, SingleFault(FaultKind::kBootFailure));
  for (int i = 1; i <= 3; ++i) {
    const ExecResult result = vm->Exec(Chain({"sync"}), nullptr);
    EXPECT_EQ(result.failure, ExecFailure::kBootFailure);
    EXPECT_EQ(vm->consecutive_failures(), static_cast<uint64_t>(i));
  }
  vm->QuarantineReboot();
  EXPECT_EQ(vm->quarantines(), 1u);
  EXPECT_EQ(vm->consecutive_failures(), 0u);
}

TEST(GuestVmFaultTest, FaultFreePlanMatchesLegacyTiming) {
  SimClock clock;
  auto vm = MakeVm(&clock, FaultPlan());
  Prog prog = Chain({"memfd_create", "write$memfd"});
  vm->Exec(prog, nullptr);
  VmLatencyModel model;
  EXPECT_EQ(clock.now(), model.boot + model.exec_overhead + 2 * model.per_call);
}

// Faults of the shm channel and control socket. Each is a typed failure
// that merges nothing. Setup and torn faults waste one round trip and leave
// the guest up, holding its image; a stall loses the reply, so the watchdog
// budget burns and the guest goes down, taking its image with it.
void ExpectChannelFault(FaultKind kind, ExecFailure failure, bool stall) {
  SimClock clock;
  auto vm = MakeVm(&clock, SingleFault(kind, 0.5));
  const Prog prog = Chain({"memfd_create", "write$memfd"});
  const ProgImage image(prog);
  const VmLatencyModel model;
  size_t faults_while_holding = 0;
  size_t successes = 0;
  for (int i = 0; i < 40; ++i) {
    const bool ready = vm->state() == VmState::kReady;
    const bool held = vm->HoldsImage(image);
    const SimClock::Nanos before = clock.now();
    Bitmap coverage(CallCoverage::kMapBits);
    const ExecResult result = vm->Exec(image, nullptr, &coverage);
    if (!result.Failed()) {
      EXPECT_GT(coverage.Count(), 0u);
      ++successes;
      continue;
    }
    EXPECT_EQ(result.failure, failure) << "exec " << i;
    EXPECT_TRUE(result.calls.empty()) << "exec " << i;
    EXPECT_EQ(coverage.Count(), 0u) << "exec " << i;
    EXPECT_EQ(vm->down(), stall) << "exec " << i;
    if (!ready) {
      continue;  // The charge also covers a boot or a reboot.
    }
    EXPECT_EQ(clock.now() - before,
              stall ? model.exec_timeout : model.exec_overhead)
        << "exec " << i;
    if (held) {
      ++faults_while_holding;
      EXPECT_EQ(vm->HoldsImage(image), !stall) << "exec " << i;
      EXPECT_EQ(vm->executor().has_image(), !stall) << "exec " << i;
    }
  }
  EXPECT_GT(successes, 0u);
  EXPECT_GT(faults_while_holding, 0u);
  EXPECT_EQ(vm->infra_faults(), 40u - successes);
}

TEST(GuestVmFaultTest, ChannelSetupFailureWastesOneRoundTrip) {
  ExpectChannelFault(FaultKind::kRingSetup, ExecFailure::kRingSetup, false);
}

TEST(GuestVmFaultTest, TornRequestWastesOneRoundTrip) {
  ExpectChannelFault(FaultKind::kRingTorn, ExecFailure::kRingTorn, false);
}

TEST(GuestVmFaultTest, LostReplyFiresWatchdogAndTakesGuestDown) {
  ExpectChannelFault(FaultKind::kRingStall, ExecFailure::kRingStall, true);
}

// ---- Pool health accounting ----

TEST(MonitorHealthTest, ReportsPerVmFaultCounters) {
  SimClock clock;
  VmPool pool(BuiltinTarget(), KernelConfig::ForVersion(KernelVersion::kV5_11),
              &clock, 2, VmLatencyModel(),
              SingleFault(FaultKind::kVmCrash), /*fault_seed=*/11);
  pool.vm(0).Exec(Chain({"sync"}), nullptr);

  const std::vector<VmHealth> health = pool.HealthReport();
  ASSERT_EQ(health.size(), 2u);
  EXPECT_EQ(health[0].infra_faults, 1u);
  EXPECT_EQ(health[0].consecutive_failures, 1u);
  EXPECT_EQ(health[1].infra_faults, 0u);
  EXPECT_EQ(pool.TotalInfraFaults(), 1u);
  EXPECT_EQ(pool.InjectedStats().injected[static_cast<size_t>(
                FaultKind::kVmCrash)],
            1u);
}

// ---- Campaign-level properties ----

CampaignOptions SmallCampaign(uint64_t seed, const FaultPlan& plan) {
  CampaignOptions options;
  options.tool = ToolKind::kHealer;
  options.seed = seed;
  options.hours = 0.1;
  options.max_execs = 15;
  options.num_vms = 2;
  options.fault_plan = plan;
  return options;
}

FaultPlan RandomPlan(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  FaultPlan plan;
  for (size_t i = 0; i < kNumFaultKinds; ++i) {
    if (rng.Chance(1, 2)) {
      plan.rates[i] = static_cast<double>(rng.Below(25)) / 100.0;
    }
  }
  return plan;
}

// Any randomized plan, over >= 200 seeds: the campaign completes, the
// coverage curve stays monotone, and the fault accounting is consistent.
TEST(FaultPropertyTest, RandomPlansNeverCorruptCampaignState) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const FaultPlan plan = RandomPlan(seed);
    const CampaignResult result = RunCampaign(SmallCampaign(seed, plan));

    // The coverage curve never decreases: discarded feedback from faulted
    // executions must not perturb accumulated state.
    for (size_t i = 1; i < result.samples.size(); ++i) {
      ASSERT_GE(result.samples[i].branches, result.samples[i - 1].branches)
          << "coverage regressed, seed " << seed;
      ASSERT_GE(result.samples[i].execs, result.samples[i - 1].execs);
    }
    ASSERT_EQ(result.final_coverage, result.samples.back().branches);

    // Accounting invariants.
    const FaultStats& faults = result.faults;
    ASSERT_LE(faults.discarded + faults.recovered, faults.failed_execs)
        << "seed " << seed;
    ASSERT_LE(faults.retries, faults.failed_execs);
    ASSERT_GE(result.relations_total, result.relations_static);
    ASSERT_EQ(result.relations_total,
              result.relations_static + result.relations_dynamic);
  }
}

// Same (seed, plan) => bit-identical campaigns: coverage curve, corpus,
// crash list and fault/recovery counters.
TEST(FaultPropertyTest, SameSeedAndPlanAreBitIdentical) {
  for (uint64_t seed = 3; seed <= 60; seed += 3) {
    const FaultPlan plan = RandomPlan(seed + 1000);
    const CampaignOptions options = SmallCampaign(seed, plan);
    const CampaignResult a = RunCampaign(options);
    const CampaignResult b = RunCampaign(options);

    ASSERT_EQ(a.final_coverage, b.final_coverage) << "seed " << seed;
    ASSERT_EQ(a.fuzz_execs, b.fuzz_execs);
    ASSERT_EQ(a.total_execs, b.total_execs);
    ASSERT_EQ(a.corpus_size, b.corpus_size);
    ASSERT_EQ(a.crashes.size(), b.crashes.size());
    ASSERT_TRUE(a.faults == b.faults) << "fault counters diverged, seed "
                                      << seed;
    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (size_t i = 0; i < a.samples.size(); ++i) {
      ASSERT_EQ(a.samples[i].hours, b.samples[i].hours);
      ASSERT_EQ(a.samples[i].branches, b.samples[i].branches);
      ASSERT_EQ(a.samples[i].execs, b.samples[i].execs);
      ASSERT_EQ(a.samples[i].relations, b.samples[i].relations);
    }
  }
}

// With a 100% VM-crash rate no execution ever completes, so no feedback of
// any kind may reach the campaign state: coverage, corpus and dynamically
// learned relations all stay empty and every program is discarded.
TEST(FaultPropertyTest, TotalFaultRateYieldsZeroFeedback) {
  CampaignOptions options = SmallCampaign(5, SingleFault(FaultKind::kVmCrash));
  options.hours = 1.0;
  options.max_execs = 10;
  const CampaignResult result = RunCampaign(options);

  EXPECT_EQ(result.final_coverage, 0u);
  EXPECT_EQ(result.corpus_size, 0u);
  EXPECT_EQ(result.relations_dynamic, 0u);
  EXPECT_TRUE(result.crashes.empty());
  EXPECT_EQ(result.faults.discarded, result.fuzz_execs);
  EXPECT_EQ(result.faults.recovered, 0u);
  EXPECT_GT(result.faults.quarantines, 0u);  // Streaks trip the threshold.
}

// Moderate fault pressure with recovery still makes progress.
TEST(FaultPropertyTest, RecoveryKeepsCampaignProductive) {
  CampaignOptions options = SmallCampaign(17, FaultPlan::Uniform(0.05));
  options.hours = 0.5;
  options.max_execs = 200;
  const CampaignResult result = RunCampaign(options);
  EXPECT_GT(result.final_coverage, 0u);
  EXPECT_GT(result.corpus_size, 0u);
  EXPECT_GT(result.faults.TotalInjected(), 0u);
  EXPECT_GT(result.faults.recovered, 0u);
}

}  // namespace
}  // namespace healer
