// Differential properties of the fault-injection layer: a faulted campaign
// must track its fault-free twin within a coverage tolerance band, and the
// corpora built by both the single-threaded Fuzzer and the ParallelFuzzer
// must satisfy the archive invariant — every archived program re-executes
// on a fresh, fault-free VM and reproduces nonzero coverage.

#include <gtest/gtest.h>

#include "src/fuzz/campaign.h"
#include "src/fuzz/parallel.h"
#include "src/syzlang/builtin_descs.h"

namespace healer {
namespace {

CampaignOptions SmallCampaign(uint64_t seed) {
  CampaignOptions options;
  options.tool = ToolKind::kHealer;
  options.seed = seed;
  options.hours = 0.5;
  options.max_execs = 400;
  options.num_vms = 2;
  return options;
}

// Re-executes `prog` on a fresh fault-free VM; the archive invariant
// requires a clean run that reports coverage.
bool ReExecutesWithCoverage(const Prog& prog) {
  SimClock clock;
  GuestVm vm(BuiltinTarget(), KernelConfig::ForVersion(KernelVersion::kV5_11),
             &clock);
  Bitmap coverage(CallCoverage::kMapBits);
  const ExecResult result = vm.Exec(prog, &coverage);
  return !result.Failed() && coverage.Count() > 0;
}

// A moderately faulted campaign loses throughput, not correctness: given
// enough simulated time that both runs complete the same exec budget, its
// coverage stays inside a band around the fault-free twin's rather than
// collapsing (recovery works) or inflating (no phantom feedback). Faults do
// cost simulated wall-clock (timeouts, reboots, backoff), so the hours
// budget is sized to make max_execs the binding limit for both runs.
TEST(FaultDifferentialTest, ModerateFaultsStayWithinCoverageBand) {
  for (const uint64_t seed : {11ull, 23ull}) {
    CampaignOptions baseline_options = SmallCampaign(seed);
    baseline_options.hours = 6.0;
    const CampaignResult baseline = RunCampaign(baseline_options);
    CampaignOptions faulted_options = SmallCampaign(seed);
    faulted_options.hours = 6.0;
    faulted_options.fault_plan = FaultPlan::Uniform(0.03);
    const CampaignResult faulted = RunCampaign(faulted_options);

    // Both campaigns ran their full exec budget: the differential below
    // compares equal amounts of fuzzing work, not unequal time slices.
    ASSERT_EQ(baseline.fuzz_execs, faulted.fuzz_execs) << "seed " << seed;

    EXPECT_EQ(baseline.faults.TotalInjected(), 0u);
    EXPECT_GT(faulted.faults.TotalInjected(), 0u) << "seed " << seed;
    ASSERT_GT(baseline.final_coverage, 0u);
    ASSERT_GT(faulted.final_coverage, 0u) << "seed " << seed;

    const double ratio = static_cast<double>(faulted.final_coverage) /
                         static_cast<double>(baseline.final_coverage);
    EXPECT_GE(ratio, 0.5) << "seed " << seed << ": faulted campaign collapsed "
                          << faulted.final_coverage << " vs "
                          << baseline.final_coverage;
    EXPECT_LE(ratio, 1.5) << "seed " << seed
                          << ": faulted campaign overshot " << ratio;
  }
}

// Discarding faulted feedback must never archive a program that cannot
// reproduce coverage: single-threaded fuzzer under sustained fault pressure.
TEST(FaultDifferentialTest, FuzzerCorpusReExecutesCleanly) {
  FuzzerOptions options;
  options.tool = ToolKind::kHealer;
  options.seed = 9;
  options.num_vms = 2;
  options.fault_plan = FaultPlan::Uniform(0.05);
  Fuzzer fuzzer(BuiltinTarget(), options);
  for (int i = 0; i < 300; ++i) {
    fuzzer.Step();
  }
  const std::vector<Prog> progs = fuzzer.corpus().ExportAll();
  ASSERT_FALSE(progs.empty());
  for (size_t i = 0; i < progs.size(); ++i) {
    EXPECT_TRUE(ReExecutesWithCoverage(progs[i])) << "corpus entry " << i;
    EXPECT_TRUE(progs[i].Validate().ok()) << "corpus entry " << i;
  }
  EXPECT_GT(fuzzer.fault_stats().TotalInjected(), 0u);
}

// The ParallelFuzzer's corpus satisfies the same invariant, and its health /
// fault accounting is internally consistent. (Suite name matches the
// FaultParallel* TSan filter in tests/CMakeLists.txt.)
TEST(FaultParallelTest, ParallelCorpusReExecutesAndAccountsFaults) {
  ParallelOptions options;
  options.tool = ToolKind::kHealer;
  options.seed = 5;
  options.num_workers = 3;
  options.total_execs = 600;
  options.fault_plan = FaultPlan::Uniform(0.05);
  const ParallelResult result = RunParallelFuzz(BuiltinTarget(), options);

  EXPECT_GE(result.fuzz_execs, options.total_execs);
  ASSERT_GT(result.corpus_size, 0u);
  ASSERT_EQ(result.corpus_progs.size(), result.corpus_size);
  for (size_t i = 0; i < result.corpus_progs.size(); ++i) {
    EXPECT_TRUE(ReExecutesWithCoverage(result.corpus_progs[i]))
        << "corpus entry " << i;
  }

  // Health report covers every worker VM, and the per-VM failure counters
  // sum to the recovery layer's failed-exec count.
  ASSERT_EQ(result.vm_health.size(), options.num_workers);
  uint64_t vm_faults = 0;
  for (const VmHealth& health : result.vm_health) {
    vm_faults += health.infra_faults;
  }
  EXPECT_EQ(vm_faults, result.faults.failed_execs);
  EXPECT_GT(result.faults.TotalInjected(), 0u);
  EXPECT_LE(result.faults.discarded + result.faults.recovered,
            result.faults.failed_execs);
}

// Fault-free parallel and single-threaded runs agree on the invariant too:
// nothing about the recovery plumbing disturbs the plain path.
TEST(FaultParallelTest, FaultFreeParallelCorpusReExecutes) {
  ParallelOptions options;
  options.seed = 2;
  options.num_workers = 2;
  options.total_execs = 300;
  const ParallelResult result = RunParallelFuzz(BuiltinTarget(), options);
  EXPECT_EQ(result.faults.TotalInjected(), 0u);
  EXPECT_EQ(result.faults.failed_execs, 0u);
  ASSERT_EQ(result.corpus_progs.size(), result.corpus_size);
  for (size_t i = 0; i < result.corpus_progs.size(); ++i) {
    EXPECT_TRUE(ReExecutesWithCoverage(result.corpus_progs[i]))
        << "corpus entry " << i;
  }
}

}  // namespace
}  // namespace healer
