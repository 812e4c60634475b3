// One fuzzing loop in every topology: a parallel campaign with one worker
// and batch_size 1 publishes after every iteration, so it must make the
// same campaign as a one-VM Fuzzer with the same seed — coverage, corpus,
// relations, bugs (hits and shortest reproducers included), request mix and
// the exec/crash journal records — for every tool, with and without faults.
// (Suite name matches the WorkerEquivalence* TSan filter in
// tests/CMakeLists.txt.)

#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/base/hash.h"
#include "src/fuzz/fuzzer.h"
#include "src/fuzz/parallel.h"
#include "src/prog/serialize.h"
#include "src/syzlang/builtin_descs.h"

namespace healer {
namespace {

std::set<uint64_t> ContentSet(const std::vector<Prog>& progs) {
  std::set<uint64_t> hashes;
  for (const Prog& prog : progs) {
    hashes.insert(Corpus::ContentHash(prog));
  }
  return hashes;
}

// (bug, hits, shortest reproducer, first exec) per bug.
using BugRow = std::tuple<int, uint64_t, size_t, uint64_t>;

std::set<BugRow> BugRows(const std::vector<CrashRecord>& records) {
  std::set<BugRow> rows;
  for (const CrashRecord& rec : records) {
    rows.insert({static_cast<int>(rec.bug), rec.hits, rec.shortest_repro,
                 rec.first_exec});
  }
  return rows;
}

FuzzerOptions SingleOptions(ToolKind tool, uint64_t seed,
                            const FaultPlan& plan) {
  FuzzerOptions options;
  options.tool = tool;
  options.seed = seed;
  options.num_vms = 1;
  options.fault_plan = plan;
  return options;
}

ParallelOptions OneWorkerOptions(ToolKind tool, uint64_t seed,
                                 const FaultPlan& plan, uint64_t execs) {
  ParallelOptions options;
  options.tool = tool;
  options.seed = seed;
  options.num_workers = 1;
  options.batch_size = 1;
  options.total_execs = execs;
  options.fault_plan = plan;
  return options;
}

struct EquivalenceCase {
  ToolKind tool;
  uint64_t seed;
  bool faults;
};

std::string CaseName(const EquivalenceCase& c) {
  std::string tool = ToolKindName(c.tool);
  if (tool == "healer-") {
    tool = "healer_minus";
  }
  return tool + "_seed" + std::to_string(c.seed) +
         (c.faults ? "_faults" : "");
}

void PrintTo(const EquivalenceCase& c, std::ostream* os) {
  *os << CaseName(c);
}

class WorkerEquivalenceTest : public testing::TestWithParam<EquivalenceCase> {
};

TEST_P(WorkerEquivalenceTest, OneWorkerEqualsOneVmFuzzer) {
  constexpr int kSteps = 1500;
  const EquivalenceCase& c = GetParam();
  const FaultPlan plan = c.faults ? FaultPlan::Uniform(0.02) : FaultPlan();

  Fuzzer fuzzer(BuiltinTarget(), SingleOptions(c.tool, c.seed, plan));
  const uint64_t seeded = fuzzer.FuzzExecs();
  for (int i = 0; i < kSteps; ++i) {
    fuzzer.Step();
  }
  const ParallelResult worker = RunParallelFuzz(
      BuiltinTarget(), OneWorkerOptions(c.tool, c.seed, plan, kSteps));

  EXPECT_EQ(worker.fuzz_execs, fuzzer.FuzzExecs());
  EXPECT_EQ(worker.fuzz_execs, seeded + kSteps);
  EXPECT_EQ(worker.coverage, fuzzer.CoverageCount());
  EXPECT_EQ(ContentSet(worker.corpus_progs),
            ContentSet(fuzzer.corpus().ExportAll()));
  EXPECT_EQ(worker.relations_static,
            fuzzer.relations().CountBySource(RelationSource::kStatic));
  EXPECT_EQ(worker.relations_dynamic,
            fuzzer.relations().CountBySource(RelationSource::kDynamic));
  EXPECT_EQ(BugRows(worker.crash_records), BugRows(fuzzer.crashes().All()));
  const FaultStats single = fuzzer.fault_stats();
  EXPECT_EQ(worker.faults.failed_execs, single.failed_execs);
  EXPECT_EQ(worker.faults.retries, single.retries);
  EXPECT_EQ(worker.faults.TotalInjected(), single.TotalInjected());
  if (c.faults) {
    EXPECT_GT(single.failed_execs, 0u);
  }
  const MetricsSnapshot single_t = fuzzer.metrics().Snapshot();
  for (const char* counter :
       {"healer_exec_analysis_total", "healer_crash_reports_total",
        "healer_fuzz_seeded_total", "healer_fuzz_generated_total",
        "healer_corpus_adds_total"}) {
    EXPECT_EQ(worker.telemetry.counter(counter), single_t.counter(counter))
        << counter;
  }
}

std::vector<EquivalenceCase> AllCases() {
  std::vector<EquivalenceCase> cases;
  for (ToolKind tool : {ToolKind::kHealer, ToolKind::kHealerMinus,
                        ToolKind::kSyzkaller, ToolKind::kMoonshine}) {
    for (uint64_t seed : {1, 2, 3}) {
      for (bool faults : {false, true}) {
        cases.push_back({tool, seed, faults});
      }
    }
  }
  return cases;
}

std::string ParamName(const testing::TestParamInfo<EquivalenceCase>& info) {
  return CaseName(info.param);
}

INSTANTIATE_TEST_SUITE_P(AllTools, WorkerEquivalenceTest,
                         testing::ValuesIn(AllCases()), ParamName);

// The golden-fingerprint campaign of CampaignTest (fuzz_loop_test.cc) run
// as one worker: the same values, request mix included.
TEST(WorkerEquivalenceGoldenTest, OneWorkerReproducesGoldenFingerprint) {
  ParallelOptions options;
  options.tool = ToolKind::kHealer;
  options.seed = 20260806;
  options.num_workers = 1;
  options.batch_size = 1;
  options.total_execs = 400;
  const ParallelResult result = RunParallelFuzz(BuiltinTarget(), options);
  uint64_t corpus_hash = 0xcbf29ce484222325ULL;
  for (const Prog& prog : result.corpus_progs) {
    const std::vector<uint8_t> bytes = SerializeProg(prog);
    corpus_hash ^= Mix64(Fnv1a(std::string_view(
        reinterpret_cast<const char*>(bytes.data()), bytes.size())));
  }
  EXPECT_EQ(result.coverage, 424u);
  EXPECT_EQ(result.corpus_size, 323u);
  EXPECT_EQ(result.relations, 308u);
  EXPECT_EQ(corpus_hash, 5806540029929752865ULL);
  EXPECT_EQ(result.telemetry.counter("healer_exec_analysis_total"), 1874u);
  EXPECT_EQ(result.telemetry.counter("healer_exec_images_shipped_total"),
            475u);
  EXPECT_EQ(result.telemetry.counter("healer_exec_mask_replays_total"),
            1799u);
  const std::map<BugId, size_t> expected_crashes = {
      {static_cast<BugId>(55), 2}, {static_cast<BugId>(51), 2},
      {static_cast<BugId>(56), 2}, {static_cast<BugId>(22), 4},
      {static_cast<BugId>(33), 2}, {static_cast<BugId>(58), 1}};
  ASSERT_EQ(result.unique_bugs, expected_crashes.size());
  for (const CrashRecord& rec : result.crash_records) {
    const auto it = expected_crashes.find(rec.bug);
    ASSERT_NE(it, expected_crashes.end()) << "unexpected bug";
    EXPECT_EQ(rec.shortest_repro, it->second);
  }
}

// One journal convention per kind: a one-worker campaign's exec and crash
// records equal the Fuzzer's (exec: a = exec index, b = new edges,
// c = length; crash: a = bug, b = exec index, c = crashing call index).
TEST(WorkerEquivalenceGoldenTest, ExecAndCrashJournalRecordsMatchFuzzer) {
  if (!kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  constexpr uint64_t kSteps = 400;
  constexpr size_t kKeepAll = 1 << 16;
  FuzzerOptions single = SingleOptions(ToolKind::kHealer, 20260806,
                                       FaultPlan::Uniform(0.02));
  single.journal_capacity = kKeepAll;
  Fuzzer fuzzer(BuiltinTarget(), single);
  for (uint64_t i = 0; i < kSteps; ++i) {
    fuzzer.Step();
  }
  ParallelOptions parallel = OneWorkerOptions(
      ToolKind::kHealer, 20260806, FaultPlan::Uniform(0.02), kSteps);
  parallel.journal_capacity = kKeepAll;
  const ParallelResult worker = RunParallelFuzz(BuiltinTarget(), parallel);

  using Row = std::tuple<SimClock::Nanos, uint64_t, uint64_t, uint64_t,
                         std::string>;
  auto rows = [](const std::vector<JournalRecord>& records, JournalKind kind) {
    std::vector<Row> out;
    for (const JournalRecord& r : records) {
      if (r.kind == kind) {
        out.emplace_back(r.at, r.a, r.b, r.c, r.detail);
      }
    }
    return out;
  };
  const std::vector<JournalRecord> single_records = fuzzer.journal().Records();
  const std::vector<Row> execs = rows(single_records, JournalKind::kExec);
  const std::vector<Row> crashes = rows(single_records, JournalKind::kCrash);
  ASSERT_EQ(execs.size(), kSteps);
  ASSERT_FALSE(crashes.empty());
  EXPECT_EQ(rows(worker.journal, JournalKind::kExec), execs);
  EXPECT_EQ(rows(worker.journal, JournalKind::kCrash), crashes);
}

}  // namespace
}  // namespace healer
