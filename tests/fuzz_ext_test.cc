// Extensions: crash reproduction, corpus persistence, guidance ablation
// modes, fault injection, and the multi-worker architecture.

#include <gtest/gtest.h>

#include <cstdio>

#include "src/exec/executor.h"
#include "src/fuzz/campaign.h"
#include "src/fuzz/corpus_io.h"
#include "src/fuzz/parallel.h"
#include "src/fuzz/report.h"
#include "src/fuzz/repro.h"
#include "src/fuzz/templates.h"
#include "src/syzlang/builtin_descs.h"
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

// ---- Crash reproduction ----

class ReproTest : public ::testing::Test {
 protected:
  ReproTest()
      : executor_(BuiltinTarget(),
                  KernelConfig::ForVersion(KernelVersion::kV5_11)),
        reproducer_([this](const Prog& p) { return executor_.Run(p, nullptr); }) {}

  Executor executor_;
  CrashReproducer reproducer_;
};

TEST_F(ReproTest, StripsNoiseAroundCrashChain) {
  // gsmld_attach null-deref needs openat$ptmx + GSMIOC_CONFIG (without
  // TIOCSETD); pad the program with unrelated calls on both sides.
  Prog prog = Chain({"timerfd_create", "openat$ptmx", "epoll_create1",
                     "ioctl$GSMIOC_CONFIG", "sync"});
  ASSERT_EQ(prog.size(), 5u);
  const ExecResult result = executor_.Run(prog, nullptr);
  ASSERT_TRUE(result.Crashed());
  ASSERT_EQ(result.crash->bug, BugId::kGsmldAttachNullDeref);

  auto repro = reproducer_.Minimize(prog, result.crash->bug);
  ASSERT_TRUE(repro.has_value());
  EXPECT_EQ(repro->prog.size(), 2u);
  EXPECT_EQ(repro->prog.calls()[0].meta->name, "openat$ptmx");
  EXPECT_EQ(repro->prog.calls()[1].meta->name, "ioctl$GSMIOC_CONFIG");
  // The repro still crashes with the same bug.
  const ExecResult re = executor_.Run(repro->prog, nullptr);
  ASSERT_TRUE(re.Crashed());
  EXPECT_EQ(re.crash->bug, BugId::kGsmldAttachNullDeref);
}

TEST_F(ReproTest, ReturnsNulloptForNonCrashingProgram) {
  Prog prog = Chain({"sync"});
  EXPECT_FALSE(reproducer_.Minimize(prog, BugId::kVcsWriteOob).has_value());
}

TEST_F(ReproTest, KeepsAllLoadBearingCalls) {
  // The nbd chain needs all 6 calls; nothing should be removable.
  Prog prog = Chain({"openat$nbd", "socket$tcp", "ioctl$NBD_SET_SOCK",
                     "ioctl$NBD_DO_IT", "close", "ioctl$NBD_DISCONNECT"},
                    5);
  ASSERT_EQ(prog.size(), 6u);
  // Point close at the socket (call 1).
  prog.calls()[4].args[0]->kind = ArgKind::kResource;
  prog.calls()[4].args[0]->res_ref = 1;
  prog.calls()[4].args[0]->res_slot = 0;
  const ExecResult result = executor_.Run(prog, nullptr);
  ASSERT_TRUE(result.Crashed());
  ASSERT_EQ(result.crash->bug, BugId::kNbdDisconnectNullDeref);
  auto repro = reproducer_.Minimize(prog, result.crash->bug);
  ASSERT_TRUE(repro.has_value());
  EXPECT_EQ(repro->prog.size(), 6u);  // Matches Table 4's length 6.
}

TEST(FuzzerReproTest, CampaignRecordsMinimizedLengths) {
  CampaignOptions options;
  options.tool = ToolKind::kHealer;
  options.hours = 2.0;
  options.seed = 21;
  const CampaignResult result = RunCampaign(options);
  for (const CrashRecord& crash : result.crashes) {
    // The recorded reproducer length never exceeds the bug's documented
    // minimum by much and is at least 1.
    EXPECT_GE(crash.shortest_repro, 1u);
    EXPECT_LE(crash.shortest_repro, 24u);
  }
}

// ---- Corpus persistence ----

TEST(CorpusIoTest, SaveLoadRoundTrip) {
  const Target& target = BuiltinTarget();
  std::vector<Prog> progs;
  progs.push_back(Chain({"memfd_create", "write$memfd"}));
  progs.push_back(Chain({"socket$tcp", "bind", "listen"}));
  const std::string path = "/tmp/healer_corpus_test.bin";
  ASSERT_TRUE(SaveProgs(path, progs).ok());
  size_t skipped = 0;
  auto loaded = LoadProgs(path, target, &skipped);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(skipped, 0u);
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[0].ToString(), progs[0].ToString());
  EXPECT_EQ((*loaded)[1].ToString(), progs[1].ToString());
  std::remove(path.c_str());
}

TEST(CorpusIoTest, MissingFileIsNotFound) {
  EXPECT_EQ(LoadProgs("/tmp/no_such_corpus_file", BuiltinTarget()).status()
                .code(),
            StatusCode::kNotFound);
}

TEST(CorpusIoTest, GarbageFileIsParseError) {
  const std::string path = "/tmp/healer_corpus_garbage.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("not a corpus", f);
  std::fclose(f);
  EXPECT_EQ(LoadProgs(path, BuiltinTarget()).status().code(),
            StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST(CorpusIoTest, CampaignSeedsFromSavedCorpus) {
  const std::string path = "/tmp/healer_corpus_seed.bin";
  // First campaign saves its corpus.
  CampaignOptions options;
  options.tool = ToolKind::kHealer;
  options.hours = 1.0;
  options.seed = 31;
  options.save_corpus_path = path;
  const CampaignResult first = RunCampaign(options);
  ASSERT_GT(first.corpus_size, 0u);

  // Second campaign seeds from it and must start from comparable coverage
  // quickly (its first samples should outpace a cold start).
  CampaignOptions warm = options;
  warm.save_corpus_path.clear();
  warm.initial_corpus_path = path;
  warm.hours = 0.5;
  const CampaignResult warm_result = RunCampaign(warm);

  CampaignOptions cold = warm;
  cold.initial_corpus_path.clear();
  const CampaignResult cold_result = RunCampaign(cold);

  EXPECT_GT(warm_result.final_coverage, cold_result.final_coverage);
  std::remove(path.c_str());
}

TEST(RelationWarmStartTest, CampaignLoadsAndSavesRelations) {
  const std::string path = "/tmp/healer_relations_warm.txt";
  // First campaign saves its relation table (statics + learned dynamics).
  CampaignOptions options;
  options.tool = ToolKind::kHealer;
  options.hours = 1.0;
  options.seed = 51;
  options.save_relations_path = path;
  const CampaignResult first = RunCampaign(options);
  ASSERT_GT(first.relations_dynamic, 0u);
  EXPECT_EQ(first.relations_loaded, 0u);  // Cold start.

  // Second campaign warm-starts from the file: its own static learning
  // already covers the static edges, so exactly the dynamic edges load.
  CampaignOptions warm = options;
  warm.save_relations_path.clear();
  warm.initial_relations_path = path;
  warm.seed = 52;
  warm.hours = 0.25;
  const CampaignResult warm_result = RunCampaign(warm);
  EXPECT_EQ(warm_result.relations_loaded, first.relations_dynamic);
  EXPECT_GE(warm_result.relations_total,
            first.relations_static + first.relations_dynamic);
  // The summary reports the warm start.
  const std::string report = FormatCampaignReport(warm_result);
  EXPECT_NE(report.find("warm-up"), std::string::npos);

  // A missing file is survivable: the campaign runs cold and reports 0.
  CampaignOptions missing = warm;
  missing.initial_relations_path = "/tmp/no_such_relations_warm";
  missing.hours = 0.1;
  const CampaignResult missing_result = RunCampaign(missing);
  EXPECT_EQ(missing_result.relations_loaded, 0u);
  std::remove(path.c_str());
}

// ---- Guidance ablation modes ----

TEST(GuidanceModeTest, StaticOnlyLearnsNoDynamicEdges) {
  CampaignOptions options;
  options.tool = ToolKind::kHealer;
  options.hours = 1.0;
  options.seed = 41;
  options.guidance = GuidanceMode::kStaticOnly;
  const CampaignResult result = RunCampaign(options);
  EXPECT_GT(result.relations_static, 0u);
  EXPECT_EQ(result.relations_dynamic, 0u);
}

TEST(GuidanceModeTest, FixedAlphaReported) {
  CampaignOptions options;
  options.tool = ToolKind::kHealer;
  options.hours = 0.5;
  options.seed = 43;
  options.guidance = GuidanceMode::kFixedAlpha;
  options.fixed_alpha = 0.33;
  const CampaignResult result = RunCampaign(options);
  // The adaptive schedule still reports its (unused) value; the campaign
  // runs and learns dynamically.
  EXPECT_GT(result.relations_dynamic, 0u);
}

TEST(GuidanceModeTest, NamesDistinct) {
  EXPECT_STRNE(GuidanceModeName(GuidanceMode::kDefault),
               GuidanceModeName(GuidanceMode::kStaticOnly));
  EXPECT_STRNE(GuidanceModeName(GuidanceMode::kStaticOnly),
               GuidanceModeName(GuidanceMode::kFixedAlpha));
}

// ---- Fault injection ----

TEST(FaultInjectionTest, EveryAllocationFails) {
  KernelConfig config = KernelConfig::ForVersion(KernelVersion::kV5_11);
  config.fail_nth_alloc = 1;
  KernelHarness h(config);
  EXPECT_EQ(h.Call("memfd_create", h.StageString("m"), 2), -kENOMEM);
}

TEST(FaultInjectionTest, NthAllocationFails) {
  KernelConfig config = KernelConfig::ForVersion(KernelVersion::kV5_11);
  config.fail_nth_alloc = 2;
  KernelHarness h(config);
  EXPECT_GE(h.Call("memfd_create", h.StageString("m"), 2), 0);   // 1st ok.
  EXPECT_EQ(h.Call("memfd_create", h.StageString("m"), 2), -kENOMEM);
  EXPECT_GE(h.Call("memfd_create", h.StageString("m"), 2), 0);   // 3rd ok.
}

// ---- Parallel architecture ----

TEST(ParallelFuzzTest, WorkersShareStateAndFinish) {
  ParallelOptions options;
  options.tool = ToolKind::kHealer;
  options.num_workers = 4;
  options.total_execs = 600;
  options.seed = 51;
  const ParallelResult result =
      RunParallelFuzz(BuiltinTarget(), options);
  EXPECT_GE(result.fuzz_execs, options.total_execs);
  EXPECT_GT(result.coverage, 100u);
  EXPECT_GT(result.corpus_size, 0u);
  EXPECT_GT(result.relations, 0u);
}

TEST(ParallelFuzzTest, HealerMinusModeHasNoRelations) {
  ParallelOptions options;
  options.tool = ToolKind::kHealerMinus;
  options.num_workers = 2;
  options.total_execs = 200;
  const ParallelResult result =
      RunParallelFuzz(BuiltinTarget(), options);
  EXPECT_EQ(result.relations, 0u);
  EXPECT_GT(result.coverage, 0u);
}

// ---- report formatting ----

TEST(ReportTest, ContainsAllSections) {
  CampaignOptions options;
  options.tool = ToolKind::kHealer;
  options.hours = 1.0;
  options.seed = 61;
  const CampaignResult result = RunCampaign(options);
  const std::string report = FormatCampaignReport(result);
  EXPECT_NE(report.find("coverage"), std::string::npos);
  EXPECT_NE(report.find("corpus"), std::string::npos);
  EXPECT_NE(report.find("relations"), std::string::npos);
  EXPECT_NE(report.find("crashes"), std::string::npos);
  EXPECT_NE(report.find("healer"), std::string::npos);
}

TEST(ReportTest, OptionalSectionsToggle) {
  CampaignOptions options;
  options.hours = 0.5;
  options.seed = 62;
  const CampaignResult result = RunCampaign(options);
  ReportOptions ropts;
  ropts.include_samples = true;
  ropts.include_relations = true;
  const std::string verbose = FormatCampaignReport(result, ropts);
  const std::string terse = FormatCampaignReport(result);
  EXPECT_GT(verbose.size(), terse.size());
  EXPECT_NE(verbose.find("coverage curve"), std::string::npos);
  EXPECT_EQ(terse.find("coverage curve"), std::string::npos);
}

TEST(ParallelFuzzTest, SingleWorkerDegenerate) {
  ParallelOptions options;
  options.num_workers = 1;
  options.total_execs = 100;
  const ParallelResult result =
      RunParallelFuzz(BuiltinTarget(), options);
  EXPECT_GE(result.fuzz_execs, 100u);
}

}  // namespace
}  // namespace healer
