// Corpus, crash db, generation/mutation, Moonshine distillation, the fuzzer
// loop and campaign determinism.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "src/base/hash.h"
#include "src/fuzz/campaign.h"
#include "src/fuzz/corpus.h"
#include "src/fuzz/crash_db.h"
#include "src/fuzz/fuzzer.h"
#include "src/fuzz/moonshine.h"
#include "src/fuzz/prog_builder.h"
#include "src/fuzz/templates.h"
#include "src/prog/serialize.h"
#include "src/syzlang/builtin_descs.h"

namespace healer {
namespace {

std::vector<int> AllIds(const Target& target) {
  std::vector<int> ids;
  for (const auto& call : target.syscalls()) {
    ids.push_back(call->id);
  }
  return ids;
}

// ---- Corpus ----

TEST(CorpusTest, AddChooseAndDedup) {
  const Target& target = BuiltinTarget();
  Rng rng(1);
  Corpus corpus;
  Prog prog = BuildChain(target, AllIds(target), {"sync"}, &rng);
  EXPECT_TRUE(corpus.Add(prog.Clone(), 5));
  EXPECT_FALSE(corpus.Add(prog.Clone(), 5));  // Duplicate content.
  EXPECT_EQ(corpus.size(), 1u);
  EXPECT_EQ(corpus.Choose(&rng).calls()[0].meta->name, "sync");
}

TEST(CorpusTest, FenwickChooseMatchesLinearScan) {
  // The Fenwick-tree sampler must pick exactly the entry the old O(n)
  // prefix scan would have picked for every roll value.
  const Target& target = BuiltinTarget();
  Rng rng(7);
  Corpus corpus;
  std::vector<uint32_t> priorities;
  const std::vector<std::string> names = {"sync", "memfd_create", "pipe2",
                                          "eventfd2", "epoll_create1"};
  for (size_t i = 0; i < names.size(); ++i) {
    Prog prog = BuildChain(target, AllIds(target), {names[i]}, &rng);
    const uint32_t prio = static_cast<uint32_t>(3 * i + 1);
    ASSERT_TRUE(corpus.Add(std::move(prog), prio));
    priorities.push_back(prio);
  }
  // Fixed-sequence "rng" via exhaustive rolls: reconstruct the expected
  // pick per roll with the reference linear scan over the known priorities.
  uint64_t total = 0;
  for (uint32_t p : priorities) {
    total += p;
  }
  std::map<std::string, size_t> fenwick_picks;
  for (int trial = 0; trial < 2000; ++trial) {
    fenwick_picks[corpus.Choose(&rng).calls()[0].meta->name] += 1;
  }
  // Distribution check: the heaviest entry (prio 13/35) must dominate the
  // lightest (prio 1/35) by far.
  EXPECT_GT(fenwick_picks["epoll_create1"], fenwick_picks["sync"] * 5);
  EXPECT_EQ(total, 35u);
}

TEST(CorpusTest, UpdatePriorityReweightsSampling) {
  const Target& target = BuiltinTarget();
  Rng rng(11);
  Corpus corpus;
  ASSERT_TRUE(corpus.Add(
      BuildChain(target, AllIds(target), {"sync"}, &rng), 1));
  ASSERT_TRUE(corpus.Add(
      BuildChain(target, AllIds(target), {"memfd_create"}, &rng), 1));
  corpus.UpdatePriority(0, 99);
  EXPECT_EQ(corpus.priority_at(0), 99u);
  size_t first = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    if (corpus.Choose(&rng).calls()[0].meta->name == "sync") {
      ++first;
    }
  }
  EXPECT_GT(first, 900u);  // 99/100 weight on entry 0.
}

TEST(CorpusTest, SnapshotChoosesLikeLiveCorpus) {
  const Target& target = BuiltinTarget();
  Rng rng(13);
  Corpus corpus;
  ASSERT_TRUE(corpus.Add(
      BuildChain(target, AllIds(target), {"sync"}, &rng), 2));
  ASSERT_TRUE(corpus.Add(
      BuildChain(target, AllIds(target), {"memfd_create"}, &rng), 8));
  const std::shared_ptr<const CorpusSnapshot> snap = corpus.Snapshot();
  ASSERT_EQ(snap->size(), 2u);
  // Same roll → same pick: drive two identically-seeded RNGs in lockstep.
  // Programs are shared between the live corpus and the snapshot, so equal
  // picks are the very same object.
  Rng a(42);
  Rng b(42);
  for (int trial = 0; trial < 500; ++trial) {
    EXPECT_EQ(&corpus.Choose(&a), &snap->Choose(&b));
  }
  // Snapshot stays valid and unchanged while the live corpus grows.
  ASSERT_TRUE(corpus.Add(
      BuildChain(target, AllIds(target), {"pipe2"}, &rng), 1));
  EXPECT_EQ(snap->size(), 2u);
  EXPECT_EQ(corpus.size(), 3u);
}

TEST(CorpusTest, PrecomputedHashAddDedupsAgainstSerializedPath) {
  const Target& target = BuiltinTarget();
  Rng rng(17);
  Corpus corpus;
  Prog prog = BuildChain(target, AllIds(target), {"sync"}, &rng);
  const std::vector<uint8_t> bytes = SerializeProg(prog);
  ASSERT_TRUE(
      corpus.Add(prog.Clone(), 5, Corpus::ContentHash(bytes)));
  // The plain overload hashes the same serialized content → duplicate.
  EXPECT_FALSE(corpus.Add(prog.Clone(), 5));
  EXPECT_FALSE(corpus.Add(prog.Clone(), 5, Corpus::ContentHash(bytes)));
  EXPECT_EQ(corpus.size(), 1u);
}

TEST(CorpusTest, LengthHistogramBuckets) {
  const Target& target = BuiltinTarget();
  Rng rng(2);
  Corpus corpus;
  corpus.Add(BuildChain(target, AllIds(target), {"sync"}, &rng), 1);
  corpus.Add(BuildChain(target, AllIds(target),
                        {"memfd_create", "write$memfd"}, &rng),
             1);
  corpus.Add(BuildChain(target, AllIds(target),
                        {"openat$kvm", "ioctl$KVM_CREATE_VM",
                         "ioctl$KVM_CREATE_VCPU", "ioctl$KVM_RUN",
                         "ioctl$KVM_SMI", "ioctl$KVM_GET_REGS"},
                        &rng),
             1);
  const auto hist = corpus.LengthHistogram();
  ASSERT_EQ(hist.size(), 5u);
  EXPECT_EQ(hist[0], 1u);  // len 1.
  EXPECT_EQ(hist[1], 1u);  // len 2.
  EXPECT_EQ(hist[4], 1u);  // len 5+.
}

TEST(CorpusTest, WeightedChoiceFavorsPriority) {
  const Target& target = BuiltinTarget();
  Rng rng(3);
  Corpus corpus;
  corpus.Add(BuildChain(target, AllIds(target), {"sync"}, &rng), 1);
  corpus.Add(BuildChain(target, AllIds(target), {"epoll_create1"}, &rng), 99);
  int heavy = 0;
  for (int i = 0; i < 2000; ++i) {
    if (corpus.Choose(&rng).calls()[0].meta->name == "epoll_create1") {
      ++heavy;
    }
  }
  EXPECT_GT(heavy, 1800);
}

// ---- CrashDb ----

TEST(CrashDbTest, DedupAndShortestRepro) {
  CrashDb db;
  EXPECT_TRUE(db.Record(BugId::kVcsWriteOob, "oob", 100, 1, 9));
  EXPECT_FALSE(db.Record(BugId::kVcsWriteOob, "oob", 200, 2, 5));
  EXPECT_EQ(db.UniqueBugs(), 1u);
  const CrashRecord* record = db.Find(BugId::kVcsWriteOob);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->first_seen, 100u);
  EXPECT_EQ(record->shortest_repro, 5u);
  EXPECT_EQ(record->hits, 2u);
}

TEST(CrashDbTest, AllSortedByFirstSeen) {
  CrashDb db;
  db.Record(BugId::kTpkWriteBug, "b", 300, 3, 2);
  db.Record(BugId::kVcsWriteOob, "a", 100, 1, 2);
  const auto all = db.All();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].bug, BugId::kVcsWriteOob);
}

// ---- ProgBuilder ----

class BuilderTest : public ::testing::Test {
 protected:
  BuilderTest()
      : target_(BuiltinTarget()),
        rng_(7),
        builder_(target_, AllIds(target_), &rng_) {}

  const Target& target_;
  Rng rng_;
  ProgBuilder builder_;
};

TEST_F(BuilderTest, AppendSatisfiesResourceNeeds) {
  Prog prog(&target_);
  builder_.AppendCall(&prog, target_.FindSyscall("ioctl$KVM_RUN")->id);
  // The vcpu fd needs CREATE_VCPU, which needs CREATE_VM, which needs
  // openat$kvm: a full producer chain is synthesized.
  ASSERT_EQ(prog.size(), 4u);
  EXPECT_EQ(prog.calls()[0].meta->name, "openat$kvm");
  EXPECT_EQ(prog.calls()[3].meta->name, "ioctl$KVM_RUN");
  EXPECT_TRUE(prog.Validate().ok());
}

class GenerateValidityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GenerateValidityTest, GeneratedProgramsAreValid) {
  const Target& target = BuiltinTarget();
  Rng rng(GetParam());
  ProgBuilder builder(target, AllIds(target), &rng);
  Prog prog = builder.Generate(
      [&](const std::vector<int>&) {
        return static_cast<int>(rng.Below(target.NumSyscalls()));
      },
      4 + rng.Below(16));
  EXPECT_FALSE(prog.empty());
  EXPECT_LE(prog.size(), ProgBuilder::kMaxProgLen);
  EXPECT_TRUE(prog.Validate().ok()) << prog.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, GenerateValidityTest,
                         ::testing::Range<uint64_t>(0, 50));

class MutateValidityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MutateValidityTest, MutationsPreserveValidity) {
  const Target& target = BuiltinTarget();
  Rng rng(GetParam() + 1000);
  ProgBuilder builder(target, AllIds(target), &rng);
  Prog prog = builder.Generate(
      [&](const std::vector<int>&) {
        return static_cast<int>(rng.Below(target.NumSyscalls()));
      },
      6);
  for (int round = 0; round < 20; ++round) {
    builder.MutateInsert(&prog, [&](const std::vector<int>&) {
      return static_cast<int>(rng.Below(target.NumSyscalls()));
    });
    builder.MutateArgs(&prog);
    ASSERT_TRUE(prog.Validate().ok())
        << "round " << round << "\n"
        << prog.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutateValidityTest,
                         ::testing::Range<uint64_t>(0, 25));

TEST_F(BuilderTest, MutateInsertGrowsByOneChain) {
  Prog prog(&target_);
  builder_.AppendCall(&prog, target_.FindSyscall("sync")->id);
  const size_t before = prog.size();
  ASSERT_TRUE(builder_.MutateInsert(&prog, [&](const std::vector<int>&) {
    return target_.FindSyscall("epoll_create1")->id;
  }));
  EXPECT_GT(prog.size(), before);
  EXPECT_TRUE(prog.Validate().ok());
}

// ---- Templates & Moonshine ----

TEST(TemplatesTest, AllChainsBuildOn511) {
  const Target& target = BuiltinTarget();
  const KernelConfig config = KernelConfig::ForVersion(KernelVersion::kV5_11);
  std::vector<int> enabled;
  for (const auto& call : target.syscalls()) {
    const SyscallDef* def = FindSyscallDef(call->name);
    if (def != nullptr && SyscallAvailable(*def, config)) {
      enabled.push_back(call->id);
    }
  }
  Rng rng(11);
  size_t built = 0;
  for (const auto& chain : TemplateChains()) {
    Prog prog = BuildChain(target, enabled, chain, &rng);
    if (!prog.empty()) {
      ++built;
      EXPECT_TRUE(prog.Validate().ok());
    }
  }
  EXPECT_GE(built, TemplateChains().size() - 1);  // reiserfs-free set.
}

TEST(MoonshineTest, DistillationDropsNoise) {
  const Target& target = BuiltinTarget();
  Rng rng(13);
  const auto ids = AllIds(target);
  Prog trace = BuildChain(target, ids, {"memfd_create", "write$memfd"}, &rng);
  // Append unrelated noise with no dependencies.
  ProgBuilder builder(target, ids, &rng);
  builder.AppendCall(&trace, target.FindSyscall("sync")->id);
  ASSERT_EQ(trace.size(), 3u);

  Prog distilled = DistillTrace(trace);
  ASSERT_EQ(distilled.size(), 2u);
  EXPECT_EQ(distilled.calls()[0].meta->name, "memfd_create");
  EXPECT_EQ(distilled.calls()[1].meta->name, "write$memfd");
  EXPECT_TRUE(distilled.Validate().ok());
}

TEST(MoonshineTest, SeedsAreValidAndMultiCall) {
  const Target& target = BuiltinTarget();
  Rng rng(17);
  const auto seeds = MoonshineSeeds(target, AllIds(target), 32, &rng);
  ASSERT_GT(seeds.size(), 10u);
  size_t multi = 0;
  for (const Prog& seed : seeds) {
    EXPECT_TRUE(seed.Validate().ok());
    multi += seed.size() >= 2 ? 1 : 0;
  }
  EXPECT_GT(multi, seeds.size() / 2);
}

// ---- Fuzzer & campaigns ----

TEST(FuzzerTest, StepsAccumulateCoverage) {
  FuzzerOptions options;
  options.tool = ToolKind::kHealer;
  options.seed = 3;
  Fuzzer fuzzer(BuiltinTarget(), options);
  for (int i = 0; i < 200; ++i) {
    fuzzer.Step();
  }
  EXPECT_GT(fuzzer.CoverageCount(), 50u);
  EXPECT_GT(fuzzer.corpus().size(), 0u);
  EXPECT_EQ(fuzzer.FuzzExecs(), 200u);
  EXPECT_GE(fuzzer.TotalExecs(), 200u);  // Analysis runs included.
}

TEST(FuzzerTest, HealerMinusLearnsNoRelations) {
  FuzzerOptions options;
  options.tool = ToolKind::kHealerMinus;
  options.seed = 3;
  Fuzzer fuzzer(BuiltinTarget(), options);
  for (int i = 0; i < 100; ++i) {
    fuzzer.Step();
  }
  EXPECT_EQ(fuzzer.relations().Count(), 0u);
}

TEST(FuzzerTest, HealerLearnsDynamicRelations) {
  FuzzerOptions options;
  options.tool = ToolKind::kHealer;
  options.seed = 5;
  Fuzzer fuzzer(BuiltinTarget(), options);
  const size_t static_edges = fuzzer.relations().Count();
  EXPECT_GT(static_edges, 0u);
  for (int i = 0; i < 2000; ++i) {
    fuzzer.Step();
  }
  EXPECT_GT(fuzzer.relations().Count(), static_edges);
}

TEST(FuzzerTest, MoonshineStartsWithSeededCorpus) {
  FuzzerOptions options;
  options.tool = ToolKind::kMoonshine;
  options.seed = 7;
  options.moonshine_traces = 32;
  Fuzzer fuzzer(BuiltinTarget(), options);
  // Seeds were executed and archived before the first Step().
  EXPECT_GT(fuzzer.corpus().size(), 0u);
  EXPECT_GT(fuzzer.CoverageCount(), 0u);
}

TEST(CampaignTest, DeterministicForSameSeed) {
  CampaignOptions options;
  options.tool = ToolKind::kHealer;
  options.hours = 0.3;
  options.seed = 99;
  const CampaignResult a = RunCampaign(options);
  const CampaignResult b = RunCampaign(options);
  EXPECT_EQ(a.final_coverage, b.final_coverage);
  EXPECT_EQ(a.fuzz_execs, b.fuzz_execs);
  EXPECT_EQ(a.relations_total, b.relations_total);
  EXPECT_EQ(a.crashes.size(), b.crashes.size());
}

TEST(CampaignTest, GoldenFingerprintUnchangedByHotPathRewrites) {
  // Determinism guard for the Fenwick-tree corpus sampler, the
  // epoch-stamped per-call coverage map and the atomic-word bitmap: a
  // fixed-seed single-threaded campaign must stay byte-identical to the
  // fingerprint captured from the pre-rewrite implementation (O(n) corpus
  // scan + per-call bitmap memset). Any drift here means the "optimization"
  // changed behaviour, not just speed.
  //
  // Re-captured once when the build started mapping __FILE__ to the path
  // relative to the source root (-fmacro-prefix-map): coverage ids hash
  // __FILE__, so the old values held only for a checkout at one absolute
  // path. These values hold for a checkout at any path.
  FuzzerOptions options;
  options.tool = ToolKind::kHealer;
  options.seed = 20260806;
  Fuzzer fuzzer(BuiltinTarget(), options);
  for (int i = 0; i < 400; ++i) {
    fuzzer.Step();
  }
  uint64_t corpus_hash = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < fuzzer.corpus().size(); ++i) {
    const std::vector<uint8_t> bytes = SerializeProg(fuzzer.corpus().at(i));
    corpus_hash ^= Mix64(Fnv1a(std::string_view(
        reinterpret_cast<const char*>(bytes.data()), bytes.size())));
  }
  EXPECT_EQ(fuzzer.CoverageCount(), 424u);
  EXPECT_EQ(fuzzer.coverage().Hash(), 9596646961094548105ULL);
  EXPECT_EQ(fuzzer.corpus().size(), 323u);
  EXPECT_EQ(fuzzer.relations().Count(), 308u);
  EXPECT_EQ(corpus_hash, 5806540029929752865ULL);
  EXPECT_DOUBLE_EQ(fuzzer.alpha(), 0.5);
  // Crash list: same bugs, same shortest repros.
  const std::map<BugId, size_t> expected_crashes = {
      {static_cast<BugId>(55), 2}, {static_cast<BugId>(51), 2},
      {static_cast<BugId>(56), 2}, {static_cast<BugId>(22), 4},
      {static_cast<BugId>(33), 2}, {static_cast<BugId>(58), 1}};
  ASSERT_EQ(fuzzer.crashes().UniqueBugs(), expected_crashes.size());
  for (const CrashRecord& rec : fuzzer.crashes().All()) {
    const auto it = expected_crashes.find(rec.bug);
    ASSERT_NE(it, expected_crashes.end()) << "unexpected bug";
    EXPECT_EQ(rec.shortest_repro, it->second);
  }
}

TEST(CampaignTest, DifferentSeedsDiffer) {
  CampaignOptions options;
  options.tool = ToolKind::kHealer;
  options.hours = 0.3;
  options.seed = 1;
  const CampaignResult a = RunCampaign(options);
  options.seed = 2;
  const CampaignResult b = RunCampaign(options);
  EXPECT_NE(a.fuzz_execs, b.fuzz_execs);
}

TEST(CampaignTest, SamplesCoverCurve) {
  CampaignOptions options;
  options.hours = 0.5;
  options.seed = 4;
  options.sample_period = 5 * SimClock::kMinute;
  const CampaignResult result = RunCampaign(options);
  ASSERT_GE(result.samples.size(), 6u);
  // Monotone non-decreasing coverage.
  for (size_t i = 1; i < result.samples.size(); ++i) {
    EXPECT_GE(result.samples[i].branches, result.samples[i - 1].branches);
    EXPECT_GE(result.samples[i].hours, result.samples[i - 1].hours);
  }
  EXPECT_EQ(result.samples.back().branches, result.final_coverage);
}

TEST(CampaignTest, RespectsMaxExecs) {
  CampaignOptions options;
  options.hours = 100.0;
  options.max_execs = 50;
  options.seed = 5;
  const CampaignResult result = RunCampaign(options);
  EXPECT_EQ(result.fuzz_execs, 50u);
}

TEST(CampaignTest, HoursToReachInterpolates) {
  CampaignResult result;
  result.samples = {{0.0, 0, 0, 0}, {1.0, 100, 10, 0}, {2.0, 200, 20, 0}};
  EXPECT_DOUBLE_EQ(HoursToReach(result, 100), 1.0);
  EXPECT_DOUBLE_EQ(HoursToReach(result, 150), 1.5);
  EXPECT_LT(HoursToReach(result, 500), 0.0);  // Never reached.
}

TEST(CampaignTest, VersionGatesAffectEnabledBugs) {
  // A 4.19 campaign can find 4.19-only bugs and never 5.11-only ones.
  CampaignOptions options;
  options.version = KernelVersion::kV4_19;
  options.hours = 2.0;
  options.seed = 6;
  const CampaignResult result = RunCampaign(options);
  for (const auto& crash : result.crashes) {
    EXPECT_TRUE(BugLiveIn(crash.bug, KernelVersion::kV4_19))
        << crash.title;
  }
}

TEST(ToolKindTest, NamesDistinct) {
  std::set<std::string> names;
  for (ToolKind tool : {ToolKind::kHealer, ToolKind::kHealerMinus,
                        ToolKind::kSyzkaller, ToolKind::kMoonshine}) {
    names.insert(ToolKindName(tool));
  }
  EXPECT_EQ(names.size(), 4u);
}

}  // namespace
}  // namespace healer
