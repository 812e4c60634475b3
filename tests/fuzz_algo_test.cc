// HEALER's core algorithms: relation table + static learning, Algorithm 1
// (minimization), Algorithm 2 (dynamic learning), Algorithm 3 (guided call
// selection) with the alpha schedule, and the Syzkaller choice table.

#include <gtest/gtest.h>

#include <map>

#include "src/base/rng.h"
#include "src/exec/executor.h"
#include "src/fuzz/call_selector.h"
#include "src/fuzz/choice_table.h"
#include "src/fuzz/learner.h"
#include "src/fuzz/minimizer.h"
#include "src/fuzz/relation_table.h"
#include "src/fuzz/templates.h"
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

Prog Chain(const std::vector<std::string>& names, uint64_t seed = 1) {
  const Target& target = BuiltinTarget();
  Rng rng(seed);
  return BuildChain(target, AllIds(target), names, &rng);
}

int IdOf(const std::string& name) {
  return BuiltinTarget().FindSyscall(name)->id;
}

// ---- RelationTable ----

TEST(RelationTableTest, SetGetAndDedup) {
  RelationTable table(8);
  EXPECT_FALSE(table.Get(1, 2));
  EXPECT_TRUE(table.Set(1, 2, RelationSource::kDynamic, 100));
  EXPECT_TRUE(table.Get(1, 2));
  EXPECT_FALSE(table.Get(2, 1));  // Directed.
  EXPECT_FALSE(table.Set(1, 2, RelationSource::kStatic, 200));  // Dup.
  EXPECT_EQ(table.Count(), 1u);
}

TEST(RelationTableTest, EdgesBeforeCutoff) {
  RelationTable table(8);
  table.Set(0, 1, RelationSource::kDynamic, 10);
  table.Set(1, 2, RelationSource::kDynamic, 20);
  table.Set(2, 3, RelationSource::kDynamic, 30);
  EXPECT_EQ(table.EdgesBefore(20).size(), 2u);
  EXPECT_EQ(table.EdgesBefore().size(), 3u);
}

TEST(RelationTableTest, InfluencedByListsRow) {
  RelationTable table(8);
  table.Set(3, 1, RelationSource::kDynamic, 0);
  table.Set(3, 5, RelationSource::kDynamic, 0);
  const auto influenced = table.InfluencedBy(3);
  EXPECT_EQ(influenced, (std::vector<int>{1, 5}));
}

// ---- RelationSnapshot (CSR) + RelationDelta ----

TEST(RelationSnapshotTest, CsrRowsAreSortedAndBinarySearchable) {
  RelationTable table(8);
  table.Set(3, 5, RelationSource::kDynamic, 0);
  table.Set(3, 1, RelationSource::kDynamic, 0);
  table.Set(3, 7, RelationSource::kDynamic, 0);
  table.Set(6, 0, RelationSource::kDynamic, 0);
  const auto snap = table.snapshot();
  ASSERT_EQ(snap->n(), 8u);
  EXPECT_EQ(snap->num_edges(), 4u);
  // Row 3 sorted ascending regardless of insertion order.
  ASSERT_EQ(snap->OutDegree(3), 3u);
  const int32_t* row = snap->Row(3);
  EXPECT_EQ(row[0], 1);
  EXPECT_EQ(row[1], 5);
  EXPECT_EQ(row[2], 7);
  EXPECT_EQ(snap->OutDegree(0), 0u);
  EXPECT_EQ(snap->OutDegree(6), 1u);
  EXPECT_TRUE(snap->Contains(3, 5));
  EXPECT_TRUE(snap->Contains(6, 0));
  EXPECT_FALSE(snap->Contains(5, 3));
  EXPECT_FALSE(snap->Contains(3, 2));
}

TEST(RelationSnapshotTest, SnapshotsAreImmutablePointsInTime) {
  RelationTable table(4);
  table.Set(0, 1, RelationSource::kDynamic, 0);
  const auto before = table.snapshot();
  table.Set(0, 2, RelationSource::kDynamic, 0);
  const auto after = table.snapshot();
  // The old view is untouched by the later write.
  EXPECT_EQ(before->num_edges(), 1u);
  EXPECT_FALSE(before->Contains(0, 2));
  EXPECT_EQ(after->num_edges(), 2u);
  EXPECT_TRUE(after->Contains(0, 2));
  EXPECT_GT(after->epoch(), before->epoch());
}

TEST(RelationSnapshotTest, EpochBumpsOnlyWhenEdgesLand) {
  RelationTable table(4);
  const uint64_t start = table.epoch();
  table.Set(0, 1, RelationSource::kDynamic, 0);
  const uint64_t after_set = table.epoch();
  EXPECT_GT(after_set, start);
  // A duplicate Set publishes nothing.
  table.Set(0, 1, RelationSource::kStatic, 5);
  EXPECT_EQ(table.epoch(), after_set);
  // A delta containing only known edges publishes nothing either.
  RelationDelta dup;
  dup.Add(0, 1, RelationSource::kDynamic, 9);
  EXPECT_EQ(table.Apply(dup), 0u);
  EXPECT_EQ(table.epoch(), after_set);
  // The epoch a reader probes matches the snapshot it fetches.
  EXPECT_EQ(table.snapshot()->epoch(), after_set);
}

TEST(RelationSnapshotTest, CsrFromEdgeLogMatchesDenseScanReference) {
  // The snapshot is bucketed from the edge log; the dense n x n scan it
  // replaced is the reference. Random deltas (with repeats inside and
  // across them, and empty ones) must publish snapshots equal row by row,
  // with the epoch moving only when an edge lands.
  for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
    const size_t n = seed == 1 ? 1 : 40 * seed;
    RelationTable table(n);
    std::vector<uint8_t> dense(n * n, 0);
    Rng rng(seed);
    uint64_t epoch = table.epoch();
    for (int round = 0; round < 60; ++round) {
      RelationDelta delta;
      const size_t edges = rng.OneIn(5) ? 0 : rng.Below(3 * n);
      bool lands = false;
      for (size_t e = 0; e < edges; ++e) {
        // Concentrated rows repeat pairs within a delta and across them.
        const int from = static_cast<int>(rng.Below(std::min<size_t>(n, 8)));
        const int to = static_cast<int>(rng.Below(n));
        delta.Add(from, to, RelationSource::kDynamic, round);
        lands |= dense[static_cast<size_t>(from) * n + to] == 0;
        dense[static_cast<size_t>(from) * n + to] = 1;
      }
      table.Apply(delta);
      epoch += lands ? 1 : 0;
      const auto snap = table.snapshot();
      ASSERT_EQ(snap->epoch(), epoch) << "seed " << seed << " round " << round;
      ASSERT_EQ(table.epoch(), epoch);
      size_t total = 0;
      for (size_t from = 0; from < n; ++from) {
        std::vector<int32_t> row;
        for (size_t to = 0; to < n; ++to) {
          if (dense[from * n + to] != 0) {
            row.push_back(static_cast<int32_t>(to));
          }
        }
        total += row.size();
        const int32_t* got = snap->Row(static_cast<int>(from));
        ASSERT_EQ(std::vector<int32_t>(
                      got, got + snap->OutDegree(static_cast<int>(from))),
                  row)
            << "seed " << seed << " round " << round << " row " << from;
      }
      ASSERT_EQ(snap->num_edges(), total);
      ASSERT_EQ(table.Count(), total);
    }
  }
}

TEST(RelationDeltaTest, AddDeduplicatesAndTracksMembership) {
  RelationDelta delta;
  EXPECT_TRUE(delta.empty());
  EXPECT_TRUE(delta.Add(1, 2, RelationSource::kDynamic, 10));
  EXPECT_FALSE(delta.Add(1, 2, RelationSource::kStatic, 20));  // Dup.
  EXPECT_TRUE(delta.Add(2, 1, RelationSource::kDynamic, 10));  // Directed.
  EXPECT_EQ(delta.size(), 2u);
  EXPECT_TRUE(delta.Contains(1, 2));
  EXPECT_TRUE(delta.Contains(2, 1));
  EXPECT_FALSE(delta.Contains(1, 3));
  delta.clear();
  EXPECT_TRUE(delta.empty());
  EXPECT_FALSE(delta.Contains(1, 2));
}

TEST(RelationDeltaTest, ApplyCreditsOverlappingDeltasExactlyOnce) {
  // Two "workers" learn overlapping edge sets; each edge is credited to
  // exactly one Apply.
  RelationTable table(8);
  RelationDelta first;
  first.Add(0, 1, RelationSource::kDynamic, 1);
  first.Add(0, 2, RelationSource::kDynamic, 1);
  RelationDelta second;
  second.Add(0, 2, RelationSource::kDynamic, 2);  // Overlap.
  second.Add(0, 3, RelationSource::kDynamic, 2);
  EXPECT_EQ(table.Apply(first), 2u);
  EXPECT_EQ(table.Apply(second), 1u);
  EXPECT_EQ(table.Count(), 3u);
  EXPECT_EQ(table.Apply(second), 0u);  // Re-publishing credits nothing.
  EXPECT_EQ(table.Count(), 3u);
}

TEST(StaticLearnTest, LearnsSpecificResourceEdges) {
  const Target& target = BuiltinTarget();
  RelationTable table(target.NumSyscalls());
  const size_t added = StaticRelationLearn(target, &table);
  EXPECT_GT(added, 50u);
  // memfd_create -> fcntl$ADD_SEALS (memfd resource, specific).
  EXPECT_TRUE(table.Get(IdOf("memfd_create"), IdOf("fcntl$ADD_SEALS")));
  // KVM chain.
  EXPECT_TRUE(
      table.Get(IdOf("openat$kvm"), IdOf("ioctl$KVM_CREATE_VM")));
  EXPECT_TRUE(table.Get(IdOf("ioctl$KVM_CREATE_VM"),
                        IdOf("ioctl$KVM_CREATE_VCPU")));
  EXPECT_TRUE(
      table.Get(IdOf("ioctl$KVM_CREATE_VCPU"), IdOf("ioctl$KVM_RUN")));
}

TEST(StaticLearnTest, SkipsRootOnlyPairs) {
  const Target& target = BuiltinTarget();
  RelationTable table(target.NumSyscalls());
  StaticRelationLearn(target, &table);
  // close(fd) relates to everything through the root kind only: no static
  // edge (dynamic learning would have to prove actual influence).
  EXPECT_FALSE(table.Get(IdOf("memfd_create"), IdOf("close")));
  EXPECT_FALSE(table.Get(IdOf("socket$tcp"), IdOf("read")));
  // And fcntl$ADD_SEALS -> mmap is NOT statically derivable (Figure 2).
  EXPECT_FALSE(table.Get(IdOf("fcntl$ADD_SEALS"), IdOf("mmap")));
}

TEST(StaticLearnTest, AllEdgesTimestampedZero) {
  const Target& target = BuiltinTarget();
  RelationTable table(target.NumSyscalls());
  StaticRelationLearn(target, &table);
  for (const auto& edge : table.EdgesBefore()) {
    EXPECT_EQ(edge.learned_at, 0u);
    EXPECT_EQ(edge.source, RelationSource::kStatic);
  }
}

// ---- Minimizer (Algorithm 1) ----

class MinimizerTest : public ::testing::Test {
 protected:
  MinimizerTest()
      : executor_(BuiltinTarget(),
                  KernelConfig::ForVersion(KernelVersion::kV5_11)),
        coverage_(CallCoverage::kMapBits),
        minimizer_([this](const Prog& p) { return executor_.Run(p, nullptr); }) {}

  ExecResult Baseline(const Prog& prog) {
    return executor_.Run(prog, &coverage_);
  }

  Executor executor_;
  Bitmap coverage_;
  Minimizer minimizer_;
};

TEST_F(MinimizerTest, RemovesIrrelevantCalls) {
  // [memfd_create, timer noise, write$memfd]: the timer call does not
  // affect write's coverage and must be removed.
  Prog prog = Chain({"memfd_create", "timerfd_create", "write$memfd"});
  ASSERT_EQ(prog.size(), 3u);
  const ExecResult baseline = Baseline(prog);
  ASSERT_GT(baseline.TotalNewEdges(), 0u);
  const auto minimized = minimizer_.Minimize(prog, baseline);
  ASSERT_FALSE(minimized.empty());
  // The sequence targeting write$memfd keeps only the memfd chain.
  bool found_write_seq = false;
  for (const auto& seq : minimized) {
    if (seq.prog.calls()[seq.target_index].meta->name == "write$memfd") {
      found_write_seq = true;
      for (const auto& call : seq.prog.calls()) {
        EXPECT_NE(call.meta->name, "timerfd_create");
      }
      EXPECT_EQ(seq.prog.size(), 2u);
    }
  }
  EXPECT_TRUE(found_write_seq);
}

TEST_F(MinimizerTest, PreservesTargetSignal) {
  Prog prog = Chain({"openat$kvm", "ioctl$KVM_CREATE_VM", "eventfd2",
                     "ioctl$KVM_CREATE_VCPU"});
  const ExecResult baseline = Baseline(prog);
  const auto minimized = minimizer_.Minimize(prog, baseline);
  for (const auto& seq : minimized) {
    const ExecResult re = executor_.Run(seq.prog, nullptr);
    ASSERT_LT(seq.target_index, re.calls.size());
    EXPECT_EQ(re.calls[seq.target_index].signal, seq.target_signal);
  }
}

TEST_F(MinimizerTest, KeepsLoadBearingDependencies) {
  Prog prog = Chain({"memfd_create", "fcntl$ADD_SEALS"});
  // Force a real seal so the dependency matters.
  prog.calls()[1].args[2]->val = 8;
  const ExecResult baseline = Baseline(prog);
  const auto minimized = minimizer_.Minimize(prog, baseline);
  for (const auto& seq : minimized) {
    if (seq.prog.calls()[seq.target_index].meta->name == "fcntl$ADD_SEALS") {
      // memfd_create cannot be removed: ADD_SEALS on a bad fd covers
      // different code.
      EXPECT_EQ(seq.prog.size(), 2u);
    }
  }
}

TEST_F(MinimizerTest, SkipsCallsWithoutNewCoverage) {
  Prog prog = Chain({"sync"});
  ExecResult baseline = Baseline(prog);
  // Re-run: nothing new anymore.
  baseline = Baseline(prog);
  EXPECT_EQ(baseline.TotalNewEdges(), 0u);
  EXPECT_TRUE(minimizer_.Minimize(prog, baseline).empty());
}

TEST_F(MinimizerTest, CountsAnalysisExecs) {
  Prog prog = Chain({"memfd_create", "timerfd_create", "write$memfd"});
  const ExecResult baseline = Baseline(prog);
  const uint64_t before = minimizer_.execs_used();
  minimizer_.Minimize(prog, baseline);
  EXPECT_GT(minimizer_.execs_used(), before);
}

// ---- Dynamic learner (Algorithm 2) ----

class LearnerTest : public ::testing::Test {
 protected:
  LearnerTest()
      : executor_(BuiltinTarget(),
                  KernelConfig::ForVersion(KernelVersion::kV5_11)),
        table_(BuiltinTarget().NumSyscalls()),
        learner_(&table_, [this](const Prog& p) {
          return executor_.Run(p, nullptr);
        }, &clock_) {}

  Executor executor_;
  RelationTable table_;
  SimClock clock_;
  DynamicLearner learner_;
};

TEST_F(LearnerTest, LearnsSealsInfluenceMmap) {
  // The paper's running example, end to end.
  Prog prog = Chain({"memfd_create", "fcntl$ADD_SEALS", "mmap"}, 3);
  ASSERT_EQ(prog.size(), 3u);
  prog.calls()[0].args[1]->val = 2;      // MFD_ALLOW_SEALING.
  prog.calls()[1].args[2]->val = 8;      // F_SEAL_WRITE.
  prog.calls()[2].args[2]->val = 3;      // PROT_READ|WRITE.
  prog.calls()[2].args[3]->val = 1;      // MAP_SHARED.
  prog.calls()[2].args[4]->kind = ArgKind::kResource;
  prog.calls()[2].args[4]->res_ref = 0;
  prog.calls()[2].args[4]->res_slot = 0;

  clock_.Advance(SimClock::kHour);
  const size_t learned = learner_.Learn(prog);
  EXPECT_GE(learned, 1u);
  EXPECT_TRUE(table_.Get(IdOf("fcntl$ADD_SEALS"), IdOf("mmap")));
  // Timestamped with the simulated clock.
  const auto edges = table_.EdgesBefore();
  ASSERT_FALSE(edges.empty());
  EXPECT_EQ(edges.back().learned_at, SimClock::kHour);
  EXPECT_EQ(edges.back().source, RelationSource::kDynamic);
}

TEST_F(LearnerTest, SkipsKnownRelations) {
  Prog prog = Chain({"memfd_create", "write$memfd"});
  table_.Set(IdOf("memfd_create"), IdOf("write$memfd"),
             RelationSource::kStatic, 0);
  const uint64_t before = learner_.execs_used();
  EXPECT_EQ(learner_.Learn(prog), 0u);
  // Only the baseline execution: the pair is already known.
  EXPECT_EQ(learner_.execs_used(), before + 1);
}

TEST_F(LearnerTest, NoRelationForIndependentCalls) {
  Prog prog = Chain({"timerfd_create", "epoll_create1"});
  ASSERT_EQ(prog.size(), 2u);
  learner_.Learn(prog);
  EXPECT_FALSE(table_.Get(IdOf("timerfd_create"), IdOf("epoll_create1")));
}

TEST_F(LearnerTest, SingleCallLearnsNothing) {
  Prog prog = Chain({"sync"});
  EXPECT_EQ(learner_.Learn(prog), 0u);
  EXPECT_EQ(table_.Count(), 0u);
}

TEST_F(LearnerTest, LearnIntoAccumulatesWithoutTouchingTable) {
  Prog prog = Chain({"memfd_create", "fcntl$ADD_SEALS", "mmap"}, 3);
  ASSERT_EQ(prog.size(), 3u);
  prog.calls()[0].args[1]->val = 2;      // MFD_ALLOW_SEALING.
  prog.calls()[1].args[2]->val = 8;      // F_SEAL_WRITE.
  prog.calls()[2].args[2]->val = 3;      // PROT_READ|WRITE.
  prog.calls()[2].args[3]->val = 1;      // MAP_SHARED.
  prog.calls()[2].args[4]->kind = ArgKind::kResource;
  prog.calls()[2].args[4]->res_ref = 0;
  prog.calls()[2].args[4]->res_slot = 0;

  RelationDelta delta;
  const size_t learned = learner_.LearnInto(prog, &delta);
  EXPECT_GE(learned, 1u);
  EXPECT_EQ(delta.size(), learned);
  // The table is untouched until the delta is applied.
  EXPECT_EQ(table_.Count(), 0u);
  EXPECT_TRUE(delta.Contains(IdOf("fcntl$ADD_SEALS"), IdOf("mmap")));
  EXPECT_EQ(table_.Apply(delta), learned);
  EXPECT_TRUE(table_.Get(IdOf("fcntl$ADD_SEALS"), IdOf("mmap")));
}

TEST_F(LearnerTest, LearnIntoSkipsPairsPendingInDelta) {
  // A pair already in the batch delta is not re-probed, even though the
  // table has not seen it yet.
  Prog prog = Chain({"memfd_create", "write$memfd"});
  RelationDelta delta;
  delta.Add(IdOf("memfd_create"), IdOf("write$memfd"),
            RelationSource::kDynamic, 0);
  const uint64_t before = learner_.execs_used();
  EXPECT_EQ(learner_.LearnInto(prog, &delta), 0u);
  // Only the baseline execution.
  EXPECT_EQ(learner_.execs_used(), before + 1);
}

TEST_F(LearnerTest, LinearExecutionCost) {
  // Section 6.2: a length-n minimized sequence needs at most n extra
  // executions (baseline + one per unknown adjacent pair).
  Prog prog = Chain({"openat$kvm", "ioctl$KVM_CREATE_VM",
                     "ioctl$KVM_CREATE_VCPU", "ioctl$KVM_RUN"});
  ASSERT_EQ(prog.size(), 4u);
  const uint64_t before = learner_.execs_used();
  learner_.Learn(prog);
  EXPECT_LE(learner_.execs_used() - before, prog.size());
}

// ---- CallSelector (Algorithm 3) + alpha ----

TEST(AlphaScheduleTest, StartsAtInitial) {
  AlphaSchedule alpha;
  EXPECT_DOUBLE_EQ(alpha.alpha(), AlphaSchedule::kInitial);
}

TEST(AlphaScheduleTest, UpdatesEvery1024Execs) {
  AlphaSchedule alpha;
  for (int i = 0; i < 1023; ++i) {
    alpha.Record(true, true);
  }
  EXPECT_EQ(alpha.updates(), 0u);
  alpha.Record(false, false);
  EXPECT_EQ(alpha.updates(), 1u);
}

TEST(AlphaScheduleTest, RisesWhenTableOutperforms) {
  AlphaSchedule alpha;
  for (int i = 0; i < 1024; ++i) {
    alpha.Record(i % 2 == 0, /*gained=*/i % 2 == 0);
  }
  EXPECT_GT(alpha.alpha(), AlphaSchedule::kInitial);
  EXPECT_LE(alpha.alpha(), AlphaSchedule::kMax);
}

TEST(AlphaScheduleTest, FallsWhenRandomOutperforms) {
  AlphaSchedule alpha;
  for (int i = 0; i < 1024; ++i) {
    alpha.Record(i % 2 == 0, /*gained=*/i % 2 != 0);
  }
  EXPECT_LT(alpha.alpha(), AlphaSchedule::kInitial);
  EXPECT_GE(alpha.alpha(), AlphaSchedule::kMin);
}

TEST(AlphaScheduleTest, ClampsAtMaxWhenOnlyTableGains) {
  // random_execs_ == 0 at rollover: random_rate is 0, the raw estimate is
  // 1.0, and the clamp holds it at kMax.
  AlphaSchedule alpha;
  for (uint64_t i = 0; i < AlphaSchedule::kWindow; ++i) {
    alpha.Record(/*used_table=*/true, /*gained=*/true);
  }
  EXPECT_EQ(alpha.updates(), 1u);
  EXPECT_DOUBLE_EQ(alpha.alpha(), AlphaSchedule::kMax);
}

TEST(AlphaScheduleTest, ClampsAtMinWhenOnlyRandomGains) {
  // table_execs_ == 0 at rollover: the raw estimate is 0.0, clamped to kMin.
  AlphaSchedule alpha;
  for (uint64_t i = 0; i < AlphaSchedule::kWindow; ++i) {
    alpha.Record(/*used_table=*/false, /*gained=*/true);
  }
  EXPECT_EQ(alpha.updates(), 1u);
  EXPECT_DOUBLE_EQ(alpha.alpha(), AlphaSchedule::kMin);
}

TEST(AlphaScheduleTest, GainFreeWindowRollsOverWithoutMovingAlpha) {
  // Both rates zero: no information, alpha keeps its value but the window
  // still rolls over (updates_ counts the rollover).
  AlphaSchedule alpha;
  for (uint64_t i = 0; i < AlphaSchedule::kWindow; ++i) {
    alpha.Record(i % 2 == 0, /*gained=*/false);
  }
  EXPECT_EQ(alpha.updates(), 1u);
  EXPECT_DOUBLE_EQ(alpha.alpha(), AlphaSchedule::kInitial);
  // A second gain-free window behaves identically.
  for (uint64_t i = 0; i < AlphaSchedule::kWindow; ++i) {
    alpha.Record(i % 3 == 0, /*gained=*/false);
  }
  EXPECT_EQ(alpha.updates(), 2u);
  EXPECT_DOUBLE_EQ(alpha.alpha(), AlphaSchedule::kInitial);
}

TEST(AlphaScheduleTest, RecordOrderWithinWindowIsIrrelevant) {
  // The schedule aggregates per-category counts within a window, so any
  // interleaving of the same outcome multiset must yield the same alpha and
  // update count — the property the parallel fuzzer's batched replay of
  // alpha outcomes relies on.
  struct Outcome {
    bool used_table;
    bool gained;
    uint64_t count;
  };
  const std::vector<Outcome> multiset = {
      {true, true, 400}, {true, false, 112}, {false, true, 300},
      {false, false, 212}};  // Sums to kWindow (1024).

  AlphaSchedule sequential;
  for (const Outcome& o : multiset) {
    for (uint64_t i = 0; i < o.count; ++i) {
      sequential.Record(o.used_table, o.gained);
    }
  }

  AlphaSchedule interleaved;
  std::vector<uint64_t> remaining;
  for (const Outcome& o : multiset) {
    remaining.push_back(o.count);
  }
  Rng rng(123);
  uint64_t left = AlphaSchedule::kWindow;
  while (left > 0) {
    const size_t pick = rng.Below(multiset.size());
    if (remaining[pick] == 0) {
      continue;
    }
    --remaining[pick];
    --left;
    interleaved.Record(multiset[pick].used_table, multiset[pick].gained);
  }

  EXPECT_EQ(sequential.updates(), interleaved.updates());
  EXPECT_EQ(sequential.updates(), 1u);
  EXPECT_DOUBLE_EQ(sequential.alpha(), interleaved.alpha());
  EXPECT_GT(sequential.alpha(), AlphaSchedule::kInitial);  // Table won.
}

TEST(CallSelectorTest, AlphaZeroIsAlwaysRandom) {
  RelationTable table(4);
  table.Set(0, 1, RelationSource::kDynamic, 0);
  Rng rng(5);
  CallSelector selector(&table, {0, 1, 2, 3}, &rng);
  bool used_table = false;
  for (int i = 0; i < 64; ++i) {
    selector.Select({0}, /*alpha=*/0.0, &used_table);
    EXPECT_FALSE(used_table);
  }
}

TEST(CallSelectorTest, FollowsRelationsAtAlphaOne) {
  RelationTable table(4);
  table.Set(0, 2, RelationSource::kDynamic, 0);
  Rng rng(6);
  CallSelector selector(&table, {0, 1, 2, 3}, &rng);
  bool used_table = false;
  int table_picks = 0;
  for (int i = 0; i < 100; ++i) {
    const int pick = selector.Select({0}, /*alpha=*/1.0, &used_table);
    if (used_table) {
      ++table_picks;
      EXPECT_EQ(pick, 2);  // The only influenced candidate.
    }
  }
  EXPECT_EQ(table_picks, 100);
}

TEST(CallSelectorTest, WeightsByInfluencerCount) {
  // Prefix {0, 1}: candidate 2 influenced by both; candidate 3 by one.
  RelationTable table(4);
  table.Set(0, 2, RelationSource::kDynamic, 0);
  table.Set(1, 2, RelationSource::kDynamic, 0);
  table.Set(1, 3, RelationSource::kDynamic, 0);
  Rng rng(7);
  CallSelector selector(&table, {0, 1, 2, 3}, &rng);
  int picks2 = 0;
  int picks3 = 0;
  bool used_table = false;
  for (int i = 0; i < 3000; ++i) {
    const int pick = selector.Select({0, 1}, 1.0, &used_table);
    picks2 += pick == 2 ? 1 : 0;
    picks3 += pick == 3 ? 1 : 0;
  }
  EXPECT_EQ(picks2 + picks3, 3000);
  // ~2:1 ratio expected.
  EXPECT_NEAR(static_cast<double>(picks2) / picks3, 2.0, 0.4);
}

TEST(CallSelectorTest, EmptyCandidatesFallBackToRandom) {
  RelationTable table(4);
  Rng rng(8);
  CallSelector selector(&table, {0, 1}, &rng);
  bool used_table = true;
  const int pick = selector.Select({0}, 1.0, &used_table);
  EXPECT_FALSE(used_table);
  EXPECT_TRUE(pick == 0 || pick == 1);
}

TEST(CallSelectorTest, DisabledCallsNeverSelected) {
  RelationTable table(4);
  table.Set(0, 2, RelationSource::kDynamic, 0);
  table.Set(0, 3, RelationSource::kDynamic, 0);
  Rng rng(9);
  CallSelector selector(&table, {0, 3}, &rng);  // 2 is disabled.
  bool used_table = false;
  for (int i = 0; i < 100; ++i) {
    const int pick = selector.Select({0}, 1.0, &used_table);
    EXPECT_NE(pick, 2);
    EXPECT_NE(pick, 1);
  }
}

TEST(CallSelectorTest, RefreshesSnapshotWhenTableGrows) {
  // The selector caches the CSR snapshot; edges published after the cache
  // was taken must become visible via the epoch probe.
  RelationTable table(4);
  Rng rng(11);
  CallSelector selector(&table, {0, 1, 2, 3}, &rng);
  bool used_table = true;
  selector.Select({0}, 1.0, &used_table);  // Caches the empty snapshot.
  EXPECT_FALSE(used_table);

  RelationDelta delta;
  delta.Add(0, 2, RelationSource::kDynamic, 0);
  ASSERT_EQ(table.Apply(delta), 1u);
  for (int i = 0; i < 50; ++i) {
    const int pick = selector.Select({0}, 1.0, &used_table);
    EXPECT_TRUE(used_table);
    EXPECT_EQ(pick, 2);
  }
}

// Reference implementation of the pre-snapshot Select (std::map candidate
// accumulation over the allocating InfluencedBy), kept draw-for-draw
// faithful: the rewrite must consume identical RNG rolls and return
// identical picks for any table/prefix/alpha.
int ReferenceSelect(const RelationTable& table,
                    const std::vector<int>& enabled,
                    const std::vector<uint8_t>& mask, Rng* rng,
                    const std::vector<int>& prefix, double alpha,
                    bool* used_table) {
  *used_table = false;
  if (prefix.empty() || !rng->Bernoulli(alpha)) {
    return enabled[rng->Below(enabled.size())];
  }
  std::map<int, uint64_t> candidates;
  for (int ci : prefix) {
    for (int cj : table.InfluencedBy(ci)) {
      if (mask[static_cast<size_t>(cj)] != 0) {
        ++candidates[cj];
      }
    }
  }
  if (candidates.empty()) {
    return enabled[rng->Below(enabled.size())];
  }
  *used_table = true;
  std::vector<int> calls;
  std::vector<uint64_t> weights;
  for (const auto& [call, weight] : candidates) {
    calls.push_back(call);
    weights.push_back(weight);
  }
  return calls[rng->WeightedPick(weights)];
}

TEST(CallSelectorTest, DrawEquivalentWithMapReference) {
  // Lockstep property test: a randomly grown table, random prefixes and
  // varying alpha; the snapshot Select and the map reference run on
  // identically seeded RNG streams and must agree on every single pick and
  // used_table flag. Any divergence means the rewrite changed draw order
  // and would silently re-pin every fixed-seed campaign.
  constexpr size_t kN = 64;
  RelationTable table(kN);
  std::vector<int> enabled;
  for (size_t i = 0; i < kN; i += 2) {  // Odd ids disabled.
    enabled.push_back(static_cast<int>(i));
  }
  std::vector<uint8_t> mask(kN, 0);
  for (int id : enabled) {
    mask[static_cast<size_t>(id)] = 1;
  }

  Rng driver(2026);  // Grows the table and shapes prefixes.
  Rng rng_new(777);
  Rng rng_ref(777);
  CallSelector selector(&table, enabled, &rng_new);

  for (int step = 0; step < 4000; ++step) {
    // Occasionally grow the table mid-stream so both paths see the same
    // evolving relation set (including edges to disabled calls).
    if (driver.Chance(1, 10)) {
      table.Set(static_cast<int>(driver.Below(kN)),
                static_cast<int>(driver.Below(kN)),
                RelationSource::kDynamic, step);
    }
    std::vector<int> prefix;
    const size_t len = driver.Below(5);  // Empty prefixes included.
    for (size_t i = 0; i < len; ++i) {
      prefix.push_back(static_cast<int>(driver.Below(kN)));
    }
    const double alpha = 0.25 * static_cast<double>(driver.Below(5));
    bool used_new = false;
    bool used_ref = false;
    const int pick_new = selector.Select(prefix, alpha, &used_new);
    const int pick_ref = ReferenceSelect(table, enabled, mask, &rng_ref,
                                         prefix, alpha, &used_ref);
    ASSERT_EQ(pick_new, pick_ref) << "diverged at step " << step;
    ASSERT_EQ(used_new, used_ref) << "diverged at step " << step;
  }
}

// ---- ChoiceTable (Syzkaller baseline) ----

TEST(ChoiceTableTest, StaticPrefersSharedResourceKinds) {
  const Target& target = BuiltinTarget();
  ChoiceTable table(target, AllIds(target));
  // KVM vcpu calls share the kvm_vcpu_fd kind: high P0.
  const uint32_t kvm_pair =
      table.P(IdOf("ioctl$KVM_CREATE_VCPU"), IdOf("ioctl$KVM_RUN"));
  const uint32_t unrelated =
      table.P(IdOf("timerfd_create"), IdOf("ioctl$KVM_RUN"));
  EXPECT_GT(kvm_pair, unrelated);
}

TEST(ChoiceTableTest, AdjacencyBoostsPairs) {
  const Target& target = BuiltinTarget();
  ChoiceTable table(target, AllIds(target));
  const uint32_t before =
      table.P(IdOf("timerfd_create"), IdOf("timerfd_settime"));
  for (int i = 0; i < 50; ++i) {
    table.NoteAdjacent(IdOf("timerfd_create"), IdOf("timerfd_settime"));
  }
  table.Rebuild();
  EXPECT_GT(table.P(IdOf("timerfd_create"), IdOf("timerfd_settime")),
            before);
}

TEST(ChoiceTableTest, ChooseWithoutPrevIsUniformlyEnabled) {
  const Target& target = BuiltinTarget();
  std::vector<int> enabled = {IdOf("sync"), IdOf("close")};
  ChoiceTable table(target, enabled);
  Rng rng(10);
  for (int i = 0; i < 50; ++i) {
    const int pick = table.Choose(&rng, -1);
    EXPECT_TRUE(pick == enabled[0] || pick == enabled[1]);
  }
}

TEST(ChoiceTableTest, RebuildPublishesImmutableSnapshot) {
  const Target& target = BuiltinTarget();
  ChoiceTable table(target, AllIds(target));
  const auto before = table.snapshot();
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(before->epoch(), table.epoch());
  const int from = IdOf("timerfd_create");
  const int to = IdOf("timerfd_settime");
  const uint32_t p_before = before->P(from, to);
  EXPECT_EQ(p_before, table.P(from, to));

  for (int i = 0; i < 50; ++i) {
    table.NoteAdjacent(from, to);
  }
  table.Rebuild();
  const auto after = table.snapshot();
  EXPECT_GT(after->epoch(), before->epoch());
  EXPECT_GT(after->P(from, to), p_before);
  // The earlier snapshot still reads its original value.
  EXPECT_EQ(before->P(from, to), p_before);
  // Choose follows the published matrix (identical draws to reading P
  // directly: same weights vector, one WeightedPick).
  Rng rng_a(12);
  Rng rng_b(12);
  std::vector<uint64_t> weights;
  for (int candidate : AllIds(target)) {
    weights.push_back(1 + table.P(from, candidate));
  }
  const int expect = AllIds(target)[rng_b.WeightedPick(weights)];
  EXPECT_EQ(table.Choose(&rng_a, from), expect);
}

}  // namespace
}  // namespace healer
