// Equivalence suite for call-mask replays (DESIGN.md §9). A probe of
// Algorithm 1/2 or of crash reproduction is a keep mask over the program
// the fuzzing execution shipped, replayed by the guest's resident image.
// Each test pins one link of that chain to the materializing path it
// replaced:
//   * SelectCalls is byte-identical to iterated RemoveCall/Truncate;
//   * a masked replay returns the ExecResult of executing the selected
//     program, in the executor and over the VM's shm channel, with and
//     without faults, including a request whose image would overflow the
//     channel;
//   * Minimizer, DynamicLearner and CrashReproducer on masks match the
//     clone+RemoveCall algorithms kept below as the reference;
//   * a fixed-seed fault-plan campaign loop ends in the same state whether
//     the analysis is bound to masks or to the ExecFn adapter.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/base/metrics.h"
#include "src/base/rng.h"
#include "src/exec/executor.h"
#include "src/exec/shm_channel.h"
#include "src/fuzz/learner.h"
#include "src/fuzz/minimizer.h"
#include "src/fuzz/prog_builder.h"
#include "src/fuzz/relation_table.h"
#include "src/fuzz/repro.h"
#include "src/fuzz/templates.h"
#include "src/prog/arena.h"
#include "src/prog/serialize.h"
#include "src/syzlang/builtin_descs.h"
#include "src/vm/guest_vm.h"
#include "src/vm/vm_pool.h"

namespace healer {
namespace {

const KernelConfig& Config() {
  static const KernelConfig config =
      KernelConfig::ForVersion(KernelVersion::kV5_11);
  return config;
}

std::vector<int> AllIds(const Target& target) {
  std::vector<int> ids;
  for (const auto& call : target.syscalls()) {
    ids.push_back(call->id);
  }
  return ids;
}

// Random programs followed by the built-in template chains, whose calls are
// wired through resources (including out-parameter slots).
std::vector<Prog> BuildProgs(size_t count, uint64_t seed) {
  const Target& target = BuiltinTarget();
  Rng rng(seed);
  ProgBuilder builder(target, AllIds(target), &rng);
  std::vector<Prog> progs;
  while (progs.size() < count) {
    Prog prog = builder.Generate(
        [&](const std::vector<int>&) {
          return static_cast<int>(rng.Below(target.NumSyscalls()));
        },
        4 + rng.Below(10));
    if (!prog.empty()) {
      progs.push_back(std::move(prog));
    }
  }
  for (const std::vector<std::string>& chain : TemplateChains()) {
    Prog prog = BuildChain(target, AllIds(target), chain, &rng);
    if (!prog.empty()) {
      progs.push_back(std::move(prog));
    }
  }
  return progs;
}

// A random keep mask: every call survives with probability 1/2, and one
// producer that another call references is always dropped when there is
// one, so degraded references are common.
CallMask RandomMask(const Prog& prog, Rng* rng) {
  CallMask keep(prog.size());
  for (uint8_t& k : keep) {
    k = rng->Below(2) == 0 ? 1 : 0;
  }
  std::vector<size_t> producers;
  for (const Call& call : prog.calls()) {
    ForEachArg(call, [&](const Arg& arg) {
      if (arg.kind == ArgKind::kResource && arg.res_ref >= 0) {
        producers.push_back(static_cast<size_t>(arg.res_ref));
      }
    });
  }
  if (!producers.empty()) {
    keep[producers[rng->Below(producers.size())]] = 0;
  }
  return keep;
}

// ---- The clone+RemoveCall reference ----

// The selected program the way the probes built it before masks: a
// trailing run dropped with Truncate, every other dropped call removed with
// RemoveCall, back to front.
Prog RemoveDropped(const Prog& prog, const CallMask& keep) {
  Prog out = prog.Clone();
  size_t end = keep.size();
  while (end > 0 && keep[end - 1] == 0) {
    --end;
  }
  out.Truncate(end);
  for (size_t i = end; i-- > 0;) {
    if (keep[i] == 0) {
      out.RemoveCall(i);
    }
  }
  return out;
}

// Algorithm 1 over materialized candidates.
std::vector<MinimizedSeq> ReferenceMinimize(const Prog& prog,
                                            const ExecResult& baseline,
                                            const ExecFn& exec,
                                            uint64_t* execs) {
  std::vector<MinimizedSeq> out;
  const size_t len = prog.size();
  if (len == 0 || baseline.calls.size() < len) {
    return out;
  }
  std::vector<bool> reserved(len, false);
  for (size_t ii = len; ii-- > 0;) {
    if (reserved[ii] || baseline.calls[ii].new_edges == 0) {
      continue;
    }
    reserved[ii] = true;
    const uint64_t target_signal = baseline.calls[ii].signal;
    Prog cur = prog.Clone();
    cur.Truncate(ii + 1);
    std::vector<size_t> orig(ii + 1);
    for (size_t i = 0; i <= ii; ++i) {
      orig[i] = i;
    }
    size_t last = ii;
    for (size_t jj = last; jj-- > 0;) {
      Prog cand = cur.Clone();
      cand.RemoveCall(jj);
      ++*execs;
      const ExecResult res = exec(cand);
      const size_t cand_last = last - 1;
      const bool preserved =
          !res.Failed() && cand_last < res.calls.size() &&
          res.calls[cand_last].executed &&
          res.calls[cand_last].signal == target_signal;
      if (preserved) {
        cur = std::move(cand);
        orig.erase(orig.begin() + static_cast<long>(jj));
        last = cand_last;
      } else {
        reserved[orig[jj]] = true;
      }
    }
    out.push_back(MinimizedSeq{std::move(cur), last, target_signal, {}});
  }
  return out;
}

// Algorithm 2 over materialized candidates; returns the learned pairs.
std::vector<std::pair<int, int>> ReferenceLearn(const Prog& minimized,
                                                const ExecFn& exec,
                                                uint64_t* execs) {
  std::vector<std::pair<int, int>> learned;
  const size_t len = minimized.size();
  if (len < 2) {
    return learned;
  }
  ++*execs;
  const ExecResult baseline = exec(minimized);
  if (baseline.Failed() || baseline.calls.size() < len) {
    return learned;
  }
  RelationDelta seen;
  for (size_t idx = 1; idx < len; ++idx) {
    const int ci = minimized.calls()[idx - 1].meta->id;
    const int cj = minimized.calls()[idx].meta->id;
    if (seen.Contains(ci, cj)) {
      continue;
    }
    Prog cand = minimized.Clone();
    cand.RemoveCall(idx - 1);
    ++*execs;
    const ExecResult res = exec(cand);
    if (res.Failed()) {
      continue;
    }
    const size_t cj_pos = idx - 1;
    const bool unchanged = cj_pos < res.calls.size() &&
                           res.calls[cj_pos].executed &&
                           res.calls[cj_pos].signal ==
                               baseline.calls[idx].signal;
    if (!unchanged && seen.Add(ci, cj, RelationSource::kDynamic, 0)) {
      learned.emplace_back(ci, cj);
    }
  }
  return learned;
}

// Greedy crash reproduction over materialized candidates.
std::optional<CrashRepro> ReferenceRepro(const Prog& prog, BugId bug,
                                         const ExecFn& exec) {
  CrashRepro repro{prog.Clone(), bug, 0};
  auto crashes_same = [&](const Prog& candidate) {
    ++repro.execs;
    const ExecResult result = exec(candidate);
    return result.Crashed() && result.crash->bug == bug;
  };
  if (!crashes_same(repro.prog)) {
    return std::nullopt;
  }
  {
    ++repro.execs;
    const ExecResult result = exec(repro.prog);
    if (result.Crashed()) {
      repro.prog.Truncate(result.crash->call_index + 1);
    }
  }
  bool changed = true;
  while (changed && repro.prog.size() > 1) {
    changed = false;
    for (size_t i = repro.prog.size() - 1; i-- > 0;) {
      Prog candidate = repro.prog.Clone();
      candidate.RemoveCall(i);
      if (crashes_same(candidate)) {
        repro.prog = std::move(candidate);
        changed = true;
      }
    }
  }
  return repro;
}

std::vector<std::pair<int, int>> Pairs(const RelationDelta& delta) {
  std::vector<std::pair<int, int>> pairs;
  for (const RelationEdge& edge : delta.edges()) {
    pairs.emplace_back(edge.from, edge.to);
  }
  return pairs;
}

// ---- SelectCalls ----

TEST(SelectCallsTest, MatchesIteratedRemoveCallByteForByte) {
  const std::vector<Prog> progs = BuildProgs(400, 20261017);
  Rng rng(5);
  size_t degraded = 0;      // References to a dropped producer.
  size_t degraded_out = 0;  // ... whose producer slot is an out parameter.
  size_t shifted = 0;       // References that move down past a dropped call.
  for (size_t p = 0; p < progs.size(); ++p) {
    const Prog& prog = progs[p];
    for (int round = 0; round < 4; ++round) {
      const CallMask keep = RandomMask(prog, &rng);
      for (const Call& call : prog.calls()) {
        ForEachArg(call, [&](const Arg& arg) {
          if (arg.kind != ArgKind::kResource || arg.res_ref < 0) {
            return;
          }
          const size_t ref = static_cast<size_t>(arg.res_ref);
          if (keep[ref] == 0) {
            ++degraded;
            degraded_out += arg.res_slot > 0 ? 1 : 0;
          } else if (std::count(keep.begin(), keep.begin() + ref, 0) > 0) {
            ++shifted;
          }
        });
      }
      const Prog selected = SelectCalls(prog, keep);
      const Prog reference = RemoveDropped(prog, keep);
      const std::vector<uint8_t> bytes = SerializeProg(selected);
      ASSERT_EQ(bytes, SerializeProg(reference))
          << "program " << p << " round " << round;
      EXPECT_EQ(ProgImage(prog).WireSize(&keep), bytes.size());
      EXPECT_TRUE(selected.Validate().ok()) << "program " << p;
    }
    // The all-kept mask is a plain copy; arena-built selections match.
    ProgArena arena;
    EXPECT_EQ(SerializeProg(SelectCalls(prog, CallMask(prog.size(), 1),
                                        &arena)),
              SerializeProg(prog));
  }
  EXPECT_GT(degraded, 0u);
  EXPECT_GT(degraded_out, 0u);
  EXPECT_GT(shifted, 0u);
}

// ---- Masked replays ----

TEST(MaskReplayTest, ExecutorMaskedRunMatchesMaterializedRun) {
  const std::vector<Prog> progs = BuildProgs(200, 77);
  Executor masked(BuiltinTarget(), Config());
  Executor materialized(BuiltinTarget(), Config());
  Bitmap masked_cov(CallCoverage::kMapBits);
  Bitmap materialized_cov(CallCoverage::kMapBits);
  Rng rng(9);
  size_t crashes = 0;
  for (size_t p = 0; p < progs.size(); ++p) {
    // The program becomes the executor's resident image; the masks then
    // replay it without a second transfer.
    const std::vector<uint8_t> image = SerializeProg(progs[p]);
    ASSERT_TRUE(masked.RunSerialized(image.data(), image.size(), nullptr)
                    .calls.size() == progs[p].size());
    for (int round = 0; round < 3; ++round) {
      const CallMask keep = RandomMask(progs[p], &rng);
      const std::vector<uint8_t> request = EncodeMaskRequest(
          ImageDigest(image.data(), image.size()), keep, nullptr);
      const ExecResult a =
          masked.RunSerialized(request.data(), request.size(), &masked_cov);
      const ExecResult b =
          materialized.Run(SelectCalls(progs[p], keep), &materialized_cov);
      ASSERT_TRUE(a == b) << "program " << p << " round " << round;
      crashes += a.Crashed() ? 1 : 0;
    }
  }
  EXPECT_EQ(masked_cov.Hash(), materialized_cov.Hash());
  EXPECT_GT(crashes, 0u);  // Crash indices were compared, not just calls.
}

struct TransportCase {
  const char* name;
  double fault_rate;
};

void PrintTo(const TransportCase& c, std::ostream* os) { *os << c.name; }

class MaskTransportTest : public ::testing::TestWithParam<TransportCase> {
 protected:
  std::unique_ptr<GuestVm> MakeVm(SimClock* clock, MetricRegistry* metrics) {
    const FaultPlan plan = GetParam().fault_rate > 0
                               ? FaultPlan::Uniform(GetParam().fault_rate)
                               : FaultPlan();
    return std::make_unique<GuestVm>(BuiltinTarget(), Config(), clock,
                                     VmLatencyModel(), plan, 31, metrics);
  }
};

// The masked VM ships each program once and replays masks over it; the
// reference VM ships every selected program whole. Same fault seed, so the
// two must stay draw-for-draw and charge-for-charge identical.
TEST_P(MaskTransportTest, MaskedReplayMatchesMaterializedExec) {
  const std::vector<Prog> progs = BuildProgs(150, 4242);
  SimClock masked_clock;
  SimClock reference_clock;
  MetricRegistry metrics;
  auto masked = MakeVm(&masked_clock, &metrics);
  auto reference = MakeVm(&reference_clock, nullptr);
  Bitmap masked_cov(CallCoverage::kMapBits);
  Bitmap reference_cov(CallCoverage::kMapBits);
  Rng rng(3);
  for (size_t p = 0; p < progs.size(); ++p) {
    const ProgImage image(progs[p]);
    ASSERT_TRUE(masked->Exec(image, nullptr, &masked_cov) ==
                reference->Exec(progs[p], &reference_cov))
        << "program " << p;
    for (int round = 0; round < 4; ++round) {
      const CallMask keep = RandomMask(progs[p], &rng);
      const ExecResult a = masked->Exec(image, &keep, &masked_cov);
      const ExecResult b =
          reference->Exec(SelectCalls(progs[p], keep), &reference_cov);
      ASSERT_TRUE(a == b) << "program " << p << " round " << round
                          << ": masked failure " << ExecFailureName(a.failure)
                          << ", reference failure "
                          << ExecFailureName(b.failure);
      ASSERT_EQ(masked_clock.now(), reference_clock.now()) << "program " << p;
    }
  }
  EXPECT_EQ(masked_cov.Hash(), reference_cov.Hash());
  EXPECT_EQ(masked->execs(), reference->execs());
  EXPECT_EQ(masked->crashes(), reference->crashes());
  EXPECT_EQ(masked->infra_faults(), reference->infra_faults());
  EXPECT_EQ(masked->injector().injected(), reference->injector().injected());
  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_GT(snap.counter("healer_exec_mask_replays_total"), 0u);
  if (GetParam().fault_rate == 0) {
    // Each program travels once; only a crash, which takes the image down
    // with the guest, makes a later mask carry it again.
    EXPECT_GE(snap.counter("healer_exec_images_shipped_total"), progs.size());
    EXPECT_LE(snap.counter("healer_exec_images_shipped_total"),
              progs.size() + masked->crashes());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Transports, MaskTransportTest,
    ::testing::Values(TransportCase{"Shm", 0},
                      TransportCase{"ShmFaulted", 0.05}),
    [](const ::testing::TestParamInfo<TransportCase>& info) {
      return std::string(info.param.name);
    });

// A program whose image fits the shm region, but not inside a mask request
// that carries it. Masked on a guest that does not hold it, the VM ships
// the selected program alone; the result, the clock and the coverage match
// executing that selection whole.
TEST(MaskReplayTest, ImageTooLargeToCarryShipsTheSelectionAlone) {
  const Target& target = BuiltinTarget();
  Rng rng(8);
  Prog prog = BuildChain(target, AllIds(target),
                         {"memfd_create", "write$memfd", "close"}, &rng);
  ASSERT_EQ(prog.size(), 3u);
  Arg* buffer = nullptr;
  ForEachArg(prog.calls()[1], [&](Arg& arg) {
    if (arg.kind == ArgKind::kData) {
      buffer = &arg;
    }
  });
  ASSERT_NE(buffer, nullptr);
  // Grow the buffer until the program is a few bytes short of the region's
  // limit (ShmChannel::WriteProg keeps 8 bytes of framing).
  constexpr size_t kLimit = ShmChannel::kSize - 8;
  const size_t small = SerializeProg(prog).size();
  buffer->data.resize(buffer->data.size() + (kLimit - 4 - small), 0x5a);
  const ProgImage image(prog);
  ASSERT_LE(image.bytes().size(), kLimit);
  ASSERT_GT(kMaskRequestHeader + prog.size() + image.bytes().size(), kLimit);

  SimClock masked_clock;
  SimClock reference_clock;
  MetricRegistry metrics;
  GuestVm masked(target, Config(), &masked_clock, VmLatencyModel(),
                 FaultPlan(), 3, &metrics);
  GuestVm reference(target, Config(), &reference_clock);
  Bitmap masked_cov(CallCoverage::kMapBits);
  Bitmap reference_cov(CallCoverage::kMapBits);
  const std::vector<CallMask> masks = {{0, 1, 1}, {1, 1, 0}, {1, 0, 1}};
  for (size_t m = 0; m < masks.size(); ++m) {
    // The guest holds the last selection it ran, never `image` itself.
    ASSERT_FALSE(masked.HoldsImage(image)) << "mask " << m;
    const ExecResult got = masked.Exec(image, &masks[m], &masked_cov);
    const ExecResult want =
        reference.Exec(SelectCalls(prog, masks[m]), &reference_cov);
    ASSERT_FALSE(got.Failed()) << "mask " << m;
    ASSERT_EQ(got.calls.size(), 2u) << "mask " << m;
    ASSERT_TRUE(got == want) << "mask " << m;
    ASSERT_EQ(masked_clock.now(), reference_clock.now()) << "mask " << m;
  }
  EXPECT_EQ(masked_cov.Hash(), reference_cov.Hash());
  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.counter("healer_exec_images_shipped_total"), masks.size());
  EXPECT_EQ(snap.counter("healer_exec_mask_replays_total"), 0u);
}

// ---- Analysis on masks against the clone+RemoveCall reference ----

// Two identically seeded VMs: one runs the production analysis on masks,
// the other runs the reference algorithms above on materialized programs.
void ExpectAnalysisMatchesReference(const FaultPlan& plan) {
  const std::vector<Prog> progs = BuildProgs(160, 606);
  SimClock masked_clock;
  SimClock reference_clock;
  GuestVm masked(BuiltinTarget(), Config(), &masked_clock, VmLatencyModel(),
                 plan, 17);
  GuestVm reference(BuiltinTarget(), Config(), &reference_clock,
                    VmLatencyModel(), plan, 17);
  Bitmap masked_cov(CallCoverage::kMapBits);
  Bitmap reference_cov(CallCoverage::kMapBits);
  const MaskExecFn mask_exec = [&](const ProgImage& base,
                                   const CallMask& keep) {
    return masked.Exec(base, &keep, nullptr);
  };
  const ExecFn reference_exec = [&](const Prog& prog) {
    return reference.Exec(prog, nullptr);
  };
  RelationTable table(BuiltinTarget().NumSyscalls());
  Minimizer minimizer(mask_exec);
  DynamicLearner learner(&table, mask_exec, &masked_clock);
  CrashReproducer reproducer(mask_exec);
  uint64_t reference_min_execs = 0;
  uint64_t reference_learn_execs = 0;
  size_t sequences = 0;
  size_t repros = 0;
  for (size_t p = 0; p < progs.size(); ++p) {
    const Prog& prog = progs[p];
    const ProgImage image(prog);
    const ExecResult result = masked.Exec(image, nullptr, &masked_cov);
    ASSERT_TRUE(result == reference.Exec(prog, &reference_cov))
        << "program " << p;
    if (result.Failed()) {
      continue;
    }
    if (result.Crashed()) {
      const std::optional<CrashRepro> got =
          reproducer.Minimize(image, result.crash->bug);
      const std::optional<CrashRepro> want =
          ReferenceRepro(prog, result.crash->bug, reference_exec);
      ASSERT_EQ(got.has_value(), want.has_value()) << "program " << p;
      if (got.has_value()) {
        EXPECT_EQ(SerializeProg(got->prog), SerializeProg(want->prog))
            << "program " << p;
        EXPECT_EQ(got->execs, want->execs) << "program " << p;
        ++repros;
      }
      continue;
    }
    if (result.TotalNewEdges() == 0) {
      continue;
    }
    const std::vector<MinimizedSeq> got = minimizer.Minimize(image, result);
    const std::vector<MinimizedSeq> want = ReferenceMinimize(
        prog, result, reference_exec, &reference_min_execs);
    ASSERT_EQ(got.size(), want.size()) << "program " << p;
    ASSERT_EQ(minimizer.execs_used(), reference_min_execs) << "program " << p;
    for (size_t s = 0; s < got.size(); ++s) {
      EXPECT_EQ(SerializeProg(got[s].prog), SerializeProg(want[s].prog))
          << "program " << p << " sequence " << s;
      EXPECT_EQ(got[s].target_index, want[s].target_index);
      EXPECT_EQ(got[s].target_signal, want[s].target_signal);
      EXPECT_EQ(SerializeProg(SelectCalls(prog, got[s].keep)),
                SerializeProg(got[s].prog));
      RelationDelta delta;
      learner.LearnInto(image, got[s].keep, &delta);
      EXPECT_EQ(Pairs(delta),
                ReferenceLearn(want[s].prog, reference_exec,
                               &reference_learn_execs))
          << "program " << p << " sequence " << s;
      ASSERT_EQ(learner.execs_used(), reference_learn_execs);
      ++sequences;
    }
    ASSERT_EQ(masked_clock.now(), reference_clock.now()) << "program " << p;
  }
  EXPECT_EQ(masked_cov.Hash(), reference_cov.Hash());
  EXPECT_EQ(masked.injector().injected(), reference.injector().injected());
  EXPECT_GT(sequences, 0u);
  EXPECT_GT(repros, 0u);
}

TEST(MaskAnalysisTest, MatchesCloneRemoveCallReferenceFaultFree) {
  ExpectAnalysisMatchesReference(FaultPlan());
}

TEST(MaskAnalysisTest, MatchesCloneRemoveCallReferenceUnderFaults) {
  ExpectAnalysisMatchesReference(FaultPlan::Uniform(0.05));
}

// ---- Masked binding against the ExecFn adapter binding ----

struct LoopState {
  uint64_t coverage_hash = 0;
  std::vector<std::vector<uint8_t>> corpus;
  size_t relations = 0;
  std::vector<std::vector<uint8_t>> repros;
  SimClock::Nanos now = 0;
  uint64_t probes = 0;
  uint64_t images_shipped = 0;
  uint64_t mask_replays = 0;
};

// A fixed-seed campaign loop over a two-guest pool under a fault plan:
// execute, reproduce crashes, minimize new coverage, learn, keep the
// minimized programs. `masked` binds the analysis to mask replays; otherwise
// to the ExecFn adapter, which materializes every mask.
LoopState RunCampaignLoop(bool masked, const FaultPlan& plan) {
  const Target& target = BuiltinTarget();
  SimClock clock;
  MetricRegistry metrics;
  VmPool pool(target, Config(), &clock, 2, VmLatencyModel(), plan, 99,
              &metrics);
  Bitmap coverage(CallCoverage::kMapBits);
  RelationTable table(target.NumSyscalls());
  LoopState state;
  const MaskExecFn mask_exec = [&](const ProgImage& base,
                                   const CallMask& keep) {
    ++state.probes;
    return pool.Next().Exec(base, &keep, nullptr);
  };
  const ExecFn prog_exec = [&](const Prog& prog) {
    ++state.probes;
    return pool.Next().Exec(prog, nullptr);
  };
  Minimizer minimizer = masked ? Minimizer(mask_exec) : Minimizer(prog_exec);
  DynamicLearner learner = masked ? DynamicLearner(&table, mask_exec, &clock)
                                  : DynamicLearner(&table, prog_exec, &clock);
  CrashReproducer reproducer =
      masked ? CrashReproducer(mask_exec) : CrashReproducer(prog_exec);
  for (const Prog& prog : BuildProgs(240, 8080)) {
    const ProgImage image(prog);
    const ExecResult result = pool.Next().Exec(image, nullptr, &coverage);
    if (result.Failed()) {
      continue;
    }
    if (result.Crashed()) {
      std::optional<CrashRepro> repro =
          reproducer.Minimize(image, result.crash->bug);
      if (repro.has_value()) {
        state.repros.push_back(SerializeProg(repro->prog));
      }
      continue;
    }
    if (result.TotalNewEdges() == 0) {
      continue;
    }
    for (const MinimizedSeq& seq : minimizer.Minimize(image, result)) {
      RelationDelta delta;
      learner.LearnInto(image, seq.keep, &delta);
      table.Apply(delta);
      state.corpus.push_back(SerializeProg(seq.prog));
    }
  }
  state.coverage_hash = coverage.Hash();
  state.relations = table.Count();
  state.now = clock.now();
  const MetricsSnapshot snap = metrics.Snapshot();
  state.images_shipped = snap.counter("healer_exec_images_shipped_total");
  state.mask_replays = snap.counter("healer_exec_mask_replays_total");
  return state;
}

TEST(MaskBindingTest, FaultPlanCampaignSameUnderMaskAndAdapterBindings) {
  FaultPlan plan = FaultPlan::Uniform(0.02);
  const LoopState masked = RunCampaignLoop(true, plan);
  const LoopState adapter = RunCampaignLoop(false, plan);
  EXPECT_EQ(masked.coverage_hash, adapter.coverage_hash);
  EXPECT_EQ(masked.corpus, adapter.corpus);
  EXPECT_EQ(masked.relations, adapter.relations);
  EXPECT_EQ(masked.repros, adapter.repros);
  EXPECT_EQ(masked.now, adapter.now);
  EXPECT_EQ(masked.probes, adapter.probes);
  EXPECT_GT(masked.corpus.size(), 0u);
  EXPECT_GT(masked.relations, 0u);
  // Only the transfers differ: the adapter ships every probe whole.
  EXPECT_EQ(masked.images_shipped + masked.mask_replays,
            adapter.images_shipped + adapter.mask_replays);
  EXPECT_GT(masked.mask_replays, masked.probes / 2);
  EXPECT_LT(masked.images_shipped, adapter.images_shipped);
}

}  // namespace
}  // namespace healer
