// Micro-benchmarks (google-benchmark): executor throughput, wire
// serialization, relation-table operations, and the cost of minimization /
// dynamic learning — quantifying Section 6.2's claim that relation learning
// overhead is minimal ("HEALER can learn the relation in 4 extra
// executions" for the typical <=5-call test case).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/base/journal.h"
#include "src/exec/executor.h"
#include "src/fuzz/corpus.h"
#include "src/fuzz/call_selector.h"
#include "src/fuzz/fuzzer.h"
#include "src/fuzz/learner.h"
#include "src/fuzz/minimizer.h"
#include "src/fuzz/prog_builder.h"
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

Prog KvmChain() {
  Rng rng(1);
  const Target& target = BuiltinTarget();
  return BuildChain(target, AllIds(target),
                    {"openat$kvm", "ioctl$KVM_CREATE_VM",
                     "ioctl$KVM_CREATE_VCPU",
                     "ioctl$KVM_SET_USER_MEMORY_REGION", "ioctl$KVM_RUN"},
                    &rng);
}

void BM_ExecutorRunKvmChain(benchmark::State& state) {
  Executor executor(BuiltinTarget(),
                    KernelConfig::ForVersion(KernelVersion::kV5_11));
  const Prog prog = KvmChain();
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.Run(prog, nullptr));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(prog.size()));
}
BENCHMARK(BM_ExecutorRunKvmChain);

void BM_SerializeRoundTrip(benchmark::State& state) {
  const Target& target = BuiltinTarget();
  const Prog prog = KvmChain();
  for (auto _ : state) {
    const auto bytes = SerializeProg(prog);
    auto decoded = DeserializeProg(target, bytes.data(), bytes.size());
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_SerializeRoundTrip);

void BM_GenerateProgram(benchmark::State& state) {
  const Target& target = BuiltinTarget();
  Rng rng(2);
  ProgBuilder builder(target, AllIds(target), &rng);
  for (auto _ : state) {
    Prog prog = builder.Generate(
        [&](const std::vector<int>&) {
          return static_cast<int>(rng.Below(target.NumSyscalls()));
        },
        10);
    benchmark::DoNotOptimize(prog);
  }
}
BENCHMARK(BM_GenerateProgram);

void BM_RelationTableLookup(benchmark::State& state) {
  const Target& target = BuiltinTarget();
  RelationTable table(target.NumSyscalls());
  StaticRelationLearn(target, &table);
  uint64_t i = 0;
  const size_t n = target.NumSyscalls();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.Get(static_cast<int>(i % n), static_cast<int>((i * 7) % n)));
    ++i;
  }
}
BENCHMARK(BM_RelationTableLookup);

// The built-in-target prefix every guided-selection measurement uses.
std::vector<int> SelectionPrefix() {
  const Target& target = BuiltinTarget();
  return {
      target.FindSyscall("openat$kvm")->id,
      target.FindSyscall("ioctl$KVM_CREATE_VM")->id,
      target.FindSyscall("memfd_create")->id,
  };
}

void BM_GuidedSelection(benchmark::State& state) {
  const Target& target = BuiltinTarget();
  RelationTable table(target.NumSyscalls());
  StaticRelationLearn(target, &table);
  Rng rng(3);
  CallSelector selector(&table, AllIds(target), &rng);
  const std::vector<int> prefix = SelectionPrefix();
  bool used = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.Select(prefix, 0.9, &used));
  }
}
BENCHMARK(BM_GuidedSelection);

// Reference implementation of the pre-snapshot Select hot path: a
// shared_mutex-guarded dense relation matrix whose InfluencedBy allocates a
// fresh vector per prefix call, feeding a std::map candidate accumulator —
// one reader-lock acquisition and O(prefix) heap allocations per pick. The
// bench_micro guard in scripts/check.sh asserts the snapshot rewrite beats
// this by >= 5x at the built-in target size.
class LegacyRelationView {
 public:
  explicit LegacyRelationView(const RelationTable& table)
      : n_(table.n()), cells_(n_ * n_, 0) {
    for (const RelationEdge& edge : table.EdgesBefore()) {
      cells_[static_cast<size_t>(edge.from) * n_ +
             static_cast<size_t>(edge.to)] = 1;
    }
  }

  std::vector<int> InfluencedBy(int from) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    std::vector<int> influenced;
    const size_t base = static_cast<size_t>(from) * n_;
    for (size_t to = 0; to < n_; ++to) {
      if (cells_[base + to] != 0) {
        influenced.push_back(static_cast<int>(to));
      }
    }
    return influenced;
  }

 private:
  size_t n_;
  mutable std::shared_mutex mu_;
  std::vector<uint8_t> cells_;
};

int LegacySelect(const LegacyRelationView& view,
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
    for (int cj : view.InfluencedBy(ci)) {
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

void BM_GuidedSelectionLegacyRef(benchmark::State& state) {
  const Target& target = BuiltinTarget();
  RelationTable table(target.NumSyscalls());
  StaticRelationLearn(target, &table);
  const LegacyRelationView view(table);
  const std::vector<int> enabled = AllIds(target);
  std::vector<uint8_t> mask(target.NumSyscalls(), 0);
  for (int id : enabled) {
    mask[static_cast<size_t>(id)] = 1;
  }
  Rng rng(3);
  const std::vector<int> prefix = SelectionPrefix();
  bool used = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        LegacySelect(view, enabled, mask, &rng, prefix, 0.9, &used));
  }
}
BENCHMARK(BM_GuidedSelectionLegacyRef);

// Measures the *executions* (not time) minimization + learning cost for the
// typical minimized length the paper cites. Reported as counters.
void BM_LearningExecCost(benchmark::State& state) {
  Executor executor(BuiltinTarget(),
                    KernelConfig::ForVersion(KernelVersion::kV5_11));
  const Prog prog = KvmChain();
  SimClock clock;
  uint64_t total_execs = 0;
  uint64_t rounds = 0;
  for (auto _ : state) {
    // Fresh table per round so every adjacent pair is actually probed.
    RelationTable table(BuiltinTarget().NumSyscalls());
    DynamicLearner learner(
        &table, [&](const Prog& p) { return executor.Run(p, nullptr); },
        &clock);
    learner.Learn(prog);
    total_execs += learner.execs_used();
    ++rounds;
  }
  state.counters["execs_per_learn"] =
      static_cast<double>(total_execs) / static_cast<double>(rounds);
}
BENCHMARK(BM_LearningExecCost);

// The telemetry-overhead guard: full fuzzing iterations with metrics and
// the flight-recorder journal armed (journal_capacity defaults on in
// FuzzerOptions), so every exec/minimize/learn span is recorded too.
// scripts/check.sh builds this benchmark twice (with and without
// -DHEALER_NO_TELEMETRY) and asserts the instrumented hot path stays within
// 3% of the compiled-out baseline.
void BM_FuzzerSteps(benchmark::State& state) {
  constexpr int kSteps = 256;
  for (auto _ : state) {
    // A fresh fuzzer per iteration keeps the measured work identical across
    // iterations and binaries (same seed -> same deterministic campaign
    // prefix), so the instrumented/compiled-out ratio is meaningful.
    FuzzerOptions options;
    options.seed = 7;
    options.num_vms = 2;
    Fuzzer fuzzer(BuiltinTarget(), options);
    for (int i = 0; i < kSteps; ++i) {
      fuzzer.Step();
    }
    benchmark::DoNotOptimize(fuzzer.CoverageCount());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kSteps);
}
BENCHMARK(BM_FuzzerSteps);

// The flight-recorder hot path: stage records in a per-worker writer and
// drain them at a batch boundary, as the fuzzers do. BM_FuzzerSteps above
// carries the end-to-end overhead guard (journal_capacity defaults on);
// this isolates the per-record cost itself.
void BM_JournalAppend(benchmark::State& state) {
  constexpr int kBatch = 32;
  Journal journal(4096);
  JournalWriter writer(&journal, 0);
  uint64_t at = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      ++at;
      writer.Record(JournalKind::kExec, at, at, 3, 7);
    }
    writer.Flush();
  }
  benchmark::DoNotOptimize(journal.size());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kBatch);
}
BENCHMARK(BM_JournalAppend);

// ---- Corpus::Choose: Fenwick sampler vs the old linear prefix scan ----

// A 16k-entry corpus (the kMaxEntries ceiling) with varied priorities.
const Corpus& BigCorpus() {
  static const Corpus* corpus = [] {
    auto* c = new Corpus();
    const Target& target = BuiltinTarget();
    Rng rng(41);
    ProgBuilder builder(target, AllIds(target), &rng);
    while (c->size() < Corpus::kMaxEntries) {
      Prog prog = builder.Generate(
          [&](const std::vector<int>&) {
            return static_cast<int>(rng.Below(target.NumSyscalls()));
          },
          4 + rng.Below(8));
      c->Add(std::move(prog), 1 + static_cast<uint32_t>(rng.Below(64)));
    }
    return c;
  }();
  return *corpus;
}

void BM_CorpusChooseFenwick16k(benchmark::State& state) {
  const Corpus& corpus = BigCorpus();
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(&corpus.Choose(&rng));
  }
}
BENCHMARK(BM_CorpusChooseFenwick16k);

// Reference implementation of the pre-Fenwick Choose: one Below() roll,
// then an O(n) subtract scan over per-entry priorities.
size_t LinearPick(const std::vector<uint32_t>& priorities, uint64_t total,
                  Rng* rng) {
  uint64_t roll = rng->Below(total);
  for (size_t i = 0; i < priorities.size(); ++i) {
    if (roll < priorities[i]) {
      return i;
    }
    roll -= priorities[i];
  }
  return priorities.size() - 1;
}

void BM_CorpusChooseLinearRef16k(benchmark::State& state) {
  const Corpus& corpus = BigCorpus();
  std::vector<uint32_t> priorities;
  uint64_t total = 0;
  for (size_t i = 0; i < corpus.size(); ++i) {
    priorities.push_back(corpus.priority_at(i));
    total += priorities.back();
  }
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LinearPick(priorities, total, &rng));
  }
}
BENCHMARK(BM_CorpusChooseLinearRef16k);

// ---- Per-call coverage arming: epoch bump vs the old full-map clear ----

void BM_CoverageArmEpoch(benchmark::State& state) {
  CallCoverage cov;
  for (auto _ : state) {
    cov.Reset();  // O(1): epoch bump.
    for (uint32_t b = 1; b <= 16; ++b) {
      cov.HitBlock(b * 0x9e3779b1u);
    }
    benchmark::DoNotOptimize(cov.NumEdges());
  }
}
BENCHMARK(BM_CoverageArmEpoch);

// Reference for the pre-epoch design: clearing the full 8 KB bitmap before
// every call, cost proportional to the map size rather than the edge count.
void BM_CoverageArmMemsetRef(benchmark::State& state) {
  Bitmap edges(CallCoverage::kMapBits);
  for (auto _ : state) {
    edges.Clear();  // O(map size).
    for (uint32_t b = 1; b <= 16; ++b) {
      edges.Set((b * 0x9e3779b1u) & (CallCoverage::kMapBits - 1));
    }
    benchmark::DoNotOptimize(edges.Count());
  }
}
BENCHMARK(BM_CoverageArmMemsetRef);

void BM_KernelBoot(benchmark::State& state) {
  const KernelConfig config = KernelConfig::ForVersion(KernelVersion::kV5_11);
  GuestMem mem;
  for (auto _ : state) {
    mem.Reset();
    Kernel kernel(config, &mem);
    benchmark::DoNotOptimize(kernel);
  }
}
BENCHMARK(BM_KernelBoot);

}  // namespace

// Hand-timed single-thread wins, recorded as BENCH_micro.json for the
// driver scripts (scripts/check.sh `parallel` stage asserts the file's
// speedups): Fenwick Choose vs the old linear scan at 16k entries, and the
// epoch-stamped per-call coverage arm vs the old full-map clear.
double TimeNs(size_t iters, const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < iters; ++i) {
    fn();
  }
  const auto end = std::chrono::steady_clock::now();
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
                 .count()) /
         static_cast<double>(iters);
}

void WriteMicroJson() {
  // Guided selection: the snapshot/flat-array Select vs the legacy
  // shared_mutex + std::map reference, both on the statically learned table
  // at the built-in target size and alpha = 1.0 (every pick exercises the
  // table path). scripts/check.sh's `relation` stage asserts >= 5x.
  const Target& target = BuiltinTarget();
  RelationTable table(target.NumSyscalls());
  StaticRelationLearn(target, &table);
  const LegacyRelationView legacy_view(table);
  const std::vector<int> enabled = AllIds(target);
  std::vector<uint8_t> mask(target.NumSyscalls(), 0);
  for (int id : enabled) {
    mask[static_cast<size_t>(id)] = 1;
  }
  const std::vector<int> prefix = SelectionPrefix();
  Rng rng_sel_new(3);
  Rng rng_sel_old(3);
  CallSelector selector(&table, enabled, &rng_sel_new);
  bool used = false;
  constexpr size_t kSelectIters = 50000;
  const double select_snapshot_ns = TimeNs(kSelectIters, [&] {
    benchmark::DoNotOptimize(selector.Select(prefix, 1.0, &used));
  });
  const double select_legacy_ns = TimeNs(kSelectIters, [&] {
    benchmark::DoNotOptimize(LegacySelect(legacy_view, enabled, mask,
                                          &rng_sel_old, prefix, 1.0, &used));
  });

  const Corpus& corpus = BigCorpus();
  std::vector<uint32_t> priorities;
  uint64_t total = 0;
  for (size_t i = 0; i < corpus.size(); ++i) {
    priorities.push_back(corpus.priority_at(i));
    total += priorities.back();
  }
  Rng rng_a(5);
  Rng rng_b(5);
  constexpr size_t kChooseIters = 20000;
  const double fenwick_ns = TimeNs(kChooseIters, [&] {
    benchmark::DoNotOptimize(&corpus.Choose(&rng_a));
  });
  const double linear_ns = TimeNs(kChooseIters, [&] {
    benchmark::DoNotOptimize(LinearPick(priorities, total, &rng_b));
  });

  CallCoverage cov;
  Bitmap edges(CallCoverage::kMapBits);
  constexpr size_t kArmIters = 100000;
  const double epoch_ns = TimeNs(kArmIters, [&] {
    cov.Reset();
    for (uint32_t b = 1; b <= 16; ++b) {
      cov.HitBlock(b * 0x9e3779b1u);
    }
    benchmark::DoNotOptimize(cov.NumEdges());
  });
  const double memset_ns = TimeNs(kArmIters, [&] {
    edges.Clear();
    for (uint32_t b = 1; b <= 16; ++b) {
      edges.Set((b * 0x9e3779b1u) & (CallCoverage::kMapBits - 1));
    }
    benchmark::DoNotOptimize(edges.Count());
  });

  bench::WriteBenchJson(
      "micro",
      {
          {"select_snapshot_ns", select_snapshot_ns},
          {"select_legacy_ns", select_legacy_ns},
          {"select_speedup", select_snapshot_ns > 0.0
                                 ? select_legacy_ns / select_snapshot_ns
                                 : 0.0},
          {"corpus_choose_fenwick_ns_16k", fenwick_ns},
          {"corpus_choose_linear_ns_16k", linear_ns},
          {"corpus_choose_speedup_16k",
           fenwick_ns > 0.0 ? linear_ns / fenwick_ns : 0.0},
          {"coverage_arm_epoch_ns", epoch_ns},
          {"coverage_arm_memset_ref_ns", memset_ns},
          {"coverage_arm_speedup",
           epoch_ns > 0.0 ? memset_ns / epoch_ns : 0.0},
      });
}

}  // namespace healer

int main(int argc, char** argv) {
  // Filtered runs (the check.sh telemetry guard parses CSV output) skip the
  // JSON side-artifact; a plain run regenerates BENCH_micro.json.
  // --json-only writes BENCH_micro.json without running the registered
  // google-benchmark suite (the check.sh relation guard only needs the
  // hand-timed numbers).
  bool filtered = false;
  bool json_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strstr(argv[i], "--benchmark_filter") != nullptr) {
      filtered = true;
    }
    if (std::strcmp(argv[i], "--json-only") == 0) {
      json_only = true;
      for (int j = i; j + 1 < argc; ++j) {
        argv[j] = argv[j + 1];
      }
      --argc;
      --i;
    }
  }
  if (json_only) {
    healer::WriteMicroJson();
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!filtered) {
    healer::WriteMicroJson();
  }
  return 0;
}
