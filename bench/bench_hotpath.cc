// Hot-path memory benchmarks (DESIGN.md §11): heap allocations per generated
// program with and without the ProgArena, and corpus warm-start latency for
// the legacy stream vs the HCORP1 mmap container. scripts/check.sh's
// `hotpath` stage enforces the arena's >=2x allocation reduction, its
// generation-time ceiling and HCORP1's warm-start floor from
// BENCH_hotpath.json.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/base/rng.h"
#include "src/fuzz/corpus_io.h"
#include "src/fuzz/prog_builder.h"
#include "src/prog/arena.h"
#include "src/prog/serialize.h"
#include "src/syzlang/builtin_descs.h"

// ---- heap allocation interposer ----
//
// Replacing the global allocation functions in the bench binary lets the
// generate-loop measurements report exact operator-new counts instead of
// inferring them from timings. Counting covers the plain and array forms
// (all the fuzzer's nodes and vectors go through these); frees are not
// counted — the metric of interest is allocations per candidate program.

namespace {
std::atomic<uint64_t> g_heap_allocs{0};

void* CountedAlloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace healer {
namespace {

std::vector<int> AllIds(const Target& target) {
  std::vector<int> ids;
  for (const auto& call : target.syscalls()) {
    ids.push_back(call->id);
  }
  return ids;
}

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

// The generate/mutate inner loop of Fuzzer::Step, parameterized by arena.
// Every iteration builds one candidate, mutates it, and drops it — exactly
// the lifetime the per-Step arena Reset exploits.
struct GenLoop {
  const Target& target = BuiltinTarget();
  std::vector<int> ids = AllIds(target);
  Rng rng{20260808};
  ProgBuilder builder{target, ids, &rng};
  ProgArena arena;
  size_t iter = 0;

  explicit GenLoop(bool use_arena) {
    if (use_arena) {
      builder.set_arena(&arena);
    }
  }

  void Once() {
    arena.Reset();
    const auto choose = [this](const std::vector<int>&) {
      return ids[rng.Below(ids.size())];
    };
    Prog prog = builder.Generate(choose, 2 + iter % 5);
    if (iter % 3 == 1) {
      builder.MutateArgs(&prog);
    } else if (iter % 3 == 2) {
      builder.MutateInsert(&prog, choose);
    }
    benchmark::DoNotOptimize(&prog);
    ++iter;
  }
};

// Writes `progs` as the legacy HCOR stream, which LoadProgs still reads but
// nothing in the library writes: magic, u32 count, then per program u32
// length + SerializeProg bytes.
bool WriteLegacyCorpus(const std::string& path,
                       const std::vector<Prog>& progs) {
  std::vector<uint8_t> bytes = {'H', 'C', 'O', 'R'};
  const auto put_u32 = [&bytes](size_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  put_u32(progs.size());
  for (const Prog& prog : progs) {
    const std::vector<uint8_t> blob = SerializeProg(prog);
    put_u32(blob.size());
    bytes.insert(bytes.end(), blob.begin(), blob.end());
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  const bool ok = std::fwrite(bytes.data(), bytes.size(), 1, f) == 1;
  return std::fclose(f) == 0 && ok;
}

std::vector<Prog> BuildCorpus(size_t count) {
  const Target& target = BuiltinTarget();
  const std::vector<int> ids = AllIds(target);
  Rng rng(7);
  ProgBuilder builder(target, ids, &rng);
  const auto choose = [&](const std::vector<int>&) {
    return ids[rng.Below(ids.size())];
  };
  std::vector<Prog> progs;
  while (progs.size() < count) {
    Prog prog = builder.Generate(choose, 1 + progs.size() % 7);
    if (!prog.empty() && prog.Validate().ok()) {
      progs.push_back(std::move(prog));
    }
  }
  return progs;
}

// ---- registered google-benchmark suite ----

void BM_GenerateProgram(benchmark::State& state) {
  GenLoop loop(state.range(0) == 1);
  for (int i = 0; i < 50; ++i) {
    loop.Once();  // Warm the arena chunks / malloc freelists.
  }
  const uint64_t allocs_before = g_heap_allocs.load();
  uint64_t iters = 0;
  for (auto _ : state) {
    loop.Once();
    ++iters;
  }
  const uint64_t allocs = g_heap_allocs.load() - allocs_before;
  state.counters["allocs_per_prog"] =
      iters == 0 ? 0.0
                 : static_cast<double>(allocs) / static_cast<double>(iters);
}
BENCHMARK(BM_GenerateProgram)
    ->Arg(0)  // Heap-backed Arg nodes.
    ->Arg(1)  // Arena-backed, Reset per candidate.
    ->Unit(benchmark::kMicrosecond);

void BM_CorpusWarmStart(benchmark::State& state) {
  const bool hcorp1 = state.range(0) == 1;
  const std::string path = std::string("/tmp/healer_bench_warmstart_") +
                           (hcorp1 ? "hcorp1" : "legacy") + ".bin";
  const std::vector<Prog> corpus = BuildCorpus(512);
  if (!(hcorp1 ? SaveProgs(path, corpus).ok()
               : WriteLegacyCorpus(path, corpus))) {
    state.SkipWithError("save failed");
    return;
  }
  for (auto _ : state) {
    Result<std::vector<Prog>> loaded =
        LoadProgs(path, BuiltinTarget(), nullptr);
    benchmark::DoNotOptimize(loaded.ok());
  }
}
BENCHMARK(BM_CorpusWarmStart)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// ---- hand-timed metrics for BENCH_hotpath.json ----

void WriteHotpathJson() {
  // Allocations per candidate program, heap vs arena, over the same draw
  // sequence (same seed → identical programs, so the division is fair).
  //
  // Timing uses interleaved min-estimation: short alternating blocks of the
  // two loops, keeping the per-loop minimum block time. A single long run
  // per loop makes the heap/arena ratio hostage to whichever run a scheduler
  // hiccup or frequency shift lands in (the committed baseline once recorded
  // arena "11% slower" that way); the min over interleaved blocks estimates
  // each loop's unperturbed cost under identical machine conditions.
  constexpr size_t kWarmup = 50;
  constexpr size_t kGenBlock = 100;
  constexpr size_t kGenRounds = 12;
  GenLoop heap_loop(false);
  GenLoop arena_loop(true);
  for (size_t i = 0; i < kWarmup; ++i) {
    heap_loop.Once();
    arena_loop.Once();
  }
  double gen_ns_heap = 1e18;
  double gen_ns_arena = 1e18;
  uint64_t heap_alloc_total = 0;
  uint64_t arena_alloc_total = 0;
  for (size_t round = 0; round < kGenRounds; ++round) {
    uint64_t mark = g_heap_allocs.load();
    const double heap_ns = TimeNs(kGenBlock, [&] { heap_loop.Once(); });
    heap_alloc_total += g_heap_allocs.load() - mark;
    mark = g_heap_allocs.load();
    const double arena_ns = TimeNs(kGenBlock, [&] { arena_loop.Once(); });
    arena_alloc_total += g_heap_allocs.load() - mark;
    if (heap_ns < gen_ns_heap) gen_ns_heap = heap_ns;
    if (arena_ns < gen_ns_arena) gen_ns_arena = arena_ns;
  }
  const double heap_allocs = static_cast<double>(heap_alloc_total) /
                             static_cast<double>(kGenBlock * kGenRounds);
  const double arena_allocs = static_cast<double>(arena_alloc_total) /
                              static_cast<double>(kGenBlock * kGenRounds);

  // Corpus warm start: 512 programs through each container. Decode cost is
  // shared; the delta is container I/O (per-entry freads + per-entry heap
  // buffers vs one mmap and in-place slices).
  const std::vector<Prog> corpus = BuildCorpus(512);
  const std::string legacy_path = "/tmp/healer_bench_warmstart_legacy.bin";
  const std::string hcorp_path = "/tmp/healer_bench_warmstart_hcorp1.bin";
  double warm_legacy_ms = 1e18;
  double warm_hcorp_ms = 1e18;
  if (WriteLegacyCorpus(legacy_path, corpus) &&
      SaveProgs(hcorp_path, corpus).ok()) {
    const auto load_ms = [](const std::string& path) {
      return TimeNs(1, [&] {
               Result<std::vector<Prog>> loaded =
                   LoadProgs(path, BuiltinTarget(), nullptr);
               benchmark::DoNotOptimize(loaded.ok());
             }) /
             1e6;
    };
    // Interleaved min, same rationale as the generation loops.
    for (int round = 0; round < 7; ++round) {
      const double legacy = load_ms(legacy_path);
      const double hcorp = load_ms(hcorp_path);
      if (legacy < warm_legacy_ms) warm_legacy_ms = legacy;
      if (hcorp < warm_hcorp_ms) warm_hcorp_ms = hcorp;
    }
  } else {
    warm_legacy_ms = 0.0;
    warm_hcorp_ms = 0.0;
  }

  bench::WriteBenchJson(
      "hotpath",
      {
          {"gen_allocs_per_prog_heap", heap_allocs},
          {"gen_allocs_per_prog_arena", arena_allocs},
          {"gen_alloc_reduction",
           arena_allocs > 0.0 ? heap_allocs / arena_allocs : 0.0},
          {"gen_ns_heap", gen_ns_heap},
          {"gen_ns_arena", gen_ns_arena},
          {"gen_time_ratio",
           gen_ns_heap > 0.0 ? gen_ns_arena / gen_ns_heap : 0.0},
          {"warmstart_legacy_ms", warm_legacy_ms},
          {"warmstart_hcorp1_ms", warm_hcorp_ms},
          {"warmstart_speedup",
           warm_hcorp_ms > 0.0 ? warm_legacy_ms / warm_hcorp_ms : 0.0},
      });
}

}  // namespace
}  // namespace healer

int main(int argc, char** argv) {
  // --json-only writes BENCH_hotpath.json without the registered
  // google-benchmark suite (the check.sh hotpath guard only needs the
  // hand-timed metrics); a plain run produces both.
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
    healer::WriteHotpathJson();
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!filtered) {
    healer::WriteHotpathJson();
  }
  return 0;
}
