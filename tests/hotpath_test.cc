// Hot-path memory discipline (DESIGN.md §11): ProgArena unit behavior, the
// arena-vs-heap draw-identity property (same seed → byte-identical programs
// and identical coverage, whichever allocator backs the Arg nodes), and the
// HCORP1 mmap-able corpus container round trip.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/base/bitmap.h"
#include "src/base/rng.h"
#include "src/exec/executor.h"
#include "src/fuzz/corpus_io.h"
#include "src/fuzz/prog_builder.h"
#include "src/kernel/coverage.h"
#include "src/prog/arena.h"
#include "src/prog/prog.h"
#include "src/prog/serialize.h"
#include "src/syzlang/builtin_descs.h"

namespace healer {
namespace {

std::vector<int> AllIds() {
  std::vector<int> ids;
  for (const auto& call : BuiltinTarget().syscalls()) {
    ids.push_back(call->id);
  }
  return ids;
}

// ---- ProgArena ----

TEST(ProgArenaTest, AllocationsAreAligned) {
  ProgArena arena;
  for (size_t align : {1, 2, 8, 16, 64}) {
    void* p = arena.Allocate(3, align);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u) << align;
  }
  EXPECT_GE(arena.bytes_allocated(), 5 * 3u);
  EXPECT_EQ(arena.chunk_count(), 1u);
}

TEST(ProgArenaTest, ChunksGrowMonotonically) {
  ProgArena arena;
  arena.Allocate(1, 1);
  EXPECT_EQ(arena.bytes_reserved(), ProgArena::kInitialChunkBytes);
  // Exhaust the first chunk; the arena must add chunks, never move old ones.
  void* first = arena.Allocate(64, 8);
  size_t total = ProgArena::kInitialChunkBytes;
  while (arena.chunk_count() < 3) {
    arena.Allocate(1024, 8);
    total += 1024;
  }
  EXPECT_GE(arena.bytes_reserved(), total);
  // The early allocation is still addressable (write through it).
  std::memset(first, 0xab, 64);
  // An allocation larger than any chunk cap still succeeds.
  void* big = arena.Allocate(ProgArena::kMaxChunkBytes + 512, 16);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0, ProgArena::kMaxChunkBytes + 512);
}

TEST(ProgArenaTest, ResetRetainsChunksAndReusesStorage) {
  ProgArena arena;
  void* first = arena.Allocate(256, 16);
  for (int i = 0; i < 1000; ++i) {
    arena.Allocate(64, 8);
  }
  const size_t reserved = arena.bytes_reserved();
  const size_t chunks = arena.chunk_count();
  arena.Reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
  EXPECT_EQ(arena.chunk_count(), chunks);
  EXPECT_EQ(arena.reset_count(), 1u);
  // Steady state: the same allocation pattern reuses the same storage and
  // adds no chunks — the "zero mallocs per iteration" property the fuzzer
  // hot loop relies on.
  EXPECT_EQ(arena.Allocate(256, 16), first);
  for (int i = 0; i < 1000; ++i) {
    arena.Allocate(64, 8);
  }
  EXPECT_EQ(arena.bytes_reserved(), reserved);
  EXPECT_EQ(arena.chunk_count(), chunks);
}

TEST(ProgArenaTest, FactoriesTagArenaOwnership) {
  ProgArena arena;
  const Type* type = BuiltinTarget().syscalls().front()->args.empty()
                         ? nullptr
                         : BuiltinTarget().syscalls().front()->args[0].type;
  ArgPtr heap_arg = MakeConstant(type, 7);
  EXPECT_FALSE(heap_arg->arena_owned);
  ArgPtr arena_arg = MakeConstant(type, 7, &arena);
  EXPECT_TRUE(arena_arg->arena_owned);
  EXPECT_GE(arena.bytes_allocated(), sizeof(Arg));
  // Dropping an arena-backed node with heap members (data vector) must free
  // them via ~Arg() — ASan in check.sh verifies no leak here.
  ArgPtr data_arg =
      MakeData(type, std::vector<uint8_t>(1024, 0x5a), &arena);
  EXPECT_TRUE(data_arg->arena_owned);
  data_arg.reset();
  arena.Reset();
}

// ---- arena-vs-heap equivalence ----

// Runs the generate/mutate loop twice from the same seed — once heap-backed,
// once arena-backed with a per-iteration Reset — and requires byte-identical
// serializations plus identical executor coverage. This is the property that
// lets the fuzzers switch allocators without perturbing a single draw.
TEST(ArenaHeapEquivalenceTest, SameSeedSameProgramsSameCoverage) {
  const Target& target = BuiltinTarget();
  const std::vector<int> ids = AllIds();

  Rng heap_rng(20260808);
  Rng arena_rng(20260808);
  ProgBuilder heap_builder(target, ids, &heap_rng);
  ProgBuilder arena_builder(target, ids, &arena_rng);
  ProgArena arena;
  arena_builder.set_arena(&arena);

  const auto heap_choose = [&](const std::vector<int>&) {
    return ids[heap_rng.Below(ids.size())];
  };
  const auto arena_choose = [&](const std::vector<int>&) {
    return ids[arena_rng.Below(ids.size())];
  };

  Executor heap_exec(target, KernelConfig::ForVersion(KernelVersion::kV5_11));
  Executor arena_exec(target, KernelConfig::ForVersion(KernelVersion::kV5_11));
  Bitmap heap_cov(CallCoverage::kMapBits);
  Bitmap arena_cov(CallCoverage::kMapBits);

  for (int iter = 0; iter < 60; ++iter) {
    arena.Reset();  // Mirrors Fuzzer::Step / parallel Worker::Run.
    Prog heap_prog = heap_builder.Generate(heap_choose, 2 + iter % 5);
    Prog arena_prog = arena_builder.Generate(arena_choose, 2 + iter % 5);
    if (iter % 3 == 1) {
      heap_builder.MutateArgs(&heap_prog);
      arena_builder.MutateArgs(&arena_prog);
    } else if (iter % 3 == 2) {
      heap_builder.MutateInsert(&heap_prog, heap_choose);
      arena_builder.MutateInsert(&arena_prog, arena_choose);
    }
    ASSERT_EQ(SerializeProg(heap_prog), SerializeProg(arena_prog))
        << "draw divergence at iteration " << iter;
    heap_exec.Run(heap_prog, &heap_cov);
    arena_exec.Run(arena_prog, &arena_cov);
  }
  EXPECT_EQ(heap_cov.Count(), arena_cov.Count());
  EXPECT_EQ(heap_cov.Hash(), arena_cov.Hash());
  // Both RNGs must have consumed exactly the same stream.
  EXPECT_EQ(heap_rng.Next(), arena_rng.Next());
}

TEST(ArenaHeapEquivalenceTest, HeapCloneSurvivesArenaReset) {
  const Target& target = BuiltinTarget();
  const std::vector<int> ids = AllIds();
  Rng rng(4242);
  ProgBuilder builder(target, ids, &rng);
  ProgArena arena;
  builder.set_arena(&arena);
  const auto choose = [&](const std::vector<int>&) {
    return ids[rng.Below(ids.size())];
  };
  Prog candidate = builder.Generate(choose, 6);
  const std::vector<uint8_t> bytes = SerializeProg(candidate);

  // Corpus admission path: deep-copy to heap before the arena rewinds.
  Prog survivor = candidate.Clone();
  for (const Call& call : survivor.calls()) {
    ForEachArg(call, [](const Arg& arg) { EXPECT_FALSE(arg.arena_owned); });
  }
  candidate = Prog();  // Drop arena-backed nodes before invalidating them.
  arena.Reset();
  // Scribble over the arena so dangling pointers would be caught loudly.
  for (int i = 0; i < 4096; ++i) {
    arena.Allocate(16, 8);
  }
  EXPECT_EQ(SerializeProg(survivor), bytes);
  EXPECT_TRUE(survivor.Validate().ok());
}

TEST(ArenaHeapEquivalenceTest, CloneIntoArenaMatchesHeapClone) {
  const Target& target = BuiltinTarget();
  const std::vector<int> ids = AllIds();
  Rng rng(99);
  ProgBuilder builder(target, ids, &rng);
  const auto choose = [&](const std::vector<int>&) {
    return ids[rng.Below(ids.size())];
  };
  const Prog original = builder.Generate(choose, 8);
  ProgArena arena;
  Prog arena_copy = original.CloneInto(&arena);
  EXPECT_EQ(SerializeProg(arena_copy), SerializeProg(original));
  size_t arena_nodes = 0;
  for (const Call& call : arena_copy.calls()) {
    ForEachArg(call, [&](const Arg& arg) {
      EXPECT_TRUE(arg.arena_owned);
      ++arena_nodes;
    });
  }
  EXPECT_GT(arena_nodes, 0u);
  arena_copy = Prog();
  arena.Reset();
}

// ---- HCORP1 round trip ----

std::vector<Prog> SampleCorpus(size_t count, uint64_t seed) {
  const Target& target = BuiltinTarget();
  const std::vector<int> ids = AllIds();
  Rng rng(seed);
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

std::vector<std::vector<uint8_t>> Serialized(const std::vector<Prog>& progs) {
  std::vector<std::vector<uint8_t>> out;
  out.reserve(progs.size());
  for (const Prog& prog : progs) {
    out.push_back(SerializeProg(prog));
  }
  return out;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::vector<uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return bytes;
  }
  std::fseek(f, 0, SEEK_END);
  bytes.resize(static_cast<size_t>(std::ftell(f)));
  std::rewind(f);
  if (!bytes.empty() && std::fread(bytes.data(), bytes.size(), 1, f) != 1) {
    bytes.clear();
  }
  std::fclose(f);
  return bytes;
}

TEST(Hcorp1Test, RoundTripsByteIdentically) {
  const std::vector<Prog> corpus = SampleCorpus(24, 7);
  const std::string path = "/tmp/healer_hcorp1_roundtrip.bin";
  ASSERT_TRUE(SaveProgs(path, corpus).ok());

  size_t skipped = 77;
  Result<std::vector<Prog>> loaded =
      LoadProgs(path, BuiltinTarget(), &skipped);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(skipped, 0u);
  ASSERT_EQ(loaded->size(), corpus.size());
  EXPECT_EQ(Serialized(*loaded), Serialized(corpus));

  // Re-saving the loaded corpus reproduces the file byte for byte — the
  // container is a deterministic function of the program sequence.
  const std::string path2 = "/tmp/healer_hcorp1_roundtrip2.bin";
  ASSERT_TRUE(SaveProgs(path2, *loaded).ok());
  EXPECT_EQ(ReadFileBytes(path), ReadFileBytes(path2));
}

TEST(Hcorp1Test, HeaderIsPageAlignedAndChecksummed) {
  const std::vector<Prog> corpus = SampleCorpus(10, 11);
  const std::string path = "/tmp/healer_hcorp1_header.bin";
  ASSERT_TRUE(SaveProgs(path, corpus).ok());
  const std::vector<uint8_t> bytes = ReadFileBytes(path);
  ASSERT_GE(bytes.size(), 64u);
  EXPECT_EQ(std::memcmp(bytes.data(), "HCORP1\n\0", 8), 0);
  uint64_t count;
  uint64_t payload_off;
  std::memcpy(&count, bytes.data() + 16, 8);
  std::memcpy(&payload_off, bytes.data() + 32, 8);
  EXPECT_EQ(count, corpus.size());
  EXPECT_EQ(payload_off % 4096, 0u);
  EXPECT_GE(bytes.size(), payload_off);
}

TEST(Hcorp1Test, AutoDetectionLoadsBothFormatsIdentically) {
  const std::vector<Prog> corpus = SampleCorpus(16, 23);
  const std::string legacy_path = "/tmp/healer_corpus_fmt_legacy.bin";
  const std::string hcorp_path = "/tmp/healer_corpus_fmt_hcorp1.bin";
  // The legacy HCOR stream is only read now, so the test writes it: magic,
  // u32 count, then per program u32 length + SerializeProg bytes.
  std::vector<uint8_t> legacy = {'H', 'C', 'O', 'R'};
  const auto put_u32 = [&legacy](size_t v) {
    for (int i = 0; i < 4; ++i) {
      legacy.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  put_u32(corpus.size());
  for (const std::vector<uint8_t>& blob : Serialized(corpus)) {
    put_u32(blob.size());
    legacy.insert(legacy.end(), blob.begin(), blob.end());
  }
  std::FILE* f = std::fopen(legacy_path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(legacy.data(), legacy.size(), 1, f), 1u);
  std::fclose(f);
  ASSERT_TRUE(SaveProgs(hcorp_path, corpus).ok());
  // Same LoadProgs call, no format hint: the magic probe must route each
  // file to its decoder.
  Result<std::vector<Prog>> from_legacy =
      LoadProgs(legacy_path, BuiltinTarget(), nullptr);
  Result<std::vector<Prog>> from_hcorp =
      LoadProgs(hcorp_path, BuiltinTarget(), nullptr);
  ASSERT_TRUE(from_legacy.ok()) << from_legacy.status().ToString();
  ASSERT_TRUE(from_hcorp.ok()) << from_hcorp.status().ToString();
  EXPECT_EQ(Serialized(*from_legacy), Serialized(*from_hcorp));
  EXPECT_EQ(Serialized(*from_hcorp), Serialized(corpus));
}

TEST(Hcorp1Test, EmptyCorpusRoundTrips) {
  const std::string path = "/tmp/healer_hcorp1_empty.bin";
  ASSERT_TRUE(SaveProgs(path, {}).ok());
  Result<std::vector<Prog>> loaded =
      LoadProgs(path, BuiltinTarget(), nullptr);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->empty());
}

}  // namespace
}  // namespace healer
