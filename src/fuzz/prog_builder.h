// Program construction: sequence synthesis and mutation (Section 4.2).
//
// Call selection is pluggable (relation-guided for HEALER, choice-table for
// the Syzkaller baseline, uniform for HEALER-), while resource-producer
// insertion and parameter synthesis are shared across tools — exactly the
// experimental control the paper's ablation needs.

#ifndef SRC_FUZZ_PROG_BUILDER_H_
#define SRC_FUZZ_PROG_BUILDER_H_

#include <functional>
#include <vector>

#include "src/fuzz/arg_gen.h"
#include "src/prog/prog.h"

namespace healer {

// Chooses the syscall to place after `prefix` (syscall ids of the calls
// before the insertion point).
using CallChooser = std::function<int(const std::vector<int>& prefix)>;

class ProgBuilder {
 public:
  static constexpr size_t kMaxProgLen = 24;
  static constexpr int kMaxProducerDepth = 4;

  ProgBuilder(const Target& target, std::vector<int> enabled, Rng* rng);

  // Appends the call (and, recursively, producers for its unmet resource
  // needs) to `prog`. Returns the number of calls appended.
  size_t AppendCall(Prog* prog, int syscall_id, int depth = 0);

  // Generates a program of roughly `target_len` calls: seeds with a random
  // producer/consumer pair, then extends via `choose`.
  Prog Generate(const CallChooser& choose, size_t target_len);

  // Inserts a new call (chosen by `choose` from the preceding sub-sequence)
  // at a random position of `prog`. Returns false if the program is full.
  bool MutateInsert(Prog* prog, const CallChooser& choose);

  // Mutates the arguments of 1-3 random calls in place.
  bool MutateArgs(Prog* prog);

  // Arg nodes built by Generate/MutateInsert/MutateArgs go into `arena`
  // (nullptr → heap). The owner resets the arena between fuzzing
  // iterations; programs handed out must not outlive that reset unless
  // serialized or re-cloned to heap (Prog::Clone()).
  void set_arena(ProgArena* arena);
  ProgArena* arena() const { return arena_; }

  const std::vector<int>& enabled() const { return enabled_; }

 private:
  ResourcePool PoolFor(const Prog& prog, size_t upto) const;
  // Clear-and-refill variant reusing `pool`'s storage (recursion-safe:
  // every AppendCall frame owns its own pool).
  void PoolInto(const Prog& prog, size_t upto, ResourcePool* pool) const;

  const Target& target_;
  std::vector<int> enabled_;
  std::vector<uint8_t> enabled_mask_;
  Rng* rng_;
  ProgArena* arena_ = nullptr;
  ArgGenerator gen_;
  ArgMutator mutator_;
  // Precomputed result slots per syscall id; PoolInto borrows these instead
  // of re-walking argument trees on every refill.
  ResultSlotTable slot_table_;
  // Reused prefix buffer for CallChooser invocations (Generate/MutateInsert
  // never nest).
  std::vector<int> prefix_scratch_;
  // Per-recursion-depth scratch for AppendCall (depth is bounded by
  // kMaxProducerDepth, so each frame owns a fixed slot and storage is
  // reused across calls instead of reallocated per frame).
  struct FrameScratch {
    ResourcePool pool;
    std::vector<ResourcePool::Producer> found;
    std::vector<int> producers;
  };
  FrameScratch frames_[kMaxProducerDepth + 1];
  // Seed-phase candidate buffers for Generate (never live across a nested
  // builder call).
  std::vector<int> seed_producers_;
  std::vector<int> seed_consumers_;
  // MutateArgs pool storage, refilled per round.
  ResourcePool mutate_pool_scratch_;
};

}  // namespace healer

#endif  // SRC_FUZZ_PROG_BUILDER_H_
