// KCOV-style coverage collection for the simulated kernel.
//
// Every instrumented point in a syscall handler calls KCOV_BLOCK(kernel),
// which derives a stable 32-bit basic-block id from (file, line) and feeds
// it to the active CallCoverage. Like KCOV's remote coverage mode, the
// executor arms a fresh CallCoverage before issuing each call, so the fuzzer
// receives *per-call* edge sets — the granularity HEALER's minimization and
// dynamic relation learning require.
//
// Edges are (previous block, block) pairs hashed into a 2^16-slot space,
// mirroring AFL/syzkaller branch signal.
//
// The per-call map is an 8 KiB bitmap, and the slots a call touches are
// also kept in a dense vector in first-hit order. The campaign merge walks
// only those slots (typically dozens) instead of the whole map, and arming
// the next call (Reset) clears only their words, so neither costs map-size
// work.

#ifndef SRC_KERNEL_COVERAGE_H_
#define SRC_KERNEL_COVERAGE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/base/hash.h"

namespace healer {

// Stable basic-block id for an instrumentation site. Computed once per site
// via a function-local static in the KCOV_BLOCK macro.
inline uint32_t MakeCovSiteId(const char* file, int line) {
  return static_cast<uint32_t>(
      Mix64(Fnv1a(file) ^ (static_cast<uint64_t>(line) * 0x9e3779b1ULL)));
}

// Edge-coverage sink for one executed syscall.
class CallCoverage {
 public:
  static constexpr size_t kMapBits = 1 << 16;

  CallCoverage() { slots_.reserve(256); }

  // Begins collection for a new call, clearing the words of the slots the
  // last one hit: O(edges hit), not O(map).
  void Reset() {
    for (const uint32_t slot : slots_) {
      bits_[slot >> 6] = 0;
    }
    slots_.clear();
    prev_block_ = 0;
    signal_ = 0xcbf29ce484222325ULL;
  }

  // Records the transition prev -> block.
  void HitBlock(uint32_t block) {
    const uint64_t edge = Mix64((static_cast<uint64_t>(prev_block_) << 32) |
                                static_cast<uint64_t>(block));
    const uint32_t slot = static_cast<uint32_t>(edge & (kMapBits - 1));
    uint64_t& word = bits_[slot >> 6];
    const uint64_t bit = uint64_t{1} << (slot & 63);
    if ((word & bit) == 0) {
      word |= bit;
      slots_.push_back(slot);
    }
    // Order-independent accumulator so equal edge sets hash equal.
    signal_ += Mix64(edge);
    prev_block_ = block;
  }

  // Distinct edge slots hit since the last Reset, in first-hit order.
  const std::vector<uint32_t>& slots() const { return slots_; }
  size_t NumEdges() const { return slots_.size(); }

  // Cheap content hash of the edge multiset; used by the dynamic learner to
  // detect "coverage of this call changed".
  uint64_t signal() const { return signal_; }

 private:
  std::array<uint64_t, kMapBits / 64> bits_{};
  std::vector<uint32_t> slots_;
  uint32_t prev_block_ = 0;
  uint64_t signal_ = 0;
};

}  // namespace healer

// Marks an instrumented basic block inside a syscall handler. `k` is the
// Kernel (or anything with CovHit(uint32_t)).
#define KCOV_BLOCK(k)                                                       \
  do {                                                                      \
    static const uint32_t _healer_cov_id =                                  \
        ::healer::MakeCovSiteId(__FILE__, __LINE__);                        \
    (k).CovHit(_healer_cov_id);                                             \
  } while (0)

// Marks a *state-indexed* block: the same site reached under different
// kernel-state signatures counts as different basic blocks, modelling the
// state-dependent control flow deep kernel code has (switch ladders,
// per-mode paths, cache-state fast/slow paths). Reaching new values of
// `state` requires setting up kernel state with earlier calls — the kind of
// coverage only stateful call sequences unlock. `state` is truncated to 8
// bits to keep the per-site block population bounded.
#define KCOV_STATE(k, state)                                                \
  do {                                                                      \
    static const uint32_t _healer_cov_site =                                \
        ::healer::MakeCovSiteId(__FILE__, __LINE__);                        \
    (k).CovHit(_healer_cov_site ^                                           \
               static_cast<uint32_t>(::healer::Mix64(                       \
                   static_cast<uint64_t>(state) & 0xff)));                  \
  } while (0)

#endif  // SRC_KERNEL_COVERAGE_H_
