// Guided call selection (Algorithm 3) with the adaptive exploitation
// parameter α: with probability 1-α a call is picked uniformly at random;
// otherwise candidates are weighted by how many calls of the preceding
// sub-sequence influence them according to the relation table. α is
// re-estimated every 1024 executed test cases from the relative
// new-coverage return of table-guided vs random selections.
//
// Select runs against the table's immutable RelationSnapshot (CSR rows):
// the steady-state hot path performs no mutex acquisition (one relaxed
// epoch probe per pick) and no heap allocation (the candidate accumulator
// is a flat epoch-stamped count array, and the pick buffers are reserved
// once in the constructor). Candidates are ranked in ascending syscall-id
// order, so picks are draw-for-draw identical to the original
// std::map-based implementation.

#ifndef SRC_FUZZ_CALL_SELECTOR_H_
#define SRC_FUZZ_CALL_SELECTOR_H_

#include <memory>
#include <vector>

#include "src/base/rng.h"
#include "src/fuzz/relation_table.h"

namespace healer {

class AlphaSchedule {
 public:
  static constexpr uint64_t kWindow = 1024;
  static constexpr double kInitial = 0.5;
  static constexpr double kMin = 0.2;
  static constexpr double kMax = 0.95;

  double alpha() const { return alpha_; }

  // Records the outcome of one executed test case: whether its call
  // selection used the relation table, and whether it yielded new coverage.
  void Record(bool used_table, bool gained_coverage);

  uint64_t updates() const { return updates_; }

 private:
  double alpha_ = kInitial;
  uint64_t execs_in_window_ = 0;
  uint64_t table_execs_ = 0;
  uint64_t table_gains_ = 0;
  uint64_t random_execs_ = 0;
  uint64_t random_gains_ = 0;
  uint64_t updates_ = 0;
};

class CallSelector {
 public:
  // `enabled` lists the syscall ids available in the kernel under test.
  CallSelector(const RelationTable* table, std::vector<int> enabled,
               Rng* rng);

  // Algorithm 3: selects the call to place after sub-sequence `prefix`
  // (syscall ids). Sets *used_table to whether the relation table drove the
  // pick (feeds the α schedule). When `alpha` < rand or no candidate has a
  // relation, falls back to a uniformly random enabled call.
  int Select(const std::vector<int>& prefix, double alpha, bool* used_table);

  // Uniformly random enabled call.
  int RandomCall();

 private:
  // Cached snapshot, refreshed only when the table's epoch moved.
  const RelationSnapshot& Snap();

  const RelationTable* table_;
  std::vector<int> enabled_;
  std::vector<uint8_t> enabled_mask_;
  Rng* rng_;

  std::shared_ptr<const RelationSnapshot> snapshot_;
  uint64_t snapshot_epoch_ = ~0ULL;

  // Flat epoch-stamped candidate accumulator: cand_count_[j] is valid iff
  // cand_stamp_[j] == pick_epoch_, so arming a new pick is one increment
  // instead of a map rebuild.
  std::vector<uint32_t> cand_count_;
  std::vector<uint64_t> cand_stamp_;
  uint64_t pick_epoch_ = 0;
  std::vector<int> cand_calls_;
  std::vector<uint64_t> cand_weights_;
};

}  // namespace healer

#endif  // SRC_FUZZ_CALL_SELECTOR_H_
