// Dynamic relation learning (Algorithm 2).
//
// For each pair of *consecutive* calls (C_i, C_j) of a minimized sequence
// whose relation is still unknown, C_i is removed and the modified program
// re-executed; a change in C_j's per-call coverage proves the influence
// relation and sets R[i][j] = 1. Only adjacent pairs are analyzed, since a
// coverage change after removing a non-adjacent call could be an indirect
// effect (Section 4.1).
//
// Learned edges are produced as a RelationDelta: LearnInto() appends edges
// to a caller-owned delta without touching the table (the parallel fuzzer
// flushes worker deltas through its batched publish), while Learn() is the
// single-threaded convenience that applies the delta immediately. Known
// pairs are skipped by consulting the table's immutable snapshot plus the
// pending delta — the learner never takes the table's write lock to read.
//
// The minimized sequence is a keep mask over the program the fuzzing
// execution ran, and every probe is that mask with one more call dropped
// (see minimizer.h); a sequence given as a plain Prog is its own all-kept
// base.

#ifndef SRC_FUZZ_LEARNER_H_
#define SRC_FUZZ_LEARNER_H_

#include "src/base/sim_clock.h"
#include "src/fuzz/minimizer.h"
#include "src/fuzz/relation_table.h"

namespace healer {

class DynamicLearner {
 public:
  DynamicLearner(RelationTable* table, MaskExecFn exec, const SimClock* clock)
      : table_(table), exec_(std::move(exec)), clock_(clock) {}
  DynamicLearner(RelationTable* table, ExecFn exec, const SimClock* clock)
      : DynamicLearner(table, MaterializingExec(std::move(exec)), clock) {}

  // Runs Algorithm 2 on one minimized sequence and applies the resulting
  // delta to the table; returns the number of new relations learned.
  size_t Learn(const Prog& minimized);

  // Runs Algorithm 2 but accumulates the learned edges into `delta` instead
  // of writing the table; returns the number of edges added to the delta.
  // Pairs already in the snapshot or in `delta` are not re-probed, so a
  // worker's batch never pays twice for the same pair.
  size_t LearnInto(const Prog& minimized, RelationDelta* delta);
  // The same for the sequence `keep` selects from `base`.
  size_t LearnInto(const ProgImage& base, const CallMask& keep,
                   RelationDelta* delta);

  uint64_t execs_used() const { return execs_used_; }

 private:
  RelationTable* table_;
  MaskExecFn exec_;
  const SimClock* clock_;
  uint64_t execs_used_ = 0;
};

}  // namespace healer

#endif  // SRC_FUZZ_LEARNER_H_
