// Sequence minimization (Algorithm 1).
//
// For each call that triggered new coverage (in reverse order, skipping
// calls already reserved by another minimal sequence), the minimizer takes
// the prefix ending at that call and greedily removes earlier calls,
// keeping a removal only when the target call's per-call coverage signal is
// preserved. The result is a set of independent, non-repetitive minimal
// sequences — the inputs to dynamic relation learning and the corpus.
//
// Every probe is a call mask over the program the fuzzing execution ran
// (MaskExecFn): the guest that already holds that program replays it with
// the masked calls skipped, so a probe ships a few bytes instead of a
// program (DESIGN.md §9). An ExecFn that runs whole programs still works:
// it is adapted by materializing each mask with SelectCalls.

#ifndef SRC_FUZZ_MINIMIZER_H_
#define SRC_FUZZ_MINIMIZER_H_

#include <functional>
#include <vector>

#include "src/exec/exec_result.h"
#include "src/prog/prog.h"
#include "src/prog/serialize.h"

namespace healer {

// Executes a program and returns per-call results. Implementations must not
// merge coverage into the campaign-global bitmap (minimization re-runs are
// analysis, not exploration).
using ExecFn = std::function<ExecResult(const Prog&)>;

// Executes the calls of `base` that `keep` marks, with the result of
// SelectCalls(base.prog(), keep). The same no-merge rule applies.
using MaskExecFn =
    std::function<ExecResult(const ProgImage& base, const CallMask& keep)>;

// The adapter behind the ExecFn constructors: materializes each mask and
// runs the selected program through `exec`.
MaskExecFn MaterializingExec(ExecFn exec);

struct MinimizedSeq {
  // The selected program, materialized once for the corpus.
  Prog prog;
  // Index of the new-coverage call within `prog`.
  size_t target_index = 0;
  // That call's coverage signal in the original execution.
  uint64_t target_signal = 0;
  // `prog` as a keep mask over the program Minimize was given.
  CallMask keep;
};

class Minimizer {
 public:
  explicit Minimizer(MaskExecFn exec) : exec_(std::move(exec)) {}
  explicit Minimizer(ExecFn exec)
      : Minimizer(MaterializingExec(std::move(exec))) {}

  // `baseline` must be the ExecResult of `image` with per-call new_edges
  // filled in (i.e. executed against the campaign-global bitmap).
  std::vector<MinimizedSeq> Minimize(const ProgImage& image,
                                     const ExecResult& baseline);
  std::vector<MinimizedSeq> Minimize(const Prog& prog,
                                     const ExecResult& baseline) {
    return Minimize(ProgImage(prog), baseline);
  }

  // Total executions spent in minimization since construction.
  uint64_t execs_used() const { return execs_used_; }

 private:
  MaskExecFn exec_;
  uint64_t execs_used_ = 0;
};

}  // namespace healer

#endif  // SRC_FUZZ_MINIMIZER_H_
