#include "src/fuzz/minimizer.h"

#include <algorithm>

namespace healer {

MaskExecFn MaterializingExec(ExecFn exec) {
  return [exec = std::move(exec)](const ProgImage& base,
                                  const CallMask& keep) {
    return exec(SelectCalls(base.prog(), keep));
  };
}

std::vector<MinimizedSeq> Minimizer::Minimize(const ProgImage& image,
                                              const ExecResult& baseline) {
  std::vector<MinimizedSeq> out;
  const Prog& prog = image.prog();
  const size_t len = prog.size();
  if (len == 0 || baseline.calls.size() < len) {
    return out;
  }
  std::vector<bool> reserved(len, false);

  // Lines 3-7: extract a subsequence for each new-coverage call, in reverse
  // order, skipping calls already included in another minimal sequence.
  for (size_t ii = len; ii-- > 0;) {
    if (reserved[ii] || baseline.calls[ii].new_edges == 0) {
      continue;
    }
    reserved[ii] = true;
    const uint64_t target_signal = baseline.calls[ii].signal;

    // The prefix ending at the target; calls after it stay dropped.
    CallMask keep(len, 0);
    std::fill(keep.begin(), keep.begin() + static_cast<long>(ii) + 1, 1);
    size_t last = ii;  // Target call's index among the kept calls.

    // Lines 9-17: try removing each call before the target.
    for (size_t jj = ii; jj-- > 0;) {
      keep[jj] = 0;
      ++execs_used_;
      const ExecResult res = exec_(image, keep);
      const size_t cand_last = last - 1;
      // A faulted probe is treated as "coverage not preserved": the call is
      // conservatively kept rather than trusting a failed execution.
      const bool preserved =
          !res.Failed() && cand_last < res.calls.size() &&
          res.calls[cand_last].executed &&
          res.calls[cand_last].signal == target_signal;
      if (preserved) {
        last = cand_last;
      } else {
        // The call is load-bearing: reserve it so it isn't re-extracted as
        // its own minimal sequence.
        keep[jj] = 1;
        reserved[jj] = true;
      }
    }
    out.push_back(MinimizedSeq{SelectCalls(prog, keep), last, target_signal,
                               std::move(keep)});
  }
  return out;
}

}  // namespace healer
