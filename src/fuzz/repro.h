// Crash reproduction (Section 4): "HEALER's crash reproduction component
// will try to extract the smallest test case that can trigger the crash".
//
// Greedy delta-debugging over the crashing program: repeatedly remove calls
// whose removal preserves the *same* bug id, then canonicalize. The result
// is the shortest reproducer the fuzzer reports (Table 4's "Length to
// Reproduce" column). Every candidate is a call mask over the crashing
// program (see minimizer.h); the reproducer is materialized once.

#ifndef SRC_FUZZ_REPRO_H_
#define SRC_FUZZ_REPRO_H_

#include <optional>

#include "src/fuzz/minimizer.h"

namespace healer {

struct CrashRepro {
  Prog prog;
  BugId bug;
  // Executions spent minimizing.
  uint64_t execs = 0;
};

class CrashReproducer {
 public:
  explicit CrashReproducer(MaskExecFn exec) : exec_(std::move(exec)) {}
  explicit CrashReproducer(ExecFn exec)
      : CrashReproducer(MaterializingExec(std::move(exec))) {}

  // Minimizes `image` (which crashed with `bug`) to a smallest program that
  // still triggers the same bug. Returns nullopt if the crash does not
  // reproduce at all (flaky in a real kernel; impossible in SimKernel
  // unless the program was already altered).
  std::optional<CrashRepro> Minimize(const ProgImage& image, BugId bug);
  std::optional<CrashRepro> Minimize(const Prog& prog, BugId bug) {
    return Minimize(ProgImage(prog), bug);
  }

 private:
  MaskExecFn exec_;
};

}  // namespace healer

#endif  // SRC_FUZZ_REPRO_H_
