#include "src/fuzz/repro.h"

namespace healer {

std::optional<CrashRepro> CrashReproducer::Minimize(const ProgImage& image,
                                                    BugId bug) {
  const size_t len = image.prog().size();
  CallMask keep(len, 1);
  uint64_t execs = 0;

  auto crashes_same = [&](const CallMask& candidate) {
    ++execs;
    const ExecResult result = exec_(image, candidate);
    return result.Crashed() && result.crash->bug == bug;
  };

  if (!crashes_same(keep)) {
    return std::nullopt;
  }

  // Drop the tail after the crashing call: re-execute to find the crash
  // index, then truncate.
  {
    ++execs;
    const ExecResult result = exec_(image, keep);
    if (result.Crashed()) {
      for (size_t i = result.crash->call_index + 1; i < len; ++i) {
        keep[i] = 0;
      }
    }
  }

  // Greedy removal passes until a fixpoint: try each call kept at the start
  // of the pass, from the back (keeping the final, crashing call).
  bool changed = true;
  while (changed) {
    std::vector<size_t> kept;
    for (size_t i = 0; i < len; ++i) {
      if (keep[i] != 0) {
        kept.push_back(i);
      }
    }
    if (kept.size() <= 1) {
      break;
    }
    changed = false;
    for (size_t k = kept.size() - 1; k-- > 0;) {
      keep[kept[k]] = 0;
      if (crashes_same(keep)) {
        changed = true;
      } else {
        keep[kept[k]] = 1;
      }
    }
  }
  return CrashRepro{SelectCalls(image.prog(), keep), bug, execs};
}

}  // namespace healer
