// Execution results: per-call return values, coverage signals and crash
// reports — exactly the feedback HEALER's algorithms consume.

#ifndef SRC_EXEC_EXEC_RESULT_H_
#define SRC_EXEC_EXEC_RESULT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/kernel/bugs.h"

namespace healer {

struct CallExecInfo {
  bool executed = false;
  int64_t retval = 0;
  // Order-independent hash of the call's edge set; equal hashes mean "same
  // coverage" for the minimizer and dynamic learner.
  uint64_t signal = 0;
  // Number of edges this call contributed that the campaign-global bitmap
  // had never seen (0 when no global bitmap was supplied).
  uint32_t new_edges = 0;
  // Total edges this call touched.
  uint32_t num_edges = 0;
  // Result-slot values this call produced (slot -> value), parallel to
  // ResultSlotsOf(call.meta).
  std::vector<uint64_t> slot_values;

  bool operator==(const CallExecInfo& other) const = default;
};

struct CrashInfo {
  BugId bug;
  std::string title;
  // Index of the crashing call within the program.
  size_t call_index = 0;

  bool operator==(const CrashInfo& other) const = default;
};

// Infrastructure failure of an execution attempt, as opposed to a guest
// kernel crash (CrashInfo), which is a fuzzing result. A failed execution
// carries no usable feedback: its calls are empty, nothing was merged into
// the global coverage bitmap, and the fuzzer's recovery policy decides
// whether to retry or discard the program.
enum class ExecFailure : uint8_t {
  kNone = 0,
  kVmLost,          // The VM died mid-program.
  kTimeout,         // The executor hung; the watchdog gave up waiting.
  kCorruptedReply,  // The wire bytes were damaged in transit.
  kBootFailure,     // The VM failed to (re)boot.
  // Channel failures (the names date from an earlier ring transport; the
  // values and names stay fixed so faulted journals keep their meaning).
  kRingSetup,       // The channel could not be set up for the request.
  kRingTorn,        // The request was torn in the shm region.
  kRingStall,       // The reply never arrived; the watchdog gave up.
};

inline const char* ExecFailureName(ExecFailure failure) {
  switch (failure) {
    case ExecFailure::kNone:
      return "none";
    case ExecFailure::kVmLost:
      return "vm-lost";
    case ExecFailure::kTimeout:
      return "timeout";
    case ExecFailure::kCorruptedReply:
      return "corrupted-reply";
    case ExecFailure::kBootFailure:
      return "boot-failure";
    case ExecFailure::kRingSetup:
      return "ring-setup";
    case ExecFailure::kRingTorn:
      return "ring-torn";
    case ExecFailure::kRingStall:
      return "ring-stall";
  }
  return "?";
}

struct ExecResult {
  std::vector<CallExecInfo> calls;
  std::optional<CrashInfo> crash;
  ExecFailure failure = ExecFailure::kNone;

  bool operator==(const ExecResult& other) const = default;

  bool Crashed() const { return crash.has_value(); }
  bool Failed() const { return failure != ExecFailure::kNone; }
  uint32_t TotalNewEdges() const {
    uint32_t total = 0;
    for (const auto& call : calls) {
      total += call.new_edges;
    }
    return total;
  }
};

}  // namespace healer

#endif  // SRC_EXEC_EXEC_RESULT_H_
