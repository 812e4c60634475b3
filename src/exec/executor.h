// Executor: the in-guest agent. Decodes wire-format programs, lays argument
// data out in guest memory, issues each call to the SimKernel with per-call
// KCOV collection, resolves resource references, and extracts out-parameter
// resource values.
//
// A fresh Kernel is booted per program (the paper's executor forks per test
// case for isolation; a fresh kernel object is the simulator equivalent and
// keeps programs independent and deterministic).
//
// The last program the executor decoded stays resident as its image, in an
// executor-owned ProgArena that is reset only when the next image arrives.
// A call-mask request replays the image without re-decoding it: dropped
// calls are skipped, and a reference to a dropped producer resolves to its
// special value, exactly as Prog::RemoveCall's fixup would (DESIGN.md §9).

#ifndef SRC_EXEC_EXECUTOR_H_
#define SRC_EXEC_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/bitmap.h"
#include "src/exec/exec_result.h"
#include "src/kernel/kernel.h"
#include "src/prog/arena.h"
#include "src/prog/prog.h"
#include "src/prog/serialize.h"
#include "src/prog/slots.h"

namespace healer {

class Executor {
 public:
  // `target` must outlive the executor. The handler table is resolved once:
  // syscall id -> SyscallDef (nullptr => ENOSYS in the configured kernel).
  Executor(const Target& target, const KernelConfig& config);

  // Runs `prog` against a fresh kernel. If `global_coverage` is non-null,
  // per-call edges are merged into it and CallExecInfo::new_edges reports
  // the fresh ones; pass nullptr for side-effect-free runs (minimization).
  ExecResult Run(const Prog& prog, Bitmap* global_coverage);

  // Wire-format entry point used by the VM transport. `data` is either a
  // program (SerializeProg bytes), which becomes the resident image and
  // runs in full, or a call-mask request (EncodeMaskRequest), which replays
  // the resident image — or the image it carries — under its mask. A
  // request that fails to decode or names another image yields an empty
  // result (all calls unexecuted) and drops the resident image.
  ExecResult RunSerialized(const uint8_t* data, size_t size,
                           Bitmap* global_coverage);

  // Forgets the resident image (the guest restarted or the transfer was
  // corrupted); the next mask request must carry its image again.
  void DropImage();
  bool has_image() const { return has_image_; }
  uint64_t image_digest() const { return image_digest_; }

  // Ids of syscalls available in this kernel configuration.
  const std::vector<int>& enabled_syscalls() const {
    return enabled_syscalls_;
  }
  bool SyscallEnabled(int id) const {
    return handlers_[static_cast<size_t>(id)] != nullptr;
  }

  const KernelConfig& config() const { return config_; }
  const Target& target() const { return target_; }

  // Number of kernel executions performed (programs, not calls).
  uint64_t execs() const { return execs_; }

 private:
  // Writes `arg` into guest memory at `addr`; returns bytes written.
  uint64_t StoreArg(Kernel& kernel, const Arg& arg,
                    const std::vector<CallExecInfo>& done, uint64_t addr);
  // Computes the flat syscall argument word for `arg` (allocating guest
  // memory for pointees).
  uint64_t EvalArg(Kernel& kernel, const Arg& arg,
                   const std::vector<CallExecInfo>& done);
  // Resolves a resource reference against completed calls.
  uint64_t ResolveResource(const Arg& arg,
                           const std::vector<CallExecInfo>& done) const;
  // Runs the calls `keep` marks (nullptr: all of them). Per-call results
  // and the crash index are compacted to the kept calls, so the result
  // equals Run(SelectCalls(prog, keep)).
  ExecResult Replay(const Prog& prog, const uint8_t* keep,
                    Bitmap* global_coverage);
  // Decodes `data` as the new resident image.
  Status LoadImage(const uint8_t* data, size_t size);

  const Target& target_;
  KernelConfig config_;
  // Result slots precomputed per syscall id; the per-call extraction loop
  // borrows them instead of re-walking argument trees every execution.
  ResultSlotTable slot_table_;
  std::vector<const SyscallDef*> handlers_;
  std::vector<int> enabled_syscalls_;
  CallCoverage cov_;
  GuestMem mem_;  // Pooled across programs; Reset() per Run.
  // Per-run scratch: each call's index among the kept calls (-1: dropped),
  // and the out-parameter addresses of the call being extracted.
  std::vector<int> pos_;
  std::vector<uint64_t> out_addrs_;
  // The resident image. image_ is destroyed before image_arena_ is reset.
  ProgArena image_arena_;
  Prog image_;
  bool has_image_ = false;
  uint64_t image_digest_ = 0;
  uint64_t execs_ = 0;
};

}  // namespace healer

#endif  // SRC_EXEC_EXECUTOR_H_
