// Executor: the in-guest agent. Decodes wire-format programs, lays argument
// data out in guest memory, issues each call to the SimKernel with per-call
// KCOV collection, resolves resource references, and extracts out-parameter
// resource values.
//
// A fresh Kernel is booted per program (the paper's executor forks per test
// case for isolation; a fresh kernel object is the simulator equivalent and
// keeps programs independent and deterministic).
//
// The last program the executor decoded stays resident as a flat
// DecodedImage, whose buffers are reused by the next image; no Arg tree is
// built on this side. A call-mask request replays the image without
// re-decoding it: dropped calls are skipped, and a reference to a dropped
// producer resolves to its special value, exactly as Prog::RemoveCall's
// fixup would (DESIGN.md §9).

#ifndef SRC_EXEC_EXECUTOR_H_
#define SRC_EXEC_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/base/bitmap.h"
#include "src/exec/exec_result.h"
#include "src/kernel/kernel.h"
#include "src/prog/prog.h"
#include "src/prog/serialize.h"
#include "src/prog/slots.h"

namespace healer {

// What executors read and never write, the same for every executor of one
// (target, kernel config): each syscall id's handler (nullptr => ENOSYS in
// the configured kernel), the enabled ids in id order, and each syscall's
// result slots, which the per-call extraction borrows instead of
// re-walking argument trees every execution.
struct ExecTables {
  ExecTables(const Target& target, const KernelConfig& config);

  std::vector<const SyscallDef*> handlers;
  std::vector<int> enabled;
  ResultSlotTable slots;
};

// One ExecTables for every guest of a pool, built by the first Get() (from
// any thread), so a pool whose guests never execute never builds it.
class SharedExecTables {
 public:
  // `target` must outlive the tables.
  SharedExecTables(const Target& target, const KernelConfig& config)
      : target_(target), config_(config) {}

  const std::shared_ptr<const ExecTables>& Get() const;

 private:
  const Target& target_;
  const KernelConfig config_;
  mutable std::once_flag built_;
  mutable std::shared_ptr<const ExecTables> tables_;
};

class Executor {
 public:
  // `target` must outlive the executor. Builds the executor's own tables.
  Executor(const Target& target, const KernelConfig& config);
  // Borrows `tables`, which were built for the same target and config.
  Executor(const Target& target, const KernelConfig& config,
           std::shared_ptr<const ExecTables> tables);

  // Runs `prog` against a fresh kernel. If `global_coverage` is non-null,
  // per-call edges are merged into it and CallExecInfo::new_edges reports
  // the fresh ones; pass nullptr for side-effect-free runs (minimization).
  // The program travels the wire path: it is encoded and run as
  // RunSerialized would, and becomes the resident image.
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
    return tables_->enabled;
  }
  bool SyscallEnabled(int id) const {
    return tables_->handlers[static_cast<size_t>(id)] != nullptr;
  }

  const KernelConfig& config() const { return config_; }
  const Target& target() const { return target_; }

  // Number of kernel executions performed (programs, not calls).
  uint64_t execs() const { return execs_; }

 private:
  // Writes image node `node` into guest memory at `addr`; returns how far
  // past `addr` the next sibling starts.
  uint64_t StoreArg(Kernel& kernel, uint32_t node,
                    const std::vector<CallExecInfo>& done, uint64_t addr);
  // Computes the flat syscall argument word for image node `node`
  // (allocating guest memory for pointees).
  uint64_t EvalArg(Kernel& kernel, uint32_t node,
                   const std::vector<CallExecInfo>& done);
  // Resolves a resource arg against completed calls.
  uint64_t ResolveResource(const ImageArg& arg,
                           const std::vector<CallExecInfo>& done) const;
  // Appends the guest addresses of the out-direction resource scalars in
  // `node`'s subtree, stored at `base`, in ResultSlotsOf order.
  void CollectOutResourceAddrs(uint32_t node, bool out_ctx, uint64_t base);
  // Runs the resident image's calls that `keep` marks (nullptr: all of
  // them). Per-call results and the crash index are compacted to the kept
  // calls, so the result equals running SelectCalls(image, keep).
  ExecResult Replay(const uint8_t* keep, Bitmap* global_coverage);
  // Decodes `data` as the new resident image.
  Status LoadImage(const uint8_t* data, size_t size);

  const Target& target_;
  KernelConfig config_;
  std::shared_ptr<const ExecTables> tables_;
  CallCoverage cov_;
  GuestMem mem_;  // Pooled across programs; Reset() per Run.
  // Per-run scratch: each call's index among the kept calls (-1: dropped),
  // and the out-parameter addresses of the call being extracted.
  std::vector<int> pos_;
  std::vector<uint64_t> out_addrs_;
  // The resident image.
  DecodedImage resident_;
  bool has_image_ = false;
  uint64_t image_digest_ = 0;
  uint64_t execs_ = 0;
};

}  // namespace healer

#endif  // SRC_EXEC_EXECUTOR_H_
