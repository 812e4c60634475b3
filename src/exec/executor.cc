#include "src/exec/executor.h"

#include <algorithm>

#include "src/base/logging.h"
#include "src/kernel/errno.h"
#include "src/prog/slots.h"

namespace healer {

namespace {

uint64_t SpecialValueOf(const Type* type) {
  if (type != nullptr && type->resource != nullptr &&
      !type->resource->special_values.empty()) {
    return type->resource->special_values[0];
  }
  return static_cast<uint64_t>(-1);
}

}  // namespace

Executor::Executor(const Target& target, const KernelConfig& config)
    : target_(target), config_(config), slot_table_(target) {
  handlers_.resize(target.NumSyscalls(), nullptr);
  for (const auto& call : target.syscalls()) {
    const SyscallDef* def = FindSyscallDef(call->name);
    if (def != nullptr && SyscallAvailable(*def, config_)) {
      handlers_[static_cast<size_t>(call->id)] = def;
      enabled_syscalls_.push_back(call->id);
    }
  }
}

uint64_t Executor::ResolveResource(
    const Arg& arg, const std::vector<CallExecInfo>& done) const {
  if (arg.res_ref < 0) {
    return arg.val;
  }
  // A reference to a dropped or out-of-range call reads like the degraded
  // reference RemoveCall would have left behind: the special value.
  const size_t ref = static_cast<size_t>(arg.res_ref);
  if (ref >= pos_.size() || pos_[ref] < 0) {
    return SpecialValueOf(arg.type);
  }
  const CallExecInfo& producer = done[static_cast<size_t>(pos_[ref])];
  if (!producer.executed ||
      static_cast<size_t>(arg.res_slot) >= producer.slot_values.size()) {
    return SpecialValueOf(arg.type);
  }
  return producer.slot_values[static_cast<size_t>(arg.res_slot)];
}

uint64_t Executor::StoreArg(Kernel& kernel, const Arg& arg,
                            const std::vector<CallExecInfo>& done,
                            uint64_t addr) {
  GuestMem& mem = kernel.mem();
  switch (arg.kind) {
    case ArgKind::kConstant: {
      const uint32_t size = arg.type != nullptr ? arg.type->size : 8;
      mem.Write(addr, &arg.val, std::min<uint32_t>(size, 8));
      return size;
    }
    case ArgKind::kResource: {
      const uint64_t value = ResolveResource(arg, done);
      mem.Write(addr, &value, 8);
      return 8;
    }
    case ArgKind::kVma: {
      mem.Write(addr, &arg.val, 8);
      return 8;
    }
    case ArgKind::kData:
      if (!arg.data.empty()) {
        mem.Write(addr, arg.data.data(), arg.data.size());
      }
      return arg.data.size();
    case ArgKind::kPointer: {
      const uint64_t ptr_value = EvalArg(kernel, arg, done);
      mem.Write(addr, &ptr_value, 8);
      return 8;
    }
    case ArgKind::kGroup: {
      uint64_t offset = 0;
      for (const auto& child : arg.inner) {
        offset += StoreArg(kernel, *child, done, addr + offset);
      }
      return offset;
    }
    case ArgKind::kUnion:
      return arg.inner.empty()
                 ? 0
                 : StoreArg(kernel, *arg.inner[0], done, addr);
  }
  return 0;
}

uint64_t Executor::EvalArg(Kernel& kernel, const Arg& arg,
                           const std::vector<CallExecInfo>& done) {
  switch (arg.kind) {
    case ArgKind::kConstant:
    case ArgKind::kVma:
      return arg.val;
    case ArgKind::kResource:
      return ResolveResource(arg, done);
    case ArgKind::kPointer: {
      if (arg.pointee == nullptr) {
        return 0;
      }
      const uint64_t size = std::max<uint64_t>(arg.pointee->Size(), 1);
      const uint64_t addr = kernel.mem().AllocData(size);
      if (addr == 0) {
        return 0;  // Guest data window exhausted; acts like a bad pointer.
      }
      StoreArg(kernel, *arg.pointee, done, addr);
      return addr;
    }
    case ArgKind::kData:
    case ArgKind::kGroup:
    case ArgKind::kUnion: {
      // Aggregates at the top level decay to a pointer to their contents.
      const uint64_t size = std::max<uint64_t>(arg.Size(), 1);
      const uint64_t addr = kernel.mem().AllocData(size);
      if (addr != 0) {
        StoreArg(kernel, arg, done, addr);
      }
      return addr;
    }
  }
  return 0;
}

namespace {

// Collects guest addresses of out-direction resource scalars in the same
// pre-order as ResultSlotsOf. `base` is the pointee's base address.
void CollectOutResourceAddrs(const Arg& arg, bool out_ctx, uint64_t base,
                             std::vector<uint64_t>* addrs) {
  switch (arg.kind) {
    case ArgKind::kResource:
      if (out_ctx && base != 0) {
        addrs->push_back(base);
      }
      break;
    case ArgKind::kPointer: {
      if (arg.pointee == nullptr) {
        break;
      }
      const bool pointee_out =
          arg.type != nullptr && (arg.type->dir == Dir::kOut ||
                                  arg.type->dir == Dir::kInOut);
      // The pointee's address is the pointer's evaluated value; we don't
      // have it here, so pointer nesting below the top level is walked with
      // base 0 (no extraction). Top-level handling happens in Run().
      CollectOutResourceAddrs(*arg.pointee, pointee_out, 0, addrs);
      break;
    }
    case ArgKind::kGroup: {
      uint64_t offset = 0;
      for (const auto& child : arg.inner) {
        CollectOutResourceAddrs(*child, out_ctx,
                                base == 0 ? 0 : base + offset, addrs);
        offset += child->Size();
      }
      break;
    }
    case ArgKind::kUnion:
      if (!arg.inner.empty()) {
        CollectOutResourceAddrs(*arg.inner[0], out_ctx, base, addrs);
      }
      break;
    default:
      break;
  }
}

}  // namespace

ExecResult Executor::Run(const Prog& prog, Bitmap* global_coverage) {
  return Replay(prog, nullptr, global_coverage);
}

ExecResult Executor::Replay(const Prog& prog, const uint8_t* keep,
                            Bitmap* global_coverage) {
  ++execs_;
  pos_.resize(prog.size());
  int kept = 0;
  for (size_t ci = 0; ci < prog.size(); ++ci) {
    pos_[ci] = keep == nullptr || keep[ci] != 0 ? kept++ : -1;
  }
  ExecResult result;
  result.calls.resize(static_cast<size_t>(kept));

  mem_.Reset();
  Kernel kernel(config_, &mem_);

  for (size_t ci = 0; ci < prog.size(); ++ci) {
    if (pos_[ci] < 0) {
      continue;
    }
    const size_t at = static_cast<size_t>(pos_[ci]);
    const Call& call = prog.calls()[ci];
    CallExecInfo& info = result.calls[at];
    const SyscallDef* def = handlers_[static_cast<size_t>(call.meta->id)];

    // Evaluate arguments (allocates and fills guest memory); the evaluated
    // words double as the top-level pointer values for out-extraction.
    uint64_t args[6] = {0, 0, 0, 0, 0, 0};
    for (size_t ai = 0; ai < call.args.size() && ai < 6; ++ai) {
      args[ai] = EvalArg(kernel, *call.args[ai], result.calls);
    }

    cov_.Reset();
    kernel.SetCoverage(&cov_);
    int64_t ret;
    if (def == nullptr) {
      ret = -kENOSYS;
    } else {
      ret = kernel.Exec(*def, args);
    }
    kernel.SetCoverage(nullptr);

    info.executed = true;
    info.retval = ret;
    info.signal = cov_.signal();
    info.num_edges = static_cast<uint32_t>(cov_.NumEdges());
    if (global_coverage != nullptr) {
      // Merge only the slots this call actually touched; Set() is atomic per
      // word, so the campaign bitmap needs no lock even with parallel
      // executors, and each fresh slot is credited to exactly one of them.
      uint32_t fresh = 0;
      for (const uint32_t slot : cov_.slots()) {
        fresh += global_coverage->Set(slot) ? 1 : 0;
      }
      info.new_edges = fresh;
    }

    // Result slots: slot 0 is the return value; out-parameter resources
    // are read back from guest memory.
    const auto& slots = slot_table_.of(call.meta->id);
    if (!slots.empty()) {
      size_t max_slot = 0;
      for (const auto& slot : slots) {
        max_slot = std::max(max_slot, static_cast<size_t>(slot.slot));
      }
      info.slot_values.assign(max_slot + 1, SpecialValueOf(nullptr));
      if (ret >= 0) {
        info.slot_values[0] = static_cast<uint64_t>(ret);
        // Walk top-level out pointers, reading resource values at their
        // stored offsets.
        out_addrs_.clear();
        for (size_t ai = 0; ai < call.args.size(); ++ai) {
          const Arg& arg = *call.args[ai];
          if (arg.kind == ArgKind::kPointer && arg.pointee != nullptr &&
              arg.type != nullptr &&
              (arg.type->dir == Dir::kOut || arg.type->dir == Dir::kInOut)) {
            CollectOutResourceAddrs(*arg.pointee, true,
                                    ai < 6 ? args[ai] : 0, &out_addrs_);
          }
        }
        for (size_t si = 0; si < out_addrs_.size() && 1 + si <= max_slot;
             ++si) {
          uint64_t value = SpecialValueOf(nullptr);
          kernel.mem().Read64(out_addrs_[si], &value);
          info.slot_values[1 + si] = value;
        }
      }
    }

    if (kernel.crashed()) {
      result.crash = CrashInfo{kernel.crash().bug, kernel.crash().title, at};
      break;
    }
  }
  return result;
}

void Executor::DropImage() {
  image_ = Prog();
  has_image_ = false;
}

Status Executor::LoadImage(const uint8_t* data, size_t size) {
  DropImage();
  image_arena_.Reset();
  Result<Prog> prog = DeserializeProg(target_, data, size, &image_arena_);
  if (!prog.ok()) {
    return prog.status();
  }
  image_ = std::move(*prog);
  image_digest_ = ImageDigest(data, size);
  has_image_ = true;
  return OkStatus();
}

ExecResult Executor::RunSerialized(const uint8_t* data, size_t size,
                                   Bitmap* global_coverage) {
  if (!IsMaskRequest(data, size)) {
    const Status loaded = LoadImage(data, size);
    if (!loaded.ok()) {
      LOG_WARNING << "executor: bad program: " << loaded.ToString();
      return ExecResult{};
    }
    return Replay(image_, nullptr, global_coverage);
  }
  Result<MaskRequest> request = DecodeMaskRequest(data, size);
  Status status = request.status();
  if (status.ok() && request->image != nullptr) {
    status = LoadImage(request->image, request->image_size);
  }
  if (status.ok() && (!has_image_ || image_digest_ != request->digest ||
                      image_.size() != request->calls)) {
    status = ParseError("mask names an image this guest does not hold");
  }
  if (!status.ok()) {
    DropImage();
    LOG_WARNING << "executor: bad mask request: " << status.ToString();
    return ExecResult{};
  }
  return Replay(image_, request->keep, global_coverage);
}

}  // namespace healer
