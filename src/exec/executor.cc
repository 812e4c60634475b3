#include "src/exec/executor.h"

#include <algorithm>
#include <utility>

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

ExecTables::ExecTables(const Target& target, const KernelConfig& config)
    : handlers(target.NumSyscalls(), nullptr), slots(target) {
  for (const auto& call : target.syscalls()) {
    const SyscallDef* def = FindSyscallDef(call->name);
    if (def != nullptr && SyscallAvailable(*def, config)) {
      handlers[static_cast<size_t>(call->id)] = def;
      enabled.push_back(call->id);
    }
  }
}

const std::shared_ptr<const ExecTables>& SharedExecTables::Get() const {
  std::call_once(built_, [this] {
    tables_ = std::make_shared<const ExecTables>(target_, config_);
  });
  return tables_;
}

Executor::Executor(const Target& target, const KernelConfig& config)
    : Executor(target, config,
               std::make_shared<const ExecTables>(target, config)) {}

Executor::Executor(const Target& target, const KernelConfig& config,
                   std::shared_ptr<const ExecTables> tables)
    : target_(target), config_(config), tables_(std::move(tables)) {}

uint64_t Executor::ResolveResource(
    const ImageArg& arg, const std::vector<CallExecInfo>& done) const {
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

uint64_t Executor::StoreArg(Kernel& kernel, uint32_t node,
                            const std::vector<CallExecInfo>& done,
                            uint64_t addr) {
  GuestMem& mem = kernel.mem();
  const ImageArg& arg = resident_.arg(node);
  switch (arg.kind) {
    case ArgKind::kConstant: {
      // The scalar's declared width, not its ByteSize(): the two differ
      // for a constant whose type is not a scalar.
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
      if (arg.size > 0) {
        mem.Write(addr, resident_.data(arg), arg.size);
      }
      return arg.size;
    case ArgKind::kPointer: {
      const uint64_t ptr_value = EvalArg(kernel, node, done);
      mem.Write(addr, &ptr_value, 8);
      return 8;
    }
    case ArgKind::kGroup: {
      uint64_t offset = 0;
      for (uint32_t child = node + 1; child < arg.end;
           child = resident_.arg(child).end) {
        offset += StoreArg(kernel, child, done, addr + offset);
      }
      return offset;
    }
    case ArgKind::kUnion:
      return arg.end == node + 1 ? 0 : StoreArg(kernel, node + 1, done, addr);
  }
  return 0;
}

uint64_t Executor::EvalArg(Kernel& kernel, uint32_t node,
                           const std::vector<CallExecInfo>& done) {
  const ImageArg& arg = resident_.arg(node);
  switch (arg.kind) {
    case ArgKind::kConstant:
    case ArgKind::kVma:
      return arg.val;
    case ArgKind::kResource:
      return ResolveResource(arg, done);
    case ArgKind::kPointer: {
      if (arg.end == node + 1) {
        return 0;  // Null pointer.
      }
      const uint64_t size =
          std::max<uint64_t>(resident_.arg(node + 1).size, 1);
      const uint64_t addr = kernel.mem().AllocData(size);
      if (addr == 0) {
        return 0;  // Guest data window exhausted; acts like a bad pointer.
      }
      StoreArg(kernel, node + 1, done, addr);
      return addr;
    }
    case ArgKind::kData:
    case ArgKind::kGroup:
    case ArgKind::kUnion: {
      // Aggregates at the top level decay to a pointer to their contents.
      const uint64_t size = std::max<uint64_t>(arg.size, 1);
      const uint64_t addr = kernel.mem().AllocData(size);
      if (addr != 0) {
        StoreArg(kernel, node, done, addr);
      }
      return addr;
    }
  }
  return 0;
}

void Executor::CollectOutResourceAddrs(uint32_t node, bool out_ctx,
                                       uint64_t base) {
  // Pointees below the top level would need the pointer's evaluated value,
  // which is not kept, so they are not extracted: nothing under base 0 is.
  if (base == 0) {
    return;
  }
  const ImageArg& arg = resident_.arg(node);
  switch (arg.kind) {
    case ArgKind::kResource:
      if (out_ctx) {
        out_addrs_.push_back(base);
      }
      break;
    case ArgKind::kGroup: {
      uint64_t offset = 0;
      for (uint32_t child = node + 1; child < arg.end;
           child = resident_.arg(child).end) {
        CollectOutResourceAddrs(child, out_ctx, base + offset);
        offset += resident_.arg(child).size;
      }
      break;
    }
    case ArgKind::kUnion:
      if (arg.end != node + 1) {
        CollectOutResourceAddrs(node + 1, out_ctx, base);
      }
      break;
    default:
      break;
  }
}

ExecResult Executor::Run(const Prog& prog, Bitmap* global_coverage) {
  const std::vector<uint8_t> bytes = SerializeProg(prog);
  return RunSerialized(bytes.data(), bytes.size(), global_coverage);
}

ExecResult Executor::Replay(const uint8_t* keep, Bitmap* global_coverage) {
  ++execs_;
  const std::vector<ImageCall>& calls = resident_.calls();
  pos_.resize(calls.size());
  int kept = 0;
  for (size_t ci = 0; ci < calls.size(); ++ci) {
    pos_[ci] = keep == nullptr || keep[ci] != 0 ? kept++ : -1;
  }
  ExecResult result;
  result.calls.resize(static_cast<size_t>(kept));

  mem_.Reset();
  Kernel kernel(config_, &mem_);

  for (size_t ci = 0; ci < calls.size(); ++ci) {
    if (pos_[ci] < 0) {
      continue;
    }
    const size_t at = static_cast<size_t>(pos_[ci]);
    const ImageCall& call = calls[ci];
    CallExecInfo& info = result.calls[at];
    const SyscallDef* def =
        tables_->handlers[static_cast<size_t>(call.meta->id)];

    // Evaluate arguments (allocates and fills guest memory); the evaluated
    // words double as the top-level pointer values for out-extraction.
    uint64_t args[6] = {0, 0, 0, 0, 0, 0};
    size_t ai = 0;
    for (uint32_t node = call.first_arg; node < call.end && ai < 6;
         node = resident_.arg(node).end, ++ai) {
      args[ai] = EvalArg(kernel, node, result.calls);
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
    const auto& slots = tables_->slots.of(call.meta->id);
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
        ai = 0;
        for (uint32_t node = call.first_arg; node < call.end && ai < 6;
             node = resident_.arg(node).end, ++ai) {
          const ImageArg& arg = resident_.arg(node);
          if (arg.kind == ArgKind::kPointer && arg.end != node + 1 &&
              arg.type != nullptr &&
              (arg.type->dir == Dir::kOut || arg.type->dir == Dir::kInOut)) {
            CollectOutResourceAddrs(node + 1, true, args[ai]);
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
  resident_.Clear();
  has_image_ = false;
}

Status Executor::LoadImage(const uint8_t* data, size_t size) {
  has_image_ = false;
  HEALER_RETURN_IF_ERROR(resident_.Decode(target_, data, size));
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
    return Replay(nullptr, global_coverage);
  }
  Result<MaskRequest> request = DecodeMaskRequest(data, size);
  Status status = request.status();
  if (status.ok() && request->image != nullptr) {
    status = LoadImage(request->image, request->image_size);
  }
  if (status.ok() && (!has_image_ || image_digest_ != request->digest ||
                      resident_.calls().size() != request->calls)) {
    status = ParseError("mask names an image this guest does not hold");
  }
  if (!status.ok()) {
    DropImage();
    LOG_WARNING << "executor: bad mask request: " << status.ToString();
    return ExecResult{};
  }
  return Replay(request->keep, global_coverage);
}

}  // namespace healer
