// Differential suite for the image interpreter (DESIGN.md §9). A guest
// decodes each program once into a flat DecodedImage and replays it for the
// full run and for every call mask over it. The Arg-tree interpreter it
// replaced is kept below as the reference: it walks the program's Arg
// trees and evaluates, stores and extracts out-slots exactly as the
// executor did before images. Every generated and mutated program runs
// through Executor::RunSerialized in full and under a random keep mask,
// with and without a global bitmap, and must match the reference on every
// CallExecInfo field, on the crash and on the final bitmap.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/base/bitmap.h"
#include "src/base/rng.h"
#include "src/exec/executor.h"
#include "src/fuzz/prog_builder.h"
#include "src/kernel/coverage.h"
#include "src/kernel/errno.h"
#include "src/kernel/kernel.h"
#include "src/prog/serialize.h"
#include "src/prog/slots.h"
#include "src/syzlang/builtin_descs.h"

namespace healer {
namespace {

const KernelConfig& Config() {
  static const KernelConfig config =
      KernelConfig::ForVersion(KernelVersion::kV5_11);
  return config;
}

// ---- The Arg-tree reference ----

uint64_t SpecialValueOf(const Type* type) {
  if (type != nullptr && type->resource != nullptr &&
      !type->resource->special_values.empty()) {
    return type->resource->special_values[0];
  }
  return static_cast<uint64_t>(-1);
}

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

// The executor as it ran programs before images: directly off the Arg
// trees of a Prog.
class TreeInterpreter {
 public:
  TreeInterpreter(const Target& target, const KernelConfig& config)
      : config_(config), slot_table_(target) {
    handlers_.resize(target.NumSyscalls(), nullptr);
    for (const auto& call : target.syscalls()) {
      const SyscallDef* def = FindSyscallDef(call->name);
      if (def != nullptr && SyscallAvailable(*def, config_)) {
        handlers_[static_cast<size_t>(call->id)] = def;
      }
    }
  }

  // Runs the calls `keep` marks (nullptr: all of them), with results and
  // the crash index compacted to the kept calls.
  ExecResult Run(const Prog& prog, const uint8_t* keep,
                 Bitmap* global_coverage) {
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

      uint64_t args[6] = {0, 0, 0, 0, 0, 0};
      for (size_t ai = 0; ai < call.args.size() && ai < 6; ++ai) {
        args[ai] = EvalArg(kernel, *call.args[ai], result.calls);
      }

      cov_.Reset();
      kernel.SetCoverage(&cov_);
      const int64_t ret = def == nullptr ? -kENOSYS : kernel.Exec(*def, args);
      kernel.SetCoverage(nullptr);

      info.executed = true;
      info.retval = ret;
      info.signal = cov_.signal();
      info.num_edges = static_cast<uint32_t>(cov_.NumEdges());
      if (global_coverage != nullptr) {
        uint32_t fresh = 0;
        for (const uint32_t slot : cov_.slots()) {
          fresh += global_coverage->Set(slot) ? 1 : 0;
        }
        info.new_edges = fresh;
      }

      const auto& slots = slot_table_.of(call.meta->id);
      if (!slots.empty()) {
        size_t max_slot = 0;
        for (const auto& slot : slots) {
          max_slot = std::max(max_slot, static_cast<size_t>(slot.slot));
        }
        info.slot_values.assign(max_slot + 1, SpecialValueOf(nullptr));
        if (ret >= 0) {
          info.slot_values[0] = static_cast<uint64_t>(ret);
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
        result.crash =
            CrashInfo{kernel.crash().bug, kernel.crash().title, at};
        break;
      }
    }
    return result;
  }

 private:
  uint64_t ResolveResource(const Arg& arg,
                           const std::vector<CallExecInfo>& done) const {
    if (arg.res_ref < 0) {
      return arg.val;
    }
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

  // Writes `arg` into guest memory at `addr`; returns bytes written.
  uint64_t StoreArg(Kernel& kernel, const Arg& arg,
                    const std::vector<CallExecInfo>& done, uint64_t addr) {
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
      case ArgKind::kVma:
        mem.Write(addr, &arg.val, 8);
        return 8;
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

  // Computes the flat syscall argument word for `arg` (allocating guest
  // memory for pointees).
  uint64_t EvalArg(Kernel& kernel, const Arg& arg,
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
          return 0;
        }
        StoreArg(kernel, *arg.pointee, done, addr);
        return addr;
      }
      case ArgKind::kData:
      case ArgKind::kGroup:
      case ArgKind::kUnion: {
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

  KernelConfig config_;
  ResultSlotTable slot_table_;
  std::vector<const SyscallDef*> handlers_;
  CallCoverage cov_;
  GuestMem mem_;
  std::vector<int> pos_;
  std::vector<uint64_t> out_addrs_;
};

// ---- Inputs ----

std::vector<int> AllIds(const Target& target) {
  std::vector<int> ids;
  for (const auto& call : target.syscalls()) {
    ids.push_back(call->id);
  }
  return ids;
}

// Turns some data leaves into constants of the same (non-scalar) type that
// hold the leaf's first 8 bytes, a program the wire format accepts. Such a
// constant writes min(type->size, 8) bytes while its node size is the
// type's ByteSize(): a path constant under a 1-byte filename type still
// writes 8 bytes of the path. Returns how many leaves changed.
size_t ConstantsForData(Prog* prog, Rng* rng) {
  size_t changed = 0;
  for (Call& call : prog->calls()) {
    ForEachArg(call, [&](Arg& arg) {
      if (arg.kind == ArgKind::kData && rng->OneIn(2)) {
        arg.kind = ArgKind::kConstant;
        arg.val = 0;
        std::memcpy(&arg.val, arg.data.data(),
                    std::min<size_t>(arg.data.size(), 8));
        arg.data.clear();
        ++changed;
      }
    });
  }
  return changed;
}

// Generated programs of 1-14 calls; three in four are then mutated (args,
// an inserted call, or data leaves turned into constants).
std::vector<Prog> BuildInputs(size_t count, uint64_t seed,
                              size_t* constant_leaves) {
  const Target& target = BuiltinTarget();
  Rng rng(seed);
  ProgBuilder builder(target, AllIds(target), &rng);
  const auto choose = [&](const std::vector<int>&) {
    return static_cast<int>(rng.Below(target.NumSyscalls()));
  };
  std::vector<Prog> progs;
  while (progs.size() < count) {
    Prog prog = builder.Generate(choose, 1 + rng.Below(14));
    if (prog.empty()) {
      continue;
    }
    switch (rng.Below(4)) {
      case 0:
        break;
      case 1:
        for (int i = 0; i < 3; ++i) {
          builder.MutateArgs(&prog);
        }
        break;
      case 2:
        if (prog.size() < 14) {
          builder.MutateInsert(&prog, choose);
        }
        break;
      case 3:
        *constant_leaves += ConstantsForData(&prog, &rng);
        break;
    }
    progs.push_back(std::move(prog));
  }
  return progs;
}

// Every call survives with probability 1/2, and a producer that another
// call references is dropped when there is one.
CallMask RandomMask(const Prog& prog, Rng* rng) {
  CallMask keep(prog.size());
  for (uint8_t& k : keep) {
    k = rng->Below(2) == 0 ? 1 : 0;
  }
  std::vector<size_t> producers;
  for (const Call& call : prog.calls()) {
    ForEachArg(call, [&](const Arg& arg) {
      if (arg.kind == ArgKind::kResource && arg.res_ref >= 0) {
        producers.push_back(static_cast<size_t>(arg.res_ref));
      }
    });
  }
  if (!producers.empty()) {
    keep[producers[rng->Below(producers.size())]] = 0;
  }
  return keep;
}

TEST(ImageReplayDifferentialTest, MatchesTreeInterpreterFullAndMasked) {
  const Target& target = BuiltinTarget();
  Executor executor(target, Config());
  TreeInterpreter reference(target, Config());
  Bitmap image_cov(CallCoverage::kMapBits);
  Bitmap reference_cov(CallCoverage::kMapBits);
  size_t programs = 0;
  size_t crashes = 0;
  size_t masked_crashes = 0;
  size_t constant_leaves = 0;
  for (const uint64_t seed : {11u, 12u, 13u, 14u, 15u}) {
    const std::vector<Prog> progs = BuildInputs(640, seed, &constant_leaves);
    Rng rng(seed * 7919);
    for (size_t p = 0; p < progs.size(); ++p) {
      const Prog& prog = progs[p];
      ++programs;
      const std::vector<uint8_t> bytes = SerializeProg(prog);
      const uint64_t digest = ImageDigest(bytes.data(), bytes.size());
      const CallMask keep = RandomMask(prog, &rng);
      const std::vector<uint8_t> replay =
          EncodeMaskRequest(digest, keep, nullptr);
      const std::vector<uint8_t> carried =
          EncodeMaskRequest(digest, keep, &bytes);

      // Full run, then a masked replay of the resident image; then the
      // same with the global bitmap, the mask carrying its image.
      const ExecResult full =
          executor.RunSerialized(bytes.data(), bytes.size(), nullptr);
      ASSERT_EQ(full, reference.Run(prog, nullptr, nullptr))
          << "seed " << seed << " program " << p << " full";
      const ExecResult masked =
          executor.RunSerialized(replay.data(), replay.size(), nullptr);
      ASSERT_EQ(masked, reference.Run(prog, keep.data(), nullptr))
          << "seed " << seed << " program " << p << " masked";
      ASSERT_EQ(executor.RunSerialized(carried.data(), carried.size(),
                                       &image_cov),
                reference.Run(prog, keep.data(), &reference_cov))
          << "seed " << seed << " program " << p << " masked, bitmap";
      ASSERT_EQ(executor.RunSerialized(bytes.data(), bytes.size(),
                                       &image_cov),
                reference.Run(prog, nullptr, &reference_cov))
          << "seed " << seed << " program " << p << " full, bitmap";
      ASSERT_TRUE(executor.has_image());
      crashes += full.Crashed() ? 1 : 0;
      masked_crashes += masked.Crashed() ? 1 : 0;

      // The tree DeserializeProg builds from the decoded image encodes back
      // to the same bytes.
      Result<Prog> decoded = DeserializeProg(target, bytes.data(), bytes.size());
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      ASSERT_EQ(SerializeProg(*decoded), bytes) << "program " << p;
    }
  }
  EXPECT_TRUE(image_cov == reference_cov);
  EXPECT_GT(image_cov.Count(), 0u);
  EXPECT_GE(programs, 3000u);
  EXPECT_GT(crashes, 30u);
  EXPECT_GT(masked_crashes, 10u);
  EXPECT_GT(constant_leaves, 100u);
}

TEST(ImageReplayDifferentialTest, RunGoesThroughTheImagePath) {
  const Target& target = BuiltinTarget();
  size_t constant_leaves = 0;
  const std::vector<Prog> progs = BuildInputs(200, 21, &constant_leaves);
  Executor executor(target, Config());
  Executor wired(target, Config());
  TreeInterpreter reference(target, Config());
  for (size_t p = 0; p < progs.size(); ++p) {
    const std::vector<uint8_t> bytes = SerializeProg(progs[p]);
    const ExecResult run = executor.Run(progs[p], nullptr);
    EXPECT_EQ(run, wired.RunSerialized(bytes.data(), bytes.size(), nullptr))
        << "program " << p;
    EXPECT_EQ(run, reference.Run(progs[p], nullptr, nullptr))
        << "program " << p;
    // The program Run encoded is now the resident image.
    EXPECT_TRUE(executor.has_image());
    EXPECT_EQ(executor.image_digest(),
              ImageDigest(bytes.data(), bytes.size()));
  }
  EXPECT_EQ(executor.execs(), progs.size());
}

}  // namespace
}  // namespace healer
