// Hostile-input hardening for the program wire format (serialize.cc), the
// call-mask requests that replay a guest's resident image, and the corpus
// container (corpus_io.cc). One regression test per reachable decode
// failure path, plus truncation and bit-flip properties showing the decoder
// always fails cleanly — no crash, no over-allocation, no partially
// constructed program escaping.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/hash.h"
#include "src/base/metrics.h"
#include "src/base/rng.h"
#include "src/exec/exec_ring.h"
#include "src/exec/executor.h"
#include "src/exec/shm_channel.h"
#include "src/fuzz/corpus_io.h"
#include "src/fuzz/gossip.h"
#include "src/fuzz/shard.h"
#include "src/fuzz/templates.h"
#include "src/prog/serialize.h"
#include "src/syzlang/builtin_descs.h"
#include "src/vm/guest_vm.h"

namespace healer {
namespace {

constexpr uint32_t kWireMagic = 0x48454131;  // "HEA1"

// Little-endian writer mirroring the wire format, for crafting hostile bytes.
struct Wire {
  std::vector<uint8_t> buf;
  Wire& U8(uint8_t v) {
    buf.push_back(v);
    return *this;
  }
  Wire& U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
    return *this;
  }
  Wire& U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
    return *this;
  }
};

Status Decode(const std::vector<uint8_t>& bytes) {
  return DeserializeProg(BuiltinTarget(), bytes.data(), bytes.size()).status();
}

void ExpectDecodeError(const std::vector<uint8_t>& bytes,
                       const std::string& message_fragment) {
  const Status status = Decode(bytes);
  ASSERT_FALSE(status.ok()) << "expected failure: " << message_fragment;
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find(message_fragment), std::string::npos)
      << "got: " << status.message();
}

// First syscall without arguments (for minimal hand-crafted programs).
const Syscall& NoArgCall() {
  for (const auto& call : BuiltinTarget().syscalls()) {
    if (call->args.empty()) {
      return *call;
    }
  }
  ADD_FAILURE() << "builtin target has no zero-arg syscall";
  return *BuiltinTarget().syscalls().front();
}

// First syscall whose first argument is a plain scalar — neither a pointer
// nor an aggregate — so mismatched structural tags are rejected on it.
const Syscall& ScalarArgCall() {
  for (const auto& call : BuiltinTarget().syscalls()) {
    if (call->args.empty()) {
      continue;
    }
    const TypeKind kind = call->args[0].type->kind;
    if (kind == TypeKind::kInt || kind == TypeKind::kFlags ||
        kind == TypeKind::kConst) {
      return *call;
    }
  }
  ADD_FAILURE() << "builtin target has no scalar-first-arg syscall";
  return *BuiltinTarget().syscalls().front();
}

// Header plus call header for `call`, leaving the args section to the test.
Wire CallPrefix(const Syscall& call) {
  Wire w;
  w.U32(kWireMagic)
      .U32(1)
      .U32(static_cast<uint32_t>(call.id))
      .U32(static_cast<uint32_t>(call.args.size()));
  return w;
}

std::vector<uint8_t> SampleBytes() {
  const Target& target = BuiltinTarget();
  std::vector<int> ids;
  for (const auto& call : target.syscalls()) {
    ids.push_back(call->id);
  }
  Rng rng(4);
  const Prog prog =
      BuildChain(target, ids, {"memfd_create", "write$memfd"}, &rng);
  return SerializeProg(prog);
}

// ---- container / header paths ----

TEST(WireHostileTest, CraftedMinimalProgramDecodes) {
  // Sanity-check the crafting helpers against the real encoder before using
  // them to build hostile inputs.
  const Syscall& call = NoArgCall();
  Wire w;
  w.U32(kWireMagic).U32(1).U32(static_cast<uint32_t>(call.id)).U32(0);
  Result<Prog> prog =
      DeserializeProg(BuiltinTarget(), w.buf.data(), w.buf.size());
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  EXPECT_EQ(prog->size(), 1u);
  EXPECT_EQ(prog->calls()[0].meta->id, call.id);
}

TEST(WireHostileTest, BadMagicRejected) {
  Wire w;
  w.U32(0xdeadbeef).U32(0);
  ExpectDecodeError(w.buf, "bad magic");
  ExpectDecodeError({}, "bad magic");
  ExpectDecodeError({0x31}, "bad magic");
}

TEST(WireHostileTest, HugeCallCountRejected) {
  Wire w;
  w.U32(kWireMagic).U32(5000);  // Over the 1024-call cap.
  ExpectDecodeError(w.buf, "bad call count");
}

TEST(WireHostileTest, TruncatedCallHeaderRejected) {
  Wire w;
  w.U32(kWireMagic).U32(1).U32(0);  // id present, arg count missing.
  ExpectDecodeError(w.buf, "truncated call header");
}

TEST(WireHostileTest, UnknownSyscallIdRejected) {
  Wire w;
  w.U32(kWireMagic)
      .U32(1)
      .U32(static_cast<uint32_t>(BuiltinTarget().NumSyscalls()))
      .U32(0);
  ExpectDecodeError(w.buf, "unknown syscall id");
}

TEST(WireHostileTest, ArgCountMismatchRejected) {
  const Syscall& call = NoArgCall();
  Wire w;
  w.U32(kWireMagic).U32(1).U32(static_cast<uint32_t>(call.id)).U32(7);
  ExpectDecodeError(w.buf, "arg count mismatch");
}

TEST(WireHostileTest, TrailingBytesRejected) {
  std::vector<uint8_t> bytes = SampleBytes();
  bytes.push_back(0x00);
  ExpectDecodeError(bytes, "trailing bytes");
}

// ---- per-arg decode paths (all driven through a real syscall's arg0) ----

TEST(WireHostileTest, TruncatedArgTagRejected) {
  ExpectDecodeError(CallPrefix(ScalarArgCall()).buf, "truncated arg tag");
}

TEST(WireHostileTest, UnknownArgTagRejected) {
  ExpectDecodeError(CallPrefix(ScalarArgCall()).U8(99).buf,
                    "unknown arg tag");
}

TEST(WireHostileTest, TruncatedConstantRejected) {
  // Tag kConstant then only half of the u64 payload.
  ExpectDecodeError(CallPrefix(ScalarArgCall()).U8(0).U32(1).buf,
                    "truncated constant");
}

TEST(WireHostileTest, TruncatedDataRejected) {
  // Tag kData claiming 100 payload bytes that are not there.
  ExpectDecodeError(CallPrefix(ScalarArgCall()).U8(1).U32(100).buf,
                    "truncated data arg");
}

TEST(WireHostileTest, OversizedDataLengthRejected) {
  // Even with the payload present, lengths over the 1 MiB reader cap are
  // rejected instead of allocated.
  Wire w = CallPrefix(ScalarArgCall());
  const uint32_t len = (1u << 20) + 1;
  w.U8(1).U32(len);
  w.buf.resize(w.buf.size() + len, 0xab);
  ExpectDecodeError(w.buf, "truncated data arg");
}

TEST(WireHostileTest, PointerTagForScalarRejected) {
  ExpectDecodeError(CallPrefix(ScalarArgCall()).U8(2).buf,
                    "pointer tag for non-pointer type");
}

TEST(WireHostileTest, HugeGroupCountRejected) {
  // The count cap fires before any type validation or allocation.
  ExpectDecodeError(CallPrefix(ScalarArgCall()).U8(4).U32(100000).buf,
                    "bad group count");
}

TEST(WireHostileTest, GroupTagForScalarRejected) {
  ExpectDecodeError(CallPrefix(ScalarArgCall()).U8(4).U32(0).buf,
                    "group tag for non-aggregate type");
}

TEST(WireHostileTest, UnionTagForNonUnionRejected) {
  ExpectDecodeError(CallPrefix(ScalarArgCall()).U8(5).buf,
                    "union tag for non-union type");
}

TEST(WireHostileTest, TruncatedResourceRefRejected) {
  // Tag kResourceRef with only the first of two u32 fields.
  ExpectDecodeError(CallPrefix(ScalarArgCall()).U8(6).U32(3).buf,
                    "truncated resource ref");
}

TEST(WireHostileTest, TruncatedResourceSpecialRejected) {
  ExpectDecodeError(CallPrefix(ScalarArgCall()).U8(7).U32(1).buf,
                    "truncated resource special");
}

TEST(WireHostileTest, TruncatedVmaRejected) {
  ExpectDecodeError(CallPrefix(ScalarArgCall()).U8(8).U64(0x1000).buf,
                    "truncated vma arg");
}

// ---- properties over a genuine serialization ----

TEST(WireHostileTest, EveryStrictPrefixFailsCleanly) {
  const std::vector<uint8_t> bytes = SampleBytes();
  ASSERT_GT(bytes.size(), 8u);
  for (size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    const Status status = Decode(prefix);
    EXPECT_FALSE(status.ok()) << "prefix of " << len << " bytes decoded";
    EXPECT_EQ(status.code(), StatusCode::kParseError);
  }
}

TEST(WireHostileTest, RandomBitFlipsNeverCrashTheDecoder) {
  const std::vector<uint8_t> bytes = SampleBytes();
  Rng rng(99);
  size_t survived = 0;
  for (int i = 0; i < 300; ++i) {
    std::vector<uint8_t> mutated = bytes;
    const size_t bit = rng.Below(mutated.size() * 8);
    mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    Result<Prog> prog =
        DeserializeProg(BuiltinTarget(), mutated.data(), mutated.size());
    if (prog.ok()) {
      // A flip that still decodes must yield a structurally sound program.
      ++survived;
      prog->Validate().ok();  // Must not crash; failure is acceptable.
    }
  }
  // Most flips land in payload bytes; some must be caught by validation.
  EXPECT_LT(survived, 300u);
}

// ---- corpus container hardening ----

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), bytes.size(), 1, f), 1u);
  }
  std::fclose(f);
}

void ExpectLoadError(const std::string& path,
                     const std::string& message_fragment) {
  const Status status =
      LoadProgs(path, BuiltinTarget(), nullptr).status();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find(message_fragment), std::string::npos)
      << "got: " << status.message();
}

TEST(CorpusHostileTest, ShortFileRejected) {
  const std::string path = "/tmp/healer_hostile_short.bin";
  WriteFileBytes(path, {'H', 'C', 'O', 'R', 1});
  ExpectLoadError(path, "not a corpus file");
}

TEST(CorpusHostileTest, BadContainerMagicRejected) {
  const std::string path = "/tmp/healer_hostile_magic.bin";
  Wire w;
  w.U32(0x58585858).U32(0);
  WriteFileBytes(path, w.buf);
  ExpectLoadError(path, "not a corpus file");
}

TEST(CorpusHostileTest, CountExceedingFileSizeRejected) {
  // A count the file could not possibly hold (no room for length fields)
  // must be rejected before any allocation is attempted.
  const std::string path = "/tmp/healer_hostile_count.bin";
  Wire w;
  w.U8('H').U8('C').U8('O').U8('R').U32(1000);
  WriteFileBytes(path, w.buf);
  ExpectLoadError(path, "bad corpus count");
}

TEST(CorpusHostileTest, OversizedEntryLengthRejected) {
  // Entry claims more bytes than remain in the file.
  const std::string path = "/tmp/healer_hostile_entry.bin";
  Wire w;
  w.U8('H').U8('C').U8('O').U8('R').U32(1).U32(100);
  WriteFileBytes(path, w.buf);
  ExpectLoadError(path, "oversized program length at entry 0");
}

TEST(CorpusHostileTest, HugeEntryLengthRejected) {
  const std::string path = "/tmp/healer_hostile_huge.bin";
  Wire w;
  w.U8('H').U8('C').U8('O').U8('R').U32(1).U32(0xfffffff0);
  WriteFileBytes(path, w.buf);
  ExpectLoadError(path, "oversized program length at entry 0");
}

TEST(CorpusHostileTest, GarbageEntrySkippedNotFatal) {
  // A corrupt entry inside an otherwise valid container is counted in
  // `skipped` while the remaining programs still load.
  const std::string path = "/tmp/healer_hostile_mixed.bin";
  const std::vector<uint8_t> good = SampleBytes();
  Wire w;
  w.U8('H').U8('C').U8('O').U8('R').U32(2);
  w.U32(4).U32(0xdeadbeef);  // Entry 0: four garbage bytes.
  w.U32(static_cast<uint32_t>(good.size()));
  w.buf.insert(w.buf.end(), good.begin(), good.end());
  WriteFileBytes(path, w.buf);

  size_t skipped = 0;
  Result<std::vector<Prog>> progs =
      LoadProgs(path, BuiltinTarget(), &skipped);
  ASSERT_TRUE(progs.ok()) << progs.status().ToString();
  EXPECT_EQ(progs->size(), 1u);
  EXPECT_EQ(skipped, 1u);
}

// ---- hcorp1 container hardening ----

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::vector<uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return bytes;
  }
  std::fseek(f, 0, SEEK_END);
  bytes.resize(static_cast<size_t>(std::ftell(f)));
  std::rewind(f);
  if (!bytes.empty() && std::fread(bytes.data(), bytes.size(), 1, f) != 1) {
    bytes.clear();
  }
  std::fclose(f);
  return bytes;
}

uint64_t HashOf(const uint8_t* data, size_t len) {
  return FastBytesHash(
      std::string_view(reinterpret_cast<const char*>(data), len));
}

uint64_t GetU64At(const std::vector<uint8_t>& b, size_t off) {
  uint64_t v;
  std::memcpy(&v, b.data() + off, 8);
  return v;
}

void PutU32At(std::vector<uint8_t>* b, size_t off, uint32_t v) {
  std::memcpy(b->data() + off, &v, 4);
}

void PutU64At(std::vector<uint8_t>* b, size_t off, uint64_t v) {
  std::memcpy(b->data() + off, &v, 8);
}

// Recomputes the index checksum (header word at 48) and the header checksum
// (at 56) after a test mutated header fields, index entries, or payloads —
// so each test trips exactly the validation stage it targets, not the
// checksums in front of it.
void FixHcorpChecksums(std::vector<uint8_t>* b) {
  const uint64_t count = GetU64At(*b, 16);
  const uint64_t index_len = count * 16;
  if (index_len <= b->size() - 64) {
    PutU64At(b, 48, HashOf(b->data() + 64, index_len));
  }
  PutU64At(b, 56, HashOf(b->data(), 56));
}

// Recomputes index entry `i`'s payload checksum from the (possibly
// corrupted) payload bytes.
void FixHcorpEntryChecksum(std::vector<uint8_t>* b, size_t i) {
  const uint64_t payload_off = GetU64At(*b, 32);
  const size_t entry = 64 + i * 16;
  const uint64_t offset = GetU64At(*b, entry);
  uint32_t len;
  std::memcpy(&len, b->data() + entry + 8, 4);
  PutU32At(b, entry + 12,
           static_cast<uint32_t>(
               HashOf(b->data() + payload_off + offset, len)));
}

// A valid two-program hcorp1 file to corrupt, written to `path`.
std::vector<uint8_t> SampleHcorp1(const std::string& path) {
  const Target& target = BuiltinTarget();
  std::vector<int> ids;
  for (const auto& call : target.syscalls()) {
    ids.push_back(call->id);
  }
  Rng rng(4);
  std::vector<Prog> progs;
  progs.push_back(BuildChain(target, ids, {"memfd_create", "write$memfd"},
                             &rng));
  progs.push_back(BuildChain(target, ids, {"memfd_create", "write$memfd"},
                             &rng));
  EXPECT_TRUE(SaveProgs(path, progs, CorpusFormat::kHcorp1).ok());
  return ReadFileBytes(path);
}

TEST(Hcorp1HostileTest, TruncatedHeaderRejected) {
  const std::string path = "/tmp/healer_hcorp_trunc_header.bin";
  std::vector<uint8_t> bytes = SampleHcorp1(path);
  bytes.resize(32);  // Magic survives; the rest of the header does not.
  WriteFileBytes(path, bytes);
  ExpectLoadError(path, "truncated hcorp1 header");
}

TEST(Hcorp1HostileTest, HeaderChecksumMismatchRejected) {
  const std::string path = "/tmp/healer_hcorp_hdr_sum.bin";
  std::vector<uint8_t> bytes = SampleHcorp1(path);
  bytes[20] ^= 0x01;  // Count field, checksum left stale.
  WriteFileBytes(path, bytes);
  ExpectLoadError(path, "header checksum mismatch");
}

TEST(Hcorp1HostileTest, UnsupportedVersionRejected) {
  const std::string path = "/tmp/healer_hcorp_version.bin";
  std::vector<uint8_t> bytes = SampleHcorp1(path);
  PutU32At(&bytes, 8, 99);
  FixHcorpChecksums(&bytes);
  WriteFileBytes(path, bytes);
  ExpectLoadError(path, "unsupported hcorp1 version");
}

TEST(Hcorp1HostileTest, UnsupportedPageSizeRejected) {
  const std::string path = "/tmp/healer_hcorp_pagesize.bin";
  std::vector<uint8_t> bytes = SampleHcorp1(path);
  PutU32At(&bytes, 12, 512);
  FixHcorpChecksums(&bytes);
  WriteFileBytes(path, bytes);
  ExpectLoadError(path, "unsupported hcorp1 page size");
}

TEST(Hcorp1HostileTest, HugeCountRejected) {
  const std::string path = "/tmp/healer_hcorp_count.bin";
  std::vector<uint8_t> bytes = SampleHcorp1(path);
  PutU64At(&bytes, 16, (1ull << 20) + 1);
  FixHcorpChecksums(&bytes);
  WriteFileBytes(path, bytes);
  ExpectLoadError(path, "bad corpus count");
}

TEST(Hcorp1HostileTest, IndexBeyondFileRejected) {
  // A count under the cap whose index could not fit in the file must be
  // caught by extent validation before any index byte is read.
  const std::string path = "/tmp/healer_hcorp_index_oob.bin";
  std::vector<uint8_t> bytes = SampleHcorp1(path);
  PutU64At(&bytes, 16, 100000);
  FixHcorpChecksums(&bytes);
  WriteFileBytes(path, bytes);
  ExpectLoadError(path, "index out of bounds");
}

TEST(Hcorp1HostileTest, MisalignedPayloadRejected) {
  const std::string path = "/tmp/healer_hcorp_align.bin";
  std::vector<uint8_t> bytes = SampleHcorp1(path);
  PutU64At(&bytes, 32, GetU64At(bytes, 32) + 16);
  FixHcorpChecksums(&bytes);
  WriteFileBytes(path, bytes);
  ExpectLoadError(path, "payload extent mismatch");
}

TEST(Hcorp1HostileTest, TruncatedPayloadRejected) {
  const std::string path = "/tmp/healer_hcorp_trunc_payload.bin";
  std::vector<uint8_t> bytes = SampleHcorp1(path);
  bytes.pop_back();  // Header stays intact; the payload extent shrinks.
  WriteFileBytes(path, bytes);
  ExpectLoadError(path, "payload extent mismatch");
}

TEST(Hcorp1HostileTest, IndexChecksumMismatchRejected) {
  const std::string path = "/tmp/healer_hcorp_idx_sum.bin";
  std::vector<uint8_t> bytes = SampleHcorp1(path);
  bytes[64] ^= 0x01;  // Entry 0 offset, index checksum left stale.
  PutU64At(&bytes, 56, HashOf(bytes.data(), 56));  // Header stays valid.
  WriteFileBytes(path, bytes);
  ExpectLoadError(path, "index checksum mismatch");
}

TEST(Hcorp1HostileTest, EntryExtentOutOfBoundsRejected) {
  const std::string path = "/tmp/healer_hcorp_entry_oob.bin";
  std::vector<uint8_t> bytes = SampleHcorp1(path);
  PutU32At(&bytes, 64 + 8, (1u << 24) + 1);  // Entry 0 length over the cap.
  FixHcorpChecksums(&bytes);
  WriteFileBytes(path, bytes);
  ExpectLoadError(path, "extent out of bounds");
}

TEST(Hcorp1HostileTest, OverlappingEntriesRejected) {
  const std::string path = "/tmp/healer_hcorp_overlap.bin";
  std::vector<uint8_t> bytes = SampleHcorp1(path);
  PutU64At(&bytes, 64 + 16, 0);  // Entry 1 rewound onto entry 0's bytes.
  FixHcorpChecksums(&bytes);
  WriteFileBytes(path, bytes);
  ExpectLoadError(path, "overlaps its predecessor");
}

TEST(Hcorp1HostileTest, EntryChecksumMismatchRejected) {
  const std::string path = "/tmp/healer_hcorp_entry_sum.bin";
  std::vector<uint8_t> bytes = SampleHcorp1(path);
  const uint64_t payload_off = GetU64At(bytes, 32);
  bytes[payload_off] ^= 0x01;  // Payload damage, entry checksum stale.
  WriteFileBytes(path, bytes);
  ExpectLoadError(path, "payload checksum mismatch");
}

TEST(Hcorp1HostileTest, UndecodableProgramSkippedNotFatal) {
  // Structural checks pass (every checksum rewritten to match the damage);
  // the program that no longer decodes is skipped, its sibling loads.
  const std::string path = "/tmp/healer_hcorp_skip.bin";
  std::vector<uint8_t> bytes = SampleHcorp1(path);
  const uint64_t payload_off = GetU64At(bytes, 32);
  bytes[payload_off] ^= 0x01;  // Entry 0's wire magic byte.
  FixHcorpEntryChecksum(&bytes, 0);
  FixHcorpChecksums(&bytes);
  WriteFileBytes(path, bytes);
  size_t skipped = 0;
  Result<std::vector<Prog>> progs =
      LoadProgs(path, BuiltinTarget(), &skipped);
  ASSERT_TRUE(progs.ok()) << progs.status().ToString();
  EXPECT_EQ(progs->size(), 1u);
  EXPECT_EQ(skipped, 1u);
}

TEST(Hcorp1HostileTest, RandomBitFlipsNeverCrashTheLoader) {
  const std::string path = "/tmp/healer_hcorp_flip_src.bin";
  const std::string flipped = "/tmp/healer_hcorp_flip.bin";
  const std::vector<uint8_t> bytes = SampleHcorp1(path);
  Rng rng(515);
  size_t survived = 0;
  for (int i = 0; i < 200; ++i) {
    std::vector<uint8_t> mutated = bytes;
    const size_t bit = rng.Below(mutated.size() * 8);
    mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    WriteFileBytes(flipped, mutated);
    Result<std::vector<Prog>> progs =
        LoadProgs(flipped, BuiltinTarget(), nullptr);
    if (progs.ok()) {
      ++survived;  // Padding-byte flips may survive; they must not crash.
    }
  }
  // Any flip in header, index, or payload trips a checksum.
  EXPECT_LT(survived, 200u);
}

// ---- shared-memory channel hardening ----

TEST(ShmChannelHostileTest, HugeGuestLengthWordReadsAsEmpty) {
  // The guest owns the region and can write any length word; a value the
  // region cannot hold must read as an empty program, never as a
  // past-the-mapping read.
  ShmChannel shm;
  ASSERT_TRUE(shm.WriteProg({1, 2, 3, 4}));
  EXPECT_EQ(shm.prog_size(), 4u);
  const uint64_t huge = ~0ull;
  std::memcpy(shm.raw(), &huge, 8);
  EXPECT_EQ(shm.prog_size(), 0u);
  const uint64_t off_by_one = ShmChannel::kSize - 7;
  std::memcpy(shm.raw(), &off_by_one, 8);
  EXPECT_EQ(shm.prog_size(), 0u);
  // The largest representable program is still accepted.
  const uint64_t max_ok = ShmChannel::kSize - 8;
  std::memcpy(shm.raw(), &max_ok, 8);
  EXPECT_EQ(shm.prog_size(), ShmChannel::kSize - 8);
}

// ---- control socket bounding ----

TEST(ControlSocketTest, BoundedQueueDropsAndCountsOverflow) {
  ControlSocket ctrl;
  MetricRegistry metrics;
  ctrl.set_overflow_counter(metrics.GetCounter("healer_ctrl_overflow_total"));
  for (size_t i = 0; i < ControlSocket::kMaxPending + 10; ++i) {
    ctrl.Send(CtrlFrame{CtrlKind::kCrashNotice, i});
  }
  EXPECT_EQ(ctrl.pending(), ControlSocket::kMaxPending);
  EXPECT_EQ(ctrl.overflows(), 10u);
  EXPECT_EQ(metrics.Snapshot().counter("healer_ctrl_overflow_total"), 10u);
  // Draining restores capacity; frames past the cap were dropped, the rest
  // kept their order.
  CtrlFrame frame;
  for (size_t i = 0; i < ControlSocket::kMaxPending; ++i) {
    ASSERT_TRUE(ctrl.Recv(&frame));
    EXPECT_EQ(frame.payload, i);
  }
  EXPECT_FALSE(ctrl.Recv(&frame));
  ctrl.Send(CtrlFrame{CtrlKind::kHandshake, 1});
  EXPECT_EQ(ctrl.pending(), 1u);
  EXPECT_EQ(ctrl.overflows(), 10u);
}

// ---- completion codec hardening (ring CQ payloads) ----

// Completion-wire writer (header: magic, failure, has_crash, num_calls).
struct CqeWire {
  Wire w;
  CqeWire& Header(uint8_t failure, uint8_t has_crash, uint16_t num_calls) {
    w.U32(kCompletionMagic).U8(failure).U8(has_crash);
    w.U8(static_cast<uint8_t>(num_calls & 0xff));
    w.U8(static_cast<uint8_t>(num_calls >> 8));
    return *this;
  }
};

void ExpectCompletionError(const std::vector<uint8_t>& bytes,
                           const std::string& message_fragment) {
  const Status status = DecodeCompletion(bytes.data(), bytes.size()).status();
  ASSERT_FALSE(status.ok()) << "expected failure: " << message_fragment;
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find(message_fragment), std::string::npos)
      << "got: " << status.message();
}

std::vector<uint8_t> SampleCompletion() {
  ExecResult result;
  CallExecInfo call;
  call.executed = true;
  call.retval = 3;
  call.signal = 0xfeedface;
  call.new_edges = 2;
  call.num_edges = 5;
  call.slot_values = {1, 2, 3};
  result.calls.push_back(call);
  CrashInfo crash;
  crash.bug = static_cast<BugId>(9);
  crash.title = "BUG: sim crash";
  crash.call_index = 0;
  result.crash = crash;
  return EncodeCompletion(result);
}

TEST(RingHostileTest, CompletionBadMagicRejected) {
  Wire w;
  w.U32(kCompletionMagic ^ 1).U8(0).U8(0).U8(0).U8(0);
  ExpectCompletionError(w.buf, "bad magic");
}

TEST(RingHostileTest, CompletionTruncatedHeaderRejected) {
  Wire w;
  w.U32(kCompletionMagic).U8(0);
  ExpectCompletionError(w.buf, "truncated header");
}

TEST(RingHostileTest, CompletionUnknownFailureKindRejected) {
  CqeWire c;
  c.Header(200, 0, 0);
  ExpectCompletionError(c.w.buf, "unknown failure kind");
}

TEST(RingHostileTest, CompletionBadCrashFlagRejected) {
  CqeWire c;
  c.Header(0, 2, 0);
  ExpectCompletionError(c.w.buf, "bad crash flag");
}

TEST(RingHostileTest, CompletionHugeCallCountRejected) {
  CqeWire c;
  c.Header(0, 0, 2000);  // > kMaxCompletionCalls.
  ExpectCompletionError(c.w.buf, "bad call count");
}

TEST(RingHostileTest, CompletionOversizedCrashTitleRejected) {
  CqeWire c;
  c.Header(0, 1, 0);
  c.w.U32(9).U32(0).U8(0x2c).U8(0x01);  // title_len = 300 > kMaxCrashTitle.
  ExpectCompletionError(c.w.buf, "oversized crash title");
}

TEST(RingHostileTest, CompletionTruncatedCrashTitleRejected) {
  CqeWire c;
  c.Header(0, 1, 0);
  c.w.U32(9).U32(0).U8(16).U8(0).U8('x');  // Claims 16 bytes, carries 1.
  ExpectCompletionError(c.w.buf, "truncated crash title");
}

TEST(RingHostileTest, CompletionTruncatedCallRecordRejected) {
  CqeWire c;
  c.Header(0, 0, 1);
  c.w.U8(1).U64(0);  // Call record cut short.
  ExpectCompletionError(c.w.buf, "truncated call record");
}

TEST(RingHostileTest, CompletionBadExecutedFlagRejected) {
  CqeWire c;
  c.Header(0, 0, 1);
  c.w.U8(7).U64(0).U64(0).U32(0).U32(0).U8(0).U8(0);
  ExpectCompletionError(c.w.buf, "bad executed flag");
}

TEST(RingHostileTest, CompletionHugeSlotCountRejected) {
  CqeWire c;
  c.Header(0, 0, 1);
  c.w.U8(1).U64(0).U64(0).U32(0).U32(0).U8(100).U8(0);  // > kMaxSlots.
  ExpectCompletionError(c.w.buf, "bad slot count");
}

TEST(RingHostileTest, CompletionTruncatedSlotValuesRejected) {
  CqeWire c;
  c.Header(0, 0, 1);
  c.w.U8(1).U64(0).U64(0).U32(0).U32(0).U8(2).U8(0).U64(1);  // 2 slots, 1.
  ExpectCompletionError(c.w.buf, "truncated slot values");
}

TEST(RingHostileTest, CompletionTrailingBytesRejected) {
  std::vector<uint8_t> bytes = SampleCompletion();
  bytes.push_back(0xff);
  ExpectCompletionError(bytes, "trailing bytes");
}

TEST(RingHostileTest, CompletionEveryStrictPrefixFailsCleanly) {
  const std::vector<uint8_t> bytes = SampleCompletion();
  ASSERT_GT(bytes.size(), 8u);
  for (size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    const Status status =
        DecodeCompletion(prefix.data(), prefix.size()).status();
    EXPECT_FALSE(status.ok()) << "prefix of " << len << " bytes decoded";
    EXPECT_EQ(status.code(), StatusCode::kParseError);
  }
}

TEST(RingHostileTest, CompletionRandomBitFlipsNeverCrashTheDecoder) {
  const std::vector<uint8_t> bytes = SampleCompletion();
  Rng rng(4242);
  size_t survived = 0;
  for (int i = 0; i < 300; ++i) {
    std::vector<uint8_t> mutated = bytes;
    const size_t bit = rng.Below(mutated.size() * 8);
    mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    const Result<ExecResult> decoded =
        DecodeCompletion(mutated.data(), mutated.size());
    if (decoded.ok()) {
      ++survived;  // Payload-byte flips may survive; they must not crash.
    }
  }
  EXPECT_LT(survived, 300u);  // Structural flips must be caught.
}

TEST(RingHostileTest, StaleSequenceNumbersNeverWedgeTheRing) {
  // A hostile guest rewriting sequence words can destroy entries but must
  // never wedge the consumer: every poke is skipped-and-freed.
  SlotRing ring(8, 64);
  Rng rng(7);
  uint64_t pushed = 0;
  size_t delivered = 0;
  size_t dropped = 0;
  std::vector<uint8_t> out;
  uint64_t user_data = 0;
  for (int round = 0; round < 200; ++round) {
    while (!ring.Full()) {
      const uint8_t b = static_cast<uint8_t>(pushed & 0xff);
      ASSERT_TRUE(ring.Push(&b, 1, pushed));
      ++pushed;
    }
    if (rng.Chance(1, 3)) {
      ring.TestPokeSeq(rng.Next(), rng.Next());  // Corrupt a random slot.
    }
    for (int i = 0; i < 8; ++i) {
      const SlotRing::Pop popped = ring.TryPop(&out, &user_data);
      if (popped == SlotRing::Pop::kOk) {
        ++delivered;
      } else if (popped == SlotRing::Pop::kEmpty) {
        break;
      } else {
        ++dropped;  // kTorn/kStale: entry lost, ring still live.
      }
    }
  }
  // Conservation: every pushed entry was either delivered or dropped, and
  // the ring kept making progress throughout.
  EXPECT_EQ(delivered + dropped + ring.size(), pushed);
  EXPECT_GT(delivered, 0u);
}

// ---- HGSP1 gossip frames (gossip.h) ----
//
// The cross-shard gossip codec faces the same adversary as the corpus
// container: bytes from outside the process. Every length is checked before
// use, the payload checksum before the payload, and replayed (origin, seq)
// pairs are dropped — a hostile peer can waste bandwidth but cannot corrupt
// shard state or double-credit the exactly-once accounting.

std::vector<uint8_t> SampleGossipFrame(GossipFrameType type,
                                       std::vector<uint8_t> payload,
                                       uint64_t seq = 7) {
  GossipFrame frame;
  frame.type = type;
  frame.origin = 3;
  frame.seq = seq;
  frame.payload = std::move(payload);
  std::vector<uint8_t> bytes;
  AppendGossipFrame(frame, &bytes);
  return bytes;
}

void ExpectGossipError(const std::vector<uint8_t>& bytes,
                       const std::string& want) {
  size_t consumed = 0;
  Result<GossipFrame> frame =
      DecodeGossipFrame(bytes.data(), bytes.size(), &consumed);
  ASSERT_FALSE(frame.ok()) << "expected rejection: " << want;
  EXPECT_NE(frame.status().message().find(want), std::string::npos)
      << frame.status().ToString();
}

TEST(GossipHostileTest, EveryHeaderTruncationRejected) {
  const std::vector<uint8_t> bytes =
      SampleGossipFrame(GossipFrameType::kCoverage, {1, 2, 3});
  for (size_t len = 0; len < kGossipHeaderBytes; ++len) {
    size_t consumed = 0;
    Result<GossipFrame> frame =
        DecodeGossipFrame(bytes.data(), len, &consumed);
    EXPECT_FALSE(frame.ok()) << "prefix " << len;
  }
}

TEST(GossipHostileTest, TruncatedPayloadRejected) {
  const std::vector<uint8_t> bytes =
      SampleGossipFrame(GossipFrameType::kCoverage, {1, 2, 3, 4});
  size_t consumed = 0;
  Result<GossipFrame> frame =
      DecodeGossipFrame(bytes.data(), bytes.size() - 2, &consumed);
  ASSERT_FALSE(frame.ok());
  EXPECT_NE(frame.status().message().find("truncated frame payload"),
            std::string::npos);
}

TEST(GossipHostileTest, BadMagicRejected) {
  std::vector<uint8_t> bytes =
      SampleGossipFrame(GossipFrameType::kRelations, {});
  bytes[0] ^= 0xff;
  ExpectGossipError(bytes, "bad frame magic");
}

TEST(GossipHostileTest, UnsupportedVersionRejected) {
  std::vector<uint8_t> bytes =
      SampleGossipFrame(GossipFrameType::kRelations, {});
  bytes[4] = 99;
  ExpectGossipError(bytes, "unsupported version");
}

TEST(GossipHostileTest, UnknownFrameTypeRejected) {
  std::vector<uint8_t> bytes =
      SampleGossipFrame(GossipFrameType::kRelations, {});
  bytes[5] = 17;
  ExpectGossipError(bytes, "unknown frame type");
}

TEST(GossipHostileTest, NonzeroReservedBytesRejected) {
  std::vector<uint8_t> bytes =
      SampleGossipFrame(GossipFrameType::kRelations, {});
  bytes[6] = 1;
  ExpectGossipError(bytes, "nonzero reserved");
}

TEST(GossipHostileTest, HugePayloadLengthRejected) {
  std::vector<uint8_t> bytes =
      SampleGossipFrame(GossipFrameType::kSeeds, {});
  const uint32_t huge = 0x7fffffff;  // Claims 2 GiB; must not allocate it.
  std::memcpy(bytes.data() + 12, &huge, 4);
  ExpectGossipError(bytes, "exceeds limit");
}

TEST(GossipHostileTest, PayloadChecksumMismatchRejected) {
  std::vector<uint8_t> bytes =
      SampleGossipFrame(GossipFrameType::kCoverage, {1, 2, 3, 4, 5});
  bytes[kGossipHeaderBytes + 2] ^= 0x10;
  ExpectGossipError(bytes, "payload checksum mismatch");
}

TEST(GossipHostileTest, StreamStopsAtFirstBadFrame) {
  std::vector<uint8_t> bytes =
      SampleGossipFrame(GossipFrameType::kRelations,
                        EncodeRelationsPayload({}), 0);
  std::vector<uint8_t> bad =
      SampleGossipFrame(GossipFrameType::kCoverage, {9, 9, 9}, 1);
  bad[4] = 2;  // Version from the future.
  bytes.insert(bytes.end(), bad.begin(), bad.end());
  Result<std::vector<GossipFrame>> frames =
      DecodeGossipStream(bytes.data(), bytes.size());
  EXPECT_FALSE(frames.ok());  // All-or-nothing: the exchange is rejected.
}

TEST(GossipHostileTest, RelationsPayloadCountMismatchRejected) {
  std::vector<uint8_t> payload = EncodeRelationsPayload(
      {{1, 2, RelationSource::kDynamic, 0}});
  const uint32_t lie = 2;  // Claims two edges, carries one.
  std::memcpy(payload.data(), &lie, 4);
  Result<std::vector<WireRelationEdge>> edges =
      DecodeRelationsPayload(payload, 16);
  ASSERT_FALSE(edges.ok());
  EXPECT_NE(edges.status().message().find("length mismatch"),
            std::string::npos);
}

TEST(GossipHostileTest, RelationsOutOfRangeSyscallIdRejected) {
  const std::vector<uint8_t> payload = EncodeRelationsPayload(
      {{5, 200, RelationSource::kDynamic, 0}});
  Result<std::vector<WireRelationEdge>> edges =
      DecodeRelationsPayload(payload, 16);
  ASSERT_FALSE(edges.ok());
  EXPECT_NE(edges.status().message().find("out of range"),
            std::string::npos);
}

TEST(GossipHostileTest, CoverageOutOfRangeWordIndexRejected) {
  const std::vector<uint8_t> payload =
      EncodeCoveragePayload({{2000, 0xffULL}});
  Result<std::vector<WireCoverageWord>> words =
      DecodeCoveragePayload(payload, 1024);
  ASSERT_FALSE(words.ok());
  EXPECT_NE(words.status().message().find("out of range"),
            std::string::npos);
}

TEST(GossipHostileTest, SeedsTruncatedLengthRejected) {
  std::vector<uint8_t> payload = EncodeSeedsPayload({{1, 2, 3}});
  payload.resize(payload.size() - 2);  // Cut into the seed bytes.
  Result<std::vector<std::vector<uint8_t>>> blobs =
      DecodeSeedsPayload(payload);
  EXPECT_FALSE(blobs.ok());
}

TEST(GossipHostileTest, SeedsTrailingBytesRejected) {
  std::vector<uint8_t> payload = EncodeSeedsPayload({{1, 2, 3}});
  payload.push_back(0xaa);
  Result<std::vector<std::vector<uint8_t>>> blobs =
      DecodeSeedsPayload(payload);
  ASSERT_FALSE(blobs.ok());
  EXPECT_NE(blobs.status().message().find("trailing bytes"),
            std::string::npos);
}

TEST(GossipHostileTest, ReplayedFrameDroppedWithoutStateChange) {
  const Target& target = BuiltinTarget();
  FuzzerOptions options;
  options.num_vms = 2;
  FuzzShard receiver(target, options, 1);

  GossipFrame frame;
  frame.type = GossipFrameType::kCoverage;
  frame.origin = 0;
  frame.seq = 5;
  frame.payload = EncodeCoveragePayload({{3, 0xf0f0ULL}});
  std::vector<uint8_t> bytes;
  AppendGossipFrame(frame, &bytes);

  ASSERT_TRUE(receiver.Ingest(bytes.data(), bytes.size()).ok());
  EXPECT_EQ(receiver.ApplyInbox(), 1u);
  const uint64_t credited = receiver.stats().coverage_bits_imported;
  EXPECT_GT(credited, 0u);

  // Same frame again — and again: dropped at ingest, zero new credit.
  for (int replay = 0; replay < 3; ++replay) {
    ASSERT_TRUE(receiver.Ingest(bytes.data(), bytes.size()).ok());
    EXPECT_EQ(receiver.ApplyInbox(), 0u);
  }
  EXPECT_EQ(receiver.stats().coverage_bits_imported, credited);
  EXPECT_EQ(receiver.stats().frames_replayed, 3u);
}

TEST(GossipHostileTest, RandomBitFlipsNeverCrashTheDecoder) {
  const std::vector<uint8_t> pristine = SampleGossipFrame(
      GossipFrameType::kCoverage,
      EncodeCoveragePayload({{1, 2}, {3, 4}, {5, 6}}));
  Rng rng(20260809);
  size_t rejected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> bytes = pristine;
    const int flips = 1 + static_cast<int>(rng.Below(4));
    for (int f = 0; f < flips; ++f) {
      bytes[rng.Below(bytes.size())] ^=
          static_cast<uint8_t>(1u << rng.Below(8));
    }
    size_t consumed = 0;
    Result<GossipFrame> frame =
        DecodeGossipFrame(bytes.data(), bytes.size(), &consumed);
    if (!frame.ok()) {
      ++rejected;
      continue;
    }
    // A frame that survived the checksum still decodes its payload against
    // receiver-side bounds without crashing.
    Result<std::vector<WireCoverageWord>> words =
        DecodeCoveragePayload(frame->payload, 1024);
    (void)words;
  }
  // The checksum catches every payload flip; flips confined to the
  // origin/seq identity fields survive by design (dedup, not integrity,
  // owns those), so rejection is high but not total.
  EXPECT_GT(rejected, 1500u);
}

// ---- call-mask requests ----

// An executor holding the two-call sample program as its resident image.
class MaskHostileTest : public ::testing::Test {
 protected:
  MaskHostileTest()
      : executor_(BuiltinTarget(),
                  KernelConfig::ForVersion(KernelVersion::kV5_11)),
        image_(SampleBytes()),
        digest_(ImageDigest(image_.data(), image_.size())) {
    Load();
  }

  void Load() {
    const ExecResult result =
        executor_.RunSerialized(image_.data(), image_.size(), nullptr);
    ASSERT_EQ(result.calls.size(), 2u);
    ASSERT_TRUE(executor_.has_image());
  }

  ExecResult Send(const std::vector<uint8_t>& request) {
    return executor_.RunSerialized(request.data(), request.size(), nullptr);
  }

  // A rejected request answers with an empty result and leaves no image
  // behind, so the host has to ship the program again.
  void ExpectRejected(const std::vector<uint8_t>& request) {
    const ExecResult result = Send(request);
    EXPECT_TRUE(result.calls.empty());
    EXPECT_FALSE(result.Crashed());
    EXPECT_FALSE(executor_.has_image());
  }

  Executor executor_;
  std::vector<uint8_t> image_;
  uint64_t digest_;
};

TEST_F(MaskHostileTest, WellFormedMasksReplayTheResidentImage) {
  EXPECT_EQ(Send(EncodeMaskRequest(digest_, {1, 1}, nullptr)).calls.size(),
            2u);
  EXPECT_EQ(Send(EncodeMaskRequest(digest_, {0, 1}, nullptr)).calls.size(),
            1u);
  EXPECT_TRUE(executor_.has_image());
  // A request may carry the image itself, for a guest that lacks it.
  Executor fresh(BuiltinTarget(),
                 KernelConfig::ForVersion(KernelVersion::kV5_11));
  const std::vector<uint8_t> carried =
      EncodeMaskRequest(digest_, {1, 0}, &image_);
  EXPECT_EQ(fresh.RunSerialized(carried.data(), carried.size(), nullptr)
                .calls.size(),
            1u);
  EXPECT_TRUE(fresh.has_image());
  EXPECT_EQ(fresh.image_digest(), digest_);
}

TEST_F(MaskHostileTest, TruncatedHeaderRejected) {
  const std::vector<uint8_t> request =
      EncodeMaskRequest(digest_, {1, 1}, nullptr);
  for (size_t len = 0; len < kMaskRequestHeader + 2; ++len) {
    Load();
    ExpectRejected(std::vector<uint8_t>(request.begin(),
                                        request.begin() +
                                            static_cast<long>(len)));
  }
}

TEST_F(MaskHostileTest, StaleImageDigestRejected) {
  ExpectRejected(EncodeMaskRequest(digest_ + 1, {1, 1}, nullptr));
  // The image is gone now, so even the right digest is refused until the
  // program travels again.
  ExpectRejected(EncodeMaskRequest(digest_, {1, 1}, nullptr));
}

TEST_F(MaskHostileTest, NonResidentImageRejected) {
  Executor fresh(BuiltinTarget(),
                 KernelConfig::ForVersion(KernelVersion::kV5_11));
  const std::vector<uint8_t> request =
      EncodeMaskRequest(digest_, {1, 1}, nullptr);
  EXPECT_TRUE(
      fresh.RunSerialized(request.data(), request.size(), nullptr)
          .calls.empty());
  EXPECT_FALSE(fresh.has_image());
}

TEST_F(MaskHostileTest, CallCountDifferentFromImageRejected) {
  ExpectRejected(EncodeMaskRequest(digest_, {1, 1, 1}, nullptr));
  Load();
  ExpectRejected(EncodeMaskRequest(digest_, {1}, nullptr));
}

TEST_F(MaskHostileTest, KeepBytesOutsideZeroOneRejected) {
  for (const uint8_t bad : {uint8_t{2}, uint8_t{0x80}, uint8_t{0xff}}) {
    Load();
    ExpectRejected(EncodeMaskRequest(digest_, {1, bad}, nullptr));
  }
}

TEST_F(MaskHostileTest, CarriedImageWithWrongDigestRejected) {
  ExpectRejected(EncodeMaskRequest(digest_ ^ 1, {1, 1}, &image_));
}

TEST_F(MaskHostileTest, ImageLengthFieldMismatchRejected) {
  std::vector<uint8_t> request = EncodeMaskRequest(digest_, {1, 1}, &image_);
  request.push_back(0);  // Trailing byte past the declared image.
  ExpectRejected(request);
}

TEST_F(MaskHostileTest, RandomBitFlipsNeverCrashTheExecutor) {
  Rng rng(20261017);
  size_t rejected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    if (!executor_.has_image()) {
      Load();
    }
    // Every other trial carries the image, so flips also land in it.
    std::vector<uint8_t> request = EncodeMaskRequest(
        digest_, {1, 1}, trial % 2 == 0 ? nullptr : &image_);
    const int flips = 1 + static_cast<int>(rng.Below(3));
    for (int f = 0; f < flips; ++f) {
      request[rng.Below(request.size())] ^=
          static_cast<uint8_t>(1u << rng.Below(8));
    }
    const ExecResult result = Send(request);
    // A flip that leaves a well-formed mask over the same image (1 -> 0 in
    // a keep byte) replays a subset; everything else is refused.
    EXPECT_LE(result.calls.size(), 2u);
    if (result.calls.empty()) {
      ++rejected;
      EXPECT_FALSE(executor_.has_image());
    }
  }
  EXPECT_GT(rejected, 1500u);
}

// Corruption faults that land on a mask or on an image transfer: the
// damaged request reaches the executor, the result is a typed failure, both
// sides forget the image, and the next execution ships it again — with the
// same injector draws as a VM executing every program whole.
void ExpectCorruptionDropsImage(bool ring) {
  FaultPlan plan;
  plan.set_rate(FaultKind::kTruncatedResult, 0.15);
  plan.set_rate(FaultKind::kBitFlipResult, 0.15);
  SimClock clock;
  SimClock reference_clock;
  MetricRegistry metrics;
  const KernelConfig config = KernelConfig::ForVersion(KernelVersion::kV5_11);
  GuestVm vm(BuiltinTarget(), config, &clock, VmLatencyModel(), plan, 5,
             &metrics);
  GuestVm reference(BuiltinTarget(), config, &reference_clock,
                    VmLatencyModel(), plan, 5);
  auto run = [ring](GuestVm& guest, const ProgImage& image,
                    const CallMask* keep) {
    return ring ? guest.ExecRingOne(image, keep, nullptr)
                : guest.Exec(image, keep, nullptr);
  };
  std::vector<int> ids;
  for (const auto& call : BuiltinTarget().syscalls()) {
    ids.push_back(call->id);
  }
  Rng rng(12);
  const std::vector<CallMask> masks = {{1, 1, 1}, {0, 1, 1}, {1, 0, 1},
                                       {0, 0, 1}, {1, 1, 0}};
  size_t corrupted = 0;
  size_t reshipped = 0;
  for (int p = 0; p < 40; ++p) {
    const Prog prog = BuildChain(BuiltinTarget(), ids,
                                 {"memfd_create", "write$memfd", "close"},
                                 &rng);
    ASSERT_EQ(prog.size(), 3u);
    const ProgImage image(prog);
    bool lost = true;  // A new program always travels.
    for (size_t m = 0; m <= masks.size(); ++m) {
      const CallMask* keep = m == 0 ? nullptr : &masks[m - 1];
      const MetricsSnapshot before = metrics.Snapshot();
      const ExecResult got = run(vm, image, keep);
      const MetricsSnapshot after = metrics.Snapshot();
      const Prog selected =
          keep == nullptr ? prog.Clone() : SelectCalls(prog, *keep);
      ASSERT_TRUE(got == run(reference, ProgImage(selected), nullptr))
          << "program " << p << " mask " << m;
      const uint64_t shipped =
          after.counter("healer_exec_images_shipped_total") -
          before.counter("healer_exec_images_shipped_total");
      if (lost) {
        EXPECT_EQ(shipped, 1u) << "program " << p << " mask " << m;
        reshipped += m > 0 ? 1 : 0;
      } else {
        EXPECT_EQ(shipped, 0u) << "program " << p << " mask " << m;
      }
      lost = got.Failed();
      if (got.failure == ExecFailure::kCorruptedReply) {
        ++corrupted;
        EXPECT_TRUE(got.calls.empty());
        EXPECT_FALSE(vm.HoldsImage(image));
        EXPECT_FALSE(vm.executor().has_image());
      }
    }
  }
  EXPECT_EQ(clock.now(), reference_clock.now());
  EXPECT_EQ(vm.injector().injected(), reference.injector().injected());
  EXPECT_GT(corrupted, 10u);
  EXPECT_GT(reshipped, 5u);
}

TEST(MaskFaultHostileTest, CorruptedTransfersDropTheImageOverShm) {
  ExpectCorruptionDropsImage(false);
}

TEST(MaskFaultHostileTest, CorruptedTransfersDropTheImageOverRing) {
  ExpectCorruptionDropsImage(true);
}

}  // namespace
}  // namespace healer
