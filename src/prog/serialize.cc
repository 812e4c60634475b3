#include "src/prog/serialize.h"

#include <cstring>

#include "src/base/hash.h"
#include "src/base/string_util.h"

namespace healer {

namespace {

constexpr uint32_t kMagic = 0x48454131;  // "HEA1"

enum class Tag : uint8_t {
  kConstant = 0,
  kData = 1,
  kPointer = 2,
  kNullPointer = 3,
  kGroup = 4,
  kUnion = 5,
  kResourceRef = 6,
  kResourceSpecial = 7,
  kVma = 8,
};

class Writer {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void Bytes(const std::vector<uint8_t>& data) {
    U32(static_cast<uint32_t>(data.size()));
    buf_.insert(buf_.end(), data.begin(), data.end());
  }
  void Reserve(size_t bytes) { buf_.reserve(bytes); }
  size_t size() const { return buf_.size(); }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool U8(uint8_t* v) {
    if (pos_ + 1 > size_) {
      return false;
    }
    *v = data_[pos_++];
    return true;
  }
  bool U32(uint32_t* v) {
    if (pos_ + 4 > size_) {
      return false;
    }
    uint32_t out = 0;
    for (int i = 0; i < 4; ++i) {
      out |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    *v = out;
    return true;
  }
  bool U64(uint64_t* v) {
    if (pos_ + 8 > size_) {
      return false;
    }
    uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    *v = out;
    return true;
  }
  bool Bytes(std::vector<uint8_t>* out) {
    uint32_t len;
    if (!U32(&len) || pos_ + len > size_ || len > (1 << 20)) {
      return false;
    }
    out->assign(data_ + pos_, data_ + pos_ + len);
    pos_ += len;
    return true;
  }
  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }
  const uint8_t* cursor() const { return data_ + pos_; }
  void Skip(size_t n) { pos_ += n; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

void EncodeArg(const Arg& arg, Writer& w) {
  switch (arg.kind) {
    case ArgKind::kConstant:
      w.U8(static_cast<uint8_t>(Tag::kConstant));
      w.U64(arg.val);
      break;
    case ArgKind::kData:
      w.U8(static_cast<uint8_t>(Tag::kData));
      w.Bytes(arg.data);
      break;
    case ArgKind::kPointer:
      if (arg.pointee == nullptr) {
        w.U8(static_cast<uint8_t>(Tag::kNullPointer));
      } else {
        w.U8(static_cast<uint8_t>(Tag::kPointer));
        EncodeArg(*arg.pointee, w);
      }
      break;
    case ArgKind::kGroup:
      w.U8(static_cast<uint8_t>(Tag::kGroup));
      w.U32(static_cast<uint32_t>(arg.inner.size()));
      for (const auto& child : arg.inner) {
        EncodeArg(*child, w);
      }
      break;
    case ArgKind::kUnion:
      w.U8(static_cast<uint8_t>(Tag::kUnion));
      w.U32(static_cast<uint32_t>(arg.union_index));
      EncodeArg(*arg.inner[0], w);
      break;
    case ArgKind::kResource:
      if (arg.res_ref >= 0) {
        w.U8(static_cast<uint8_t>(Tag::kResourceRef));
        w.U32(static_cast<uint32_t>(arg.res_ref));
        w.U32(static_cast<uint32_t>(arg.res_slot));
      } else {
        w.U8(static_cast<uint8_t>(Tag::kResourceSpecial));
        w.U64(arg.val);
      }
      break;
    case ArgKind::kVma:
      w.U8(static_cast<uint8_t>(Tag::kVma));
      w.U64(arg.val);
      w.U64(arg.vma_pages);
      break;
  }
}

// Hostile input can nest pointer/group tags arbitrarily deep; genuine
// programs never come close to this bound.
constexpr int kMaxDecodeDepth = 64;

// Decodes one arg of type `type`, validating tags against the type kind.
// `prog` holds the calls decoded so far (the current call is not yet
// appended), so resource refs are semantically checked in this same pass —
// accepted programs need no separate Validate() walk.
Result<ArgPtr> DecodeArg(const Type* type, Reader& r, const Prog& prog,
                         ProgArena* arena, int depth = 0) {
  if (depth > kMaxDecodeDepth) {
    return ParseError("arg nesting too deep");
  }
  uint8_t tag_byte;
  if (!r.U8(&tag_byte)) {
    return ParseError("truncated arg tag");
  }
  const Tag tag = static_cast<Tag>(tag_byte);
  switch (tag) {
    case Tag::kConstant: {
      uint64_t val;
      if (!r.U64(&val)) {
        return ParseError("truncated constant");
      }
      return MakeConstant(type, val, arena);
    }
    case Tag::kData: {
      std::vector<uint8_t> data;
      if (!r.Bytes(&data)) {
        return ParseError("truncated data arg");
      }
      return MakeData(type, std::move(data), arena);
    }
    case Tag::kNullPointer:
      return MakeNullPointer(type, arena);
    case Tag::kPointer: {
      if (type == nullptr || type->kind != TypeKind::kPtr) {
        return ParseError("pointer tag for non-pointer type");
      }
      HEALER_ASSIGN_OR_RETURN(ArgPtr pointee,
                              DecodeArg(type->elem, r, prog, arena, depth + 1));
      return MakePointer(type, std::move(pointee), arena);
    }
    case Tag::kGroup: {
      uint32_t count;
      if (!r.U32(&count) || count > 4096) {
        return ParseError("bad group count");
      }
      std::vector<ArgPtr> inner;
      inner.reserve(count);
      if (type != nullptr && type->kind == TypeKind::kStruct) {
        if (count != type->fields.size()) {
          return ParseError("struct field count mismatch");
        }
        for (uint32_t i = 0; i < count; ++i) {
          HEALER_ASSIGN_OR_RETURN(
              ArgPtr child,
              DecodeArg(type->fields[i].type, r, prog, arena, depth + 1));
          inner.push_back(std::move(child));
        }
      } else if (type != nullptr && type->kind == TypeKind::kArray) {
        for (uint32_t i = 0; i < count; ++i) {
          HEALER_ASSIGN_OR_RETURN(
              ArgPtr child,
              DecodeArg(type->array_elem, r, prog, arena, depth + 1));
          inner.push_back(std::move(child));
        }
      } else {
        return ParseError("group tag for non-aggregate type");
      }
      return MakeGroup(type, std::move(inner), arena);
    }
    case Tag::kUnion: {
      if (type == nullptr || type->kind != TypeKind::kUnion) {
        return ParseError("union tag for non-union type");
      }
      uint32_t index;
      if (!r.U32(&index) || index >= type->fields.size()) {
        return ParseError("bad union index");
      }
      HEALER_ASSIGN_OR_RETURN(
          ArgPtr child, DecodeArg(type->fields[index].type, r, prog, arena, depth + 1));
      return MakeUnion(type, static_cast<int>(index), std::move(child), arena);
    }
    case Tag::kResourceRef: {
      uint32_t ref;
      uint32_t slot;
      if (!r.U32(&ref) || !r.U32(&slot)) {
        return ParseError("truncated resource ref");
      }
      // Refs are semantically checked here (mirroring Prog::Validate): a
      // non-degraded ref must point at an earlier call whose syscall
      // produces a compatible resource.
      const int ref_idx = static_cast<int>(ref);
      if (ref_idx >= 0) {
        if (static_cast<size_t>(ref_idx) >= prog.size()) {
          return ParseError("resource ref not before the call");
        }
        if (type == nullptr || type->resource == nullptr) {
          return ParseError("resource arg without resource type");
        }
        const Syscall* producer = prog.calls()[ref_idx].meta;
        bool compatible = false;
        for (const ResourceDesc* produced : producer->produced_resources) {
          if (produced->IsCompatibleWith(type->resource)) {
            compatible = true;
            break;
          }
        }
        if (!compatible) {
          return ParseError("resource ref producer type mismatch");
        }
      }
      return MakeResourceRef(type, ref_idx, static_cast<int>(slot), arena);
    }
    case Tag::kResourceSpecial: {
      uint64_t val;
      if (!r.U64(&val)) {
        return ParseError("truncated resource special");
      }
      return MakeResourceSpecial(type, val, arena);
    }
    case Tag::kVma: {
      uint64_t addr;
      uint64_t pages;
      if (!r.U64(&addr) || !r.U64(&pages)) {
        return ParseError("truncated vma arg");
      }
      return MakeVma(type, addr, pages, arena);
    }
  }
  return ParseError(StrFormat("unknown arg tag %u", tag_byte));
}

constexpr size_t kProgHeader = 8;  // Magic and call count.

// Encodes `prog`, recording where each call's encoding ends in `call_ends`
// when it is non-null.
std::vector<uint8_t> Encode(const Prog& prog,
                            std::vector<uint32_t>* call_ends) {
  Writer w;
  // A typical encoded call is a few tens of bytes; one up-front estimate
  // replaces the doubling-growth reallocations that showed up in the
  // allocation audit (bench_hotpath counts ~4 fewer allocs per serialize).
  w.Reserve(16 + prog.size() * 96);
  w.U32(kMagic);
  w.U32(static_cast<uint32_t>(prog.size()));
  for (const Call& call : prog.calls()) {
    w.U32(static_cast<uint32_t>(call.meta->id));
    w.U32(static_cast<uint32_t>(call.args.size()));
    for (const auto& arg : call.args) {
      EncodeArg(*arg, w);
    }
    if (call_ends != nullptr) {
      call_ends->push_back(static_cast<uint32_t>(w.size()));
    }
  }
  return w.Take();
}

}  // namespace

std::vector<uint8_t> SerializeProg(const Prog& prog) {
  return Encode(prog, nullptr);
}

Result<Prog> DeserializeProg(const Target& target, const uint8_t* data,
                             size_t size, ProgArena* arena) {
  Reader r(data, size);
  uint32_t magic;
  uint32_t ncalls;
  if (!r.U32(&magic) || magic != kMagic) {
    return ParseError("bad magic");
  }
  if (!r.U32(&ncalls) || ncalls > 1024) {
    return ParseError("bad call count");
  }
  Prog prog(&target);
  for (uint32_t i = 0; i < ncalls; ++i) {
    uint32_t id;
    uint32_t nargs;
    if (!r.U32(&id) || !r.U32(&nargs)) {
      return ParseError("truncated call header");
    }
    if (id >= target.NumSyscalls()) {
      return ParseError(StrFormat("unknown syscall id %u", id));
    }
    const Syscall& meta = target.syscall(static_cast<int>(id));
    if (nargs != meta.args.size()) {
      return ParseError(StrFormat("call %s: arg count mismatch",
                                  meta.name.c_str()));
    }
    Call call;
    call.meta = &meta;
    for (uint32_t ai = 0; ai < nargs; ++ai) {
      HEALER_ASSIGN_OR_RETURN(ArgPtr arg,
                              DecodeArg(meta.args[ai].type, r, prog, arena));
      call.args.push_back(std::move(arg));
    }
    prog.calls().push_back(std::move(call));
  }
  if (!r.AtEnd()) {
    return ParseError("trailing bytes after program");
  }
  return prog;
}

uint64_t ImageDigest(const uint8_t* data, size_t size) {
  return FastBytesHash(
      std::string_view(reinterpret_cast<const char*>(data), size));
}

const std::vector<uint8_t>& ProgImage::bytes() const {
  if (bytes_.empty()) {
    call_ends_.reserve(prog_->size());
    bytes_ = Encode(*prog_, &call_ends_);
    digest_ = ImageDigest(bytes_.data(), bytes_.size());
  }
  return bytes_;
}

uint64_t ProgImage::digest() const {
  bytes();
  return digest_;
}

size_t ProgImage::WireSize(const CallMask* keep) const {
  bytes();
  if (keep == nullptr) {
    return bytes_.size();
  }
  size_t size = kProgHeader;
  for (size_t i = 0; i < call_ends_.size(); ++i) {
    if ((*keep)[i] != 0) {
      size += call_ends_[i] - (i == 0 ? kProgHeader : call_ends_[i - 1]);
    }
  }
  return size;
}

std::vector<uint8_t> EncodeMaskRequest(uint64_t digest, const CallMask& keep,
                                       const std::vector<uint8_t>* image) {
  Writer w;
  const size_t image_size = image != nullptr ? image->size() : 0;
  w.Reserve(kMaskRequestHeader + keep.size() + image_size);
  w.U32(kMaskRequestMagic);
  w.U64(digest);
  w.U32(static_cast<uint32_t>(keep.size()));
  w.U32(static_cast<uint32_t>(image_size));
  std::vector<uint8_t> out = w.Take();
  out.insert(out.end(), keep.begin(), keep.end());
  if (image != nullptr) {
    out.insert(out.end(), image->begin(), image->end());
  }
  return out;
}

bool IsMaskRequest(const uint8_t* data, size_t size) {
  uint32_t magic;
  return Reader(data, size).U32(&magic) && magic == kMaskRequestMagic;
}

Result<MaskRequest> DecodeMaskRequest(const uint8_t* data, size_t size) {
  Reader r(data, size);
  uint32_t magic;
  uint32_t calls;
  uint32_t image_size;
  MaskRequest req;
  if (!r.U32(&magic) || magic != kMaskRequestMagic) {
    return ParseError("bad mask magic");
  }
  if (!r.U64(&req.digest) || !r.U32(&calls) || !r.U32(&image_size)) {
    return ParseError("truncated mask header");
  }
  if (calls > r.remaining()) {
    return ParseError("truncated keep mask");
  }
  req.calls = calls;
  req.keep = r.cursor();
  for (size_t i = 0; i < req.calls; ++i) {
    if (req.keep[i] > 1) {
      return ParseError(StrFormat("keep byte %zu is not 0 or 1", i));
    }
  }
  r.Skip(req.calls);
  if (image_size != r.remaining()) {
    return ParseError("image length does not match the request");
  }
  if (image_size > 0) {
    req.image = r.cursor();
    req.image_size = image_size;
  }
  return req;
}

}  // namespace healer
