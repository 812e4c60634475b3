#include "src/prog/serialize.h"

#include <algorithm>
#include <bit>
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

// Wire words are little endian, and Writer and Reader move each one with a
// single host-order copy, as the corpus and gossip codecs do.
static_assert(std::endian::native == std::endian::little);

// Writer over a pre-sized buffer: each field is one store of its whole
// width, and the buffer grows only when the size estimate was short.
class Writer {
 public:
  explicit Writer(size_t estimate) : buf_(estimate) {}

  void U8(uint8_t v) { *Claim(1) = v; }
  void U32(uint32_t v) { Store(v); }
  void U64(uint64_t v) { Store(v); }
  void Raw(const uint8_t* data, size_t size) {
    if (size > 0) {
      std::memcpy(Claim(size), data, size);
    }
  }
  void Bytes(const std::vector<uint8_t>& data) {
    U32(static_cast<uint32_t>(data.size()));
    Raw(data.data(), data.size());
  }
  size_t size() const { return pos_; }
  std::vector<uint8_t> Take() {
    buf_.resize(pos_);
    return std::move(buf_);
  }

 private:
  uint8_t* Claim(size_t n) {
    if (buf_.size() - pos_ < n) {
      buf_.resize(std::max(buf_.size() * 2, pos_ + n));
    }
    uint8_t* at = buf_.data() + pos_;
    pos_ += n;
    return at;
  }
  template <typename T>
  void Store(T v) {
    std::memcpy(Claim(sizeof(T)), &v, sizeof(T));
  }

  std::vector<uint8_t> buf_;
  size_t pos_ = 0;
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
  bool U32(uint32_t* v) { return Load(v); }
  bool U64(uint64_t* v) { return Load(v); }
  // A u32 length and that many payload bytes, which stay in the buffer:
  // `offset` receives where they start.
  bool Span(uint32_t* offset, uint32_t* len) {
    if (!U32(len) || pos_ + *len > size_ || *len > (1 << 20)) {
      return false;
    }
    *offset = static_cast<uint32_t>(pos_);
    pos_ += *len;
    return true;
  }
  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }
  const uint8_t* cursor() const { return data_ + pos_; }
  void Skip(size_t n) { pos_ += n; }

 private:
  template <typename T>
  bool Load(T* v) {
    if (pos_ + sizeof(T) > size_) {
      return false;
    }
    std::memcpy(v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

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

constexpr size_t kProgHeader = 8;  // Magic and call count.

// Encodes `prog`, recording where each call's encoding ends in `call_ends`
// when it is non-null.
std::vector<uint8_t> Encode(const Prog& prog,
                            std::vector<uint32_t>* call_ends) {
  // A typical encoded call is a few tens of bytes; one up-front estimate
  // replaces the doubling-growth reallocations that showed up in the
  // allocation audit (bench_hotpath counts ~4 fewer allocs per serialize).
  Writer w(16 + prog.size() * 96);
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

// Hostile input can nest pointer/group tags arbitrarily deep; genuine
// programs never come close to this bound.
constexpr int kMaxDecodeDepth = 64;

// Builds the Arg tree of `node`'s subtree.
ArgPtr BuildArg(const DecodedImage& image, uint32_t node, ProgArena* arena) {
  const ImageArg& arg = image.arg(node);
  switch (arg.kind) {
    case ArgKind::kConstant:
      return MakeConstant(arg.type, arg.val, arena);
    case ArgKind::kData: {
      const uint8_t* data = image.data(arg);
      return MakeData(arg.type, std::vector<uint8_t>(data, data + arg.size),
                      arena);
    }
    case ArgKind::kPointer:
      if (arg.end == node + 1) {
        return MakeNullPointer(arg.type, arena);
      }
      return MakePointer(arg.type, BuildArg(image, node + 1, arena), arena);
    case ArgKind::kGroup: {
      size_t count = 0;
      for (uint32_t c = node + 1; c < arg.end; c = image.arg(c).end) {
        ++count;
      }
      std::vector<ArgPtr> inner;
      inner.reserve(count);
      for (uint32_t c = node + 1; c < arg.end; c = image.arg(c).end) {
        inner.push_back(BuildArg(image, c, arena));
      }
      return MakeGroup(arg.type, std::move(inner), arena);
    }
    case ArgKind::kUnion:
      return MakeUnion(arg.type, arg.union_index,
                       BuildArg(image, node + 1, arena), arena);
    case ArgKind::kResource: {
      ArgPtr out = MakeResourceRef(arg.type, arg.res_ref, arg.res_slot, arena);
      out->val = arg.val;
      return out;
    }
    case ArgKind::kVma:
      return MakeVma(arg.type, arg.val, arg.vma_pages, arena);
  }
  return nullptr;
}

}  // namespace

// Validates a DecodedImage's bytes while appending its calls and nodes.
// Each arg is checked against its type as it is read, and resource refs
// against the calls decoded before the current one, so an accepted image
// needs no separate Validate() walk. The first failure stops the decode.
class ImageDecoder {
 public:
  ImageDecoder(const Target& target, DecodedImage& image)
      : target_(target),
        image_(image),
        r_(image.bytes_.data(), image.bytes_.size()) {}

  Status Decode() {
    uint32_t magic;
    uint32_t ncalls;
    if (!r_.U32(&magic) || magic != kMagic) {
      return ParseError("bad magic");
    }
    if (!r_.U32(&ncalls) || ncalls > 1024) {
      return ParseError("bad call count");
    }
    image_.calls_.reserve(ncalls);
    for (uint32_t i = 0; i < ncalls; ++i) {
      uint32_t id;
      uint32_t nargs;
      if (!r_.U32(&id) || !r_.U32(&nargs)) {
        return ParseError("truncated call header");
      }
      if (id >= target_.NumSyscalls()) {
        return ParseError(StrFormat("unknown syscall id %u", id));
      }
      const Syscall& meta = target_.syscall(static_cast<int>(id));
      if (nargs != meta.args.size()) {
        return ParseError(StrFormat("call %s: arg count mismatch",
                                    meta.name.c_str()));
      }
      ImageCall call;
      call.meta = &meta;
      call.first_arg = Next();
      for (uint32_t ai = 0; ai < nargs; ++ai) {
        if (!DecodeArg(meta.args[ai].type, 0)) {
          return std::move(error_);
        }
      }
      call.end = Next();
      image_.calls_.push_back(call);
    }
    if (!r_.AtEnd()) {
      return ParseError("trailing bytes after program");
    }
    return OkStatus();
  }

 private:
  uint32_t Next() const { return static_cast<uint32_t>(image_.args_.size()); }

  bool Fail(std::string message) {
    error_ = ParseError(std::move(message));
    return false;
  }

  // Appends a leaf node; pointers, groups and unions extend `end` over the
  // children they decode next.
  ImageArg& Append(const Type* type, ArgKind kind, uint64_t size) {
    ImageArg& arg = image_.args_.emplace_back();
    arg.type = type;
    arg.kind = kind;
    arg.end = Next();
    arg.size = size;
    return arg;
  }

  // Byte size of a scalar arg of `type`, as Arg::Size() computes it.
  static uint64_t ScalarSize(const Type* type) {
    return type != nullptr ? type->ByteSize() : 8;
  }

  // Decodes one arg of type `type`, validating its tag against the type
  // kind, and appends its subtree.
  bool DecodeArg(const Type* type, int depth) {
    if (depth > kMaxDecodeDepth) {
      return Fail("arg nesting too deep");
    }
    uint8_t tag_byte;
    if (!r_.U8(&tag_byte)) {
      return Fail("truncated arg tag");
    }
    switch (static_cast<Tag>(tag_byte)) {
      case Tag::kConstant: {
        uint64_t val;
        if (!r_.U64(&val)) {
          return Fail("truncated constant");
        }
        Append(type, ArgKind::kConstant, ScalarSize(type)).val = val;
        return true;
      }
      case Tag::kData: {
        uint32_t offset;
        uint32_t len;
        if (!r_.Span(&offset, &len)) {
          return Fail("truncated data arg");
        }
        Append(type, ArgKind::kData, len).data_offset = offset;
        return true;
      }
      case Tag::kNullPointer:
        Append(type, ArgKind::kPointer, 8);
        return true;
      case Tag::kPointer: {
        if (type == nullptr || type->kind != TypeKind::kPtr) {
          return Fail("pointer tag for non-pointer type");
        }
        const uint32_t at = Next();
        Append(type, ArgKind::kPointer, 8);
        if (!DecodeArg(type->elem, depth + 1)) {
          return false;
        }
        image_.args_[at].end = Next();
        return true;
      }
      case Tag::kGroup: {
        uint32_t count;
        if (!r_.U32(&count) || count > 4096) {
          return Fail("bad group count");
        }
        const bool is_struct =
            type != nullptr && type->kind == TypeKind::kStruct;
        if (is_struct && count != type->fields.size()) {
          return Fail("struct field count mismatch");
        }
        if (!is_struct &&
            (type == nullptr || type->kind != TypeKind::kArray)) {
          return Fail("group tag for non-aggregate type");
        }
        const uint32_t at = Next();
        Append(type, ArgKind::kGroup, 0);
        uint64_t size = 0;
        for (uint32_t i = 0; i < count; ++i) {
          const uint32_t child = Next();
          if (!DecodeArg(is_struct ? type->fields[i].type : type->array_elem,
                         depth + 1)) {
            return false;
          }
          size += image_.args_[child].size;
        }
        ImageArg& arg = image_.args_[at];
        arg.end = Next();
        arg.size = size;
        return true;
      }
      case Tag::kUnion: {
        if (type == nullptr || type->kind != TypeKind::kUnion) {
          return Fail("union tag for non-union type");
        }
        uint32_t index;
        if (!r_.U32(&index) || index >= type->fields.size()) {
          return Fail("bad union index");
        }
        const uint32_t at = Next();
        Append(type, ArgKind::kUnion, 0).union_index =
            static_cast<int32_t>(index);
        if (!DecodeArg(type->fields[index].type, depth + 1)) {
          return false;
        }
        ImageArg& arg = image_.args_[at];
        arg.end = Next();
        arg.size = image_.args_[at + 1].size;
        return true;
      }
      case Tag::kResourceRef: {
        uint32_t ref;
        uint32_t slot;
        if (!r_.U32(&ref) || !r_.U32(&slot)) {
          return Fail("truncated resource ref");
        }
        // A non-degraded ref must point at an earlier call whose syscall
        // produces a compatible resource (mirroring Prog::Validate).
        const int ref_idx = static_cast<int>(ref);
        if (ref_idx >= 0) {
          if (static_cast<size_t>(ref_idx) >= image_.calls_.size()) {
            return Fail("resource ref not before the call");
          }
          if (type == nullptr || type->resource == nullptr) {
            return Fail("resource arg without resource type");
          }
          const Syscall* producer = image_.calls_[ref_idx].meta;
          bool compatible = false;
          for (const ResourceDesc* produced : producer->produced_resources) {
            if (produced->IsCompatibleWith(type->resource)) {
              compatible = true;
              break;
            }
          }
          if (!compatible) {
            return Fail("resource ref producer type mismatch");
          }
        }
        ImageArg& arg = Append(type, ArgKind::kResource, ScalarSize(type));
        arg.res_ref = ref_idx;
        arg.res_slot = static_cast<int32_t>(slot);
        return true;
      }
      case Tag::kResourceSpecial: {
        uint64_t val;
        if (!r_.U64(&val)) {
          return Fail("truncated resource special");
        }
        Append(type, ArgKind::kResource, ScalarSize(type)).val = val;
        return true;
      }
      case Tag::kVma: {
        uint64_t addr;
        uint64_t pages;
        if (!r_.U64(&addr) || !r_.U64(&pages)) {
          return Fail("truncated vma arg");
        }
        ImageArg& arg = Append(type, ArgKind::kVma, 8);
        arg.val = addr;
        arg.vma_pages = pages;
        return true;
      }
    }
    return Fail(StrFormat("unknown arg tag %u", tag_byte));
  }

  const Target& target_;
  DecodedImage& image_;
  Reader r_;
  Status error_;
};

Status DecodedImage::Decode(const Target& target, const uint8_t* data,
                            size_t size) {
  bytes_.assign(data, data + size);
  calls_.clear();
  args_.clear();
  Status status = ImageDecoder(target, *this).Decode();
  if (!status.ok()) {
    Clear();
  }
  return status;
}

void DecodedImage::Clear() {
  bytes_.clear();
  calls_.clear();
  args_.clear();
}

std::vector<uint8_t> SerializeProg(const Prog& prog) {
  return Encode(prog, nullptr);
}

Result<Prog> DeserializeProg(const Target& target, const uint8_t* data,
                             size_t size, ProgArena* arena) {
  // Bulk loaders (corpus loads, gossip seed imports) decode program after
  // program; a per-thread image reuses its buffers instead of growing fresh
  // ones for each.
  thread_local DecodedImage image;
  HEALER_RETURN_IF_ERROR(image.Decode(target, data, size));
  Prog prog(&target);
  prog.calls().reserve(image.calls().size());
  for (const ImageCall& decoded : image.calls()) {
    Call call;
    call.meta = decoded.meta;
    call.args.reserve(decoded.meta->args.size());
    for (uint32_t node = decoded.first_arg; node < decoded.end;
         node = image.arg(node).end) {
      call.args.push_back(BuildArg(image, node, arena));
    }
    prog.calls().push_back(std::move(call));
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
  const size_t image_size = image != nullptr ? image->size() : 0;
  Writer w(kMaskRequestHeader + keep.size() + image_size);
  w.U32(kMaskRequestMagic);
  w.U64(digest);
  w.U32(static_cast<uint32_t>(keep.size()));
  w.U32(static_cast<uint32_t>(image_size));
  w.Raw(keep.data(), keep.size());
  if (image != nullptr) {
    w.Raw(image->data(), image->size());
  }
  return w.Take();
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
