// Compact wire serialization for programs.
//
// Mirrors the paper's executor transport: test cases are "serialized into a
// compact internal representation" and carried to the executor over the
// shared-memory channel. Decoding re-derives types by walking the syscall
// metadata in lockstep with the byte stream, so the format carries only the
// dynamic choices (values, sizes, union picks, resource refs).
//
// A guest decodes each program once into a flat DecodedImage and keeps it as
// its resident image, so an execution that only drops calls from it travels
// as a call-mask request instead of a second copy of the program
// (DESIGN.md §9).

#ifndef SRC_PROG_SERIALIZE_H_
#define SRC_PROG_SERIALIZE_H_

#include <cstdint>
#include <vector>

#include "src/base/status.h"
#include "src/prog/prog.h"

namespace healer {

// Encodes `prog` into a self-contained byte buffer.
std::vector<uint8_t> SerializeProg(const Prog& prog);

// Decodes a buffer produced by SerializeProg against `target`, placing the
// arg nodes in `arena` (nullptr → heap). The tree is built from a
// DecodedImage, so it fails exactly when DecodedImage::Decode does: on
// truncated input, unknown syscall ids, structure mismatches, or resource
// refs that don't point at an earlier, compatible producer call — a
// returned Prog already satisfies Prog::Validate(), so bulk loaders need no
// second validation walk.
Result<Prog> DeserializeProg(const Target& target, const uint8_t* data,
                             size_t size, ProgArena* arena = nullptr);

// One argument of a DecodedImage. Nodes are stored in pre-order: the
// subtree of node i is [i, end), and the children of a pointer, group or
// union are the subtrees that tile [i + 1, end) one after another.
struct ImageArg {
  const Type* type = nullptr;
  ArgKind kind = ArgKind::kConstant;
  // One past the last node of this arg's subtree.
  uint32_t end = 0;
  // Bytes the arg occupies in guest memory, as Arg::Size() computes it.
  uint64_t size = 0;
  // kConstant and resource specials: the value. kVma: the address.
  uint64_t val = 0;
  // kVma: the mapping length in pages.
  uint64_t vma_pages = 0;
  // kData: where the payload (`size` bytes) starts in the image bytes.
  uint32_t data_offset = 0;
  // kUnion: index of the active field within type->fields.
  int32_t union_index = 0;
  // kResource: as Arg::res_ref and Arg::res_slot.
  int32_t res_ref = -1;
  int32_t res_slot = 0;
};

// One call of a DecodedImage: its arguments are the subtrees that tile the
// node range [first_arg, end), one per entry of meta->args.
struct ImageCall {
  const Syscall* meta = nullptr;
  uint32_t first_arg = 0;
  uint32_t end = 0;
};

// A program image decoded once into flat arrays, with its own copy of the
// wire bytes. A guest replays it for its full run and for every call mask
// over it without building an Arg tree, and DeserializeProg builds its tree
// from one, so Decode() is the only place the wire format is validated.
// Decoding again reuses the buffers' capacity.
class DecodedImage {
 public:
  // Replaces the contents with the program `data` encodes against
  // `target`. On failure the image is left empty.
  Status Decode(const Target& target, const uint8_t* data, size_t size);
  void Clear();

  const std::vector<ImageCall>& calls() const { return calls_; }
  const ImageArg& arg(uint32_t node) const { return args_[node]; }
  // The payload of a kData node.
  const uint8_t* data(const ImageArg& arg) const {
    return bytes_.data() + arg.data_offset;
  }

 private:
  friend class ImageDecoder;

  std::vector<uint8_t> bytes_;
  std::vector<ImageCall> calls_;
  std::vector<ImageArg> args_;
};

// Names a program image by its wire bytes.
uint64_t ImageDigest(const uint8_t* data, size_t size);

// A program as the host ships it to guests. The wire bytes and their digest
// are computed on first use and shared by every guest the image travels to.
// The program must outlive the image and stay unchanged while it is in use.
class ProgImage {
 public:
  explicit ProgImage(const Prog& prog) : prog_(&prog) {}

  const Prog& prog() const { return *prog_; }
  const std::vector<uint8_t>& bytes() const;
  uint64_t digest() const;
  // SerializeProg(SelectCalls(prog(), *keep)).size() without building it
  // (nullptr: every call). A degraded resource reference encodes in as many
  // bytes as a live one, so the selection is the kept calls' encodings.
  size_t WireSize(const CallMask* keep) const;

 private:
  const Prog* prog_;
  mutable std::vector<uint8_t> bytes_;  // Empty until first use.
  mutable std::vector<uint32_t> call_ends_;  // End offset of each call.
  mutable uint64_t digest_ = 0;
};

// ---- call-mask requests ----
//
// Runs an image under a keep mask. Layout (little endian):
//
//   u32 magic "HMK1" | u64 image digest | u32 call count | u32 image length
//   | u8 keep[call count], each 0 or 1 | image length bytes of image
//
// With image length 0 the guest replays the image it already holds, which
// must carry the same digest and call count; otherwise it first loads the
// attached image, whose digest must match.
inline constexpr uint32_t kMaskRequestMagic = 0x484d4b31;  // "HMK1"
inline constexpr size_t kMaskRequestHeader = 20;

// `image` is null when the guest already holds the image.
std::vector<uint8_t> EncodeMaskRequest(uint64_t digest, const CallMask& keep,
                                       const std::vector<uint8_t>* image);

// A decoded request; the pointers alias the buffer it was decoded from.
struct MaskRequest {
  uint64_t digest = 0;
  const uint8_t* keep = nullptr;
  size_t calls = 0;
  const uint8_t* image = nullptr;  // Null when none is attached.
  size_t image_size = 0;
};

// True when `data` starts with the mask-request magic.
bool IsMaskRequest(const uint8_t* data, size_t size);

// Structural decode: fails on a bad magic, a truncated header or body, a
// keep byte outside {0, 1}, or trailing bytes.
Result<MaskRequest> DecodeMaskRequest(const uint8_t* data, size_t size);

}  // namespace healer

#endif  // SRC_PROG_SERIALIZE_H_
