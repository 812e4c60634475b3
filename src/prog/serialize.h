// Compact wire serialization for programs.
//
// Mirrors the paper's executor transport: test cases are "serialized into a
// compact internal representation" and carried to the executor over the
// shared-memory channel. Decoding re-derives types by walking the syscall
// metadata in lockstep with the byte stream, so the format carries only the
// dynamic choices (values, sizes, union picks, resource refs).
//
// A guest keeps the last program it decoded as its resident image, so an
// execution that only drops calls from it travels as a call-mask request
// instead of a second copy of the program (DESIGN.md §9).

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
// arg nodes in `arena` (nullptr → heap). Fails on truncated input, unknown
// syscall ids, structure mismatches, or resource refs that don't point at
// an earlier, compatible producer call — a returned Prog already satisfies
// Prog::Validate(), so bulk loaders need no second validation walk.
Result<Prog> DeserializeProg(const Target& target, const uint8_t* data,
                             size_t size, ProgArena* arena = nullptr);

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
