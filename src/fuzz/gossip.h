// HGSP1: the cross-shard gossip wire format (DESIGN.md §13).
//
// A gossip exchange is a byte stream of length-prefixed frames. Each frame
// carries one kind of shard state delta:
//
//   kRelations — dynamic relation edges (the RelationDelta tail of the
//                origin's edge log), as (from, to) syscall-id pairs.
//   kCoverage  — fresh coverage words: (word_index, word_value) pairs of the
//                origin's campaign bitmap that changed since its last emit.
//   kSeeds     — newly archived corpus programs, each a SerializeProg blob.
//
// Frame layout (all integers host-endian, matching the serialize layer):
//
//   offset size field
//        0    4 magic "HGSP"
//        4    1 version (kGossipVersion)
//        5    1 frame type
//        6    2 reserved (must be zero)
//        8    4 origin shard id
//       12    4 payload length
//       16    8 per-origin sequence number
//       24    8 payload checksum (FastBytesHash)
//       32    — payload bytes
//
// Hostile-input posture mirrors the HCORP1 loader and the program wire codec:
// every length is bounds-checked before use, the payload checksum is
// verified before the payload is parsed, unknown versions/types are typed
// parse errors, and payload decoders validate every id/index against the
// receiver's own limits. A decoder never trusts a peer: a malicious or
// corrupt frame must fail loudly, not corrupt shard state (the
// GossipHostileTest suite in wire_hostile_test.cc pins this).
//
// Replay protection: (origin, seq) identifies a frame; GossipDedup drops
// duplicates so re-delivered or replayed frames cannot double-credit the
// exactly-once relation/coverage accounting.

#ifndef SRC_FUZZ_GOSSIP_H_
#define SRC_FUZZ_GOSSIP_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/base/status.h"
#include "src/fuzz/relation_table.h"
#include "src/syzlang/target.h"

namespace healer {

inline constexpr uint8_t kGossipVersion = 1;
inline constexpr size_t kGossipHeaderBytes = 32;
// Largest accepted payload: bounds a hostile frame's allocation. Generous —
// a full 1024-word coverage map is 12 KiB and a seed batch is far smaller.
inline constexpr size_t kGossipMaxPayload = 4u << 20;
// Per-frame caps for the typed payloads, enforced on decode.
inline constexpr size_t kGossipMaxEdges = 1u << 16;
inline constexpr size_t kGossipMaxWords = 1u << 16;
inline constexpr size_t kGossipMaxSeeds = 1u << 10;
inline constexpr size_t kGossipMaxSeedBytes = 1u << 20;

enum class GossipFrameType : uint8_t {
  kRelations = 1,
  kCoverage = 2,
  kSeeds = 3,
};

struct GossipFrame {
  GossipFrameType type = GossipFrameType::kRelations;
  uint32_t origin = 0;
  uint64_t seq = 0;
  std::vector<uint8_t> payload;
};

// Appends one encoded frame to `out`.
void AppendGossipFrame(const GossipFrame& frame, std::vector<uint8_t>* out);

// Decodes the frame at `data` and sets `*consumed` to its total encoded
// size. Fails (typed parse error) on truncation, bad magic/version/type,
// oversized payloads, or checksum mismatch; `*consumed` is untouched on
// failure, so a stream decoder stops at the first hostile byte.
Result<GossipFrame> DecodeGossipFrame(const uint8_t* data, size_t size,
                                      size_t* consumed);

// Decodes a whole exchange buffer into frames. All-or-nothing: any bad
// frame fails the stream (a partially applied exchange would break the
// reconciliation identities).
Result<std::vector<GossipFrame>> DecodeGossipStream(const uint8_t* data,
                                                    size_t size);

// ---- typed payloads ----

struct WireRelationEdge {
  uint32_t from = 0;
  uint32_t to = 0;
};

std::vector<uint8_t> EncodeRelationsPayload(
    const std::vector<RelationEdge>& edges);
// `num_syscalls` bounds every id; an out-of-range id fails the payload.
Result<std::vector<WireRelationEdge>> DecodeRelationsPayload(
    const std::vector<uint8_t>& payload, size_t num_syscalls);

struct WireCoverageWord {
  uint32_t index = 0;
  uint64_t value = 0;
};

std::vector<uint8_t> EncodeCoveragePayload(
    const std::vector<WireCoverageWord>& words);
// `word_count` bounds every index against the receiver's bitmap geometry.
Result<std::vector<WireCoverageWord>> DecodeCoveragePayload(
    const std::vector<uint8_t>& payload, size_t word_count);

std::vector<uint8_t> EncodeSeedsPayload(
    const std::vector<std::vector<uint8_t>>& progs);
// Returns the raw SerializeProg blobs; the caller validates each against
// its Target (DecodedImage::Decode carries its own hostile hardening).
Result<std::vector<std::vector<uint8_t>>> DecodeSeedsPayload(
    const std::vector<uint8_t>& payload);

// ---- replay protection ----

// Tracks (origin, seq) pairs; Accept returns true exactly once per pair.
class GossipDedup {
 public:
  bool Accept(uint32_t origin, uint64_t seq) {
    return seen_[origin].insert(seq).second;
  }
  size_t dropped() const { return dropped_; }
  void CountDrop() { ++dropped_; }

 private:
  std::unordered_map<uint32_t, std::unordered_set<uint64_t>> seen_;
  size_t dropped_ = 0;
};

// ---- gossip schedule ----

// Deterministic fanout schedule: the peers shard `shard` pushes to in round
// `round`. Rotates through the other shards so every pair communicates
// within ceil((n-1)/fanout) rounds; never includes `shard` itself. The
// schedule depends only on (shard, n, fanout, round) — network delivery
// order is allowed to vary (see net_seed in shard.h), the schedule is not.
std::vector<size_t> GossipPeers(size_t shard, size_t shard_count,
                                size_t fanout, size_t round);

}  // namespace healer

#endif  // SRC_FUZZ_GOSSIP_H_
