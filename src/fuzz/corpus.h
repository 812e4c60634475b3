// Corpus of interesting (minimized) programs, weighted by the amount of new
// coverage they contributed when first seen.
//
// Programs at rest are wire images: each entry is a StoredProg — the
// SerializeProg bytes, their content hash and the call count — about a
// third of the heap an Arg tree of the same program takes. Arg trees are
// step-scoped scratch: the fuzzing loop decodes the entry it picks into its
// step arena (StoredProg::CloneInto), gossip relays the stored bytes as
// they are, and admission serializes a program exactly once.
//
// Weighted sampling uses a Fenwick (binary-indexed) tree over entry
// priorities: Choose() descends the tree in O(log n) instead of the old
// O(n) prefix scan, Add() extends it in O(log n), and UpdatePriority()
// re-weights an entry in O(log n). The sampling is draw-for-draw identical
// to the linear scan (same single rng->Below(total) roll, same chosen
// index), so fixed-seed campaigns are unchanged.
//
// Entries are held by shared_ptr so Snapshot() can hand parallel workers an
// immutable, cheaply-copied view (see CorpusSnapshot): workers sample from a
// snapshot lock-free while the authoritative Corpus keeps growing.

#ifndef SRC_FUZZ_CORPUS_H_
#define SRC_FUZZ_CORPUS_H_

#include <memory>
#include <set>
#include <vector>

#include "src/base/hash.h"
#include "src/base/rng.h"
#include "src/prog/prog.h"
#include "src/prog/serialize.h"

namespace healer {

// A corpus program at rest: its wire image, the image's content hash and
// the program's call count. Immutable once built.
class StoredProg {
 public:
  // Serializes `prog` and hashes the bytes.
  explicit StoredProg(const Prog& prog);
  // Adopts `bytes`, a valid image of a `calls`-call program for `target`
  // (DecodedImage::Decode accepted it), and hashes them.
  StoredProg(const Target& target, std::vector<uint8_t> bytes, size_t calls);

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  uint64_t hash() const { return hash_; }
  // Number of calls.
  size_t size() const { return calls_; }

  // Decodes the image into a program whose nodes live in `arena` (nullptr →
  // heap).
  Prog CloneInto(ProgArena* arena) const;
  Prog Clone() const { return CloneInto(nullptr); }

 private:
  const Target* target_;
  std::vector<uint8_t> bytes_;
  uint64_t hash_;
  uint32_t calls_;
};

// Immutable point-in-time view of a corpus: the entries (shared with the
// live corpus) plus a copy of the Fenwick tree, so Choose() works without
// touching — or locking — the authoritative state. Publish-side cost is one
// O(n) vector copy, paid only when new programs actually landed.
struct CorpusSnapshot {
  std::vector<std::shared_ptr<const StoredProg>> progs;
  std::vector<uint64_t> fenwick;  // 1-based; fenwick[0] unused.
  uint64_t total_priority = 0;

  bool empty() const { return progs.empty(); }
  size_t size() const { return progs.size(); }
  // Priority-weighted random pick; same distribution and same draw
  // consumption as Corpus::Choose.
  const StoredProg& Choose(Rng* rng) const;
};

class Corpus {
 public:
  static constexpr size_t kMaxEntries = 16384;

  // Content identity used for deduplication: a hash of the wire image.
  static uint64_t ContentHash(const std::vector<uint8_t>& bytes);
  static uint64_t ContentHash(const Prog& prog);
  static uint64_t ContentHash(const StoredProg& prog) { return prog.hash(); }

  // Adds a program (deduplicated by content hash). Returns true if it was
  // new. The Prog overload serializes the program.
  bool Add(StoredProg prog, uint32_t priority);
  bool Add(const Prog& prog, uint32_t priority);

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }

  // Priority-weighted random pick. O(log n).
  const StoredProg& Choose(Rng* rng) const;

  // Re-weights an existing entry. O(log n).
  void UpdatePriority(size_t index, uint32_t priority);

  const StoredProg& at(size_t index) const { return *entries_[index].prog; }
  uint32_t priority_at(size_t index) const {
    return entries_[index].priority;
  }
  // The content hash of every entry, in ascending order.
  const std::set<uint64_t>& content_hashes() const { return hashes_; }

  // Immutable view for lock-free sampling by parallel workers.
  std::shared_ptr<const CorpusSnapshot> Snapshot() const;

  // Histogram of program lengths: [1, 2, 3, 4, 5+] buckets (Figure 6).
  std::vector<size_t> LengthHistogram() const;

  // Mean program length.
  double MeanLength() const;

  // Every program decoded to heap storage (for persistence via corpus_io).
  std::vector<Prog> ExportAll() const;

 private:
  struct Entry {
    std::shared_ptr<const StoredProg> prog;
    uint32_t priority;
  };
  std::vector<Entry> entries_;
  std::vector<uint64_t> fenwick_{0};  // 1-based; fenwick_[0] unused.
  std::set<uint64_t> hashes_;
  uint64_t total_priority_ = 0;
};

}  // namespace healer

#endif  // SRC_FUZZ_CORPUS_H_
