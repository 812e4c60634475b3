// Fixed-size bitmaps used for coverage accounting.
//
// CoverageBitmap is an AFL-style 2^16-slot hit map: edges are hashed into
// slots and campaigns track the set of slots ever seen. MergeNew() returns
// how many previously-unseen slots the merge contributed, which is the
// "new coverage" signal consumed by the fuzzers.
//
// Layout: one flat array of 64-bit words. Executors credit a call's
// coverage one Set() per touched slot; MergeNew unions whole maps (a shard
// round's union, the campaign's final union) in one word loop that does a
// read-modify-write only on words with fresh bits.
//
// Word granularity is also the unit of cross-shard coverage gossip
// (DESIGN.md §13): ForEachOccupiedWord exports the nonzero (index, value)
// pairs of a quiescent bitmap, and OrWord merges one received word with the
// same exactly-once fresh-bit credit as MergeNew.
//
// Concurrency: mutating word accesses go through std::atomic_ref with
// relaxed ordering, so a campaign-global bitmap can absorb merges from
// parallel workers without any external lock ("atomic-word MergeNew"). Each
// newly-set bit is counted exactly once across all threads (fetch_or tells
// the winner). On the single-threaded path the relaxed loads/stores compile
// to plain moves; the read-modify-write ops only run for *fresh* bits, which
// are rare in a warmed-up campaign, so the hot already-seen case costs the
// same load+test it always did. Clear()/Hash()/operator== are quiescent-only
// operations: they abort if a MergeNew is in flight on this bitmap (always
// checked, independent of NDEBUG — the check is one relaxed load).

#ifndef SRC_BASE_BITMAP_H_
#define SRC_BASE_BITMAP_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace healer {

class Bitmap {
 public:
  explicit Bitmap(size_t bits) : bits_(bits), words_((bits + 63) / 64, 0) {}

  // Bitmaps participating in a merge/compare must be the same size; a
  // mismatch means two different coverage spaces are being mixed, which
  // would silently truncate the merge. Always fatal (independent of NDEBUG).
  static void CheckSameSize(const Bitmap& a, const Bitmap& b) {
    if (a.bits_ != b.bits_) {
      std::fprintf(stderr, "bitmap size mismatch: %zu vs %zu bits\n", a.bits_,
                   b.bits_);
      std::abort();
    }
  }

  size_t size_bits() const { return bits_; }

  bool Test(size_t idx) const {
    return (Word(idx >> 6) >> (idx & 63)) & 1;
  }

  // Sets the bit; returns true iff it was previously clear. Safe against
  // concurrent Set/MergeNew on the same bitmap: exactly one caller wins a
  // fresh bit.
  bool Set(size_t idx) {
    return Credit(OrBits(idx >> 6, 1ULL << (idx & 63))) != 0;
  }

  void Clear() {
    CheckQuiescent("Clear");
    std::fill(words_.begin(), words_.end(), 0);
    popcount_ = 0;
  }

  // Number of set bits. O(1).
  size_t Count() const {
    return std::atomic_ref<const size_t>(popcount_).load(
        std::memory_order_relaxed);
  }

  // ORs `other` in; returns the number of bits newly set in *this. `other`
  // must be quiescent; *this may be merged into concurrently.
  size_t MergeNew(const Bitmap& other) {
    CheckSameSize(*this, other);
    MergeScope in_flight(this);
    size_t fresh = 0;
    for (size_t i = 0; i < words_.size(); ++i) {
      fresh += OrBits(i, other.words_[i]);
    }
    return Credit(fresh);
  }

  bool operator==(const Bitmap& other) const {
    CheckQuiescent("operator==");
    other.CheckQuiescent("operator==");
    return bits_ == other.bits_ && words_ == other.words_;
  }

  // Stable content checksum (tests use it to prove a faulted execution left
  // the campaign bitmap untouched). Quiescent-only.
  uint64_t Hash() const {
    CheckQuiescent("Hash");
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint64_t w : words_) {
      h = (h ^ w) * 0x100000001b3ULL;
      h ^= h >> 29;
    }
    return h;
  }

  // ---- word-granular export/import (cross-shard coverage gossip) ----

  size_t WordCount() const { return words_.size(); }

  uint64_t Word(size_t idx) const {
    return std::atomic_ref<const uint64_t>(words_[idx])
        .load(std::memory_order_relaxed);
  }

  // Invokes `fn(word_index, word_value)` for every nonzero word, ascending.
  // The bitmap should be quiescent (a concurrent merge's bits may or may not
  // be seen, never torn words).
  template <typename Fn>
  void ForEachOccupiedWord(Fn&& fn) const {
    for (size_t i = 0; i < words_.size(); ++i) {
      if (const uint64_t w = Word(i); w != 0) {
        fn(i, w);
      }
    }
  }

  // ORs one word in (a received gossip word); returns the number of bits
  // newly set, with the same exactly-once credit as MergeNew. Safe against
  // concurrent Set/MergeNew/OrWord on *this.
  size_t OrWord(size_t idx, uint64_t value) {
    return idx < words_.size() ? Credit(OrBits(idx, value)) : 0;
  }

 private:
  // ORs `value` into word `i`; returns how many of its bits this thread
  // set. The read-modify-write runs only when `value` has bits the word
  // lacks, and bits a concurrent writer beat us to are not ours.
  size_t OrBits(size_t i, uint64_t value) {
    std::atomic_ref<uint64_t> word(words_[i]);
    uint64_t add = value & ~word.load(std::memory_order_relaxed);
    if (add == 0) {
      return 0;
    }
    add &= ~word.fetch_or(add, std::memory_order_relaxed);
    return static_cast<size_t>(std::popcount(add));
  }

  // Adds `fresh` won bits to the population count; returns `fresh`.
  size_t Credit(size_t fresh) {
    if (fresh != 0) {
      std::atomic_ref<size_t>(popcount_).fetch_add(fresh,
                                                   std::memory_order_relaxed);
    }
    return fresh;
  }

  // Quiescence contract for Clear/Hash/operator==: these walk the words
  // non-atomically, so running them concurrently with a MergeNew into this
  // bitmap would read torn state and (for Clear) lose the word/count
  // pairing. The in-flight counter makes the contract violation loud
  // instead of silently corrupting coverage accounting.
  void CheckQuiescent(const char* op) const {
    if (std::atomic_ref<const size_t>(merges_in_flight_)
            .load(std::memory_order_acquire) != 0) {
      std::fprintf(stderr,
                   "bitmap %s called concurrently with MergeNew (quiescence "
                   "contract violated)\n",
                   op);
      std::abort();
    }
  }

  class MergeScope {
   public:
    explicit MergeScope(Bitmap* b) : b_(b) {
      std::atomic_ref<size_t>(b_->merges_in_flight_)
          .fetch_add(1, std::memory_order_acquire);
    }
    ~MergeScope() {
      std::atomic_ref<size_t>(b_->merges_in_flight_)
          .fetch_sub(1, std::memory_order_release);
    }
    MergeScope(const MergeScope&) = delete;
    MergeScope& operator=(const MergeScope&) = delete;

   private:
    Bitmap* b_;
  };

  size_t bits_;
  std::vector<uint64_t> words_;
  size_t popcount_ = 0;
  // Number of MergeNew calls currently running against this bitmap; a
  // transient value, meaningful only while threads are live (a copied
  // quiescent bitmap starts at 0 by definition).
  size_t merges_in_flight_ = 0;
};

}  // namespace healer

#endif  // SRC_BASE_BITMAP_H_
