// The relation table R^{n×n} (Section 4.1): R[i][j] = 1 iff syscall C_i
// influences C_j's execution path. Seeded by static learning over resource
// flows in the descriptions, refined by dynamic learning during fuzzing.
//
// The table is split into a write side and a read side (DESIGN.md §8):
//
//   * The authoritative state — dense byte matrix `cells_` plus the
//     timestamped edge log — lives behind a plain mutex that only writers
//     (Apply/Set) and the cold reporting accessors take.
//   * The fuzzing hot path reads an immutable, epoch-versioned
//     RelationSnapshot: a CSR out-adjacency (row-offset + sorted column
//     arrays, plus per-row degree) published by shared_ptr swap. Readers
//     probe the epoch with one relaxed atomic load and re-copy the pointer
//     (briefly under the tiny snapshot mutex) only when the table actually
//     grew — the same protocol the corpus snapshot uses.
//   * Learners never write edges one at a time on the hot path: they
//     accumulate a RelationDelta (typed, locally deduplicated) and flush it
//     through Apply(), which credits each edge exactly once fleet-wide and
//     republishes the snapshot in one swap.

#ifndef SRC_FUZZ_RELATION_TABLE_H_
#define SRC_FUZZ_RELATION_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/base/sim_clock.h"
#include "src/base/status.h"
#include "src/syzlang/target.h"

namespace healer {

enum class RelationSource { kStatic, kDynamic };

struct RelationEdge {
  int from = 0;
  int to = 0;
  RelationSource source = RelationSource::kStatic;
  SimClock::Nanos learned_at = 0;
};

// Immutable point-in-time view of the relation table in compressed sparse
// row form. Rows are sorted ascending, so iteration order matches the old
// dense-row scan and Contains() can binary-search.
class RelationSnapshot {
 public:
  uint64_t epoch() const { return epoch_; }
  size_t n() const { return n_; }
  size_t num_edges() const { return cols_.size(); }

  // Out-degree of `from` (|{j : R[from][j] = 1}|).
  uint32_t OutDegree(int from) const {
    return degree_[static_cast<size_t>(from)];
  }

  // Pointer to the first out-neighbor of `from`; OutDegree(from) entries,
  // sorted ascending. Valid for the snapshot's lifetime.
  const int32_t* Row(int from) const {
    return cols_.data() + row_offset_[static_cast<size_t>(from)];
  }

  bool Contains(int from, int to) const;

 private:
  friend class RelationTable;
  uint64_t epoch_ = 0;
  size_t n_ = 0;
  std::vector<uint32_t> row_offset_;  // n_ + 1 entries.
  std::vector<uint32_t> degree_;      // row_offset_[i+1] - row_offset_[i].
  std::vector<int32_t> cols_;         // Sorted within each row.
};

// A batch of candidate edges accumulated by a learner between publishes.
// Locally deduplicated: Add() ignores (from, to) pairs already in the
// delta, so Contains() lets Algorithm 2 skip re-probing a pair it just
// learned even before the delta reaches the table.
class RelationDelta {
 public:
  // Returns true iff the pair was new to this delta.
  bool Add(int from, int to, RelationSource source,
           SimClock::Nanos learned_at);

  bool Contains(int from, int to) const {
    return seen_.count(Key(from, to)) != 0;
  }

  bool empty() const { return edges_.empty(); }
  size_t size() const { return edges_.size(); }
  void clear();

  // Edges in insertion order (deterministic given a deterministic learner).
  const std::vector<RelationEdge>& edges() const { return edges_; }

 private:
  static uint64_t Key(int from, int to) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(from)) << 32) |
           static_cast<uint32_t>(to);
  }

  std::vector<RelationEdge> edges_;
  std::unordered_set<uint64_t> seen_;
};

class RelationTable {
 public:
  explicit RelationTable(size_t num_syscalls);

  size_t n() const { return n_; }

  // Authoritative point lookup (takes the write mutex; reporting/tests
  // only — the hot path reads the snapshot).
  bool Get(int from, int to) const;

  // Sets R[from][to] = 1 and republishes the snapshot. Returns true iff the
  // edge was new. Single-edge writes are for seeding and tests; bulk
  // learning goes through Apply().
  bool Set(int from, int to, RelationSource source,
           SimClock::Nanos learned_at);

  // Merges a delta into the table: every edge not already present is added
  // and credited exactly once (the return value is the number of edges that
  // were actually new, no matter how many workers re-learned them). The
  // snapshot is republished — and the epoch bumped — only when at least one
  // edge landed.
  size_t Apply(const RelationDelta& delta);

  // Total edge count. Lock-free (relaxed atomic mirror of the edge log).
  size_t Count() const { return num_edges_.load(std::memory_order_relaxed); }

  size_t CountBySource(RelationSource source) const;

  // All edges learned at or before `cutoff` (everything when cutoff is the
  // max value). Sorted by learn time.
  std::vector<RelationEdge> EdgesBefore(
      SimClock::Nanos cutoff = ~SimClock::Nanos{0}) const;

  // Tail of the append-only edge log from position `start` (the gossip
  // cursor read: a shard emits EdgesFrom(cursor) and advances the cursor by
  // the returned size). Positions are stable — the log never reorders.
  std::vector<RelationEdge> EdgesFrom(size_t start) const;

  // Influence candidates of call `from` (all `to` with R[from][to] = 1).
  // Convenience wrapper over the snapshot row; allocates, so hot paths
  // should walk snapshot()->Row() directly.
  std::vector<int> InfluencedBy(int from) const;

  // Snapshot epoch; bumped on every publish that added edges. One relaxed
  // load — the hot-path freshness probe.
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

  // Current immutable CSR view (a shared_ptr copy under the tiny snapshot
  // mutex; cache it and re-fetch only when epoch() moved).
  std::shared_ptr<const RelationSnapshot> snapshot() const;

  // Persistence: relations learned in one campaign can warm-start another
  // (edges are stored as syscall-name pairs so they survive description
  // changes; unknown names are skipped).
  Status SaveToFile(const std::string& path, const Target& target) const;
  // Returns the number of edges loaded (as dynamic edges at time 0).
  Result<size_t> LoadFromFile(const std::string& path, const Target& target);

 private:
  size_t Index(int from, int to) const {
    return static_cast<size_t>(from) * n_ + static_cast<size_t>(to);
  }

  // Rebuilds the CSR from the edge log and swaps it in. Requires write_mu_
  // held.
  void PublishLocked();

  size_t n_;
  mutable std::mutex write_mu_;
  std::vector<uint8_t> cells_;
  std::vector<RelationEdge> edges_;
  std::atomic<size_t> num_edges_{0};

  std::atomic<uint64_t> epoch_{0};
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const RelationSnapshot> snapshot_;
};

// Static learning (Section 4.1): R[i][j] = 1 when C_i produces a resource
// (return value or out-pointer) that C_j consumes, honoring resource
// inheritance. Accumulated as one delta and applied in a single publish.
// Returns the number of edges added.
size_t StaticRelationLearn(const Target& target, RelationTable* table);

}  // namespace healer

#endif  // SRC_FUZZ_RELATION_TABLE_H_
