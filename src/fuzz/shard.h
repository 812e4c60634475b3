// Sharded campaign topology (DESIGN.md §13, ROADMAP item 5).
//
// A FuzzShard is one self-contained fuzzer — its own corpus, coverage
// bitmap, relation table, VM pool, rng — plus gossip cursors. Shards share
// no mutable state; everything they exchange travels through HGSP1 frames
// (gossip.h). That makes the topology trivially thread-safe (N shards on N
// threads touch disjoint state between barriers) and process-portable (the
// same frames go over files or pipes in `healer_cli shard` mode).
//
// A sharded campaign runs lockstep rounds:
//
//   1. Fuzz phase: every shard runs `execs_per_round` Step()s, in parallel
//      threads (throughput) or sequentially (debugging) — identical results
//      either way, since shards are deterministic and independent.
//   2. Emit phase: each shard emits the tail of its state since its last
//      emit — new dynamic relation edges (edge-log cursor), changed
//      coverage words (shadow-bitmap diff), newly archived programs
//      (corpus cursor) — as one frame batch, sequence-numbered per origin.
//   3. Deliver phase: batches travel to each shard's fanout peers on the
//      deterministic GossipPeers schedule. Delivery order and duplication
//      are deliberately adversarial: `net_seed` shuffles deliveries and can
//      replay them. Receivers buffer frames in an inbox.
//   4. Apply phase: each shard sorts its inbox into the canonical
//      (origin, seq) order, drops replayed (origin, seq) pairs, and applies
//      the rest. Canonical ordering is what makes the end state a pure
//      function of the schedule — byte-identical reconciliation across any
//      two net_seeds is asserted by check.sh's `distributed` stage.
//
// Exactly-once identity (reconciliation invariant): for every shard,
//
//   relations.Count() == static edges
//                      + healer_relations_learned_total (local learning)
//                      + gossip import credits (Apply() return values)
//
// i.e. every edge in the table is credited exactly once fleet-wide, no
// matter how many shards re-learn or re-gossip it. Imports that lose the
// race credit zero. The same discipline covers coverage bits (OrWord's
// fetch_or winner) and corpus entries (content-hash dedup in Corpus::Add).

#ifndef SRC_FUZZ_SHARD_H_
#define SRC_FUZZ_SHARD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/fuzz/fuzzer.h"
#include "src/fuzz/gossip.h"

namespace healer {

struct ShardStats {
  uint64_t frames_emitted = 0;
  uint64_t frames_applied = 0;
  uint64_t frames_replayed = 0;   // Dropped by (origin, seq) dedup.
  uint64_t gossip_bytes_out = 0;
  uint64_t relations_imported = 0;  // Apply() credits from gossip.
  uint64_t coverage_words_imported = 0;
  uint64_t coverage_bits_imported = 0;  // OrWord fresh-bit credits.
  uint64_t seeds_imported = 0;          // Corpus::Add accepted.
  uint64_t seeds_duplicate = 0;         // Content-hash rejected.
};

class FuzzShard {
 public:
  // `base` is the per-shard fuzzer configuration; the caller varies the rng
  // seed per shard (shards exploring identical trajectories would gossip
  // nothing useful).
  FuzzShard(const Target& target, const FuzzerOptions& base,
            uint32_t shard_id);

  uint32_t shard_id() const { return shard_id_; }
  Fuzzer& fuzzer() { return *fuzzer_; }
  const Fuzzer& fuzzer() const { return *fuzzer_; }
  const ShardStats& stats() const { return stats_; }

  // Fuzz phase: `n` Fuzzer::Step() iterations.
  void RunExecs(size_t n);

  // Emit phase: encodes everything new since the previous EmitGossip call
  // (relation-log tail, changed coverage words, new corpus programs) as
  // HGSP1 frames. Imported state is re-emitted exactly once too — that is
  // the relay that lets deltas reach shards beyond the direct fanout.
  std::vector<uint8_t> EmitGossip();

  // Deliver phase: decode a peer's batch, drop replayed (origin, seq)
  // frames, buffer the rest. A hostile batch (any undecodable frame) is
  // rejected whole and counted; shard state is untouched.
  Status Ingest(const uint8_t* data, size_t size);

  // Apply phase: applies the buffered inbox in canonical (origin, seq)
  // order and clears it. Returns the number of frames applied.
  size_t ApplyInbox();

  // Reconciliation invariant: table count == static + locally learned +
  // gossip-imported (each credited exactly once).
  bool CheckRelationIdentity() const;

  // Canonical byte encoding of this shard's relation table: all (from, to)
  // pairs, sorted, deduplicated — independent of learn order, learn time,
  // and source. Two shards with the same edge set produce identical bytes.
  std::vector<uint8_t> CanonicalRelationBytes() const;

  // Content fingerprint of the corpus: hash over the sorted content hashes
  // of every program — independent of archive order.
  uint64_t CorpusFingerprint() const;

 private:
  void ApplyFrame(const GossipFrame& frame);

  const Target& target_;
  uint32_t shard_id_;
  std::unique_ptr<Fuzzer> fuzzer_;
  ShardStats stats_;

  uint64_t next_seq_ = 0;
  size_t relation_cursor_ = 0;  // Edge-log position already emitted.
  size_t corpus_cursor_ = 0;    // Corpus index already emitted.
  std::vector<uint64_t> coverage_shadow_;  // Word values already emitted.
  GossipDedup dedup_;
  std::vector<GossipFrame> inbox_;
};

// Canonical union of several shards' relation tables, in the same byte
// encoding as FuzzShard::CanonicalRelationBytes. This is the global
// reconciled table the distributed check compares across gossip orderings.
std::vector<uint8_t> ReconcileRelations(
    const std::vector<const FuzzShard*>& shards);

struct ShardedCampaignOptions {
  size_t shards = 4;
  size_t rounds = 8;
  size_t execs_per_round = 128;
  size_t fanout = 1;
  uint64_t seed = 1;          // Base rng seed; shard i fuzzes with seed+i.
  uint64_t net_seed = 0;      // Delivery shuffle/replay seed. MUST NOT
                              // affect any campaign outcome.
  bool use_threads = true;    // Fuzz phase on N threads vs sequential.
  size_t reconcile_every = 4; // Assert identities every K rounds (0 = only
                              // at the end).
  FuzzerOptions base;         // Template for every shard's fuzzer.
};

struct RoundSample {
  size_t round = 0;
  uint64_t wall_ns = 0;       // Since campaign start.
  size_t union_coverage = 0;  // Distinct bits across all shards.
};

struct ShardedCampaignResult {
  size_t shards = 0;
  uint64_t total_execs = 0;
  uint64_t wall_ns = 0;
  size_t union_coverage = 0;
  size_t union_relations = 0;  // Distinct (from, to) pairs fleet-wide.
  bool identities_ok = true;
  uint64_t gossip_bytes = 0;
  uint64_t frames_exchanged = 0;
  uint64_t frames_replayed = 0;
  // Summed over the shards' registries: analysis probes, and how their
  // executions reached the guests (see FormatProbeLine).
  uint64_t analysis_execs = 0;
  uint64_t images_shipped = 0;
  uint64_t mask_replays = 0;
  std::vector<size_t> shard_coverage;
  std::vector<uint64_t> corpus_fingerprints;  // Per shard.
  std::vector<uint8_t> reconciled_relations;  // Canonical union bytes.
  uint64_t reconciled_relations_hash = 0;
  std::vector<RoundSample> samples;  // One per round (time-to-coverage).
};

// Runs the lockstep sharded campaign described above. Deterministic given
// (options minus net_seed): any two net_seeds yield identical
// reconciled_relations, corpus_fingerprints, and per-shard coverage.
ShardedCampaignResult RunShardedCampaign(const Target& target,
                                         const ShardedCampaignOptions& options);

}  // namespace healer

#endif  // SRC_FUZZ_SHARD_H_
