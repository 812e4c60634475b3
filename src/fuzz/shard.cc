#include "src/fuzz/shard.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "src/base/hash.h"
#include "src/base/rng.h"
#include "src/prog/serialize.h"

namespace healer {

namespace {

// Priority for gossip-imported corpus programs. Local archives weight by
// the fresh relation edges they produced; the origin's measurement does not
// travel with the seed, so imports get a modest flat weight.
constexpr uint32_t kImportedSeedPriority = 4;

uint64_t NowNsSince(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

FuzzShard::FuzzShard(const Target& target, const FuzzerOptions& base,
                     uint32_t shard_id)
    : target_(target), shard_id_(shard_id) {
  fuzzer_ = std::make_unique<Fuzzer>(target, base);
  coverage_shadow_.assign(fuzzer_->coverage().WordCount(), 0);
}

void FuzzShard::RunExecs(size_t n) {
  for (size_t i = 0; i < n; ++i) {
    fuzzer_->Step();
  }
}

std::vector<uint8_t> FuzzShard::EmitGossip() {
  std::vector<uint8_t> out;

  // Relation-log tail since the last emit. Static edges are seeded
  // identically on every shard at construction; only dynamic edges (local
  // learning and relayed imports) travel.
  const std::vector<RelationEdge> tail =
      fuzzer_->relations().EdgesFrom(relation_cursor_);
  relation_cursor_ += tail.size();
  std::vector<RelationEdge> dynamic_edges;
  for (const RelationEdge& e : tail) {
    if (e.source == RelationSource::kDynamic) {
      dynamic_edges.push_back(e);
    }
  }
  if (!dynamic_edges.empty()) {
    GossipFrame frame;
    frame.type = GossipFrameType::kRelations;
    frame.origin = shard_id_;
    frame.seq = next_seq_++;
    frame.payload = EncodeRelationsPayload(dynamic_edges);
    AppendGossipFrame(frame, &out);
    ++stats_.frames_emitted;
  }

  // Coverage words whose value changed since the last emit (shadow diff).
  // The full word travels, not just the delta bits — OrWord on the receiver
  // is idempotent, so re-sending known bits is harmless and keeps the diff
  // cheap. Imported words change the live map but not the shadow, so they
  // relay exactly once on the next emit.
  std::vector<WireCoverageWord> changed;
  fuzzer_->coverage().ForEachOccupiedWord([&](size_t idx, uint64_t value) {
    if (coverage_shadow_[idx] != value) {
      coverage_shadow_[idx] = value;
      changed.push_back({static_cast<uint32_t>(idx), value});
    }
  });
  if (!changed.empty()) {
    GossipFrame frame;
    frame.type = GossipFrameType::kCoverage;
    frame.origin = shard_id_;
    frame.seq = next_seq_++;
    frame.payload = EncodeCoveragePayload(changed);
    AppendGossipFrame(frame, &out);
    ++stats_.frames_emitted;
  }

  // Programs archived since the last emit (including imports — the relay).
  const Corpus& corpus = fuzzer_->corpus();
  std::vector<std::vector<uint8_t>> blobs;
  for (size_t i = corpus_cursor_; i < corpus.size(); ++i) {
    blobs.push_back(SerializeProg(corpus.at(i)));
  }
  corpus_cursor_ = corpus.size();
  if (!blobs.empty()) {
    GossipFrame frame;
    frame.type = GossipFrameType::kSeeds;
    frame.origin = shard_id_;
    frame.seq = next_seq_++;
    frame.payload = EncodeSeedsPayload(blobs);
    AppendGossipFrame(frame, &out);
    ++stats_.frames_emitted;
  }

  stats_.gossip_bytes_out += out.size();
  return out;
}

Status FuzzShard::Ingest(const uint8_t* data, size_t size) {
  Result<std::vector<GossipFrame>> frames = DecodeGossipStream(data, size);
  if (!frames.ok()) {
    return frames.status();
  }
  for (GossipFrame& frame : *frames) {
    if (frame.origin == shard_id_) {
      continue;  // A batch reflected back at its origin carries nothing new.
    }
    if (!dedup_.Accept(frame.origin, frame.seq)) {
      dedup_.CountDrop();
      ++stats_.frames_replayed;
      continue;
    }
    inbox_.push_back(std::move(frame));
  }
  return OkStatus();
}

size_t FuzzShard::ApplyInbox() {
  // Canonical apply order: (origin, seq). Frames arrive in whatever order
  // the network delivered the batches; sorting here makes the post-apply
  // shard state a pure function of the frame *set*, which is what the
  // byte-identical-reconciliation guarantee rests on.
  std::sort(inbox_.begin(), inbox_.end(),
            [](const GossipFrame& a, const GossipFrame& b) {
              if (a.origin != b.origin) {
                return a.origin < b.origin;
              }
              return a.seq < b.seq;
            });
  for (const GossipFrame& frame : inbox_) {
    ApplyFrame(frame);
  }
  const size_t applied = inbox_.size();
  stats_.frames_applied += applied;
  inbox_.clear();
  return applied;
}

void FuzzShard::ApplyFrame(const GossipFrame& frame) {
  switch (frame.type) {
    case GossipFrameType::kRelations: {
      Result<std::vector<WireRelationEdge>> edges = DecodeRelationsPayload(
          frame.payload, fuzzer_->relations().n());
      if (!edges.ok()) {
        return;  // Malformed inner payload: drop the frame whole.
      }
      RelationDelta delta;
      const SimClock::Nanos now = fuzzer_->clock().now();
      for (const WireRelationEdge& e : *edges) {
        delta.Add(static_cast<int>(e.from), static_cast<int>(e.to),
                  RelationSource::kDynamic, now);
      }
      // Apply() credits only edges new to this shard's table — the
      // exactly-once half of the reconciliation identity.
      stats_.relations_imported +=
          fuzzer_->mutable_relations()->Apply(delta);
      break;
    }
    case GossipFrameType::kCoverage: {
      Result<std::vector<WireCoverageWord>> words = DecodeCoveragePayload(
          frame.payload, coverage_shadow_.size());
      if (!words.ok()) {
        return;
      }
      for (const WireCoverageWord& w : *words) {
        stats_.coverage_bits_imported +=
            fuzzer_->mutable_coverage()->OrWord(w.index, w.value);
        ++stats_.coverage_words_imported;
      }
      break;
    }
    case GossipFrameType::kSeeds: {
      Result<std::vector<std::vector<uint8_t>>> blobs =
          DecodeSeedsPayload(frame.payload);
      if (!blobs.ok()) {
        return;
      }
      // Deserialize everything before mutating the corpus: a frame either
      // applies whole or not at all (partial application would make shard
      // state depend on *where* a bad blob sits, not just the frame set).
      std::vector<Prog> progs;
      std::vector<uint64_t> hashes;
      for (const std::vector<uint8_t>& blob : *blobs) {
        Result<Prog> prog =
            DeserializeProg(target_, blob.data(), blob.size());
        if (!prog.ok()) {
          return;
        }
        progs.push_back(std::move(*prog));
        hashes.push_back(Corpus::ContentHash(blob));
      }
      for (size_t i = 0; i < progs.size(); ++i) {
        if (fuzzer_->mutable_corpus()->Add(std::move(progs[i]),
                                           kImportedSeedPriority,
                                           hashes[i])) {
          ++stats_.seeds_imported;
        } else {
          ++stats_.seeds_duplicate;
        }
      }
      break;
    }
  }
}

bool FuzzShard::CheckRelationIdentity() const {
  const RelationTable& table = fuzzer_->relations();
  const size_t static_edges =
      table.CountBySource(RelationSource::kStatic);
  const uint64_t learned = fuzzer_->metrics().Snapshot().counter(
      "healer_relations_learned_total");
  return table.Count() ==
         static_edges + learned + stats_.relations_imported;
}

std::vector<uint8_t> FuzzShard::CanonicalRelationBytes() const {
  std::vector<RelationEdge> edges = fuzzer_->relations().EdgesBefore();
  std::sort(edges.begin(), edges.end(),
            [](const RelationEdge& a, const RelationEdge& b) {
              if (a.from != b.from) {
                return a.from < b.from;
              }
              return a.to < b.to;
            });
  edges.erase(std::unique(edges.begin(), edges.end(),
                          [](const RelationEdge& a, const RelationEdge& b) {
                            return a.from == b.from && a.to == b.to;
                          }),
              edges.end());
  return EncodeRelationsPayload(edges);
}

uint64_t FuzzShard::CorpusFingerprint() const {
  const Corpus& corpus = fuzzer_->corpus();
  std::vector<uint64_t> hashes;
  hashes.reserve(corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    hashes.push_back(Corpus::ContentHash(corpus.at(i)));
  }
  std::sort(hashes.begin(), hashes.end());
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (uint64_t x : hashes) {
    h = HashCombine(h, Mix64(x));
  }
  return h;
}

std::vector<uint8_t> ReconcileRelations(
    const std::vector<const FuzzShard*>& shards) {
  std::vector<RelationEdge> all;
  for (const FuzzShard* shard : shards) {
    const std::vector<RelationEdge> edges =
        shard->fuzzer().relations().EdgesBefore();
    all.insert(all.end(), edges.begin(), edges.end());
  }
  std::sort(all.begin(), all.end(),
            [](const RelationEdge& a, const RelationEdge& b) {
              if (a.from != b.from) {
                return a.from < b.from;
              }
              return a.to < b.to;
            });
  all.erase(std::unique(all.begin(), all.end(),
                        [](const RelationEdge& a, const RelationEdge& b) {
                          return a.from == b.from && a.to == b.to;
                        }),
            all.end());
  return EncodeRelationsPayload(all);
}

ShardedCampaignResult RunShardedCampaign(
    const Target& target, const ShardedCampaignOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const size_t n = options.shards == 0 ? 1 : options.shards;

  std::vector<std::unique_ptr<FuzzShard>> shards;
  shards.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    FuzzerOptions shard_options = options.base;
    shard_options.seed = options.seed + i;
    shards.push_back(std::make_unique<FuzzShard>(
        target, shard_options, static_cast<uint32_t>(i)));
  }

  ShardedCampaignResult result;
  result.shards = n;
  Rng net_rng(options.net_seed);

  for (size_t round = 0; round < options.rounds; ++round) {
    // Fuzz phase. Shards share nothing, so thread-parallel and sequential
    // execution produce identical per-shard state; threads buy wall-clock.
    if (options.use_threads && n > 1) {
      std::vector<std::thread> workers;
      workers.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        workers.emplace_back(
            [&, i] { shards[i]->RunExecs(options.execs_per_round); });
      }
      for (std::thread& t : workers) {
        t.join();
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        shards[i]->RunExecs(options.execs_per_round);
      }
    }

    // Emit phase (single-threaded from here to the end of the round).
    std::vector<std::vector<uint8_t>> batches(n);
    for (size_t i = 0; i < n; ++i) {
      batches[i] = shards[i]->EmitGossip();
    }

    // Deliver phase: the schedule is deterministic; the *delivery order*
    // and duplication are adversarial when net_seed != 0 (shuffle plus a
    // replay of every third delivery). The dedup/canonical-apply machinery
    // must erase any trace of this — check.sh compares two net seeds.
    struct Delivery {
      size_t to;
      const std::vector<uint8_t>* bytes;
    };
    std::vector<Delivery> deliveries;
    for (size_t i = 0; i < n; ++i) {
      if (batches[i].empty()) {
        continue;
      }
      for (size_t peer : GossipPeers(i, n, options.fanout, round)) {
        deliveries.push_back({peer, &batches[i]});
      }
    }
    if (options.net_seed != 0) {
      for (size_t i = deliveries.size(); i > 1; --i) {
        std::swap(deliveries[i - 1], deliveries[net_rng.Below(i)]);
      }
      const size_t original = deliveries.size();
      for (size_t i = 0; i < original; i += 3) {
        deliveries.push_back(deliveries[i]);
      }
    }
    for (const Delivery& d : deliveries) {
      const Status status =
          shards[d.to]->Ingest(d.bytes->data(), d.bytes->size());
      if (!status.ok()) {
        result.identities_ok = false;  // Own frames must always decode.
      }
      result.gossip_bytes += d.bytes->size();
    }

    // Apply phase, shard index order (any fixed order works — each inbox
    // is applied canonically regardless).
    for (size_t i = 0; i < n; ++i) {
      result.frames_exchanged += shards[i]->ApplyInbox();
    }

    // Sample for the time-to-coverage curve.
    Bitmap round_union(shards[0]->fuzzer().coverage().size_bits());
    for (size_t i = 0; i < n; ++i) {
      round_union.MergeNew(shards[i]->fuzzer().coverage());
    }
    RoundSample sample;
    sample.round = round;
    sample.wall_ns = NowNsSince(start);
    sample.union_coverage = round_union.Count();
    result.samples.push_back(sample);

    if (options.reconcile_every != 0 &&
        (round + 1) % options.reconcile_every == 0) {
      for (size_t i = 0; i < n; ++i) {
        if (!shards[i]->CheckRelationIdentity()) {
          result.identities_ok = false;
        }
      }
    }
  }

  // Final reconciliation.
  std::vector<const FuzzShard*> views;
  views.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    views.push_back(shards[i].get());
    if (!shards[i]->CheckRelationIdentity()) {
      result.identities_ok = false;
    }
    result.total_execs += shards[i]->fuzzer().FuzzExecs();
    const MetricsSnapshot snap = shards[i]->fuzzer().metrics().Snapshot();
    result.analysis_execs += snap.counter("healer_exec_analysis_total");
    result.images_shipped += snap.counter("healer_exec_images_shipped_total");
    result.mask_replays += snap.counter("healer_exec_mask_replays_total");
    result.shard_coverage.push_back(shards[i]->fuzzer().CoverageCount());
    result.corpus_fingerprints.push_back(shards[i]->CorpusFingerprint());
    result.frames_replayed += shards[i]->stats().frames_replayed;
  }
  Bitmap union_map(shards[0]->fuzzer().coverage().size_bits());
  for (size_t i = 0; i < n; ++i) {
    union_map.MergeNew(shards[i]->fuzzer().coverage());
  }
  result.union_coverage = union_map.Count();
  result.reconciled_relations = ReconcileRelations(views);
  result.reconciled_relations_hash = FastBytesHash(std::string_view(
      reinterpret_cast<const char*>(result.reconciled_relations.data()),
      result.reconciled_relations.size()));
  result.union_relations =
      result.reconciled_relations.size() >= 4
          ? (result.reconciled_relations.size() - 4) / 8
          : 0;
  result.wall_ns = NowNsSince(start);
  return result;
}

}  // namespace healer
