// Sharded campaign topology tests (DESIGN.md §13): the HGSP1 codec
// round-trips, the gossip schedule covers all pairs, replayed frames credit
// nothing, and — the load-bearing property — a sharded campaign reconciles
// to byte-identical relation tables and corpus fingerprints no matter how
// the network shuffles or replays deliveries.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/base/hash.h"
#include "src/base/rng.h"
#include "src/fuzz/gossip.h"
#include "src/fuzz/prog_builder.h"
#include "src/fuzz/shard.h"
#include "src/prog/serialize.h"
#include "src/syzlang/builtin_descs.h"

namespace healer {
namespace {

// ---- codec round-trips ----

TEST(GossipCodecTest, FrameRoundTrip) {
  GossipFrame frame;
  frame.type = GossipFrameType::kCoverage;
  frame.origin = 7;
  frame.seq = 42;
  frame.payload = {1, 2, 3, 4, 5};
  std::vector<uint8_t> bytes;
  AppendGossipFrame(frame, &bytes);
  ASSERT_EQ(bytes.size(), kGossipHeaderBytes + 5);

  size_t consumed = 0;
  Result<GossipFrame> decoded =
      DecodeGossipFrame(bytes.data(), bytes.size(), &consumed);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(decoded->type, GossipFrameType::kCoverage);
  EXPECT_EQ(decoded->origin, 7u);
  EXPECT_EQ(decoded->seq, 42u);
  EXPECT_EQ(decoded->payload, frame.payload);
}

TEST(GossipCodecTest, StreamRoundTripMultipleFrames) {
  std::vector<uint8_t> bytes;
  for (uint64_t seq = 0; seq < 5; ++seq) {
    GossipFrame frame;
    frame.type = GossipFrameType::kRelations;
    frame.origin = 1;
    frame.seq = seq;
    frame.payload = EncodeRelationsPayload({});
    AppendGossipFrame(frame, &bytes);
  }
  Result<std::vector<GossipFrame>> frames =
      DecodeGossipStream(bytes.data(), bytes.size());
  ASSERT_TRUE(frames.ok());
  ASSERT_EQ(frames->size(), 5u);
  for (uint64_t seq = 0; seq < 5; ++seq) {
    EXPECT_EQ((*frames)[seq].seq, seq);
  }
}

TEST(GossipCodecTest, RelationsPayloadRoundTrip) {
  std::vector<RelationEdge> edges;
  edges.push_back({3, 9, RelationSource::kDynamic, 0});
  edges.push_back({1, 2, RelationSource::kDynamic, 5});
  const std::vector<uint8_t> payload = EncodeRelationsPayload(edges);
  Result<std::vector<WireRelationEdge>> decoded =
      DecodeRelationsPayload(payload, 16);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[0].from, 3u);
  EXPECT_EQ((*decoded)[0].to, 9u);
  EXPECT_EQ((*decoded)[1].from, 1u);
  EXPECT_EQ((*decoded)[1].to, 2u);
}

TEST(GossipCodecTest, CoveragePayloadRoundTrip) {
  const std::vector<WireCoverageWord> words = {{0, 0xffULL},
                                               {1023, 1ULL << 63}};
  const std::vector<uint8_t> payload = EncodeCoveragePayload(words);
  Result<std::vector<WireCoverageWord>> decoded =
      DecodeCoveragePayload(payload, 1024);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[1].index, 1023u);
  EXPECT_EQ((*decoded)[1].value, 1ULL << 63);
}

TEST(GossipCodecTest, SeedsPayloadRoundTrip) {
  const std::vector<std::vector<uint8_t>> blobs = {{1, 2, 3}, {}, {9}};
  const std::vector<uint8_t> payload = EncodeSeedsPayload(blobs);
  Result<std::vector<std::vector<uint8_t>>> decoded =
      DecodeSeedsPayload(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, blobs);
}

// ---- dedup ----

TEST(GossipDedupTest, AcceptsOncePerOriginSeq) {
  GossipDedup dedup;
  EXPECT_TRUE(dedup.Accept(1, 0));
  EXPECT_FALSE(dedup.Accept(1, 0));
  EXPECT_TRUE(dedup.Accept(1, 1));
  EXPECT_TRUE(dedup.Accept(2, 0));  // Same seq, different origin.
  EXPECT_FALSE(dedup.Accept(2, 0));
}

// ---- schedule ----

TEST(GossipScheduleTest, NeverSelfAndEventuallyAllPairs) {
  const size_t n = 5;
  for (size_t fanout = 1; fanout <= 2; ++fanout) {
    for (size_t shard = 0; shard < n; ++shard) {
      std::set<size_t> reached;
      for (size_t round = 0; round < 8; ++round) {
        for (size_t peer : GossipPeers(shard, n, fanout, round)) {
          EXPECT_NE(peer, shard);
          EXPECT_LT(peer, n);
          reached.insert(peer);
        }
      }
      EXPECT_EQ(reached.size(), n - 1)
          << "shard " << shard << " fanout " << fanout;
    }
  }
}

TEST(GossipScheduleTest, SingleShardHasNoPeers) {
  EXPECT_TRUE(GossipPeers(0, 1, 2, 0).empty());
  EXPECT_TRUE(GossipPeers(0, 4, 0, 0).empty());
}

TEST(GossipScheduleTest, FanoutCappedAndDistinctWithinRound) {
  const std::vector<size_t> peers = GossipPeers(2, 4, 8, 3);
  EXPECT_EQ(peers.size(), 3u);  // Capped at n-1.
  std::set<size_t> unique(peers.begin(), peers.end());
  EXPECT_EQ(unique.size(), peers.size());
}

// ---- sharded campaigns ----

ShardedCampaignOptions SmallCampaign(size_t shards, uint64_t net_seed) {
  ShardedCampaignOptions options;
  options.shards = shards;
  options.rounds = 6;
  options.execs_per_round = 60;
  options.fanout = 1;
  options.seed = 11;
  options.net_seed = net_seed;
  options.reconcile_every = 2;
  options.base.num_vms = 2;
  return options;
}

TEST(ShardedCampaignTest, IdentitiesHoldAndStateFlows) {
  const Target& target = BuiltinTarget();
  const ShardedCampaignResult result =
      RunShardedCampaign(target, SmallCampaign(3, 1));
  EXPECT_TRUE(result.identities_ok);
  EXPECT_EQ(result.shards, 3u);
  // One fuzz exec per Step, except the rare empty-candidate early-out.
  EXPECT_LE(result.total_execs, 3u * 6 * 60);
  EXPECT_GT(result.total_execs, 3u * 6 * 60 * 9 / 10);
  EXPECT_GT(result.union_coverage, 0u);
  EXPECT_GT(result.union_relations, 0u);
  EXPECT_GT(result.gossip_bytes, 0u);
  EXPECT_GT(result.frames_exchanged, 0u);
  // The adversarial net (net_seed != 0) replays deliveries; dedup must have
  // seen and dropped them.
  EXPECT_GT(result.frames_replayed, 0u);
  EXPECT_EQ(result.samples.size(), 6u);
  EXPECT_EQ(result.corpus_fingerprints.size(), 3u);
}

// The tentpole guarantee: two campaigns that differ ONLY in how the network
// shuffles and replays deliveries reconcile to byte-identical global
// relation tables, identical per-shard corpus fingerprints, and identical
// per-shard coverage.
TEST(ShardedCampaignTest, ReconciliationIdenticalAcrossGossipOrderings) {
  const Target& target = BuiltinTarget();
  const ShardedCampaignResult a =
      RunShardedCampaign(target, SmallCampaign(3, 1));
  const ShardedCampaignResult b =
      RunShardedCampaign(target, SmallCampaign(3, 2));
  ASSERT_TRUE(a.identities_ok);
  ASSERT_TRUE(b.identities_ok);
  EXPECT_EQ(a.reconciled_relations, b.reconciled_relations);
  EXPECT_EQ(a.reconciled_relations_hash, b.reconciled_relations_hash);
  EXPECT_EQ(a.corpus_fingerprints, b.corpus_fingerprints);
  EXPECT_EQ(a.shard_coverage, b.shard_coverage);
  EXPECT_EQ(a.union_coverage, b.union_coverage);
}

// An orderly network (net_seed == 0: schedule order, no replays) must also
// agree with the adversarial ones.
TEST(ShardedCampaignTest, OrderlyNetworkAgreesWithAdversarial) {
  const Target& target = BuiltinTarget();
  const ShardedCampaignResult orderly =
      RunShardedCampaign(target, SmallCampaign(3, 0));
  const ShardedCampaignResult adversarial =
      RunShardedCampaign(target, SmallCampaign(3, 3));
  EXPECT_EQ(orderly.reconciled_relations, adversarial.reconciled_relations);
  EXPECT_EQ(orderly.corpus_fingerprints, adversarial.corpus_fingerprints);
}

// Threaded and sequential fuzz phases are state-identical (shards share
// nothing; threads only buy wall-clock).
TEST(ShardedCampaignTest, ThreadedMatchesSequential) {
  const Target& target = BuiltinTarget();
  ShardedCampaignOptions threaded = SmallCampaign(2, 1);
  ShardedCampaignOptions sequential = SmallCampaign(2, 1);
  threaded.use_threads = true;
  sequential.use_threads = false;
  const ShardedCampaignResult a = RunShardedCampaign(target, threaded);
  const ShardedCampaignResult b = RunShardedCampaign(target, sequential);
  EXPECT_EQ(a.reconciled_relations, b.reconciled_relations);
  EXPECT_EQ(a.corpus_fingerprints, b.corpus_fingerprints);
  EXPECT_EQ(a.shard_coverage, b.shard_coverage);
}

// Gossip must actually help: a shard importing peers' state should hold
// more relations than its table would from local learning alone. (Weak but
// robust: imported credits are nonzero somewhere in the fleet.)
TEST(ShardedCampaignTest, GossipImportsCreditState) {
  const Target& target = BuiltinTarget();
  FuzzerOptions base;
  base.num_vms = 2;

  FuzzShard a(target, base, 0);
  FuzzerOptions base_b = base;
  base_b.seed = 99;
  FuzzShard b(target, base_b, 1);

  a.RunExecs(300);
  b.RunExecs(300);
  const std::vector<uint8_t> batch = a.EmitGossip();
  ASSERT_FALSE(batch.empty());
  ASSERT_TRUE(b.Ingest(batch.data(), batch.size()).ok());
  EXPECT_GT(b.ApplyInbox(), 0u);
  EXPECT_TRUE(b.CheckRelationIdentity());
  const ShardStats& stats = b.stats();
  EXPECT_GT(stats.coverage_bits_imported + stats.relations_imported +
                stats.seeds_imported,
            0u);

  // Replaying the exact same batch must credit nothing further.
  const ShardStats before = b.stats();
  ASSERT_TRUE(b.Ingest(batch.data(), batch.size()).ok());
  EXPECT_EQ(b.ApplyInbox(), 0u);
  EXPECT_EQ(b.stats().relations_imported, before.relations_imported);
  EXPECT_EQ(b.stats().coverage_bits_imported,
            before.coverage_bits_imported);
  EXPECT_EQ(b.stats().seeds_imported, before.seeds_imported);
  EXPECT_GT(b.stats().frames_replayed, before.frames_replayed);

  // The fingerprint folds the hashes the corpus keeps; it must equal the
  // fold over every entry decoded and serialized again.
  const std::vector<Prog> progs = b.fuzzer().corpus().ExportAll();
  ASSERT_EQ(progs.size(), b.fuzzer().corpus().size());
  std::vector<uint64_t> hashes;
  for (const Prog& prog : progs) {
    hashes.push_back(Corpus::ContentHash(SerializeProg(prog)));
  }
  std::sort(hashes.begin(), hashes.end());
  uint64_t fingerprint = 0x9e3779b97f4a7c15ULL;
  for (uint64_t h : hashes) {
    fingerprint = HashCombine(fingerprint, Mix64(h));
  }
  EXPECT_EQ(b.CorpusFingerprint(), fingerprint);
}

// A seeds frame applies whole or not at all: one blob that is not a valid
// HEA1 program drops the frame, however many good blobs surround it.
TEST(ShardedCampaignTest, SeedsFrameWithOneInvalidBlobAppliesNothing) {
  const Target& target = BuiltinTarget();
  FuzzerOptions base;
  base.num_vms = 2;
  FuzzShard origin(target, base, 0);
  origin.RunExecs(200);
  const Corpus& corpus = origin.fuzzer().corpus();
  ASSERT_GE(corpus.size(), 2u);
  std::vector<uint8_t> truncated = corpus.at(1).bytes();
  truncated.pop_back();
  const std::vector<std::vector<uint8_t>> good = {corpus.at(0).bytes(),
                                                  corpus.at(1).bytes()};
  const std::vector<std::vector<uint8_t>> bad = {corpus.at(0).bytes(),
                                                 truncated,
                                                 corpus.at(1).bytes()};

  FuzzerOptions receiver_options = base;
  receiver_options.seed = 77;
  FuzzShard receiver(target, receiver_options, 1);
  receiver.RunExecs(50);
  auto deliver = [&](const std::vector<std::vector<uint8_t>>& blobs,
                     uint64_t seq) {
    GossipFrame frame;
    frame.type = GossipFrameType::kSeeds;
    frame.origin = 0;
    frame.seq = seq;
    frame.payload = EncodeSeedsPayload(blobs);
    std::vector<uint8_t> bytes;
    AppendGossipFrame(frame, &bytes);
    ASSERT_TRUE(receiver.Ingest(bytes.data(), bytes.size()).ok());
    EXPECT_EQ(receiver.ApplyInbox(), 1u);
  };

  const size_t corpus_before = receiver.fuzzer().corpus().size();
  const ShardStats before = receiver.stats();
  deliver(bad, 0);
  EXPECT_EQ(receiver.fuzzer().corpus().size(), corpus_before);
  EXPECT_EQ(receiver.stats().seeds_imported, before.seeds_imported);
  EXPECT_EQ(receiver.stats().seeds_duplicate, before.seeds_duplicate);
  EXPECT_EQ(receiver.stats().frames_dropped, 1u);

  // The same programs without the bad blob land.
  deliver(good, 1);
  EXPECT_EQ(receiver.stats().seeds_imported +
                receiver.stats().seeds_duplicate,
            before.seeds_imported + before.seeds_duplicate + 2);
  EXPECT_EQ(receiver.fuzzer().corpus().size(),
            corpus_before + receiver.stats().seeds_imported -
                before.seeds_imported);
  EXPECT_EQ(receiver.stats().frames_dropped, 1u);
}

// More new programs than one seeds frame may carry (kGossipMaxSeeds) still
// all reach the peer: the emit splits them over several frames.
TEST(ShardedCampaignTest, LargeSeedBatchSplitsAcrossFrames) {
  const Target& target = BuiltinTarget();
  FuzzerOptions base;
  base.num_vms = 2;
  FuzzShard origin(target, base, 0);
  std::vector<int> ids;
  for (const auto& call : target.syscalls()) {
    ids.push_back(call->id);
  }
  Rng rng(5);
  ProgBuilder builder(target, ids, &rng);
  const auto choose = [&](const std::vector<int>&) {
    return ids[rng.Below(ids.size())];
  };
  constexpr size_t kPrograms = 1500;
  static_assert(kPrograms > kGossipMaxSeeds);
  ASSERT_TRUE(origin.fuzzer().corpus().empty());
  size_t added = 0;
  while (added < kPrograms) {
    Prog prog = builder.Generate(choose, 1 + added % 7);
    if (!prog.empty() && prog.Validate().ok() &&
        origin.fuzzer().mutable_corpus()->Add(prog, 1)) {
      ++added;
    }
  }

  const std::vector<uint8_t> batch = origin.EmitGossip();
  Result<std::vector<GossipFrame>> frames =
      DecodeGossipStream(batch.data(), batch.size());
  ASSERT_TRUE(frames.ok()) << frames.status().ToString();
  size_t seed_frames = 0;
  for (const GossipFrame& frame : *frames) {
    seed_frames += frame.type == GossipFrameType::kSeeds ? 1 : 0;
  }
  EXPECT_EQ(seed_frames, 2u);

  FuzzerOptions peer_options = base;
  peer_options.seed = 31;
  FuzzShard peer(target, peer_options, 1);
  ASSERT_TRUE(peer.Ingest(batch.data(), batch.size()).ok());
  peer.ApplyInbox();
  EXPECT_EQ(peer.stats().seeds_imported + peer.stats().seeds_duplicate,
            kPrograms);
  EXPECT_EQ(peer.stats().frames_dropped, 0u);
}

TEST(ShardedCampaignTest, CanonicalRelationBytesIgnoreLearnOrder) {
  const Target& target = BuiltinTarget();
  FuzzerOptions base;
  base.num_vms = 2;
  FuzzShard shard(target, base, 0);
  shard.RunExecs(100);
  const std::vector<uint8_t> once = shard.CanonicalRelationBytes();
  const std::vector<uint8_t> again = shard.CanonicalRelationBytes();
  EXPECT_EQ(once, again);
  EXPECT_GE(once.size(), 4u);
}

}  // namespace
}  // namespace healer
