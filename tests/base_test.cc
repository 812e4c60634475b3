#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/bitmap.h"
#include "src/base/hash.h"
#include "src/base/rng.h"
#include "src/base/sim_clock.h"
#include "src/base/status.h"
#include "src/base/string_util.h"

namespace healer {
namespace {

// ---- Status / Result ----

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = InvalidArgument("bad thing");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad thing");
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad thing");
}

TEST(StatusTest, AllCodeNamesDistinct) {
  std::set<std::string> names;
  for (int c = 0; c <= static_cast<int>(StatusCode::kParseError); ++c) {
    names.insert(StatusCodeName(static_cast<StatusCode>(c)));
  }
  EXPECT_EQ(names.size(), 10u);
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result = NotFound("nope");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MovesValueOut) {
  Result<std::string> result = std::string("payload");
  std::string taken = std::move(result).value();
  EXPECT_EQ(taken, "payload");
}

// ---- Rng ----

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.Next() == b.Next() ? 1 : 0;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, BelowRespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.Below(bound), bound);
    }
  }
}

TEST(RngTest, InRangeInclusive) {
  Rng rng(9);
  bool hit_lo = false;
  bool hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = rng.InRange(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    hit_lo |= v == 3;
    hit_hi |= v == 5;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(13);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    hits += rng.Bernoulli(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.25, 0.03);
}

TEST(RngTest, WeightedPickFollowsWeights) {
  Rng rng(17);
  std::vector<uint64_t> weights = {1, 0, 9};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) {
    ++counts[rng.WeightedPick(weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_GT(counts[2], counts[0] * 5);
}

TEST(RngTest, PickOneCoversAll) {
  Rng rng(19);
  std::vector<int> items = {1, 2, 3};
  std::set<int> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(rng.PickOne(items));
  }
  EXPECT_EQ(seen.size(), 3u);
}

// ---- Bitmap ----

TEST(BitmapTest, SetAndTest) {
  Bitmap bitmap(128);
  EXPECT_FALSE(bitmap.Test(5));
  EXPECT_TRUE(bitmap.Set(5));
  EXPECT_TRUE(bitmap.Test(5));
  EXPECT_FALSE(bitmap.Set(5));  // Already set.
  EXPECT_EQ(bitmap.Count(), 1u);
}

TEST(BitmapTest, CountTracksSets) {
  Bitmap bitmap(1024);
  for (size_t i = 0; i < 1024; i += 3) {
    bitmap.Set(i);
  }
  EXPECT_EQ(bitmap.Count(), (1024 + 2) / 3);
}

TEST(BitmapTest, MergeNewCountsFreshBitsOnly) {
  Bitmap a(256);
  Bitmap b(256);
  a.Set(1);
  a.Set(2);
  b.Set(2);
  b.Set(3);
  b.Set(200);
  EXPECT_EQ(a.MergeNew(b), 2u);  // 3 and 200.
  EXPECT_EQ(a.Count(), 4u);
  EXPECT_EQ(a.MergeNew(b), 0u);  // Idempotent.
}

TEST(BitmapTest, ClearResets) {
  Bitmap bitmap(64);
  bitmap.Set(3);
  bitmap.Clear();
  EXPECT_EQ(bitmap.Count(), 0u);
  EXPECT_FALSE(bitmap.Test(3));
}

TEST(BitmapTest, MergeNewSizeMismatchAborts) {
  // Mixing coverage spaces of different sizes used to silently truncate the
  // merge; it is now fatal regardless of NDEBUG.
  Bitmap a(128);
  Bitmap b(256);
  EXPECT_DEATH(a.MergeNew(b), "bitmap size mismatch");
  EXPECT_DEATH(b.MergeNew(a), "bitmap size mismatch");
}

TEST(BitmapTest, ConcurrentSetsCountEachBitOnce) {
  // Set/MergeNew are atomic-word operations: hammer one bitmap from
  // several threads with overlapping bit ranges and check that the winner
  // accounting is exact — total "fresh" credits == final popcount.
  constexpr size_t kBits = 4096;
  constexpr int kThreads = 4;
  Bitmap bitmap(kBits);
  std::atomic<size_t> fresh_total{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&bitmap, &fresh_total, t] {
      size_t fresh = 0;
      // Each thread covers 3/4 of the map, offset per thread, so every bit
      // is contended by at least two threads.
      for (size_t i = 0; i < kBits * 3 / 4; ++i) {
        fresh += bitmap.Set((i + t * (kBits / 4)) % kBits) ? 1 : 0;
      }
      fresh_total.fetch_add(fresh);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(bitmap.Count(), kBits);
  EXPECT_EQ(fresh_total.load(), kBits);
}

TEST(BitmapTest, ConcurrentMergeNewCreditsExactly) {
  constexpr size_t kBits = 2048;
  constexpr int kThreads = 4;
  Bitmap global(kBits);
  // Overlapping per-thread locals: threads race to merge shared bits.
  std::vector<Bitmap> locals;
  for (int t = 0; t < kThreads; ++t) {
    locals.emplace_back(kBits);
    for (size_t i = 0; i < kBits; i += (t + 1)) {
      locals.back().Set(i);
    }
  }
  std::atomic<size_t> fresh_total{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&global, &locals, &fresh_total, t] {
      fresh_total.fetch_add(global.MergeNew(locals[t]));
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(fresh_total.load(), global.Count());
  EXPECT_EQ(global.Count(), kBits);  // Stride-1 local covers everything.
}

TEST(BitmapTest, ClearResetsSummary) {
  // The map must keep working after the reset: a merge after Clear credits
  // every bit of the source again.
  Bitmap bitmap(64 * 100);
  for (size_t i = 0; i < bitmap.size_bits(); i += 64) {
    bitmap.Set(i);
  }
  bitmap.Clear();
  Bitmap other(64 * 100);
  other.Set(99);
  EXPECT_EQ(bitmap.MergeNew(other), 1u);
  EXPECT_TRUE(bitmap.Test(99));
  EXPECT_EQ(bitmap.Count(), 1u);
}

TEST(BitmapTest, RandomizedMergeMatchesSetReference) {
  // Property: MergeNew credits exactly the set-difference cardinality, is
  // idempotent, and leaves Count() at the union size; ForEachOccupiedWord
  // yields exactly the reference's nonzero words, ascending; OrWord credits
  // exactly the bits the word lacked.
  Rng rng(12345);
  for (int round = 0; round < 25; ++round) {
    const size_t bits = 64 * (1 + rng.Below(300));
    Bitmap acc(bits);
    Bitmap inc(bits);
    std::set<size_t> acc_ref;
    std::set<size_t> inc_ref;
    const size_t n = rng.Below(200);
    for (size_t i = 0; i < n; ++i) {
      const size_t a = rng.Below(bits);
      acc.Set(a);
      acc_ref.insert(a);
      const size_t b = rng.Below(bits);
      inc.Set(b);
      inc_ref.insert(b);
    }
    size_t expected_fresh = 0;
    for (size_t b : inc_ref) {
      expected_fresh += acc_ref.count(b) ? 0 : 1;
    }
    EXPECT_EQ(acc.MergeNew(inc), expected_fresh);
    EXPECT_EQ(acc.MergeNew(inc), 0u);
    std::set<size_t> union_ref = acc_ref;
    union_ref.insert(inc_ref.begin(), inc_ref.end());
    EXPECT_EQ(acc.Count(), union_ref.size());
    for (size_t b : union_ref) {
      EXPECT_TRUE(acc.Test(b));
    }

    std::vector<uint64_t> ref_words(bits / 64, 0);
    for (size_t b : union_ref) {
      ref_words[b / 64] |= 1ULL << (b % 64);
    }
    std::vector<std::pair<size_t, uint64_t>> expected_words;
    for (size_t w = 0; w < ref_words.size(); ++w) {
      if (ref_words[w] != 0) {
        expected_words.emplace_back(w, ref_words[w]);
      }
    }
    std::vector<std::pair<size_t, uint64_t>> occupied;
    acc.ForEachOccupiedWord(
        [&](size_t idx, uint64_t value) { occupied.emplace_back(idx, value); });
    EXPECT_EQ(occupied, expected_words);

    for (int k = 0; k < 8; ++k) {
      const size_t w = rng.Below(ref_words.size());
      const uint64_t value = rng.Next() & rng.Next();
      const size_t fresh =
          static_cast<size_t>(std::popcount(value & ~ref_words[w]));
      const size_t count_before = acc.Count();
      EXPECT_EQ(acc.OrWord(w, value), fresh);
      EXPECT_EQ(acc.OrWord(w, value), 0u);
      EXPECT_EQ(acc.Count(), count_before + fresh);
      ref_words[w] |= value;
      EXPECT_EQ(acc.Word(w), ref_words[w]);
    }
    EXPECT_EQ(acc.OrWord(ref_words.size(), ~0ULL), 0u);  // Out of range.
  }
}

// ---- Hash ----

TEST(HashTest, Fnv1aStable) {
  EXPECT_EQ(Fnv1a("hello"), Fnv1a("hello"));
  EXPECT_NE(Fnv1a("hello"), Fnv1a("hellp"));
  EXPECT_NE(Fnv1a("seeded", 1), Fnv1a("seeded", 2));
}

TEST(HashTest, Mix64Bijective) {
  // Distinct inputs stay distinct (spot check).
  std::set<uint64_t> outputs;
  for (uint64_t i = 0; i < 1000; ++i) {
    outputs.insert(Mix64(i));
  }
  EXPECT_EQ(outputs.size(), 1000u);
}

// ---- SimClock ----

TEST(SimClockTest, AdvanceAccumulates) {
  SimClock clock;
  clock.Advance(SimClock::kHour);
  clock.Advance(30 * SimClock::kMinute);
  EXPECT_DOUBLE_EQ(clock.hours(), 1.5);
  EXPECT_DOUBLE_EQ(clock.seconds(), 5400.0);
}

TEST(SimClockTest, ResetZeroes) {
  SimClock clock;
  clock.Advance(SimClock::kSecond);
  clock.Reset();
  EXPECT_EQ(clock.now(), 0u);
}

// ---- string_util ----

TEST(StringUtilTest, StrSplitKeepsEmptyPieces) {
  const auto parts = StrSplit("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringUtilTest, StrStrip) {
  EXPECT_EQ(StrStrip("  x \t\n"), "x");
  EXPECT_EQ(StrStrip(""), "");
  EXPECT_EQ(StrStrip(" \t "), "");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("openat$kvm", "openat"));
  EXPECT_FALSE(StartsWith("open", "openat"));
  EXPECT_TRUE(EndsWith("ioctl$KVM_RUN", "RUN"));
  EXPECT_FALSE(EndsWith("RUN", "KVM_RUN"));
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(StringUtilTest, StrJoin) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
}

TEST(StringUtilTest, ParseUintIsStrict) {
  EXPECT_EQ(*ParseUint("0", 10), 0u);
  EXPECT_EQ(*ParseUint("10", 10), 10u);
  EXPECT_EQ(*ParseUint("65535", 65535), 65535u);
  EXPECT_EQ(*ParseUint("18446744073709551615", UINT64_MAX), UINT64_MAX);
  // Above the maximum: no truncation to a smaller type.
  EXPECT_FALSE(ParseUint("70000", 65535).ok());
  EXPECT_FALSE(ParseUint("18446744073709551616", UINT64_MAX).ok());
  for (const char* bad : {"", "abc", "12abc", "1.5", "-1", "+1", " 1", "1 ",
                          "0x10", "1e3"}) {
    EXPECT_FALSE(ParseUint(bad, UINT64_MAX).ok()) << "'" << bad << "'";
  }
  // The error names the value and the accepted range.
  const Result<uint64_t> bad = ParseUint("abc", 4096);
  EXPECT_NE(bad.status().message().find("'abc'"), std::string::npos);
  EXPECT_NE(bad.status().message().find("[0, 4096]"), std::string::npos);
}

TEST(StringUtilTest, ParseNonNegativeRealIsStrict) {
  EXPECT_DOUBLE_EQ(*ParseNonNegativeReal("0"), 0.0);
  EXPECT_DOUBLE_EQ(*ParseNonNegativeReal("0.5"), 0.5);
  EXPECT_DOUBLE_EQ(*ParseNonNegativeReal("24"), 24.0);
  EXPECT_DOUBLE_EQ(*ParseNonNegativeReal("1e-3"), 0.001);
  for (const char* bad : {"", "x", "1.5h", "-1", "-0.5", "+1", " 1", "inf",
                          "nan", "1e999"}) {
    EXPECT_FALSE(ParseNonNegativeReal(bad).ok()) << "'" << bad << "'";
  }
  EXPECT_NE(ParseNonNegativeReal("x").status().message().find(">= 0"),
            std::string::npos);
}

}  // namespace
}  // namespace healer
