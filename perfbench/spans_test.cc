// Tests of the benchmark's span and timing helpers.

#include "perfbench/spans.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(SelfTimeTest, NestedSpansSubtractDirectChildrenOnly) {
  SpanRecorder rec;
  const int step = rec.Layer("step");
  const int build = rec.Layer("build");
  const int select = rec.Layer("select");
  const int exec = rec.Layer("exec");
  // step [0, 100): build [10, 40) holding select [15, 25); exec [50, 90).
  const int32_t s = rec.Begin(step, 0);
  const int32_t b = rec.Begin(build, 10);
  const int32_t c = rec.Begin(select, 15);
  rec.End(c, 25);
  rec.End(b, 40);
  const int32_t e = rec.Begin(exec, 50);
  rec.End(e, 90);
  rec.End(s, 100);

  const std::vector<uint64_t> self = SelfTimes(rec.spans());
  ASSERT_EQ(self.size(), 4u);
  EXPECT_EQ(self[static_cast<size_t>(s)], 30u);  // 100 - 30 - 40.
  EXPECT_EQ(self[static_cast<size_t>(b)], 20u);  // 30 - 10.
  EXPECT_EQ(self[static_cast<size_t>(c)], 10u);
  EXPECT_EQ(self[static_cast<size_t>(e)], 40u);
  EXPECT_EQ(rec.spans()[static_cast<size_t>(c)].parent, b);
  EXPECT_EQ(rec.spans()[static_cast<size_t>(e)].parent, s);
  EXPECT_EQ(rec.spans()[static_cast<size_t>(c)].layer, select);
  EXPECT_EQ(rec.spans()[static_cast<size_t>(e)].layer, exec);
  EXPECT_EQ(rec.spans()[static_cast<size_t>(b)].layer, build);
  EXPECT_EQ(rec.spans()[static_cast<size_t>(s)].layer, step);
}

TEST(SelfTimeTest, RepeatedLayerSumsAndSiblingRootsAreIndependent) {
  SpanRecorder rec;
  const int root = rec.Layer("root");
  const int leaf = rec.Layer("leaf");
  EXPECT_EQ(rec.Layer("leaf"), leaf);  // Registered once.
  for (uint64_t base : {0u, 1000u}) {
    const int32_t r = rec.Begin(root, base);
    for (uint64_t k = 0; k < 3; ++k) {
      const int32_t l = rec.Begin(leaf, base + 10 * k);
      rec.End(l, base + 10 * k + 5);
    }
    rec.End(r, base + 100);
  }
  const std::vector<uint64_t> self = SelfTimes(rec.spans());
  std::vector<uint64_t> by_layer(2, 0);
  for (size_t i = 0; i < self.size(); ++i) {
    by_layer[static_cast<size_t>(rec.spans()[i].layer)] += self[i];
  }
  EXPECT_EQ(by_layer[static_cast<size_t>(root)], 2u * (100u - 15u));
  EXPECT_EQ(by_layer[static_cast<size_t>(leaf)], 2u * 15u);
  EXPECT_EQ(rec.spans()[4].parent, -1);  // Second root.
}

TEST(SelfTimeTest, RaiiSpanClosesInnermostFirst) {
  SpanRecorder rec;
  const int outer = rec.Layer("outer");
  const int inner = rec.Layer("inner");
  {
    Span a(&rec, outer);
    Span b(&rec, inner);
  }
  ASSERT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_LE(rec.spans()[1].end_ns, rec.spans()[0].end_ns);
  EXPECT_GE(rec.spans()[1].start_ns, rec.spans()[0].start_ns);
}

TEST(TailQuantileTest, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(TailQuantile(0), 0.0);
  EXPECT_EQ(TailQuantile(99), 0.0);  // p90 would leave 9.9 beyond.
  EXPECT_DOUBLE_EQ(TailQuantile(100), 0.9);
  EXPECT_DOUBLE_EQ(TailQuantile(999), 0.9);
  EXPECT_DOUBLE_EQ(TailQuantile(1000), 0.99);
  EXPECT_DOUBLE_EQ(TailQuantile(9999), 0.99);
  EXPECT_DOUBLE_EQ(TailQuantile(10000), 0.999);
  EXPECT_DOUBLE_EQ(TailQuantile(1000000), 0.99999);
}

TEST(TailQuantileTest, SummaryLeavesTenSamplesAboveTheTail) {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) {
    samples.push_back(static_cast<double>(1001 - i));  // Unsorted input.
  }
  const TimingSummary s = Summarize(samples);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_DOUBLE_EQ(s.median, 500.5);
  EXPECT_DOUBLE_EQ(s.tail_q, 0.99);
  size_t beyond = 0;
  for (double x : samples) {
    beyond += x > s.tail ? 1 : 0;
  }
  EXPECT_EQ(beyond, 10u);
  EXPECT_EQ(QuantileLabel(s.tail_q), "p99");
  EXPECT_EQ(QuantileLabel(0.999), "p99.9");
}

TEST(TailQuantileTest, FewSamplesReportOnlyTheMedian) {
  const TimingSummary s = Summarize({3.0, 1.0, 2.0});
  EXPECT_EQ(s.n, 3u);
  EXPECT_DOUBLE_EQ(s.median, 2.0);
  EXPECT_EQ(s.tail_q, 0.0);
  EXPECT_EQ(s.tail, 0.0);
}

}  // namespace
}  // namespace perfbench
