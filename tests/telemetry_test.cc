// Telemetry layer: metric registry exactness (including under threads, the
// TSan target), histogram bucketing, Prometheus/JSON/Chrome-trace golden
// outputs, the log sink, the live status line, and campaign-level
// properties — counters reconcile with the campaign's own result fields and
// snapshots are a deterministic function of (options, seed, fault_plan).

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/base/logging.h"
#include "src/base/metrics.h"
#include "src/base/trace.h"
#include "src/fuzz/campaign.h"
#include "src/fuzz/parallel.h"
#include "src/fuzz/report.h"
#include "src/syzlang/builtin_descs.h"

namespace healer {
namespace {

// ---- Counter / Gauge / Histogram ----

TEST(MetricsTest, CounterAddAndValue) {
  MetricRegistry registry;
  Counter* c = registry.GetCounter("healer_test_total");
  EXPECT_EQ(c->Value(), 0u);
  c->Add();
  c->Add(41);
  if (kTelemetryEnabled) {
    EXPECT_EQ(c->Value(), 42u);
  } else {
    EXPECT_EQ(c->Value(), 0u);
  }
  // Same name returns the same handle; a new name a distinct one.
  EXPECT_EQ(registry.GetCounter("healer_test_total"), c);
  EXPECT_NE(registry.GetCounter("healer_other_total"), c);
}

TEST(MetricsTest, GaugeLastWriteWins) {
  MetricRegistry registry;
  Gauge* g = registry.GetGauge("healer_test_gauge");
  EXPECT_EQ(g->Value(), 0.0);
  g->Set(0.62);
  g->Set(1234.5);
  if (kTelemetryEnabled) {
    EXPECT_DOUBLE_EQ(g->Value(), 1234.5);
  }
}

TEST(MetricsTest, HistogramBucketEdges) {
  // Bucket 0 holds only the value 0; bucket i holds bit-width-i values.
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 4u);
  EXPECT_EQ(Histogram::BucketIndex(~uint64_t{0}), 64u);
  EXPECT_EQ(Histogram::BucketUpperEdge(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperEdge(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperEdge(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperEdge(3), 7u);
  EXPECT_EQ(Histogram::BucketUpperEdge(4), 15u);
  EXPECT_EQ(Histogram::BucketUpperEdge(64), ~uint64_t{0});
  // Every value lands in the bucket whose upper edge bounds it.
  for (uint64_t v : {0ull, 1ull, 2ull, 5ull, 100ull, 65535ull, 1ull << 40}) {
    const size_t b = Histogram::BucketIndex(v);
    EXPECT_LE(v, Histogram::BucketUpperEdge(b));
    if (b > 0) {
      EXPECT_GT(v, Histogram::BucketUpperEdge(b - 1));
    }
  }
}

TEST(MetricsTest, HistogramObserve) {
  if (!kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  Histogram h;
  h.Observe(0);
  h.Observe(1);
  h.Observe(2);
  h.Observe(3);
  h.Observe(7);
  EXPECT_EQ(h.Count(), 5u);
  EXPECT_EQ(h.Sum(), 13u);
  EXPECT_EQ(h.BucketCount(0), 1u);
  EXPECT_EQ(h.BucketCount(1), 1u);
  EXPECT_EQ(h.BucketCount(2), 2u);
  EXPECT_EQ(h.BucketCount(3), 1u);
}

// ---- exactness under threads (runs under TSan in scripts/check.sh) ----

TEST(TelemetryThreadsTest, CountersExactUnder8Threads) {
  if (!kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  MetricRegistry registry;
  Counter* counter = registry.GetCounter("healer_threads_total");
  Histogram* hist = registry.GetHistogram("healer_threads_hist");
  Gauge* gauge = registry.GetGauge("healer_threads_gauge");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter->Add();
        hist->Observe(i % 16);
        gauge->Set(static_cast<double>(t));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter->Value(), kThreads * kPerThread);
  EXPECT_EQ(hist->Count(), kThreads * kPerThread);
  const double g = gauge->Value();
  EXPECT_GE(g, 0.0);
  EXPECT_LT(g, static_cast<double>(kThreads));
  // Snapshot while nothing is running is exact too.
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("healer_threads_total"), kThreads * kPerThread);
}

TEST(TelemetryThreadsTest, TraceBufferUnderThreads) {
  if (!kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  TraceBuffer buffer(64);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < 1000; ++i) {
        buffer.RecordComplete("span", "test", i, 1,
                              static_cast<uint32_t>(t));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(buffer.size(), 64u);
  EXPECT_EQ(buffer.dropped(), kThreads * 1000u - 64u);
}

// ---- golden outputs ----

TEST(MetricsTest, PrometheusGolden) {
  if (!kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  MetricRegistry registry;
  registry.GetCounter("healer_execs_total")->Add(42);
  registry.GetGauge("healer_alpha")->Set(0.62);
  Histogram* h = registry.GetHistogram("healer_prog_len");
  h->Observe(0);
  h->Observe(3);
  h->Observe(3);
  const std::string expected =
      "# TYPE healer_execs_total counter\n"
      "healer_execs_total 42\n"
      "# TYPE healer_alpha gauge\n"
      "healer_alpha 0.62\n"
      "# TYPE healer_prog_len histogram\n"
      "healer_prog_len_bucket{le=\"0\"} 1\n"
      "healer_prog_len_bucket{le=\"1\"} 1\n"
      "healer_prog_len_bucket{le=\"3\"} 3\n"
      "healer_prog_len_bucket{le=\"+Inf\"} 3\n"
      "healer_prog_len_sum 6\n"
      "healer_prog_len_count 3\n";
  EXPECT_EQ(registry.ToPrometheusText(), expected);
}

TEST(MetricsTest, JsonGolden) {
  if (!kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  MetricRegistry registry;
  registry.GetCounter("healer_execs_total")->Add(7);
  registry.GetGauge("healer_alpha")->Set(0.5);
  registry.GetHistogram("healer_prog_len")->Observe(2);
  const std::string expected =
      "{\n"
      "  \"counters\": {\n"
      "    \"healer_execs_total\": 7\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"healer_alpha\": 0.5\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"healer_prog_len\": {\"count\": 1, \"sum\": 2, "
      "\"buckets\": [0, 0, 1], \"p50\": 2.5, \"p90\": 2.9, "
      "\"p99\": 2.99}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(registry.ToJson(), expected);
}

TEST(TraceTest, ChromeJsonGolden) {
  if (!kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  TraceBuffer buffer(8);
  buffer.RecordComplete("exec", "vm", 1500, 2500);
  buffer.RecordInstant("alpha-update", "alpha", 5000, 2);
  const std::string expected =
      "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
      "{\"name\": \"exec\", \"cat\": \"vm\", \"ph\": \"X\", \"pid\": 1, "
      "\"tid\": 0, \"ts\": 1.500, \"dur\": 2.500},\n"
      "{\"name\": \"alpha-update\", \"cat\": \"alpha\", \"ph\": \"i\", "
      "\"pid\": 1, \"tid\": 2, \"ts\": 5.000, \"s\": \"t\"}\n"
      "]}\n";
  EXPECT_EQ(buffer.ToChromeJson(), expected);
}

TEST(TraceTest, RingOverwritesOldest) {
  if (!kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  TraceBuffer buffer(3);
  for (uint64_t i = 0; i < 5; ++i) {
    buffer.RecordInstant("e", "t", i * 100);
  }
  const std::vector<TraceEvent> events = buffer.Events();
  ASSERT_EQ(events.size(), 3u);
  // Oldest first: events 2, 3, 4 survive.
  EXPECT_EQ(events[0].start, 200u);
  EXPECT_EQ(events[1].start, 300u);
  EXPECT_EQ(events[2].start, 400u);
  EXPECT_EQ(buffer.dropped(), 2u);
}

TEST(TraceTest, ZeroCapacityDropsEverything) {
  TraceBuffer buffer;  // capacity 0
  buffer.RecordComplete("exec", "vm", 0, 10);
  buffer.RecordInstant("x", "y", 5);
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_TRUE(buffer.Events().empty());
}

// ---- log sink ----

TEST(LogSinkTest, CapturesAndRestores) {
  std::vector<std::string> lines;
  SetLogSink([&](LogLevel, const std::string& line) {
    lines.push_back(line);
  });
  LogToSink(LogLevel::kInfo, "status line one");
  LOG_ERROR << "an error line";  // Above threshold -> reaches the sink.
  SetLogSink(nullptr);  // Restore stderr default.
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(lines[0], "status line one");
  EXPECT_NE(lines[1].find("an error line"), std::string::npos);
}

TEST(StatusLineTest, Format) {
  StatusLineInfo info;
  info.hours = 12.5;
  info.execs = 48123;
  info.execs_per_sec = 22.4;
  info.coverage = 1234;
  info.corpus = 321;
  info.relations = 99;
  info.crashes = 3;
  info.vms = 2;
  const std::string line = FormatStatusLine(info);
  EXPECT_NE(line.find("12.50h"), std::string::npos);
  EXPECT_NE(line.find("execs 48123 (22.40/sec sim)"), std::string::npos);
  EXPECT_NE(line.find("cover 1234"), std::string::npos);
  EXPECT_NE(line.find("crashes 3"), std::string::npos);
  EXPECT_EQ(line.find("faults"), std::string::npos);
  info.failed_execs = 17;
  info.quarantines = 2;
  EXPECT_NE(FormatStatusLine(info).find("faults 17 (2 quarantined)"),
            std::string::npos);
  EXPECT_EQ(line.find("probes"), std::string::npos);
  info.probes_per_exec = 0.79;
  info.images_per_exec = 1.15;
  EXPECT_NE(FormatStatusLine(info).find("probes 0.79/exec, images 1.15/exec"),
            std::string::npos);
  EXPECT_NE(FormatStatusJson(info).find("\"images_per_exec\": 1.1500"),
            std::string::npos);
}

// ---- campaign-level properties ----

CampaignOptions QuickOptions(uint64_t seed = 3) {
  CampaignOptions options;
  options.hours = 0.05;
  options.seed = seed;
  options.sample_period = SimClock::kMinute;
  options.fault_plan = FaultPlan::Uniform(0.01);
  return options;
}

TEST(TelemetryCampaignTest, CountersReconcileWithResult) {
  if (!kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  const CampaignResult result = RunCampaign(QuickOptions());
  const MetricsSnapshot& t = result.telemetry;
  ASSERT_FALSE(t.empty());
  ASSERT_GT(result.fuzz_execs, 0u);

  // The snapshot and the struct fields come from the same campaign and must
  // agree exactly.
  EXPECT_EQ(t.counter("healer_fuzz_execs_total"), result.fuzz_execs);
  EXPECT_EQ(t.counter("healer_fuzz_execs_total"),
            t.counter("healer_fuzz_generated_total") +
                t.counter("healer_fuzz_mutated_total") +
                t.counter("healer_fuzz_seeded_total"));
  // Every recovery attempt either succeeded or failed.
  EXPECT_EQ(t.counter("healer_exec_attempts_total"),
            t.counter("healer_exec_ok_total") +
                t.counter("healer_exec_failed_total"));
  // VM-side exec counting (only successful round trips) matches both the
  // recovery layer's ok count and the pool total the result reports.
  EXPECT_EQ(t.counter("healer_vm_execs_total"),
            t.counter("healer_exec_ok_total"));
  EXPECT_EQ(t.counter("healer_vm_execs_total"), result.total_execs);
  // The coverage counter sums exactly the edges merged into the bitmap.
  EXPECT_EQ(t.counter("healer_coverage_edges_total"), result.final_coverage);
  EXPECT_DOUBLE_EQ(t.gauge("healer_coverage_branches"),
                   static_cast<double>(result.final_coverage));
  // Fault accounting is backed by the same counters as FaultStats.
  EXPECT_EQ(t.counter("healer_exec_failed_total"),
            result.faults.failed_execs);
  EXPECT_EQ(t.counter("healer_exec_retries_total"), result.faults.retries);
  EXPECT_EQ(t.counter("healer_vm_quarantines_total"),
            result.faults.quarantines);
  // Per-kind injected-fault counters sum to the FaultStats total.
  uint64_t injected = 0;
  for (size_t i = 0; i < kNumFaultKinds; ++i) {
    injected += t.counter(
        std::string("healer_fault_injected_") +
        FaultKindName(static_cast<FaultKind>(i)) + "_total");
  }
  EXPECT_EQ(injected, result.faults.TotalInjected());
  // Derived gauges match result fields.
  EXPECT_DOUBLE_EQ(t.gauge("healer_corpus_programs"),
                   static_cast<double>(result.corpus_size));
  EXPECT_DOUBLE_EQ(t.gauge("healer_relations_total"),
                   static_cast<double>(result.relations_total));
  EXPECT_DOUBLE_EQ(t.gauge("healer_crashes_unique"),
                   static_cast<double>(result.crashes.size()));
  EXPECT_NEAR(t.gauge("healer_sim_hours"), QuickOptions().hours, 0.05);
  // Distribution bookkeeping: program lengths were observed for every
  // fuzzing execution.
  auto it = t.histograms.find("healer_prog_len");
  ASSERT_NE(it, t.histograms.end());
  EXPECT_EQ(it->second.count, result.fuzz_execs);
}

TEST(TelemetryCampaignTest, SnapshotIsDeterministic) {
  if (!kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  CampaignOptions options = QuickOptions(11);
  options.capture_trace = true;
  options.trace_capacity = 1 << 12;
  const CampaignResult a = RunCampaign(options);
  const CampaignResult b = RunCampaign(options);
  EXPECT_EQ(a.telemetry, b.telemetry);
  EXPECT_EQ(a.telemetry.ToPrometheusText(), b.telemetry.ToPrometheusText());
  ASSERT_EQ(a.trace_events.size(), b.trace_events.size());
  EXPECT_TRUE(a.trace_events == b.trace_events);
  EXPECT_FALSE(a.trace_events.empty());
}

TEST(TelemetryCampaignTest, StatusLinesEmittedThroughSink) {
  std::vector<std::string> lines;
  SetLogSink([&](LogLevel level, const std::string& line) {
    if (level == LogLevel::kInfo) {
      lines.push_back(line);
    }
  });
  CampaignOptions options = QuickOptions(5);
  options.status_period = 30 * SimClock::kSecond;
  RunCampaign(options);
  SetLogSink(nullptr);
  ASSERT_GE(lines.size(), 2u);  // Periodic lines plus the final one.
  for (const std::string& line : lines) {
    EXPECT_NE(line.find("execs"), std::string::npos) << line;
    EXPECT_NE(line.find("cover"), std::string::npos) << line;
  }
}

TEST(TelemetryCampaignTest, TraceEventsSpanTheCampaign) {
  if (!kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  CampaignOptions options = QuickOptions(7);
  options.capture_trace = true;
  options.trace_capacity = 1 << 14;
  const CampaignResult result = RunCampaign(options);
  ASSERT_FALSE(result.trace_events.empty());
  // Spans record at scope exit, so the buffer is ordered by *end* time
  // (nested spans close before their parent): start + duration must be
  // non-decreasing, and every event must fit inside the campaign.
  bool saw_exec = false;
  SimClock::Nanos last_end = 0;
  for (const TraceEvent& event : result.trace_events) {
    if (std::string(event.name) == "exec") {
      saw_exec = true;
    }
    const SimClock::Nanos end = event.start + event.duration;
    EXPECT_GE(end, last_end);
    last_end = end;
  }
  EXPECT_TRUE(saw_exec);
  EXPECT_GT(last_end, 0u);
  // Off by default: a plain campaign records nothing.
  CampaignOptions plain = QuickOptions(7);
  EXPECT_TRUE(RunCampaign(plain).trace_events.empty());
}

// ---- report integration ----

TEST(TelemetryReportTest, ReportQuotesTelemetry) {
  if (!kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  const CampaignResult result = RunCampaign(QuickOptions(13));
  const std::string report = FormatCampaignReport(result);
  // The executions line is rendered from the snapshot; it must carry the
  // same number the result field does.
  char expected[64];
  std::snprintf(expected, sizeof(expected), "executions : %llu fuzzing",
                (unsigned long long)result.telemetry.counter(
                    "healer_fuzz_execs_total"));
  EXPECT_NE(report.find(expected), std::string::npos) << report;
}

TEST(TelemetryReportTest, ProbeLineAttributesAnalysisExecutions) {
  if (!kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  CampaignOptions options = QuickOptions(13);
  options.fault_plan = FaultPlan();
  const CampaignResult result = RunCampaign(options);
  const MetricsSnapshot& t = result.telemetry;
  const uint64_t fuzz = t.counter("healer_fuzz_execs_total");
  const uint64_t analysis = t.counter("healer_exec_analysis_total");
  const uint64_t shipped = t.counter("healer_exec_images_shipped_total");
  const uint64_t replays = t.counter("healer_exec_mask_replays_total");
  // Fault-free, every execution reaches its guest exactly once: as a
  // shipped program or as a mask replay over the one the guest holds.
  EXPECT_EQ(shipped + replays, fuzz + analysis);
  EXPECT_GT(analysis, 0u);
  EXPECT_GT(replays, analysis / 2);
  EXPECT_NE(FormatCampaignReport(result).find(
                FormatProbeLine(fuzz, analysis, shipped, replays)),
            std::string::npos);
}

TEST(TelemetryReportTest, MaxCrashesZeroSuppressesList) {
  CampaignResult result;
  result.crashes.push_back(CrashRecord{});
  result.crashes.back().title = "KASAN: some-bug";
  ReportOptions options;
  options.max_crashes = 0;
  const std::string report = FormatCampaignReport(result, options);
  EXPECT_EQ(report.find("KASAN: some-bug"), std::string::npos);
  EXPECT_NE(report.find("crashes    : 1 unique"), std::string::npos);
  EXPECT_NE(report.find("crash list suppressed"), std::string::npos);
}

TEST(TelemetryReportTest, MaxSamplesThinsCurve) {
  CampaignResult result;
  for (int i = 0; i < 200; ++i) {
    CoverageSample sample;
    sample.hours = i * 0.1;
    sample.branches = static_cast<size_t>(i);
    result.samples.push_back(sample);
  }
  ReportOptions options;
  options.include_samples = true;
  options.max_samples = 10;
  const std::string report = FormatCampaignReport(result, options);
  EXPECT_NE(report.find("(10 of 200 samples shown)"), std::string::npos);
  // Unlimited when 0.
  options.max_samples = 0;
  EXPECT_EQ(FormatCampaignReport(result, options).find("samples shown"),
            std::string::npos);
}

// ---- parallel fuzzing carries the same telemetry ----

TEST(TelemetryParallelTest, SnapshotAndFaultStatsAgree) {
  if (!kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  ParallelOptions options;
  options.num_workers = 4;
  options.total_execs = 400;
  options.fault_plan = FaultPlan::Uniform(0.01);
  options.trace_capacity = 1 << 10;
  const ParallelResult result = RunParallelFuzz(BuiltinTarget(), options);
  const MetricsSnapshot& t = result.telemetry;
  ASSERT_FALSE(t.empty());
  EXPECT_EQ(t.counter("healer_exec_attempts_total"),
            t.counter("healer_exec_ok_total") +
                t.counter("healer_exec_failed_total"));
  EXPECT_EQ(t.counter("healer_exec_failed_total"),
            result.faults.failed_execs);
  EXPECT_EQ(t.counter("healer_coverage_edges_total"), result.coverage);
  EXPECT_DOUBLE_EQ(t.gauge("healer_coverage_branches"),
                   static_cast<double>(result.coverage));
  EXPECT_FALSE(result.trace_events.empty());
}

}  // namespace
}  // namespace healer
