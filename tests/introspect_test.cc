// Observability-plane tests: the flight-recorder journal (ring semantics,
// export encodings, determinism, multi-writer reconciliation), histogram
// quantiles, Prometheus exposition conformance for every healer_* metric,
// crash postmortem bundles (one per unique bug, byte-identical across
// same-seed runs), and the localhost introspection server.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/base/introspect_server.h"
#include "src/base/journal.h"
#include "src/base/metrics.h"
#include "src/fuzz/campaign.h"
#include "src/fuzz/fuzzer.h"
#include "src/fuzz/parallel.h"
#include "src/fuzz/postmortem.h"
#include "src/syzlang/builtin_descs.h"
#include "tests/test_util.h"

namespace healer {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Journal: ring semantics and export encodings.

TEST(JournalTest, RingKeepsNewestAndCountsDrops) {
  if (!kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  Journal journal(3);
  // Before the ring wraps, Tail(n) is the newest n of what was appended.
  for (uint64_t i = 0; i < 2; ++i) {
    journal.Append(JournalRecord{JournalKind::kExec, 0, i * 10, i, 0, 0, ""});
  }
  EXPECT_EQ(journal.dropped(), 0u);
  std::vector<JournalRecord> early = journal.Tail(1);
  ASSERT_EQ(early.size(), 1u);
  EXPECT_EQ(early[0].a, 1u);
  early = journal.Tail(5);
  ASSERT_EQ(early.size(), 2u);
  EXPECT_EQ(early[0].a, 0u);
  EXPECT_EQ(early[1].a, 1u);
  EXPECT_TRUE(journal.Tail(0).empty());
  for (uint64_t i = 2; i < 5; ++i) {
    journal.Append(JournalRecord{JournalKind::kExec, 0, i * 10, i, 0, 0, ""});
  }
  EXPECT_EQ(journal.size(), 3u);
  EXPECT_EQ(journal.dropped(), 2u);
  const std::vector<JournalRecord> records = journal.Records();
  ASSERT_EQ(records.size(), 3u);
  // Oldest first: records 2, 3, 4 survive.
  EXPECT_EQ(records[0].a, 2u);
  EXPECT_EQ(records[2].a, 4u);
  const std::vector<JournalRecord> tail = journal.Tail(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].a, 3u);
  EXPECT_EQ(tail[1].a, 4u);
}

TEST(JournalTest, OversizedRingCostsAddressSpaceNotResidentMemory) {
  if (!kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  const uint64_t before = ResidentBytes();
  if (before == 0) {
    GTEST_SKIP() << "/proc/self/statm unreadable";
  }
  // ~72 MB of slots: building them all up front would touch every page.
  Journal journal(1 << 20);
  ASSERT_TRUE(journal.enabled());
  const uint64_t after = ResidentBytes();
  EXPECT_LT(after, before + (8u << 20));
  journal.Append(JournalRecord{JournalKind::kExec, 0, 1, 2, 3, 4, "x"});
  EXPECT_EQ(journal.Records().size(), 1u);
}

TEST(JournalTest, ZeroCapacityDropsBeforeLocking) {
  Journal journal;  // capacity 0
  EXPECT_FALSE(journal.enabled());
  journal.Append(JournalRecord{JournalKind::kCrash, 1, 5, 0, 0, 0, ""});
  EXPECT_EQ(journal.size(), 0u);
  EXPECT_TRUE(journal.Records().empty());
}

TEST(JournalTest, JsonLineGolden) {
  JournalRecord record{JournalKind::kExec, 0, 12, 1, 2, 3, ""};
  EXPECT_EQ(record.ToJsonLine(),
            "{\"at\":12,\"kind\":\"exec\",\"worker\":0,\"a\":1,\"b\":2,"
            "\"c\":3}");
  JournalRecord crash{JournalKind::kCrash, 2, 99, 7, 0, 0,
                      "KASAN: \"use\"\nafter\tfree"};
  EXPECT_EQ(crash.ToJsonLine(),
            "{\"at\":99,\"kind\":\"crash\",\"worker\":2,\"a\":7,\"b\":0,"
            "\"c\":0,\"detail\":\"KASAN: \\\"use\\\"\\nafter\\tfree\"}");
}

TEST(JournalTest, BinaryRoundTripsExactly) {
  std::vector<JournalRecord> records = {
      {JournalKind::kExec, 0, 1, 2, 3, 4, ""},
      {JournalKind::kRelationLearned, 3, 500, 17, 21, 2, "open->read"},
      {JournalKind::kCrash, 1, 1000, 55, 12, 1, "null deref in sim_tcp"},
      {JournalKind::kSpan, 2, 1500, 2500, 0, 0, "exec"},
  };
  const std::string frame = JournalRecordsToBinary(records);
  std::vector<JournalRecord> decoded;
  ASSERT_TRUE(JournalRecordsFromBinary(frame, &decoded));
  EXPECT_EQ(decoded, records);
}

TEST(JournalTest, BinaryDecodeIsDefensive) {
  std::vector<JournalRecord> out;
  EXPECT_FALSE(JournalRecordsFromBinary("", &out));
  EXPECT_FALSE(JournalRecordsFromBinary("NOPE", &out));
  const std::string frame =
      JournalRecordsToBinary({{JournalKind::kExec, 0, 1, 2, 3, 4, "x"}});
  // Truncations at every boundary must fail, never crash.
  for (size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(JournalRecordsFromBinary(frame.substr(0, len), &out))
        << "accepted truncation at " << len;
  }
  // Trailing garbage is rejected too.
  EXPECT_FALSE(JournalRecordsFromBinary(frame + "z", &out));
  // A corrupt kind byte is rejected; span (8) is the last known kind.
  std::string bad_kind = frame;
  bad_kind[8] = static_cast<char>(0x7f);
  EXPECT_FALSE(JournalRecordsFromBinary(bad_kind, &out));
  bad_kind[8] = static_cast<char>(JournalKind::kSpan);
  EXPECT_TRUE(JournalRecordsFromBinary(bad_kind, &out));
  bad_kind[8] = static_cast<char>(9);
  EXPECT_FALSE(JournalRecordsFromBinary(bad_kind, &out));
}

TEST(JournalTest, ChromeJsonGolden) {
  // A span becomes a complete event named after its detail; any other
  // record an instant named after its kind, with its payload as args.
  const std::vector<JournalRecord> records = {
      {JournalKind::kSpan, 0, 1500, 2500, 0, 0, "exec"},
      {JournalKind::kCrash, 2, 5000, 7, 3, 1, "KASAN: \"use\" in a\\b"},
  };
  const std::string expected =
      "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
      "{\"name\": \"exec\", \"ph\": \"X\", \"pid\": 1, \"tid\": 0, "
      "\"ts\": 1.500, \"dur\": 2.500},\n"
      "{\"name\": \"crash\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 1, "
      "\"tid\": 2, \"ts\": 5.000, \"args\": {\"a\": 7, \"b\": 3, "
      "\"c\": 1, \"detail\": \"KASAN: \\\"use\\\" in a\\\\b\"}}\n"
      "]}\n";
  EXPECT_EQ(JournalRecordsToChromeJson(records), expected);
  EXPECT_EQ(JournalRecordsToChromeJson({}),
            "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n]}\n");
}

TEST(JournalTest, WriterStagesUntilFlush) {
  if (!kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  Journal journal(16);
  JournalWriter writer(&journal, 5);
  writer.Record(JournalKind::kFault, 10, 1);
  writer.Record(JournalKind::kRecovery, 20, 2);
  EXPECT_EQ(writer.pending(), 2u);
  EXPECT_EQ(journal.size(), 0u);  // Nothing visible before the flush.
  writer.Flush();
  EXPECT_EQ(writer.pending(), 0u);
  ASSERT_EQ(journal.size(), 2u);
  EXPECT_EQ(journal.Records()[0].worker, 5u);
}

// Eight writers hammer one journal concurrently, flushing every few
// records; the drained ring must reconcile exactly with what was staged.
// Exercised under TSan by the parallel_fuzz_tsan suite.
TEST(JournalThreadsTest, ConcurrentWritersReconcile) {
  if (!kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  constexpr size_t kWriters = 8;
  constexpr uint64_t kPerWriter = 500;
  Journal journal(kWriters * kPerWriter);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&journal, w] {
      JournalWriter writer(&journal, static_cast<uint32_t>(w));
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        writer.Record(JournalKind::kExec, i, i, w);
        if (i % 7 == 0) {
          writer.Flush();
        }
      }
      writer.Flush();
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const std::vector<JournalRecord> records = journal.Records();
  ASSERT_EQ(records.size(), kWriters * kPerWriter);
  EXPECT_EQ(journal.dropped(), 0u);
  std::map<uint32_t, uint64_t> per_worker;
  for (const JournalRecord& record : records) {
    ++per_worker[record.worker];
  }
  ASSERT_EQ(per_worker.size(), kWriters);
  for (const auto& [worker, count] : per_worker) {
    EXPECT_EQ(count, kPerWriter) << "worker " << worker;
  }
}

// ---------------------------------------------------------------------------
// Histogram quantiles.

HistogramSnapshot SnapshotOf(const MetricRegistry& registry,
                             const std::string& name) {
  return registry.Snapshot().histograms.at(name);
}

TEST(QuantileTest, EmptyAndSingleValue) {
  if (!kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  MetricRegistry registry;
  Histogram* hist = registry.GetHistogram("h");
  EXPECT_EQ(SnapshotOf(registry, "h").Quantile(0.5), 0.0);
  hist->Observe(2);
  const HistogramSnapshot snap = SnapshotOf(registry, "h");
  // Value 2 lands in the [2, 3] bucket; the rank interpolates across it.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.50), 2.5);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.90), 2.9);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.99), 2.99);
}

TEST(QuantileTest, OrderedAndClamped) {
  if (!kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  MetricRegistry registry;
  Histogram* hist = registry.GetHistogram("h");
  for (uint64_t v = 1; v <= 1000; ++v) {
    hist->Observe(v);
  }
  const HistogramSnapshot snap = SnapshotOf(registry, "h");
  const double p50 = snap.Quantile(0.50);
  const double p90 = snap.Quantile(0.90);
  const double p99 = snap.Quantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // Log2 buckets bound the error to the covering bucket's width.
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 1023.0);
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1023.0);
  // Out-of-range q clamps instead of reading out of bounds.
  EXPECT_GE(snap.Quantile(-1.0), 0.0);
  EXPECT_LE(snap.Quantile(2.0), 1023.0);
}

TEST(QuantileTest, ZeroBucket) {
  if (!kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  MetricRegistry registry;
  Histogram* hist = registry.GetHistogram("h");
  hist->Observe(0);
  hist->Observe(0);
  EXPECT_DOUBLE_EQ(SnapshotOf(registry, "h").Quantile(0.99), 0.0);
}

// ---------------------------------------------------------------------------
// Campaign-level journal determinism and Prometheus conformance.

CampaignOptions ShortCampaign(uint64_t seed) {
  CampaignOptions options;
  options.tool = ToolKind::kHealer;
  options.seed = seed;
  options.hours = 24.0;
  options.max_execs = 300;
  return options;
}

TEST(JournalDeterminismTest, SameSeedSameJsonl) {
  if (!kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  const CampaignResult a = RunCampaign(ShortCampaign(11));
  const CampaignResult b = RunCampaign(ShortCampaign(11));
  ASSERT_FALSE(a.journal.empty());
  EXPECT_EQ(JournalRecordsToJsonl(a.journal), JournalRecordsToJsonl(b.journal));
  EXPECT_EQ(JournalRecordsToBinary(a.journal),
            JournalRecordsToBinary(b.journal));
  // A different seed writes a different history.
  const CampaignResult c = RunCampaign(ShortCampaign(12));
  EXPECT_NE(JournalRecordsToJsonl(a.journal), JournalRecordsToJsonl(c.journal));
}

TEST(JournalDeterminismTest, CampaignJournalCoversTheCoreKinds) {
  if (!kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  CampaignOptions options = ShortCampaign(11);
  options.journal_capacity = 1 << 16;  // Keep every record.
  const CampaignResult result = RunCampaign(options);
  std::map<JournalKind, size_t> by_kind;
  for (const JournalRecord& record : result.journal) {
    ++by_kind[record.kind];
  }
  // One exec record per fuzzing execution (ring large enough to hold all).
  EXPECT_EQ(by_kind[JournalKind::kExec], result.fuzz_execs);
  EXPECT_GT(by_kind[JournalKind::kCorpusAdd], 0u);
  EXPECT_GT(by_kind[JournalKind::kRelationLearned], 0u);
  if (!result.crashes.empty()) {
    // Every crash journals, and the crashed guest's reboot does too.
    EXPECT_GT(by_kind[JournalKind::kCrash], 0u);
    EXPECT_GT(by_kind[JournalKind::kVmLifecycle], 0u);
  }
}

// Prometheus text exposition conformance over a real campaign snapshot:
// valid metric names, counters ending in _total, a # HELP line for every
// healer_* metric, and every sample line lint-clean.
TEST(PrometheusConformanceTest, CampaignSnapshotLints) {
  if (!kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  const CampaignResult result = RunCampaign(ShortCampaign(3));
  const std::string text = result.telemetry.ToPrometheusText();
  ASSERT_FALSE(text.empty());

  const std::regex name_re("[a-zA-Z_:][a-zA-Z0-9_:]*");
  const std::regex sample_re(
      "^([a-zA-Z_:][a-zA-Z0-9_:]*)(\\{[^{}]*\\})? "
      "(-?[0-9]+(\\.[0-9]+)?([eE][+-]?[0-9]+)?|[+-]?Inf|NaN)$");
  std::map<std::string, std::string> types;  // metric -> counter/gauge/...
  std::map<std::string, bool> has_help;
  std::string last_help_name;

  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line.rfind("# HELP ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string name;
      fields >> name;
      EXPECT_TRUE(std::regex_match(name, name_re)) << name;
      has_help[name] = true;
      last_help_name = name;
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string name, type;
      fields >> name >> type;
      EXPECT_TRUE(std::regex_match(name, name_re)) << name;
      EXPECT_TRUE(type == "counter" || type == "gauge" || type == "histogram")
          << line;
      // HELP, when present, must immediately precede its TYPE line.
      if (has_help.count(name) != 0) {
        EXPECT_EQ(last_help_name, name) << "HELP/TYPE order for " << name;
      }
      types[name] = type;
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown comment: " << line;
    EXPECT_TRUE(std::regex_match(line, sample_re)) << "lint fail: " << line;
  }

  ASSERT_FALSE(types.empty());
  for (const auto& [name, type] : types) {
    EXPECT_EQ(name.rfind("healer_", 0), 0u)
        << name << " is outside the healer_ namespace";
    EXPECT_TRUE(has_help[name]) << name << " has no # HELP line";
    if (type == "counter") {
      EXPECT_EQ(name.substr(name.size() - 6), "_total")
          << "counter " << name << " must end in _total";
    }
  }
}

// ---------------------------------------------------------------------------
// Parallel fuzzing journal.

TEST(ParallelJournalTest, ExecRecordsReconcileWithFuzzExecs) {
  if (!kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  ParallelOptions options;
  options.seed = 5;
  options.num_workers = 4;
  options.total_execs = 400;
  options.journal_capacity = 1 << 16;  // Keep every record.
  const ParallelResult result = RunParallelFuzz(BuiltinTarget(), options);
  EXPECT_EQ(result.fuzz_execs, options.total_execs);
  std::map<JournalKind, size_t> by_kind;
  std::map<uint32_t, size_t> execs_by_worker;
  for (const JournalRecord& record : result.journal) {
    ++by_kind[record.kind];
    if (record.kind == JournalKind::kExec) {
      ++execs_by_worker[record.worker];
    }
  }
  // One exec record per claimed ticket, fleet-wide and per worker.
  EXPECT_EQ(by_kind[JournalKind::kExec], result.fuzz_execs);
  size_t sum = 0;
  for (const auto& [worker, count] : execs_by_worker) {
    EXPECT_LT(worker, options.num_workers);
    sum += count;
  }
  EXPECT_EQ(sum, result.fuzz_execs);
  EXPECT_GT(by_kind[JournalKind::kCorpusAdd], 0u);
}

// A workers campaign stamps crashes and learned edges with the shared
// campaign clock, as the single fuzzer does: no crash and no learned edge
// sits at time 0.
TEST(ParallelJournalTest, CrashesAndLearnedEdgesCarryCampaignTime) {
  if (!kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  ParallelOptions options;
  options.seed = 5;
  options.num_workers = 2;
  options.total_execs = 1500;
  options.journal_capacity = 1 << 16;  // Keep every record.
  const ParallelResult result = RunParallelFuzz(BuiltinTarget(), options);
  ASSERT_FALSE(result.crash_records.empty());
  ASSERT_GT(result.relations_dynamic, 0u);
  for (const CrashRecord& crash : result.crash_records) {
    EXPECT_GT(crash.first_seen, 0) << crash.title;
  }
  size_t learned = 0;
  for (const JournalRecord& record : result.journal) {
    if (record.kind == JournalKind::kRelationLearned) {
      ++learned;
      EXPECT_GT(record.at, 0) << record.detail;
    }
  }
  EXPECT_GT(learned, 0u);
}

// One worker under a fault plan recovers as Fuzzer::ExecWithRecovery does:
// a fault record per failed attempt, a recovery record per recovered
// execution, and the doubling backoff spent on the campaign clock.
TEST(ParallelJournalTest, FaultsAndRecoveriesReconcileWithFaultStats) {
  if (!kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  ParallelOptions options;
  options.seed = 9;
  options.num_workers = 1;
  options.total_execs = 300;
  options.fault_plan = FaultPlan::Uniform(0.03);
  options.recovery.backoff = SimClock::kHour;
  options.journal_capacity = 1 << 16;  // Keep every record.
  const ParallelResult result = RunParallelFuzz(BuiltinTarget(), options);
  ASSERT_GT(result.faults.retries, 0u);
  ASSERT_GT(result.faults.recovered, 0u);
  std::map<JournalKind, size_t> by_kind;
  for (const JournalRecord& record : result.journal) {
    ++by_kind[record.kind];
  }
  EXPECT_EQ(by_kind[JournalKind::kFault], result.faults.failed_execs);
  EXPECT_EQ(by_kind[JournalKind::kRecovery], result.faults.recovered);
  // Each retry waited at least the one-hour first backoff.
  EXPECT_GE(result.telemetry.gauge("healer_sim_hours"),
            static_cast<double>(result.faults.retries));
}

TEST(ParallelJournalTest, DisabledByDefault) {
  ParallelOptions options;
  options.seed = 5;
  options.num_workers = 2;
  options.total_execs = 64;
  const ParallelResult result = RunParallelFuzz(BuiltinTarget(), options);
  EXPECT_TRUE(result.journal.empty());
}

// ---------------------------------------------------------------------------
// Crash postmortem bundles.

TEST(PostmortemTest, SlugIsFilesystemSafe) {
  EXPECT_EQ(PostmortemSlug("KASAN: use-after-free in tcp_close"),
            "kasan-use-after-free-in-tcp-close");
  EXPECT_EQ(PostmortemSlug("a  b//c"), "a-b-c");
  EXPECT_EQ(PostmortemSlug(""), "crash");
  EXPECT_LE(PostmortemSlug(std::string(200, 'x')).size(), 48u);
}

// Reads every regular file under `dir` into path -> contents (relative
// paths), for byte-level bundle comparison.
std::map<std::string, std::string> SlurpTree(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    files[fs::relative(entry.path(), dir).string()] = buf.str();
  }
  return files;
}

// The crash-prone fixed-seed configuration from fuzz_loop_test: 400 steps
// at seed 20260806 find 7 unique bugs. Each must produce one bundle, and
// two same-seed runs must write byte-identical trees.
TEST(PostmortemTest, OneBundlePerUniqueCrashByteIdentical) {
  if (!kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  const fs::path base =
      fs::temp_directory_path() / "healer_postmortem_test";
  fs::remove_all(base);
  auto run = [&](const std::string& sub) {
    FuzzerOptions options;
    options.tool = ToolKind::kHealer;
    options.seed = 20260806;
    options.postmortem_dir = (base / sub).string();
    Fuzzer fuzzer(BuiltinTarget(), options);
    for (int i = 0; i < 400; ++i) {
      fuzzer.Step();
    }
    return fuzzer.crashes().UniqueBugs();
  };
  const size_t bugs_a = run("a");
  const size_t bugs_b = run("b");
  ASSERT_GT(bugs_a, 0u);
  EXPECT_EQ(bugs_a, bugs_b);

  size_t bundles = 0;
  for (const auto& entry : fs::directory_iterator(base / "a")) {
    if (!entry.is_directory()) {
      continue;
    }
    ++bundles;
    // Every bundle is self-contained, including the minimized repro.
    for (const char* name :
         {"crash.json", "program.txt", "journal.jsonl", "journal.bin",
          "metrics.prom", "relations.json", "repro.txt"}) {
      EXPECT_TRUE(fs::exists(entry.path() / name))
          << entry.path() << " lacks " << name;
    }
    // The binary journal decodes and matches the JSONL view.
    std::ifstream bin(entry.path() / "journal.bin", std::ios::binary);
    std::ostringstream buf;
    buf << bin.rdbuf();
    std::vector<JournalRecord> window;
    ASSERT_TRUE(JournalRecordsFromBinary(buf.str(), &window));
    std::ifstream jsonl(entry.path() / "journal.jsonl", std::ios::binary);
    std::ostringstream jbuf;
    jbuf << jsonl.rdbuf();
    EXPECT_EQ(JournalRecordsToJsonl(window), jbuf.str());
    // The newest record in the window is the triggering crash... of this
    // bundle's bug for the first trigger; at minimum the window must
    // contain a crash record.
    bool has_crash = false;
    for (const JournalRecord& record : window) {
      has_crash |= record.kind == JournalKind::kCrash;
    }
    EXPECT_TRUE(has_crash) << entry.path();
  }
  EXPECT_EQ(bundles, bugs_a);
  EXPECT_EQ(SlurpTree(base / "a"), SlurpTree(base / "b"));
  fs::remove_all(base);
}

// ---------------------------------------------------------------------------
// Introspection hub and HTTP server.

TEST(IntrospectionHubTest, JournalTailServesNewestLines) {
  IntrospectionHub hub;
  EXPECT_FALSE(hub.healthy());
  EXPECT_EQ(hub.status(), "{}");
  hub.PublishJournal("l1\nl2\nl3\n");
  EXPECT_EQ(hub.journal_tail(2), "l2\nl3\n");
  EXPECT_EQ(hub.journal_tail(10), "l1\nl2\nl3\n");
  hub.PublishJournal("only\n");  // Whole-document replace, not append.
  EXPECT_EQ(hub.journal_tail(10), "only\n");
  hub.SetHealthy(true);
  EXPECT_TRUE(hub.healthy());
}

// Minimal HTTP/1.0 client for the loopback server.
std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return "";
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(IntrospectServerTest, ServesPublishedSnapshots) {
  IntrospectionHub hub;
  hub.PublishMetrics("# TYPE healer_up gauge\nhealer_up 1\n");
  hub.PublishStatus("{\"execs\": 7}");
  hub.PublishJournal("{\"at\":1}\n{\"at\":2}\n{\"at\":3}\n");
  IntrospectServer server(&hub);
  if (!server.Start(0)) {
    GTEST_SKIP() << "cannot bind loopback socket in this environment";
  }
  ASSERT_GT(server.port(), 0);

  // Unhealthy until the campaign says otherwise.
  EXPECT_NE(HttpGet(server.port(), "/healthz").find("503"),
            std::string::npos);
  hub.SetHealthy(true);
  const std::string healthz = HttpGet(server.port(), "/healthz");
  EXPECT_NE(healthz.find("200"), std::string::npos);
  EXPECT_NE(healthz.find("ok\n"), std::string::npos);

  const std::string metrics = HttpGet(server.port(), "/metrics");
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("healer_up 1\n"), std::string::npos);

  const std::string status = HttpGet(server.port(), "/status");
  EXPECT_NE(status.find("application/json"), std::string::npos);
  EXPECT_NE(status.find("{\"execs\": 7}"), std::string::npos);

  // /journal honors ?n= and defaults to the newest 64.
  const std::string tail = HttpGet(server.port(), "/journal?n=2");
  EXPECT_EQ(tail.find("{\"at\":1}"), std::string::npos);
  EXPECT_NE(tail.find("{\"at\":2}"), std::string::npos);
  EXPECT_NE(tail.find("{\"at\":3}"), std::string::npos);
  EXPECT_NE(HttpGet(server.port(), "/journal").find("{\"at\":1}"),
            std::string::npos);

  EXPECT_NE(HttpGet(server.port(), "/nope").find("404"), std::string::npos);
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(IntrospectServerTest, CampaignPublishesIntoHub) {
  if (!kTelemetryEnabled) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  IntrospectionHub hub;
  CampaignOptions options = ShortCampaign(4);
  options.introspect = &hub;
  RunCampaign(options);
  EXPECT_TRUE(hub.healthy());
  EXPECT_NE(hub.metrics().find("healer_fuzz_execs_total"), std::string::npos);
  EXPECT_NE(hub.status().find("\"execs\""), std::string::npos);
  EXPECT_FALSE(hub.journal_tail(8).empty());
}

}  // namespace
}  // namespace healer
