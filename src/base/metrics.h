// Process-local telemetry metrics: counters, gauges and log-bucketed
// histograms behind a registry with Prometheus-text and JSON export.
//
// Design constraints, in order:
//   1. Hot-path cost. Counter::Add is one relaxed fetch_add on a per-thread
//      shard (cache-line padded), so ParallelFuzzer workers never contend on
//      a shared atomic; Histogram::Observe is two (bucket and sum). Callers
//      hold raw Counter*/Gauge*/Histogram* handles; the registry mutex is
//      only taken at registration and snapshot time.
//   2. Determinism. Metrics are plain exact integer/double cells — a
//      campaign's snapshot is a pure function of (options, seed, fault_plan)
//      like every other campaign output, and tests compare snapshots with
//      operator==.
//   3. Compile-out. Building with -DHEALER_NO_TELEMETRY (CMake option of
//      the same name) turns every mutation into a no-op so the overhead of
//      the instrumentation itself can be measured (scripts/check.sh
//      telemetry stage guards the delta).
//
// Registries are instantiable values, not process singletons: each Fuzzer /
// SharedFuzzState owns one, which keeps campaigns pure and concurrent
// campaigns isolated.

#ifndef SRC_BASE_METRICS_H_
#define SRC_BASE_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace healer {

#ifdef HEALER_NO_TELEMETRY
inline constexpr bool kTelemetryEnabled = false;
#else
inline constexpr bool kTelemetryEnabled = true;
#endif

// Monotonic counter, sharded per thread. Value() is exact (sums shards).
class Counter {
 public:
  static constexpr size_t kShards = 16;

  void Add(uint64_t delta = 1) {
#ifndef HEALER_NO_TELEMETRY
    shards_[ThisThreadShard()].value.fetch_add(delta,
                                               std::memory_order_relaxed);
#endif
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };

  // This thread's shard; kShards until its first Add. Constant-initialized,
  // so reading it needs no initialization guard and no call.
  static inline thread_local size_t this_thread_shard_ = kShards;

  static size_t ThisThreadShard() {
    if (this_thread_shard_ == kShards) [[unlikely]] {
      AssignShard();
    }
    return this_thread_shard_;
  }
  // Threads are assigned shards round-robin on first use.
  static void AssignShard();

  std::array<Shard, kShards> shards_{};
};

// Last-write-wins double value (coverage, corpus size, alpha, ...).
class Gauge {
 public:
  void Set(double value) {
#ifndef HEALER_NO_TELEMETRY
    bits_.store(std::bit_cast<uint64_t>(value), std::memory_order_relaxed);
#endif
  }

  double Value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<uint64_t> bits_{0};  // 0 bits == 0.0.
};

// Log2-bucketed histogram of non-negative integer observations. Bucket 0
// holds the value 0; bucket i >= 1 holds values in [2^(i-1), 2^i - 1], i.e.
// values whose bit width is i. Upper edges are therefore 0, 1, 3, 7, 15, ...
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;

  void Observe(uint64_t value) {
#ifndef HEALER_NO_TELEMETRY
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
#endif
  }

  static size_t BucketIndex(uint64_t value) {
    return value == 0 ? 0 : static_cast<size_t>(std::bit_width(value));
  }
  // Largest value that falls into bucket `index` (inclusive).
  static uint64_t BucketUpperEdge(size_t index);

  // The bucket counts' sum: one less read-modify-write per Observe than
  // keeping a count of its own.
  uint64_t Count() const {
    uint64_t total = 0;
    for (const auto& bucket : buckets_) {
      total += bucket.load(std::memory_order_relaxed);
    }
    return total;
  }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(size_t index) const {
    return buckets_[index].load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
};

struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  // Per-bucket counts, trimmed after the highest non-empty bucket.
  std::vector<uint64_t> buckets;

  // Quantile estimate (q in [0, 1]) by linear interpolation inside the
  // covering log2 bucket. Exact for bucket 0 (the value 0); elsewhere the
  // error is bounded by the bucket width. Returns 0 for an empty histogram.
  double Quantile(double q) const;

  bool operator==(const HistogramSnapshot& other) const = default;
};

// A point-in-time copy of every metric in a registry. Deterministically
// ordered (std::map), comparable, and exportable without the live registry —
// CampaignResult carries one as its TelemetrySnapshot.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  // Optional metric help strings, emitted as "# HELP" exposition lines.
  std::map<std::string, std::string> help;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  // Value lookups; absent names read as zero.
  uint64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;

  // Prometheus text exposition format (counters/gauges/histograms with
  // cumulative le-labelled buckets).
  std::string ToPrometheusText() const;
  std::string ToJson() const;

  bool operator==(const MetricsSnapshot& other) const = default;
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // Returns the metric registered under `name`, creating it on first use.
  // Handles stay valid for the registry's lifetime; registration is
  // mutex-protected, the returned handles are lock-free.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  // Attaches a one-line help string to `name` (any metric type); emitted as
  // a "# HELP" line by the Prometheus exporter. Last write wins.
  void SetHelp(const std::string& name, const std::string& help);

  MetricsSnapshot Snapshot() const;
  std::string ToPrometheusText() const { return Snapshot().ToPrometheusText(); }
  std::string ToJson() const { return Snapshot().ToJson(); }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::string> help_;
};

}  // namespace healer

#endif  // SRC_BASE_METRICS_H_
