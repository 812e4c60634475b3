#include "src/base/metrics.h"

#include <cstdlib>

#include "src/base/string_util.h"

namespace healer {

void Counter::AssignShard() {
  static std::atomic<size_t> next{0};
  this_thread_shard_ = next.fetch_add(1, std::memory_order_relaxed) % kShards;
}

uint64_t Histogram::BucketUpperEdge(size_t index) {
  if (index == 0) {
    return 0;
  }
  if (index >= 64) {
    return ~uint64_t{0};
  }
  return (uint64_t{1} << index) - 1;
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) {
    return 0.0;
  }
  if (q < 0.0) {
    q = 0.0;
  }
  if (q > 1.0) {
    q = 1.0;
  }
  // Rank in [0, count]; interpolate linearly inside the covering bucket.
  const double target = q * static_cast<double>(count);
  uint64_t before = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) {
      continue;
    }
    if (static_cast<double>(before + in_bucket) >= target) {
      if (i == 0) {
        return 0.0;  // Bucket 0 holds only the value 0.
      }
      const double lower =
          static_cast<double>(Histogram::BucketUpperEdge(i - 1) + 1);
      const double upper = static_cast<double>(Histogram::BucketUpperEdge(i));
      double frac =
          (target - static_cast<double>(before)) / static_cast<double>(in_bucket);
      if (frac < 0.0) {
        frac = 0.0;
      }
      return lower + frac * (upper - lower);
    }
    before += in_bucket;
  }
  return buckets.empty()
             ? 0.0
             : static_cast<double>(
                   Histogram::BucketUpperEdge(buckets.size() - 1));
}

uint64_t MetricsSnapshot::counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double MetricsSnapshot::gauge(const std::string& name) const {
  auto it = gauges.find(name);
  return it == gauges.end() ? 0.0 : it->second;
}

namespace {

// Shortest representation that round-trips; avoids "0.620000" noise.
std::string FormatDouble(double value) {
  std::string text = StrFormat("%.17g", value);
  for (int precision = 1; precision < 17; ++precision) {
    std::string candidate = StrFormat("%.*g", precision, value);
    if (std::strtod(candidate.c_str(), nullptr) == value) {
      return candidate;
    }
  }
  return text;
}

// "# HELP" text escaping per the exposition format: backslash and newline.
std::string EscapeHelp(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (char ch : help) {
    if (ch == '\\') {
      out += "\\\\";
    } else if (ch == '\n') {
      out += "\\n";
    } else {
      out += ch;
    }
  }
  return out;
}

}  // namespace

std::string MetricsSnapshot::ToPrometheusText() const {
  std::string out;
  const auto emit_help = [&](const std::string& name) {
    auto it = help.find(name);
    if (it != help.end() && !it->second.empty()) {
      out += StrFormat("# HELP %s %s\n", name.c_str(),
                       EscapeHelp(it->second).c_str());
    }
  };
  for (const auto& [name, value] : counters) {
    emit_help(name);
    out += StrFormat("# TYPE %s counter\n", name.c_str());
    out += StrFormat("%s %llu\n", name.c_str(), (unsigned long long)value);
  }
  for (const auto& [name, value] : gauges) {
    emit_help(name);
    out += StrFormat("# TYPE %s gauge\n", name.c_str());
    out += StrFormat("%s %s\n", name.c_str(), FormatDouble(value).c_str());
  }
  for (const auto& [name, hist] : histograms) {
    emit_help(name);
    out += StrFormat("# TYPE %s histogram\n", name.c_str());
    uint64_t cumulative = 0;
    for (size_t i = 0; i < hist.buckets.size(); ++i) {
      cumulative += hist.buckets[i];
      out += StrFormat("%s_bucket{le=\"%llu\"} %llu\n", name.c_str(),
                       (unsigned long long)Histogram::BucketUpperEdge(i),
                       (unsigned long long)cumulative);
    }
    out += StrFormat("%s_bucket{le=\"+Inf\"} %llu\n", name.c_str(),
                     (unsigned long long)hist.count);
    out += StrFormat("%s_sum %llu\n", name.c_str(),
                     (unsigned long long)hist.sum);
    out += StrFormat("%s_count %llu\n", name.c_str(),
                     (unsigned long long)hist.count);
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += StrFormat("%s\n    \"%s\": %llu", first ? "" : ",", name.c_str(),
                     (unsigned long long)value);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += StrFormat("%s\n    \"%s\": %s", first ? "" : ",", name.c_str(),
                     FormatDouble(value).c_str());
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : histograms) {
    out += StrFormat("%s\n    \"%s\": {\"count\": %llu, \"sum\": %llu, "
                     "\"buckets\": [",
                     first ? "" : ",", name.c_str(),
                     (unsigned long long)hist.count,
                     (unsigned long long)hist.sum);
    for (size_t i = 0; i < hist.buckets.size(); ++i) {
      out += StrFormat("%s%llu", i == 0 ? "" : ", ",
                       (unsigned long long)hist.buckets[i]);
    }
    out += StrFormat("], \"p50\": %s, \"p90\": %s, \"p99\": %s}",
                     FormatDouble(hist.Quantile(0.50)).c_str(),
                     FormatDouble(hist.Quantile(0.90)).c_str(),
                     FormatDouble(hist.Quantile(0.99)).c_str());
    first = false;
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

Counter* MetricRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return slot.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return slot.get();
}

Histogram* MetricRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>();
  }
  return slot.get();
}

void MetricRegistry::SetHelp(const std::string& name,
                             const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  help_[name] = help;
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->Value();
  }
  for (const auto& [name, hist] : histograms_) {
    // The count is the sum of the buckets copied, so the two agree even
    // while other threads observe.
    HistogramSnapshot h;
    h.sum = hist->Sum();
    h.buckets.resize(Histogram::kBuckets);
    for (size_t i = 0; i < Histogram::kBuckets; ++i) {
      h.buckets[i] = hist->BucketCount(i);
      h.count += h.buckets[i];
    }
    while (!h.buckets.empty() && h.buckets.back() == 0) {
      h.buckets.pop_back();
    }
    snapshot.histograms[name] = std::move(h);
  }
  snapshot.help = help_;
  return snapshot;
}

}  // namespace healer
