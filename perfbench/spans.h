// Host-time spans and timing statistics for the benchmark driver.
//
// A SpanRecorder keeps every span of a run in memory: its layer, its start
// and end on the steady clock, and the span that was open when it began
// (its parent). Spans nest strictly — the driver opens them with the RAII
// Span guard around each call into a layer — so a span's self time is its
// duration minus the durations of its direct children.
//
// Timings are summarised the way the benchmark reports them: the median,
// plus the highest percentile of a fixed ladder (p90, p99, p99.9, ...)
// that still has at least ten samples beyond it.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SpanRecord {
  int layer = 0;
  int32_t parent = -1;  // Index of the enclosing span, -1 for a root.
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;

  uint64_t duration_ns() const { return end_ns - start_ns; }
};

class SpanRecorder {
 public:
  // Returns the id of `name`, registering it on first use.
  int Layer(const std::string& name) {
    for (size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) {
        return static_cast<int>(i);
      }
    }
    names_.push_back(name);
    return static_cast<int>(names_.size() - 1);
  }
  const std::vector<std::string>& layer_names() const { return names_; }

  // Opens a span under the innermost open one and returns its index.
  int32_t Begin(int layer, uint64_t now_ns) {
    SpanRecord span;
    span.layer = layer;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_ns = now_ns;
    spans_.push_back(span);
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }
  // Closes the innermost open span, which must be `index`.
  void End(int32_t index, uint64_t now_ns) {
    spans_[static_cast<size_t>(index)].end_ns = now_ns;
    open_.pop_back();
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  void Clear() {
    spans_.clear();
    open_.clear();
  }

 private:
  std::vector<std::string> names_;
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> open_;
};

// RAII span: opens on construction, closes on destruction.
class Span {
 public:
  Span(SpanRecorder* recorder, int layer)
      : recorder_(recorder), index_(recorder->Begin(layer, NowNs())) {}
  ~Span() { recorder_->End(index_, NowNs()); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* recorder_;
  int32_t index_;
};

// Self time of every span: its duration minus its direct children's.
inline std::vector<uint64_t> SelfTimes(const std::vector<SpanRecord>& spans) {
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration_ns();
  }
  for (const SpanRecord& span : spans) {
    if (span.parent >= 0) {
      uint64_t& parent = self[static_cast<size_t>(span.parent)];
      parent -= std::min(parent, span.duration_ns());
    }
  }
  return self;
}

// Quantile of an ascending sample vector (q in [0, 1]), interpolating
// linearly between the two nearest ranks.
inline double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

// The highest percentile of the ladder 0.9, 0.99, 0.999, ... that leaves at
// least ten of `n` samples beyond it; 0 when even p90 does not (n < 100).
inline double TailQuantile(size_t n) {
  double best = 0.0;
  for (double beyond = 0.1; beyond * static_cast<double>(n) >= 10.0 - 1e-9;
       beyond /= 10.0) {
    best = 1.0 - beyond;
  }
  return best;
}

struct TimingSummary {
  size_t n = 0;
  double median = 0.0;
  double tail_q = 0.0;  // 0 when there are too few samples for a tail.
  double tail = 0.0;
};

inline TimingSummary Summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  TimingSummary s;
  s.n = samples.size();
  s.median = QuantileSorted(samples, 0.5);
  s.tail_q = TailQuantile(s.n);
  if (s.tail_q > 0.0) {
    s.tail = QuantileSorted(samples, s.tail_q);
  }
  return s;
}

// "p99.9" style label of a tail quantile.
inline std::string QuantileLabel(double q) {
  std::string digits = std::to_string(q * 100.0);
  digits.erase(digits.find_last_not_of('0') + 1);
  if (!digits.empty() && digits.back() == '.') {
    digits.pop_back();
  }
  return "p" + digits;
}

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
