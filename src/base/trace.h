// Span-based tracing on simulated time.
//
// TraceBuffer is a bounded ring of events timestamped with SimClock nanos:
// complete spans ('X', e.g. one executor round trip including its retries)
// and instant events ('i', e.g. "relation learned", "alpha update"). When
// the ring is full the oldest events are overwritten, so a long campaign
// keeps its most recent window and counts what it dropped.
//
// Export is Chrome trace_event JSON (chrome://tracing / Perfetto: open the
// file with ui.perfetto.dev). Timestamps map simulated nanoseconds to trace
// microseconds, so "24 simulated hours" reads as 24 hours on the Perfetto
// timeline.
//
// Cost model: recording is a mutex acquire + one vector slot write (~tens of
// ns), cheap against the ~µs-scale simulated executions it brackets, so the
// HEALER_TRACE_* macros are left compiled in by default. A capacity-0 buffer
// (the default for library users) drops events before taking the lock;
// -DHEALER_NO_TELEMETRY compiles recording out entirely.
//
// Event names/categories must be string literals (or otherwise outlive the
// buffer): events store the pointers, never copies.

#ifndef SRC_BASE_TRACE_H_
#define SRC_BASE_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/sim_clock.h"

namespace healer {

struct TraceEvent {
  const char* name = "";
  const char* category = "";
  char phase = 'X';  // 'X' complete span, 'i' instant.
  uint32_t tid = 0;  // Worker index; 0 for the single-threaded fuzzer.
  SimClock::Nanos start = 0;
  SimClock::Nanos duration = 0;  // 0 for instants.
  uint64_t arg = 0;              // Optional numeric payload.
  bool has_arg = false;

  bool operator==(const TraceEvent& other) const = default;
};

class TraceBuffer {
 public:
  // capacity == 0 disables recording (events are counted as dropped).
  explicit TraceBuffer(size_t capacity = 0) : capacity_(capacity) {}

  size_t capacity() const { return capacity_; }

  void RecordComplete(const char* name, const char* category,
                      SimClock::Nanos start, SimClock::Nanos duration,
                      uint32_t tid = 0);
  void RecordInstant(const char* name, const char* category,
                     SimClock::Nanos at, uint32_t tid = 0);
  void RecordInstantArg(const char* name, const char* category,
                        SimClock::Nanos at, uint64_t arg, uint32_t tid = 0);

  // Buffered events, oldest first.
  std::vector<TraceEvent> Events() const;
  size_t size() const;
  // Events lost to the bounded ring (recorded - buffered).
  uint64_t dropped() const;

  std::string ToChromeJson() const;

 private:
  void Push(const TraceEvent& event);

  mutable std::mutex mu_;
  size_t capacity_;
  std::vector<TraceEvent> ring_;
  size_t next_ = 0;     // Overwrite position once the ring is full.
  uint64_t total_ = 0;  // Total events ever recorded.
};

// Chrome trace_event JSON for a plain event list (used for the trace copied
// into CampaignResult after the buffer is gone).
std::string TraceEventsToChromeJson(const std::vector<TraceEvent>& events);

// RAII span: records [construction, destruction) on the simulated clock.
class TraceSpan {
 public:
  TraceSpan(TraceBuffer* buffer, const SimClock* clock, const char* name,
            const char* category, uint32_t tid = 0)
      : buffer_(buffer),
        clock_(clock),
        name_(name),
        category_(category),
        tid_(tid),
        start_(clock->now()) {}
  ~TraceSpan() {
    buffer_->RecordComplete(name_, category_, start_, clock_->now() - start_,
                            tid_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceBuffer* buffer_;
  const SimClock* clock_;
  const char* name_;
  const char* category_;
  uint32_t tid_;
  SimClock::Nanos start_;
};

#ifndef HEALER_NO_TELEMETRY
#define HEALER_TRACE_CONCAT2(a, b) a##b
#define HEALER_TRACE_CONCAT(a, b) HEALER_TRACE_CONCAT2(a, b)
// `tid` is the recording thread's worker index (0 for a single fuzzer).
#define HEALER_TRACE_SPAN(buffer, clock, name, category, tid)              \
  ::healer::TraceSpan HEALER_TRACE_CONCAT(healer_trace_span_, __COUNTER__)( \
      (buffer), (clock), (name), (category), (tid))
#define HEALER_TRACE_INSTANT(buffer, clock, name, category, tid) \
  (buffer)->RecordInstant((name), (category), (clock)->now(), (tid))
#else
#define HEALER_TRACE_SPAN(buffer, clock, name, category, tid) ((void)0)
#define HEALER_TRACE_INSTANT(buffer, clock, name, category, tid) ((void)0)
#endif

}  // namespace healer

#endif  // SRC_BASE_TRACE_H_
