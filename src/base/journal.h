// Flight-recorder journal: a bounded ring of typed structured records that
// answers "what happened" where metrics only answer "how fast". It is the
// campaign's one event stream: timed spans (JournalSpan) are records too,
// and the Chrome trace export renders the same records.
//
// Records are appended either directly (single-threaded Fuzzer) or through a
// per-worker JournalWriter — a private, unsynchronized buffer the parallel
// workers fill on the lock-free hot path and drain at the existing batched
// publish point, so journaling adds no locks between publishes.
//
// Determinism: records are timestamped with SimClock nanos and carry only
// campaign-derived payloads, so for a fixed (options, seed, fault_plan) the
// journal contents — and both export encodings — are bit-identical across
// runs. That property is what makes postmortem bundles diffable.
//
// Export: JSONL (one record per line, grep/jq-friendly) and a compact
// binary frame ("HJB1") for bundles that must stay small. A capacity-0
// journal drops records before taking any lock; -DHEALER_NO_TELEMETRY
// compiles recording out entirely, like the rest of the telemetry layer.

#ifndef SRC_BASE_JOURNAL_H_
#define SRC_BASE_JOURNAL_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/metrics.h"
#include "src/base/page_mapping.h"
#include "src/base/sim_clock.h"

namespace healer {

enum class JournalKind : uint8_t {
  kExec = 0,             // One program execution finished (ok or failed).
  kCorpusAdd = 1,        // A program was admitted into the corpus.
  kRelationLearned = 2,  // One relation edge entered the table.
  kFault = 3,            // An injected infrastructure fault surfaced.
  kRecovery = 4,         // The recovery policy brought a VM back.
  kVmLifecycle = 5,      // Boot / reboot / quarantine transition.
  kRingStall = 6,        // Retired: no longer written. Kept so kCrash stays 7.
  kCrash = 7,            // A kernel bug was triggered.
  kSpan = 8,             // A timed stretch of the fuzzing loop.
};

inline constexpr size_t kNumJournalKinds = 9;

// Stable lowercase name used in both export encodings.
const char* JournalKindName(JournalKind kind);

// One journal record. The three uint64 payload slots are interpreted per
// kind (documented at each record site and in DESIGN.md §10); `detail` is a
// short free-form string (failure kind, crash title, edge names) and stays
// empty on the hottest kinds.
struct JournalRecord {
  JournalKind kind = JournalKind::kExec;
  uint32_t worker = 0;        // Observing worker; 0 for single-threaded.
  SimClock::Nanos at = 0;     // Simulated time of the event.
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
  std::string detail;

  bool operator==(const JournalRecord& other) const = default;

  // One JSON object, no trailing newline:
  //   {"at":12,"kind":"exec","worker":0,"a":1,"b":2,"c":3}
  // `detail` is emitted (JSON-escaped) only when non-empty.
  std::string ToJsonLine() const;
};

// Bounded ring of JournalRecords. Append takes a mutex (one lock + one slot
// move); the parallel hot path never calls it directly — workers buffer in a
// JournalWriter and flush a whole batch under one acquire at publish time.
//
// The ring slots live in a dedicated page mapping, not on the heap. This
// matters more than it looks: a malloc'd multi-hundred-KB ring crosses
// glibc's adaptive mmap threshold, and repeatedly allocating/freeing it
// (one ring per campaign) retunes that threshold and fragments the main
// arena — measured as a double-digit percent slowdown of the *fuzzing*
// hot path, whose small allocations share the arena. A flight recorder
// must not perturb the flight. Each slot is built when the first record
// reaches it, so an oversized capacity costs address space, not resident
// memory, until records fill it.
class Journal {
 public:
  // capacity == 0 disables recording (records are counted as dropped), as
  // does a failed ring mapping.
  explicit Journal(size_t capacity = 0);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  size_t capacity() const { return capacity_; }
  bool enabled() const { return kTelemetryEnabled && capacity_ > 0; }

  void Append(JournalRecord record);
  // Drains `records` into the ring under a single lock acquire and clears
  // the vector (keeping its allocation for reuse by the writer).
  void AppendBatch(std::vector<JournalRecord>* records);

  // Buffered records, oldest first.
  std::vector<JournalRecord> Records() const;
  // The newest min(n, size) records, oldest first; copies only those.
  std::vector<JournalRecord> Tail(size_t n) const;
  size_t size() const;
  // Records lost to the bounded ring (recorded - buffered).
  uint64_t dropped() const;

  // JSONL of Tail(n) (n == 0 means everything buffered), newline-terminated
  // per record.
  std::string ToJsonl(size_t n = 0) const;

 private:
  void Push(JournalRecord&& record);

  mutable std::mutex mu_;
  size_t capacity_;
  // The slot array: slots [0, size_) hold live records, the rest are raw
  // pages. next_ is the overwrite position once the ring is full.
  PageMapping ring_;
  JournalRecord* slots_;
  size_t size_ = 0;
  size_t next_ = 0;
  uint64_t total_ = 0;  // Total records ever appended.
};

// Per-worker SPSC staging buffer. Record() appends to a private vector (no
// synchronization — single producer), Flush() hands the batch to the shared
// Journal under its one lock. Workers flush at their batched-publish point,
// so journal lock traffic scales with publishes, not with executions.
class JournalWriter {
 public:
  JournalWriter() = default;
  // `journal` may be null (journaling off); `worker` stamps every record.
  JournalWriter(Journal* journal, uint32_t worker)
      : journal_(journal), worker_(worker) {
    if (enabled()) {
      buffer_.reserve(64);
    }
  }

  bool enabled() const { return journal_ != nullptr && journal_->enabled(); }

  void Record(JournalKind kind, SimClock::Nanos at, uint64_t a = 0,
              uint64_t b = 0, uint64_t c = 0, std::string detail = "") {
#ifndef HEALER_NO_TELEMETRY
    if (!enabled()) {
      return;
    }
    JournalRecord& record = buffer_.emplace_back();
    record.kind = kind;
    record.worker = worker_;
    record.at = at;
    record.a = a;
    record.b = b;
    record.c = c;
    record.detail = std::move(detail);
#else
    (void)kind; (void)at; (void)a; (void)b; (void)c; (void)detail;
#endif
  }

  // Drains the staged records into the journal (one lock acquire).
  void Flush() {
    if (journal_ != nullptr && !buffer_.empty()) {
      journal_->AppendBatch(&buffer_);
    }
  }

  size_t pending() const { return buffer_.size(); }

 private:
  Journal* journal_ = nullptr;
  uint32_t worker_ = 0;
  std::vector<JournalRecord> buffer_;
};

// RAII span: one kSpan record covering [construction, destruction) on the
// simulated clock (at = start, a = duration, detail = `name`). The clock is
// read only when the writer is enabled, and -DHEALER_NO_TELEMETRY compiles
// the span out. Spans record at scope exit, so a writer's records are
// ordered by end time: a nested span closes before its parent.
class JournalSpan {
 public:
  JournalSpan(JournalWriter* journal, const SimClock* clock, const char* name)
      : journal_(kTelemetryEnabled && journal->enabled() ? journal : nullptr),
        clock_(clock),
        name_(name),
        start_(journal_ != nullptr ? clock->now() : 0) {}
  ~JournalSpan() {
    if (journal_ != nullptr) {
      journal_->Record(JournalKind::kSpan, start_, clock_->now() - start_, 0,
                       0, name_);
    }
  }
  JournalSpan(const JournalSpan&) = delete;
  JournalSpan& operator=(const JournalSpan&) = delete;

 private:
  JournalWriter* journal_;
  const SimClock* clock_;
  const char* name_;
  SimClock::Nanos start_;
};

// JSONL for a plain record list (used for the journal copied into
// CampaignResult after the ring is gone).
std::string JournalRecordsToJsonl(const std::vector<JournalRecord>& records);

// Chrome trace_event JSON (chrome://tracing, ui.perfetto.dev) for a record
// list. A span becomes a complete event named after its detail; every other
// record an instant named after its kind, with a, b, c and detail as args.
// Simulated nanoseconds map to trace microseconds; tid is the worker.
std::string JournalRecordsToChromeJson(
    const std::vector<JournalRecord>& records);

// Compact binary frame: magic "HJB1", record count, then length-prefixed
// records. Round-trips exactly; decoding is defensive (bad magic, truncated
// frames and absurd lengths return false).
std::string JournalRecordsToBinary(const std::vector<JournalRecord>& records);
bool JournalRecordsFromBinary(const std::string& data,
                              std::vector<JournalRecord>* out);

}  // namespace healer

#endif  // SRC_BASE_JOURNAL_H_
