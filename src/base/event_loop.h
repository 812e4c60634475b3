// EventLoop: the single-threaded-per-shard reactor that drives VM lifecycle
// state machines over simulated time (DESIGN.md §12). Two event sources
// feed one deterministic dispatch order:
//
//   * one-shot timers over SimClock nanoseconds — boot and reboot
//     deadlines, at most one per guest — kept in a binary min-heap ordered
//     by (deadline, arm sequence);
//   * completion sources — a producer on any thread rings a doorbell
//     (SignalCompletion) and the loop runs the registered handler at its
//     next pump, with coalescing exactly like an eventfd read.
//
// Determinism contract: timers fire strictly ordered by (deadline, arm
// order). The timers that share a deadline run as one batch, and the
// doorbells rung by then run after the batch, before any later deadline
// fires. A single-threaded caller scheduling the same work against the same
// clock therefore observes byte-identical event order across runs, which is
// what lets fleet-scale boot/crash storms journal identically for a fixed
// seed.
//
// The loop's own `now()` is virtual time: RunUntil(horizon) advances it to
// each due deadline in turn, so 512 overlapping boots cost one boot latency
// of loop time, not 512 (the shared campaign SimClock only ever moves via
// its additive Advance; the pool bridges the two — see vm_pool.h).
//
// Thread safety: all public methods are internally locked, so parallel
// workers may Schedule/Signal against a shard they do not pump. Callbacks
// run with the lock released (re-arming a timer from inside a callback is
// fine); the caller must serialize pumps per loop (the pool's per-shard
// pump mutex does this).

#ifndef SRC_BASE_EVENT_LOOP_H_
#define SRC_BASE_EVENT_LOOP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/base/sim_clock.h"

namespace healer {

class EventLoop {
 public:
  using Callback = std::function<void()>;

  static constexpr SimClock::Nanos kNoDeadline = ~SimClock::Nanos{0};

  explicit EventLoop(SimClock::Nanos start = 0) : now_(start) {}

  // ---- timers ----
  // Arms a one-shot timer. A deadline at or before now() fires at the next
  // pump (ordered by its requested deadline, then arm order). Timers cannot
  // be cancelled: every armed timer fires.
  void ScheduleAt(SimClock::Nanos deadline, Callback cb);
  void ScheduleAfter(SimClock::Nanos delay, Callback cb);

  // ---- completion sources (WakeupFd idiom) ----
  // Registers a handler; returns its doorbell index. Registration is not
  // thread-safe with pumping — register sources before the loop is shared.
  size_t AddCompletionSource(Callback handler);
  // Rings doorbell `source` from any thread. Multiple signals before the
  // next pump coalesce into one handler invocation (eventfd semantics).
  void SignalCompletion(size_t source);

  // ---- pumping (single pumper at a time) ----
  // Runs the rung doorbells, then every timer with deadline <= horizon,
  // advancing now() to each deadline in turn and to `horizon` at the end.
  // Returns the number of callbacks dispatched.
  size_t RunUntil(SimClock::Nanos horizon);
  // Drains until no timer remains armed (a self-rescheduling timer never
  // lets this return). A test helper.
  size_t RunUntilIdle();

  // Earliest armed deadline, kNoDeadline when idle.
  SimClock::Nanos NextDeadline() const;

  SimClock::Nanos now() const { return now_.load(std::memory_order_relaxed); }
  size_t pending_timers() const;
  uint64_t dispatched() const {
    return dispatched_.load(std::memory_order_relaxed);
  }

 private:
  struct Timer {
    SimClock::Nanos deadline = 0;
    uint64_t seq = 0;  // Arm order; the (deadline, seq) tiebreak.
    Callback cb;
  };

  // The heap comparator: std::push_heap keeps the greatest element on top,
  // so "greater" here means "fires later".
  static bool FiresLater(const Timer& a, const Timer& b) {
    return a.deadline != b.deadline ? a.deadline > b.deadline : a.seq > b.seq;
  }

  // Runs the handler of every rung doorbell, in registration order.
  size_t RunCompletions();

  mutable std::mutex mu_;
  std::atomic<SimClock::Nanos> now_;
  uint64_t next_seq_ = 0;
  std::vector<Timer> timers_;  // Heap under FiresLater; guarded by mu_.

  struct CompletionSource {
    Callback handler;
    std::atomic<uint64_t> pending{0};
  };
  // Deque-stable storage: sources are registered up front and never removed.
  std::vector<std::unique_ptr<CompletionSource>> sources_;
  std::atomic<bool> completions_pending_{false};

  std::atomic<uint64_t> dispatched_{0};
};

}  // namespace healer

#endif  // SRC_BASE_EVENT_LOOP_H_
