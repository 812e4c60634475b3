// EventLoop: the single-threaded-per-shard reactor that drives VM lifecycle
// state machines over simulated time (DESIGN.md §12). Three event sources
// feed one deterministic dispatch order:
//
//   * a hierarchical timer wheel over SimClock nanoseconds — boot, reboot
//     and watchdog deadlines land in 64-slot levels (level-0 tick = one
//     simulated millisecond) with a per-level occupancy bitmask, so an idle
//     loop skips straight to the next armed deadline instead of ticking;
//   * a FIFO ready queue (Post) for immediate work;
//   * completion sources — a producer on any thread rings a doorbell
//     (SignalCompletion) and the loop runs the registered handler at its
//     next pump, with coalescing exactly like an eventfd read.
//
// Determinism contract: timers fire strictly ordered by (deadline,
// sequence-number) — two timers armed for the same nanosecond fire in the
// order they were scheduled — and Post callbacks run FIFO. A single-threaded
// caller scheduling the same work against the same clock therefore observes
// byte-identical event order across runs, which is what lets fleet-scale
// boot/crash storms journal identically for a fixed seed.
//
// The loop's own `now()` is virtual time: RunUntil(horizon) advances it to
// each due deadline in turn, so 512 overlapping boots cost one boot latency
// of loop time, not 512 (the shared campaign SimClock only ever moves via
// its additive Advance; the pool bridges the two — see vm_pool.h).
//
// Thread safety: all public methods are internally locked, so parallel
// workers may Post/Schedule/Signal against a shard they do not pump.
// Callbacks run with the lock released (re-arming a timer from inside a
// callback is fine); the caller must serialize pumps per loop (the pool's
// per-shard pump mutex does this).

#ifndef SRC_BASE_EVENT_LOOP_H_
#define SRC_BASE_EVENT_LOOP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/base/sim_clock.h"

namespace healer {

class EventLoop {
 public:
  using Callback = std::function<void()>;

  static constexpr SimClock::Nanos kNoDeadline = ~SimClock::Nanos{0};

  explicit EventLoop(SimClock::Nanos start = 0);

  // ---- ready queue ----
  // Enqueues `cb` to run at the next pump, FIFO with other posts.
  void Post(Callback cb);

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
  // Runs completions + posted callbacks without advancing time. Returns the
  // number of callbacks dispatched.
  size_t PumpReady();
  // Dispatches every due event with deadline <= horizon, advancing now() to
  // each deadline in turn and to `horizon` at the end. Returns dispatches.
  size_t RunUntil(SimClock::Nanos horizon);
  // Drains until no timer remains armed (a self-rescheduling timer never
  // lets this return). A test and bench helper.
  size_t RunUntilIdle();

  // Earliest armed deadline, kNoDeadline when idle. The unlocked variant
  // `next_deadline_hint()` is a conservative (never-late) relaxed read for
  // hot-path "anything due?" probes.
  SimClock::Nanos NextDeadline() const;
  SimClock::Nanos next_deadline_hint() const {
    return deadline_hint_.load(std::memory_order_relaxed);
  }

  SimClock::Nanos now() const { return now_.load(std::memory_order_relaxed); }
  size_t pending_timers() const {
    return live_timers_.load(std::memory_order_relaxed);
  }
  uint64_t dispatched() const {
    return dispatched_.load(std::memory_order_relaxed);
  }

 private:
  // One simulated millisecond per level-0 tick: fine enough that distinct
  // VM-model latencies never alias, coarse enough that a 7-hour campaign
  // spans ~25M ticks (level 4 of 6).
  static constexpr SimClock::Nanos kTickNs = SimClock::kMillisecond;
  static constexpr size_t kWheelBits = 6;
  static constexpr size_t kWheelSlots = 1u << kWheelBits;  // 64
  static constexpr size_t kWheelLevels = 6;  // 64^6 ticks ≈ 2.2 sim-years.

  // Internal timer key; ids are never reused within a loop.
  using TimerId = uint64_t;
  struct Timer {
    SimClock::Nanos deadline = 0;
    uint64_t seq = 0;  // Arm order; the (deadline, seq) tiebreak.
    Callback cb;
  };

  // All Locked() helpers require mu_ held.
  void InsertLocked(TimerId id, SimClock::Nanos deadline);
  // Pulls level-`level` bucket `slot` down to finer levels.
  void CascadeLocked(size_t level, size_t slot);
  // Moves the wheel cursor to `tick`, cascading at every 64-tick boundary.
  void AdvanceCursorLocked(uint64_t tick);
  // Minimum deadline in `slot` of `level`; kNoDeadline if empty.
  SimClock::Nanos SlotMinLocked(size_t level, size_t slot) const;
  SimClock::Nanos NextTimerDeadlineLocked() const;
  void RefreshHintLocked();
  // Collects due (deadline <= horizon) timers from the cursor's level-0
  // slot into `out`, sorted by (deadline, seq).
  void CollectDueLocked(SimClock::Nanos horizon, std::vector<Timer>* out);

  mutable std::mutex mu_;
  std::atomic<SimClock::Nanos> now_;
  uint64_t cursor_ = 0;  // Wheel position in ticks (= now_ / kTickNs).
  uint64_t next_id_ = 1;
  uint64_t next_seq_ = 0;
  std::unordered_map<TimerId, Timer> timers_;
  // slots_[level][slot] holds the ids of armed timers, every one of which
  // is in timers_.
  std::vector<TimerId> slots_[kWheelLevels][kWheelSlots];
  uint64_t occupancy_[kWheelLevels] = {};
  std::vector<Callback> ready_;

  struct CompletionSource {
    Callback handler;
    std::atomic<uint64_t> pending{0};
  };
  // Deque-stable storage: sources are registered up front and never removed.
  std::vector<std::unique_ptr<CompletionSource>> sources_;
  std::atomic<bool> completions_pending_{false};

  std::atomic<SimClock::Nanos> deadline_hint_{kNoDeadline};
  std::atomic<size_t> live_timers_{0};
  std::atomic<uint64_t> dispatched_{0};
};

}  // namespace healer

#endif  // SRC_BASE_EVENT_LOOP_H_
