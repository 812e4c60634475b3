#include "src/base/event_loop.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace healer {

EventLoop::EventLoop(SimClock::Nanos start)
    : now_(start), cursor_(start / kTickNs) {}

void EventLoop::Post(Callback cb) {
  std::lock_guard<std::mutex> lock(mu_);
  ready_.push_back(std::move(cb));
}

void EventLoop::ScheduleAt(SimClock::Nanos deadline, Callback cb) {
  std::lock_guard<std::mutex> lock(mu_);
  const TimerId id = next_id_++;
  timers_.emplace(id, Timer{deadline, next_seq_++, std::move(cb)});
  InsertLocked(id, deadline);
  live_timers_.store(timers_.size(), std::memory_order_relaxed);
  if (deadline < deadline_hint_.load(std::memory_order_relaxed)) {
    deadline_hint_.store(deadline, std::memory_order_relaxed);
  }
}

void EventLoop::ScheduleAfter(SimClock::Nanos delay, Callback cb) {
  ScheduleAt(now() + delay, std::move(cb));
}

size_t EventLoop::AddCompletionSource(Callback handler) {
  std::lock_guard<std::mutex> lock(mu_);
  sources_.push_back(std::make_unique<CompletionSource>());
  sources_.back()->handler = std::move(handler);
  return sources_.size() - 1;
}

void EventLoop::SignalCompletion(size_t source) {
  if (source >= sources_.size()) {
    return;
  }
  // Doorbell order matters: publish the pending count before the flag, so a
  // pumper that observes the flag always sees the count (WakeupFd::Signal).
  sources_[source]->pending.fetch_add(1, std::memory_order_release);
  completions_pending_.store(true, std::memory_order_release);
}

size_t EventLoop::PumpReady() {
  size_t n = 0;
  // Completion handlers run first, in source-registration order — the
  // deterministic analogue of polling every eventfd before the work queue.
  if (completions_pending_.exchange(false, std::memory_order_acquire)) {
    for (auto& source : sources_) {
      if (source->pending.exchange(0, std::memory_order_acquire) > 0) {
        source->handler();
        ++n;
      }
    }
  }
  for (;;) {
    std::vector<Callback> batch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      batch.swap(ready_);
    }
    if (batch.empty()) {
      break;
    }
    for (Callback& cb : batch) {
      cb();
      ++n;
    }
  }
  dispatched_.fetch_add(n, std::memory_order_relaxed);
  return n;
}

size_t EventLoop::RunUntil(SimClock::Nanos horizon) {
  size_t n = PumpReady();
  for (;;) {
    std::vector<Timer> due;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const SimClock::Nanos next = NextTimerDeadlineLocked();
      if (next == kNoDeadline || next > horizon) {
        // Nothing due: drag the wheel cursor up toward the horizon (but not
        // past the next armed deadline's tick) so later inserts see a fresh
        // origin and cascade walks stay short.
        uint64_t target = horizon / kTickNs;
        if (next != kNoDeadline) {
          target = std::min(target, next / kTickNs);
        }
        if (timers_.empty()) {
          cursor_ = std::max(cursor_, horizon / kTickNs);
        } else {
          AdvanceCursorLocked(target);
        }
        RefreshHintLocked();
        break;
      }
      AdvanceCursorLocked(std::max(next / kTickNs, cursor_));
      CollectDueLocked(horizon, &due);
      live_timers_.store(timers_.size(), std::memory_order_relaxed);
      RefreshHintLocked();
    }
    for (Timer& timer : due) {
      if (timer.deadline > now()) {
        now_.store(timer.deadline, std::memory_order_relaxed);
      }
      timer.cb();
      ++n;
      dispatched_.fetch_add(1, std::memory_order_relaxed);
    }
    // Work posted by the timers runs at the current virtual time, before
    // any later deadline fires.
    n += PumpReady();
  }
  if (horizon > now()) {
    now_.store(horizon, std::memory_order_relaxed);
  }
  return n;
}

size_t EventLoop::RunUntilIdle() {
  size_t n = PumpReady();
  for (;;) {
    const SimClock::Nanos next = NextDeadline();
    if (next == kNoDeadline) {
      break;
    }
    n += RunUntil(next);
  }
  return n;
}

SimClock::Nanos EventLoop::NextDeadline() const {
  std::lock_guard<std::mutex> lock(mu_);
  return NextTimerDeadlineLocked();
}

void EventLoop::InsertLocked(TimerId id, SimClock::Nanos deadline) {
  uint64_t tick = deadline / kTickNs;
  if (tick < cursor_) {
    tick = cursor_;  // Past deadlines fire at the next pump, in order.
  }
  const uint64_t delta = tick - cursor_;
  size_t level = 0;
  while (level + 1 < kWheelLevels &&
         (delta >> (kWheelBits * (level + 1))) != 0) {
    ++level;
  }
  const size_t slot =
      static_cast<size_t>(tick >> (kWheelBits * level)) & (kWheelSlots - 1);
  slots_[level][slot].push_back(id);
  occupancy_[level] |= 1ull << slot;
}

void EventLoop::CascadeLocked(size_t level, size_t slot) {
  if ((occupancy_[level] & (1ull << slot)) == 0) {
    return;
  }
  std::vector<TimerId> ids = std::move(slots_[level][slot]);
  slots_[level][slot].clear();
  occupancy_[level] &= ~(1ull << slot);
  for (TimerId id : ids) {
    InsertLocked(id, timers_.at(id).deadline);
  }
}

void EventLoop::AdvanceCursorLocked(uint64_t tick) {
  while (cursor_ < tick) {
    const uint64_t boundary = (cursor_ | (kWheelSlots - 1)) + 1;
    if (tick < boundary) {
      cursor_ = tick;
      return;
    }
    cursor_ = boundary;
    // Entering a new level-0 window; pull down the covering bucket of every
    // level whose window boundary this also is, coarsest first so pulled
    // entries land in already-cascaded finer levels.
    for (size_t level = kWheelLevels - 1; level >= 1; --level) {
      const uint64_t window = 1ull << (kWheelBits * level);
      if ((boundary & (window - 1)) == 0) {
        CascadeLocked(level, static_cast<size_t>(boundary >>
                                                 (kWheelBits * level)) &
                                 (kWheelSlots - 1));
      }
    }
  }
}

SimClock::Nanos EventLoop::SlotMinLocked(size_t level, size_t slot) const {
  SimClock::Nanos best = kNoDeadline;
  for (TimerId id : slots_[level][slot]) {
    best = std::min(best, timers_.at(id).deadline);
  }
  return best;
}

SimClock::Nanos EventLoop::NextTimerDeadlineLocked() const {
  // Exact minimum: deadlines are compared in nanoseconds across every
  // occupied bucket, so bucket-rotation ambiguity (an entry one full wheel
  // turn out sharing a slot with the current window) cannot mislead.
  SimClock::Nanos best = kNoDeadline;
  for (size_t level = 0; level < kWheelLevels; ++level) {
    uint64_t mask = occupancy_[level];
    while (mask != 0) {
      const size_t slot = static_cast<size_t>(std::countr_zero(mask));
      mask &= mask - 1;
      best = std::min(best, SlotMinLocked(level, slot));
    }
  }
  return best;
}

void EventLoop::RefreshHintLocked() {
  deadline_hint_.store(NextTimerDeadlineLocked(), std::memory_order_relaxed);
}

void EventLoop::CollectDueLocked(SimClock::Nanos horizon,
                                 std::vector<Timer>* out) {
  const size_t slot = static_cast<size_t>(cursor_) & (kWheelSlots - 1);
  std::vector<TimerId> ids = std::move(slots_[0][slot]);
  slots_[0][slot].clear();
  occupancy_[0] &= ~(1ull << slot);
  for (TimerId id : ids) {
    auto it = timers_.find(id);
    if (it->second.deadline <= horizon) {
      out->push_back(std::move(it->second));
      timers_.erase(it);
    } else {
      // Same tick, past the horizon: stays armed for a later pump.
      slots_[0][slot].push_back(id);
      occupancy_[0] |= 1ull << slot;
    }
  }
  std::sort(out->begin(), out->end(), [](const Timer& a, const Timer& b) {
    return a.deadline != b.deadline ? a.deadline < b.deadline : a.seq < b.seq;
  });
}

}  // namespace healer
